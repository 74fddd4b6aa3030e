//! Conflict-free wave scheduling over read/write sets.
//!
//! List scheduling by levels: transaction *i* lands at
//! `level(i) = 1 + max(level(j))` over every earlier transaction *j*
//! it conflicts with (W∩W, W∩R, or R∩W on [`StateKey`]s), level 0 when
//! it conflicts with nothing before it. All transactions at one level
//! form a **wave**: within a wave no two transactions share a written
//! key, so they execute on separate cores; waves themselves run in
//! order, so every conflict edge is respected. Because a transaction's
//! level only ever depends on *earlier* transactions, committing each
//! wave's deltas in ascending tx index reproduces the sequential
//! serialization exactly (DESIGN.md §11).
//!
//! Global transactions (unbounded footprint) act as barriers: strictly
//! after everything before them, strictly before everything after, so
//! they always run alone against fully committed state.
//!
//! Complexity is O(n · s · log k) for n transactions with sets of size
//! s over k distinct keys — the per-key maps below replace the O(n²)
//! pairwise conflict scan.

use super::read_write_set::{RwSet, StateKey};
use std::collections::BTreeMap;

/// The wave plan for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Transaction indices grouped by level, ascending within a wave.
    pub waves: Vec<Vec<usize>>,
    /// Level assigned to each transaction, by tx index.
    pub levels: Vec<usize>,
    /// Transactions pushed past level 0 by a conflict — the numerator
    /// of the `exec.conflict_rate` metric.
    pub delayed: usize,
}

impl Schedule {
    /// Fraction of transactions delayed by conflicts (0 when empty).
    pub fn conflict_rate(&self) -> f64 {
        if self.levels.is_empty() {
            0.0
        } else {
            self.delayed as f64 / self.levels.len() as f64
        }
    }
}

/// Builds the wave schedule for one block's inferred sets (indexed by
/// tx position in the block body).
pub fn schedule(sets: &[RwSet]) -> Schedule {
    // For each key: the highest level that wrote it / read it so far.
    let mut writer_level: BTreeMap<&StateKey, usize> = BTreeMap::new();
    let mut reader_level: BTreeMap<&StateKey, usize> = BTreeMap::new();
    // One past the level of the last global tx: a floor for everyone after.
    let mut barrier = 0usize;
    // Highest level assigned so far, if any tx was placed.
    let mut highest: Option<usize> = None;
    let mut levels = Vec::with_capacity(sets.len());
    let mut delayed = 0usize;

    for set in sets {
        let level = if set.global {
            // Conflicts with every earlier tx: one past the highest.
            highest.map_or(0, |h| h + 1)
        } else {
            let mut level = barrier;
            for key in &set.reads {
                if let Some(w) = writer_level.get(key) {
                    level = level.max(w + 1);
                }
            }
            for key in &set.writes {
                if let Some(w) = writer_level.get(key) {
                    level = level.max(w + 1);
                }
                if let Some(r) = reader_level.get(key) {
                    level = level.max(r + 1);
                }
            }
            level
        };
        if level > 0 {
            delayed += 1;
        }
        for key in &set.writes {
            writer_level
                .entry(key)
                .and_modify(|l| *l = (*l).max(level))
                .or_insert(level);
        }
        for key in &set.reads {
            reader_level
                .entry(key)
                .and_modify(|l| *l = (*l).max(level))
                .or_insert(level);
        }
        if set.global {
            // Everything after must start strictly above this tx.
            barrier = level + 1;
        }
        highest = Some(highest.map_or(level, |h| h.max(level)));
        levels.push(level);
    }

    let wave_count = highest.map_or(0, |h| h + 1);
    let mut waves = vec![Vec::new(); wave_count];
    for (index, &level) in levels.iter().enumerate() {
        waves[level].push(index);
    }
    Schedule { waves, levels, delayed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::Address;

    fn set(reads: &[u8], writes: &[u8]) -> RwSet {
        let mut s = RwSet::new();
        for &r in reads {
            s.read(StateKey::Account(Address::from_seed(r as u64)));
        }
        for &w in writes {
            s.write(StateKey::Account(Address::from_seed(w as u64)));
        }
        s
    }

    fn global() -> RwSet {
        RwSet { global: true, ..RwSet::new() }
    }

    #[test]
    fn independent_txs_share_one_wave() {
        let sched = schedule(&[set(&[], &[1, 2]), set(&[], &[3, 4]), set(&[], &[5, 6])]);
        assert_eq!(sched.waves, vec![vec![0, 1, 2]]);
        assert_eq!(sched.delayed, 0);
        assert_eq!(sched.conflict_rate(), 0.0);
    }

    #[test]
    fn write_write_chains_serialize() {
        // Same written key: a dependency chain, one wave each.
        let sched = schedule(&[set(&[], &[1]), set(&[], &[1]), set(&[], &[1])]);
        assert_eq!(sched.waves, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(sched.delayed, 2);
    }

    #[test]
    fn readers_pack_together_between_writers() {
        // w(1) ; r(1) r(1) ; w(1) — both readers share wave 1, the
        // second writer must wait for them.
        let sched =
            schedule(&[set(&[], &[1]), set(&[1], &[2]), set(&[1], &[3]), set(&[], &[1])]);
        assert_eq!(sched.waves, vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn later_independent_tx_may_schedule_before_earlier_conflicting_one() {
        // tx0 w(1), tx1 w(1) (level 1), tx2 w(9) independent → level 0.
        // Commit-in-index-order within each wave keeps this equivalent.
        let sched = schedule(&[set(&[], &[1]), set(&[], &[1]), set(&[], &[9])]);
        assert_eq!(sched.levels, vec![0, 1, 0]);
        assert_eq!(sched.waves, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn global_tx_is_a_barrier_alone_in_its_wave() {
        let sched = schedule(&[set(&[], &[1]), set(&[], &[2]), global(), set(&[], &[3])]);
        assert_eq!(sched.levels, vec![0, 0, 1, 2]);
        assert_eq!(sched.waves, vec![vec![0, 1], vec![2], vec![3]]);
        // A leading global tx still occupies level 0 alone.
        let sched = schedule(&[global(), set(&[], &[1])]);
        assert_eq!(sched.levels, vec![0, 1]);
    }

    #[test]
    fn consecutive_globals_each_get_their_own_wave() {
        let sched = schedule(&[global(), global(), global()]);
        assert_eq!(sched.waves, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn empty_block_schedules_to_no_waves() {
        let sched = schedule(&[]);
        assert!(sched.waves.is_empty());
        assert_eq!(sched.conflict_rate(), 0.0);
    }
}
