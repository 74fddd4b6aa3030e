//! Parallel block execution (DESIGN.md §11).
//!
//! The execution subsystem turns a block body into `(receipts, state
//! delta)` two ways that are — by hard invariant — byte-identical:
//!
//! - [`run_block_sequential`]: one overlay, transactions in order; this
//!   is what `Ledger::apply` uses below the parallelism threshold and
//!   what defines the semantics.
//! - [`run_block_parallel`]: infer a [`RwSet`] per transaction
//!   ([`read_write_set`]), partition into conflict-free waves
//!   ([`scheduler`]), execute each wave's transactions on separate OS
//!   threads (`sync::scoped_map`) against private recording overlays
//!   over the shared block overlay, audit every recorded footprint
//!   against its declared set, and commit deltas in ascending tx index.
//!   Any undeclared access discards all speculation and re-runs the
//!   whole block sequentially — equivalence is never negotiable, the
//!   parallel path is only ever an optimization.
//!
//! The equivalence argument: a transaction's wave level exceeds the
//! level of every earlier transaction it conflicts with, so when it
//! executes, exactly its conflict-predecessors are committed; audited
//! footprints of same- or earlier-wave neighbours are disjoint from its
//! reads, so it observes precisely the sequential prefix state on every
//! key it touches. Admission errors surface as the lowest-index failure,
//! matching the sequential early-exit.

pub mod overlay;
pub mod read_write_set;
pub mod scheduler;

pub use overlay::{StateAccess, StateDelta, WorldStateOverlay};
pub use read_write_set::{infer_rw_set, ExecScope, RwSet, StateKey};
pub use scheduler::{schedule, Schedule};

use crate::ledger::{contract_address, ContractRuntime, ExecError, ExecOutcome, LedgerError, Receipt};
use crate::shard::{sharded_contract_address, ShardId};
use crate::sig::KeyRegistry;
use crate::state::WorldState;
use crate::tx::{SealedTx, TxPayload};
use medchain_runtime::metrics::Metrics;
use medchain_runtime::sync::scoped_map;
use std::collections::BTreeSet;
use std::time::Instant;

/// Everything tx execution needs from the ledger, as shareable borrows
/// (the ledger itself holds a `BlockStore` and is not `Sync`).
pub(crate) struct ExecCtx<'a> {
    pub runtime: &'a dyn ContractRuntime,
    pub registry: &'a KeyRegistry,
    pub shard: ShardId,
    pub shard_count: u16,
    /// Where `exec.txs` counts every transaction executed.
    pub metrics: &'a Metrics,
}

/// Per-block scheduling/execution telemetry, surfaced as `exec.*`.
pub(crate) struct ExecStats {
    pub waves: usize,
    pub wave_widths: Vec<usize>,
    pub wave_walls_us: Vec<f64>,
    pub delayed: usize,
    pub fell_back: bool,
}

/// Result of executing one block body.
pub(crate) struct BlockRun {
    pub receipts: Vec<Receipt>,
    pub delta: StateDelta,
    pub stats: ExecStats,
}

/// Signature + expected-nonce admission against arbitrary state.
pub(crate) fn admission_check(
    registry: &KeyRegistry,
    state: &dyn StateAccess,
    tx: &SealedTx,
) -> Result<(), LedgerError> {
    if !tx.verify(registry) {
        return Err(LedgerError::BadSignature(tx.id()));
    }
    let account = state.account(&tx.sender);
    if tx.nonce != account.nonce {
        return Err(LedgerError::BadNonce {
            tx_id: tx.id(),
            expected: account.nonce,
            got: tx.nonce,
        });
    }
    Ok(())
}

/// Executes one admissible transaction against `state`.
///
/// Contract execution is atomic: `Deploy`/`Invoke` run against a child
/// overlay whose delta only lands on `state` on success — a trap leaves
/// no partial writes (the nonce bump happens before and survives).
pub(crate) fn execute_tx(
    ctx: &ExecCtx<'_>,
    state: &mut WorldStateOverlay<'_>,
    tx: &SealedTx,
    now_ms: u64,
) -> Receipt {
    // Bump nonce first: failed transactions still consume it.
    let mut account = state.account(&tx.sender);
    account.nonce += 1;
    state.set_account(tx.sender, account);

    let result: Result<ExecOutcome, ExecError> = match &tx.payload {
        TxPayload::Transfer { to, amount } => state
            .debit(tx.sender, *amount)
            .map(|()| {
                state.credit(*to, *amount);
                ExecOutcome { gas_used: 21, ..ExecOutcome::default() }
            })
            .map_err(|e| ExecError { gas_used: 21, reason: e.to_string() }),
        TxPayload::Deploy { code, init } => {
            // On a sharded ledger the address is ground so that the
            // invoke routing rule (shard_for_key on the address) lands
            // back on this shard (DESIGN.md §9).
            let contract_addr = if ctx.shard_count > 1 {
                sharded_contract_address(&tx.sender, tx.nonce, ctx.shard, ctx.shard_count)
            } else {
                contract_address(&tx.sender, tx.nonce)
            };
            let attempt = {
                let mut child = WorldStateOverlay::new(state);
                ctx.runtime
                    .deploy(tx.sender, contract_addr, code, init, tx.gas_limit, now_ms, &mut child)
                    .map(|outcome| (outcome, child.into_delta()))
            };
            attempt.map(|(mut outcome, delta)| {
                delta.apply_to(state);
                outcome.output = contract_addr.0.to_vec();
                outcome
            })
        }
        TxPayload::Invoke { contract, input } => {
            let attempt = {
                let mut child = WorldStateOverlay::new(state);
                ctx.runtime
                    .invoke(tx.sender, *contract, input, tx.gas_limit, now_ms, &mut child)
                    .map(|outcome| (outcome, child.into_delta()))
            };
            attempt.map(|(outcome, delta)| {
                delta.apply_to(state);
                outcome
            })
        }
        TxPayload::Anchor { root, label } => match state.anchor(label) {
            Some(existing) if existing != *root => Err(ExecError {
                gas_used: 30,
                reason: LedgerError::AnchorConflict(label.clone()).to_string(),
            }),
            _ => {
                state.set_anchor(label, *root);
                Ok(ExecOutcome { gas_used: 30, ..ExecOutcome::default() })
            }
        },
        TxPayload::CrossLink { shard, height, tip } => {
            if !ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 40,
                    reason: format!("cross-link for {shard} on non-coordinator chain"),
                })
            } else if shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 40,
                    reason: "cross-link cannot reference the coordinator itself".into(),
                })
            } else {
                match state.cross_link(*shard) {
                    // A shard's committed height is monotonic: a link at
                    // or below the last one is a rewind.
                    Some(prev) if prev.height >= *height => Err(ExecError {
                        gas_used: 40,
                        reason: format!(
                            "cross-link height regression for {shard}: \
                             have {}, got {height}",
                            prev.height
                        ),
                    }),
                    _ => {
                        state.set_cross_link(
                            *shard,
                            crate::state::CrossLinkRecord { height: *height, tip: *tip },
                        );
                        Ok(ExecOutcome { gas_used: 40, ..ExecOutcome::default() })
                    }
                }
            }
        }
        TxPayload::XsPrepare { xid, leg, deadline_ms } => {
            if ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 45,
                    reason: "cross-shard prepare on the coordinator chain".into(),
                })
            } else if leg.shard != ctx.shard {
                Err(ExecError {
                    gas_used: 45,
                    reason: format!("prepare leg for {} executed on {}", leg.shard, ctx.shard),
                })
            } else if leg.shard != crate::shard::shard_for_key(&leg.account.0, ctx.shard_count) {
                // Locks must live on the account's home shard, because the
                // finalize that releases them routes by `shard_for_key` —
                // a lock anywhere else would be unreachable forever.
                Err(ExecError {
                    gas_used: 45,
                    reason: format!(
                        "prepare leg locks {:?} away from its home shard",
                        leg.account
                    ),
                })
            } else if leg.debit && tx.sender != leg.account {
                // Only the owner may escrow its own funds. Prepares are
                // client-mintable, so without this check any enrolled
                // client could lock (and, paired with a credit leg to
                // itself, drain) an arbitrary victim account. Credit
                // legs stay open to third parties — paying someone else
                // is the point.
                Err(ExecError {
                    gas_used: 45,
                    reason: LedgerError::XsUnauthorizedDebit {
                        sender: tx.sender,
                        account: leg.account,
                    }
                    .to_string(),
                })
            } else if let Some(held) = state.lock(&leg.account) {
                Err(ExecError {
                    gas_used: 45,
                    reason: LedgerError::AccountLocked { address: leg.account, xid: held.xid }
                        .to_string(),
                })
            } else {
                // A debit leg escrows the amount at prepare time, so a
                // later commit can never fail for funds; a credit leg
                // only records the pending payout.
                let escrow = if leg.debit { state.debit(leg.account, leg.amount) } else { Ok(()) };
                match escrow {
                    Err(e) => Err(ExecError { gas_used: 45, reason: e.to_string() }),
                    Ok(()) => {
                        state.set_lock(
                            leg.account,
                            crate::state::XsLock {
                                xid: *xid,
                                amount: leg.amount,
                                debit: leg.debit,
                                deadline_ms: *deadline_ms,
                            },
                        );
                        Ok(ExecOutcome { gas_used: 45, ..ExecOutcome::default() })
                    }
                }
            }
        }
        TxPayload::XsDecide { xid, commit } => {
            if !ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 45,
                    reason: "cross-shard decision on non-coordinator chain".into(),
                })
            } else if state.xs_decision(xid).is_some() {
                // Decisions are write-once: participants resolving an
                // interrupted round must never see the verdict flip.
                Err(ExecError {
                    gas_used: 45,
                    reason: format!("cross-shard transaction {xid:?} already decided"),
                })
            } else {
                state.set_xs_decision(
                    *xid,
                    crate::state::XsDecisionRecord { commit: *commit, tx_id: tx.id() },
                );
                Ok(ExecOutcome {
                    gas_used: 45,
                    output: vec![u8::from(*commit)],
                    ..ExecOutcome::default()
                })
            }
        }
        TxPayload::XsFinalize { xid, account, commit } => match state.lock(account) {
            None => Err(ExecError {
                gas_used: 45,
                reason: format!("no cross-shard lock held on {account:?}"),
            }),
            Some(lock) if lock.xid != *xid => Err(ExecError {
                gas_used: 45,
                reason: format!(
                    "lock on {account:?} held by a different cross-shard transaction"
                ),
            }),
            Some(lock) => {
                // Commit: a debit leg's escrow is burned here (the
                // credit leg mints on its own shard); a credit leg pays
                // out. Abort: the debit escrow is refunded; a credit
                // leg never moved funds.
                if *commit != lock.debit {
                    state.credit(*account, lock.amount);
                }
                state.clear_lock(account);
                Ok(ExecOutcome { gas_used: 45, ..ExecOutcome::default() })
            }
        },
    };

    match result {
        Ok(outcome) => Receipt {
            tx_id: tx.id(),
            ok: true,
            gas_used: outcome.gas_used,
            output: outcome.output,
            events: outcome.events,
            error: None,
        },
        Err(err) => Receipt {
            tx_id: tx.id(),
            ok: false,
            gas_used: err.gas_used,
            output: Vec::new(),
            events: Vec::new(),
            error: Some(err.reason),
        },
    }
}

/// Reference semantics: one overlay, transactions in block order.
///
/// # Errors
///
/// Returns the first transaction's admission failure, leaving no state
/// effects (the overlay is simply dropped).
pub(crate) fn run_block_sequential(
    ctx: &ExecCtx<'_>,
    base: &WorldState,
    txs: &[SealedTx],
    now_ms: u64,
) -> Result<(Vec<Receipt>, StateDelta), LedgerError> {
    let mut overlay = WorldStateOverlay::new(base);
    let mut receipts = Vec::with_capacity(txs.len());
    let admitted = txs.iter().try_for_each(|tx| {
        admission_check(ctx.registry, &overlay, tx)?;
        receipts.push(execute_tx(ctx, &mut overlay, tx, now_ms));
        Ok(())
    });
    ctx.metrics.counter("exec.txs", receipts.len() as u64);
    admitted?;
    Ok((receipts, overlay.into_delta()))
}

/// One transaction's speculative run inside a wave.
struct TxRun {
    index: usize,
    admission: Option<LedgerError>,
    receipt: Option<Receipt>,
    delta: StateDelta,
    reads: BTreeSet<StateKey>,
}

fn run_speculative(
    ctx: &ExecCtx<'_>,
    base: &dyn StateAccess,
    txs: &[SealedTx],
    index: usize,
    now_ms: u64,
) -> TxRun {
    let mut tx_overlay = WorldStateOverlay::new(base).recording();
    match admission_check(ctx.registry, &tx_overlay, &txs[index]) {
        Err(err) => TxRun {
            index,
            admission: Some(err),
            receipt: None,
            delta: StateDelta::default(),
            reads: BTreeSet::new(),
        },
        Ok(()) => {
            let receipt = execute_tx(ctx, &mut tx_overlay, &txs[index], now_ms);
            let (delta, reads) = tx_overlay.into_parts();
            TxRun { index, admission: None, receipt: Some(receipt), delta, reads }
        }
    }
}

/// Distributes a wave's tx indices round-robin over `lanes` worker
/// lanes (index order preserved within each lane).
fn round_robin(wave: &[usize], lanes: usize) -> Vec<Vec<usize>> {
    let mut chunks = vec![Vec::with_capacity(wave.len() / lanes + 1); lanes];
    for (position, &index) in wave.iter().enumerate() {
        chunks[position % lanes].push(index);
    }
    chunks
}

/// Wave-parallel execution of one block body over `threads` lanes.
///
/// # Errors
///
/// Returns the lowest-index admission failure across the whole body —
/// exactly the error sequential execution would have stopped at.
pub(crate) fn run_block_parallel(
    ctx: &ExecCtx<'_>,
    base: &WorldState,
    txs: &[SealedTx],
    now_ms: u64,
    threads: usize,
) -> Result<BlockRun, LedgerError> {
    let sets: Vec<RwSet> = txs
        .iter()
        .map(|tx| infer_rw_set(tx, ctx.shard, ctx.shard_count, base, ctx.runtime))
        .collect();
    let sched = schedule(&sets);

    let mut overlay = WorldStateOverlay::new(base);
    let mut receipts: Vec<Option<Receipt>> = txs.iter().map(|_| None).collect();
    let mut first_failure: Option<(usize, LedgerError)> = None;
    let note_failure = |slot: &mut Option<(usize, LedgerError)>, index: usize, err| {
        if slot.as_ref().map_or(true, |(i, _)| index < *i) {
            *slot = Some((index, err));
        }
    };
    let mut wave_widths = Vec::with_capacity(sched.waves.len());
    let mut wave_walls_us = Vec::with_capacity(sched.waves.len());
    // Speculative runs are executions too, kept or discarded.
    let mut executed = 0;

    for wave in &sched.waves {
        let started = Instant::now();
        wave_widths.push(wave.len());
        if wave.len() == 1 && sets[wave[0]].global {
            // A barrier tx runs alone against fully committed state —
            // that *is* the sequential position, no audit needed.
            let index = wave[0];
            match admission_check(ctx.registry, &overlay, &txs[index]) {
                Err(err) => note_failure(&mut first_failure, index, err),
                Ok(()) => {
                    receipts[index] = Some(execute_tx(ctx, &mut overlay, &txs[index], now_ms));
                    executed += 1;
                }
            }
        } else {
            let runs: Vec<TxRun> = if wave.len() >= 2 && threads >= 2 {
                let shared: &WorldStateOverlay<'_> = &overlay;
                let lanes = round_robin(wave, threads.min(wave.len()));
                scoped_map(lanes, |lane| {
                    lane.into_iter()
                        .map(|index| run_speculative(ctx, shared, txs, index, now_ms))
                        .collect::<Vec<TxRun>>()
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                wave.iter().map(|&i| run_speculative(ctx, &overlay, txs, i, now_ms)).collect()
            };
            executed += runs.iter().filter(|run| run.admission.is_none()).count() as u64;

            // Footprint audit: every actual access must be declared. A
            // violation means the static sets lied (e.g. a runtime whose
            // code_scope misclassifies) — discard all speculation and
            // fall back to the reference semantics.
            let violated = runs.iter().any(|run| {
                run.admission.is_none() && !sets[run.index].global && {
                    run.reads.iter().any(|k| !sets[run.index].declares(k))
                        || run.delta.write_keys().iter().any(|k| !sets[run.index].declares_write(k))
                }
            });
            if violated {
                ctx.metrics.counter("exec.txs", executed);
                let (receipts, delta) = run_block_sequential(ctx, base, txs, now_ms)?;
                return Ok(BlockRun {
                    receipts,
                    delta,
                    stats: ExecStats {
                        waves: sched.waves.len(),
                        wave_widths,
                        wave_walls_us,
                        delayed: sched.delayed,
                        fell_back: true,
                    },
                });
            }

            // Commit in ascending tx index (wave order is ascending by
            // construction) — deterministic and write-disjoint.
            for run in runs.into_iter() {
                match run.admission {
                    Some(err) => note_failure(&mut first_failure, run.index, err),
                    None => {
                        run.delta.apply_to(&mut overlay);
                        receipts[run.index] = run.receipt;
                    }
                }
            }
        }
        wave_walls_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    ctx.metrics.counter("exec.txs", executed);

    if let Some((_, err)) = first_failure {
        return Err(err);
    }
    let receipts =
        receipts.into_iter().map(|r| r.expect("every admissible tx executed")).collect();
    Ok(BlockRun {
        receipts,
        delta: overlay.into_delta(),
        stats: ExecStats {
            waves: sched.waves.len(),
            wave_widths,
            wave_walls_us,
            delayed: sched.delayed,
            fell_back: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use crate::ledger::{ExecError, ExecOutcome};
    use crate::state::WorldState;
    use crate::sig::{Address, AuthorityKey};

    static NOOP_METRICS: Metrics = Metrics::noop();

    fn ctx<'a>(runtime: &'a dyn ContractRuntime, registry: &'a KeyRegistry) -> ExecCtx<'a> {
        ExecCtx {
            runtime,
            registry,
            shard: ShardId::default(),
            shard_count: 1,
            metrics: &NOOP_METRICS,
        }
    }

    fn enrolled(n: u64) -> (Vec<AuthorityKey>, KeyRegistry) {
        let keys: Vec<AuthorityKey> = (1..=n).map(AuthorityKey::from_seed).collect();
        let mut registry = KeyRegistry::new();
        for k in &keys {
            registry.enroll(k);
        }
        (keys, registry)
    }

    fn transfer(key: &AuthorityKey, nonce: u64, to: Address, amount: u64) -> SealedTx {
        Transaction::new(key.address(), nonce, TxPayload::Transfer { to, amount }, 100)
            .signed(key)
            .into()
    }

    fn assert_equivalent(
        ctx: &ExecCtx<'_>,
        base: &WorldState,
        txs: &[SealedTx],
        threads: usize,
    ) {
        let sequential = run_block_sequential(ctx, base, txs, 10);
        let parallel = run_block_parallel(ctx, base, txs, 10, threads);
        match (sequential, parallel) {
            (Ok((seq_receipts, seq_delta)), Ok(run)) => {
                assert_eq!(seq_receipts, run.receipts);
                let mut seq_state = base.clone();
                let mut par_state = base.clone();
                seq_delta.apply_to(&mut seq_state);
                run.delta.apply_to(&mut par_state);
                assert_eq!(seq_state.state_root(), par_state.state_root());
            }
            (Err(seq_err), Err(par_err)) => assert_eq!(seq_err, par_err),
            (seq, par) => panic!("divergent outcomes: seq ok={}, par ok={}", seq.is_ok(), par.is_ok()),
        }
    }

    #[test]
    fn disjoint_transfers_match_sequential_at_all_thread_counts() {
        let (keys, registry) = enrolled(8);
        let mut base = WorldState::new();
        for k in &keys {
            base.credit(k.address(), 1_000);
        }
        let txs: Vec<SealedTx> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| transfer(k, 0, Address::from_seed(100 + i as u64), 10))
            .collect();
        let runtime = crate::ledger::NullRuntime;
        let ctx = ctx(&runtime, &registry);
        for threads in [1, 2, 4, 8] {
            assert_equivalent(&ctx, &base, &txs, threads);
        }
    }

    #[test]
    fn same_sender_chain_serializes_and_matches() {
        let (keys, registry) = enrolled(1);
        let mut base = WorldState::new();
        base.credit(keys[0].address(), 1_000);
        let txs: Vec<SealedTx> =
            (0..6).map(|n| transfer(&keys[0], n, Address::from_seed(50), 10)).collect();
        let runtime = crate::ledger::NullRuntime;
        let ctx = ctx(&runtime, &registry);
        assert_equivalent(&ctx, &base, &txs, 4);
    }

    #[test]
    fn admission_failure_reports_lowest_index_like_sequential() {
        let (keys, registry) = enrolled(2);
        let mut base = WorldState::new();
        base.credit(keys[0].address(), 1_000);
        base.credit(keys[1].address(), 1_000);
        // tx0 fine; tx1 has a nonce gap (sequential stops here); tx2 fine.
        let txs = vec![
            transfer(&keys[0], 0, Address::from_seed(50), 1),
            transfer(&keys[1], 7, Address::from_seed(51), 1),
            transfer(&keys[0], 1, Address::from_seed(52), 1),
        ];
        let runtime = crate::ledger::NullRuntime;
        let ctx = ctx(&runtime, &registry);
        assert_equivalent(&ctx, &base, &txs, 4);
    }

    /// Claims self-containment but writes another contract's storage —
    /// the defense-in-depth audit must catch it and fall back.
    struct LyingRuntime {
        escape_to: Address,
    }

    impl ContractRuntime for LyingRuntime {
        fn deploy(
            &self,
            _sender: Address,
            contract_addr: Address,
            code: &[u8],
            _init: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            state.set_code(contract_addr, code.to_vec());
            Ok(ExecOutcome { gas_used: 10, ..ExecOutcome::default() })
        }

        fn invoke(
            &self,
            _sender: Address,
            contract: Address,
            _input: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            // Undeclared escape: bump a counter on a *different* contract.
            let current = state
                .storage(&self.escape_to, b"hits")
                .map(|v| v[0])
                .unwrap_or(0);
            state.set_storage(self.escape_to, b"hits".to_vec(), vec![current + 1]);
            let _ = contract;
            Ok(ExecOutcome { gas_used: 10, ..ExecOutcome::default() })
        }

        fn code_scope(&self, _code: &[u8]) -> ExecScope {
            ExecScope::SelfContained // the lie
        }
    }

    #[test]
    fn undeclared_escape_triggers_sequential_fallback_with_identical_results() {
        let (keys, registry) = enrolled(2);
        let escape_to = Address::from_seed(99);
        let runtime = LyingRuntime { escape_to };
        let c1 = Address::from_seed(201);
        let c2 = Address::from_seed(202);
        let mut base = WorldState::new();
        base.credit(keys[0].address(), 1_000);
        base.credit(keys[1].address(), 1_000);
        base.set_code(c1, b"a".to_vec());
        base.set_code(c2, b"b".to_vec());
        // Two "independent" invokes that actually race on escape_to.
        let txs: Vec<SealedTx> = vec![
            Transaction::new(
                keys[0].address(),
                0,
                TxPayload::Invoke { contract: c1, input: Vec::new() },
                100,
            )
            .signed(&keys[0])
            .into(),
            Transaction::new(
                keys[1].address(),
                0,
                TxPayload::Invoke { contract: c2, input: Vec::new() },
                100,
            )
            .signed(&keys[1])
            .into(),
        ];
        let ctx = ctx(&runtime, &registry);
        let run = run_block_parallel(&ctx, &base, &txs, 10, 4).unwrap();
        assert!(run.stats.fell_back, "audit must detect the undeclared write");
        let (seq_receipts, seq_delta) = run_block_sequential(&ctx, &base, &txs, 10).unwrap();
        assert_eq!(run.receipts, seq_receipts);
        let mut seq_state = base.clone();
        let mut par_state = base.clone();
        seq_delta.apply_to(&mut seq_state);
        run.delta.apply_to(&mut par_state);
        assert_eq!(seq_state.state_root(), par_state.state_root());
        // Both applied the escape twice — the fallback preserved it.
        assert_eq!(par_state.storage(&escape_to, b"hits"), Some([2u8].as_slice()));
    }
}

/// Seeded property: for every [`TxPayload`] variant, the statically
/// inferred [`RwSet`] is a superset of the keys execution actually
/// touches (unless declared global, which dominates everything). This
/// is the soundness condition the wave scheduler rests on; the runtime
/// audit in [`run_block_parallel`] re-checks it dynamically.
#[cfg(test)]
mod inference_props {
    use super::*;
    use crate::tx::Transaction;
    use crate::hash::Hash256;
    use crate::ledger::{ExecError, ExecOutcome};
    use crate::state::WorldState;
    use crate::sig::{Address, AuthorityKey};
    use medchain_runtime::check::{check, CheckConfig, Gen};
    use medchain_runtime::ensure;

    /// Honest fuzzing runtime: code starting with `b'S'` is
    /// self-contained (touches only the executing contract's slice);
    /// any other code may escape to one fixed foreign address.
    struct ScribbleRuntime;

    fn escape_addr() -> Address {
        Address::from_seed(0xE5CA9E)
    }

    fn self_contained(code: &[u8]) -> bool {
        code.first() == Some(&b'S')
    }

    impl ContractRuntime for ScribbleRuntime {
        fn deploy(
            &self,
            _sender: Address,
            contract_addr: Address,
            code: &[u8],
            init: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            state.set_code(contract_addr, code.to_vec());
            if !init.is_empty() {
                state.set_storage(contract_addr, b"init".to_vec(), init.to_vec());
                if !self_contained(code) {
                    state.set_storage(escape_addr(), b"esc".to_vec(), vec![1]);
                }
            }
            Ok(ExecOutcome { gas_used: 10, ..ExecOutcome::default() })
        }

        fn invoke(
            &self,
            _sender: Address,
            contract: Address,
            input: &[u8],
            _gas_limit: u64,
            _now_ms: u64,
            state: &mut dyn StateAccess,
        ) -> Result<ExecOutcome, ExecError> {
            let code = state.code(&contract).map(<[u8]>::to_vec).ok_or_else(|| ExecError {
                gas_used: 5,
                reason: "no contract".into(),
            })?;
            let mut calls =
                state.storage(&contract, b"calls").map(<[u8]>::to_vec).unwrap_or_default();
            calls.extend_from_slice(input);
            state.set_storage(contract, b"calls".to_vec(), calls);
            if !self_contained(&code) {
                state.set_storage(escape_addr(), b"esc".to_vec(), vec![2]);
            }
            Ok(ExecOutcome { gas_used: 10, ..ExecOutcome::default() })
        }

        fn code_scope(&self, code: &[u8]) -> ExecScope {
            if self_contained(code) {
                ExecScope::SelfContained
            } else {
                ExecScope::MayEscape
            }
        }
    }

    /// A small shared xid pool so random prepares, decisions, and
    /// finalizes actually collide on the same cross-shard transaction —
    /// exercising the success paths, not just the failure arms.
    fn random_xid(g: &mut Gen) -> Hash256 {
        Hash256::digest(&[g.usize_in(0, 3) as u8])
    }

    fn random_payload(g: &mut Gen, contracts: &[Address]) -> TxPayload {
        match g.usize_in(0, 8) {
            0 => TxPayload::Transfer {
                to: Address::from_seed(100 + g.usize_in(0, 6) as u64),
                amount: g.usize_in(0, 60) as u64,
            },
            1 => {
                let mut code = vec![if g.bool() { b'S' } else { b'E' }];
                code.extend(g.bytes(0, 8));
                TxPayload::Deploy { code, init: g.bytes(0, 4) }
            }
            2 => TxPayload::Invoke {
                contract: if g.bool() {
                    contracts[g.usize_in(0, contracts.len())]
                } else {
                    Address::from_seed(400 + g.usize_in(0, 4) as u64)
                },
                input: g.bytes(0, 6),
            },
            3 => TxPayload::Anchor {
                root: Hash256::digest(&g.bytes(0, 8)),
                label: format!("label-{}", g.usize_in(0, 4)),
            },
            4 => TxPayload::CrossLink {
                shard: ShardId(1 + g.usize_in(0, 3) as u16),
                height: g.usize_in(0, 100) as u64,
                tip: Hash256::digest(&g.bytes(0, 8)),
            },
            5 => TxPayload::XsPrepare {
                xid: random_xid(g),
                leg: crate::tx::XsLeg {
                    shard: ShardId(g.usize_in(0, 3) as u16),
                    account: Address::from_seed(100 + g.usize_in(0, 6) as u64),
                    amount: g.usize_in(0, 60) as u64,
                    debit: g.bool(),
                },
                deadline_ms: g.usize_in(0, 1_000) as u64,
            },
            6 => TxPayload::XsDecide { xid: random_xid(g), commit: g.bool() },
            _ => TxPayload::XsFinalize {
                xid: random_xid(g),
                account: Address::from_seed(100 + g.usize_in(0, 6) as u64),
                commit: g.bool(),
            },
        }
    }

    #[test]
    fn inferred_sets_cover_actual_footprints() {
        check("rw-set inference covers execution footprint", CheckConfig::cases(48), |g| {
            let keys: Vec<AuthorityKey> = (1..=4).map(AuthorityKey::from_seed).collect();
            let mut registry = KeyRegistry::new();
            for k in &keys {
                registry.enroll(k);
            }
            // Sweep the topologies inference special-cases: flat,
            // coordinator, and a data shard of a 2-shard consortium.
            let (shard, shard_count) = match g.usize_in(0, 3) {
                0 => (ShardId::default(), 1),
                1 => (ShardId::COORDINATOR, 1),
                _ => (ShardId(0), 2),
            };
            let runtime = ScribbleRuntime;
            let ctx = ExecCtx {
                runtime: &runtime,
                registry: &registry,
                shard,
                shard_count,
                metrics: &Metrics::noop(),
            };
            let mut state = WorldState::new();
            for k in &keys {
                state.credit(k.address(), 1_000);
            }
            let sc = Address::from_seed(300);
            let ec = Address::from_seed(301);
            state.set_code(sc, b"S-pre".to_vec());
            state.set_code(ec, b"E-pre".to_vec());
            state.set_anchor("label-0", Hash256::digest(b"pre"));
            let contracts = [sc, ec];

            for _ in 0..8 {
                let key = &keys[g.usize_in(0, keys.len())];
                let nonce = state.account(&key.address()).nonce;
                let tx: SealedTx = Transaction::new(
                    key.address(),
                    nonce,
                    random_payload(g, &contracts),
                    1_000,
                )
                .signed(key)
                .into();
                let set = infer_rw_set(&tx, shard, shard_count, &state, &runtime);
                let mut overlay = WorldStateOverlay::new(&state).recording();
                execute_tx(&ctx, &mut overlay, &tx, 10);
                let (delta, reads) = overlay.into_parts();
                if !set.global {
                    for k in &reads {
                        ensure!(set.declares(k), "undeclared read {k:?} for {:?}", tx.payload);
                    }
                    for k in delta.write_keys().iter() {
                        ensure!(
                            set.declares_write(k),
                            "undeclared write {k:?} for {:?}",
                            tx.payload
                        );
                    }
                }
                // Evolve the state so later cases see deployed code,
                // existing anchors, advancing nonces, and cross-links.
                delta.apply_to(&mut state);
            }
            Ok(())
        });
    }

    /// Satellite of DESIGN.md §12: a 2PC prepare leg's inferred rw-set
    /// is a superset of its actual footprint on flat, coordinator, and
    /// sharded topologies — across every outcome arm (escrow success,
    /// credit-side success, already-locked, wrong shard, insufficient
    /// escrow funds). An under-declared prepare would let the wave
    /// scheduler race a lock write against a transfer on the same
    /// account.
    #[test]
    fn prepare_rw_set_covers_every_outcome_on_all_topologies() {
        check("2PC prepare rw-set superset", CheckConfig::cases(64), |g| {
            let key = AuthorityKey::from_seed(1);
            let mut registry = KeyRegistry::new();
            registry.enroll(&key);
            let (shard, shard_count) = match g.usize_in(0, 3) {
                0 => (ShardId::default(), 1),
                1 => (ShardId::COORDINATOR, 1),
                _ => (ShardId(g.usize_in(0, 2) as u16), 2),
            };
            let runtime = ScribbleRuntime;
            let ctx = ExecCtx {
                runtime: &runtime,
                registry: &registry,
                shard,
                shard_count,
                metrics: &Metrics::noop(),
            };
            let mut state = WorldState::new();
            state.credit(key.address(), 1_000);
            let account = Address::from_seed(200 + g.usize_in(0, 3) as u64);
            if g.bool() {
                state.credit(account, g.usize_in(0, 100) as u64);
            }
            if g.bool() {
                // A pre-held lock forces the already-locked arm.
                StateAccess::set_lock(
                    &mut state,
                    account,
                    crate::state::XsLock {
                        xid: Hash256::digest(b"held"),
                        amount: 5,
                        debit: g.bool(),
                        deadline_ms: 100,
                    },
                );
            }
            let tx: SealedTx = Transaction::new(
                key.address(),
                state.account(&key.address()).nonce,
                TxPayload::XsPrepare {
                    xid: Hash256::digest(&g.bytes(1, 8)),
                    leg: crate::tx::XsLeg {
                        shard: ShardId(g.usize_in(0, 3) as u16),
                        account,
                        amount: g.usize_in(0, 120) as u64,
                        debit: g.bool(),
                    },
                    deadline_ms: g.usize_in(0, 10_000) as u64,
                },
                1_000,
            )
            .signed(&key)
            .into();
            let set = infer_rw_set(&tx, shard, shard_count, &state, &runtime);
            ensure!(!set.global, "a prepare is account-keyed, never global");
            let mut overlay = WorldStateOverlay::new(&state).recording();
            execute_tx(&ctx, &mut overlay, &tx, 10);
            let (delta, reads) = overlay.into_parts();
            for k in &reads {
                ensure!(set.declares(k), "undeclared prepare read {k:?}");
            }
            for k in delta.write_keys().iter() {
                ensure!(set.declares_write(k), "undeclared prepare write {k:?}");
            }
            Ok(())
        });
    }
}
