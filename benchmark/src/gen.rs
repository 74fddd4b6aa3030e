//! Deterministic workload inputs. Everything here is a pure function
//! of `--seed`: the program under test only ever sees what this file
//! generates, and every transaction is signed here, in set-up, so
//! signing is never inside a timed span.
//!
//! State is kept stationary on purpose: transfers move one unit among
//! prefilled accounts and anchors overwrite a fixed ring of labels, so
//! neither snapshots nor page files grow while a run measures.

use medchain_chain::{
    shard_for_key, Address, AuthorityKey, Hash256, LeafKey, ShardId, Transaction, TxPayload,
};
use medchain_runtime::DetRng;
use std::collections::HashMap;

/// Anchors cycle over this many dataset labels.
pub const LABEL_RING: usize = 1_024;
/// Balance given to every prefilled account and sender.
pub const PREFILL_BALANCE: u64 = 1_000_000_000;
/// Share of writes that are `Transfer` (the rest are `Anchor`).
const TRANSFER_SHARE: f64 = 0.75;

/// One client request of a TCP workload.
#[derive(Debug, Clone)]
pub enum Op {
    /// Submit and wait for the verified receipt.
    Write(Transaction),
    /// Proven read of a prefilled account: routed to its home shard
    /// (`None`, a presence proof) or pinned to a shard it does not live
    /// on (an absence proof).
    Read(LeafKey, Option<ShardId>),
}

/// `n` account addresses derived from `seed`.
pub fn accounts(seed: u64, n: usize) -> Vec<Address> {
    (0..n as u64)
        .map(|i| {
            let mut material = [0u8; 24];
            material[..8].copy_from_slice(b"medbench");
            material[8..16].copy_from_slice(&seed.to_le_bytes());
            material[16..].copy_from_slice(&i.to_le_bytes());
            Address::from_key_material(&material)
        })
        .collect()
}

fn label(i: usize) -> String {
    format!("medbench/dataset-{i:04}")
}

/// Per-(chain, sender) nonce counters: account nonces are per ledger,
/// so a sharded topology tracks one counter per sub-chain.
#[derive(Debug, Default, Clone)]
pub struct Nonces(HashMap<(u16, Address), u64>);

impl Nonces {
    fn take(&mut self, shard: ShardId, sender: Address) -> u64 {
        let n = self.0.entry((shard.0, sender)).or_insert(0);
        *n += 1;
        *n - 1
    }
}

/// Generator for signed write transactions over a fixed population.
pub struct TxGen<'a> {
    rng: DetRng,
    keys: &'a [AuthorityKey],
    accounts: &'a [Address],
    /// `accounts` indices grouped by home shard (one group when flat).
    by_shard: Vec<Vec<usize>>,
    shards: u16,
    nonces: Nonces,
    /// A shuffled ring over `accounts` for [`TxGen::round_over_ring`].
    ring: Vec<usize>,
    ring_next: usize,
}

impl<'a> TxGen<'a> {
    /// `shards` = 1 for a flat chain.
    pub fn new(
        seed: u64,
        keys: &'a [AuthorityKey],
        accounts: &'a [Address],
        shards: u16,
    ) -> TxGen<'a> {
        let mut by_shard = vec![Vec::new(); shards as usize];
        for (i, addr) in accounts.iter().enumerate() {
            by_shard[shard_for_key(&addr.0, shards).0 as usize].push(i);
        }
        TxGen {
            rng: DetRng::from_seed(seed ^ 0x6d65_6462_656e_6368),
            keys,
            accounts,
            by_shard,
            shards,
            nonces: Nonces::default(),
            ring: Vec::new(),
            ring_next: 0,
        }
    }

    fn home(&self, addr: &Address) -> ShardId {
        shard_for_key(&addr.0, self.shards)
    }

    /// A one-unit transfer from `key` to a random prefilled account on
    /// the sender's own sub-chain (so a sharded chain never credits an
    /// account away from home).
    fn transfer_from(&mut self, key: &AuthorityKey) -> Transaction {
        let shard = self.home(&key.address());
        let group = &self.by_shard[shard.0 as usize];
        let to = self.accounts[group[self.rng.gen_range(0..group.len())]];
        let nonce = self.nonces.take(shard, key.address());
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::Transfer { to, amount: 1 },
            1_000,
        )
        .signed(key)
    }

    fn anchor_from(&mut self, key: &AuthorityKey) -> Transaction {
        // Re-attesting a label's one root succeeds and leaves the state
        // as it was; a different root under a registered label would be
        // refused as a conflict.
        let label = label(self.rng.gen_range(0..LABEL_RING));
        let root = Hash256::digest(label.as_bytes());
        let shard = shard_for_key(label.as_bytes(), self.shards);
        let nonce = self.nonces.take(shard, key.address());
        Transaction::new(
            key.address(),
            nonce,
            TxPayload::Anchor { root, label },
            1_000,
        )
        .signed(key)
    }

    /// One write of the 75% transfer / 25% anchor mix from a random
    /// sender.
    pub fn write(&mut self) -> Transaction {
        let key = &self.keys[self.rng.gen_range(0..self.keys.len())];
        if self.rng.gen_bool(TRANSFER_SHARE) {
            self.transfer_from(key)
        } else {
            self.anchor_from(key)
        }
    }

    /// `n` writes.
    pub fn writes(&mut self, n: usize) -> Vec<Transaction> {
        (0..n).map(|_| self.write()).collect()
    }

    /// One request of the sharded mix: `read_share` proven reads (half
    /// home-presence, half away-absence) beside writes.
    pub fn mixed_op(&mut self, read_share: f64) -> Op {
        if !self.rng.gen_bool(read_share) {
            return Op::Write(self.write());
        }
        let addr = self.accounts[self.rng.gen_range(0..self.accounts.len())];
        let key = LeafKey::Account(addr);
        if self.shards > 1 && self.rng.gen_bool(0.5) {
            let home = self.home(&addr);
            Op::Read(key, Some(ShardId((home.0 + 1) % self.shards)))
        } else {
            Op::Read(key, None)
        }
    }

    /// One fat block: each of the first `senders` keys sends
    /// `per_sender` transfers with consecutive nonces.
    pub fn round(
        &mut self,
        first_sender: usize,
        senders: usize,
        per_sender: usize,
    ) -> Vec<Transaction> {
        let mut txs = Vec::with_capacity(senders * per_sender);
        for s in 0..senders {
            let key = &self.keys[(first_sender + s) % self.keys.len()];
            for _ in 0..per_sender {
                txs.push(self.transfer_from(key));
            }
        }
        txs
    }

    /// One block of single transfers from `senders` consecutive keys,
    /// its recipients taken in turn from a shuffled ring over the whole
    /// population: every account is written once per lap, so the
    /// working set is the population and no seed draws a hotter or
    /// colder access pattern than another.
    pub fn round_over_ring(&mut self, first_sender: usize, senders: usize) -> Vec<Transaction> {
        if self.ring.is_empty() {
            self.ring = (0..self.accounts.len()).collect();
            self.rng.shuffle(&mut self.ring);
        }
        let keys = self.keys;
        (0..senders)
            .map(|s| {
                let key = &keys[(first_sender + s) % keys.len()];
                let to = self.accounts[self.ring[self.ring_next % self.ring.len()]];
                self.ring_next += 1;
                let nonce = self.nonces.take(ShardId(0), key.address());
                Transaction::new(
                    key.address(),
                    nonce,
                    TxPayload::Transfer { to, amount: 1 },
                    1_000,
                )
                .signed(key)
            })
            .collect()
    }

    /// A prefilled account whose home shard differs from `from`'s.
    pub fn account_away_from(&mut self, from: &Address) -> Address {
        let away = (self.home(from).0 + 1) % self.shards;
        let group = &self.by_shard[away as usize];
        self.accounts[group[self.rng.gen_range(0..group.len())]]
    }
}

/// Order-sensitive digest of a transaction stream's ids: two workloads
/// that print the same digest submitted byte-identical streams.
pub fn stream_digest<'a>(txs: impl Iterator<Item = &'a Transaction>) -> Hash256 {
    let mut material = Vec::new();
    for tx in txs {
        material.extend_from_slice(&tx.id().0);
    }
    Hash256::digest(&material)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<AuthorityKey> {
        (0..8)
            .map(|i| AuthorityKey::from_seed(0x1000_0000 + i))
            .collect()
    }

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let keys = keys();
        let a = accounts(7, 100);
        let s1 = TxGen::new(7, &keys, &a, 1).writes(200);
        let s2 = TxGen::new(7, &keys, &a, 1).writes(200);
        assert_eq!(stream_digest(s1.iter()), stream_digest(s2.iter()));
        let b = accounts(8, 100);
        let s3 = TxGen::new(8, &keys, &b, 1).writes(200);
        assert_ne!(stream_digest(s1.iter()), stream_digest(s3.iter()));
    }

    #[test]
    fn nonces_are_gap_free_per_chain_and_sender() {
        let keys = keys();
        let a = accounts(3, 64);
        let txs = TxGen::new(3, &keys, &a, 2).writes(500);
        let mut next: HashMap<(u16, Address), u64> = HashMap::new();
        for tx in &txs {
            let shard = medchain_chain::shard_for_tx(tx, 2);
            let n = next.entry((shard.0, tx.sender)).or_insert(0);
            assert_eq!(tx.nonce, *n);
            *n += 1;
        }
    }

    #[test]
    fn sharded_transfers_stay_on_the_senders_chain() {
        let keys = keys();
        let a = accounts(5, 64);
        for tx in TxGen::new(5, &keys, &a, 2).writes(300) {
            if let TxPayload::Transfer { to, .. } = tx.payload {
                assert_eq!(shard_for_key(&to.0, 2), shard_for_key(&tx.sender.0, 2));
            }
        }
    }
}
