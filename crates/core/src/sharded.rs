//! Consensus-level sharding: cross-links and two-phase commit over the
//! coordinator chain (DESIGN.md §9, §12).
//!
//! Partitioning only the *workload* above one monolithic chain leaves
//! every committee member re-validating a shared ledger, so the paper's
//! duplication factor only drops in the numerator. A sharded [`Network`]
//! pushes the partition into consensus itself
//! ([`crate::modes::run_sharded_consensus`] measures the result): the
//! consortium's sites split into `k` committees (site *i* serves shard
//! `i % k`), each committee drives its own [`medchain_chain::Ledger`]
//! sub-chain under its own PoA instance, and a **coordinator chain** —
//! run by every site — periodically commits a
//! [`CrossLink`] (tip hash + height) per shard. A shard can therefore
//! not fork past its last cross-link unnoticed: the link is verified
//! against the shard's actual blocks before submission, the coordinator
//! ledger rejects height regressions at apply time, and recovery
//! re-checks every recovered sub-chain against the newest cross-links.
//!
//! Transactions route deterministically via
//! [`medchain_chain::shard_for_tx`]: invokes by contract key, everything
//! else by site key or anchor label. Contract addresses on a data shard
//! are ground with [`medchain_chain::sharded_contract_address`] so an
//! address always routes invokes back to the sub-chain that holds the
//! code. The coordinator is the home chain: it also holds the standard
//! contracts, whose invokes the network routes to it.
//!
//! Everything here needs the coordinator, so on a flat network each
//! fallible method returns [`NetworkError::Topology`], called the
//! topology error below.

use crate::client::PendingTx;
use crate::network::{Network, NetworkError};
use medchain_chain::shard::{shard_for_key, CrossLink, ShardId};
use medchain_chain::{Address, Hash256, Lane, Ledger, TxPayload, XsLeg, XsLock};
use std::collections::{BTreeMap, HashMap};

/// Handle to an in-flight cross-shard transfer: two prepare legs under
/// one transaction id, resolved by the coordinator chain
/// ([`Network::begin_cross_shard_transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsTransfer {
    /// The cross-shard transaction id the coordinator decides on.
    pub xid: Hash256,
    /// The debit prepare leg on the sender's home shard.
    pub debit: PendingTx,
    /// The credit prepare leg on the receiver's home shard.
    pub credit: PendingTx,
}

/// What one [`Network::resolve_cross_shard`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XsResolution {
    /// Commit decisions submitted this pass.
    pub committed: usize,
    /// Timeout-abort decisions submitted this pass.
    pub aborted: usize,
    /// Finalize legs submitted this pass (locks released).
    pub finalized: usize,
}

/// The sharded network's historical name.
pub type ShardedNetwork = Network;

impl Network {
    /// [`Network::home_ledger`] under its old name: on a sharded network
    /// the coordinator's ledger, whose world state holds the newest
    /// [`medchain_chain::CrossLinkRecord`] per shard.
    pub fn coordinator_ledger(&self) -> &Ledger {
        self.home_ledger()
    }

    /// Wall/sim clock of the home chain's committee, the reference clock
    /// for 2PC prepare deadlines.
    pub fn now_ms(&self) -> u64 {
        self.home_chain().now_ms()
    }

    /// Runs the coordinator committee until `blocks` more blocks commit.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] on timeout and the
    /// topology error on a flat network.
    pub fn advance_coordinator(&mut self, blocks: u64) -> Result<(), NetworkError> {
        self.committee_mut(ShardId::COORDINATOR)?.advance(blocks)
    }

    /// The current tip of `shard`'s sub-chain as a [`CrossLink`] claim.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    fn shard_tip(&self, shard: ShardId) -> CrossLink {
        let ledger = self.ledger_of_shard(shard);
        CrossLink { shard, height: ledger.height(), tip: ledger.tip().id() }
    }

    /// Verifies a cross-link claim against the shard's actual sub-chain:
    /// the claimed height must not exceed the tip, and — when the block
    /// at that height is still readable — its id must equal the claimed
    /// tip hash. A tampered or forked claim is rejected here, before it
    /// can reach the coordinator chain; a resumed sharded network runs
    /// every recorded cross-link through it too, so a sub-chain that
    /// recovered below or beside its newest link is refused.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CrossLink`] describing the violation.
    pub fn verify_link(&self, link: &CrossLink) -> Result<(), NetworkError> {
        let Some(committee) = self.chains.get(link.shard.0 as usize) else {
            return Err(NetworkError::CrossLink(format!(
                "cross-link names unknown shard {}",
                link.shard
            )));
        };
        let ledger = committee.ledger();
        if link.height > ledger.height() {
            return Err(NetworkError::CrossLink(format!(
                "{} claims height {} but the sub-chain tip is {}",
                link.shard,
                link.height,
                ledger.height()
            )));
        }
        match ledger.block(link.height) {
            Some(block) if block.id() != link.tip => Err(NetworkError::CrossLink(format!(
                "{} tip mismatch at height {}: chain has {:?}, link claims {:?}",
                link.shard,
                link.height,
                block.id(),
                link.tip
            ))),
            // Pruned below the claim: the hash is no longer checkable
            // locally; monotonicity on the coordinator still holds.
            _ => Ok(()),
        }
    }

    /// Verifies `link` and submits it to the coordinator chain's
    /// mempools, signed by site 0. Call
    /// [`Network::advance_coordinator`] to commit it.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CrossLink`] if verification fails and the
    /// topology error on a flat network.
    pub fn submit_cross_link(&mut self, link: CrossLink) -> Result<Hash256, NetworkError> {
        self.verify_link(&link)?;
        let payload =
            TxPayload::CrossLink { shard: link.shard, height: link.height, tip: link.tip };
        // Control-plane traffic rides the priority lane: a cross-link
        // must land even when data shards saturate the normal lane.
        Ok(self.submit_on(ShardId::COORDINATOR, 0, payload, 1_000, Lane::Priority)?.tx_id)
    }

    /// One cross-link round: for every shard whose sub-chain advanced
    /// past its last committed cross-link, verify and submit the current
    /// tip, then commit on the coordinator chain. Returns the links that
    /// were committed this round.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if verification, consensus, or a receipt
    /// fails.
    pub fn cross_link(&mut self) -> Result<Vec<CrossLink>, NetworkError> {
        let recorded: HashMap<u16, u64> = self
            .committee(ShardId::COORDINATOR)?
            .ledger()
            .state()
            .cross_links()
            .map(|(shard, record)| (shard.0, record.height))
            .collect();
        let links: Vec<CrossLink> = (0..self.shard_count())
            .map(|s| self.shard_tip(ShardId(s)))
            .filter(|link| recorded.get(&link.shard.0).map_or(true, |&h| link.height > h))
            .collect();
        if links.is_empty() {
            return Ok(links);
        }
        let mut ids = Vec::with_capacity(links.len());
        for link in &links {
            ids.push(self.submit_cross_link(*link)?);
        }
        self.advance_coordinator(2)?;
        self.committee(ShardId::COORDINATOR)?.expect_ok(&ids)?;
        Ok(links)
    }

    /// Submits one 2PC prepare leg from `site`: lock `account` on its
    /// home shard for cross-shard transaction `xid`, escrowing `amount`
    /// when `debit`. The leg commits when its sub-chain next advances.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] / [`NetworkError::Rejected`]
    /// as [`Network::submit_lane`] does (admission refuses a prepare
    /// while the account is already locked), and the topology error on a
    /// flat network, where nothing would ever resolve the lock.
    pub fn submit_prepare(
        &mut self,
        site: usize,
        xid: Hash256,
        account: Address,
        amount: u64,
        debit: bool,
        deadline_ms: u64,
    ) -> Result<PendingTx, NetworkError> {
        self.committee(ShardId::COORDINATOR)?;
        let shard = shard_for_key(&account.0, self.shard_count());
        let leg = XsLeg { shard, account, amount, debit };
        self.submit_lane(site, TxPayload::XsPrepare { xid, leg, deadline_ms }, 1_000, Lane::Normal)
    }

    /// Begins an atomic cross-shard transfer of `amount` from `site`'s
    /// own account to `to`: submits a debit prepare on the sender's home
    /// shard and a credit prepare on the receiver's. Once both legs
    /// commit their locks, [`Network::resolve_cross_shard`]
    /// commits the transfer on the coordinator chain and finalizes both
    /// shards; if either leg never locks by `deadline_ms` (coordinator
    /// clock), it aborts instead and the escrow is refunded.
    ///
    /// # Errors
    ///
    /// Returns the topology error on a flat network, and
    /// [`NetworkError::Rejected`] when `to` is the sender's own
    /// account (a self-transfer can never lock both legs: the second
    /// prepare always bounces off the first leg's lock, stranding the
    /// escrow until timeout-abort) or when a leg is refused — a refused
    /// *credit* leg leaves the debit lock behind, which the resolver
    /// cleans up via timeout-abort after `deadline_ms`.
    pub fn begin_cross_shard_transfer(
        &mut self,
        site: usize,
        to: Address,
        amount: u64,
        deadline_ms: u64,
    ) -> Result<XsTransfer, NetworkError> {
        self.committee(ShardId::COORDINATOR)?;
        let from = self.sites.get(site).ok_or(NetworkError::NoSuchSite(site))?.address();
        if to == from {
            return Err(NetworkError::Rejected {
                tx_id: Hash256::ZERO,
                reason: "cross-shard transfer to self: both legs would contend \
                         for one lock"
                    .into(),
            });
        }
        self.xs_seq += 1;
        let mut material = Vec::with_capacity(64);
        material.extend_from_slice(&from.0);
        material.extend_from_slice(&to.0);
        material.extend_from_slice(&amount.to_le_bytes());
        material.extend_from_slice(&deadline_ms.to_le_bytes());
        material.extend_from_slice(&self.xs_seq.to_le_bytes());
        let xid = Hash256::digest(&material);
        self.metrics().counter("xs.transfers", 1);
        let debit = self.submit_prepare(site, xid, from, amount, true, deadline_ms)?;
        let credit = self.submit_prepare(site, xid, to, amount, false, deadline_ms)?;
        Ok(XsTransfer { xid, debit, credit })
    }

    /// Every held lock across all data sub-chains, grouped by
    /// cross-shard transaction id.
    fn collect_locks(&self) -> BTreeMap<Hash256, Vec<(ShardId, Address, XsLock)>> {
        let mut groups: BTreeMap<Hash256, Vec<(ShardId, Address, XsLock)>> = BTreeMap::new();
        for (s, committee) in self.chains.iter().enumerate() {
            for (addr, lock) in committee.ledger().state().locks() {
                groups.entry(lock.xid).or_default().push((ShardId(s as u16), addr, lock));
            }
        }
        groups
    }

    /// One resolver pass over every in-flight cross-shard transaction —
    /// the consortium-side half of the 2PC protocol:
    ///
    /// 1. **Decide.** For each undecided transaction holding locks: if
    ///    the locks form a *balanced pair* — exactly one debit and one
    ///    credit leg of equal amount, so commit conserves total supply —
    ///    submit a commit decision to the coordinator chain. A group of
    ///    two or more locks that is not a balanced pair can never become
    ///    one and is aborted immediately; a lone leg whose deadline has
    ///    passed (the partner never locked — e.g. its shard crashed) is
    ///    aborted too. Decisions are write-once on the coordinator
    ///    ledger.
    /// 2. **Finalize.** For each held lock whose transaction the
    ///    coordinator has decided, submit a finalize to the lock's shard:
    ///    commit pays the credit out / keeps the debited escrow, abort
    ///    refunds the escrow — then the lock is released either way.
    ///
    /// Safe to call repeatedly (and it is what
    /// [`Network::serve_until`] calls between pump rounds): an
    /// undecided transfer whose deadline has not passed is simply left
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on consensus stalls or refused
    /// control-plane submissions, and the topology error on a flat
    /// network.
    pub fn resolve_cross_shard(&mut self) -> Result<XsResolution, NetworkError> {
        let now_ms = self.committee(ShardId::COORDINATOR)?.now_ms();
        let mut resolution = XsResolution::default();
        // Phase 1: decide undecided transactions on the coordinator.
        let groups = self.collect_locks();
        let mut decides: Vec<(Hash256, bool)> = Vec::new();
        for (xid, legs) in &groups {
            if self.home_ledger().state().xs_decision(xid).is_some() {
                continue;
            }
            // Conservation gate: a commit pays out every credit lock and
            // burns every debit escrow, so it is only sound for exactly
            // one debit and one credit of equal amount. Prepares are
            // client-mintable — without this check a 1-unit debit paired
            // with a million-unit credit under the same xid would mint
            // funds out of nothing at finalize.
            let debits: Vec<u64> =
                legs.iter().filter(|(_, _, l)| l.debit).map(|(_, _, l)| l.amount).collect();
            let credits: Vec<u64> =
                legs.iter().filter(|(_, _, l)| !l.debit).map(|(_, _, l)| l.amount).collect();
            let balanced_pair =
                debits.len() == 1 && credits.len() == 1 && debits[0] == credits[0];
            if balanced_pair {
                // Both legs locked and the amounts conserve: commit.
                decides.push((*xid, true));
            } else if legs.len() >= 2 {
                // Two or more locks that do not form a balanced pair can
                // never become one (locks only accumulate until decided)
                // — abort immediately so the malformed group's escrow is
                // refunded without burning the deadline window.
                decides.push((*xid, false));
            } else if legs.iter().any(|(_, _, l)| l.deadline_ms < now_ms) {
                // The partner leg never arrived and the deadline passed —
                // abort so a crashed shard cannot wedge the survivors'
                // accounts.
                decides.push((*xid, false));
            }
        }
        if !decides.is_empty() {
            let mut ids = Vec::with_capacity(decides.len());
            for &(xid, commit) in &decides {
                let payload = TxPayload::XsDecide { xid, commit };
                ids.push(self.submit_lane(0, payload, 1_000, Lane::Priority)?.tx_id);
                if commit {
                    resolution.committed += 1;
                    self.metrics().counter("xs.committed", 1);
                } else {
                    resolution.aborted += 1;
                    self.metrics().counter("xs.aborted", 1);
                }
            }
            self.committee_mut(ShardId::COORDINATOR)?.settle(&ids)?;
        }
        // Phase 2: finalize every lock the coordinator has decided.
        let mut finalizes: BTreeMap<ShardId, Vec<Hash256>> = BTreeMap::new();
        for (xid, legs) in self.collect_locks() {
            let Some(decision) = self.home_ledger().state().xs_decision(&xid) else {
                continue;
            };
            for (_, account, _) in legs {
                let pending = self.submit_lane(
                    0,
                    TxPayload::XsFinalize { xid, account, commit: decision.commit },
                    1_000,
                    Lane::Priority,
                )?;
                finalizes.entry(pending.shard).or_default().push(pending.tx_id);
                resolution.finalized += 1;
                self.metrics().counter("xs.finalized", 1);
            }
        }
        for (shard, ids) in finalizes {
            self.committee_mut(shard)?.settle(&ids)?;
        }
        Ok(resolution)
    }

    /// Convenience path: begin a cross-shard transfer, commit both
    /// prepare legs, resolve, and return `(xid, committed)` — the
    /// coordinator's recorded verdict.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if a leg fails to commit or resolution
    /// stalls.
    pub fn run_cross_shard_transfer(
        &mut self,
        site: usize,
        to: Address,
        amount: u64,
        deadline_ms: u64,
    ) -> Result<(Hash256, bool), NetworkError> {
        let transfer = self.begin_cross_shard_transfer(site, to, amount, deadline_ms)?;
        self.confirm(&transfer.debit)?;
        self.confirm(&transfer.credit)?;
        self.resolve_cross_shard()?;
        let committed = self
            .home_ledger()
            .state()
            .xs_decision(&transfer.xid)
            .map(|d| d.commit)
            .unwrap_or(false);
        Ok((transfer.xid, committed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::{GatewayBackend, GatewayConfig};
    use crate::network::Network;
    use medchain_chain::node::SubmitOutcome;
    use medchain_chain::shard::shard_for_key;
    use medchain_chain::Transaction;

    fn sharded(sites: usize, shards: u16) -> Network {
        let mut builder = Network::builder().shards(shards).block_interval_ms(20);
        for i in 0..sites {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        builder.build().expect("sharded network builds")
    }

    #[test]
    fn committees_partition_sites_round_robin() {
        let net = sharded(8, 2);
        assert_eq!(net.shard_count(), 2);
        assert_eq!(net.committee_sites(ShardId(0)), &[0, 2, 4, 6]);
        assert_eq!(net.committee_sites(ShardId(1)), &[1, 3, 5, 7]);
        // Distinct genesis per sub-chain, distinct from the coordinator.
        let g0 = net.ledger_of_shard(ShardId(0)).block(0).unwrap().id();
        let g1 = net.ledger_of_shard(ShardId(1)).block(0).unwrap().id();
        let gc = net.home_ledger().block(0).unwrap().id();
        assert_ne!(g0, g1);
        assert_ne!(g0, gc);
    }

    #[test]
    fn anchors_route_by_label_and_commit_on_their_shard() {
        let mut net = sharded(8, 2);
        let mut ids = Vec::new();
        for i in 0..8 {
            // The build anchored each site's `/emr` dataset already.
            let label = format!("hospital-{i}/scan");
            let expected = shard_for_key(label.as_bytes(), 2);
            let pending = net
                .submit(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
                .unwrap();
            assert_eq!(pending.shard, expected);
            ids.push(pending);
        }
        net.advance(2).unwrap();
        // Work landed on both sub-chains.
        let shards: std::collections::BTreeSet<ShardId> = ids.iter().map(|p| p.shard).collect();
        assert_eq!(shards.len(), 2);
        for pending in ids {
            let ledger = net.ledger_of_shard(pending.shard);
            let receipt = ledger.receipt(&pending.tx_id).expect("committed on its shard");
            assert!(receipt.ok);
        }
    }

    #[test]
    fn cross_link_round_commits_every_tip() {
        let mut net = sharded(8, 2);
        for i in 0..8 {
            let label = format!("hospital-{i}/scan");
            net.submit(i, TxPayload::Anchor { root: Hash256::ZERO, label }, 1_000).unwrap();
        }
        net.advance(2).unwrap();
        let links = net.cross_link().unwrap();
        assert_eq!(links.len(), 2, "both shards advanced, both get linked");
        let state = net.home_ledger().state();
        for link in &links {
            let record = state.cross_link(link.shard).expect("recorded");
            assert_eq!(record.height, link.height);
            assert_eq!(record.tip, link.tip);
        }
        // A second round with no new shard blocks commits nothing.
        assert!(net.cross_link().unwrap().is_empty());
    }

    #[test]
    fn tampered_shard_tip_is_rejected() {
        let mut net = sharded(4, 2);
        net.advance(1).unwrap();
        let mut link = net.shard_tip(ShardId(0));
        link.tip = Hash256::digest(b"forged tip");
        let err = net.submit_cross_link(link).unwrap_err();
        assert!(matches!(err, NetworkError::CrossLink(_)));
        assert!(err.to_string().contains("mismatch"), "got: {err}");
        // A height beyond the tip is also rejected.
        let mut link = net.shard_tip(ShardId(1));
        link.height += 10;
        assert!(matches!(net.submit_cross_link(link), Err(NetworkError::CrossLink(_))));
    }

    #[test]
    fn deploy_to_grinds_address_onto_target_shard() {
        let mut net = sharded(4, 2);
        let program =
            medchain_contracts::asm::assemble("push 1\nhalt").expect("static program assembles");
        let code = medchain_contracts::opcode::encode_program(&program);
        for s in 0..2u16 {
            let id = net.deploy_to(ShardId(s), 0, code.clone(), Vec::new(), 100_000).unwrap();
            net.advance(2).unwrap();
            // Nonces are per chain, so one id could commit on both
            // shards: read this shard's receipt.
            let receipt = net.ledger_of_shard(ShardId(s)).receipt(&id).expect("deploy committed");
            assert!(receipt.ok, "deploy failed: {:?}", receipt.error);
            let mut raw = [0u8; 20];
            raw.copy_from_slice(&receipt.output);
            let addr = Address(raw);
            assert_eq!(shard_for_key(&addr.0, 2), ShardId(s));
            // Invoking that address routes back to the hosting shard.
            let invoke = TxPayload::Invoke { contract: addr, input: Vec::new() };
            assert_eq!(net.submit(1, invoke, 10_000).unwrap().shard, ShardId(s));
        }
    }

    /// An address whose home shard differs from `other`'s (for a
    /// genuinely cross-shard transfer).
    fn address_on_other_shard(other: Address, shards: u16) -> Address {
        let home = shard_for_key(&other.0, shards);
        (1000..)
            .map(Address::from_seed)
            .find(|a| shard_for_key(&a.0, shards) != home)
            .unwrap()
    }

    #[test]
    fn cross_shard_transfer_commits_atomically() {
        let mut net = sharded(8, 2);
        let from = net.site(0).address();
        let to = address_on_other_shard(from, 2);
        net.fund(from, 100);
        let deadline = net.now_ms() + 1_000_000;
        let (xid, committed) = net.run_cross_shard_transfer(0, to, 40, deadline).unwrap();
        assert!(committed, "both legs locked, so the coordinator commits");
        // Debit applied on the sender's shard, credit on the receiver's.
        assert_eq!(net.balance_of(&from), 60);
        assert_eq!(net.balance_of(&to), 40);
        // Both locks released, decision durable on the coordinator.
        assert!(net.lock_of(&from).is_none());
        assert!(net.lock_of(&to).is_none());
        let decision = net.home_ledger().state().xs_decision(&xid).expect("recorded");
        assert!(decision.commit);
        // A second resolver pass finds nothing left to do.
        let again = net.resolve_cross_shard().unwrap();
        assert_eq!(again, XsResolution::default());
    }

    #[test]
    fn withheld_credit_leg_aborts_on_timeout_and_refunds_escrow() {
        let mut net = sharded(8, 2);
        let from = net.site(0).address();
        let to = address_on_other_shard(from, 2);
        net.fund(from, 100);
        // Only the debit leg is ever submitted — the "crashed shard"
        // scenario: the credit lock never appears.
        let xid = Hash256::digest(b"withheld-credit-leg");
        let debit = net.submit_prepare(0, xid, from, 40, true, 0).unwrap();
        net.confirm(&debit).unwrap();
        assert_eq!(net.balance_of(&from), 60, "escrow taken at prepare");
        assert!(net.lock_of(&from).is_some());
        // Move the coordinator clock past the (already-expired) deadline.
        net.advance_coordinator(1).unwrap();
        let resolution = net.resolve_cross_shard().unwrap();
        assert_eq!(resolution.aborted, 1);
        assert_eq!(resolution.committed, 0);
        assert_eq!(resolution.finalized, 1);
        // The abort refunded the escrow and released the lock; the
        // receiver saw nothing.
        assert_eq!(net.balance_of(&from), 100);
        assert_eq!(net.balance_of(&to), 0);
        assert!(net.lock_of(&from).is_none());
        let decision = net.home_ledger().state().xs_decision(&xid).expect("recorded");
        assert!(!decision.commit);
    }

    #[test]
    fn undecided_transfer_before_deadline_is_left_alone() {
        let mut net = sharded(4, 2);
        let from = net.site(0).address();
        net.fund(from, 100);
        let far = net.now_ms() + 1_000_000;
        let xid = Hash256::digest(b"still-waiting");
        let debit = net.submit_prepare(0, xid, from, 10, true, far).unwrap();
        net.confirm(&debit).unwrap();
        let resolution = net.resolve_cross_shard().unwrap();
        assert_eq!(resolution, XsResolution::default(), "deadline not passed, no decision");
        assert!(net.lock_of(&from).is_some(), "lock stays until decided");
        assert!(net.home_ledger().state().xs_decision(&xid).is_none());
    }

    /// Gateway clients cannot mint control-plane records on either
    /// topology: a forged decide or finalize is refused outright, so a
    /// client's credit prepare on itself can never be paid out by its
    /// own finalize. A flat network refuses the prepare too — it has no
    /// resolver, so any lock a client placed (on its own account or a
    /// site's) would stay forever.
    #[test]
    fn gateway_clients_cannot_mint_decides_or_finalizes() {
        let client = GatewayConfig { clients: 1 };
        let flat = || {
            let builder = Network::builder().block_interval_ms(20).gateway(client);
            builder.site("hospital-0", Vec::new()).site("hospital-1", Vec::new()).build()
        };
        let sharded = || {
            let mut builder = Network::builder().shards(2).block_interval_ms(20);
            for i in 0..4 {
                builder = builder.site(&format!("hospital-{i}"), Vec::new());
            }
            builder.gateway(client).build()
        };
        for (mut net, flat) in [(flat().unwrap(), true), (sharded().unwrap(), false)] {
            let key = net.client_keys()[0].clone();
            let me = key.address();
            let xid = Hash256::digest(b"forged");
            let mut nonce = 0;
            let mut send = |net: &mut Network, payload: TxPayload| {
                let tx = Transaction::new(me, nonce, payload, 1_000).signed(&key);
                let (_, outcome) = GatewayBackend::admit_verified(net, tx, Lane::Normal);
                if outcome.is_admitted() {
                    nonce += 1;
                    net.advance(1).unwrap();
                }
                outcome
            };
            for payload in [
                TxPayload::XsDecide { xid, commit: true },
                TxPayload::XsFinalize { xid, account: me, commit: true },
                TxPayload::CrossLink { shard: ShardId(0), height: 0, tip: Hash256::ZERO },
            ] {
                assert_eq!(send(&mut net, payload), SubmitOutcome::Inadmissible);
            }
            // The mint sequence: credit myself a million, then finalize.
            let home = shard_for_key(&me.0, net.shard_count());
            let leg = XsLeg { shard: home, account: me, amount: 1_000_000, debit: false };
            let deadline_ms = net.now_ms() + 60_000;
            let prepare = TxPayload::XsPrepare { xid, leg, deadline_ms };
            let outcome = send(&mut net, prepare);
            assert_eq!(outcome.is_admitted(), !flat, "flat: {flat}, got {outcome:?}");
            let finalize = TxPayload::XsFinalize { xid, account: me, commit: true };
            assert_eq!(send(&mut net, finalize), SubmitOutcome::Inadmissible);
            assert_eq!(net.balance_of(&me), 0, "flat: {flat}");
            if flat {
                // The victim freeze: a zero-amount credit prepare on a
                // site's account would lock it with nothing to clear it.
                let victim = net.site(1).address();
                let leg = XsLeg { shard: ShardId(0), account: victim, amount: 0, debit: false };
                let prepare = TxPayload::XsPrepare { xid, leg, deadline_ms: u64::MAX };
                assert_eq!(send(&mut net, prepare), SubmitOutcome::Inadmissible);
                assert!(net.lock_of(&victim).is_none());
            } else {
                // A prepare naming a shard the network does not run is
                // refused, not routed by index (one past the data shards
                // was the coordinator's slot; further out, a panic).
                for shard in [ShardId(2), ShardId(9)] {
                    let account = Address::from_seed(77);
                    let leg = XsLeg { shard, account, amount: 1, debit: false };
                    let deadline_ms = net.now_ms() + 60_000;
                    let prepare = TxPayload::XsPrepare { xid, leg, deadline_ms };
                    assert_eq!(send(&mut net, prepare), SubmitOutcome::Inadmissible);
                }
            }
            net.shutdown();
        }
    }

    /// A lone prepare leg keeps its account locked until its deadline
    /// passes, so a client's zero-amount credit prepare with a deadline
    /// at the end of time would freeze a victim's account for good. The
    /// gateway refuses deadlines beyond a fixed window past the
    /// coordinator clock.
    #[test]
    fn gateway_refuses_prepares_with_far_deadlines() {
        let mut builder = Network::builder().shards(2).block_interval_ms(20);
        for i in 0..4 {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        let client = GatewayConfig { clients: 1 };
        let mut net = builder.gateway(client).build().unwrap();
        let key = net.client_keys()[0].clone();
        let victim = net.site(1).address();
        let shard = shard_for_key(&victim.0, net.shard_count());
        let leg = XsLeg { shard, account: victim, amount: 0, debit: false };
        let admit = |net: &mut Network, deadline_ms| {
            let xid = Hash256::digest(b"freeze");
            let payload = TxPayload::XsPrepare { xid, leg, deadline_ms };
            let tx = Transaction::new(key.address(), 0, payload, 1_000).signed(&key);
            GatewayBackend::admit_verified(net, tx, Lane::Normal).1
        };
        assert_eq!(admit(&mut net, u64::MAX), SubmitOutcome::Inadmissible);
        let in_window = net.now_ms() + 60_000;
        assert!(admit(&mut net, in_window).is_admitted());
        net.shutdown();
    }

    #[test]
    fn locked_account_defers_new_prepares_until_release() {
        let mut net = sharded(4, 2);
        let from = net.site(0).address();
        net.fund(from, 100);
        let far = net.now_ms() + 1_000_000;
        let debit =
            net.submit_prepare(0, Hash256::digest(b"first"), from, 10, true, far).unwrap();
        net.confirm(&debit).unwrap();
        // While the lock is held, a second prepare on the same account is
        // refused at admission (not queued to fail later).
        let err =
            net.submit_prepare(0, Hash256::digest(b"second"), from, 10, true, far).unwrap_err();
        assert!(matches!(err, NetworkError::Rejected { .. }), "got: {err:?}");
    }

    /// Conservation regression (REVIEW: client-mintable prepares): a
    /// 1-unit debit glued to a 1,000,000-unit credit under one xid must
    /// never commit — the resolver aborts the unbalanced pair at once
    /// and refunds the escrow, so total supply is conserved.
    #[test]
    fn unbalanced_legs_abort_instead_of_minting() {
        let mut net = sharded(8, 2);
        let attacker = net.site(1).address();
        let payout = address_on_other_shard(attacker, 2);
        net.fund(attacker, 100);
        let supply_before = net.balance_of(&attacker) + net.balance_of(&payout);
        let far = net.now_ms() + 1_000_000;
        let xid = Hash256::digest(b"mint-attempt");
        let debit = net.submit_prepare(1, xid, attacker, 1, true, far).unwrap();
        let credit = net.submit_prepare(1, xid, payout, 1_000_000, false, far).unwrap();
        net.confirm(&debit).unwrap();
        net.confirm(&credit).unwrap();
        let resolution = net.resolve_cross_shard().unwrap();
        assert_eq!(resolution.committed, 0, "unbalanced legs must never commit");
        assert_eq!(resolution.aborted, 1, "malformed group aborts without waiting");
        assert_eq!(resolution.finalized, 2);
        let decision = net.home_ledger().state().xs_decision(&xid).expect("recorded");
        assert!(!decision.commit);
        // Escrow refunded, nothing minted, locks gone.
        assert_eq!(net.balance_of(&attacker), 100);
        assert_eq!(net.balance_of(&payout), 0);
        assert_eq!(net.balance_of(&attacker) + net.balance_of(&payout), supply_before);
        assert!(net.lock_of(&attacker).is_none());
        assert!(net.lock_of(&payout).is_none());
    }

    /// Theft regression (REVIEW: debit authorization): a debit prepare
    /// signed by anyone but the account owner is refused at admission —
    /// the victim's funds are never locked, let alone escrowed.
    #[test]
    fn debit_prepare_on_a_victim_account_is_refused() {
        let mut net = sharded(8, 2);
        let victim = net.site(0).address();
        net.fund(victim, 100);
        let far = net.now_ms() + 1_000_000;
        // Site 1 (the attacker) tries to escrow site 0's funds.
        let err = net
            .submit_prepare(1, Hash256::digest(b"steal"), victim, 100, true, far)
            .unwrap_err();
        assert!(matches!(err, NetworkError::Rejected { .. }), "got: {err:?}");
        assert!(net.lock_of(&victim).is_none());
        assert_eq!(net.balance_of(&victim), 100);
    }

    #[test]
    fn self_transfer_is_rejected_before_any_leg_locks() {
        let mut net = sharded(4, 2);
        let from = net.site(0).address();
        net.fund(from, 100);
        let far = net.now_ms() + 1_000_000;
        let err = net.begin_cross_shard_transfer(0, from, 10, far).unwrap_err();
        assert!(matches!(err, NetworkError::Rejected { .. }), "got: {err:?}");
        // Nothing was escrowed or locked — no stranded deadline window.
        assert_eq!(net.balance_of(&from), 100);
        assert!(net.lock_of(&from).is_none());
    }

    #[test]
    fn scoped_metrics_key_each_committee() {
        let registry = medchain_runtime::metrics::Registry::new();
        let mut builder = Network::builder()
            .shards(2)
            .block_interval_ms(20)
            .metrics(registry.handle());
        for i in 0..4 {
            builder = builder.site(&format!("h{i}"), Vec::new());
        }
        let mut net = builder.build().unwrap();
        net.advance(2).unwrap();
        net.cross_link().unwrap();
        assert!(registry.counter_value("shard-0.consensus.rounds") >= 2);
        assert!(registry.counter_value("shard-1.consensus.rounds") >= 2);
        assert!(registry.counter_value("coordinator.consensus.rounds") >= 1);
        assert!(registry.counter_value("coordinator.chain.blocks_committed") >= 1);
        // The unscoped keys stay silent — everything is per-committee.
        assert_eq!(registry.counter_value("consensus.rounds"), 0);
    }
}
