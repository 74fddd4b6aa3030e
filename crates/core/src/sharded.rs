//! Consensus-level sharding: per-shard sub-chains with cross-links
//! (DESIGN.md §9).
//!
//! Partitioning only the *workload* above one monolithic chain leaves
//! every committee member re-validating a shared ledger, so the paper's
//! duplication factor only drops in the numerator. A [`ShardedNetwork`]
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
//! else by site key or anchor label. Contract addresses are ground with
//! [`medchain_chain::sharded_contract_address`] so an address always
//! routes invokes back to the sub-chain that holds the code.

use crate::client::PendingTx;
use crate::committee::{self, Committee, CommitteeSpec};
use crate::gateway::{GatewayBackend, GatewayServer, PumpReport};
use crate::network::{NetworkBuilder, NetworkError, TransportKind};
use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::shard::{shard_for_key, shard_for_tx, CrossLink, ShardId};
use medchain_chain::{
    Address, AuthorityKey, Hash256, KeyRegistry, Lane, LeafKey, Ledger, Receipt, SealedTx,
    StateProof, Transaction, TxPayload, XsLeg, XsLock,
};
use medchain_runtime::metrics::Metrics;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Handle to an in-flight cross-shard transfer: two prepare legs under
/// one transaction id, resolved by the coordinator chain
/// ([`ShardedNetwork::begin_cross_shard_transfer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XsTransfer {
    /// The cross-shard transaction id the coordinator decides on.
    pub xid: Hash256,
    /// The debit prepare leg on the sender's home shard.
    pub debit: PendingTx,
    /// The credit prepare leg on the receiver's home shard.
    pub credit: PendingTx,
}

/// What one [`ShardedNetwork::resolve_cross_shard`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XsResolution {
    /// Commit decisions submitted this pass.
    pub committed: usize,
    /// Timeout-abort decisions submitted this pass.
    pub aborted: usize,
    /// Finalize legs submitted this pass (locks released).
    pub finalized: usize,
}

/// The sharded consortium: `k` data sub-chains plus the coordinator
/// chain. Built with [`NetworkBuilder::shards`] +
/// [`NetworkBuilder::build_sharded`].
pub struct ShardedNetwork {
    /// The `k` data-shard committees by shard index, then the
    /// coordinator's (every site) last.
    chains: Vec<Committee>,
    keys: Vec<AuthorityKey>,
    site_names: Vec<String>,
    registry: KeyRegistry,
    transport: TransportKind,
    metrics: Metrics,
    resumed: bool,
    gateway: Option<GatewayServer>,
    client_keys: Vec<AuthorityKey>,
    /// Uniquifies locally-minted cross-shard transaction ids (two-phase
    /// commit, DESIGN.md §12).
    xs_seq: u64,
}

impl fmt::Debug for ShardedNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedNetwork")
            .field("sites", &self.keys.len())
            .field("shards", &self.shard_count())
            .field("coordinator_height", &self.coordinator_ledger().height())
            .finish()
    }
}

impl NetworkBuilder {
    /// Builds the sharded consortium configured with
    /// [`NetworkBuilder::shards`]: one PoA committee and sub-chain per
    /// shard (site *i* serves shard `i % k`) plus the coordinator chain
    /// run by all sites. Unlike [`NetworkBuilder::build`] this performs
    /// no contract deployment or dataset registration — the sub-chains
    /// start empty and the caller routes work with
    /// [`ShardedNetwork::submit_as`].
    ///
    /// With storage configured, building against a directory holding a
    /// persisted sharded topology *resumes* it, re-checking that every
    /// recovered sub-chain agrees with the newest cross-link on the
    /// recovered coordinator chain.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on transport or storage failure, or when
    /// recovery contradicts a cross-link.
    ///
    /// # Panics
    ///
    /// Panics if no sites were added or there are fewer sites than
    /// shards.
    pub fn build_sharded(self) -> Result<ShardedNetwork, NetworkError> {
        assert!(!self.sites.is_empty(), "a network needs at least one site");
        let n = self.sites.len();
        let k = self.shards;
        assert!(
            n >= k as usize,
            "{n} sites cannot fill {k} shard committees"
        );
        let (keys, client_keys, registry) = self.enroll();
        // Each committee keeps its own chain id, `<root>/<shard>/site-<local>`
        // directories, sim seed and metrics scope (`shard-0.*`,
        // `coordinator.*`).
        let build = |shard: ShardId, sites: Vec<usize>, seed: u64| {
            let spec = CommitteeSpec {
                chain_id: format!("medchain/{shard}"),
                shard,
                shard_count: k,
                sites,
                dir: self.storage.as_ref().map(|(root, _)| root.join(shard.to_string())),
                seed,
                metrics: self.metrics.scoped(&shard.to_string()),
                bind_from_env: false,
                latest_state: None,
            };
            Committee::build(&self, &keys, &registry, spec)
        };
        let mut chains = Vec::with_capacity(k as usize + 1);
        for s in 0..k {
            let members = (0..n).filter(|i| i % k as usize == s as usize).collect();
            chains.push(build(ShardId(s), members, self.seed.wrapping_add(1 + u64::from(s)))?);
        }
        chains.push(build(ShardId::COORDINATOR, (0..n).collect(), self.seed)?);

        let resumed = chains.iter().any(|chain| chain.ledger().height() > 0);
        let mut network = ShardedNetwork {
            chains,
            keys,
            site_names: self.sites.iter().map(|(name, _)| name.clone()).collect(),
            registry,
            transport: self.transport,
            metrics: self.metrics.clone(),
            resumed,
            gateway: None,
            client_keys,
            xs_seq: 0,
        };
        if resumed {
            network.check_recovery_against_cross_links()?;
        }
        network.gateway = self.start_gateway()?;
        Ok(network)
    }
}

impl ShardedNetwork {
    /// Number of data shards.
    pub fn shard_count(&self) -> u16 {
        self.chains.len() as u16 - 1
    }

    /// Number of sites (every site is a validator of exactly one data
    /// shard and of the coordinator chain).
    pub fn site_count(&self) -> usize {
        self.keys.len()
    }

    /// All site names.
    pub fn site_names(&self) -> &[String] {
        &self.site_names
    }

    /// Global site indices serving shard `s`'s committee.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn committee_sites(&self, shard: ShardId) -> &[usize] {
        self.shards()[shard.0 as usize].sites()
    }

    /// The sub-chain ledger of `shard` (committee replica 0's view).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn ledger_of_shard(&self, shard: ShardId) -> &Ledger {
        self.shards()[shard.0 as usize].ledger()
    }

    /// The coordinator chain's ledger (its world state holds the newest
    /// [`medchain_chain::CrossLinkRecord`] per shard).
    pub fn coordinator_ledger(&self) -> &Ledger {
        self.committee(ShardId::COORDINATOR).ledger()
    }

    /// The consortium membership registry.
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Which transport carries consensus traffic.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// The metrics handle installed at build time. Per-committee
    /// subsystems report under scoped keys: `shard-0.consensus.rounds`,
    /// `coordinator.transport.bytes`, …
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether this network resumed persisted sub-chains from disk.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Committed height of every data sub-chain, indexed by shard.
    pub fn shard_heights(&self) -> Vec<u64> {
        self.shards().iter().map(|c| c.ledger().height()).collect()
    }

    /// Deterministic routing of a payload submitted by `site` — the rule
    /// every honest node applies ([`shard_for_tx`]).
    pub fn route(&self, site: usize, payload: &TxPayload) -> ShardId {
        let tx = Transaction::new(self.keys[site].address(), 0, payload.clone(), 0);
        shard_for_tx(&tx, self.shard_count())
    }

    /// The data-shard committees, indexed by shard.
    fn shards(&self) -> &[Committee] {
        &self.chains[..self.chains.len() - 1]
    }

    /// Position of `shard`'s committee in `chains` (coordinator last).
    fn index_of(&self, shard: ShardId) -> usize {
        if shard.is_coordinator() { self.chains.len() - 1 } else { shard.0 as usize }
    }

    fn committee(&self, shard: ShardId) -> &Committee {
        &self.chains[self.index_of(shard)]
    }

    fn committee_mut(&mut self, shard: ShardId) -> &mut Committee {
        let index = self.index_of(shard);
        &mut self.chains[index]
    }

    /// Signs `payload` with `site`'s key at its next nonce on `shard`'s
    /// chain and submits it there.
    fn submit_on(
        &mut self,
        shard: ShardId,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        let key = self.keys.get(site).ok_or(NetworkError::NoSuchSite(site))?;
        let index = self.index_of(shard);
        self.chains[index].sign_and_submit(key, payload, gas_limit, lane)
    }

    /// Builds, signs, routes, and submits a transaction from `site`,
    /// returning the shard it was routed to and the transaction id.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices and
    /// [`NetworkError::CrossLink`] for cross-link payloads — those go
    /// through [`ShardedNetwork::submit_cross_link`], which verifies the
    /// claimed tip first.
    pub fn submit_as(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
    ) -> Result<(ShardId, Hash256), NetworkError> {
        let pending = self.submit_lane(site, payload, gas_limit, Lane::Normal)?;
        Ok((pending.shard, pending.tx_id))
    }

    /// Like [`ShardedNetwork::submit_as`], but returns the
    /// [`PendingTx`] handle for the `submit → PendingTx → TxReceipt`
    /// surface. Normal lane.
    ///
    /// # Errors
    ///
    /// See [`ShardedNetwork::submit_lane`].
    pub fn submit(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
    ) -> Result<PendingTx, NetworkError> {
        self.submit_lane(site, payload, gas_limit, Lane::Normal)
    }

    /// Builds, signs, routes, and submits a transaction from `site` on
    /// the requested mempool lane, returning a [`PendingTx`] to confirm
    /// later.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices,
    /// [`NetworkError::CrossLink`] for cross-link payloads (those go
    /// through [`ShardedNetwork::submit_cross_link`]), and
    /// [`NetworkError::Rejected`] when the target committee's admission
    /// refuses the transaction (the reserved nonce is rolled back).
    pub fn submit_lane(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        if site >= self.keys.len() {
            return Err(NetworkError::NoSuchSite(site));
        }
        if matches!(payload, TxPayload::CrossLink { .. }) {
            return Err(NetworkError::CrossLink(
                "cross-links must be submitted via submit_cross_link".into(),
            ));
        }
        let shard = self.route(site, &payload);
        self.submit_on(shard, site, payload, gas_limit, lane)
    }

    /// Commits pending work on the transaction's sub-chain and returns
    /// its proof-carrying [`TxReceipt`], verified against the tx root of
    /// the committed block read independently from the ledger.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::MissingReceipt`] if the transaction still
    /// has not committed after two rounds,
    /// [`NetworkError::ReceiptProof`] if the inclusion proof does not
    /// check out, and [`NetworkError::TxFailed`] if execution failed.
    pub fn confirm(&mut self, pending: &PendingTx) -> Result<TxReceipt, NetworkError> {
        self.committee_mut(pending.shard).confirm(pending)
    }

    /// Operator-directed contract placement: submits a deploy from
    /// `site` straight to `shard`'s sub-chain instead of routing by the
    /// site key. The derived address is ground to `shard`
    /// ([`medchain_chain::sharded_contract_address`]), so invokes still
    /// route to the chain that holds the code — placement is free,
    /// routing stays canonical.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] / [`NetworkError::CrossLink`]
    /// on bad site or shard.
    pub fn deploy_to(
        &mut self,
        shard: ShardId,
        site: usize,
        code: Vec<u8>,
        init: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Hash256, NetworkError> {
        if shard.0 >= self.shard_count() {
            return Err(NetworkError::CrossLink(format!(
                "cannot deploy to {shard}: not a data shard"
            )));
        }
        let deploy = TxPayload::Deploy { code, init };
        Ok(self.submit_on(shard, site, deploy, gas_limit, Lane::Normal)?.tx_id)
    }

    /// Runs every data-shard committee until `blocks` more blocks commit
    /// on its sub-chain. Committees run independently — this is the
    /// (N/k)-duplication regime the mode harness measures.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] if any committee times
    /// out.
    pub fn advance(&mut self, blocks: u64) -> Result<(), NetworkError> {
        let k = self.shard_count() as usize;
        for committee in &mut self.chains[..k] {
            committee.advance(blocks)?;
        }
        Ok(())
    }

    /// Runs the coordinator committee until `blocks` more blocks commit.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] on timeout.
    pub fn advance_coordinator(&mut self, blocks: u64) -> Result<(), NetworkError> {
        self.committee_mut(ShardId::COORDINATOR).advance(blocks).map(drop)
    }

    /// The current tip of `shard`'s sub-chain as a [`CrossLink`] claim.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_tip(&self, shard: ShardId) -> CrossLink {
        let ledger = self.ledger_of_shard(shard);
        CrossLink { shard, height: ledger.height(), tip: ledger.tip().id() }
    }

    /// Verifies a cross-link claim against the shard's actual sub-chain:
    /// the claimed height must not exceed the tip, and — when the block
    /// at that height is still retained — its id must equal the claimed
    /// tip hash. A tampered or forked claim is rejected here, before it
    /// can reach the coordinator chain.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CrossLink`] describing the violation.
    pub fn verify_link(&self, link: &CrossLink) -> Result<(), NetworkError> {
        let Some(committee) = self.shards().get(link.shard.0 as usize) else {
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
    /// [`ShardedNetwork::advance_coordinator`] to commit it.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::CrossLink`] if verification fails.
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
            .coordinator_ledger()
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
        self.committee(ShardId::COORDINATOR).expect_ok(&ids)?;
        Ok(links)
    }

    /// Receipt lookup on `shard`'s sub-chain (replica 0).
    pub fn receipt_on(&self, shard: ShardId, tx_id: &Hash256) -> Option<&Receipt> {
        self.committee(shard).app().receipt(tx_id)
    }

    /// Aggregate ledger statistics across every replica of every
    /// committee (data shards and coordinator) — the total duplicated
    /// execution cost of the sharded topology.
    pub fn total_ledger_stats(&self) -> medchain_chain::ledger::LedgerStats {
        committee::total_ledger_stats(&self.chains)
    }

    /// Per-shard gas executed on one replica of each sub-chain — the
    /// per-committee slice of the workload (index = shard).
    pub fn shard_gas(&self) -> Vec<u64> {
        self.shards().iter().map(|c| c.ledger().stats().gas_used).collect()
    }

    /// Aggregate transport statistics over all committees and the
    /// coordinator.
    pub fn net_stats(&self) -> medchain_chain::net::NetStats {
        committee::total_net_stats(&self.chains)
    }

    /// The ingress gateway's listen address, when one was configured
    /// with [`NetworkBuilder::gateway`].
    pub fn gateway_addr(&self) -> Option<std::net::SocketAddr> {
        self.gateway.as_ref().map(GatewayServer::addr)
    }

    /// The enrolled gateway client keys (empty without a gateway).
    pub fn client_keys(&self) -> &[AuthorityKey] {
        &self.client_keys
    }

    /// Drains buffered gateway requests through admission — each
    /// transaction routes to its sub-chain via [`shard_for_tx`] — and
    /// answers status queries. No-op without a gateway.
    pub fn pump_gateway(&mut self) -> PumpReport {
        let Some(mut gateway) = self.gateway.take() else { return PumpReport::default() };
        let report = gateway.pump(self);
        self.gateway = Some(gateway);
        report
    }

    /// Serves gateway traffic until `stop` is raised: pump admissions,
    /// commit blocks on whichever sub-chains have pending work and drive
    /// in-flight 2PC transfers (commit fully-locked ones, timeout-abort
    /// stragglers; cheap when no locks are held), then drain the
    /// in-flight tail so every accepted transaction commits.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] if a commit round
    /// times out, and [`NetworkError::DrainStalled`] if the tail cannot
    /// drain because a pooled transaction sits above a nonce gap.
    pub fn serve_until(
        &mut self,
        stop: &std::sync::atomic::AtomicBool,
    ) -> Result<(), NetworkError> {
        committee::serve_until(
            self,
            stop,
            Self::pump_gateway,
            |net| &mut net.chains,
            |net| net.resolve_cross_shard().map(drop),
        )
    }

    /// Gracefully releases the gateway and every committee's transport.
    pub fn shutdown(&mut self) {
        if let Some(mut gateway) = self.gateway.take() {
            gateway.shutdown();
        }
        self.chains.iter_mut().for_each(Committee::shutdown);
    }

    // ------------------------------------------------------------------
    // Cross-shard atomic transfers: two-phase commit over the
    // coordinator chain (DESIGN.md §12).
    // ------------------------------------------------------------------

    /// Wall/sim clock of the coordinator committee, the reference clock
    /// for 2PC prepare deadlines.
    pub fn now_ms(&self) -> u64 {
        self.committee(ShardId::COORDINATOR).now_ms()
    }

    /// Out-of-band funding for tests and experiments: credits `addr` on
    /// every replica of its home-shard committee. Note this bypasses the
    /// block pipeline — with storage configured it only survives restart
    /// through a snapshot taken *after* it (commit a block with
    /// `snapshot_every: 1`, or fund again on resume).
    pub fn fund(&mut self, addr: Address, amount: u64) {
        let shard = shard_for_key(&addr.0, self.shard_count());
        self.committee_mut(shard).fund(addr, amount);
    }

    /// Spendable balance of `addr` on its home sub-chain.
    pub fn balance_of(&self, addr: &Address) -> u64 {
        let shard = shard_for_key(&addr.0, self.shard_count());
        self.ledger_of_shard(shard).state().account(addr).balance
    }

    /// The 2PC lock held on `addr`'s home sub-chain, if any.
    pub fn lock_of(&self, addr: &Address) -> Option<XsLock> {
        let shard = shard_for_key(&addr.0, self.shard_count());
        self.ledger_of_shard(shard).state().lock(addr)
    }

    /// Submits one 2PC prepare leg from `site`: lock `account` on its
    /// home shard for cross-shard transaction `xid`, escrowing `amount`
    /// when `debit`. The leg commits when its sub-chain next advances.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] / [`NetworkError::Rejected`]
    /// as [`ShardedNetwork::submit_lane`] does (admission refuses a
    /// prepare while the account is already locked).
    pub fn submit_prepare(
        &mut self,
        site: usize,
        xid: Hash256,
        account: Address,
        amount: u64,
        debit: bool,
        deadline_ms: u64,
    ) -> Result<PendingTx, NetworkError> {
        let shard = shard_for_key(&account.0, self.shard_count());
        let leg = XsLeg { shard, account, amount, debit };
        self.submit_lane(site, TxPayload::XsPrepare { xid, leg, deadline_ms }, 1_000, Lane::Normal)
    }

    /// Begins an atomic cross-shard transfer of `amount` from `site`'s
    /// own account to `to`: submits a debit prepare on the sender's home
    /// shard and a credit prepare on the receiver's. Once both legs
    /// commit their locks, [`ShardedNetwork::resolve_cross_shard`]
    /// commits the transfer on the coordinator chain and finalizes both
    /// shards; if either leg never locks by `deadline_ms` (coordinator
    /// clock), it aborts instead and the escrow is refunded.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Rejected`] when `to` is the sender's own
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
        if site >= self.keys.len() {
            return Err(NetworkError::NoSuchSite(site));
        }
        let from = self.keys[site].address();
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
        self.metrics.counter("xs.transfers", 1);
        let debit = self.submit_prepare(site, xid, from, amount, true, deadline_ms)?;
        let credit = self.submit_prepare(site, xid, to, amount, false, deadline_ms)?;
        Ok(XsTransfer { xid, debit, credit })
    }

    /// Every held lock across all data sub-chains, grouped by
    /// cross-shard transaction id.
    fn collect_locks(&self) -> BTreeMap<Hash256, Vec<(ShardId, Address, XsLock)>> {
        let mut groups: BTreeMap<Hash256, Vec<(ShardId, Address, XsLock)>> = BTreeMap::new();
        for (s, committee) in self.shards().iter().enumerate() {
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
    /// [`ShardedNetwork::serve_until`] calls between pump rounds): an
    /// undecided transfer whose deadline has not passed is simply left
    /// alone.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on consensus stalls or refused
    /// control-plane submissions.
    pub fn resolve_cross_shard(&mut self) -> Result<XsResolution, NetworkError> {
        let now_ms = self.now_ms();
        let mut resolution = XsResolution::default();
        // Phase 1: decide undecided transactions on the coordinator.
        let groups = self.collect_locks();
        let mut decides: Vec<(Hash256, bool)> = Vec::new();
        for (xid, legs) in &groups {
            if self.coordinator_ledger().state().xs_decision(xid).is_some() {
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
                    self.metrics.counter("xs.committed", 1);
                } else {
                    resolution.aborted += 1;
                    self.metrics.counter("xs.aborted", 1);
                }
            }
            self.committee_mut(ShardId::COORDINATOR).settle(&ids)?;
        }
        // Phase 2: finalize every lock the coordinator has decided.
        let mut finalizes: BTreeMap<ShardId, Vec<Hash256>> = BTreeMap::new();
        for (xid, legs) in self.collect_locks() {
            let Some(decision) = self.coordinator_ledger().state().xs_decision(&xid) else {
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
                self.metrics.counter("xs.finalized", 1);
            }
        }
        for (shard, ids) in finalizes {
            self.committee_mut(shard).settle(&ids)?;
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
            .coordinator_ledger()
            .state()
            .xs_decision(&transfer.xid)
            .map(|d| d.commit)
            .unwrap_or(false);
        Ok((transfer.xid, committed))
    }

    /// Recovery invariant (DESIGN.md §9): every recovered sub-chain must
    /// agree with the newest cross-link the recovered coordinator holds —
    /// at least as high, and hash-equal where the linked block is still
    /// retained.
    fn check_recovery_against_cross_links(&self) -> Result<(), NetworkError> {
        for (shard, record) in self.coordinator_ledger().state().cross_links() {
            let Some(committee) = self.shards().get(shard.0 as usize) else {
                return Err(NetworkError::CrossLink(format!(
                    "coordinator holds a cross-link for unknown shard {shard}"
                )));
            };
            let ledger = committee.ledger();
            if record.height > ledger.height() {
                return Err(NetworkError::CrossLink(format!(
                    "{shard} recovered to height {} but its newest cross-link \
                     commits height {}",
                    ledger.height(),
                    record.height
                )));
            }
            if let Some(block) = ledger.block(record.height) {
                if block.id() != record.tip {
                    return Err(NetworkError::CrossLink(format!(
                        "{shard} recovered a different block at cross-linked \
                         height {}: chain has {:?}, cross-link commits {:?}",
                        record.height,
                        block.id(),
                        record.tip
                    )));
                }
            }
        }
        Ok(())
    }
}

impl GatewayBackend for ShardedNetwork {
    fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    fn admit(&mut self, tx: SealedTx, lane: Lane) -> (ShardId, SubmitOutcome) {
        // External clients may not mint control-plane records: cross-links
        // carry consortium attestations (enter via `submit_cross_link`'s
        // verification path), and 2PC decisions/finalizes are the
        // resolver's alone — a client forging a decide could release
        // locks it never held. Prepares are fine: clients start
        // transfers, the consortium resolves them.
        if matches!(
            tx.payload,
            TxPayload::CrossLink { .. } | TxPayload::XsDecide { .. } | TxPayload::XsFinalize { .. }
        ) {
            return (ShardId::COORDINATOR, SubmitOutcome::Inadmissible);
        }
        let shard = shard_for_tx(&tx, self.shard_count());
        (shard, self.committee_mut(shard).admit_verified(tx, lane))
    }

    fn find_receipt(&self, tx_id: &Hash256) -> Option<TxReceipt> {
        self.chains.iter().find_map(|c| c.app().tx_receipt(tx_id))
    }

    fn is_pending(&self, tx_id: &Hash256) -> bool {
        self.chains.iter().any(|c| c.app().mempool_contains(tx_id))
    }

    fn xs_status(&self, xid: &Hash256) -> Option<(bool, Option<TxReceipt>)> {
        let coordinator = self.committee(ShardId::COORDINATOR);
        let decision = coordinator.ledger().state().xs_decision(xid)?;
        let receipt = coordinator.app().tx_receipt(&decision.tx_id);
        Some((decision.commit, receipt))
    }

    fn query_state(&self, key: &LeafKey, shard: Option<ShardId>) -> Option<StateProof> {
        // Route like transactions: the key's home shard unless the
        // client pins one (e.g. for a cross-shard absence proof).
        let target = shard.unwrap_or_else(|| key.home_shard(self.shard_count()));
        let known = target.is_coordinator() || target.0 < self.shard_count();
        known.then(|| self.committee(target).ledger().prove_state(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::MedicalNetwork;
    use medchain_chain::shard::shard_for_key;

    fn sharded(sites: usize, shards: u16) -> ShardedNetwork {
        let mut builder = MedicalNetwork::builder().shards(shards).block_interval_ms(20);
        for i in 0..sites {
            builder = builder.site(&format!("hospital-{i}"), Vec::new());
        }
        builder.build_sharded().expect("sharded network builds")
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
        let gc = net.coordinator_ledger().block(0).unwrap().id();
        assert_ne!(g0, g1);
        assert_ne!(g0, gc);
    }

    #[test]
    fn anchors_route_by_label_and_commit_on_their_shard() {
        let mut net = sharded(8, 2);
        let mut ids = Vec::new();
        for i in 0..8 {
            let label = format!("hospital-{i}/emr");
            let expected = shard_for_key(label.as_bytes(), 2);
            let (shard, id) = net
                .submit_as(i, TxPayload::Anchor { root: Hash256::digest(label.as_bytes()), label }, 1_000)
                .unwrap();
            assert_eq!(shard, expected);
            ids.push((shard, id));
        }
        net.advance(2).unwrap();
        for (shard, id) in ids {
            let receipt = net.receipt_on(shard, &id).expect("committed on its shard");
            assert!(receipt.ok);
        }
        // Work landed on both sub-chains.
        assert!(net.shard_heights().iter().all(|&h| h >= 1));
    }

    #[test]
    fn cross_link_round_commits_every_tip() {
        let mut net = sharded(8, 2);
        for i in 0..8 {
            let label = format!("hospital-{i}/emr");
            net.submit_as(i, TxPayload::Anchor { root: Hash256::ZERO, label }, 1_000).unwrap();
        }
        net.advance(2).unwrap();
        let links = net.cross_link().unwrap();
        assert_eq!(links.len(), 2, "both shards advanced, both get linked");
        let state = net.coordinator_ledger().state();
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
            let receipt = net.receipt_on(ShardId(s), &id).expect("deploy committed").clone();
            assert!(receipt.ok, "deploy failed: {:?}", receipt.error);
            let mut raw = [0u8; 20];
            raw.copy_from_slice(&receipt.output);
            let addr = Address(raw);
            assert_eq!(shard_for_key(&addr.0, 2), ShardId(s));
            // Invoking that address routes back to the hosting shard.
            let (routed, _) = net
                .submit_as(1, TxPayload::Invoke { contract: addr, input: Vec::new() }, 10_000)
                .unwrap();
            assert_eq!(routed, ShardId(s));
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
        let from = net.keys[0].address();
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
        let decision = net.coordinator_ledger().state().xs_decision(&xid).expect("recorded");
        assert!(decision.commit);
        // A second resolver pass finds nothing left to do.
        let again = net.resolve_cross_shard().unwrap();
        assert_eq!(again, XsResolution::default());
    }

    #[test]
    fn withheld_credit_leg_aborts_on_timeout_and_refunds_escrow() {
        let mut net = sharded(8, 2);
        let from = net.keys[0].address();
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
        let decision = net.coordinator_ledger().state().xs_decision(&xid).expect("recorded");
        assert!(!decision.commit);
    }

    #[test]
    fn undecided_transfer_before_deadline_is_left_alone() {
        let mut net = sharded(4, 2);
        let from = net.keys[0].address();
        net.fund(from, 100);
        let far = net.now_ms() + 1_000_000;
        let xid = Hash256::digest(b"still-waiting");
        let debit = net.submit_prepare(0, xid, from, 10, true, far).unwrap();
        net.confirm(&debit).unwrap();
        let resolution = net.resolve_cross_shard().unwrap();
        assert_eq!(resolution, XsResolution::default(), "deadline not passed, no decision");
        assert!(net.lock_of(&from).is_some(), "lock stays until decided");
        assert!(net.coordinator_ledger().state().xs_decision(&xid).is_none());
    }

    #[test]
    fn gateway_clients_cannot_mint_decides_or_finalizes() {
        let mut net = sharded(4, 2);
        let key = net.keys[1].clone();
        for payload in [
            TxPayload::XsDecide { xid: Hash256::digest(b"forged"), commit: true },
            TxPayload::XsFinalize {
                xid: Hash256::digest(b"forged"),
                account: key.address(),
                commit: true,
            },
        ] {
            let tx = Transaction::new(key.address(), 0, payload, 1_000).signed(&key);
            let (_, outcome) = GatewayBackend::admit_verified(&mut net, tx, Lane::Normal);
            assert_eq!(outcome, SubmitOutcome::Inadmissible);
        }
    }

    #[test]
    fn locked_account_defers_new_prepares_until_release() {
        let mut net = sharded(4, 2);
        let from = net.keys[0].address();
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
        let attacker = net.keys[1].address();
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
        let decision = net.coordinator_ledger().state().xs_decision(&xid).expect("recorded");
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
        let victim = net.keys[0].address();
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
        let from = net.keys[0].address();
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
        let mut builder = MedicalNetwork::builder()
            .shards(2)
            .block_interval_ms(20)
            .metrics(registry.handle());
        for i in 0..4 {
            builder = builder.site(&format!("h{i}"), Vec::new());
        }
        let mut net = builder.build_sharded().unwrap();
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
