//! One proof-of-authority committee and the chain it drives — the unit
//! every network is made of (DESIGN.md §3).
//!
//! The paper's Fig. 2 consortium is one set of sites running one chain;
//! a sharded consortium (DESIGN.md §9) is that same thing k + 1 times
//! over. A [`crate::network::Network`] holds one [`Committee`] per data
//! chain plus, when sharded, the coordinator's, and the whole committee
//! life cycle lives here once: build (engines, replicas, recover,
//! rejoin, attach, transport), sign and submit with nonce tracking,
//! advance, settle and confirm.

use crate::bootstrap::{stream_into, BootstrapSource};
use crate::client::PendingTx;
use crate::network::{NetworkBuilder, NetworkError, TransportKind};
use medchain_chain::consensus::poa::{PoaEngine, PoaMsg};
use medchain_chain::consensus::{Application, Cluster, Quorum};
use medchain_chain::ledger::LedgerStats;
use medchain_chain::node::{ChainApp, SubmitOutcome};
use medchain_chain::receipt::TxReceipt;
use medchain_chain::{
    Address, AuthorityKey, Hash256, KeyRegistry, Lane, Ledger, ShardId,
    SealedTx, StateCacheConfig, Transaction, TxPayload, ACCOUNTS_PER_PAGE,
};
use medchain_contracts::runtime::Runtime;
use medchain_runtime::metrics::Metrics;
use medchain_storage::{DiskStore, PageStore};
use medchain_transport::{NetStats, NodeId, SimTransport, TcpTransport, Transport};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// What tells one committee of a network from another. Everything else
/// (block interval, storage config, page budget,
/// transport kind) is the builder's and the same for all of them.
pub(crate) struct CommitteeSpec {
    /// Genesis chain id: `medchain`, `medchain/shard-0`, …
    pub chain_id: String,
    /// Which sub-chain of how many the replicas follow.
    pub shard: ShardId,
    pub shard_count: u16,
    /// Global site indices; the local replica index is the position.
    pub sites: Vec<usize>,
    /// Directory holding the members' `site-<local>` data directories.
    pub dir: Option<PathBuf>,
    /// Simulated-transport seed.
    pub seed: u64,
    /// Handle every layer of this committee reports through.
    pub metrics: Metrics,
    /// `MEDCHAIN_TCP_ADDRS` addresses one flat cluster; committees of a
    /// sharded topology bind OS-assigned loopback ports instead.
    pub bind_from_env: bool,
}

/// One committee and the chain it drives: the flat consortium, a data
/// shard (a subset of sites) or the coordinator (every site: the
/// standard contracts, cross-links and 2PC decisions).
pub(crate) struct Committee {
    sites: Vec<usize>,
    cluster: Cluster<PoaEngine, ChainApp, Box<dyn Transport<PoaMsg>>>,
    /// Next nonce per sender on *this* chain (account nonces are
    /// per-ledger), ahead of the committed one while submissions pend.
    nonces: HashMap<Address, u64>,
    block_interval_ms: u64,
}

fn storage_err(chain_id: &str, what: impl std::fmt::Display) -> NetworkError {
    NetworkError::Storage(format!("{chain_id}: {what}"))
}

impl Committee {
    /// Builds the committee `spec` describes over the consortium's
    /// `keys` (by global site index). In order: engines and replicas
    /// from one app factory; open and recover every member's store;
    /// stream into members that recovered behind the rest; re-check
    /// that all tips agree; attach stores and page caches; transport.
    pub(crate) fn build(
        builder: &NetworkBuilder,
        keys: &[AuthorityKey],
        registry: &KeyRegistry,
        spec: CommitteeSpec,
    ) -> Result<Committee, NetworkError> {
        let CommitteeSpec {
            chain_id,
            shard,
            shard_count,
            sites,
            dir,
            seed,
            metrics,
            bind_from_env,
        } = spec;
        let interval = builder.block_interval_ms;
        // The committee's own sites are its quorum: the registry also
        // enrolls other committees' sites and the gateway's clients.
        let quorum =
            Quorum::new(sites.iter().map(|&g| keys[g].address()).collect(), registry.clone());
        let engines: Vec<PoaEngine> = sites
            .iter()
            .enumerate()
            .map(|(local, &g)| {
                PoaEngine::new(NodeId(local), keys[g].clone(), quorum.clone(), interval)
            })
            .collect();
        // Only replica 0 reports, so counters reflect one node's view
        // rather than summing all replicas' identical work.
        let metrics_of =
            |local: usize| if local == 0 { metrics.clone() } else { Metrics::noop() };
        let make_app = |local: usize| {
            // Every chain runs contracts: the coordinator is the home of
            // the standard ones on a sharded network.
            let runtime = Box::new(Runtime::standard());
            let mut app =
                ChainApp::sharded(&chain_id, shard, shard_count, registry.clone(), runtime);
            // Quantize block timestamps to the tick grid so the committed
            // chain is byte-identical whether consensus runs on the
            // logical-clock simulator or wall-clock sockets.
            app.set_timestamp_quantum_ms(interval);
            app.set_metrics(metrics_of(local));
            app
        };
        let mut apps: Vec<ChainApp> = (0..sites.len()).map(&make_app).collect();
        if let (Some(dir), Some((_, config))) = (dir, &builder.storage) {
            let open_store = |local: usize| {
                let site_dir = dir.join(format!("site-{local}"));
                DiskStore::open_with_metrics(site_dir, *config, metrics_of(local))
                    .map_err(|e| storage_err(&chain_id, format!("site {local}: {e}")))
            };
            let mut stores = Vec::with_capacity(apps.len());
            for (local, app) in apps.iter_mut().enumerate() {
                let mut store = open_store(local)?;
                store
                    .recover_into(app.ledger_mut())
                    .map_err(|e| storage_err(&chain_id, format!("site {local}: {e}")))?;
                stores.push(store);
            }
            bootstrap_lagging(&chain_id, &mut apps, &mut stores, &open_store, &make_app)?;
            // All members live in this process: local recovery and the
            // streamed rejoin both end at the cohort tip, so a surviving
            // mismatch is real divergence.
            let tip0 = apps[0].ledger().tip().id();
            if let Some((local, app)) =
                apps.iter().enumerate().find(|(_, app)| app.ledger().tip().id() != tip0)
            {
                return Err(storage_err(
                    &chain_id,
                    format!(
                        "site {local} recovered height {} (tip {:?}) but site 0 recovered \
                         height {} (tip {tip0:?})",
                        app.ledger().height(),
                        app.ledger().tip().id(),
                        apps[0].ledger().height()
                    ),
                ));
            }
            for (local, (app, store)) in apps.iter_mut().zip(stores).enumerate() {
                attach_site_store(app, store, builder.state_cache_pages, metrics_of(local))?;
            }
        }
        let net = make_transport(builder.transport, sites.len(), seed, bind_from_env, &metrics)?;
        let mut cluster = Cluster::with_transport(engines, apps, net);
        cluster.set_metrics(metrics);
        Ok(Committee { sites, cluster, nonces: HashMap::new(), block_interval_ms: interval })
    }

    /// Global indices of the member sites, in replica order.
    pub(crate) fn sites(&self) -> &[usize] {
        &self.sites
    }

    /// Replica 0's node (all replicas agree under PoA).
    pub(crate) fn app(&self) -> &ChainApp {
        &self.cluster.replicas[0].app
    }

    /// Replica 0's ledger.
    pub(crate) fn ledger(&self) -> &Ledger {
        self.app().ledger()
    }

    /// The ledger of member `local`.
    pub(crate) fn ledger_of(&self, local: usize) -> &Ledger {
        self.cluster.replicas[local].app.ledger()
    }

    /// Clock of this committee's transport (logical or wall).
    pub(crate) fn now_ms(&self) -> u64 {
        self.cluster.net.now_ms()
    }

    /// Whether replica 0 holds uncommitted transactions.
    pub(crate) fn has_pending(&self) -> bool {
        self.app().mempool_len() > 0
    }

    /// Fans an already-verified transaction out to every replica's
    /// mempool (gossip shortcut: the pools deduplicate by id) — one
    /// sealed allocation, a reference to it in each pool. The reported
    /// outcome is replica 0's; replicas share deterministic state, so
    /// they agree.
    pub(crate) fn admit_verified(&mut self, tx: SealedTx, lane: Lane) -> SubmitOutcome {
        let mut first = None;
        for replica in &mut self.cluster.replicas {
            let outcome = replica.app.submit_verified(tx.clone(), lane);
            first.get_or_insert(outcome);
        }
        first.unwrap_or(SubmitOutcome::Inadmissible)
    }

    /// Builds a transaction from `key` at its next nonce on this chain,
    /// signs it, verifies the signature once and admits it on `lane`.
    /// A refused transaction gives its reserved nonce back, so the next
    /// submission is not stuck behind a gap.
    pub(crate) fn sign_and_submit(
        &mut self,
        key: &AuthorityKey,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        let sender = key.address();
        let on_chain = self.ledger().state().account(&sender).nonce;
        let tracked = self.nonces.entry(sender).or_insert(on_chain);
        let nonce = (*tracked).max(on_chain);
        *tracked = nonce + 1;
        let tx = SealedTx::from(Transaction::new(sender, nonce, payload, gas_limit).signed(key));
        let (tx_id, shard) = (tx.id(), self.ledger().shard());
        let outcome = if tx.verify(self.ledger().registry()) {
            self.admit_verified(tx, lane)
        } else {
            SubmitOutcome::Inadmissible
        };
        let reason = match outcome {
            SubmitOutcome::Admitted { lane, .. } => return Ok(PendingTx { tx_id, shard, lane }),
            SubmitOutcome::Duplicate => return Ok(PendingTx { tx_id, shard, lane }),
            SubmitOutcome::Full => "mempool full",
            SubmitOutcome::Inadmissible => "inadmissible",
        };
        self.nonces.insert(sender, nonce);
        Err(NetworkError::Rejected { tx_id, reason: reason.into() })
    }

    /// Runs consensus until `blocks` more blocks commit on all replicas.
    pub(crate) fn advance(&mut self, blocks: u64) -> Result<(), NetworkError> {
        let target = self.app().height() + blocks;
        let budget = self.now_ms()
            + blocks * self.block_interval_ms * 40
            + 20 * self.block_interval_ms * self.sites.len() as u64;
        if !self.cluster.run_until_height(target, budget).reached {
            return Err(NetworkError::ConsensusStalled { target, reached: self.app().height() });
        }
        Ok(())
    }

    /// Commits until every one of `ids` has a receipt: one block, or two
    /// when one raced the proposer and lands a block later.
    pub(crate) fn settle(&mut self, ids: &[Hash256]) -> Result<(), NetworkError> {
        self.advance(1)?;
        if ids.iter().any(|id| self.app().ledger().locate_tx(id).is_none()) {
            self.advance(1)?;
        }
        Ok(())
    }

    /// Checks that every one of `ids` committed and executed cleanly.
    pub(crate) fn expect_ok(&self, ids: &[Hash256]) -> Result<(), NetworkError> {
        for id in ids {
            let receipt = self.app().receipt(id).ok_or(NetworkError::MissingReceipt(*id))?;
            if !receipt.ok {
                let error = receipt.error.unwrap_or_else(|| "execution failed".into());
                return Err(NetworkError::TxFailed { tx_id: *id, error });
            }
        }
        Ok(())
    }

    /// Commits pending work and returns the proof-carrying receipt of a
    /// submitted transaction, its proof checked against the tx root of
    /// the committed header (not the root the receipt carries).
    pub(crate) fn confirm(&mut self, pending: &PendingTx) -> Result<TxReceipt, NetworkError> {
        let id = pending.tx_id;
        self.settle(&[id])?;
        let receipt = self.app().tx_receipt(&id).ok_or(NetworkError::MissingReceipt(id))?;
        let root = self.ledger().block(receipt.height).map(|b| b.header.tx_root);
        if !root.is_some_and(|root| receipt.verify_against(&root)) {
            return Err(NetworkError::ReceiptProof(id));
        }
        self.expect_ok(&[id])?;
        Ok(receipt)
    }

    /// Out-of-band funding for tests and experiments: credits `addr` on
    /// every replica, bypassing the block pipeline.
    pub(crate) fn fund(&mut self, addr: Address, amount: u64) {
        for replica in &mut self.cluster.replicas {
            replica.app.ledger_mut().state_mut().credit(addr, amount);
        }
    }

    /// Releases the transport (socket transports join their threads).
    pub(crate) fn shutdown(&mut self) {
        self.cluster.shutdown();
    }
}

/// Ledger counters summed over every replica of `chains` — the total
/// duplicated execution cost.
pub(crate) fn total_ledger_stats<'a>(
    chains: impl IntoIterator<Item = &'a Committee>,
) -> LedgerStats {
    let mut total = LedgerStats::default();
    for replica in chains.into_iter().flat_map(|chain| &chain.cluster.replicas) {
        let stats = replica.app.stats();
        total.blocks += stats.blocks;
        total.transactions += stats.transactions;
        total.gas_used += stats.gas_used;
        total.failed += stats.failed;
    }
    total
}

/// Transport counters summed over `chains`.
pub(crate) fn total_net_stats<'a>(chains: impl IntoIterator<Item = &'a Committee>) -> NetStats {
    let mut total = NetStats::default();
    for chain in chains {
        let stats = chain.cluster.net.stats();
        total.sent += stats.sent;
        total.delivered += stats.delivered;
        total.dropped += stats.dropped;
        total.bytes += stats.bytes;
        total.backpressure += stats.backpressure;
    }
    total
}

fn make_transport(
    kind: TransportKind,
    n: usize,
    seed: u64,
    bind_from_env: bool,
    metrics: &Metrics,
) -> Result<Box<dyn Transport<PoaMsg>>, NetworkError> {
    Ok(match kind {
        TransportKind::Sim => {
            let mut sim = SimTransport::new(n, seed);
            sim.set_metrics(metrics.clone());
            Box::new(sim)
        }
        TransportKind::Tcp => {
            let bound =
                if bind_from_env { TcpTransport::bind_from_env(n) } else { TcpTransport::bind(n) };
            let mut tcp = bound.map_err(|e| NetworkError::TransportInit(e.to_string()))?;
            tcp.set_metrics(metrics.clone());
            Box::new(tcp)
        }
    })
}

/// Brings every member that recovered behind the cohort tip back in
/// step by streaming the most advanced member's snapshot + WAL tail into
/// it (DESIGN.md §14) — the wiped-site rejoin path, run before stores
/// are attached. Both replicas live in this process, so the joiner
/// fetches straight from the captured source. A member holding a
/// partial prefix cannot take a streamed snapshot above it (its WAL
/// would hold a height gap); its chain is derived data, re-obtainable
/// from any honest peer, so the stale directory is wiped, reopened with
/// `open_store` and re-seeded into a genesis app from `make_app`.
fn bootstrap_lagging(
    chain_id: &str,
    apps: &mut [ChainApp],
    stores: &mut [DiskStore],
    open_store: &dyn Fn(usize) -> Result<DiskStore, NetworkError>,
    make_app: &dyn Fn(usize) -> ChainApp,
) -> Result<(), NetworkError> {
    let best = (0..apps.len())
        .max_by_key(|&i| apps[i].ledger().height())
        .expect("a committee has at least one member");
    let best_height = apps[best].ledger().height();
    let lagging: Vec<usize> =
        (0..apps.len()).filter(|&i| apps[i].ledger().height() < best_height).collect();
    if lagging.is_empty() {
        return Ok(()); // A first boot, or everyone recovered to the same height.
    }
    let source = BootstrapSource::capture(apps[best].ledger(), Some(&stores[best]))
        .ok_or_else(|| {
            storage_err(chain_id, format!("site {best} has no snapshot to serve rejoining peers"))
        })?;
    for i in lagging {
        if apps[i].ledger().height() > 0 {
            std::fs::remove_dir_all(stores[i].dir())
                .map_err(|e| storage_err(chain_id, format!("reset site {i}: {e}")))?;
            stores[i] = open_store(i)?;
            apps[i] = make_app(i);
        }
        let fetch = |request: &_| Ok(source.answer(request));
        stream_into(fetch, apps[i].ledger_mut(), &mut stores[i]).map_err(|e| {
            storage_err(chain_id, format!("site {i} failed to bootstrap from site {best}: {e}"))
        })?;
    }
    Ok(())
}

/// Finishes a member's storage wiring: opens the paged-state cache when
/// a budget is set (cold accounts and tree nodes spill to
/// `<site-dir>/pages.bin`, bounded to `pages` cached slots), then
/// attaches the store so every later commit is persisted write-ahead.
fn attach_site_store(
    app: &mut ChainApp,
    mut store: DiskStore,
    cache_pages: Option<usize>,
    metrics: Metrics,
) -> Result<(), NetworkError> {
    if let Some(budget) = cache_pages {
        let path = store.dir().join("pages.bin");
        let pages = Arc::new(PageStore::open(&path, budget, metrics).map_err(|e| {
            NetworkError::Storage(format!("page store {}: {e}", path.display()))
        })?);
        store.attach_pages(Arc::clone(&pages));
        app.ledger_mut().attach_state_cache(StateCacheConfig {
            pager: pages,
            max_hot_accounts: budget * ACCOUNTS_PER_PAGE,
            node_budget: budget * 32,
        });
    }
    app.attach_store(Box::new(store));
    Ok(())
}
