//! The global medical blockchain network (paper Fig. 2).
//!
//! N hospital sites form a proof-of-authority consortium. Every node
//! runs the identical standard contracts (data / analytics / trial —
//! Fig. 4); each site's off-chain control code makes those identical
//! contracts drive *different* local computation (Fig. 1). The network
//! object is a shell over one `Committee` (the consensus cluster with
//! its nonce tracking and serve loop, shared with every shard of a
//! [`crate::sharded::ShardedNetwork`]); its own are the sites with their
//! locally resident data, the standard contracts, the dataset anchors
//! and the control-plane cycle.

use crate::client::PendingTx;
use crate::committee::{self, Committee, CommitteeSpec};
use crate::gateway::{GatewayBackend, GatewayConfig, GatewayServer, PumpReport};
use crate::site::Site;
use medchain_chain::consensus::RunReport;
use medchain_chain::ledger::contract_address;
use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::{
    Address, AuthorityKey, Block, Hash256, KeyRegistry, Lane, LeafKey, Receipt, SealedTx,
    ShardId, StateProof, TxPayload,
};
use medchain_contracts::native::native_manifest;
use medchain_contracts::policy::Purpose;
use medchain_contracts::runtime::call_data;
use medchain_contracts::value::Value;
use medchain_data::PatientRecord;
use medchain_offchain::ActionIntent;
use medchain_runtime::metrics::Metrics;
use medchain_storage::{stream, LatestState, SnapshotChunk, SnapshotManifest, StorageConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Addresses of the three standard contracts after deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractAddresses {
    /// The data contract (ownership, policy, access requests).
    pub data: Address,
    /// The analytics contract (tools, tasks, results).
    pub analytics: Address,
    /// The clinical-trial contract.
    pub trial: Address,
}

/// Which transport carries the consortium's consensus traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Deterministic discrete-event simulator (logical time, seeded).
    #[default]
    Sim,
    /// Real TCP sockets on loopback (wall-clock time, real bytes).
    Tcp,
}

impl TransportKind {
    /// Reads the `MEDCHAIN_TRANSPORT` environment variable: `tcp` (any
    /// case) selects [`TransportKind::Tcp`], everything else — including
    /// an unset variable — the simulator.
    pub fn from_env() -> TransportKind {
        match std::env::var("MEDCHAIN_TRANSPORT") {
            Ok(v) if v.eq_ignore_ascii_case("tcp") => TransportKind::Tcp,
            _ => TransportKind::Sim,
        }
    }

    /// Human-readable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// Consensus failed to reach the requested height in time.
    ConsensusStalled {
        /// Height that was requested.
        target: u64,
        /// Height actually reached.
        reached: u64,
    },
    /// A transaction's receipt reported failure.
    TxFailed {
        /// The failed transaction.
        tx_id: Hash256,
        /// Receipt error text.
        error: String,
    },
    /// A receipt was missing after commit.
    MissingReceipt(Hash256),
    /// Site index out of range.
    NoSuchSite(usize),
    /// The requested transport could not be brought up (e.g. socket
    /// bind failure).
    TransportInit(String),
    /// Durable storage failed to open, recover, or resume consistently.
    Storage(String),
    /// A cross-link failed verification against the shard's actual
    /// sub-chain, or a sharding invariant was violated (DESIGN.md §9).
    CrossLink(String),
    /// Admission refused a transaction (full pool, bad nonce, bad
    /// signature).
    Rejected {
        /// The refused transaction.
        tx_id: Hash256,
        /// Why admission failed.
        reason: String,
    },
    /// A committed transaction's receipt proof failed to verify against
    /// the block's transaction root — should be impossible on an honest
    /// node and always worth surfacing loudly.
    ReceiptProof(Hash256),
    /// The ingress gateway could not be started or is not configured.
    Gateway(String),
    /// `serve_until`'s tail drain gave up: blocks keep committing but
    /// take nothing out of the mempools, which is what a transaction
    /// admitted above its sender's next nonce does to them.
    DrainStalled {
        /// Transactions still pooled.
        pending: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::ConsensusStalled { target, reached } => {
                write!(f, "consensus stalled at height {reached} (target {target})")
            }
            NetworkError::TxFailed { tx_id, error } => {
                write!(f, "transaction {tx_id:?} failed: {error}")
            }
            NetworkError::MissingReceipt(id) => write!(f, "no receipt for {id:?}"),
            NetworkError::NoSuchSite(i) => write!(f, "no site with index {i}"),
            NetworkError::TransportInit(e) => write!(f, "transport init failed: {e}"),
            NetworkError::Storage(e) => write!(f, "storage failed: {e}"),
            NetworkError::CrossLink(e) => write!(f, "cross-link violation: {e}"),
            NetworkError::Rejected { tx_id, reason } => {
                write!(f, "admission rejected {tx_id:?}: {reason}")
            }
            NetworkError::ReceiptProof(id) => {
                write!(f, "receipt proof for {id:?} fails against the committed root")
            }
            NetworkError::Gateway(e) => write!(f, "gateway: {e}"),
            NetworkError::DrainStalled { pending } => {
                write!(f, "drain stalled: {pending} pooled transaction(s) no block can take")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// The one builder for both network shapes — a monolithic
/// [`MedicalNetwork`] ([`NetworkBuilder::build`]) or a
/// [`crate::sharded::ShardedNetwork`]
/// ([`NetworkBuilder::build_sharded`]).
///
/// Every option composes with every other, in any order:
///
/// - [`NetworkBuilder::site`] — add a hospital site (required, ≥ 1)
/// - [`NetworkBuilder::shards`] — split consensus into `k` committees
///   (only `build_sharded` honors it)
/// - [`NetworkBuilder::storage`] / [`NetworkBuilder::storage_with`] —
///   durable per-site chains, resumed when the directory already holds
///   one
/// - [`NetworkBuilder::metrics`] — install a metrics sink on every layer
/// - [`NetworkBuilder::gateway`] — start the client ingress gateway
///   (DESIGN.md §10) and enroll its client keys
/// - [`NetworkBuilder::transport`], [`NetworkBuilder::block_interval_ms`],
///   [`NetworkBuilder::seed`], [`NetworkBuilder::with_fda`] — consensus
///   transport and topology knobs
///
/// ```no_run
/// use medchain::{GatewayConfig, MedicalNetwork};
/// let net = MedicalNetwork::builder()
///     .site("hospital-0", Vec::new())
///     .site("hospital-1", Vec::new())
///     .shards(2)
///     .gateway(GatewayConfig::default())
///     .build_sharded()
///     .unwrap();
/// ```
#[derive(Default)]
pub struct NetworkBuilder {
    pub(crate) sites: Vec<(String, Vec<PatientRecord>)>,
    pub(crate) block_interval_ms: u64,
    pub(crate) seed: u64,
    with_fda: bool,
    pub(crate) transport: TransportKind,
    pub(crate) metrics: Metrics,
    pub(crate) storage: Option<(PathBuf, StorageConfig)>,
    pub(crate) shards: u16,
    pub(crate) gateway: Option<GatewayConfig>,
    pub(crate) parallel_exec: usize,
    pub(crate) state_cache_pages: Option<usize>,
    pub(crate) track_latest: bool,
}

impl fmt::Debug for NetworkBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetworkBuilder").field("sites", &self.sites.len()).finish()
    }
}

impl NetworkBuilder {
    /// Starts a builder with defaults (50 ms blocks, seed 42).
    pub fn new() -> NetworkBuilder {
        NetworkBuilder {
            sites: Vec::new(),
            block_interval_ms: 50,
            seed: 42,
            with_fda: false,
            transport: TransportKind::Sim,
            metrics: Metrics::noop(),
            storage: None,
            shards: 1,
            gateway: None,
            parallel_exec: 1,
            state_cache_pages: None,
            track_latest: false,
        }
    }

    /// Caps every site's resident state at roughly `pages` 4 KiB page
    /// slots (DESIGN.md §14): cold accounts and authenticated-tree
    /// subtrees spill to a per-site `pages.bin` page file and fault back
    /// in on demand, so total state may exceed RAM. Committed roots are
    /// byte-identical to a fully-resident node. Requires
    /// [`NetworkBuilder::storage`] (the page file lives in the site's
    /// data directory); without storage the setting is ignored.
    #[must_use]
    pub fn state_cache(mut self, pages: usize) -> NetworkBuilder {
        assert!(pages > 0, "a page cache needs at least one page slot");
        self.state_cache_pages = Some(pages);
        self
    }

    /// Maintains the `latest_state` projection (DESIGN.md §14) on
    /// replica 0: a key → newest-committed-value map updated from each
    /// committed block's state delta, giving HIE-style point reads O(1)
    /// lookups without touching the authenticated tree. Fetch it with
    /// [`MedicalNetwork::latest_state`].
    #[must_use]
    pub fn track_latest_state(mut self) -> NetworkBuilder {
        self.track_latest = true;
        self
    }

    /// Executes committed blocks on `threads` worker threads via the
    /// conflict-free wave scheduler (DESIGN.md §11). Transactions are
    /// partitioned by inferred read/write sets; the parallel schedule is
    /// guaranteed byte-identical to sequential apply, so any replica may
    /// enable this independently. `1` (the default) keeps the classic
    /// sequential path.
    #[must_use]
    pub fn parallel_exec(mut self, threads: usize) -> NetworkBuilder {
        self.parallel_exec = threads.max(1);
        self
    }

    /// Starts a client ingress gateway alongside the network
    /// (DESIGN.md §10): a TCP front-end that batch-verifies signed
    /// client transactions and admits them into fee/priority mempool
    /// lanes. `cfg.clients` client keys (seeds `0x1000_0000..`) are
    /// enrolled into the consortium registry at build time so their
    /// transactions verify on every replica; fetch them with
    /// `client_keys()` on the built network.
    #[must_use]
    pub fn gateway(mut self, cfg: GatewayConfig) -> NetworkBuilder {
        self.gateway = Some(cfg);
        self
    }

    /// Splits the consortium into `k` consensus shards (DESIGN.md §9):
    /// site *i* joins the committee of shard `i % k`, each committee
    /// drives its own sub-chain, and a coordinator chain run by every
    /// site commits periodic cross-links. Only
    /// [`NetworkBuilder::build_sharded`] honors this setting;
    /// [`NetworkBuilder::build`] ignores it and produces the single
    /// monolithic chain.
    #[must_use]
    pub fn shards(mut self, k: u16) -> NetworkBuilder {
        assert!(k > 0, "a sharded consortium needs at least one shard");
        self.shards = k;
        self
    }

    /// Persists every site's chain under `root` (one data directory per
    /// site: `<root>/site-<i>`) with the default [`StorageConfig`].
    /// Building against a directory that already holds a persisted
    /// chain *resumes* it: each site recovers its ledger from disk and
    /// the one-time setup (contract deployment, dataset registration)
    /// is skipped.
    #[must_use]
    pub fn storage(self, root: impl Into<PathBuf>) -> NetworkBuilder {
        self.storage_with(root, StorageConfig::default())
    }

    /// [`NetworkBuilder::storage`] with an explicit [`StorageConfig`]
    /// (segment size, fsync policy, snapshot cadence, fault injection).
    #[must_use]
    pub fn storage_with(
        mut self,
        root: impl Into<PathBuf>,
        config: StorageConfig,
    ) -> NetworkBuilder {
        self.storage = Some((root.into(), config));
        self
    }

    /// Installs a metrics handle on every layer of the network: the
    /// transport (`transport.*`), each replica's app and mempool
    /// (`chain.*`, `mempool.*`), and the consensus harness
    /// (`consensus.*`).
    #[must_use]
    pub fn metrics(mut self, metrics: Metrics) -> NetworkBuilder {
        self.metrics = metrics;
        self
    }

    /// Adds a site hosting `records`.
    #[must_use]
    pub fn site(mut self, name: &str, records: Vec<PatientRecord>) -> NetworkBuilder {
        self.sites.push((name.to_string(), records));
        self
    }

    /// Sets the PoA block interval.
    #[must_use]
    pub fn block_interval_ms(mut self, interval: u64) -> NetworkBuilder {
        self.block_interval_ms = interval;
        self
    }

    /// Sets the simulation seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> NetworkBuilder {
        self.seed = seed;
        self
    }

    /// Selects the transport carrying consensus traffic (default: the
    /// deterministic simulator). Use
    /// [`TransportKind::from_env`] to honor `MEDCHAIN_TRANSPORT=tcp`.
    #[must_use]
    pub fn transport(mut self, kind: TransportKind) -> NetworkBuilder {
        self.transport = kind;
        self
    }

    /// Adds the regulator's special node (paper Fig. 2): a compute-only
    /// consortium member named `"fda"` hosting no patient data, enrolled
    /// as a validator, and granted [`Purpose::RegulatoryAudit`] on every
    /// hospital dataset at build time.
    #[must_use]
    pub fn with_fda(mut self) -> NetworkBuilder {
        self.with_fda = true;
        self
    }

    /// Builds the network: starts the consortium, deploys the three
    /// standard contracts, registers and Merkle-anchors every site's
    /// dataset.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if consensus or deployment fails.
    ///
    /// # Panics
    ///
    /// Panics if no sites were added.
    pub fn build(mut self) -> Result<MedicalNetwork, NetworkError> {
        assert!(!self.sites.is_empty(), "a network needs at least one site");
        if self.with_fda {
            self.sites.push(("fda".to_string(), Vec::new()));
        }
        let (keys, client_keys, registry) = self.enroll();
        let latest_state = self.track_latest.then(|| Arc::new(LatestState::new()));
        let spec = CommitteeSpec {
            chain_id: "medchain".into(),
            shard: ShardId(0),
            shard_count: 1,
            sites: (0..keys.len()).collect(),
            dir: self.storage.as_ref().map(|(root, _)| root.clone()),
            seed: self.seed,
            metrics: self.metrics.clone(),
            bind_from_env: true,
            latest_state: latest_state.clone(),
        };
        let committee = Committee::build(&self, &keys, &registry, spec)?;
        let resumed = committee.ledger().height() > 0;
        let gateway = self.start_gateway()?;
        // Site 0 deploys the standard contracts with its first three
        // nonces, so their addresses are known before (and after) the
        // chain holds them.
        let deployer = keys[0].address();
        let contracts = ContractAddresses {
            data: contract_address(&deployer, 0),
            analytics: contract_address(&deployer, 1),
            trial: contract_address(&deployer, 2),
        };
        let sites: Vec<Site> = self
            .sites
            .into_iter()
            .zip(keys)
            .map(|((name, records), key)| Site::new(&name, key, records))
            .collect();
        let mut network = MedicalNetwork {
            committee,
            sites,
            contracts,
            registry,
            transport: self.transport,
            metrics: self.metrics,
            resumed,
            gateway,
            client_keys,
            latest_state,
            stream_cache: None,
        };
        if resumed {
            // The persisted chain already holds the one-time setup;
            // verify the code is where site 0's deploys put it.
            let state = network.ledger().state();
            for (name, addr) in [
                ("data", contracts.data),
                ("analytics", contracts.analytics),
                ("trial", contracts.trial),
            ] {
                if state.code(&addr).is_none() {
                    return Err(NetworkError::Storage(format!(
                        "resumed chain at height {} has no {name} contract at {addr:?}",
                        network.height()
                    )));
                }
            }
        } else {
            network.deploy_standard_contracts()?;
            network.register_all_datasets()?;
            if self.with_fda {
                let fda = network.fda_index().expect("fda site appended above");
                let fda_address = network.site(fda).address();
                network.grant_all(fda_address, Purpose::RegulatoryAudit)?;
            }
        }
        Ok(network)
    }

    /// The consortium's identities: one validator key per site (seed =
    /// site index), the gateway's client keys (seeds `0x1000_0000..`,
    /// disjoint from the validators'), and the registry holding both.
    /// Clients enroll before any replica clones the registry, so their
    /// signatures verify on every chain.
    pub(crate) fn enroll(&self) -> (Vec<AuthorityKey>, Vec<AuthorityKey>, KeyRegistry) {
        let seeded = |base: u64, n: usize| -> Vec<AuthorityKey> {
            (0..n as u64).map(|i| AuthorityKey::from_seed(base + i)).collect()
        };
        let keys = seeded(0, self.sites.len());
        let client_keys = seeded(0x1000_0000, self.gateway.map_or(0, |cfg| cfg.clients));
        let mut registry = KeyRegistry::new();
        for key in keys.iter().chain(&client_keys) {
            registry.enroll(key);
        }
        (keys, client_keys, registry)
    }

    /// Starts the ingress gateway when one is configured. Its handle is
    /// unscoped: ingress reports the same `gateway.*` keys whether it
    /// fronts a flat chain or a sharded one.
    pub(crate) fn start_gateway(&self) -> Result<Option<GatewayServer>, NetworkError> {
        self.gateway
            .map(|cfg| GatewayServer::start(cfg, self.metrics.clone()))
            .transpose()
            .map_err(|e| NetworkError::Gateway(e.to_string()))
    }
}

/// The running consortium.
pub struct MedicalNetwork {
    committee: Committee,
    sites: Vec<Site>,
    contracts: ContractAddresses,
    registry: KeyRegistry,
    transport: TransportKind,
    metrics: Metrics,
    resumed: bool,
    gateway: Option<GatewayServer>,
    client_keys: Vec<AuthorityKey>,
    latest_state: Option<Arc<LatestState>>,
    // One chunked snapshot materialized per tip for the streaming
    // protocol; invalidated (rebuilt) when a manifest is requested at a
    // newer tip.
    stream_cache: Option<(SnapshotManifest, Vec<u8>)>,
}

impl fmt::Debug for MedicalNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MedicalNetwork")
            .field("sites", &self.sites.len())
            .field("height", &self.height())
            .finish()
    }
}

impl MedicalNetwork {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::new()
    }

    /// Number of sites (= consortium validators).
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site accessor.
    pub fn site(&self, index: usize) -> &Site {
        &self.sites[index]
    }

    /// Mutable site accessor.
    pub fn site_mut(&mut self, index: usize) -> &mut Site {
        &mut self.sites[index]
    }

    /// All site names.
    pub fn site_names(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.name().to_string()).collect()
    }

    /// Standard contract addresses.
    pub fn contracts(&self) -> ContractAddresses {
        self.contracts
    }

    /// Index of the regulator's special node, when the network was built
    /// with [`NetworkBuilder::with_fda`].
    pub fn fda_index(&self) -> Option<usize> {
        self.sites.iter().position(|s| s.name() == "fda")
    }

    /// Current committed height (replica 0's view).
    pub fn height(&self) -> u64 {
        self.ledger().height()
    }

    /// Replica 0's ledger (all replicas agree under PoA).
    pub fn ledger(&self) -> &medchain_chain::Ledger {
        self.committee.ledger()
    }

    /// The ledger of a specific replica (for control-plane polling).
    pub fn ledger_of(&self, site: usize) -> &medchain_chain::Ledger {
        self.committee.ledger_of(site)
    }

    /// Out-of-band funding for tests and experiments: credits `addr` on
    /// every replica. Bypasses the block pipeline (like
    /// `ShardedNetwork::fund`), so state proofs only cover it after the
    /// next committed block re-roots the headers.
    pub fn fund(&mut self, addr: Address, amount: u64) {
        self.committee.fund(addr, amount);
    }

    /// The consortium membership registry.
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Consensus network statistics.
    pub fn net_stats(&self) -> medchain_transport::NetStats {
        committee::total_net_stats([&self.committee])
    }

    /// Which transport carries this network's consensus traffic.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// The metrics handle installed at build time (noop by default) —
    /// higher layers (query pipeline, experiments) emit through it.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether this network resumed a persisted chain from disk instead
    /// of running the one-time setup.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The `latest_state` projection when enabled with
    /// [`NetworkBuilder::track_latest_state`]: O(1) point reads of the
    /// newest committed value per key, maintained from replica 0's
    /// committed state deltas (DESIGN.md §14). Covers every block this
    /// process replayed, streamed, or committed; a snapshot-restored
    /// baseline is not back-filled.
    pub fn latest_state(&self) -> Option<&Arc<LatestState>> {
        self.latest_state.as_ref()
    }

    /// Gracefully releases the transport (socket transports join their
    /// threads; the simulator is a no-op) and stops the gateway.
    pub fn shutdown(&mut self) {
        if let Some(gateway) = self.gateway.as_mut() {
            gateway.shutdown();
        }
        self.committee.shutdown();
    }

    /// The ingress gateway's TCP address, when built with
    /// [`NetworkBuilder::gateway`].
    pub fn gateway_addr(&self) -> Option<std::net::SocketAddr> {
        self.gateway.as_ref().map(GatewayServer::addr)
    }

    /// The enrolled gateway client keys (empty without a gateway).
    pub fn client_keys(&self) -> &[AuthorityKey] {
        &self.client_keys
    }

    /// Drains buffered gateway requests through admission and answers
    /// status queries. No-op without a gateway.
    pub fn pump_gateway(&mut self) -> PumpReport {
        let Some(mut gateway) = self.gateway.take() else { return PumpReport::default() };
        let report = gateway.pump(self);
        self.gateway = Some(gateway);
        report
    }

    /// Serves gateway traffic until `stop` is raised: pump admissions,
    /// commit blocks whenever transactions are pending, then drain the
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
            |net| std::slice::from_mut(&mut net.committee),
            |_| Ok(()),
        )
    }

    /// Aggregate ledger statistics across all replicas (the duplicated
    /// execution cost).
    pub fn total_ledger_stats(&self) -> medchain_chain::ledger::LedgerStats {
        committee::total_ledger_stats([&self.committee])
    }

    /// Submits a transaction from `site` on the normal lane — the
    /// `submit → PendingTx → confirm → TxReceipt` client API.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices and
    /// [`NetworkError::Rejected`] when admission refuses the
    /// transaction.
    pub fn submit(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
    ) -> Result<PendingTx, NetworkError> {
        self.submit_lane(site, payload, gas_limit, Lane::Normal)
    }

    /// [`MedicalNetwork::submit`] with an explicit mempool lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] / [`NetworkError::Rejected`].
    pub fn submit_lane(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        let site = self.sites.get(site).ok_or(NetworkError::NoSuchSite(site))?;
        self.committee.sign_and_submit(site.key(), payload, gas_limit, lane)
    }

    /// Builds, signs, and submits a transaction from `site`, returning
    /// only its id (legacy surface; prefer [`MedicalNetwork::submit`],
    /// whose [`PendingTx`] pairs with proof-carrying confirmation).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices.
    pub fn submit_as(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
    ) -> Result<Hash256, NetworkError> {
        Ok(self.submit(site, payload, gas_limit)?.tx_id)
    }

    /// Convenience: invoke a standard contract method from `site`,
    /// through the [`MedicalNetwork::submit`] API.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] / [`NetworkError::Rejected`].
    pub fn invoke(
        &mut self,
        site: usize,
        contract: Address,
        selector: &str,
        args: &[Value],
        gas_limit: u64,
    ) -> Result<PendingTx, NetworkError> {
        self.submit(
            site,
            TxPayload::Invoke { contract, input: call_data(selector, args) },
            gas_limit,
        )
    }

    /// Convenience: invoke a standard contract method from `site`,
    /// returning only the transaction id (legacy surface; prefer
    /// [`MedicalNetwork::invoke`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices.
    pub fn invoke_as(
        &mut self,
        site: usize,
        contract: Address,
        selector: &str,
        args: &[Value],
        gas_limit: u64,
    ) -> Result<Hash256, NetworkError> {
        Ok(self.invoke(site, contract, selector, args, gas_limit)?.tx_id)
    }

    /// Commits pending work and returns the proof-carrying receipt of a
    /// submitted transaction, verified against the **independently
    /// read** committed block root before it is handed back.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on stall, missing receipt, proof
    /// failure, or failed execution.
    pub fn confirm(&mut self, pending: &PendingTx) -> Result<TxReceipt, NetworkError> {
        self.committee.confirm(pending)
    }

    /// Runs consensus until `blocks` more blocks commit on all replicas.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] on timeout.
    pub fn advance(&mut self, blocks: u64) -> Result<RunReport, NetworkError> {
        self.committee.advance(blocks)
    }

    /// Receipt lookup (replica 0).
    pub fn receipt(&self, tx_id: &Hash256) -> Option<&Receipt> {
        self.committee.app().receipt(tx_id)
    }

    /// Commits pending transactions and returns the receipt of `tx_id`,
    /// erroring if it failed.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on stall, missing receipt, or failed
    /// execution.
    pub fn commit_and_check(&mut self, tx_id: Hash256) -> Result<Receipt, NetworkError> {
        self.committee.settle(&[tx_id])?;
        self.committee.expect_ok(&[tx_id])?;
        self.receipt(&tx_id).cloned().ok_or(NetworkError::MissingReceipt(tx_id))
    }

    fn deploy_standard_contracts(&mut self) -> Result<(), NetworkError> {
        let mut ids = Vec::new();
        for name in ["data_contract", "analytics_contract", "trial_contract"] {
            let code = native_manifest(name);
            ids.push(self.submit_as(0, TxPayload::Deploy { code, init: Vec::new() }, 100_000)?);
        }
        self.advance(2)?;
        self.committee.expect_ok(&ids)
    }

    fn register_all_datasets(&mut self) -> Result<(), NetworkError> {
        let data_contract = self.contracts.data;
        let mut ids = Vec::new();
        for i in 0..self.sites.len() {
            let artifact = self.sites[i].anchor_artifact();
            let label = artifact.label().to_string();
            let root = artifact.root();
            // On-chain registration in the data contract…
            ids.push(self.invoke_as(
                i,
                data_contract,
                "register",
                &[
                    Value::str(&label),
                    Value::Bytes(root.0.to_vec()),
                    Value::str("medchain-canonical-v1"),
                ],
                50_000,
            )?);
            // …plus the Merkle anchor for record-level integrity.
            ids.push(self.submit_as(i, TxPayload::Anchor { root, label }, 1_000)?);
        }
        self.advance(2 + self.sites.len() as u64 / 32)?;
        self.committee.expect_ok(&ids)
    }

    /// Grants `purpose` access on every site's dataset to `grantee` —
    /// consortium-wide data-sharing agreements.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if any grant transaction fails.
    pub fn grant_all(&mut self, grantee: Address, purpose: Purpose) -> Result<(), NetworkError> {
        let data_contract = self.contracts.data;
        let mut ids = Vec::new();
        for i in 0..self.sites.len() {
            let label = self.sites[i].hosted_label().to_string();
            ids.push(self.invoke_as(
                i,
                data_contract,
                "grant",
                &[
                    Value::str(&label),
                    Value::address(&grantee),
                    Value::Int(purpose.code()),
                    Value::Int(-1),
                ],
                50_000,
            )?);
        }
        self.advance(2)?;
        self.committee.expect_ok(&ids)
    }

    /// One control-plane cycle (Fig. 1): every site's control code
    /// observes new contract events on its own replica and the resulting
    /// intents are submitted back on-chain. Returns the number of
    /// intents processed.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if intent submission fails.
    pub fn control_cycle(&mut self) -> Result<usize, NetworkError> {
        let analytics = self.contracts.analytics;
        let mut actions = Vec::new();
        for i in 0..self.sites.len() {
            // Disjoint-field borrow: replica ledger (read) + site control
            // code (write).
            let intents = self.sites[i].control_mut().step(self.committee.ledger_of(i));
            for intent in intents {
                actions.push((i, intent));
            }
        }
        let count = actions.len();
        for (site, intent) in actions {
            if let ActionIntent::PostResult { task_id, result_hash, .. } = intent {
                let id = self.invoke_as(
                    site,
                    analytics,
                    "post_result",
                    &[Value::Int(task_id), Value::Bytes(result_hash.0.to_vec())],
                    50_000,
                )?;
                self.commit_and_check(id)?;
            }
        }
        Ok(count)
    }
}

impl GatewayBackend for MedicalNetwork {
    fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    fn admit(&mut self, tx: SealedTx, lane: Lane) -> (ShardId, SubmitOutcome) {
        (self.ledger().shard(), self.committee.admit_verified(tx, lane))
    }

    fn find_receipt(&self, tx_id: &Hash256) -> Option<TxReceipt> {
        self.committee.app().tx_receipt(tx_id)
    }

    fn is_pending(&self, tx_id: &Hash256) -> bool {
        self.committee.app().mempool_contains(tx_id)
    }

    fn query_state(&self, key: &LeafKey, shard: Option<ShardId>) -> Option<StateProof> {
        // Single chain: every key lives here (including absence of
        // coordinator-homed keys), but a pin to some *other* shard is
        // unanswerable.
        if shard.is_some_and(|s| s != self.ledger().shard()) {
            return None;
        }
        Some(self.ledger().prove_state(key))
    }

    fn snapshot_manifest(&mut self, shard: ShardId) -> Option<SnapshotManifest> {
        if shard != self.ledger().shard() {
            return None;
        }
        let tip_id = self.ledger().tip().id();
        if let Some((manifest, _)) = &self.stream_cache {
            if manifest.tip_id == tip_id {
                return Some(manifest.clone());
            }
        }
        // Materialize one chunked snapshot at the current tip. The
        // payload is byte-identical to a local `snap-<height>.bin`
        // record, so the receiver adopts it and recovers natively.
        let ledger = self.ledger();
        let tip = ledger.tip().clone();
        let payload = stream::snapshot_payload(&tip, ledger.state(), &ledger.state_tree());
        let manifest = stream::manifest_for(&tip, &payload);
        self.stream_cache = Some((manifest.clone(), payload));
        Some(manifest)
    }

    fn snapshot_chunk(&mut self, shard: ShardId, height: u64, index: u32) -> Option<SnapshotChunk> {
        if shard != self.ledger().shard() {
            return None;
        }
        // Chunks are only served for the manifest currently materialized;
        // a stale height tells the client to re-request the manifest.
        let (manifest, payload) = self.stream_cache.as_ref()?;
        if manifest.height != height {
            return None;
        }
        stream::chunk_at(height, payload, index)
    }

    fn blocks_from(&mut self, shard: ShardId, height: u64) -> Option<(u64, Vec<Block>)> {
        if shard != self.ledger().shard() {
            return None;
        }
        let ledger = self.ledger();
        Some((ledger.height(), ledger.blocks_from(height).to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_contracts::events;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    fn records(i: usize, n: usize) -> Vec<PatientRecord> {
        CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 900 + i as u64).cohort(
            (i * 10_000) as u64,
            n,
            &DiseaseModel::stroke(),
        )
    }

    fn network(sites: usize) -> MedicalNetwork {
        let mut builder = MedicalNetwork::builder();
        for i in 0..sites {
            builder = builder.site(&format!("hospital-{i}"), records(i, 60));
        }
        builder.build().expect("network builds")
    }

    #[test]
    fn build_deploys_contracts_and_registers_datasets() {
        let net = network(3);
        assert_eq!(net.site_count(), 3);
        let contracts = net.contracts();
        assert_ne!(contracts.data, contracts.analytics);
        let state = net.ledger().state();
        assert!(state.code(&contracts.data).is_some());
        assert!(state.code(&contracts.trial).is_some());
        // Every site's dataset anchored.
        assert_eq!(state.anchor_count(), 3);
        assert!(state.anchor("hospital-1/emr").is_some());
    }

    #[test]
    fn replicas_agree_after_setup() {
        let net = network(4);
        let tips: Vec<Hash256> =
            (0..4).map(|i| net.ledger_of(i).tip().id()).collect();
        assert!(tips.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn grant_then_request_is_permitted() {
        let mut net = network(3);
        let researcher = net.site(2).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let data = net.contracts().data;
        let id = net
            .invoke_as(
                2,
                data,
                "request",
                &[
                    Value::str("hospital-0/emr"),
                    Value::Int(Purpose::Research.code()),
                ],
                50_000,
            )
            .unwrap();
        let receipt = net.commit_and_check(id).unwrap();
        assert_eq!(receipt.events[0].topic, events::DATA_REQUESTED);
    }

    #[test]
    fn ungranted_request_is_denied_on_chain() {
        let mut net = network(2);
        let data = net.contracts().data;
        let id = net
            .invoke_as(
                1,
                data,
                "request",
                &[
                    Value::str("hospital-0/emr"),
                    Value::Int(Purpose::Research.code()),
                ],
                50_000,
            )
            .unwrap();
        let receipt = net.commit_and_check(id).unwrap();
        assert_eq!(receipt.events[0].topic, events::DATA_DENIED);
    }

    #[test]
    fn control_cycle_posts_analytics_results() {
        let mut net = network(2);
        // Install a trivial tool at site 0 and register it on-chain.
        let tool = medchain_offchain::Tool::new("count", "v1", |_params| {
            Ok(vec![Value::Int(1)])
        });
        let code_hash = tool.code_hash();
        net.site_mut(0).install_tool(tool);
        let analytics = net.contracts().analytics;
        let id = net
            .invoke_as(
                0,
                analytics,
                "register_tool",
                &[Value::str("count"), Value::Bytes(code_hash.0.to_vec())],
                50_000,
            )
            .unwrap();
        net.commit_and_check(id).unwrap();
        // Request a run against site 0's data.
        let id = net
            .invoke_as(
                1,
                analytics,
                "request_run",
                &[
                    Value::str("count"),
                    Value::str("hospital-0/emr"),
                    Value::Bytes(vec![]),
                ],
                50_000,
            )
            .unwrap();
        net.commit_and_check(id).unwrap();
        // Control cycle: site 0 notices, executes, posts the result.
        let handled = net.control_cycle().unwrap();
        assert!(handled >= 1, "site 0 should have handled the task");
        // Task 0 should now be completed on-chain.
        let id = net
            .invoke_as(1, analytics, "result", &[Value::Int(0)], 50_000)
            .unwrap();
        let receipt = net.commit_and_check(id).unwrap();
        let values = medchain_contracts::decode_args(&receipt.output).unwrap();
        assert_eq!(values[4], Value::Int(1), "task should be marked done");
    }

    #[test]
    fn storage_backed_network_resumes_from_disk() {
        let root = std::env::temp_dir()
            .join(format!("medchain-net-resume-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).unwrap();
        }

        // First life: build, do some work beyond the setup, remember the
        // chain tip.
        let mut net = MedicalNetwork::builder()
            .site("hospital-0", records(0, 40))
            .site("hospital-1", records(1, 40))
            .storage(&root)
            .build()
            .unwrap();
        assert!(!net.resumed());
        let researcher = net.site(1).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let height = net.height();
        let tip = net.ledger().tip().id();
        let contracts = net.contracts();
        drop(net);

        // Second life: same directory, same sites — resume, not re-setup.
        let mut net = MedicalNetwork::builder()
            .site("hospital-0", records(0, 40))
            .site("hospital-1", records(1, 40))
            .storage(&root)
            .build()
            .unwrap();
        assert!(net.resumed());
        assert_eq!(net.height(), height);
        assert_eq!(net.ledger().tip().id(), tip);
        assert_eq!(net.contracts(), contracts);
        // The recovered state still enforces the pre-crash grants, and
        // the chain keeps growing.
        let id = net
            .invoke_as(
                1,
                contracts.data,
                "request",
                &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
                50_000,
            )
            .unwrap();
        let receipt = net.commit_and_check(id).unwrap();
        assert_eq!(receipt.events[0].topic, events::DATA_REQUESTED);
        assert!(net.height() > height);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn nonce_tracking_supports_many_txs_per_block() {
        let mut net = network(2);
        let data = net.contracts().data;
        let mut ids = Vec::new();
        for k in 0..5 {
            ids.push(
                net.invoke_as(
                    0,
                    data,
                    "meta",
                    &[Value::str(&format!("hospital-{}/emr", k % 2))],
                    50_000,
                )
                .unwrap(),
            );
        }
        net.advance(2).unwrap();
        for id in ids {
            assert!(net.receipt(&id).is_some());
        }
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    #[test]
    fn out_of_range_site_errors_cleanly() {
        let records = CohortGenerator::new("x", SiteProfile::default(), 1).cohort(
            0,
            10,
            &DiseaseModel::stroke(),
        );
        let mut net = MedicalNetwork::builder()
            .site("only", records)
            .build()
            .unwrap();
        let result = net.submit_as(
            5,
            TxPayload::Anchor { root: Hash256::ZERO, label: "x".into() },
            100,
        );
        assert_eq!(result, Err(NetworkError::NoSuchSite(5)));
        // Error text is informative.
        assert!(NetworkError::NoSuchSite(5).to_string().contains("5"));
    }

    #[test]
    fn fda_index_is_none_without_fda() {
        let records = CohortGenerator::new("x", SiteProfile::default(), 1).cohort(
            0,
            5,
            &DiseaseModel::stroke(),
        );
        let net = MedicalNetwork::builder().site("h0", records).build().unwrap();
        assert_eq!(net.fda_index(), None);
    }
}
