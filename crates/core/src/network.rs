//! The global medical blockchain network (paper Fig. 2).
//!
//! N hospital sites form a proof-of-authority consortium. Every node
//! runs the identical standard contracts (data / analytics / trial —
//! Fig. 4); each site's off-chain control code makes those identical
//! contracts drive *different* local computation (Fig. 1).
//!
//! There is one network type, [`Network`]: data chains, indexed by
//! shard, plus an optional coordinator chain, each a `Committee` (the
//! consensus cluster with its nonce tracking). A flat consortium
//! ([`NetworkBuilder::build`]) is one data chain and no coordinator; a
//! sharded one ([`NetworkBuilder::build_sharded`], DESIGN.md §9) is `k`
//! data chains plus the coordinator. Submit and route, confirm, advance,
//! fund, the stats, the gateway backend and the serve loop exist once,
//! here; cross-links and two-phase commit live in [`crate::sharded`].

use crate::bootstrap::BootstrapSource;
use crate::client::PendingTx;
use crate::committee::{self, Committee, CommitteeSpec};
use crate::gateway::{GatewayBackend, GatewayConfig, GatewayServer};
use crate::site::Site;
use medchain_chain::ledger::contract_address;
use medchain_chain::node::SubmitOutcome;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::shard::{shard_for_key, shard_for_tx, CrossLink};
use medchain_chain::{
    Address, AuthorityKey, Block, Hash256, KeyRegistry, Lane, LeafKey, Ledger, Receipt,
    SealedTx, ShardId, StateProof, Transaction, TxPayload, XsLock,
};
use medchain_contracts::native::native_manifest;
use medchain_contracts::policy::Purpose;
use medchain_contracts::runtime::call_data;
use medchain_contracts::standard::AnalyticsContract;
use medchain_contracts::value::{decode_args, Value};
use medchain_data::PatientRecord;
use medchain_runtime::metrics::Metrics;
use medchain_runtime::sync::scoped_map;
use medchain_storage::{SnapshotChunk, SnapshotManifest, StorageConfig};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// How far past the coordinator clock a client's two-phase-commit
/// prepare may set its deadline: a leg whose partner never arrives keeps
/// its account locked until then (one day).
const XS_DEADLINE_WINDOW_MS: u64 = 86_400_000;

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
    /// The operation needs a chain this network does not run: a
    /// coordinator (cross-links, two-phase commit) on a flat network,
    /// the flat setup (standard contracts, datasets) on a sharded one,
    /// or a shard out of range.
    Topology(String),
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
    /// A job's requester runs another build of the tool than the one
    /// the analytics contract names, so every site running the named
    /// build would answer something the requester cannot reproduce.
    ToolBuild(String),
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
            NetworkError::Topology(e) => write!(f, "topology: {e}"),
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
            NetworkError::ToolBuild(e) => write!(f, "tool build: {e}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The one builder of a [`Network`], flat ([`NetworkBuilder::build`]) or
/// sharded ([`NetworkBuilder::build_sharded`]).
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
/// use medchain::{GatewayConfig, Network};
/// let net = Network::builder()
///     .site("hospital-0", Vec::new())
///     .site("hospital-1", Vec::new())
///     .shards(2)
///     .gateway(GatewayConfig::default())
///     .build_sharded()
///     .unwrap();
/// ```
#[derive(Default)]
pub struct NetworkBuilder {
    sites: Vec<(String, Vec<PatientRecord>)>,
    pub(crate) block_interval_ms: u64,
    seed: u64,
    with_fda: bool,
    pub(crate) transport: TransportKind,
    metrics: Metrics,
    pub(crate) storage: Option<(PathBuf, StorageConfig)>,
    shards: u16,
    gateway: Option<GatewayConfig>,
    pub(crate) state_cache_pages: Option<usize>,
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
            state_cache_pages: None,
        }
    }

    /// Caps every site's resident state at roughly `pages` 4 KiB page
    /// slots (DESIGN.md §14): cold accounts and authenticated-tree
    /// subtrees spill to a per-site `pages.bin` page file and fault back
    /// in on demand, so total state may exceed RAM. Committed roots are
    /// byte-identical to a fully-resident node. Requires
    /// [`NetworkBuilder::storage`] (the page file lives in the site's
    /// data directory): without it, building returns
    /// [`NetworkError::Storage`].
    #[must_use]
    pub fn state_cache(mut self, pages: usize) -> NetworkBuilder {
        assert!(pages > 0, "a page cache needs at least one page slot");
        self.state_cache_pages = Some(pages);
        self
    }

    /// Starts a client ingress gateway alongside the network
    /// (DESIGN.md §10): a TCP front-end that verifies signed client
    /// transactions the chain does not know yet and admits them into
    /// fee/priority mempool lanes. `cfg.clients` client keys (seeds
    /// `0x1000_0000..`) are enrolled into the consortium registry at
    /// build time so their transactions verify on every replica; fetch
    /// them with `client_keys()` on the built network.
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
    /// hospital dataset at build time. Only [`NetworkBuilder::build`]
    /// honors it.
    #[must_use]
    pub fn with_fda(mut self) -> NetworkBuilder {
        self.with_fda = true;
        self
    }

    /// Builds the flat network — one chain, every site a validator, no
    /// coordinator: starts the consortium, deploys the three standard
    /// contracts, registers and Merkle-anchors every site's dataset.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if consensus or deployment fails.
    ///
    /// # Panics
    ///
    /// Panics if no sites were added.
    pub fn build(mut self) -> Result<Network, NetworkError> {
        assert!(!self.sites.is_empty(), "a network needs at least one site");
        if self.with_fda {
            self.sites.push(("fda".to_string(), Vec::new()));
        }
        let with_fda = self.with_fda;
        let spec = CommitteeSpec {
            chain_id: "medchain".into(),
            shard: ShardId(0),
            shard_count: 1,
            sites: (0..self.sites.len()).collect(),
            dir: self.storage.as_ref().map(|(root, _)| root.clone()),
            seed: self.seed,
            metrics: self.metrics.clone(),
            bind_from_env: true,
        };
        let mut network = self.start(vec![spec], None)?;
        // Site 0 deploys the standard contracts with its first three
        // nonces, so their addresses are known before (and after) the
        // chain holds them.
        let deployer = network.sites[0].address();
        let contracts = ContractAddresses {
            data: contract_address(&deployer, 0),
            analytics: contract_address(&deployer, 1),
            trial: contract_address(&deployer, 2),
        };
        network.contracts = Some(contracts);
        if network.resumed {
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
            if with_fda {
                let fda = network.fda_index().expect("fda site appended above");
                let fda_address = network.site(fda).address();
                network.grant_all(fda_address, Purpose::RegulatoryAudit)?;
            }
        }
        Ok(network)
    }

    /// Builds the sharded network configured with
    /// [`NetworkBuilder::shards`]: one PoA committee and sub-chain per
    /// shard (site *i* serves shard `i % k`) plus the coordinator chain
    /// run by all sites. Unlike [`NetworkBuilder::build`] this performs
    /// no contract deployment or dataset registration — the sub-chains
    /// start empty and the caller routes work with [`Network::submit`].
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
    pub fn build_sharded(self) -> Result<Network, NetworkError> {
        assert!(!self.sites.is_empty(), "a network needs at least one site");
        let (n, k) = (self.sites.len(), self.shards);
        assert!(n >= k as usize, "{n} sites cannot fill {k} shard committees");
        // Each committee keeps its own chain id, `<root>/<shard>/site-<local>`
        // directories, sim seed and metrics scope (`shard-0.*`,
        // `coordinator.*`).
        let spec = |shard: ShardId, sites: Vec<usize>, seed: u64| CommitteeSpec {
            chain_id: format!("medchain/{shard}"),
            shard,
            shard_count: k,
            sites,
            dir: self.storage.as_ref().map(|(root, _)| root.join(shard.to_string())),
            seed,
            metrics: self.metrics.scoped(&shard.to_string()),
            bind_from_env: false,
        };
        let data = (0..k)
            .map(|s| {
                let members = (0..n).filter(|i| i % k as usize == s as usize).collect();
                spec(ShardId(s), members, self.seed.wrapping_add(1 + u64::from(s)))
            })
            .collect();
        let coordinator = spec(ShardId::COORDINATOR, (0..n).collect(), self.seed);
        let network = self.start(data, Some(coordinator))?;
        if network.resumed {
            // Recovery invariant (DESIGN.md §9): every recovered
            // sub-chain agrees with the newest cross-link the recovered
            // coordinator holds.
            for (shard, record) in network.coordinator_ledger().state().cross_links() {
                network.verify_link(&CrossLink { shard, height: record.height, tip: record.tip })?;
            }
        }
        Ok(network)
    }

    /// Enrolls the consortium's identities, starts the committees the
    /// specs describe (data chains in shard order, then the
    /// coordinator) and the gateway, and assembles the network around
    /// them. A page budget without storage is refused: its page file
    /// would have no directory to live in.
    ///
    /// Identities: one validator key per site (seed = site index) and
    /// the gateway's client keys (seeds `0x1000_0000..`, disjoint from
    /// the validators'). Clients enroll before any replica clones the
    /// registry, so their signatures verify on every chain.
    fn start(
        self,
        data: Vec<CommitteeSpec>,
        coordinator: Option<CommitteeSpec>,
    ) -> Result<Network, NetworkError> {
        if self.state_cache_pages.is_some() && self.storage.is_none() {
            return Err(NetworkError::Storage(
                "state_cache(pages) needs storage(..): the page file lives in each site's data \
                 directory"
                    .into(),
            ));
        }
        let seeded = |base: u64, n: usize| -> Vec<AuthorityKey> {
            (0..n as u64).map(|i| AuthorityKey::from_seed(base + i)).collect()
        };
        let keys = seeded(0, self.sites.len());
        let client_keys = seeded(0x1000_0000, self.gateway.map_or(0, |cfg| cfg.clients));
        let mut registry = KeyRegistry::new();
        for key in keys.iter().chain(&client_keys) {
            registry.enroll(key);
        }
        let build = |spec| Committee::build(&self, &keys, &registry, spec);
        let chains = data.into_iter().map(build).collect::<Result<Vec<_>, _>>()?;
        let coordinator = coordinator.map(build).transpose()?;
        let resumed = chains.iter().chain(&coordinator).any(|c| c.ledger().height() > 0);
        // The gateway's handle is unscoped: ingress reports the same
        // `gateway.*` keys whether it fronts a flat chain or a sharded one.
        let gateway = self
            .gateway
            .map(|_| GatewayServer::start(self.metrics.clone()))
            .transpose()
            .map_err(|e| NetworkError::Gateway(e.to_string()))?;
        let sites = self
            .sites
            .into_iter()
            .zip(keys)
            .map(|((name, records), key)| {
                let mut site = Site::new(&name, key, records);
                site.control_mut().executor_mut().set_metrics(self.metrics.clone());
                site
            })
            .collect();
        Ok(Network {
            chains,
            coordinator,
            sites,
            contracts: None,
            registry,
            transport: self.transport,
            metrics: self.metrics,
            resumed,
            gateway,
            client_keys,
            stream_cache: None,
            xs_seq: 0,
        })
    }
}

/// The running consortium: one data chain for a flat network, `k` plus
/// the coordinator chain for a sharded one. Built with
/// [`NetworkBuilder::build`] or [`NetworkBuilder::build_sharded`].
///
/// Chain 0 is the flat chain: [`Network::ledger`] and
/// [`Network::height`] read it on either topology. Operations that need
/// a chain the topology lacks — cross-links and two-phase commit on a
/// flat network, the standard contracts on a sharded one — return
/// [`NetworkError::Topology`]; accessors that hand out a reference panic
/// instead, as documented on each.
pub struct Network {
    /// Data chains, indexed by shard.
    pub(crate) chains: Vec<Committee>,
    /// Every site's coordinator chain (cross-links, 2PC decisions);
    /// `None` on a flat network.
    pub(crate) coordinator: Option<Committee>,
    pub(crate) sites: Vec<Site>,
    /// The standard contracts — `None` on a sharded network, which runs
    /// no flat setup.
    contracts: Option<ContractAddresses>,
    registry: KeyRegistry,
    transport: TransportKind,
    metrics: Metrics,
    resumed: bool,
    gateway: Option<GatewayServer>,
    client_keys: Vec<AuthorityKey>,
    // One snapshot captured per (chain, tip) for the streaming
    // protocol; recaptured when a manifest is requested for another
    // chain or a newer tip.
    stream_cache: Option<BootstrapSource>,
    /// Uniquifies locally-minted cross-shard transaction ids (two-phase
    /// commit, DESIGN.md §12).
    pub(crate) xs_seq: u64,
}

/// The flat network's historical name: a [`Network`] built with
/// [`NetworkBuilder::build`].
pub type MedicalNetwork = Network;

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("sites", &self.sites.len())
            .field("shards", &self.shard_count())
            .field("coordinator", &self.coordinator.is_some())
            .field("height", &self.height())
            .finish()
    }
}

impl Network {
    /// Starts building a network.
    pub fn builder() -> NetworkBuilder {
        NetworkBuilder::new()
    }

    /// Number of sites (= consortium validators; on a sharded network
    /// every site validates exactly one data chain and the coordinator).
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

    /// Standard contract addresses.
    ///
    /// # Panics
    ///
    /// Panics on a sharded network, which deploys no standard contracts.
    pub fn contracts(&self) -> ContractAddresses {
        self.contracts.expect("a sharded network deploys no standard contracts")
    }

    /// Index of the regulator's special node, when the network was built
    /// with [`NetworkBuilder::with_fda`].
    pub fn fda_index(&self) -> Option<usize> {
        self.sites.iter().position(|s| s.name() == "fda")
    }

    /// Number of data chains: 1 on a flat network.
    pub fn shard_count(&self) -> u16 {
        self.chains.len() as u16
    }

    /// Current committed height of chain 0 (replica 0's view).
    pub fn height(&self) -> u64 {
        self.ledger().height()
    }

    /// Chain 0's ledger, replica 0 (all replicas agree under PoA).
    pub fn ledger(&self) -> &Ledger {
        self.chains[0].ledger()
    }

    /// Site `site`'s replica of its data chain (for control-plane
    /// polling): chain `site % k`, member `site / k`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn ledger_of(&self, site: usize) -> &Ledger {
        let k = self.chains.len();
        self.chains[site % k].ledger_of(site / k)
    }

    /// The sub-chain ledger of `shard` (committee replica 0's view).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a data chain.
    pub fn ledger_of_shard(&self, shard: ShardId) -> &Ledger {
        self.chains[shard.0 as usize].ledger()
    }

    /// Global site indices serving `shard`'s committee.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not a data chain.
    pub fn committee_sites(&self, shard: ShardId) -> &[usize] {
        self.chains[shard.0 as usize].sites()
    }

    /// Committed height of every data chain, indexed by shard.
    pub fn shard_heights(&self) -> Vec<u64> {
        self.chains.iter().map(|c| c.ledger().height()).collect()
    }

    /// Gas executed on one replica of each data chain — the
    /// per-committee slice of the workload (index = shard).
    pub fn shard_gas(&self) -> Vec<u64> {
        self.chains.iter().map(|c| c.ledger().stats().gas_used).collect()
    }

    /// The data chain `addr` lives on: chain 0 on a flat network, its
    /// [`shard_for_key`] shard otherwise.
    fn home(&self, addr: &Address) -> usize {
        match self.coordinator {
            None => 0,
            Some(_) => shard_for_key(&addr.0, self.shard_count()).0 as usize,
        }
    }

    /// The chain `tx` goes to — the rule every honest node applies
    /// ([`shard_for_tx`]); chain 0, without hashing, on a flat network.
    fn route_tx(&self, tx: &Transaction) -> ShardId {
        match self.coordinator {
            None => ShardId(0),
            Some(_) => shard_for_tx(tx, self.shard_count()),
        }
    }

    /// Deterministic routing of a payload submitted by `site`.
    pub fn route(&self, site: usize, payload: &TxPayload) -> ShardId {
        if self.coordinator.is_none() {
            return ShardId(0);
        }
        self.route_tx(&Transaction::new(self.sites[site].address(), 0, payload.clone(), 0))
    }

    /// The committee driving `shard`'s chain, data or coordinator.
    fn committee(&self, shard: ShardId) -> Option<&Committee> {
        if shard.is_coordinator() { self.coordinator.as_ref() } else { self.chains.get(shard.0 as usize) }
    }

    /// [`Network::committee`], mutable, or [`NetworkError::Topology`].
    pub(crate) fn committee_mut(&mut self, shard: ShardId) -> Result<&mut Committee, NetworkError> {
        let chain = if shard.is_coordinator() {
            self.coordinator.as_mut()
        } else {
            self.chains.get_mut(shard.0 as usize)
        };
        chain.ok_or_else(|| NetworkError::Topology(format!("this network runs no {shard} chain")))
    }

    /// Every committee: data chains in shard order, then the coordinator.
    fn committees(&self) -> impl Iterator<Item = &Committee> {
        self.chains.iter().chain(&self.coordinator)
    }

    /// Out-of-band funding for tests and experiments: credits `addr` on
    /// every replica of its home data chain. Bypasses the block
    /// pipeline, so state proofs only cover it after the next committed
    /// block re-roots the headers, and with storage configured it only
    /// survives restart through a snapshot taken *after* it (commit a
    /// block with `snapshot_every: 1`, or fund again on resume).
    pub fn fund(&mut self, addr: Address, amount: u64) {
        let home = self.home(&addr);
        self.chains[home].fund(addr, amount);
    }

    /// Spendable balance of `addr` on its home data chain.
    pub fn balance_of(&self, addr: &Address) -> u64 {
        self.chains[self.home(addr)].ledger().state().account(addr).balance
    }

    /// The 2PC lock held on `addr`'s home data chain, if any.
    pub fn lock_of(&self, addr: &Address) -> Option<XsLock> {
        self.chains[self.home(addr)].ledger().state().lock(addr)
    }

    /// The consortium membership registry.
    pub fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    /// Consensus transport statistics summed over every committee.
    pub fn net_stats(&self) -> medchain_transport::NetStats {
        committee::total_net_stats(self.committees())
    }

    /// Aggregate ledger statistics across every replica of every
    /// committee — the total duplicated execution cost.
    pub fn total_ledger_stats(&self) -> medchain_chain::ledger::LedgerStats {
        committee::total_ledger_stats(self.committees())
    }

    /// Which transport carries this network's consensus traffic.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport
    }

    /// The metrics handle installed at build time (noop by default) —
    /// higher layers (query pipeline, experiments) emit through it. On a
    /// sharded network per-committee subsystems report under scoped
    /// keys: `shard-0.consensus.rounds`, `coordinator.transport.bytes`, …
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Whether this network resumed a persisted chain from disk instead
    /// of starting from genesis.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Gracefully releases the gateway and every committee's transport
    /// (socket transports join their threads; the simulator is a no-op).
    pub fn shutdown(&mut self) {
        if let Some(gateway) = self.gateway.as_mut() {
            gateway.shutdown();
        }
        self.chains.iter_mut().chain(&mut self.coordinator).for_each(Committee::shutdown);
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

    /// Drains buffered gateway requests through admission — each
    /// transaction routed to its chain — and answers status queries;
    /// the `gateway.*` counters report what happened. No-op without a
    /// gateway.
    pub fn pump_gateway(&mut self) {
        if let Some(mut gateway) = self.gateway.take() {
            gateway.pump(self);
            self.gateway = Some(gateway);
        }
    }

    /// Serves gateway traffic until `stop` is raised: pump admissions,
    /// commit one block on every chain with pending work (data chains,
    /// then the coordinator), drive in-flight 2PC transfers when there
    /// is a coordinator (commit fully-locked ones, timeout-abort
    /// stragglers; cheap when no locks are held), and sleep only when
    /// nothing advanced. Then drain the tail — requests buffered before
    /// the stop and anything admitted but not yet committed — and
    /// resolve once more, so every accepted transaction commits.
    ///
    /// The drain is bounded: a transaction admitted above its sender's
    /// next nonce stays pooled (blocks take gap-free runs only) while
    /// PoA keeps committing empty blocks. Three consecutive rounds that
    /// commit without taking anything out of the pools end it; one or
    /// two can be a block proposed before the transaction arrived.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] if a commit round
    /// times out, and [`NetworkError::DrainStalled`] if the tail cannot
    /// drain because a pooled transaction sits above a nonce gap.
    pub fn serve_until(&mut self, stop: &AtomicBool) -> Result<(), NetworkError> {
        while !stop.load(Ordering::Relaxed) {
            self.pump_gateway();
            let advanced = self.advance_pending()?;
            self.resolve_if_coordinated()?;
            if !advanced {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        self.pump_gateway();
        let pooled = |net: &Network| -> usize { net.committees().map(|c| c.app().mempool_len()).sum() };
        let mut fruitless = 0;
        loop {
            let before = pooled(self);
            if !self.advance_pending()? {
                break;
            }
            fruitless = if pooled(self) == before { fruitless + 1 } else { 0 };
            if fruitless == 3 {
                return Err(NetworkError::DrainStalled { pending: before });
            }
            self.pump_gateway();
        }
        self.resolve_if_coordinated()
    }

    /// Commits one block on every chain holding uncommitted
    /// transactions; reports whether any did.
    fn advance_pending(&mut self) -> Result<bool, NetworkError> {
        let mut advanced = false;
        for chain in self.chains.iter_mut().chain(&mut self.coordinator) {
            if chain.has_pending() {
                chain.advance(1)?;
                advanced = true;
            }
        }
        Ok(advanced)
    }

    fn resolve_if_coordinated(&mut self) -> Result<(), NetworkError> {
        if self.coordinator.is_some() {
            self.resolve_cross_shard()?;
        }
        Ok(())
    }

    /// Submits a transaction from `site` on the normal lane — the
    /// `submit → PendingTx → confirm → TxReceipt` client API.
    ///
    /// # Errors
    ///
    /// See [`Network::submit_lane`].
    pub fn submit(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
    ) -> Result<PendingTx, NetworkError> {
        self.submit_lane(site, payload, gas_limit, Lane::Normal)
    }

    /// Builds, signs, routes, and submits a transaction from `site` on
    /// the requested mempool lane, returning a [`PendingTx`] (which
    /// names the chain it went to) to confirm later.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] for bad indices,
    /// [`NetworkError::CrossLink`] for cross-link payloads (those go
    /// through [`Network::submit_cross_link`], which verifies the
    /// claimed tip first), and [`NetworkError::Rejected`] when the
    /// target committee's admission refuses the transaction (the
    /// reserved nonce is rolled back).
    pub fn submit_lane(
        &mut self,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        if site >= self.sites.len() {
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

    /// Signs `payload` with `site`'s key at its next nonce on `shard`'s
    /// chain and submits it there.
    pub(crate) fn submit_on(
        &mut self,
        shard: ShardId,
        site: usize,
        payload: TxPayload,
        gas_limit: u64,
        lane: Lane,
    ) -> Result<PendingTx, NetworkError> {
        let key = self.sites.get(site).ok_or(NetworkError::NoSuchSite(site))?.key().clone();
        self.committee_mut(shard)?.sign_and_submit(&key, payload, gas_limit, lane)
    }

    /// Convenience: invoke a standard contract method from `site`,
    /// through the [`Network::submit`] API.
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

    /// Operator-directed contract placement: submits a deploy from
    /// `site` straight to `shard`'s data chain instead of routing by the
    /// site key. On a sharded network the derived address is ground to
    /// `shard` ([`medchain_chain::sharded_contract_address`]), so
    /// invokes still route to the chain that holds the code — placement
    /// is free, routing stays canonical.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NoSuchSite`] on a bad site and
    /// [`NetworkError::Topology`] when `shard` is not a data chain.
    pub fn deploy_to(
        &mut self,
        shard: ShardId,
        site: usize,
        code: Vec<u8>,
        init: Vec<u8>,
        gas_limit: u64,
    ) -> Result<Hash256, NetworkError> {
        if shard.0 >= self.shard_count() {
            return Err(NetworkError::Topology(format!("cannot deploy to {shard}: not a data chain")));
        }
        let deploy = TxPayload::Deploy { code, init };
        Ok(self.submit_on(shard, site, deploy, gas_limit, Lane::Normal)?.tx_id)
    }

    /// Commits pending work on the transaction's chain and returns its
    /// proof-carrying receipt, verified against the tx root of the
    /// committed block read **independently** from the ledger before it
    /// is handed back.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::MissingReceipt`] if the transaction still
    /// has not committed after two rounds,
    /// [`NetworkError::ReceiptProof`] if the inclusion proof does not
    /// check out, and [`NetworkError::TxFailed`] if execution failed.
    pub fn confirm(&mut self, pending: &PendingTx) -> Result<TxReceipt, NetworkError> {
        self.committee_mut(pending.shard)?.confirm(pending)
    }

    /// Runs every data chain's committee until `blocks` more blocks
    /// commit on its chain. On a sharded network the committees run
    /// independently — the (N/k)-duplication regime the mode harness
    /// measures — and the coordinator advances with
    /// [`Network::advance_coordinator`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::ConsensusStalled`] if any committee times
    /// out.
    pub fn advance(&mut self, blocks: u64) -> Result<(), NetworkError> {
        for chain in &mut self.chains {
            chain.advance(blocks)?;
        }
        Ok(())
    }

    /// Receipt lookup on replica 0 of every chain in turn (data chains,
    /// then the coordinator); the first that holds `tx_id` answers.
    /// Account nonces are per chain, so one signed transaction can
    /// commit on two chains — read a specific chain's receipt through
    /// [`Network::ledger_of_shard`].
    pub fn receipt(&self, tx_id: &Hash256) -> Option<&Receipt> {
        self.committees().find_map(|c| c.app().receipt(tx_id))
    }

    /// Commits pending transactions on chain 0 — the flat chain — and
    /// returns the receipt of `tx_id`, erroring if it failed. A routed
    /// transaction on a sharded network is confirmed with
    /// [`Network::confirm`].
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] on stall, missing receipt, or failed
    /// execution.
    pub fn commit_and_check(&mut self, tx_id: Hash256) -> Result<Receipt, NetworkError> {
        let chain = &mut self.chains[0];
        chain.settle(&[tx_id])?;
        chain.expect_ok(&[tx_id])?;
        chain.app().receipt(&tx_id).cloned().ok_or(NetworkError::MissingReceipt(tx_id))
    }

    /// The standard contracts, or [`NetworkError::Topology`] on a
    /// sharded network.
    fn flat_setup(&self) -> Result<ContractAddresses, NetworkError> {
        self.contracts.ok_or_else(|| {
            NetworkError::Topology("a sharded network runs no standard contracts".into())
        })
    }

    fn deploy_standard_contracts(&mut self) -> Result<(), NetworkError> {
        let mut ids = Vec::new();
        for name in ["data_contract", "analytics_contract", "trial_contract"] {
            let code = native_manifest(name);
            ids.push(self.submit(0, TxPayload::Deploy { code, init: Vec::new() }, 100_000)?.tx_id);
        }
        self.advance(2)?;
        self.chains[0].expect_ok(&ids)
    }

    fn register_all_datasets(&mut self) -> Result<(), NetworkError> {
        let data_contract = self.flat_setup()?.data;
        let mut ids = Vec::new();
        for i in 0..self.sites.len() {
            let artifact = self.sites[i].anchor_artifact();
            let label = artifact.label().to_string();
            let root = artifact.root();
            // On-chain registration in the data contract…
            let args = [
                Value::str(&label),
                Value::Bytes(root.0.to_vec()),
                Value::str("medchain-canonical-v1"),
            ];
            ids.push(self.invoke(i, data_contract, "register", &args, 50_000)?.tx_id);
            // …plus the Merkle anchor for record-level integrity.
            ids.push(self.submit(i, TxPayload::Anchor { root, label }, 1_000)?.tx_id);
        }
        self.advance(2 + self.sites.len() as u64 / 32)?;
        self.chains[0].expect_ok(&ids)
    }

    /// Grants `purpose` access on every site's dataset to `grantee` —
    /// consortium-wide data-sharing agreements.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Topology`] on a sharded network, and
    /// [`NetworkError`] if any grant transaction fails.
    pub fn grant_all(&mut self, grantee: Address, purpose: Purpose) -> Result<(), NetworkError> {
        let data_contract = self.flat_setup()?.data;
        let mut ids = Vec::new();
        for i in 0..self.sites.len() {
            let label = self.sites[i].hosted_label().to_string();
            let args = [
                Value::str(&label),
                Value::address(&grantee),
                Value::Int(purpose.code()),
                Value::Int(-1),
            ];
            ids.push(self.invoke(i, data_contract, "grant", &args, 50_000)?.tx_id);
        }
        self.advance(2)?;
        self.chains[0].expect_ok(&ids)
    }

    /// One control-plane cycle (Fig. 1), the one way an off-chain job
    /// runs: every site polls its own replica for analytics requests that
    /// name it, the sites then run their picked-up shards concurrently on
    /// their own executors, and each posts `post_result(task, outcome)`
    /// under its own key. All posts settle in one round. Returns the
    /// number of outcomes posted.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Topology`] on a sharded network, and
    /// [`NetworkError`] if a post fails to commit.
    pub fn control_cycle(&mut self) -> Result<usize, NetworkError> {
        let analytics = self.flat_setup()?.analytics;
        // A `Ledger` is not `Sync`, so the sites poll one after another.
        let mut picked = Vec::new();
        for (i, site) in self.sites.iter_mut().enumerate() {
            let control = site.control_mut();
            let jobs = control.pick_up(self.chains[0].ledger_of(i), &analytics);
            if !jobs.is_empty() {
                picked.push((i, control, jobs));
            }
        }
        let ran = scoped_map(picked, |(i, control, jobs)| {
            let outcomes = jobs.iter().filter_map(|job| Some((job.task_id, control.run(job)?)));
            (i, outcomes.collect::<Vec<_>>())
        });
        let mut ids = Vec::new();
        for (site, outcomes) in ran {
            for (task_id, outcome) in outcomes {
                let args = [Value::Int(task_id), Value::Bytes(outcome)];
                ids.push(self.invoke(site, analytics, "post_result", &args, 50_000)?.tx_id);
            }
        }
        if !ids.is_empty() {
            self.chains[0].settle(&ids)?;
            self.chains[0].expect_ok(&ids)?;
        }
        Ok(ids.len())
    }

    /// Runs one off-chain job on the Fig. 1 path and returns each named
    /// site's outcome in shard order: `requester` invokes
    /// `request_run(tool, dataset, site₁, params₁, …)` naming `shards`,
    /// [`Network::control_cycle`] runs and posts every shard, and the
    /// outcomes are read back from the committed task record. The tool
    /// must be known to the analytics contract: the sites' query tool
    /// always is, and any other is registered beforehand with
    /// `register_tool`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Topology`] on a sharded network,
    /// [`NetworkError::NoSuchSite`] for a bad site index,
    /// [`NetworkError::ToolBuild`] when the contract names another build
    /// of `tool` than the requester installed, and
    /// [`NetworkError::TxFailed`] when the request fails (an unknown
    /// tool) or the task is not done after the cycle (a named site posted
    /// nothing).
    pub fn run_job(
        &mut self,
        requester: usize,
        tool: &str,
        dataset: &str,
        shards: &[(usize, Vec<u8>)],
    ) -> Result<Vec<Vec<u8>>, NetworkError> {
        let analytics = self.flat_setup()?.analytics;
        let site = self.sites.get_mut(requester).ok_or(NetworkError::NoSuchSite(requester))?;
        let installed = site.control_mut().executor_mut().tool(tool).map(|t| t.code_hash());
        let known = AnalyticsContract::tool_hash(self.ledger().state(), &analytics, tool);
        if let Some((registered, installed)) = known.zip(installed).filter(|(r, i)| r != i) {
            let why = format!("the chain names {registered:?} for {tool:?}, the requester runs");
            return Err(NetworkError::ToolBuild(format!("{why} {installed:?}")));
        }
        let mut args = vec![Value::str(tool), Value::str(dataset)];
        for (site, params) in shards {
            let address = self.sites.get(*site).ok_or(NetworkError::NoSuchSite(*site))?.address();
            args.extend([Value::address(&address), Value::Bytes(params.clone())]);
        }
        let request = self.invoke(requester, analytics, "request_run", &args, 50_000)?;
        let receipt = self.confirm(&request)?;
        self.control_cycle()?;
        // A request whose output names no task fails here too.
        let task = decode_args(&receipt.output).ok().and_then(|v| v.first()?.as_int().ok());
        let state = self.ledger().state();
        let record = task.and_then(|t| AnalyticsContract::task(state, &analytics, t));
        match record {
            // Status 1: every named site posted. The (site, outcome)
            // pairs start at index 5, so the outcomes sit at 6, 8, ….
            Some(record) if record.get(3) == Some(&Value::Int(1)) => {
                let slots = record.get(6..).unwrap_or_default().iter().step_by(2);
                Ok(slots.filter_map(|slot| Some(slot.as_bytes().ok()?.to_vec())).collect())
            }
            _ => Err(NetworkError::TxFailed {
                tx_id: request.tx_id,
                error: format!("task {task:?} not done after the control cycle"),
            }),
        }
    }
}

impl GatewayBackend for Network {
    fn registry(&self) -> &KeyRegistry {
        &self.registry
    }

    fn admit(&mut self, tx: SealedTx, lane: Lane) -> (ShardId, SubmitOutcome) {
        // External clients may not mint control-plane records: cross-links
        // carry consortium attestations (enter via `submit_cross_link`'s
        // verification path), and 2PC decisions/finalizes are the
        // resolver's alone — a client forging a finalize could release
        // locks it never held, or pay out its own credit prepare. Prepares
        // are fine where a coordinator resolves them; on a flat network
        // nothing ever would, so a prepare could only freeze an account.
        // Where one does, a lone leg holds its lock until its deadline,
        // so the deadline may lie at most a fixed window ahead.
        let refused = match tx.payload {
            TxPayload::CrossLink { .. } | TxPayload::XsDecide { .. } | TxPayload::XsFinalize { .. } => {
                true
            }
            TxPayload::XsPrepare { deadline_ms, .. } => {
                self.coordinator.is_none()
                    || deadline_ms > self.now_ms().saturating_add(XS_DEADLINE_WINDOW_MS)
            }
            _ => false,
        };
        if refused {
            return (ShardId::COORDINATOR, SubmitOutcome::Inadmissible);
        }
        let shard = self.route_tx(&tx);
        match self.committee_mut(shard) {
            Ok(chain) => (shard, chain.admit_verified(tx, lane)),
            // A prepare naming a shard this network does not run.
            Err(_) => (shard, SubmitOutcome::Inadmissible),
        }
    }

    fn find_receipt(&self, tx_id: &Hash256) -> Option<TxReceipt> {
        self.committees().find_map(|c| c.app().tx_receipt(tx_id))
    }

    fn is_pending(&self, tx_id: &Hash256) -> bool {
        self.committees().any(|c| c.app().mempool_contains(tx_id))
    }

    fn xs_status(&self, xid: &Hash256) -> Option<(bool, Option<TxReceipt>)> {
        let coordinator = self.coordinator.as_ref()?;
        let decision = coordinator.ledger().state().xs_decision(xid)?;
        let receipt = coordinator.app().tx_receipt(&decision.tx_id);
        Some((decision.commit, receipt))
    }

    fn query_state(&self, key: &LeafKey, shard: Option<ShardId>) -> Option<StateProof> {
        // Route like transactions: the key's home shard unless the client
        // pins one (e.g. for a cross-shard absence proof). A flat chain
        // answers every unpinned key, coordinator-homed ones included.
        let target = match (shard, &self.coordinator) {
            (Some(shard), _) => shard,
            (None, None) => ShardId(0),
            (None, Some(_)) => key.home_shard(self.shard_count()),
        };
        Some(self.committee(target)?.ledger().prove_state(key))
    }

    fn snapshot_manifest(&mut self, shard: ShardId) -> Option<SnapshotManifest> {
        let ledger = self.committee(shard)?.ledger();
        if !self.stream_cache.as_ref().is_some_and(|source| source.is_tip_of(ledger)) {
            // The payload is byte-identical to a local `snap-<height>.bin`
            // record, so the receiver adopts it and recovers natively.
            self.stream_cache = BootstrapSource::capture(ledger, None);
        }
        self.stream_cache.as_ref().map(|source| source.manifest().clone())
    }

    fn snapshot_chunk(&mut self, shard: ShardId, height: u64, index: u32) -> Option<SnapshotChunk> {
        // Another chain or a stale height tells the client to re-request
        // the manifest.
        self.stream_cache.as_ref()?.chunk(shard, height, index)
    }

    fn blocks_from(&mut self, shard: ShardId, height: u64) -> Option<(u64, &[Block])> {
        let ledger = self.committee(shard)?.ledger();
        Some((ledger.height(), ledger.blocks_from(height)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_contracts::events;
    use medchain_contracts::standard::QUERY_TOOL;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile};

    fn records(i: usize, n: usize) -> Vec<PatientRecord> {
        CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 900 + i as u64).cohort(
            (i * 10_000) as u64,
            n,
            &DiseaseModel::stroke(),
        )
    }

    fn network(sites: usize) -> Network {
        let mut builder = Network::builder();
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
            .invoke(
                2,
                data,
                "request",
                &[
                    Value::str("hospital-0/emr"),
                    Value::Int(Purpose::Research.code()),
                ],
                50_000,
            )
            .unwrap().tx_id;
        let receipt = net.commit_and_check(id).unwrap();
        assert_eq!(receipt.events[0].topic, events::DATA_REQUESTED);
    }

    #[test]
    fn ungranted_request_is_denied_on_chain() {
        let mut net = network(2);
        let data = net.contracts().data;
        let id = net
            .invoke(
                1,
                data,
                "request",
                &[
                    Value::str("hospital-0/emr"),
                    Value::Int(Purpose::Research.code()),
                ],
                50_000,
            )
            .unwrap().tx_id;
        let receipt = net.commit_and_check(id).unwrap();
        assert_eq!(receipt.events[0].topic, events::DATA_DENIED);
    }

    /// A tool echoing its shard params, as built at `version`.
    fn echo(version: &str) -> medchain_offchain::Tool {
        medchain_offchain::Tool::new("echo", version, |params| Ok(vec![params[1].clone()]))
    }

    /// Site 0 registers `echo` v1; each site installs the build `builds`
    /// gives it; the last site requests a run naming `named` in that
    /// shard order, site `i`'s params being `[i]`.
    fn request_echo(net: &mut Network, builds: &[&str], named: &[usize]) {
        for (i, version) in builds.iter().enumerate() {
            net.site_mut(i).install_tool(echo(version));
        }
        let analytics = net.contracts().analytics;
        let hash = Value::Bytes(echo("v1").code_hash().0.to_vec());
        let id = net.invoke(0, analytics, "register_tool", &[Value::str("echo"), hash], 50_000);
        net.commit_and_check(id.unwrap().tx_id).unwrap();
        let mut args = vec![Value::str("echo"), Value::str("hospital-0/emr")];
        for &i in named {
            args.extend([Value::address(&net.site(i).address()), Value::Bytes(vec![i as u8])]);
        }
        let requester = net.site_count() - 1;
        let id = net.invoke(requester, analytics, "request_run", &args, 50_000).unwrap().tx_id;
        net.commit_and_check(id).unwrap();
    }

    fn task_record(net: &Network, id: i64) -> Vec<Value> {
        let analytics = net.contracts().analytics;
        AnalyticsContract::task(net.ledger().state(), &analytics, id).expect("task recorded")
    }

    /// Site `i`'s result hash for its `[i]` shard params.
    fn echo_hash(i: u8) -> Hash256 {
        Hash256::digest(&medchain_contracts::encode_args(&[Value::Bytes(vec![i])]))
    }

    #[test]
    fn control_cycle_completes_a_task_once_every_named_site_posts() {
        let mut net = network(3);
        request_echo(&mut net, &["v1", "v1", "v1"], &[1, 0]);
        // Sites 1 and 0 run their shards and post; site 2 is not named.
        assert_eq!(net.control_cycle().unwrap(), 2);
        assert_eq!(net.site(2).control().stats().tasks_skipped, 1);
        let record = task_record(&net, 0);
        assert_eq!(record[3], Value::Int(1), "task should be marked done");
        let mut material = echo_hash(1).0.to_vec();
        material.extend_from_slice(&echo_hash(0).0);
        assert_eq!(record[4], Value::Bytes(Hash256::digest(&material).0.to_vec()));
        // Nothing is picked up twice.
        assert_eq!(net.control_cycle().unwrap(), 0);
    }

    #[test]
    fn a_site_running_another_build_of_the_tool_posts_nothing() {
        let mut net = network(2);
        request_echo(&mut net, &["v1", "v2"], &[0, 1]);
        assert_eq!(net.control_cycle().unwrap(), 1);
        assert_eq!(net.site(1).control().stats().failures, 1);
        let record = task_record(&net, 0);
        assert_eq!(record[3], Value::Int(0), "site 1 never posted");
        assert_eq!(record[8], Value::Bytes(Vec::new()));
    }

    #[test]
    fn control_cycle_runs_the_picked_up_shards_concurrently() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        const SITES: usize = 4;
        let mut net = network(SITES);
        request_echo(&mut net, &["v1"; SITES], &[0, 1, 2, 3]);
        // Each site's build of `echo` v1 waits until every site's shard
        // has started; run one after another, the first would wait alone.
        let arrived = Arc::new(AtomicUsize::new(0));
        for i in 0..SITES {
            let arrived = Arc::clone(&arrived);
            net.site_mut(i).install_tool(medchain_offchain::Tool::new("echo", "v1", move |params| {
                arrived.fetch_add(1, Ordering::SeqCst);
                let start = Instant::now();
                while arrived.load(Ordering::SeqCst) < SITES {
                    if start.elapsed() > Duration::from_secs(5) {
                        return Err(medchain_offchain::ToolError::new("ran alone"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(vec![params[1].clone()])
            }));
        }
        assert_eq!(net.control_cycle().unwrap(), SITES, "every shard ran side by side");
        assert_eq!(task_record(&net, 0)[3], Value::Int(1));
    }

    /// A two-site network persisted under `root`; building it again
    /// with the same `root` resumes it.
    fn persisted(root: &std::path::Path, config: StorageConfig) -> Network {
        Network::builder()
            .site("hospital-0", records(0, 40))
            .site("hospital-1", records(1, 40))
            .storage_with(root, config)
            .build()
            .unwrap()
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("medchain-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn control_cycle_runs_on_a_network_resumed_from_a_snapshot() {
        let root = fresh_dir("cycle-snapshot");
        let config = StorageConfig { snapshot_every: 2, ..StorageConfig::default() };
        let mut net = persisted(&root, config);
        let researcher = net.site(1).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        net.advance(6).unwrap();
        drop(net);

        // The resumed ledger keeps no block below its snapshot.
        let mut net = persisted(&root, config);
        assert!(net.resumed());
        assert!(net.ledger().base_height() > 0, "no snapshot to resume from");
        assert_eq!(net.control_cycle().unwrap(), 0);
        // A restarted site still answers a query.
        let count = medchain_query::QueryVector::fetch_all().with_computation(
            medchain_query::Computation::Aggregates(vec![medchain_learning::Aggregate::Count]),
        );
        let (answer, report) = crate::pipeline::run_query(&mut net, 1, &count).unwrap();
        assert_eq!(report.permitted, 2);
        assert_eq!(answer.to_string(), "aggregates [80.000000]");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_resumed_site_does_not_post_a_shard_twice() {
        let root = fresh_dir("cycle-replay");
        let mut net = persisted(&root, StorageConfig::default());
        request_echo(&mut net, &["v1", "v1"], &[0, 1]);
        assert_eq!(net.control_cycle().unwrap(), 2);
        drop(net);

        // The request and both posts lie above the (genesis) base, so the
        // resumed sites replay them; the task record says they posted.
        let mut net = persisted(&root, StorageConfig::default());
        assert!(net.resumed());
        for i in 0..2 {
            net.site_mut(i).install_tool(echo("v1"));
        }
        assert_eq!(net.control_cycle().unwrap(), 0);
        assert_eq!(task_record(&net, 0)[3], Value::Int(1));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The known gap of a resume (DESIGN.md §4): a request committed at
    /// or below the snapshot a site resumes from lies in no block the
    /// site still holds, so a shard it had not answered is never picked
    /// up, and with no deadline the task stays pending.
    #[test]
    fn a_request_below_the_resumed_base_stays_pending() {
        let root = fresh_dir("cycle-below-base");
        let config = StorageConfig { snapshot_every: 2, ..StorageConfig::default() };
        let mut net = persisted(&root, config);
        request_echo(&mut net, &["v1", "v1"], &[0, 1]);
        let requested_at = net.height();
        net.advance(6).unwrap();
        drop(net);

        let mut net = persisted(&root, config);
        assert!(net.ledger().base_height() >= requested_at, "the request is above the snapshot");
        for i in 0..2 {
            net.site_mut(i).install_tool(echo("v1"));
        }
        assert_eq!(net.control_cycle().unwrap(), 0);
        let record = task_record(&net, 0);
        assert_eq!(record[3], Value::Int(0));
        assert_eq!([&record[6], &record[8]], [&Value::Bytes(vec![]); 2], "nobody posted");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Another key registering the query tool's name first cannot block
    /// the pipelines: the contract refuses the name, and a requester
    /// running another build of a registered tool is told so before
    /// anything is submitted.
    #[test]
    fn the_query_tool_name_cannot_be_squatted() {
        let mut net = network(2);
        let analytics = net.contracts().analytics;
        let bogus = Value::Bytes(Hash256::digest(b"bogus").0.to_vec());
        let squat = [Value::str(QUERY_TOOL), bogus];
        let id = net.invoke(1, analytics, "register_tool", &squat, 50_000).unwrap();
        let refused = net.confirm(&id).unwrap_err();
        assert!(refused.to_string().contains("tool name reserved"), "{refused}");
        let count = medchain_query::QueryVector::fetch_all().with_computation(
            medchain_query::Computation::Aggregates(vec![medchain_learning::Aggregate::Count]),
        );
        let researcher = net.site(0).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let (answer, _) = crate::pipeline::run_query(&mut net, 0, &count).unwrap();
        assert_eq!(answer.to_string(), "aggregates [120.000000]");

        // `echo` v1 is registered; a requester running v2 is refused.
        request_echo(&mut net, &["v1", "v2"], &[0]);
        let height = net.height();
        let run = net.run_job(1, "echo", "hospital-0/emr", &[(0, vec![0])]);
        let why = format!(
            "the chain names {:?} for \"echo\", the requester runs {:?}",
            echo("v1").code_hash(),
            echo("v2").code_hash()
        );
        assert_eq!(run, Err(NetworkError::ToolBuild(why)));
        assert_eq!(net.height(), height, "nothing was submitted");
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
        let mut net = Network::builder()
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
        let mut net = Network::builder()
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
            .invoke(
                1,
                contracts.data,
                "request",
                &[Value::str("hospital-0/emr"), Value::Int(Purpose::Research.code())],
                50_000,
            )
            .unwrap().tx_id;
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
                net.invoke(
                    0,
                    data,
                    "meta",
                    &[Value::str(&format!("hospital-{}/emr", k % 2))],
                    50_000,
                )
                .unwrap().tx_id,
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
        let mut net = Network::builder()
            .site("only", records)
            .build()
            .unwrap();
        let result = net.submit(
            5,
            TxPayload::Anchor { root: Hash256::ZERO, label: "x".into() },
            100,
        );
        assert_eq!(result.unwrap_err(), NetworkError::NoSuchSite(5));
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
        let net = Network::builder().site("h0", records).build().unwrap();
        assert_eq!(net.fda_index(), None);
    }
}
