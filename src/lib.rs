//! Umbrella package: examples and integration tests for the MedChain
//! reproduction.
//!
//! The [`prelude`] re-exports the cross-crate surface the examples and
//! downstream experiments use, so one `use medchain_repro::prelude::*;`
//! replaces a stack of per-crate imports.

pub use medchain as core;

/// One-stop imports for examples and experiment drivers.
///
/// Everything here is re-exported verbatim from the workspace crates;
/// reach into the individual crates for anything more specialised.
pub mod prelude {
    // Deterministic runtime (RNG, codec, metrics, bench/check
    // harnesses).
    pub use medchain_runtime::metrics::{Metrics, Registry};
    pub use medchain_runtime::{Decode, DetRng, Encode};

    // Network simulation and the paper's execution modes/pipelines.
    pub use medchain::modes::{
        run_duplicated, run_sharded_consensus, run_transformed, ModeReport,
    };
    pub use medchain::paradigms::{run_paradigm, Paradigm};
    pub use medchain::pipeline::{run_gwas, run_query, train_federated};
    pub use medchain::{
        MedicalNetwork, Network, ShardedNetwork, TransportKind, XsResolution, XsTransfer,
    };

    // Ingress: client gateway, trustless receipts, open-loop load
    // generation (DESIGN.md §10).
    pub use medchain::loadgen::{run_sessions, LoadConfig, LoadReport};
    pub use medchain::{Client, ClientError, GatewayConfig, PendingTx};
    pub use medchain_chain::receipt::TxReceipt;
    pub use medchain_chain::Lane;

    // Transport seam: deterministic simulator, real TCP sockets, and
    // the fault-injection wrapper.
    pub use medchain_transport::{
        FaultyTransport, LatencyModel, NetStats, SimTransport, TcpTransport, Transport,
    };

    // Chain substrate, including consensus-level sharding (DESIGN.md §9).
    pub use medchain_chain::ledger::{Ledger, NullRuntime};
    pub use medchain_chain::shard::{shard_for_key, shard_for_tx, CrossLink, ShardId};
    pub use medchain_chain::{
        Address, AuthorityKey, Hash256, KeyRegistry, MerkleTree, Transaction, TxPayload,
        XsLeg,
    };

    // Authenticated world state: sparse-Merkle commitments and the
    // light-client proof surface (DESIGN.md §13).
    pub use medchain_chain::auth::key_hash;
    pub use medchain_chain::{LeafKey, SmtProof, StateProof, StateTree};

    // Durable persistence: block store trait plus the disk-backed
    // segmented-WAL / snapshot implementation, state paging and snapshot
    // streaming (DESIGN.md §14).
    pub use medchain_chain::store::{BlockStore, StoreError};
    pub use medchain_storage::{
        DiskStore, FsyncPolicy, PageStore, RecoveryReport, SnapshotChunk, SnapshotManifest,
        StorageConfig,
    };

    // Contracts: assembler, bytecode, values, access policy.
    pub use medchain_contracts::asm::{assemble, disassemble};
    pub use medchain_contracts::opcode::{decode_program, encode_program};
    pub use medchain_contracts::policy::{AccessPolicy, Purpose};
    pub use medchain_contracts::value::Value;
    pub use medchain_contracts::{decode_args, encode_args};

    // Data layer: synthesis, schema, legacy formats.
    pub use medchain_data::formats::common::SourceDocument;
    pub use medchain_data::synth::{
        CohortGenerator, DiseaseModel, SiteProfile, CANCER_CODE, STROKE_CODE,
    };
    pub use medchain_data::{
        Dataset, Field, FormatRegistry, PatientRecord, Predicate, RecordQuery,
    };

    // Learning: local, federated, and transfer training.
    pub use medchain_learning::metrics::auc;
    pub use medchain_learning::{
        centralized_baseline, fine_tune, local_only_baseline, pretrain, pretrain_federated,
        FedAvg, FedLogistic, LocalLearner, LogisticRegression, MlpConfig, SgdConfig,
    };

    // Off-chain execution and anchoring.
    pub use medchain_offchain::{
        verify_against_chain, verify_record, AnchoredArtifact, TaskExecutor, Tool, ToolError,
    };

    // Natural-language query front end.
    pub use medchain_query::parse_request;

    // Clinical-trial integrity and RWE monitoring.
    pub use medchain_trial::{
        batched_detection_day, blanket_strategy, diversity, intention_to_treat,
        observational_estimate, precision_strategy, recruit, screen_site,
        simulate_rct_and_observational, simulate_stream, DrugModel, PrecisionPolicy,
        RweMonitor, TrialProtocol,
    };
}
