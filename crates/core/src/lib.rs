//! # medchain — blockchain as a distributed parallel computing
//! architecture for precision medicine
//!
//! The core crate of the reproduction of Shae & Tsai (ICDCS 2018): a
//! permissioned medical consortium ([`network::MedicalNetwork`], Fig. 2)
//! whose on-chain smart contracts are light-weight access-policy control
//! points, with per-site off-chain control code ([`site::Site`],
//! Figs. 1/6) moving computation to locally resident data. The
//! [`modes`] module realizes the paper's headline comparison —
//! duplicated smart-contract computing versus the transformed
//! distributed-parallel architecture — and [`paradigms`] implements the
//! Hadoop/Grid/Cloud comparison of §III.
//!
//! Client-facing ingress (DESIGN.md §10) lives in [`gateway`] (the TCP
//! front-end with batched signature verification and priority lanes),
//! [`client`] (the `submit → PendingTx → TxReceipt` surface with local
//! proof verification), and [`loadgen`] (the open-loop million-user
//! load generator).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod client;
mod committee;
pub mod gateway;
pub mod loadgen;
pub mod modes;
pub mod network;
pub mod paradigms;
pub mod pipeline;
pub mod sharded;
pub mod site;

pub use bootstrap::{BootstrapError, BootstrapReport, BootstrapSource, SnapshotPeer};
pub use client::{Client, ClientError, PendingTx};
pub use gateway::{
    GatewayBackend, GatewayConfig, GatewayRequest, GatewayResponse, GatewayServer, PumpReport,
};
pub use loadgen::{run_sessions, LoadConfig, LoadReport};
pub use modes::{
    run_duplicated, run_duplicated_metered, run_sharded_consensus, run_transformed,
    run_transformed_metered, ExecutionMode, ModeReport,
};
pub use network::{
    ContractAddresses, MedicalNetwork, NetworkBuilder, NetworkError, TransportKind,
};
pub use paradigms::{compare_all, run_paradigm, Paradigm, ParadigmReport};
pub use pipeline::{
    fda_integrity_sweep, run_gwas, run_query, train_federated, FdaSweepReport,
    FederatedPipelineReport, GwasPipelineReport, QueryPipelineReport,
};
pub use sharded::{ShardedNetwork, XsResolution, XsTransfer};
pub use site::Site;
