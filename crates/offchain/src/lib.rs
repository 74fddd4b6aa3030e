//! # medchain-offchain — the off-chain control plane
//!
//! Implements the paper's seamless on-chain/off-chain collaboration
//! (Figs. 1, 3, 4): the [`monitor::MonitorNode`] watching contract
//! events, the [`executor::TaskExecutor`] running arbitrary analytics
//! tools next to locally hosted data (a site's tool reads its own
//! records, so no oracle bridge fetches data for it), the per-site
//! [`control::ControlNode`] that makes identical on-chain contracts
//! behave differently at every site, and hash-anchored integrity
//! ([`registry`]) for off-chain data and code.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod control;
pub mod executor;
pub mod monitor;
pub mod registry;

pub use control::{ControlNode, ControlStats, ShardJob};
pub use executor::{ExecutorError, TaskExecutor, TaskResult, Tool, ToolError};
pub use monitor::{CapturedEvent, MonitorNode};
pub use registry::{
    anchor_label, verify_against_chain, verify_record, AnchoredArtifact, IntegrityVerdict,
};
