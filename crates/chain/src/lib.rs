//! # medchain-chain — permissioned blockchain substrate
//!
//! The blockchain the paper's architecture runs on: hashing and
//! signatures built from scratch, Merkle-anchored blocks, a replicated
//! ledger with a pluggable smart-contract runtime, four consensus
//! engines (PoA, PBFT, PoW, PoS) over a deterministic discrete-event
//! network simulator, and an energy model calibrated to the
//! Digiconomist figure the paper cites.
//!
//! Every replica executes every committed transaction — the *duplicated
//! computing* the paper starts from (§I). The crates layered above
//! (`medchain-contracts`, `medchain-offchain`, `medchain`) implement the
//! transformation of that duplication into distributed parallel
//! computing.
//!
//! ## Quick example: a 4-validator PoA consortium
//!
//! ```
//! use medchain_chain::consensus::{poa::PoaEngine, Cluster};
//! use medchain_chain::node::ChainApp;
//!
//! let (engines, registry) = PoaEngine::make_validators(4, 50);
//! let apps = (0..4).map(|_| ChainApp::new("demo", registry.clone())).collect();
//! let mut cluster = Cluster::new(engines, apps, 42);
//! let report = cluster.run_until_height(3, 60_000);
//! assert!(report.reached);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auth;
pub mod block;
pub mod consensus;
pub mod energy;
pub mod exec;
pub mod hash;
mod history;
pub mod ledger;
pub mod mempool;
pub mod merkle;
pub mod node;
mod pager;
pub mod receipt;
pub mod shard;
pub mod sig;
mod state;
pub mod store;
pub mod tx;

pub use auth::{LeafKey, ProofTerminal, SmtProof, StateProof, StateTree};
pub use block::{Block, Body, Header, KeptHeader, Seal};
pub use exec::{StateAccess, StateDelta, WorldStateOverlay};
pub use hash::{sha256_compressions, Hash256, Sha256};
pub use ledger::{ContractRuntime, Event, ExecError, ExecOutcome, Ledger, Receipt, StateCacheConfig};
pub use mempool::Lane;
pub use merkle::{MerkleProof, MerkleTree};
pub use node::SubmitOutcome;
pub use pager::{Pager, ACCOUNTS_PER_PAGE};
pub use receipt::TxReceipt;
pub use shard::{shard_for_key, shard_for_tx, sharded_contract_address, CrossLink, ShardId};
pub use sig::{registry_verifications, Address, AuthorityKey, AuthoritySignature, KeyRegistry};
pub use state::{Account, CrossLinkRecord, WorldState, XsDecisionRecord, XsLock};
pub use store::{BlockStore, StoreError};
pub use tx::{SealedTx, Transaction, TxPayload, XsLeg};
