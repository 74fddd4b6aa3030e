//! Hermetic runtime substrate for the MedChain workspace.
//!
//! Every other crate in the workspace builds on this one instead of on
//! external registry crates, so the whole workspace compiles offline and
//! every run is bit-for-bit deterministic for a fixed seed:
//!
//! - [`rng`] — seeded xoshiro256** deterministic RNG ([`DetRng`]),
//!   replacing `rand::rngs::StdRng`.
//! - [`codec`] — canonical byte encoding ([`codec::Encode`] /
//!   [`codec::Decode`]) with round-trip laws, replacing derive-only
//!   `serde` on chain, ledger, EMR, and audit types.
//! - [`sync`] — scoped-parallelism helpers over [`std::thread::scope`],
//!   replacing `crossbeam::thread::scope`.
//! - [`check`] — a minimal seeded property-test harness replacing
//!   `proptest` for the workspace's invariant tests.
//! - [`metrics`] — structured counter/gauge/histogram/event sink behind
//!   the [`MetricsSink`] trait with a lock-cheap [`Registry`] and TSV
//!   exporter, so experiments assert on internals instead of stdout.

#![deny(missing_docs)]

pub mod check;
pub mod codec;
pub mod metrics;
pub mod rng;
pub mod sync;

pub use check::{check, CheckConfig, Gen};
pub use codec::{CodecError, Decode, Encode, Reader};
pub use metrics::{Metrics, MetricsSink, Registry};
pub use rng::DetRng;
pub use sync::scoped_map;
