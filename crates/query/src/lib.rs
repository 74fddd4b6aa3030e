//! # medchain-query — query decomposition and composition
//!
//! The paper's Figs. 5/6 query pipeline: structured [`QueryVector`]s
//! ([`vector`]), a transparent rule-based natural-language mapper
//! ([`nlp`]), the per-site execution of a query vector against locally
//! resident records ([`local`]), and exact composition of rows,
//! aggregates, federated model parameters and GWAS count tables
//! ([`composer`]). The `medchain` core crate's pipelines drive it over
//! the Fig. 1 control path: every named site runs [`execute_local`]
//! next to its own data and posts the encoded [`SiteOutput`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod composer;
pub mod local;
pub mod nlp;
pub mod optimizer;
pub mod vector;

pub use composer::{compose, ComposeError, QueryAnswer};
pub use local::{execute_local, SiteOutput};
pub use nlp::{parse_request, NlpError};
pub use optimizer::{optimize, run_counted, EvalStats};
pub use vector::{cohorts, Computation, QueryVector};
