//! # medchain-data — the medical data substrate
//!
//! Synthetic stand-in for the hospital EMR, TCGA, wearable, and genomic
//! data the paper assumes (see DESIGN.md §2 for the substitution
//! argument): a canonical [`emr::PatientRecord`] form, per-site cohort
//! generation with known logistic disease models ([`synth`]),
//! heterogeneous legacy formats with a common-format integration engine
//! ([`formats`]), tabular learning datasets ([`dataset`]), a virtual
//! schema with distributed queries ([`schema`]), and the size of the
//! TCGA reference cohort ([`tcga`]).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod emr;
pub mod formats;
pub mod genomics;
pub mod schema;
pub mod synth;
pub mod tcga;
pub mod wearable;

pub use dataset::Dataset;
pub use emr::{PatientRecord, Sex};
pub use formats::common::{FormatRegistry, IntegrationReport, SourceDocument};
pub use schema::{Field, Predicate, QueryResult, RecordQuery, Schema};
pub use synth::{features, CohortGenerator, DiseaseModel, SiteProfile, FEATURE_NAMES};
pub use wearable::{DailyReading, SeriesProfile, WearableSeries};
