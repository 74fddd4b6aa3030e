//! # medchain-learning — distributed analytics and learning
//!
//! From-scratch machine learning for the paper's §III-C: logistic
//! regression, a small MLP with backpropagation, evaluation
//! metrics, synchronous FedAvg federated learning with communication
//! accounting, transfer learning (including the paper's proposed
//! *distributed* transfer learning), and exactly-decomposable aggregate
//! analytics for the move-compute-to-data pipeline.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decompose;
pub mod federated;
pub mod linalg;
pub mod logistic;
pub mod metrics;
pub mod nn;
pub mod transfer;

pub use decompose::{Aggregate, AggregateValue, Partial};
pub use federated::{
    centralized_baseline, local_only_baseline, DpConfig, FedAvg, FedLogistic, FedMlp, FedReport,
    LocalLearner,
};
pub use logistic::{LogisticRegression, SgdConfig};
pub use metrics::{accuracy, auc, log_loss, rmse, Confusion};
pub use nn::{Mlp, MlpConfig};
pub use transfer::{
    fine_tune, learning_curve, pretrain, pretrain_federated, pretrain_federated_metered,
    CurvePoint,
};
