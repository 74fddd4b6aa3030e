//! Canonical event topics emitted by the standard contracts.
//!
//! The off-chain monitor node (paper Fig. 3) polls for these topics
//! to bridge on-chain requests to off-chain data and computation.

/// A dataset was registered with its Merkle root.
pub const DATASET_REGISTERED: &str = "DatasetRegistered";
/// An access grant was added to a dataset policy.
pub const GRANT_ADDED: &str = "GrantAdded";
/// A grantee's grants were revoked.
pub const GRANT_REVOKED: &str = "GrantRevoked";
/// A data access request was permitted; payload carries the access token.
pub const DATA_REQUESTED: &str = "DataRequested";
/// A data access request was denied; payload carries the reason.
pub const DATA_DENIED: &str = "DataDenied";
/// An analytics tool was registered with its code hash.
pub const TOOL_REGISTERED: &str = "ToolRegistered";
/// An analytics run was requested; each site it names picks its shard
/// up from its own replica (payload: task id, tool, registered code hash,
/// dataset, requester, then `(site, shard params)` pairs).
pub const ANALYTICS_REQUESTED: &str = "AnalyticsRequested";
/// The last named site posted; payload carries the composed hash.
pub const ANALYTICS_COMPLETED: &str = "AnalyticsCompleted";
/// A clinical trial was registered with its protocol hash.
pub const TRIAL_REGISTERED: &str = "TrialRegistered";
/// A participant was enrolled in a trial.
pub const PARTICIPANT_ENROLLED: &str = "ParticipantEnrolled";
/// A trial outcome was reported (payload flags outcome switching).
pub const OUTCOME_REPORTED: &str = "OutcomeReported";
