//! A local site: one hospital or service provider's premise (Fig. 6).
//!
//! A site owns data that never leaves it, a signing identity in the
//! consortium, the per-node off-chain control code of Fig. 1, and the
//! compute to run analytics next to its data: the one query tool
//! ([`QUERY_TOOL`]) that answers every query, GWAS and federated round.

use medchain_chain::{Address, AuthorityKey};
use medchain_contracts::standard::{QUERY_TOOL, QUERY_TOOL_BUILD};
use medchain_contracts::value::Value;
use medchain_data::dataset::Dataset;
use medchain_data::PatientRecord;
use medchain_offchain::{AnchoredArtifact, ControlNode, Tool, ToolError};
use medchain_query::{execute_local, Computation, QueryVector};
use medchain_runtime::codec::{Decode, Encode};
use std::sync::Arc;

/// One hospital / provider site.
pub struct Site {
    name: String,
    key: AuthorityKey,
    control: ControlNode,
    records: Arc<Vec<PatientRecord>>,
    hosted_label: String,
}

impl std::fmt::Debug for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Site")
            .field("name", &self.name)
            .field("records", &self.records.len())
            .field("hosted_label", &self.hosted_label)
            .finish()
    }
}

/// The site's query tool: runs a decoded job against the records it
/// closes over. Its shard params are the canonical encoding of
/// `(QueryVector, Option<Vec<f64>>)`, a query and an optional
/// warm-start model; its outcome is one `Value::Bytes` holding the
/// encoded [`medchain_query::SiteOutput`]. Bytes that do not decode to a
/// job, a row fetch (its outcome would be patient records, posted into
/// every replica's state), and jobs [`execute_local`] refuses are tool
/// errors.
fn query_tool(records: Arc<Vec<PatientRecord>>) -> Tool {
    Tool::new(QUERY_TOOL, QUERY_TOOL_BUILD, move |params| {
        let job = params.get(1).and_then(|v| v.as_bytes().ok()).ok_or("params must be bytes")?;
        let (query, warm_start) = <(QueryVector, Option<Vec<f64>>)>::decoded(job)
            .map_err(|e| ToolError::new(format!("undecodable query job: {e}")))?;
        if query.computation == Computation::FetchRows {
            return Err(ToolError::new("patient rows never leave the site"));
        }
        let output = execute_local(&query, &records, warm_start.as_deref())?;
        Ok(vec![Value::Bytes(output.encoded())])
    })
}

impl Site {
    /// Creates a site hosting `records` under `<name>/emr`, with the
    /// query tool installed.
    pub fn new(name: &str, key: AuthorityKey, records: Vec<PatientRecord>) -> Site {
        let hosted_label = format!("{name}/emr");
        let mut control = ControlNode::new(name, key.address());
        let records = Arc::new(records);
        control.install_tool(query_tool(Arc::clone(&records)));
        Site { name: name.to_string(), key, control, records, hosted_label }
    }

    /// Site name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Consortium address.
    pub fn address(&self) -> Address {
        self.key.address()
    }

    /// Signing key.
    pub fn key(&self) -> &AuthorityKey {
        &self.key
    }

    /// The label of the hosted EMR dataset.
    pub fn hosted_label(&self) -> &str {
        &self.hosted_label
    }

    /// The locally resident records (never shipped; exposed for local
    /// execution and tests).
    pub fn records(&self) -> &[PatientRecord] {
        &self.records
    }

    /// The per-site off-chain control code.
    pub fn control(&self) -> &ControlNode {
        &self.control
    }

    /// Mutable control-code access (tool installation, stepping).
    pub fn control_mut(&mut self) -> &mut ControlNode {
        &mut self.control
    }

    /// Installs an analytics tool at this site.
    pub fn install_tool(&mut self, tool: Tool) {
        self.control.install_tool(tool);
    }

    /// Builds the Merkle anchor artifact for the hosted records.
    pub fn anchor_artifact(&self) -> AnchoredArtifact {
        AnchoredArtifact::new(
            &self.hosted_label,
            self.records.iter().map(PatientRecord::canonical_bytes),
        )
    }

    /// The site's records as a labelled learning dataset.
    pub fn dataset(&self, outcome_code: &str) -> Dataset {
        Dataset::from_records(&self.records, outcome_code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
    use medchain_learning::Aggregate;
    use medchain_offchain::ShardJob;
    use medchain_contracts::standard::AnalyticsContract;
    use medchain_query::SiteOutput;
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::ensure;

    fn site() -> Site {
        let records = CohortGenerator::new("hospital-a", SiteProfile::default(), 3).cohort(
            0,
            150,
            &DiseaseModel::stroke(),
        );
        Site::new("hospital-a", AuthorityKey::from_seed(1), records)
    }

    /// Site `s`'s shard of a run of its query tool with `params`.
    fn shard(s: &Site, params: Vec<u8>) -> ShardJob {
        let code_hash = query_tool(Arc::default()).code_hash();
        let dataset = s.hosted_label().to_string();
        ShardJob { task_id: 0, tool: QUERY_TOOL.into(), code_hash, dataset, params }
    }

    fn encode_job(query: &QueryVector, warm_start: Option<&[f64]>) -> Vec<u8> {
        (query, warm_start).encoded()
    }

    /// The one value the tool's outcome holds, decoded.
    fn answer(outcome: &[u8]) -> SiteOutput {
        let values = medchain_contracts::decode_args(outcome).unwrap();
        SiteOutput::decoded(values[0].as_bytes().unwrap()).unwrap()
    }

    #[test]
    fn site_hosts_its_label() {
        let s = site();
        assert_eq!(s.hosted_label(), "hospital-a/emr");
        assert_eq!(s.records().len(), 150);
    }

    #[test]
    fn anchor_covers_all_records() {
        let s = site();
        let artifact = s.anchor_artifact();
        assert_eq!(artifact.record_count(), 150);
        assert_eq!(artifact.label(), "hospital-a/emr");
    }

    #[test]
    fn the_query_tool_answers_over_the_sites_own_records() {
        let mut s = site();
        let count = QueryVector::fetch_all()
            .with_computation(Computation::Aggregates(vec![Aggregate::Count]));
        let job = shard(&s, encode_job(&count, None));
        match answer(&s.control_mut().run(&job).expect("the job runs")) {
            SiteOutput::Partials(partials) => assert_eq!(partials[0].n, 150),
            other => panic!("{other:?}"),
        }
        let train = QueryVector::fetch_all().with_computation(Computation::TrainModel {
            outcome_code: STROKE_CODE.into(),
            rounds: 1,
        });
        let job = shard(&s, encode_job(&train, Some(&[0.25; 11])));
        match answer(&s.control_mut().run(&job).expect("the round runs")) {
            SiteOutput::ModelParams { params, n } => assert_eq!((params.len(), n), (11, 150)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn the_query_tool_is_the_build_the_contract_names() {
        let s = site();
        let state = medchain_chain::WorldState::new();
        let named = AnalyticsContract::tool_hash(&state, &s.address(), QUERY_TOOL);
        assert_eq!(named, Some(query_tool(Arc::default()).code_hash()));
    }

    #[test]
    fn a_row_fetch_is_refused_at_the_site() {
        let mut s = site();
        let job = shard(&s, encode_job(&QueryVector::fetch_all(), None));
        assert_eq!(s.control_mut().run(&job), None, "rows would be posted on chain");
        assert_eq!(s.control().stats().failures, 1);
    }

    #[test]
    fn hostile_job_bytes_never_panic_the_site() {
        let count = QueryVector::fetch_all()
            .with_computation(Computation::Aggregates(vec![Aggregate::Count]));
        let valid = encode_job(&count, Some(&[0.5; 11]));
        let s = std::cell::RefCell::new(site());
        check("hostile job bytes never panic the site", CheckConfig::cases(96), |g| {
            let mut s = s.borrow_mut();
            let before = s.control().stats().failures;
            let (params, must_fail) = match g.usize_in(0, 3) {
                0 => (g.bytes(0, 96), true),
                1 => (valid[..g.usize_in(0, valid.len())].to_vec(), true),
                _ => {
                    let mut flipped = valid.clone();
                    let at = g.usize_in(0, flipped.len());
                    flipped[at] ^= g.byte() | 1;
                    (flipped, false)
                }
            };
            // The site's control code, not a bare tool call: a refused
            // job is a counted failure with nothing to post.
            let job = shard(&s, params);
            match s.control_mut().run(&job) {
                None => ensure!(
                    s.control().stats().failures == before + 1,
                    "a refused job was not counted as a failure"
                ),
                Some(outcome) => {
                    ensure!(!must_fail, "random or truncated job bytes ran");
                    ensure!(outcome.len() <= medchain_contracts::standard::MAX_OUTCOME_BYTES);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn dataset_extraction() {
        let d = site().dataset(STROKE_CODE);
        assert_eq!(d.len(), 150);
        assert_eq!(d.dim(), 10);
    }
}
