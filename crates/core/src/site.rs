//! A local site: one hospital or service provider's premise (Fig. 6).
//!
//! A site owns data that never leaves it, a signing identity in the
//! consortium, the per-node off-chain control code of Fig. 1, and the
//! compute to run analytics next to its data.

use medchain_chain::{Address, AuthorityKey};
use medchain_data::dataset::Dataset;
use medchain_data::PatientRecord;
use medchain_offchain::{AnchoredArtifact, ControlNode, Tool};
use medchain_query::{execute_local, SiteOutput, SiteTask};
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

impl Site {
    /// Creates a site hosting `records` under `<name>/emr`.
    pub fn new(name: &str, key: AuthorityKey, records: Vec<PatientRecord>) -> Site {
        let hosted_label = format!("{name}/emr");
        let mut control = ControlNode::new(name, key.address());
        let records = Arc::new(records);
        // Local-data oracle backend: serves record count + canonical bytes
        // length so control-plane handlers can respond without the records
        // ever entering the chain layer.
        let backend_records = records.clone();
        control.oracle_mut().register(
            "local-data",
            Arc::new(
                move |_method: &str,
                      _params: &[medchain_contracts::value::Value]|
                      -> Result<Vec<medchain_contracts::value::Value>, medchain_offchain::ToolError> {
                    Ok(backend_records
                        .iter()
                        .take(64)
                        .map(|r| {
                            medchain_contracts::value::Value::Int(
                                r.canonical_bytes().len() as i64
                            )
                        })
                        .collect())
                },
            ),
        );
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

    /// Executes a decomposed query task against the local records —
    /// move-compute-to-data (Fig. 6).
    pub fn execute_task(&self, task: &SiteTask, warm_start: Option<&[f64]>) -> SiteOutput {
        execute_local(task, &self.records, warm_start)
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
    use medchain_query::QueryVector;

    fn site() -> Site {
        let records = CohortGenerator::new("hospital-a", SiteProfile::default(), 3).cohort(
            0,
            150,
            &DiseaseModel::stroke(),
        );
        Site::new("hospital-a", AuthorityKey::from_seed(1), records)
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
    fn task_execution_runs_locally() {
        let s = site();
        let task = SiteTask { site: "hospital-a".into(), query: QueryVector::fetch_all() };
        match s.execute_task(&task, None) {
            SiteOutput::Rows(result) => assert_eq!(result.rows.len(), 150),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dataset_extraction() {
        let d = site().dataset(STROKE_CODE);
        assert_eq!(d.len(), 150);
        assert_eq!(d.dim(), 10);
    }
}
