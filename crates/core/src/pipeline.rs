//! End-to-end pipelines over the medical network: the full Figs. 5/6
//! flow (on-chain policy gate → decompose → local execution → compose),
//! on-chain-audited federated training, and clinical-trial operations.

use crate::network::{Network, NetworkError};
use medchain_chain::{Hash256, TxPayload};
use medchain_contracts::decode_args;
use medchain_contracts::policy::Purpose;
use medchain_contracts::value::Value;
use medchain_learning::linalg::weighted_average;
use medchain_learning::metrics::auc;
use medchain_learning::LogisticRegression;
use medchain_query::{compose, plan, Computation, QueryAnswer, QueryVector, SiteOutput};
use std::fmt;

/// Report from one gated distributed query (experiment E7).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPipelineReport {
    /// Sites whose data contract permitted the request.
    pub permitted: usize,
    /// Sites that denied.
    pub denied: usize,
    /// Bytes returned by sites (results only — never raw records unless
    /// the query explicitly fetches rows).
    pub bytes_returned: u64,
    /// Simulated latency of the on-chain gating in ms.
    pub chain_latency_ms: u64,
}

/// Errors from pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Underlying network failure.
    Network(NetworkError),
    /// Every site denied the request.
    AllDenied,
    /// Composition failed.
    Compose(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Network(e) => write!(f, "{e}"),
            PipelineError::AllDenied => f.write_str("every site denied the data request"),
            PipelineError::Compose(e) => write!(f, "compose failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<NetworkError> for PipelineError {
    fn from(e: NetworkError) -> Self {
        PipelineError::Network(e)
    }
}

/// The on-chain policy gate: commits `requester_site`'s data-contract
/// `request` for `purpose` at every site, then returns the sites whose
/// contract permitted it and the number that denied.
///
/// # Errors
///
/// Returns [`PipelineError`] on network failure, an undecodable
/// receipt, or universal denial.
fn policy_gate(
    net: &mut Network,
    requester_site: usize,
    purpose: Purpose,
) -> Result<(Vec<usize>, usize), PipelineError> {
    let data_contract = net.contracts().data;
    let mut request_ids = Vec::new();
    for i in 0..net.site_count() {
        let label = net.site(i).hosted_label().to_string();
        let id = net.invoke(
            requester_site,
            data_contract,
            "request",
            &[Value::str(&label), Value::Int(purpose.code())],
            50_000,
        )?.tx_id;
        request_ids.push((i, id));
    }
    net.advance(2).map_err(PipelineError::Network)?;

    let mut permitted = Vec::new();
    let mut denied = 0usize;
    for (site, id) in request_ids {
        let receipt = net
            .receipt(&id)
            .ok_or(PipelineError::Network(NetworkError::MissingReceipt(id)))?;
        let values = decode_args(&receipt.output)
            .map_err(|e| PipelineError::Compose(e.to_string()))?;
        if values.first().and_then(|v| v.as_int().ok()) == Some(1) {
            permitted.push(site);
        } else {
            denied += 1;
        }
    }
    if permitted.is_empty() {
        return Err(PipelineError::AllDenied);
    }
    Ok((permitted, denied))
}

/// Runs a query through the full transformed pipeline:
///
/// 1. the requester's data-contract `request` is committed per site (the
///    on-chain access-policy gate, audited permit or deny);
/// 2. permitted sites execute the decomposed task against their local
///    records;
/// 3. outputs are composed into the global answer, whose hash is
///    anchored on-chain.
///
/// # Errors
///
/// Returns [`PipelineError`] on network failure, universal denial, or
/// composition mismatch.
pub fn run_query(
    net: &mut Network,
    requester_site: usize,
    query: &QueryVector,
) -> Result<(QueryAnswer, QueryPipelineReport), PipelineError> {
    let sim_before = net.ledger().tip().header.timestamp_ms;

    // Phase 1: on-chain permission per site.
    let (permitted, denied) = policy_gate(net, requester_site, query.purpose)?;

    // Phase 2: decomposed local execution at permitted sites.
    let site_names: Vec<String> =
        permitted.iter().map(|&i| net.site(i).name().to_string()).collect();
    let tasks = plan(query, &site_names);
    let outputs: Vec<SiteOutput> = permitted
        .iter()
        .zip(&tasks)
        .map(|(&i, task)| net.site(i).execute_task(task, None))
        .collect();
    let bytes_returned: u64 = outputs.iter().map(|o| o.wire_size() as u64).sum();

    // Phase 3: compose and anchor the answer.
    let answer =
        compose(query, outputs).map_err(|e| PipelineError::Compose(e.to_string()))?;
    let answer_hash = Hash256::digest(format!("{answer:?}").as_bytes());
    let anchor = net.submit(
        requester_site,
        TxPayload::Anchor {
            root: answer_hash,
            label: format!("answers/{}", net.ledger().tip().header.height),
        },
        1_000,
    )?.tx_id;
    net.commit_and_check(anchor)?;

    let report = QueryPipelineReport {
        permitted: permitted.len(),
        denied,
        bytes_returned,
        chain_latency_ms: net
            .ledger()
            .tip()
            .header
            .timestamp_ms
            .saturating_sub(sim_before),
    };
    let metrics = net.metrics();
    metrics.counter("query.pipeline_runs", 1);
    metrics.counter("query.site_tasks", report.permitted as u64);
    metrics.counter("query.denied_sites", report.denied as u64);
    metrics.counter("query.bytes_returned", report.bytes_returned);
    Ok((answer, report))
}

/// One round's record in an audited federated run.
#[derive(Debug, Clone, PartialEq)]
pub struct FedRound {
    /// Round number (1-based).
    pub round: usize,
    /// Hash of the global parameters after the round (anchored).
    pub params_hash: Hash256,
    /// Held-out AUC, when an eval set is supplied.
    pub eval_auc: Option<f64>,
}

/// Report from an on-chain-audited federated training run (E8 through
/// the full architecture).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedPipelineReport {
    /// Final global parameters.
    pub params: Vec<f64>,
    /// Per-round audit records.
    pub rounds: Vec<FedRound>,
    /// Model bytes moved (up + down) across all rounds.
    pub model_bytes: u64,
    /// Bytes centralizing the raw shards would have moved.
    pub raw_bytes_equivalent: u64,
}

/// Trains a federated logistic model for `outcome_code` across every
/// site, anchoring each round's global parameters on-chain so the whole
/// training run is auditable.
///
/// # Errors
///
/// Returns [`PipelineError`] if anchoring fails.
pub fn train_federated(
    net: &mut Network,
    requester_site: usize,
    outcome_code: &str,
    rounds: usize,
    eval: Option<&medchain_data::Dataset>,
) -> Result<FederatedPipelineReport, PipelineError> {
    let query = QueryVector::fetch_all().with_computation(Computation::TrainModel {
        outcome_code: outcome_code.to_string(),
        rounds,
    });
    let site_names = net.site_names();
    let tasks = plan(&query, &site_names);
    let dim = 10usize;
    let mut global = vec![0.0f64; dim + 1];
    let mut report = FederatedPipelineReport {
        params: Vec::new(),
        rounds: Vec::with_capacity(rounds),
        model_bytes: 0,
        raw_bytes_equivalent: (0..net.site_count())
            .map(|i| {
                net.site(i)
                    .records()
                    .iter()
                    .map(|r| r.canonical_bytes().len() as u64)
                    .sum::<u64>()
            })
            .sum(),
    };
    for round in 1..=rounds {
        let mut params = Vec::new();
        let mut weights = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            match net.site(i).execute_task(task, Some(&global)) {
                SiteOutput::ModelParams { params: p, n } if n > 0 => {
                    report.model_bytes += (p.len() * 8) as u64 * 2; // up + down
                    params.push(p);
                    weights.push(n as f64);
                }
                _ => {}
            }
        }
        if !params.is_empty() {
            global = weighted_average(&params, &weights);
        }
        let params_hash = Hash256::digest(
            &global.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>(),
        );
        let anchor = net.submit(
            requester_site,
            TxPayload::Anchor {
                root: params_hash,
                label: format!("fedavg/{outcome_code}/round-{round}"),
            },
            1_000,
        )?.tx_id;
        net.commit_and_check(anchor)?;
        let eval_auc = eval.map(|test| {
            let mut model = LogisticRegression::new(dim);
            model.set_params(&global);
            auc(&model.predict(test), &test.labels)
        });
        report.rounds.push(FedRound { round, params_hash, eval_auc });
    }
    report.params = global;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_data::synth::{CohortGenerator, DiseaseModel, SiteProfile, STROKE_CODE};
    use medchain_data::Dataset;
    use medchain_learning::Aggregate;
    use medchain_query::cohorts;

    fn network(sites: usize, per_site: usize) -> Network {
        let mut builder = Network::builder().seed(7);
        for i in 0..sites {
            let records =
                CohortGenerator::new(&format!("h{i}"), SiteProfile::varied(i), 40 + i as u64)
                    .cohort((i * 10_000) as u64, per_site, &DiseaseModel::stroke());
            builder = builder.site(&format!("hospital-{i}"), records);
        }
        builder.build().unwrap()
    }

    #[test]
    fn gated_query_counts_smokers_across_permitted_sites() {
        let mut net = network(3, 120);
        let researcher = net.site(2).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let query = QueryVector::fetch_all()
            .with_cohort(cohorts::smokers())
            .with_computation(Computation::Aggregates(vec![Aggregate::Count]));
        let (answer, report) = run_query(&mut net, 2, &query).unwrap();
        assert_eq!(report.permitted, 3);
        assert_eq!(report.denied, 0);
        match answer {
            QueryAnswer::Aggregates(values) => {
                let count = match &values[0] {
                    medchain_learning::AggregateValue::Scalar(c) => *c,
                    other => panic!("{other:?}"),
                };
                assert!(count > 0.0 && count < 360.0);
            }
            other => panic!("{other:?}"),
        }
        assert!(report.chain_latency_ms > 0);
    }

    #[test]
    fn ungranted_query_is_fully_denied() {
        let mut net = network(2, 60);
        let query = QueryVector::fetch_all()
            .with_computation(Computation::Aggregates(vec![Aggregate::Count]));
        // Site 1 requests without any grant: owner(site0) denies site1's
        // request on hospital-0/emr; site1 owns hospital-1/emr so that
        // one is permitted (owners always may access their own data).
        let (_, report) = run_query(&mut net, 1, &query).unwrap();
        assert_eq!(report.permitted, 1);
        assert_eq!(report.denied, 1);
    }

    #[test]
    fn federated_training_is_audited_and_learns() {
        let mut net = network(3, 400);
        let eval_records = CohortGenerator::new("eval", SiteProfile::default(), 999).cohort(
            900_000,
            1_000,
            &DiseaseModel::stroke(),
        );
        let eval = Dataset::from_records(&eval_records, STROKE_CODE);
        let report = train_federated(&mut net, 0, STROKE_CODE, 6, Some(&eval)).unwrap();
        assert_eq!(report.rounds.len(), 6);
        let final_auc = report.rounds.last().unwrap().eval_auc.unwrap();
        assert!(final_auc > 0.65, "federated pipeline AUC {final_auc}");
        // Every round anchored on-chain.
        for (i, round) in report.rounds.iter().enumerate() {
            let label = format!("fedavg/{STROKE_CODE}/round-{}", i + 1);
            assert_eq!(net.ledger().state().anchor(&label), Some(round.params_hash));
        }
        // Model traffic ≪ raw centralization.
        assert!(report.raw_bytes_equivalent > report.model_bytes);
    }
}

/// Result of the regulator's integrity sweep (Fig. 2's FDA node acting
/// as the trusted auditor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdaSweepReport {
    /// Datasets whose presented records matched their on-chain anchors.
    pub datasets_intact: usize,
    /// Datasets that failed anchor verification.
    pub datasets_tampered: usize,
    /// Datasets with no anchor on-chain.
    pub datasets_unanchored: usize,
    /// Hash-chain length of committed blocks verified (parent links).
    pub blocks_verified: u64,
}

/// The FDA node's periodic sweep: re-verifies every hospital dataset
/// against its Merkle anchor and walks the block hash chain. Read-only —
/// the regulator needs no cooperation from the sites beyond the data
/// they already present for audit.
pub fn fda_integrity_sweep(net: &Network) -> FdaSweepReport {
    let state = net.ledger().state();
    let mut report = FdaSweepReport {
        datasets_intact: 0,
        datasets_tampered: 0,
        datasets_unanchored: 0,
        blocks_verified: 0,
    };
    for i in 0..net.site_count() {
        let site = net.site(i);
        let verdict = medchain_offchain::verify_against_chain(
            state,
            site.hosted_label(),
            site.records().iter().map(medchain_data::PatientRecord::canonical_bytes),
        );
        match verdict {
            medchain_offchain::IntegrityVerdict::Intact => report.datasets_intact += 1,
            medchain_offchain::IntegrityVerdict::Tampered { .. } => {
                report.datasets_tampered += 1
            }
            medchain_offchain::IntegrityVerdict::NotAnchored => {
                report.datasets_unanchored += 1
            }
        }
    }
    // Walk the chain: every block's parent pointer must match.
    let blocks = net.ledger().blocks_from(0);
    for pair in blocks.windows(2) {
        assert_eq!(pair[1].header.parent, pair[0].id(), "broken chain");
        report.blocks_verified += 1;
    }
    report
}

/// Report from a policy-gated distributed GWAS (paper §II's genomic
/// analytics, run without any genome leaving its hospital).
#[derive(Debug, Clone, PartialEq)]
pub struct GwasPipelineReport {
    /// Sites that permitted the genomic query.
    pub permitted: usize,
    /// Sites that denied.
    pub denied: usize,
    /// Genotyped cases across permitted sites.
    pub cases: u64,
    /// Genotyped controls across permitted sites.
    pub controls: u64,
    /// Bytes of count tables that crossed the wire.
    pub bytes_returned: u64,
}

/// Runs a genome-wide association study across the consortium: per-site
/// data-contract gating, local allele tabulation, exact composition of
/// the count tables, and an on-chain anchor of the result.
///
/// # Errors
///
/// Returns [`PipelineError`] on network failure or universal denial.
pub fn run_gwas(
    net: &mut Network,
    requester_site: usize,
    outcome_code: &str,
    purpose: Purpose,
) -> Result<(Vec<medchain_data::genomics::Association>, GwasPipelineReport), PipelineError> {
    use medchain_data::genomics::{compose as gwas_compose, map_site, GwasPartial};

    // Phase 1: policy gate per site.
    let (permitted, denied) = policy_gate(net, requester_site, purpose)?;

    // Phase 2: local tabulation at permitted sites (genomes stay put).
    let partials: Vec<GwasPartial> = permitted
        .iter()
        .map(|&i| map_site(net.site(i).records(), outcome_code))
        .collect();
    let bytes_returned: u64 = partials.iter().map(|p| p.wire_size() as u64).sum();
    let cases = partials.iter().map(|p| p.cases).sum();
    let controls = partials.iter().map(|p| p.controls).sum();

    // Phase 3: compose and anchor.
    let associations = gwas_compose(&partials);
    let mut digest_material = Vec::new();
    for a in &associations {
        digest_material.extend_from_slice(&(a.snp as u64).to_le_bytes());
        digest_material.extend_from_slice(&a.chi_square.to_le_bytes());
    }
    let anchor = net.submit(
        requester_site,
        TxPayload::Anchor {
            root: Hash256::digest(&digest_material),
            label: format!("gwas/{outcome_code}/{}", net.ledger().tip().header.height),
        },
        1_000,
    )?.tx_id;
    net.commit_and_check(anchor)?;

    let report = GwasPipelineReport {
        permitted: permitted.len(),
        denied,
        cases,
        controls,
        bytes_returned,
    };
    Ok((associations, report))
}
