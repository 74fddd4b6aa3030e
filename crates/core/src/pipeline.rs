//! End-to-end pipelines over the medical network: the full Figs. 5/6
//! flow (on-chain policy gate → the query run at every permitted site on
//! the Fig. 1 control path → compose), on-chain-audited federated
//! training, a distributed GWAS, and the regulator's integrity sweep.
//!
//! Every per-site computation here is one job of the sites' query tool
//! ([`QUERY_TOOL`]) through [`Network::run_job`]: the caller
//! never reaches into a site's records. Each runs on a flat or a sharded
//! network alike: requests, tools and task records live on the home
//! chain ([`Network::home_ledger`]), and each anchor on its label's
//! chain.

use crate::network::{Network, NetworkError};
use medchain_chain::{Hash256, TxPayload};
use medchain_contracts::decode_args;
use medchain_contracts::policy::Purpose;
use medchain_contracts::standard::QUERY_TOOL;
use medchain_contracts::value::Value;
use medchain_data::genomics::Association;
use medchain_data::RecordQuery;
use medchain_learning::metrics::auc;
use medchain_learning::LogisticRegression;
use medchain_query::{compose, Computation, QueryAnswer, QueryVector, SiteOutput};
use medchain_runtime::codec::{Decode, Encode};
use std::fmt;

/// Report from one gated distributed query (experiment E7).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPipelineReport {
    /// Sites whose data contract permitted the request.
    pub permitted: usize,
    /// Sites that denied.
    pub denied: usize,
    /// Bytes the permitted sites posted (results only, never raw
    /// records: a row fetch is refused).
    pub bytes_returned: u64,
    /// Simulated latency of the gate, the job and the anchor in ms.
    pub chain_latency_ms: u64,
}

/// Errors from pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// Underlying network failure.
    Network(NetworkError),
    /// Every site denied the request.
    AllDenied,
    /// The query fetches rows: its outcome would be patient records,
    /// posted into every replica's state.
    RowFetch,
    /// A site's posted outcome does not decode to a site output.
    Outcome(String),
    /// Composition failed.
    Compose(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Network(e) => write!(f, "{e}"),
            PipelineError::AllDenied => f.write_str("every site denied the data request"),
            PipelineError::RowFetch => f.write_str("patient rows never leave a site"),
            PipelineError::Outcome(e) => write!(f, "undecodable site outcome: {e}"),
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
    let mut requests = Vec::new();
    for i in 0..net.site_count() {
        let label = net.site(i).hosted_label().to_string();
        let args = [Value::str(&label), Value::Int(purpose.code())];
        requests.push(net.invoke(requester_site, data_contract, "request", &args, 50_000)?);
    }
    net.commit_all(&requests, Some(2))?;

    let mut permitted = Vec::new();
    let mut denied = 0usize;
    for (site, request) in requests.iter().enumerate() {
        let id = request.tx_id;
        let receipt = net.receipt(&id).ok_or(NetworkError::MissingReceipt(id))?;
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

/// Runs `query` at each of `sites` (the gate's permitted sites, in site
/// order) as one job of their query tool, with `warm_start` for a
/// federated round, and returns the outcomes they posted in that order.
fn run_at_sites(
    net: &mut Network,
    requester_site: usize,
    query: &QueryVector,
    warm_start: Option<&[f64]>,
    sites: &[usize],
) -> Result<Vec<Vec<u8>>, PipelineError> {
    let job = (query, warm_start).encoded();
    let shards: Vec<(usize, Vec<u8>)> = sites.iter().map(|&i| (i, job.clone())).collect();
    Ok(net.run_job(requester_site, QUERY_TOOL, "consortium/union", &shards)?)
}

/// Decodes posted outcomes back into site outputs. An outcome is
/// `encode_args` of one `Value::Bytes` holding an encoded
/// [`SiteOutput`]; anything else is [`PipelineError::Outcome`].
fn decode_outputs(outcomes: &[Vec<u8>]) -> Result<Vec<SiteOutput>, PipelineError> {
    outcomes
        .iter()
        .map(|outcome| match decode_args(outcome).as_deref() {
            Ok([Value::Bytes(output)]) => {
                SiteOutput::decoded(output).map_err(|e| PipelineError::Outcome(e.to_string()))
            }
            _ => Err(PipelineError::Outcome("not one encoded site output".into())),
        })
        .collect()
}

/// Decodes `outcomes` and composes them into `query`'s answer.
fn compose_outcomes(
    query: &QueryVector,
    outcomes: &[Vec<u8>],
) -> Result<QueryAnswer, PipelineError> {
    compose(query, decode_outputs(outcomes)?).map_err(|e| PipelineError::Compose(e.to_string()))
}

/// Runs a query through the full transformed pipeline:
///
/// 1. the requester's data-contract `request` is committed per site (the
///    on-chain access-policy gate, audited permit or deny);
/// 2. one job names the permitted sites only; each runs the query
///    against its local records and posts its output (Fig. 1);
/// 3. the posted outputs are composed into the global answer, whose
///    hash is anchored on-chain.
///
/// # Errors
///
/// Returns [`PipelineError::RowFetch`] for a row fetch, before anything
/// is submitted, and [`PipelineError`] on network failure, universal
/// denial, an undecodable outcome, or composition mismatch.
pub fn run_query(
    net: &mut Network,
    requester_site: usize,
    query: &QueryVector,
) -> Result<(QueryAnswer, QueryPipelineReport), PipelineError> {
    if query.computation == Computation::FetchRows {
        return Err(PipelineError::RowFetch);
    }
    let sim_before = net.home_ledger().tip().header.timestamp_ms;

    // Phase 1: on-chain permission per site.
    let (permitted, denied) = policy_gate(net, requester_site, query.purpose)?;

    // Phase 2: the query runs next to the data at permitted sites.
    let outcomes = run_at_sites(net, requester_site, query, None, &permitted)?;
    let bytes_returned: u64 = outcomes.iter().map(|o| o.len() as u64).sum();

    // Phase 3: compose and anchor the answer.
    let answer = compose_outcomes(query, &outcomes)?;
    let answer_hash = Hash256::digest(format!("{answer:?}").as_bytes());
    let label = format!("answers/{}", net.home_ledger().height());
    let anchor = net.submit(requester_site, TxPayload::Anchor { root: answer_hash, label }, 1_000)?;
    net.confirm(&anchor)?;

    let report = QueryPipelineReport {
        permitted: permitted.len(),
        denied,
        bytes_returned,
        chain_latency_ms: net.home_ledger().tip().header.timestamp_ms.saturating_sub(sim_before),
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
    /// Bytes moved across all rounds: each round's job (query plus
    /// global model) down to every permitted site, and each site's
    /// posted model back up.
    pub model_bytes: u64,
    /// Bytes centralizing the permitted sites' raw shards would have
    /// moved.
    pub raw_bytes_equivalent: u64,
}

/// Trains a federated logistic model for `outcome_code` across every
/// site whose data contract permits `requester_site` research use. Each
/// round is one job whose params carry the previous round's global
/// model, so every warm start is on chain; each round's global
/// parameters are anchored on-chain, so the whole run is auditable.
///
/// # Errors
///
/// Returns [`PipelineError`] on network failure, universal denial, an
/// undecodable outcome, a round no site could train, or a failed anchor.
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
    let (permitted, _) = policy_gate(net, requester_site, query.purpose)?;
    let dim = 10usize;
    let mut global = vec![0.0f64; dim + 1];
    let raw_bytes = |i: usize| net.site(i).records().iter().map(|r| r.canonical_bytes().len());
    let mut report = FederatedPipelineReport {
        params: Vec::new(),
        rounds: Vec::with_capacity(rounds),
        model_bytes: 0,
        raw_bytes_equivalent: permitted.iter().flat_map(|&i| raw_bytes(i)).sum::<usize>() as u64,
    };
    for round in 1..=rounds {
        let outcomes = run_at_sites(net, requester_site, &query, Some(&global), &permitted)?;
        let job_bytes = (&query, Some(global.as_slice())).encoded().len() as u64;
        report.model_bytes += outcomes.iter().map(|o| job_bytes + o.len() as u64).sum::<u64>();
        global = match compose_outcomes(&query, &outcomes)? {
            QueryAnswer::Model { params, .. } if params.len() == dim + 1 => params,
            other => return Err(PipelineError::Compose(format!("round {round} composed {other}"))),
        };
        let params_hash = Hash256::digest(
            &global.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>(),
        );
        let label = format!("fedavg/{outcome_code}/round-{round}");
        let anchor = net.submit(requester_site, TxPayload::Anchor { root: params_hash, label }, 1_000)?;
        net.confirm(&anchor)?;
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
        // The denying site never ran the query.
        let ran: Vec<u64> = (0..2).map(|i| net.site(i).control().stats().tasks_run).collect();
        assert_eq!(ran, vec![0, 1]);
    }

    #[test]
    fn a_row_fetch_puts_no_record_on_chain() {
        let mut net = network(2, 60);
        let researcher = net.site(1).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
        let height = net.ledger().height();
        let fetch = QueryVector::fetch_all().with_cohort(cohorts::smokers());
        assert_eq!(run_query(&mut net, 1, &fetch).unwrap_err(), PipelineError::RowFetch);
        assert_eq!(net.ledger().height(), height, "a refused fetch submits nothing");
        // A caller that skips the pipeline and requests the fetch itself
        // gets nothing posted: each site refuses the job.
        let analytics = net.contracts().analytics;
        let job = Value::Bytes((&fetch, None::<&[f64]>).encoded());
        let mut args = vec![Value::str(QUERY_TOOL), Value::str("consortium/union")];
        for i in 0..2 {
            args.extend([Value::address(&net.site(i).address()), job.clone()]);
        }
        let request = net.invoke(1, analytics, "request_run", &args, 50_000).unwrap();
        net.confirm(&request).unwrap();
        assert_eq!(net.control_cycle().unwrap(), 0);
        let state = net.ledger().state();
        let record = medchain_contracts::standard::AnalyticsContract::task(state, &analytics, 0);
        let record = record.unwrap();
        assert_eq!(record[3], Value::Int(0));
        for slot in [6, 8] {
            assert_eq!(record[slot], Value::Bytes(Vec::new()), "slot {slot} holds a post");
        }
        let failures: u64 = (0..2).map(|i| net.site(i).control().stats().failures).sum();
        assert_eq!(failures, 2);
    }

    #[test]
    fn federated_training_is_audited_and_learns() {
        let mut net = network(3, 400);
        let researcher = net.site(0).address();
        net.grant_all(researcher, Purpose::Research).unwrap();
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
        // Each round was one job at every permitted site: 3 sites × 6
        // rounds ran.
        let tasks: u64 = (0..3).map(|i| net.site(i).control().stats().tasks_run).sum();
        assert_eq!(tasks, 18);
    }

    #[test]
    fn federated_training_runs_only_where_the_policy_permits() {
        // No grant: site 1 owns only its own dataset, so it alone trains.
        let mut net = network(3, 200);
        let report = train_federated(&mut net, 1, STROKE_CODE, 2, None).unwrap();
        assert_eq!(report.rounds.len(), 2);
        let ran: Vec<u64> = (0..3).map(|i| net.site(i).control().stats().tasks_run).collect();
        assert_eq!(ran, vec![0, 2, 0], "a denying site never runs");
    }

    #[test]
    fn hostile_outcomes_never_panic_the_pipeline() {
        use medchain_data::genomics::{GwasPartial, SnpCounts};
        use medchain_data::schema::Field;
        use medchain_learning::decompose::Partial;
        use medchain_learning::AggregateValue;
        use medchain_runtime::check::{check, CheckConfig};
        use medchain_runtime::ensure;
        let records = CohortGenerator::new("h0", SiteProfile::default(), 40).cohort(
            0,
            120,
            &DiseaseModel::stroke(),
        );
        let histogram = Aggregate::Histogram { field: Field::Age, bins: 8, min: 0.0, max: 100.0 };
        let gwas = Computation::Gwas { outcome_code: STROKE_CODE.into() };
        let train = Computation::TrainModel { outcome_code: STROKE_CODE.into(), rounds: 1 };
        let aggregates = Computation::Aggregates(vec![Aggregate::Count, histogram]);
        // Each query beside an honest site's output for it.
        let counts = SnpCounts { case_risk: 3, case_ref: 5, control_risk: 7, control_ref: 11 };
        let honest = [
            (
                QueryVector::fetch_all().with_cohort(cohorts::smokers().limit(3)),
                SiteOutput::Rows(cohorts::smokers().limit(3).run(&records)),
            ),
            (
                QueryVector::fetch_all().with_computation(aggregates),
                SiteOutput::Partials(vec![
                    Partial { n: 120, scanned: 120, ..Partial::default() },
                    Partial { n: 120, bins: vec![15; 8], scanned: 120, ..Partial::default() },
                ]),
            ),
            (
                QueryVector::fetch_all().with_computation(train),
                SiteOutput::ModelParams { params: vec![0.25; 11], n: 120 },
            ),
            (
                QueryVector::fetch_all().with_computation(gwas),
                SiteOutput::Gwas(GwasPartial { snps: vec![counts; 16], cases: 9, controls: 40 }),
            ),
        ];
        let queries: Vec<QueryVector> = honest.iter().map(|(q, _)| q.clone()).collect();
        let valid: Vec<Vec<u8>> = honest
            .iter()
            .map(|(_, output)| medchain_contracts::encode_args(&[Value::Bytes(output.encoded())]))
            .collect();
        for (query, outcome) in queries.iter().zip(&valid) {
            let pair = [outcome.clone(), outcome.clone()];
            assert!(compose_outcomes(query, &pair).is_ok(), "honest outcomes compose");
        }
        check("hostile outcomes never panic the pipeline", CheckConfig::cases(128), |g| {
            let which = g.usize_in(0, queries.len());
            let honest = &valid[which];
            let (hostile, must_fail) = match g.usize_in(0, 3) {
                0 => (g.bytes(0, 96), true),
                1 => (honest[..g.usize_in(0, honest.len())].to_vec(), true),
                _ => {
                    let mut flipped = honest.clone();
                    let at = g.usize_in(0, flipped.len());
                    flipped[at] ^= g.byte() | 1;
                    (flipped, false)
                }
            };
            // One honest site and one hostile one, in either order.
            let mut outcomes = vec![honest.clone(), hostile];
            if g.bool() {
                outcomes.reverse();
            }
            match compose_outcomes(&queries[which], &outcomes) {
                Err(PipelineError::Outcome(_) | PipelineError::Compose(_)) => {}
                Err(other) => return Err(format!("unexpected error {other:?}")),
                Ok(answer) => {
                    ensure!(!must_fail, "random or truncated outcome bytes composed: {answer}");
                    if let QueryAnswer::Aggregates(values) = answer {
                        let bins = match &values[1] {
                            AggregateValue::Histogram(bins) => bins.len(),
                            AggregateValue::Scalar(_) => 0,
                        };
                        ensure!(bins == 8, "a composed histogram has {bins} bins");
                    }
                }
            }
            Ok(())
        });
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
/// against its Merkle anchor, read from the anchor's chain, and walks the
/// block hash chain of every chain. Read-only — the regulator needs no
/// cooperation from the sites beyond the data they already present for
/// audit.
pub fn fda_integrity_sweep(net: &Network) -> FdaSweepReport {
    let mut report = FdaSweepReport {
        datasets_intact: 0,
        datasets_tampered: 0,
        datasets_unanchored: 0,
        blocks_verified: 0,
    };
    for i in 0..net.site_count() {
        let site = net.site(i);
        let verdict = medchain_offchain::verify_against_chain(
            net.anchor_ledger(site.hosted_label()).state(),
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
    // Walk each chain by height: every block's parent pointer must
    // match. A block below the resident window is read back from the
    // store.
    for chain in net.committees() {
        let mut parent = None;
        for block in chain.ledger().blocks_from(0) {
            if let Some(parent) = parent {
                assert_eq!(block.header.parent, parent, "broken chain");
                report.blocks_verified += 1;
            }
            parent = Some(block.id());
        }
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
    /// Bytes of count tables the permitted sites posted.
    pub bytes_returned: u64,
}

/// Runs a genome-wide association study across the consortium: per-site
/// data-contract gating, one job in which every permitted site tabulates
/// its own genotyped patients, exact composition of the posted count
/// tables, and an on-chain anchor of the result.
///
/// # Errors
///
/// Returns [`PipelineError`] on network failure, universal denial, an
/// undecodable outcome, or count tables that disagree in shape.
pub fn run_gwas(
    net: &mut Network,
    requester_site: usize,
    outcome_code: &str,
    purpose: Purpose,
) -> Result<(Vec<Association>, GwasPipelineReport), PipelineError> {
    // Phase 1: policy gate per site.
    let (permitted, denied) = policy_gate(net, requester_site, purpose)?;

    // Phase 2: local tabulation at permitted sites (genomes stay put).
    let query = QueryVector {
        cohort: RecordQuery::all(),
        computation: Computation::Gwas { outcome_code: outcome_code.to_string() },
        purpose,
    };
    let outcomes = run_at_sites(net, requester_site, &query, None, &permitted)?;
    let bytes_returned: u64 = outcomes.iter().map(|o| o.len() as u64).sum();
    let outputs = decode_outputs(&outcomes)?;
    let (mut cases, mut controls) = (0u64, 0u64);
    for output in &outputs {
        if let SiteOutput::Gwas(partial) = output {
            cases = cases.saturating_add(partial.cases);
            controls = controls.saturating_add(partial.controls);
        }
    }

    // Phase 3: compose and anchor.
    let associations = match compose(&query, outputs) {
        Ok(QueryAnswer::Associations(associations)) => associations,
        Ok(other) => return Err(PipelineError::Compose(format!("a GWAS composed {other}"))),
        Err(e) => return Err(PipelineError::Compose(e.to_string())),
    };
    let mut digest_material = Vec::new();
    for a in &associations {
        digest_material.extend_from_slice(&(a.snp as u64).to_le_bytes());
        digest_material.extend_from_slice(&a.chi_square.to_le_bytes());
    }
    let root = Hash256::digest(&digest_material);
    let label = format!("gwas/{outcome_code}/{}", net.home_ledger().height());
    let anchor = net.submit(requester_site, TxPayload::Anchor { root, label }, 1_000)?;
    net.confirm(&anchor)?;

    let report = GwasPipelineReport {
        permitted: permitted.len(),
        denied,
        cases,
        controls,
        bytes_returned,
    };
    Ok((associations, report))
}
