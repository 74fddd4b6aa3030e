//! Real-world-evidence clinical trial, end to end (paper §II/§IV):
//! protocol registration with a pre-specified primary outcome,
//! distributed unbiased recruitment from per-site EMR screening,
//! on-chain enrollment, outcome reporting with automatic
//! outcome-switch flagging, falsification detection via Merkle anchors,
//! and streaming post-approval safety monitoring.
//!
//! ```text
//! cargo run --release --example clinical_trial
//! ```

use medchain_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A consortium of five hospitals.
    let mut builder = Network::builder();
    for i in 0..5 {
        let records = CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::varied(i), i as u64)
            .cohort((i * 100_000) as u64, 600, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build()?;
    let trial_contract = net.contracts().trial;

    // 2. Register the trial protocol on-chain with its pre-specified
    //    primary outcome and anchored protocol hash.
    let protocol = TrialProtocol {
        trial_id: "NCT-MEDCHAIN-001".into(),
        sponsor: "asia-university".into(),
        primary_outcome: "stroke-free-survival-1y".into(),
        secondary_outcomes: vec!["readmission-90d".into()],
        eligibility: RecordQuery::all()
            .filter(Predicate::Range { field: Field::Age, min: 55.0, max: 80.0 })
            .filter(Predicate::Flag { field: Field::Diabetic, value: false }),
        target_enrollment: 120,
    };
    let id = net.invoke(
        0,
        trial_contract,
        "register",
        &[
            Value::str(&protocol.trial_id),
            Value::Bytes(protocol.protocol_hash().0.to_vec()),
            Value::str(&protocol.primary_outcome),
        ],
        50_000,
    )?;
    net.confirm(&id)?;
    println!(
        "▸ trial {} registered on-chain, protocol hash {}",
        protocol.trial_id,
        &protocol.protocol_hash().to_hex()[..16]
    );

    // 3. Distributed recruitment: eligibility screening runs at every
    //    site; only pseudonymous summaries of eligible patients leave.
    let screenings: Vec<_> = (0..net.site_count())
        .map(|i| screen_site(&protocol, net.site(i).name(), net.site(i).records()))
        .collect();
    for s in &screenings {
        println!("  {}: screened {}, eligible {}", s.site, s.screened, s.eligible.len());
    }
    let participants = recruit(&protocol, &screenings);
    let spread = diversity(&participants);
    println!(
        "▸ recruited {} participants from {} sites (largest site share {:.0}%, age sd {:.1}) — \
         multi-site recruitment avoids the single-center bias the paper criticizes",
        participants.len(),
        spread.sites,
        spread.max_site_share * 100.0,
        spread.age_sd
    );

    // 4. Enroll each participant on-chain (pseudonymous ids only).
    for p in participants.iter().take(10) {
        let id = net.invoke(
            0,
            trial_contract,
            "enroll",
            &[
                Value::str(&protocol.trial_id),
                Value::Bytes(p.patient_id.to_le_bytes().to_vec()),
            ],
            50_000,
        )?;
        net.confirm(&id)?;
    }
    println!("▸ first 10 participants enrolled on-chain");

    // 5. Outcome reporting: an honest report, then an attempted
    //    outcome switch — flagged automatically by the contract.
    for (outcome, note) in [
        ("stroke-free-survival-1y", "pre-specified primary — accepted"),
        ("quality-of-life-subscore", "NOT pre-specified — flagged as switched"),
    ] {
        let id = net.invoke(
            0,
            trial_contract,
            "report_outcome",
            &[
                Value::str(&protocol.trial_id),
                Value::str(outcome),
                Value::Bytes(Hash256::digest(outcome.as_bytes()).0.to_vec()),
            ],
            50_000,
        )?;
        let receipt = net.confirm(&id)?;
        let switched = medchain_contracts::decode_args(&receipt.output)?[0]
            .as_int()
            .unwrap_or(0);
        println!("  report {outcome:?}: switched={switched} ({note})");
    }
    let id = net.invoke(
        1,
        trial_contract,
        "audit",
        &[Value::str(&protocol.trial_id)],
        50_000,
    )?;
    let receipt = net.confirm(&id)?;
    let audit = medchain_contracts::decode_args(&receipt.output)?;
    println!(
        "▸ on-chain audit: {} reports, {} switched (COMPare found 58/67 trials misreporting)",
        audit[0], audit[1]
    );

    // 6. Post-approval RWE monitoring: the drug's adverse-event rate
    //    rises at day 120; streaming multi-site monitoring catches it
    //    long before the semi-annual batch review.
    let events = simulate_stream(5, 30, 400, 0.02, 0.07, 120, 7);
    let mut monitor = RweMonitor::new(0.02, 4.0, 400);
    let mut detected_at = None;
    for event in &events {
        if let Some(signal) = monitor.observe(*event) {
            detected_at = Some(signal.day);
            break;
        }
    }
    let batch_day = batched_detection_day(&events, 0.02, 4.0, 400, 180);
    println!(
        "▸ RWE safety signal: streaming detected at day {:?}, semi-annual batch review at day \
         {:?} — the near-real-time monitoring the FDA vision requires",
        detected_at, batch_day
    );
    Ok(())
}
