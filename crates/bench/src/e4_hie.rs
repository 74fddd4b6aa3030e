//! **E4** — auditable HIE versus the secure-email baseline (paper
//! §III-B / Fig. 2): with the blockchain exchange every disputed
//! transfer is blame-assignable and every tampered audit log detected;
//! with opaque email, nothing is.

use crate::report::{bytes, f, Table};
use medchain_chain::Address;
use medchain_hie::{AuditAction, BlameVerdict, EmailAuditOutcome, EmailExchange, HieNetwork};
use medchain_runtime::metrics::Metrics;
use medchain_runtime::DetRng;

/// Outcome counts for one transport.
#[derive(Debug, Default, Clone, Copy)]
struct TransportOutcome {
    completed: usize,
    disputes: usize,
    blame_assigned: usize,
    blame_unknown: usize,
    bytes_moved: u64,
}

fn drive_hie(
    exchanges: usize,
    fail_rate: f64,
    seed: u64,
    metrics: &Metrics,
) -> TransportOutcome {
    let mut rng = DetRng::from_seed(seed);
    let mut net = HieNetwork::new();
    net.set_metrics(metrics.clone());
    let sites: Vec<Address> = (0..6).map(|i| Address::from_seed(i as u64)).collect();
    for (i, site) in sites.iter().enumerate() {
        net.enroll(*site, format!("site-key-{i}").as_bytes());
    }
    let mut outcome = TransportOutcome::default();
    let records: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 64]).collect();
    for k in 0..exchanges {
        let owner = sites[k % sites.len()];
        let requester = sites[(k + 1) % sites.len()];
        let now = (k as u64) * 10;
        let id = net.request(requester, owner, &format!("ds-{k}"), now).expect("request");
        net.approve(owner, id, now + 1).expect("approve");
        // Inject failures: the owner silently fails to deliver.
        if rng.gen_bool(fail_rate) {
            net.dispute(requester, id, now + 9).expect("dispute");
            outcome.disputes += 1;
        } else {
            net.deliver(owner, id, &records, now + 2).expect("deliver");
            net.acknowledge(requester, id, now + 3).expect("ack");
            outcome.completed += 1;
        }
        match net.assign_blame(id) {
            BlameVerdict::Unknown => outcome.blame_unknown += 1,
            BlameVerdict::Completed => {}
            _ => outcome.blame_assigned += 1,
        }
    }
    outcome.bytes_moved = net.stats().bytes_moved;
    assert_eq!(net.trail().verify(), None, "audit chain intact");
    // Every exchange step was audited.
    assert!(net
        .trail()
        .entries()
        .iter()
        .any(|e| e.action == AuditAction::Requested));
    outcome
}

fn drive_email(exchanges: usize, fail_rate: f64, seed: u64) -> TransportOutcome {
    let mut rng = DetRng::from_seed(seed);
    let mut email = EmailExchange::new();
    let sites: Vec<Address> = (0..6).map(|i| Address::from_seed(i as u64)).collect();
    let records: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 64]).collect();
    let mut outcome = TransportOutcome::default();
    for k in 0..exchanges {
        let owner = sites[k % sites.len()];
        let requester = sites[(k + 1) % sites.len()];
        if rng.gen_bool(fail_rate) {
            // Owner never sends; the dispute goes nowhere.
            outcome.disputes += 1;
            match email.audit(owner, requester, &format!("ds-{k}")) {
                EmailAuditOutcome::NoRecord | EmailAuditOutcome::Inconclusive => {
                    outcome.blame_unknown += 1
                }
            }
        } else {
            email.send(owner, requester, &format!("ds-{k} export"), &records);
            outcome.completed += 1;
        }
    }
    outcome.bytes_moved = email.bytes_moved();
    outcome
}

/// Runs E4 with the HIE network reporting `hie.*` counters (requests,
/// completed, denied, disputed, bytes_moved) into `metrics`.
pub fn run_e4(quick: bool, metrics: Metrics) -> Table {
    let exchanges = if quick { 60 } else { 400 };
    let fail_rate = 0.2;
    let hie = drive_hie(exchanges, fail_rate, 44, &metrics);
    let email = drive_email(exchanges, fail_rate, 44);
    let mut table = Table::new(
        "E4",
        &format!("HIE data sharing, {exchanges} exchanges, {:.0}% delivery failures", fail_rate * 100.0),
        &[
            "transport",
            "completed",
            "disputes",
            "blame assigned",
            "blame unknown",
            "blame rate",
            "bytes",
        ],
    );
    for (name, o) in [("blockchain HIE", hie), ("secure e-mail", email)] {
        let blame_rate = if o.disputes == 0 {
            1.0
        } else {
            o.blame_assigned as f64 / o.disputes as f64
        };
        table.row(vec![
            name.to_string(),
            o.completed.to_string(),
            o.disputes.to_string(),
            o.blame_assigned.to_string(),
            o.blame_unknown.to_string(),
            f(blame_rate),
            bytes(o.bytes_moved),
        ]);
    }
    table.finding(
        "blockchain HIE assigns blame for 100% of disputed exchanges; the e-mail baseline \
         assigns none (the paper's 'government cannot decide which involved parties to blame')"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_blame_gap() {
        let table = run_e4(true, Metrics::noop());
        let hie_blamed: usize = table.rows[0][3].parse().unwrap();
        let email_blamed: usize = table.rows[1][3].parse().unwrap();
        let hie_disputes: usize = table.rows[0][2].parse().unwrap();
        assert!(hie_disputes > 0);
        assert_eq!(hie_blamed, hie_disputes);
        assert_eq!(email_blamed, 0);
    }

    #[test]
    fn e4_metered_reports_hie_counters() {
        let registry = medchain_runtime::metrics::Registry::new();
        let table = run_e4(true, registry.handle());
        assert_eq!(registry.counter_value("hie.requests"), 60);
        let completed: u64 = table.rows[0][1].parse().unwrap();
        let disputed: u64 = table.rows[0][2].parse().unwrap();
        assert_eq!(registry.counter_value("hie.completed"), completed);
        assert_eq!(registry.counter_value("hie.disputed"), disputed);
        assert!(registry.counter_value("hie.bytes_moved") > 0);
    }
}
