//! Light client: verified state reads over the TCP gateway
//! (DESIGN.md §13). A client anchors a record, then queries the
//! authenticated world state for it — the gateway answers with the
//! value plus a sparse-Merkle proof, the client verifies the proof
//! locally, and re-checks it against a committed header root read
//! independently of the gateway. Absence is proven the same way: a
//! never-written key comes back with a verifiable empty/other-leaf
//! path instead of a bare "not found".
//!
//! ```text
//! cargo run --release --example light_client
//! ```

use medchain_repro::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 3-hospital consortium with the ingress gateway on loopback.
    println!("▸ building a 3-hospital consortium with a TCP ingress gateway…");
    let mut builder = Network::builder()
        .block_interval_ms(20)
        .gateway(GatewayConfig { clients: 1, ..GatewayConfig::default() });
    for i in 0..3 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build()?;
    let addr = net.gateway_addr().expect("gateway listening");
    let keys = net.client_keys().to_vec();
    println!("  gateway at {addr}");

    let label = "cohort/oncology-2026";
    let record_root = Hash256::digest(b"tumor-panel batch 17");

    // 2. Anchor the record, then query it back with proof. The network
    //    serves on this thread (it is not Send); the client runs on a
    //    scoped thread.
    let stop = AtomicBool::new(false);
    let (present, absent) = std::thread::scope(|scope| {
        let client_side = scope.spawn(|| {
            let key = &keys[0];
            let mut client = Client::connect(addr).expect("connects");
            let payload = TxPayload::Anchor { root: record_root, label: label.to_string() };
            let tx = Transaction::new(key.address(), 0, payload, 1_000).signed(key);
            let pending = client.submit(&tx, false).expect("accepted");
            let receipt =
                client.wait_receipt(&pending, Duration::from_secs(30)).expect("commits");
            println!("▸ anchored {label:?} at height {}", receipt.height);

            // Inclusion: the gateway must return the anchored value
            // under a proof that folds to the committed state root.
            let leaf = LeafKey::Anchor(label.to_string());
            let present = client.query_proven(&leaf).expect("verified state read");
            assert_eq!(present.value.as_deref(), Some(record_root.0.as_slice()));

            // Absence: a label never written is *provably* absent.
            let missing = LeafKey::Anchor("cohort/withdrawn".to_string());
            let absent = client.query_proven(&missing).expect("verified absence read");
            assert!(absent.value.is_none(), "never-written keys must prove absent");

            stop.store(true, Ordering::Relaxed);
            (present, absent)
        });
        net.serve_until(&stop).expect("serving succeeds");
        client_side.join().expect("client thread")
    });

    // 3. Trustless re-check: both proofs must also verify against the
    //    state root read straight off a validator's committed block —
    //    a root the gateway had no hand in reporting.
    let mut failures = 0;
    for proof in [&present, &absent] {
        let header = &net.ledger().block(proof.height).expect("block retained").header;
        if !proof.verify_against(&header.state_root) {
            failures += 1;
        }
    }
    println!(
        "▸ inclusion proof: {} siblings, {} bytes; absence proof: {} siblings, {} bytes",
        present.proof.siblings.len(),
        present.proof.size_bytes(),
        absent.proof.siblings.len(),
        absent.proof.size_bytes(),
    );
    assert_eq!(failures, 0, "proofs must verify against independently read roots");
    println!("  {failures} proof failures");
    println!("light client round-trip OK: state proven at height {}", present.height);

    net.shutdown();
    Ok(())
}
