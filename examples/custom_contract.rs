//! Writing your own smart contract: the paper's architecture supports
//! arbitrary user-created Turing-complete contract code (§I). This
//! example authors a consent-ledger contract in MedChain assembly,
//! deploys it to a live consortium, and exercises it — including the
//! on-chain duplicated execution that motivates the whole paper.
//!
//! ```text
//! cargo run --release --example custom_contract
//! ```

use medchain_repro::prelude::*;

/// A consent tally in assembly: method 0 records a consent (increments a
/// per-patient counter and a global counter, emits an event), method 1
/// reads the global tally. Counters are stored as 8-byte little-endian
/// integers; absent slots load as empty bytes, so each increment first
/// branches on presence.
const CONSENT_CONTRACT: &str = r#"
        ; arg0 = method (0 = consent, 1 = tally)
        arg 0
        jumpif read_tally

        ; --- record consent: arg1 = patient pseudonym (bytes) ---
        ; per-patient counter: storage["p/" ++ arg1] += 1
        pushb "p/"
        arg 1
        concat              ; [key]
        dup 0
        sload               ; [key, old_bytes]
        dup 0
        len                 ; [key, old_bytes, old_len]
        jumpif patient_has_old
        pop                 ; [key]  (drop empty bytes)
        push 0              ; [key, 0]
        jump patient_inc
patient_has_old:
        btoi                ; [key, old_count]
patient_inc:
        push 1
        add
        itob                ; [key, new_bytes]
        sstore

        ; global tally: storage["total"] += 1
        pushb "total"
        pushb "total"
        sload
        dup 0
        len
        jumpif total_has_old
        pop
        push 0
        jump total_inc
total_has_old:
        btoi
total_inc:
        push 1
        add
        itob
        sstore

        ; emit ConsentRecorded(patient)
        pushb "ConsentRecorded"
        arg 1
        emit

        push 1
        halt

read_tally:
        pushb "total"
        sload               ; [bytes or empty]
        dup 0
        len
        jumpif tally_present
        pop
        push 0
        halt
tally_present:
        btoi
        halt
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2-hospital consortium.
    let mut builder = Network::builder();
    for i in 0..2 {
        let records = CohortGenerator::new(&format!("hospital-{i}"), SiteProfile::default(), i as u64)
            .cohort((i * 1_000) as u64, 25, &DiseaseModel::stroke());
        builder = builder.site(&format!("hospital-{i}"), records);
    }
    let mut net = builder.build()?;

    // Assemble and show the program.
    let program = assemble(CONSENT_CONTRACT)?;
    println!("assembled {} instructions:\n{}\n", program.len(), disassemble(&program));

    // Deploy: the bytecode replicates to every node's ledger.
    let deploy = net.submit(
        0,
        TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
        100_000,
    )?;
    let receipt = net.confirm(&deploy)?;
    let mut addr = [0u8; 20];
    addr.copy_from_slice(&receipt.output);
    let contract = medchain_chain::Address(addr);
    println!("deployed at {contract:?} (gas {})", receipt.gas_used);

    // Record consents from both hospitals — every node executes the same
    // bytecode at commit (the duplicated computing the paper reforms).
    for (site, patient) in [(0usize, "patient-007"), (1, "patient-042"), (0, "patient-007")] {
        let invoke = net.submit(
            site,
            TxPayload::Invoke {
                contract,
                input: encode_args(&[Value::Int(0), Value::str(patient)]),
            },
            10_000,
        )?;
        net.confirm(&invoke)?;
        let receipt = net.receipt(&invoke.tx_id).ok_or("confirmed receipt")?;
        println!(
            "consent from {patient} via hospital-{site}: event {:?}, gas {}",
            receipt.events[0].topic, receipt.gas_used
        );
    }

    // Read the tally.
    let query = net.submit(
        1,
        TxPayload::Invoke { contract, input: encode_args(&[Value::Int(1)]) },
        10_000,
    )?;
    let receipt = net.confirm(&query)?;
    let tally = decode_args(&receipt.output)?[0].as_int()?;
    println!("\nglobal consent tally on-chain: {tally} (expected 3)");

    // Per-patient counters live in replicated contract storage.
    let stored = net
        .ledger()
        .state()
        .storage(&contract, b"p/patient-007")
        .map(|b| i64::from_le_bytes(b.try_into().unwrap()));
    println!("patient-007 counter in world state: {stored:?} (expected Some(2))");
    assert_eq!(tally, 3);
    assert_eq!(stored, Some(2));

    // All replicas agree — byte-for-byte — because they all ran it.
    let roots: Vec<_> = (0..2).map(|i| net.ledger_of(i).state().state_root()).collect();
    assert_eq!(roots[0], roots[1]);
    println!("state roots agree across replicas: {}", &roots[0].to_hex()[..16]);
    Ok(())
}
