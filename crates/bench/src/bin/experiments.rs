//! Experiment runner: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p medchain-bench --bin experiments           # all, full size
//! cargo run --release -p medchain-bench --bin experiments -- --quick
//! cargo run --release -p medchain-bench --bin experiments -- e1 e8  # subset
//! ```
//!
//! Every layer reports to one metrics registry; set
//! `MEDCHAIN_METRICS_TSV=<path>` to dump its counters/gauges/histograms
//! as TSV to `<path>` when the run finishes.

use medchain_bench::{run_experiment, EXPERIMENTS};
use medchain_runtime::metrics::{GaugeSnapshotter, Registry};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(String::as_str)
        .collect();
    let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    let to_run: Vec<&str> = if selected.is_empty() {
        all
    } else {
        for id in &selected {
            assert!(all.contains(id), "unknown experiment {id:?}; valid: {all:?}");
        }
        selected
    };
    println!(
        "MedChain experiment harness — {} experiment(s), {} profile",
        to_run.len(),
        if quick { "quick" } else { "full" }
    );
    let tsv_path = std::env::var("MEDCHAIN_METRICS_TSV").ok();
    let registry = Registry::default();
    // One gauge snapshot per experiment boundary: the event log keeps
    // the trajectory of queue depths etc. across the run, not just the
    // last-written values.
    let mut snapshotter = GaugeSnapshotter::new(registry.clone(), 1);
    for id in to_run {
        println!("{}", run_experiment(id, quick, registry.handle()));
        snapshotter.tick();
    }
    if let Some(path) = tsv_path {
        std::fs::write(&path, registry.to_tsv())
            .unwrap_or_else(|e| panic!("writing metrics TSV to {path:?}: {e}"));
        eprintln!("metrics TSV written to {path}");
    }
}
