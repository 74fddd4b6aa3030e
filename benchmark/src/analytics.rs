//! `analytics_job`: the paper's headline path — a thin on-chain
//! request, off-chain executors running in parallel next to the data,
//! and only the result hash back on-chain (`run_transformed`).
//!
//! Two transactions per job, so chain-layer changes should **not** move
//! it: it is the control workload, while `offchain` and `modes.rs`
//! changes show only here.

use crate::common::{Env, Layers, Report, Res, Window, SITES};
use crate::proc;
use crate::stats::Samples;
use crate::trace::Tracer;
use medchain::{
    run_duplicated, run_transformed, run_transformed_metered, ExecutionMode, ModeReport,
};
use medchain_runtime::metrics::Registry;
use std::time::{Duration, Instant};

/// Work units per job: about 80 ms of off-chain SHA-256 kernel work
/// spread over four executors on the two-core sandbox the design was
/// probed on.
const WORK_UNITS: u64 = 400_000;
/// Jobs per window (about a third of a second).
const JOBS_PER_WINDOW: usize = 4;

pub struct Analytics {
    duplicated: ModeReport,
}

pub fn setup(env: &Env) -> Res<Analytics> {
    // One duplicated job (every replica burns the whole job on-chain)
    // for the duplication figures, and one transformed warm-up.
    let duplicated = run_duplicated(SITES, WORK_UNITS, env.seed).map_err(|e| e.to_string())?;
    run_transformed(SITES, WORK_UNITS, env.seed).map_err(|e| e.to_string())?;
    Ok(Analytics { duplicated })
}

impl Analytics {
    pub fn run(self, env: &Env, tracer: &mut Tracer) -> Res<Report> {
        let mut report = Report::default();
        let mut task_ms = Samples::new();
        let mut onchain_ms = Vec::new();
        let mut factor = 0.0;
        let budget = Duration::from_secs_f64(env.seconds);
        let mut windows = Vec::new();
        let cpu_before = proc::cpu_ms();
        let started = Instant::now();
        let mut job = 0u64;
        'windows: while started.elapsed() < budget {
            let began = Instant::now();
            let mut ops = Vec::with_capacity(JOBS_PER_WINDOW);
            for _ in 0..JOBS_PER_WINDOW {
                job += 1;
                report.attempted += 1;
                let seed = env.seed.wrapping_add(job);
                let span = tracer.enter("modes.run_transformed", job);
                // A sink of the job's own, so the slowest task is this
                // job's slowest task.
                let sink = tracer.enabled().then(Registry::new);
                let outcome = match &sink {
                    Some(sink) => run_transformed_metered(SITES, WORK_UNITS, seed, sink.handle()),
                    None => run_transformed(SITES, WORK_UNITS, seed),
                };
                tracer.exit(span);
                let done = match outcome {
                    Ok(done) => done,
                    Err(e) => {
                        report.failed += 1;
                        report.failures.push(format!("job {job}: {e}"));
                        break 'windows;
                    }
                };
                report.check(
                    done.mode == ExecutionMode::TransformedParallel
                        && done.nodes == SITES
                        && done.work_units == WORK_UNITS
                        && done.total_gas >= WORK_UNITS
                        && done.duplication_factor() < 1.2,
                    || format!("job {job}: implausible report {done:?}"),
                );
                ops.push(done.wall);
                factor = done.duplication_factor();
                if let Some(tasks) = sink.and_then(|s| s.histogram("offchain.task_ms")) {
                    task_ms.push(Duration::from_secs_f64(tasks.mean() / 1e3));
                    onchain_ms.push(done.wall.as_secs_f64() * 1e3 - tasks.max);
                }
            }
            windows.push(Window {
                done: ops.len() as u64,
                ops,
                wall: began.elapsed(),
            });
        }
        report.measured(windows, cpu_before);
        let (attempted, done, failed) = (report.attempted, report.done(), report.failed);
        report.check(attempted == done + failed, || {
            format!("attempted {attempted} != completed {done} + failed {failed}")
        });
        report.notes.push(format!("job samples {}", report.done()));
        report.check(
            self.duplicated.duplication_factor() > SITES as f64 * 0.9,
            || format!("duplicated mode did not duplicate: {:?}", self.duplicated),
        );

        let mut layers = Layers::new();
        layers.insert(
            "modes.duplicated_job_ms",
            self.duplicated.wall.as_secs_f64() * 1e3,
        );
        layers.insert("modes.duplication_factor", factor);
        layers.insert("offchain.task_ms_mean", task_ms.mean_ms());
        layers.insert(
            "modes.onchain_ms_per_job",
            crate::stats::median(&onchain_ms),
        );
        report.layers = layers;
        Ok(report)
    }
}
