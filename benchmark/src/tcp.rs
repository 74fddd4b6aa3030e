//! The TCP load generator and the traced serve loop.
//!
//! One generator thread, one stock `medchain::Client`, strictly
//! request/response (DESIGN.md §10 forbids pipelining), closed loop.
//! Probes fixed this shape (README.md has the numbers):
//!
//! * Two or more closed-loop clients phase-lock with the serve loop's
//!   1 ms idle sleep; an open loop at a rate the system can hold leaves
//!   it mostly idle with a wandering median.
//! * A request is answered by the first `pump` after it arrives, and a
//!   pump that leaves the mempool empty is followed by a 1 ms sleep. A
//!   status poll sent the instant `Accepted` arrives races the pump
//!   that follows the commit: it wins or loses by scheduler wake-up
//!   latency, and identical runs land in either of two modes one idle
//!   period (1.06 ms) apart — medians of 1.55 or 2.65 ms on
//!   `gateway_mem`, flipping between runs.
//!
//! So the generator takes the race out: it first times the fastest
//! commit with immediate polls (the calibration requests, unmeasured),
//! and from then on asks for each receipt a fixed lag after that, which
//! lands the poll in the middle of the sleep that follows the commit.
//! Every measured commit then pays exactly one idle period on the status
//! path, as any client that loses the race does, and the latency moves
//! one for one with the time the program spends committing.

use crate::common::{Layers, Report, Res, Window};
use crate::gen::Op;
use crate::proc;
use crate::stats::Samples;
use crate::trace::Tracer;
use medchain::{Client, GatewayResponse, MedicalNetwork};
use medchain_chain::{StateProof, Transaction, TxReceipt};
use medchain_runtime::metrics::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// A single request may take this long before the run is abandoned.
const OP_TIMEOUT: Duration = Duration::from_secs(20);
/// Requests at the head of the stream that calibrate the poll lag. One
/// snapshot cadence, so a durable run still measures whole cycles.
pub const CALIBRATION_OPS: usize = 64;
/// How long after the fastest calibrated commit a receipt is asked for.
/// With the request's own flight time (about 0.25 ms) this lands the
/// poll for the fastest commit two thirds of the way into the serve
/// loop's 1 ms idle sleep, and for a commit up to 0.7 ms slower (a slow
/// fsync) still inside it.
const POLL_LAG: Duration = Duration::from_micros(450);

/// Requests per window: the snapshot cadence, so that on a durable run
/// every window is one whole snapshot cycle and the run, which looks at
/// the clock only between windows, measures whole cycles however long
/// one takes.
pub const WINDOW_OPS: usize = 64;

/// What the generator thread saw.
pub struct ClientRun {
    /// One per [`WINDOW_OPS`] measured requests; `ops` holds the writes'
    /// latencies, submit → locally verified receipt.
    windows: Vec<Window>,
    /// Request → locally verified `StateProof`, per measured read.
    pub reads: Samples,
    /// Every receipt (calibration included), for the post-run check
    /// against the committed header's `tx_root`.
    pub receipts: Vec<TxReceipt>,
    /// Every proof, for the post-run check against the header root.
    pub proofs: Vec<StateProof>,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub failure: Option<String>,
    /// Status polls sent for measured writes.
    pub polls: u64,
    /// `Accepted` → first status poll, as calibrated.
    pub poll_after: Duration,
    pub tracer: Tracer,
}

/// The generator's side of the hand-over at a window's end: it raises
/// `stop`, which returns the serving thread from its serve loop, and
/// waits until that thread has done the window's in-process work (if
/// the workload has any) and is about to serve again.
struct HandOver<'a> {
    stop: &'a AtomicBool,
    resume: Receiver<()>,
}

impl HandOver<'_> {
    fn at_window_end(&self) -> Result<(), String> {
        self.stop.store(true, Ordering::SeqCst);
        self.resume
            .recv()
            .map_err(|_| "the serving thread ended early".to_string())
    }
}

/// Drives `ops` in order against the gateway at `addr`: the first
/// [`CALIBRATION_OPS`] unmeasured, the rest in windows of
/// [`WINDOW_OPS`] until `seconds` have passed. A failed request ends
/// the run: later transactions of the same sender would wait for ever
/// on the nonce gap.
fn drive(
    addr: SocketAddr,
    ops: &[Op],
    seconds: f64,
    tracer: Tracer,
    hand_over: HandOver,
) -> ClientRun {
    let mut run = ClientRun {
        windows: Vec::new(),
        reads: Samples::new(),
        receipts: Vec::new(),
        proofs: Vec::new(),
        attempted: 0,
        completed: 0,
        failed: 0,
        failure: None,
        polls: 0,
        poll_after: Duration::ZERO,
        tracer,
    };
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.failure = Some(format!("connect: {e}"));
            return run;
        }
    };
    let (calibration, measured) = ops.split_at(CALIBRATION_OPS.min(ops.len()));
    let mut untraced = Tracer::off();
    let mut fastest_commit = None;
    for (i, op) in calibration.iter().enumerate() {
        match request(&mut client, op, i as u64, None, &mut untraced, &mut run) {
            Ok(Done {
                commit_gap: Some(gap),
                ..
            }) => {
                fastest_commit = Some(fastest_commit.map_or(gap, |f: Duration| f.min(gap)));
            }
            Ok(_) => {}
            Err(e) => return fail(run, i, e),
        }
    }
    run.poll_after = fastest_commit.map_or(Duration::ZERO, |gap| gap + POLL_LAG);
    run.polls = 0;

    let mut tracer = std::mem::replace(&mut run.tracer, Tracer::off());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut number = calibration.len();
    for window in measured.chunks_exact(WINDOW_OPS) {
        if start.elapsed() >= budget {
            break;
        }
        let began = Instant::now();
        let mut writes = Vec::with_capacity(WINDOW_OPS);
        for op in window {
            let poll_after = Some(run.poll_after);
            match request(
                &mut client,
                op,
                number as u64,
                poll_after,
                &mut tracer,
                &mut run,
            ) {
                Ok(done) if matches!(op, Op::Write(_)) => writes.push(done.latency),
                Ok(done) => run.reads.push(done.latency),
                Err(e) => {
                    run.tracer = tracer;
                    return fail(run, number, e);
                }
            }
            number += 1;
        }
        let wall = began.elapsed();
        if let Err(e) = hand_over.at_window_end() {
            run.tracer = tracer;
            return fail(run, number, e);
        }
        run.windows.push(Window {
            ops: writes,
            done: WINDOW_OPS as u64,
            wall,
        });
    }
    run.tracer = tracer;
    run
}

fn fail(mut run: ClientRun, index: usize, error: String) -> ClientRun {
    run.failed += 1;
    run.failure = Some(format!("request {index}: {error}"));
    run
}

impl ClientRun {
    /// The gate's first checks, into `report`.
    pub fn check(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.failures.extend(self.failure.clone());
        report.check(self.attempted == self.completed + self.failed, || {
            format!(
                "attempted {} != completed {} + failed {}",
                self.attempted, self.completed, self.failed
            )
        });
    }

    /// Client-side time per transaction, so the generator's own cost is
    /// visible next to the system's.
    pub fn layers(&self, writes: usize) -> Layers {
        let t = &self.tracer;
        let mut layers = Layers::new();
        layers.insert(
            "client.polls_per_tx",
            self.polls as f64 / writes.max(1) as f64,
        );
        layers.insert("client.poll_after_us", self.poll_after.as_secs_f64() * 1e6);
        if t.enabled() {
            layers.insert(
                "client.submit_rtt_us",
                t.durations("client.submit").mean_us(),
            );
            layers.insert(
                "client.status_rtt_us",
                t.durations("client.status").mean_us(),
            );
            layers.insert(
                "client.receipt_verify_us",
                t.durations("client.receipt_verify").mean_us(),
            );
        }
        layers
    }
}

/// What the serving thread is asked to do next.
pub enum Turn<'a> {
    /// Serve requests until the flag is raised.
    Serve(&'a AtomicBool),
    /// The in-process part of a window, if the workload has one, while
    /// the generator waits: returns the operations it completed and the
    /// time they took, which are added to the window.
    InProcess,
}

/// Runs [`drive`] on a thread of its own beside `turn`, which serves on
/// the calling thread (the network is not `Send`) and is handed the
/// in-process part of every window. The windows land in `report`.
pub fn drive_beside(
    addr: SocketAddr,
    ops: &[Op],
    seconds: f64,
    tracer: Tracer,
    report: &mut Report,
    mut turn: impl FnMut(Turn) -> Res<(u64, Duration)>,
) -> Res<ClientRun> {
    let (stop, finished) = (AtomicBool::new(false), AtomicBool::new(false));
    let (resume, resumed) = mpsc::channel();
    let mut in_process = Vec::new();
    let cpu_before = proc::cpu_ms();
    let (served, mut run) = std::thread::scope(|scope| {
        let (stop, finished) = (&stop, &finished);
        let client = scope.spawn(move || {
            let hand_over = HandOver {
                stop,
                resume: resumed,
            };
            let run = drive(addr, ops, seconds, tracer, hand_over);
            finished.store(true, Ordering::SeqCst);
            stop.store(true, Ordering::SeqCst);
            run
        });
        let served = loop {
            if let Err(e) = turn(Turn::Serve(stop)) {
                break Err(e);
            }
            // `finished` is stored before the last `stop`. The serve
            // loops read `stop` relaxed, so a stale `false` here is
            // possible in principle: the send below then fails, and one
            // in-process part ran for no window.
            if finished.load(Ordering::SeqCst) {
                break Ok(());
            }
            match turn(Turn::InProcess) {
                Ok(extra) => in_process.push(extra),
                Err(e) => break Err(e),
            }
            stop.store(false, Ordering::SeqCst);
            if resume.send(()).is_err() {
                break Ok(());
            }
        };
        // Unblocks a generator still waiting at a window's end.
        drop(resume);
        (served, client.join().expect("client thread panicked"))
    });
    served?;
    report.measured(std::mem::take(&mut run.windows), cpu_before);
    for (window, (done, wall)) in report.windows.iter_mut().zip(in_process) {
        window.done += done;
        window.wall += wall;
    }
    Ok(run)
}

struct Done {
    latency: Duration,
    /// `Accepted` received → `Committed` received, for a write.
    commit_gap: Option<Duration>,
}

/// One request, its result checked locally and kept for the post-run
/// check.
fn request(
    client: &mut Client,
    op: &Op,
    number: u64,
    poll_after: Option<Duration>,
    tracer: &mut Tracer,
    run: &mut ClientRun,
) -> Result<Done, String> {
    run.attempted += 1;
    let began = Instant::now();
    let commit_gap = match op {
        Op::Write(tx) => {
            let root = tracer.enter("client.commit", number);
            let result = write(client, tx, number, poll_after, tracer, &mut run.polls);
            tracer.exit(root);
            let (receipt, gap) = result?;
            run.receipts.push(receipt);
            Some(gap)
        }
        Op::Read(key, shard) => {
            let span = tracer.enter("client.query", number);
            let result = client.query_proven_on(key, *shard);
            tracer.exit(span);
            run.proofs.push(result.map_err(|e| e.to_string())?);
            None
        }
    };
    run.completed += 1;
    Ok(Done {
        latency: began.elapsed(),
        commit_gap,
    })
}

/// Submit, wait `poll_after` if given, then poll status back to back
/// and verify the receipt locally — what `Client::wait_receipt` does,
/// with the poll timed as the module documentation explains instead of
/// a 2 ms sleep between polls.
fn write(
    client: &mut Client,
    tx: &Transaction,
    number: u64,
    poll_after: Option<Duration>,
    tracer: &mut Tracer,
    polls: &mut u64,
) -> Result<(TxReceipt, Duration), String> {
    let span = tracer.enter("client.submit", number);
    let pending = client.submit(tx, false);
    tracer.exit(span);
    let pending = pending.map_err(|e| e.to_string())?;
    let accepted = Instant::now();
    if let Some(lag) = poll_after {
        let span = tracer.enter("client.poll_lag", number);
        std::thread::sleep(lag.saturating_sub(accepted.elapsed()));
        tracer.exit(span);
    }
    let deadline = accepted + OP_TIMEOUT;
    loop {
        *polls += 1;
        let span = tracer.enter("client.status", number);
        let reply = client.status(pending.tx_id);
        tracer.exit(span);
        match reply.map_err(|e| e.to_string())? {
            GatewayResponse::Committed { receipt } => {
                let gap = accepted.elapsed();
                let span = tracer.enter("client.receipt_verify", number);
                let ok = receipt.tx_id == pending.tx_id && receipt.verify();
                tracer.exit(span);
                return if ok {
                    Ok((receipt, gap))
                } else {
                    Err(format!(
                        "receipt for {:?} fails its own proof",
                        pending.tx_id
                    ))
                };
            }
            GatewayResponse::Pending { .. } | GatewayResponse::Unknown { .. } => {
                if Instant::now() >= deadline {
                    return Err(format!(
                        "no commit for {:?} in {OP_TIMEOUT:?}",
                        pending.tx_id
                    ));
                }
            }
            other => return Err(format!("unexpected status reply: {other:?}")),
        }
    }
}

/// The traced run's stand-in for `MedicalNetwork::serve_until`: the same
/// loop line for line (pump, advance one block while transactions are
/// pending, else sleep 1 ms, then drain the tail), with a span around
/// each call. "Transactions are pending" is read from replica 0's
/// `mempool.len` gauge on the traced run's sink, which is the number
/// `serve_until` reads directly. It is called once per window; `turns`
/// numbers the loop's turns across the calls.
pub fn serve_traced(
    net: &mut MedicalNetwork,
    stop: &AtomicBool,
    registry: &Registry,
    tracer: &mut Tracer,
    turns: &mut u64,
) -> Res<()> {
    let pending = || registry.gauge_value("mempool.len").unwrap_or(0) > 0;
    while !stop.load(Ordering::Relaxed) {
        *turns += 1;
        let turn_no = *turns;
        let turn = tracer.enter("serve.turn", turn_no);
        let pump = tracer.enter("gateway.pump", turn_no);
        net.pump_gateway();
        tracer.exit(pump);
        if pending() {
            let span = tracer.enter("network.advance", turn_no);
            let advanced = net.advance(1);
            tracer.exit(span);
            advanced.map_err(|e| e.to_string())?;
        } else {
            let span = tracer.enter("serve.idle", turn_no);
            std::thread::sleep(Duration::from_millis(1));
            tracer.exit(span);
        }
        tracer.exit(turn);
    }
    net.pump_gateway();
    while pending() {
        net.advance(1).map_err(|e| e.to_string())?;
        net.pump_gateway();
    }
    Ok(())
}
