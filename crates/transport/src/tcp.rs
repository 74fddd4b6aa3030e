//! Real-socket transport: `std::net` TCP on loopback or a LAN.
//!
//! Every node gets its own listener; messages travel as the frames of
//! [`crate::frame`], the one socket layer the ingress gateway shares. One
//! writer thread per *directed* peer link connects lazily with
//! exponential backoff and reconnects on write failure; one reader thread
//! per accepted connection reassembles frames and feeds a single shared
//! inbox. Timers stay local (a wall-clock heap) so protocol code sees
//! exactly the same [`Event`](crate::Event) stream the simulator
//! produces — just in real time over real bytes.

use crate::frame;
use crate::{Event, NetStats, NodeId, Transport, Wire};
use medchain_runtime::codec::{Decode, Encode};
use medchain_runtime::metrics::Metrics;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::marker::PhantomData;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fixed per-message framing cost: the `[u32 len LE]` prefix of
/// [`crate::frame`] plus the `[u64 from LE]` sender that opens a
/// consensus body.
pub const FRAME_OVERHEAD: usize = frame::LEN_BYTES + 8;

/// Largest consensus frame body (sender plus payload) a reader accepts:
/// a corrupt length prefix must not allocate unbounded memory.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Default bound on each directed writer link's frame queue.
pub const DEFAULT_WRITER_QUEUE_CAP: usize = 1024;

/// Environment variable naming the consortium's socket addresses as a
/// comma-separated list (one per node, in node-id order), e.g.
/// `MEDCHAIN_TCP_ADDRS=10.0.0.1:9701,10.0.0.2:9701,10.0.0.3:9701`.
/// Read by [`TcpTransport::bind_from_env`].
pub const TCP_ADDRS_ENV: &str = "MEDCHAIN_TCP_ADDRS";

/// Raw inbound record: `(from, to, payload)`.
type Inbound = (NodeId, NodeId, Vec<u8>);

struct LinkQueueState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// Bounded frame queue for one directed writer link.
///
/// A slow or partitioned peer must not grow the queue without limit (the
/// failure mode of the old unbounded `mpsc::channel` links): when full,
/// the *oldest* frame is discarded — consensus traffic is superseded by
/// newer rounds, so fresh frames are worth more than stale ones — and the
/// discard is surfaced through [`NetStats::backpressure`].
struct LinkQueue {
    state: Mutex<LinkQueueState>,
    ready: Condvar,
    cap: usize,
}

impl LinkQueue {
    fn new(cap: usize) -> LinkQueue {
        LinkQueue {
            state: Mutex::new(LinkQueueState { frames: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Enqueues a frame. Returns how many old frames were discarded to
    /// make room, or `None` if the queue is closed.
    fn push(&self, frame: Vec<u8>) -> Option<u64> {
        let mut state = self.state.lock().expect("link queue poisoned");
        if state.closed {
            return None;
        }
        let mut discarded = 0;
        while state.frames.len() >= self.cap {
            state.frames.pop_front();
            discarded += 1;
        }
        state.frames.push_back(frame);
        drop(state);
        self.ready.notify_one();
        Some(discarded)
    }

    /// Blocks for the next frame; `None` once closed and drained.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut state = self.state.lock().expect("link queue poisoned");
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Some(frame);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("link queue poisoned");
        }
    }

    /// Closes the queue and wakes the writer (it drains, then exits).
    fn close(&self) {
        self.state.lock().expect("link queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Current number of queued frames.
    fn depth(&self) -> usize {
        self.state.lock().expect("link queue poisoned").frames.len()
    }
}

/// Parses a comma-separated socket-address list (the
/// [`TCP_ADDRS_ENV`] format). Whitespace around entries is ignored.
pub fn parse_addr_list(raw: &str) -> Result<Vec<SocketAddr>, String> {
    raw.split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(|entry| entry.parse::<SocketAddr>().map_err(|e| format!("bad address {entry:?}: {e}")))
        .collect()
}

/// Frames one consensus message: a body of `[u64 from LE][payload]`,
/// [`FRAME_OVERHEAD`] bytes more than the payload on the wire.
pub fn consensus_frame(from: NodeId, payload: &[u8]) -> Vec<u8> {
    frame::encode_frame(&[&(from.0 as u64).to_le_bytes(), payload])
}

/// Splits a consensus frame body into its sender and payload. `None`
/// when the body is shorter than a sender or names no node of a
/// `node_count`-node consortium: the peer is not speaking the protocol.
pub fn split_sender(mut body: Vec<u8>, node_count: usize) -> Option<(NodeId, Vec<u8>)> {
    let from = u64::from_le_bytes(*body.first_chunk::<8>()?);
    let from = usize::try_from(from).ok().filter(|&from| from < node_count)?;
    body.drain(..8);
    Some((NodeId(from), body))
}

/// Connects to `addr` with exponential backoff until it succeeds or
/// shutdown is requested.
fn connect_backoff(addr: SocketAddr, shutdown: &AtomicBool) -> Option<TcpStream> {
    let mut wait = Duration::from_millis(1);
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return None;
        }
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Some(stream);
            }
            Err(_) => {
                std::thread::sleep(wait);
                wait = (wait * 2).min(Duration::from_millis(100));
            }
        }
    }
}

/// Ships pre-framed bytes for one directed link, reconnecting on error.
fn writer_loop(
    addr: SocketAddr,
    frames: Arc<LinkQueue>,
    shutdown: Arc<AtomicBool>,
    metrics: Metrics,
) {
    let mut conn: Option<TcpStream> = None;
    'frames: while let Some(frame) = frames.pop() {
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return;
            }
            if conn.is_none() {
                conn = connect_backoff(addr, &shutdown);
            }
            let Some(stream) = conn.as_mut() else {
                return; // shutdown while reconnecting
            };
            match stream.write_all(&frame) {
                Ok(()) => continue 'frames,
                Err(_) => {
                    // Reconnect and retry this frame.
                    conn = None;
                    metrics.counter("transport.reconnects", 1);
                }
            }
        }
    }
    if let Some(stream) = conn {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Transport over real TCP sockets with wall-clock time.
///
/// All `node_count` endpoints are hosted in one process; each binds a
/// loopback listener. A message travels as the frame
/// `[u32 len LE][u64 from LE][payload]`, where `len` counts the sender
/// and the payload and `payload` is the message's canonical [`Encode`]
/// bytes, so every frame costs exactly [`FRAME_OVERHEAD`]` +
/// msg.wire_size()` bytes.
///
/// [`Transport::next`] returns `None` only after no event arrives within
/// the idle window (default 200 ms) with no timers outstanding — the
/// socket analogue of the simulator quiescing.
pub struct TcpTransport<M> {
    node_count: usize,
    addrs: Vec<SocketAddr>,
    start: Instant,
    /// Lazily created per directed link `(from, to)`.
    writers: HashMap<(usize, usize), Arc<LinkQueue>>,
    /// Frame-queue bound of each newly created writer link. A full
    /// queue discards its oldest frame, counted in
    /// [`NetStats::backpressure`].
    writer_queue_cap: usize,
    inbox: Receiver<Inbound>,
    /// Kept so the inbox never disconnects while the transport lives
    /// (also used for zero-copy self-sends).
    inbox_tx: Sender<Inbound>,
    timers: BinaryHeap<Reverse<(u64, u64, usize, u64)>>,
    timer_seq: u64,
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
    stats: NetStats,
    framed_bytes: u64,
    metrics: Metrics,
    /// How long [`Transport::next`] waits with no timers outstanding
    /// before concluding the network has quiesced.
    idle_timeout: Duration,
    down: bool,
    _msg: PhantomData<M>,
}

impl<M: Wire + Clone + Encode + Decode> TcpTransport<M> {
    /// Binds `node_count` loopback listeners on OS-assigned ports and
    /// starts their acceptor threads — the single-host convenience
    /// constructor. See [`TcpTransport::bind_from_env`] for explicit
    /// addresses through [`TCP_ADDRS_ENV`].
    pub fn bind(node_count: usize) -> std::io::Result<TcpTransport<M>> {
        let loopback: SocketAddr = (IpAddr::V4(Ipv4Addr::LOCALHOST), 0).into();
        Self::bind_at(&vec![loopback; node_count])
    }

    /// Binds one listener per entry of `bind_addrs` (index = node id)
    /// and starts their acceptor threads.
    ///
    /// Port 0 asks the OS for a free port; the actually-bound port is
    /// what peers dial. An unspecified bind IP (`0.0.0.0` / `::`)
    /// listens on every interface but is not dialable, so the advertised
    /// peer address falls back to loopback on the bound port.
    fn bind_at(bind_addrs: &[SocketAddr]) -> std::io::Result<TcpTransport<M>> {
        let node_count = bind_addrs.len();
        let (inbox_tx, inbox) = mpsc::channel();
        // Built first, so a failed bind drops it and its `Drop` stops
        // the acceptors already started.
        let mut transport = TcpTransport {
            node_count,
            addrs: Vec::with_capacity(node_count),
            start: Instant::now(),
            writers: HashMap::new(),
            writer_queue_cap: DEFAULT_WRITER_QUEUE_CAP,
            inbox,
            inbox_tx,
            timers: BinaryHeap::new(),
            timer_seq: 0,
            shutdown: Arc::new(AtomicBool::new(false)),
            handles: Vec::with_capacity(node_count),
            stats: NetStats::default(),
            framed_bytes: 0,
            metrics: Metrics::noop(),
            idle_timeout: Duration::from_millis(200),
            down: false,
            _msg: PhantomData,
        };
        for (i, bind_addr) in bind_addrs.iter().enumerate() {
            let inbox = transport.inbox_tx.clone();
            let stop = Arc::clone(&transport.shutdown);
            let (local, acceptor) =
                frame::listen(*bind_addr, Arc::clone(&transport.shutdown), move |stream| {
                    frame::read_frames(stream, MAX_FRAME, &stop, |body| {
                        match split_sender(body, node_count) {
                            Some((from, payload)) => inbox.send((from, NodeId(i), payload)).is_ok(),
                            None => false,
                        }
                    })
                })?;
            transport.handles.push(acceptor);
            let advertised = if local.ip().is_unspecified() {
                let loopback = match local.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                };
                SocketAddr::new(loopback, local.port())
            } else {
                local
            };
            transport.addrs.push(advertised);
        }
        Ok(transport)
    }

    /// Binds per the [`TCP_ADDRS_ENV`] environment variable when set
    /// (comma-separated, one address per node, in node-id order), falling
    /// back to [`TcpTransport::bind`]'s loopback defaults otherwise.
    pub fn bind_from_env(node_count: usize) -> std::io::Result<TcpTransport<M>> {
        match std::env::var(TCP_ADDRS_ENV) {
            Ok(raw) if !raw.trim().is_empty() => {
                let addrs = parse_addr_list(&raw).map_err(|e| {
                    std::io::Error::new(ErrorKind::InvalidInput, format!("{TCP_ADDRS_ENV}: {e}"))
                })?;
                if addrs.len() != node_count {
                    return Err(std::io::Error::new(
                        ErrorKind::InvalidInput,
                        format!(
                            "{TCP_ADDRS_ENV} names {} addresses but the cluster has {} nodes",
                            addrs.len(),
                            node_count
                        ),
                    ));
                }
                Self::bind_at(&addrs)
            }
            _ => Self::bind(node_count),
        }
    }

    /// Socket addresses of the hosted endpoints (index = node id).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Installs a metrics handle; `transport.*` counters report there.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = metrics;
    }

    /// Total bytes actually framed onto sockets: payload bytes plus
    /// [`FRAME_OVERHEAD`] per message.
    pub fn framed_bytes(&self) -> u64 {
        self.framed_bytes
    }

    fn writer(&mut self, from: usize, to: usize) -> Arc<LinkQueue> {
        let addr = self.addrs[to];
        let shutdown = Arc::clone(&self.shutdown);
        let metrics = self.metrics.clone();
        let cap = self.writer_queue_cap;
        let handles = &mut self.handles;
        Arc::clone(self.writers.entry((from, to)).or_insert_with(|| {
            let queue = Arc::new(LinkQueue::new(cap));
            let writer_queue = Arc::clone(&queue);
            handles.push(std::thread::spawn(move || {
                writer_loop(addr, writer_queue, shutdown, metrics)
            }));
            queue
        }))
    }
}

impl<M: Wire + Clone + Encode + Decode> Transport<M> for TcpTransport<M> {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let payload = msg.encoded();
        debug_assert_eq!(
            payload.len(),
            msg.wire_size(),
            "wire_size must equal canonical encoded length"
        );
        self.stats.sent += 1;
        self.stats.bytes += payload.len() as u64;
        self.framed_bytes += (FRAME_OVERHEAD + payload.len()) as u64;
        self.metrics.counter("transport.sent", 1);
        self.metrics.counter("transport.bytes", payload.len() as u64);
        if self.down {
            self.stats.dropped += 1;
            self.metrics.counter("transport.dropped", 1);
            return;
        }
        if from == to {
            // Local delivery: skip the sockets but keep byte accounting.
            let _ = self.inbox_tx.send((from, to, payload));
            return;
        }
        let queue = self.writer(from.0, to.0);
        match queue.push(consensus_frame(from, &payload)) {
            Some(discarded) => {
                if discarded > 0 {
                    self.stats.dropped += discarded;
                    self.stats.backpressure += discarded;
                    self.metrics.counter("transport.dropped", discarded);
                    self.metrics.counter("transport.backpressure_drops", discarded);
                }
                self.metrics.observe("transport.queue_depth", queue.depth() as f64);
            }
            None => {
                self.stats.dropped += 1;
                self.metrics.counter("transport.dropped", 1);
            }
        }
    }

    fn set_timer(&mut self, node: NodeId, at_ms: u64, token: u64) {
        let at = at_ms.max(self.now_ms());
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Reverse((at, seq, node.0, token)));
    }

    fn next(&mut self) -> Option<(u64, Event<M>)> {
        loop {
            let now = self.now_ms();
            // Fire a due timer before waiting on the sockets.
            if let Some(&Reverse((at, _, node, token))) = self.timers.peek() {
                if at <= now {
                    self.timers.pop();
                    return Some((at, Event::Timer { node: NodeId(node), token }));
                }
            }
            if self.down {
                return None;
            }
            // Wait for a frame until the earliest timer deadline, or for
            // the idle window when no timers are outstanding.
            let wait = match self.timers.peek() {
                Some(&Reverse((at, ..))) => Duration::from_millis(at - now),
                None => self.idle_timeout,
            };
            match self.inbox.recv_timeout(wait) {
                Ok((from, to, payload)) => match M::decoded(&payload) {
                    Ok(msg) => {
                        self.stats.delivered += 1;
                        self.metrics.counter("transport.delivered", 1);
                        return Some((self.now_ms(), Event::Message { from, to, msg }));
                    }
                    Err(_) => {
                        self.stats.dropped += 1;
                        self.metrics.counter("transport.dropped", 1);
                        continue;
                    }
                },
                Err(RecvTimeoutError::Timeout) => {
                    if self.timers.is_empty() {
                        return None; // quiesced: idle window elapsed
                    }
                    // Loop back around to fire the now-due timer.
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn shutdown(&mut self) {
        self.stop();
    }
}

impl<M> TcpTransport<M> {
    /// Stops every thread the transport started and waits for them;
    /// later sends are dropped. [`Transport::shutdown`] and `Drop` both
    /// land here.
    fn stop(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shutdown.store(true, Ordering::Relaxed);
        for queue in self.writers.values() {
            queue.close(); // wakes blocked writers → they exit
        }
        self.writers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M> Drop for TcpTransport<M> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::impl_codec_struct;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping {
        id: u64,
        note: String,
    }
    impl_codec_struct!(Ping { id, note });
    impl Wire for Ping {
        fn wire_size(&self) -> usize {
            self.encoded().len()
        }
    }

    fn drain(t: &mut TcpTransport<Ping>, expect: usize) -> Vec<(NodeId, NodeId, Ping)> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < expect && Instant::now() < deadline {
            if let Some((_, Event::Message { from, to, msg })) = t.next() {
                got.push((from, to, msg));
            }
        }
        got
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let mut t = TcpTransport::<Ping>::bind(3).unwrap();
        t.send(NodeId(0), NodeId(1), Ping { id: 1, note: "a".into() });
        t.send(NodeId(2), NodeId(1), Ping { id: 2, note: "bb".into() });
        t.send(NodeId(1), NodeId(0), Ping { id: 3, note: String::new() });
        let mut got = drain(&mut t, 3);
        got.sort_by_key(|(_, _, m)| m.id);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (NodeId(0), NodeId(1), Ping { id: 1, note: "a".into() }));
        assert_eq!(got[1].2.note, "bb");
        assert_eq!(got[2].0, NodeId(1));
        let stats = t.stats();
        assert_eq!(stats.sent, 3);
        assert_eq!(stats.delivered, 3);
        assert_eq!(t.framed_bytes(), stats.bytes + 3 * FRAME_OVERHEAD as u64);
        t.shutdown();
    }

    #[test]
    fn broadcast_reaches_all_other_nodes() {
        let mut t = TcpTransport::<Ping>::bind(4).unwrap();
        t.broadcast(NodeId(2), Ping { id: 7, note: "hi".into() });
        let mut got = drain(&mut t, 3);
        let mut recipients: Vec<usize> = got.drain(..).map(|(_, to, _)| to.0).collect();
        recipients.sort_unstable();
        assert_eq!(recipients, vec![0, 1, 3]);
        t.shutdown();
    }

    #[test]
    fn ordering_is_fifo_per_directed_link() {
        let mut t = TcpTransport::<Ping>::bind(2).unwrap();
        for id in 0..50 {
            t.send(NodeId(0), NodeId(1), Ping { id, note: "x".repeat((id % 7) as usize) });
        }
        let got = drain(&mut t, 50);
        let ids: Vec<u64> = got.iter().map(|(_, _, m)| m.id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>(), "TCP link must preserve send order");
        t.shutdown();
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let mut t = TcpTransport::<Ping>::bind(1).unwrap();
        let now = Transport::<Ping>::now_ms(&t);
        t.set_timer(NodeId(0), now + 30, 2);
        t.set_timer(NodeId(0), now + 5, 1);
        let (at1, e1) = t.next().unwrap();
        let (at2, e2) = t.next().unwrap();
        assert!(matches!(e1, Event::Timer { token: 1, .. }));
        assert!(matches!(e2, Event::Timer { token: 2, .. }));
        assert!(at1 <= at2);
        t.shutdown();
    }

    #[test]
    fn idle_transport_quiesces() {
        let mut t = TcpTransport::<Ping>::bind(2).unwrap();
        t.idle_timeout = Duration::from_millis(30);
        assert!(t.next().is_none());
        t.shutdown();
    }

    /// A frame whose sender names no node ends its connection before
    /// anything reaches the inbox; an honest connection still delivers.
    #[test]
    fn a_frame_from_no_member_ends_its_connection() {
        let mut t = TcpTransport::<Ping>::bind(2).unwrap();
        t.idle_timeout = Duration::from_millis(100);
        let ping = Ping { id: 4, note: "n".into() };
        let mut hostile = TcpStream::connect(t.addrs()[0]).unwrap();
        hostile.write_all(&consensus_frame(NodeId(9), &ping.encoded())).unwrap();
        hostile.write_all(&consensus_frame(NodeId(1), &ping.encoded())).unwrap();
        assert!(t.next().is_none());
        assert_eq!(t.stats().delivered, 0);
        let mut honest = TcpStream::connect(t.addrs()[0]).unwrap();
        honest.write_all(&consensus_frame(NodeId(1), &ping.encoded())).unwrap();
        assert_eq!(drain(&mut t, 1), vec![(NodeId(1), NodeId(0), ping)]);
        t.shutdown();
    }

    #[test]
    fn link_queue_drops_oldest_when_full() {
        let q = LinkQueue::new(3);
        assert_eq!(q.push(vec![1]), Some(0));
        assert_eq!(q.push(vec![2]), Some(0));
        assert_eq!(q.push(vec![3]), Some(0));
        assert_eq!(q.depth(), 3);
        // Full: the oldest frame makes room for the newest.
        assert_eq!(q.push(vec![4]), Some(1));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some(vec![2]));
        assert_eq!(q.pop(), Some(vec![3]));
        q.close();
        assert_eq!(q.push(vec![5]), None);
        assert_eq!(q.pop(), Some(vec![4])); // drains after close…
        assert_eq!(q.pop(), None); // …then reports closed
    }

    #[test]
    fn backpressure_from_partitioned_peer_is_bounded_and_counted() {
        use medchain_runtime::metrics::Registry;
        // A dead port: bind, learn the address, drop the listener.
        let dead = TcpTransport::<Ping>::bind(1).unwrap().addrs()[0];
        let registry = Registry::new();
        let mut t = TcpTransport::<Ping>::bind(2).unwrap();
        t.set_metrics(registry.handle());
        t.writer_queue_cap = 4;
        t.addrs[1] = dead;
        const SENDS: u64 = 20;
        for id in 0..SENDS {
            t.send(NodeId(0), NodeId(1), Ping { id, note: String::new() });
        }
        let stats = t.stats();
        assert_eq!(stats.sent, SENDS);
        // The writer holds at most one frame beyond the queue; everything
        // else past the cap was dropped oldest-first and surfaced.
        assert!(
            stats.backpressure >= SENDS - 4 - 1,
            "expected ≥{} backpressure drops, saw {}",
            SENDS - 5,
            stats.backpressure
        );
        assert_eq!(stats.dropped, stats.backpressure);
        assert_eq!(stats.delivered, 0);
        assert_eq!(
            registry.counter_value("transport.backpressure_drops"),
            stats.backpressure,
            "sink counter must match NetStats"
        );
        t.shutdown();
    }

    #[test]
    fn bind_at_unspecified_ip_advertises_loopback() {
        let addrs: Vec<SocketAddr> = vec!["0.0.0.0:0".parse().unwrap(); 2];
        let mut t = TcpTransport::<Ping>::bind_at(&addrs).unwrap();
        for addr in t.addrs() {
            assert!(addr.ip().is_loopback(), "advertised {addr} must be dialable");
            assert_ne!(addr.port(), 0);
        }
        t.send(NodeId(0), NodeId(1), Ping { id: 9, note: "via 0.0.0.0".into() });
        let got = drain(&mut t, 1);
        assert_eq!(got[0].2.id, 9);
        t.shutdown();
    }

    #[test]
    fn bind_at_explicit_ports_are_respected() {
        // Reserve two free ports, release them, then bind explicitly.
        let (a, b) = {
            let reserved = TcpTransport::<Ping>::bind(2).unwrap();
            (reserved.addrs()[0], reserved.addrs()[1])
        };
        let mut t = TcpTransport::<Ping>::bind_at(&[a, b]).unwrap();
        assert_eq!(t.addrs(), &[a, b]);
        t.send(NodeId(1), NodeId(0), Ping { id: 3, note: String::new() });
        assert_eq!(drain(&mut t, 1)[0].2.id, 3);
        t.shutdown();
    }

    #[test]
    fn parse_addr_list_handles_spacing_and_rejects_garbage() {
        let addrs = parse_addr_list(" 127.0.0.1:9001 , 10.0.0.2:9002,[::1]:9003 ").unwrap();
        assert_eq!(addrs.len(), 3);
        assert_eq!(addrs[0], "127.0.0.1:9001".parse().unwrap());
        assert_eq!(addrs[1], "10.0.0.2:9002".parse().unwrap());
        assert_eq!(addrs[2], "[::1]:9003".parse().unwrap());
        assert!(parse_addr_list("not-an-addr").is_err());
        assert!(parse_addr_list("127.0.0.1:9001,nope:x").is_err());
        assert_eq!(parse_addr_list("").unwrap(), vec![]);
    }

    #[test]
    fn shutdown_is_idempotent_and_drops_later_sends() {
        let mut t = TcpTransport::<Ping>::bind(2).unwrap();
        t.send(NodeId(0), NodeId(1), Ping { id: 1, note: String::new() });
        drain(&mut t, 1);
        t.shutdown();
        t.shutdown();
        t.send(NodeId(0), NodeId(1), Ping { id: 2, note: String::new() });
        assert_eq!(t.stats().dropped, 1);
        assert!(t.next().is_none());
    }
}
