//! # medchain-transport — the consortium's network seam
//!
//! The paper's architecture (Fig. 1–2) is a consortium of hospital and
//! provider *sites* exchanging consensus and oracle traffic over a real
//! network. This crate owns that seam: the [`Transport`] trait abstracts
//! what the consensus harness and off-chain plane need from a network
//! (unicast, broadcast, timers, metered stats, an event pump), and three
//! implementations cover the whole experimental range:
//!
//! * [`SimTransport`] — the deterministic discrete-event simulator
//!   (logical time, a seeded [`LatencyModel`]; bit-reproducible runs).
//! * [`TcpTransport`] — real `std::net` sockets on loopback or a LAN:
//!   [`frame`]'s length-prefixed frames of canonically encoded messages
//!   (the one socket layer, shared with the ingress gateway), one writer
//!   thread per directed peer link with reconnect-and-backoff, and
//!   graceful shutdown. Wall-clock time, real bytes.
//! * [`FaultyTransport`] — the one fault model: wraps *any* transport
//!   and injects a seeded [`LatencyModel`], drop rate, and node/link
//!   failures, so fault experiments run unchanged on the simulator or
//!   on sockets.
//!
//! The crate is std-only (no registry dependencies): sockets come from
//! `std::net`, threads from `std::thread`, and the canonical byte codec
//! from the in-workspace `medchain-runtime`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod frame;
pub mod sim;
pub mod tcp;

pub use fault::{FaultyTransport, FAULT_WAKE_TOKEN};
pub use sim::SimTransport;
pub use tcp::{
    parse_addr_list, TcpTransport, DEFAULT_WRITER_QUEUE_CAP, FRAME_OVERHEAD, TCP_ADDRS_ENV,
};

use medchain_runtime::DetRng;
use std::fmt;

/// Index of a node in a transport fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Types that can report their serialized size for bandwidth accounting.
///
/// For every message that also implements the canonical codec, this must
/// equal `self.encoded().len()` so that simulated bandwidth accounting
/// matches the bytes a real socket transport frames.
pub trait Wire {
    /// Size in bytes on the wire.
    fn wire_size(&self) -> usize;
}

/// Latency model: `base + per_kib·(bytes/1024) ± jitter`.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed propagation delay in milliseconds.
    pub base_ms: u64,
    /// Transmission delay per KiB in milliseconds.
    pub per_kib_ms: u64,
    /// Uniform jitter bound in milliseconds.
    pub jitter_ms: u64,
}

impl LatencyModel {
    /// A LAN-like model (hospital consortium over leased lines).
    pub fn lan() -> LatencyModel {
        LatencyModel { base_ms: 2, per_kib_ms: 1, jitter_ms: 1 }
    }

    /// A WAN-like model (internationally distributed consortium).
    pub fn wan() -> LatencyModel {
        LatencyModel { base_ms: 60, per_kib_ms: 4, jitter_ms: 20 }
    }

    /// A zero-delay model (useful under [`FaultyTransport`], which
    /// supplies its own delays).
    pub fn zero() -> LatencyModel {
        LatencyModel { base_ms: 0, per_kib_ms: 0, jitter_ms: 0 }
    }

    /// Samples a delay for a message of `bytes` bytes.
    pub fn sample(&self, rng: &mut DetRng, bytes: usize) -> u64 {
        let jitter = if self.jitter_ms == 0 { 0 } else { rng.gen_range(0..=self.jitter_ms) };
        self.base_ms + self.per_kib_ms * (bytes as u64).div_ceil(1024) + jitter
    }
}

/// Traffic counters.
///
/// `bytes` counts canonical payload bytes offered to the network (the
/// [`Wire::wire_size`] of every send, delivered or not), which equals
/// real framed traffic minus the fixed per-frame header
/// ([`FRAME_OVERHEAD`] bytes on [`TcpTransport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages enqueued for delivery.
    pub sent: u64,
    /// Messages actually delivered.
    pub delivered: u64,
    /// Messages dropped by loss or failed links.
    pub dropped: u64,
    /// Total payload bytes offered to the network.
    pub bytes: u64,
    /// Frames discarded by bounded writer queues under backpressure
    /// (oldest-first; also counted in `dropped`). Only [`TcpTransport`]
    /// can report a non-zero value.
    pub backpressure: u64,
}

/// An event delivered by a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message arriving at `to`.
    Message {
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
        /// Payload.
        msg: M,
    },
    /// A timer set by `node` firing with its token.
    Timer {
        /// Owner of the timer.
        node: NodeId,
        /// Caller-chosen discriminator.
        token: u64,
    },
}

/// The seam between a message-driven protocol (consensus engines, the
/// off-chain oracle) and the network that carries its traffic.
///
/// A transport hosts `node_count` endpoints in one process, carries
/// unicast and broadcast messages between them, schedules per-node
/// timers, and pumps everything back through [`Transport::next`] as a
/// single time-stamped event stream. Time is logical milliseconds for
/// [`SimTransport`] and wall-clock milliseconds since creation for
/// [`TcpTransport`]; protocol code treats it uniformly.
pub trait Transport<M: Wire + Clone> {
    /// Number of endpoints hosted by this transport.
    fn node_count(&self) -> usize;

    /// Current transport time in milliseconds (logical or wall-clock).
    fn now_ms(&self) -> u64;

    /// Traffic counters.
    fn stats(&self) -> NetStats;

    /// Sends `msg` from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M);

    /// Broadcasts `msg` from `from` to every other node — the blockchain
    /// consensus broadcast the paper describes.
    fn broadcast(&mut self, from: NodeId, msg: M) {
        for i in 0..self.node_count() {
            if i != from.0 {
                self.send(from, NodeId(i), msg.clone());
            }
        }
    }

    /// Schedules a timer for `node` at absolute transport time `at_ms`.
    fn set_timer(&mut self, node: NodeId, at_ms: u64, token: u64);

    /// Pops the next event, advancing transport time. Returns `None`
    /// when the transport has quiesced (no deliverable events remain, or
    /// — for socket transports — nothing arrived within the idle
    /// window).
    fn next(&mut self) -> Option<(u64, Event<M>)>;

    /// Whether `node` is currently failed. Plain transports have no
    /// fault model and always answer `false`; [`FaultyTransport`]
    /// overrides this.
    fn is_failed(&self, _node: NodeId) -> bool {
        false
    }

    /// Gracefully releases transport resources (socket transports join
    /// their threads). Safe to call more than once; using the transport
    /// afterwards drops all traffic.
    fn shutdown(&mut self) {}
}

impl<M: Wire + Clone, T: Transport<M> + ?Sized> Transport<M> for Box<T> {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn now_ms(&self) -> u64 {
        (**self).now_ms()
    }
    fn stats(&self) -> NetStats {
        (**self).stats()
    }
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        (**self).send(from, to, msg);
    }
    fn broadcast(&mut self, from: NodeId, msg: M) {
        (**self).broadcast(from, msg);
    }
    fn set_timer(&mut self, node: NodeId, at_ms: u64, token: u64) {
        (**self).set_timer(node, at_ms, token);
    }
    fn next(&mut self) -> Option<(u64, Event<M>)> {
        (**self).next()
    }
    fn is_failed(&self, node: NodeId) -> bool {
        (**self).is_failed(node)
    }
    fn shutdown(&mut self) {
        (**self).shutdown();
    }
}

mod codec_impls {
    use super::NodeId;
    use medchain_runtime::codec::{CodecError, Decode, Encode, Reader};

    impl Encode for NodeId {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
    }

    impl Decode for NodeId {
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(NodeId(usize::decode(r)?))
        }
    }
}
