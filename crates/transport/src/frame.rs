//! The one socket layer: every byte the consortium moves over TCP —
//! consensus traffic between sites ([`crate::tcp`]) and client traffic
//! through the ingress gateway — is framed, parsed, read and accepted
//! here.
//!
//! A frame is `[u32 len LE][body]`. Each protocol passes its own bound
//! on `len` (64 MiB for consensus, 1 MiB for the gateway), and a reader
//! refuses a longer declared length before it buffers a byte of that
//! body: the peer is not speaking the protocol, and the connection ends.
//! A connection that ends leaves nothing behind: its thread exits, its
//! socket closes, and the acceptor joins the thread at its next poll.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Bytes of the length prefix in front of every frame body.
pub const LEN_BYTES: usize = 4;

/// How long a socket read blocks before its reader re-checks whether to
/// stop waiting. Data wakes a read at once, so this bounds only how late
/// a stop or a deadline is noticed.
const READ_TICK: Duration = Duration::from_millis(20);

/// How long the acceptor sleeps when no connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Frames the concatenation of `parts` as one body.
pub fn encode_frame(parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|part| part.len()).sum();
    debug_assert!(u32::try_from(len).is_ok(), "a frame body fits its u32 length");
    let mut frame = Vec::with_capacity(LEN_BYTES + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    for part in parts {
        frame.extend_from_slice(part);
    }
    frame
}

/// Writes `body` as one frame.
///
/// # Errors
///
/// Returns the write error.
pub fn write_frame(mut out: impl Write, body: &[u8]) -> io::Result<()> {
    out.write_all(&encode_frame(&[body]))
}

/// Reassembles frames from a byte stream, whatever boundaries its reads
/// split them at.
pub struct FrameReader<R> {
    source: R,
    buf: Vec<u8>,
    max_body: usize,
}

impl FrameReader<TcpStream> {
    /// A reader over a socket whose reads block at most one tick, so
    /// [`FrameReader::read_frame`] re-checks its stop condition while
    /// the peer is silent.
    ///
    /// # Errors
    ///
    /// Returns the error of setting the socket's read timeout.
    pub fn socket(stream: TcpStream, max_body: usize) -> io::Result<FrameReader<TcpStream>> {
        stream.set_read_timeout(Some(READ_TICK))?;
        Ok(FrameReader::new(stream, max_body))
    }
}

impl<R: Read> FrameReader<R> {
    /// A reader of frames whose bodies are at most `max_body` bytes.
    pub fn new(source: R, max_body: usize) -> FrameReader<R> {
        FrameReader { source, buf: Vec::new(), max_body }
    }

    /// The byte source, e.g. to write requests on the same socket.
    pub fn get_ref(&self) -> &R {
        &self.source
    }

    /// Reads the next frame's body. Before each read `stop` is asked
    /// whether to stop waiting.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidData`] when the declared length exceeds the
    /// bound, [`ErrorKind::UnexpectedEof`] when the peer closes,
    /// [`ErrorKind::TimedOut`] when `stop` says so, or the read's own
    /// error. The stream is unusable after any of them.
    pub fn read_frame(&mut self, mut stop: impl FnMut() -> bool) -> io::Result<Vec<u8>> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(body) = self.pop()? {
                return Ok(body);
            }
            if stop() {
                return Err(io::Error::new(ErrorKind::TimedOut, "stopped waiting for a frame"));
            }
            match self.source.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(ErrorKind::UnexpectedEof, "peer closed the connection"))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes the next whole frame's body out of the buffer, if one is
    /// there.
    fn pop(&mut self) -> io::Result<Option<Vec<u8>>> {
        let Some(prefix) = self.buf.first_chunk::<LEN_BYTES>() else { return Ok(None) };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > self.max_body {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("frame length {len} exceeds {}", self.max_body),
            ));
        }
        let Some(body) = self.buf.get(LEN_BYTES..LEN_BYTES + len) else { return Ok(None) };
        let body = body.to_vec();
        self.buf.drain(..LEN_BYTES + len);
        Ok(Some(body))
    }
}

/// Reads frames off `stream` and hands each body to `handle` until the
/// peer closes, a read fails, a frame breaks `max_body`, `stop` is set,
/// or `handle` returns `false`.
pub fn read_frames(
    stream: TcpStream,
    max_body: usize,
    stop: &AtomicBool,
    mut handle: impl FnMut(Vec<u8>) -> bool,
) {
    let Ok(mut frames) = FrameReader::socket(stream, max_body) else { return };
    while let Ok(body) = frames.read_frame(|| stop.load(Ordering::Relaxed)) {
        if !handle(body) {
            return;
        }
    }
}

/// Binds `addr` and accepts connections on a thread of its own until
/// `stop` is set, returning the bound address and that thread.
///
/// Every accepted socket is blocking with Nagle off (frames are small
/// and each is answered or acted on at once), and `serve` runs it on a
/// thread of its own. The acceptor joins each connection thread that has
/// ended at its next poll, and the rest once `stop` is set, so `serve`
/// should return soon after `stop` flips ([`read_frames`] does).
///
/// # Errors
///
/// Returns the bind error.
pub fn listen(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
) -> io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let acceptor = std::thread::spawn(move || {
        let serve = Arc::new(serve);
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            for ended in connections.extract_if(.., |connection| connection.is_finished()) {
                let _ = ended.join();
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let serve = Arc::clone(&serve);
                    connections.push(std::thread::spawn(move || serve(stream)));
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
    });
    Ok((local, acceptor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_runtime::check::{check, CheckConfig};
    use medchain_runtime::ensure;

    /// The gateway's bound (`gateway::MAX_FRAME` in the core crate).
    const GATEWAY_MAX: usize = 1 << 20;

    /// A byte source that hands out its bytes in reads of the given
    /// sizes, a zero size standing for a read that times out.
    struct Splits<'a> {
        rest: &'a [u8],
        sizes: Vec<usize>,
    }

    impl Read for Splits<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.rest.is_empty() {
                return Ok(0);
            }
            let size = self.sizes.pop().unwrap_or(self.rest.len());
            if size == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = size.min(out.len()).min(self.rest.len());
            out[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_reassemble_from_single_byte_reads() {
        let wire = [encode_frame(&[b"hello ", b"frame"]), encode_frame(&[]), encode_frame(&[b"x"])]
            .concat();
        let mut frames =
            FrameReader::new(Splits { rest: &wire, sizes: vec![1; wire.len()] }, GATEWAY_MAX);
        assert_eq!(frames.read_frame(|| false).unwrap(), b"hello frame");
        assert_eq!(frames.read_frame(|| false).unwrap(), b"");
        assert_eq!(frames.read_frame(|| false).unwrap(), b"x");
        let end = frames.read_frame(|| false).unwrap_err();
        assert_eq!(end.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_stop_ends_the_wait_between_timed_out_reads() {
        let wire = encode_frame(&[b"late"]);
        let mut frames = FrameReader::new(Splits { rest: &wire, sizes: vec![0; 3] }, GATEWAY_MAX);
        let mut asked = 0;
        let err = frames
            .read_frame(|| {
                asked += 1;
                asked > 2
            })
            .unwrap_err();
        assert_eq!((err.kind(), asked), (ErrorKind::TimedOut, 3));
    }

    #[test]
    fn a_length_over_the_bound_is_refused_before_its_body() {
        let wire = (GATEWAY_MAX as u32 + 1).to_le_bytes();
        let mut frames = FrameReader::new(&wire[..], GATEWAY_MAX);
        assert_eq!(frames.read_frame(|| false).unwrap_err().kind(), ErrorKind::InvalidData);
        assert!(frames.buf.capacity() < 64, "nothing reserved for the refused body");
        // The same prefix is a legal consensus length.
        let mut frames = FrameReader::new(&wire[..], crate::tcp::MAX_FRAME);
        assert_eq!(frames.read_frame(|| false).unwrap_err().kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn listen_serves_each_connection_until_stop() {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader_stop = Arc::clone(&stop);
        let loopback: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let (addr, acceptor) = listen(loopback, Arc::clone(&stop), move |stream| {
            let nodelay = stream.nodelay().unwrap_or(false);
            read_frames(stream, GATEWAY_MAX, &reader_stop, |body| tx.send((nodelay, body)).is_ok());
        })
        .unwrap();
        for round in 0..3u8 {
            let mut client = TcpStream::connect(addr).unwrap();
            write_frame(&mut client, &[round; 3]).unwrap();
            let got = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(got, (true, vec![round; 3]));
        }
        stop.store(true, Ordering::Relaxed);
        acceptor.join().unwrap();
    }

    /// Hostile input: arbitrary bytes under an honest, an arbitrary or an
    /// over-the-bound length, fed in random splits with timed-out reads
    /// between them, under the gateway's and the consensus bound, never
    /// panic the reader. A declared length over the bound is always
    /// refused and yields nothing; an honest one yields the body.
    #[test]
    fn hostile_frames_never_panic_the_reader() {
        check("hostile frames never panic the reader", CheckConfig::cases(256), |g| {
            let max_body = if g.bool() { GATEWAY_MAX } else { crate::tcp::MAX_FRAME };
            let body = g.bytes(0, 300);
            let declared = match g.usize_in(0, 3) {
                0 => body.len(),
                1 => g.u64() as u32 as usize,
                _ => g.usize_in(max_body + 1, u32::MAX as usize),
            };
            let wire = [&(declared as u32).to_le_bytes()[..], &body].concat();
            let sizes = (0..g.usize_in(0, 12)).map(|_| g.usize_in(0, 40)).collect();
            let mut frames = FrameReader::new(Splits { rest: &wire, sizes }, max_body);
            let mut popped = Vec::new();
            let end = loop {
                match frames.read_frame(|| false) {
                    Ok(frame) => popped.push(frame),
                    Err(e) => break e.kind(),
                }
            };
            if declared > max_body {
                ensure!(end == ErrorKind::InvalidData && popped.is_empty(), "{declared} not refused");
            } else if declared <= body.len() {
                let first = popped.first().map(Vec::as_slice);
                ensure!(first == Some(&body[..declared]), "first frame {first:?}");
            } else {
                ensure!(end == ErrorKind::UnexpectedEof && popped.is_empty(), "short body popped");
            }
            Ok(())
        });
    }
}
