//! TCP client for the ingress gateway (DESIGN.md §10).
//!
//! [`Client`] speaks the gateway's length-framed canonical-codec
//! protocol: submit a signed transaction, poll its status, and wait for
//! the proof-carrying [`TxReceipt`]. The client **verifies the Merkle
//! inclusion proof locally** before handing a receipt back — a
//! misbehaving gateway can delay a receipt but cannot fake one.

use crate::gateway::{write_frame, FrameBuffer, GatewayRequest, GatewayResponse};
use medchain_chain::auth::key_hash;
use medchain_chain::receipt::TxReceipt;
use medchain_chain::{Hash256, Lane, LeafKey, ShardId, StateProof, Transaction};
use medchain_runtime::codec::{Decode, Encode};
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Handle to a submitted-but-not-yet-confirmed transaction — the
/// `submit → PendingTx → TxReceipt` API surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingTx {
    /// The transaction id to poll for.
    pub tx_id: Hash256,
    /// The sub-chain the transaction was routed to.
    pub shard: ShardId,
    /// The lane it was admitted on.
    pub lane: Lane,
}

/// Errors from gateway client operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket failure.
    Io(String),
    /// The gateway rejected the submission.
    Rejected {
        /// The rejected transaction.
        tx_id: Hash256,
        /// The gateway's reason.
        reason: String,
    },
    /// No commit within the polling deadline.
    Timeout(Hash256),
    /// The gateway returned a receipt whose Merkle proof does not verify
    /// — never trust it.
    BadProof(Hash256),
    /// The gateway answered something the protocol does not allow here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "gateway i/o failed: {e}"),
            ClientError::Rejected { tx_id, reason } => {
                write!(f, "gateway rejected {tx_id:?}: {reason}")
            }
            ClientError::Timeout(id) => write!(f, "no commit for {id:?} before deadline"),
            ClientError::BadProof(id) => {
                write!(f, "receipt for {id:?} carries an invalid inclusion proof")
            }
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }
}

/// A connected gateway client. Requests and responses are strictly
/// ordered per connection, so each request's answer is simply the next
/// frame.
pub struct Client {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Client").finish()
    }
}

impl Client {
    /// Connects to a gateway.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] if the connection fails.
    pub fn connect(addr: SocketAddr) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(25)))?;
        Ok(Client { stream, frames: FrameBuffer::new() })
    }

    /// Sends one request and reads its response frame, waiting at most
    /// 10 s for it. The typed calls below are built on this; it is also
    /// the fetch a remote joiner hands to
    /// [`crate::bootstrap::stream_into`].
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on socket trouble or a missed
    /// deadline, [`ClientError::Protocol`] on an undecodable frame.
    pub fn call(&mut self, request: &GatewayRequest) -> Result<GatewayResponse, ClientError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        write_frame(&mut self.stream, &request.encoded())?;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return GatewayResponse::decoded(&payload)
                    .map_err(|e| ClientError::Protocol(format!("bad response frame: {e:?}")));
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Io("response deadline exceeded".into()));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Io("gateway closed the connection".into())),
                Ok(n) => self.frames.extend(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Submits a signed transaction, optionally requesting the priority
    /// lane.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Rejected`] if the gateway refused it, or
    /// [`ClientError::Io`] on socket trouble.
    pub fn submit(&mut self, tx: &Transaction, priority: bool) -> Result<PendingTx, ClientError> {
        let tx_id = tx.id();
        let request = GatewayRequest::Submit { tx: tx.clone(), priority };
        match self.call(&request)? {
            GatewayResponse::Accepted { tx_id, shard, lane } => {
                Ok(PendingTx { tx_id, shard, lane })
            }
            GatewayResponse::Rejected { tx_id, reason } => {
                Err(ClientError::Rejected { tx_id, reason })
            }
            // Re-submission of something already known: keep polling it.
            GatewayResponse::Pending { tx_id } => {
                Ok(PendingTx { tx_id, shard: ShardId::default(), lane: Lane::Normal })
            }
            GatewayResponse::Committed { receipt } => Ok(PendingTx {
                tx_id: receipt.tx_id,
                shard: receipt.shard,
                lane: Lane::Normal,
            }),
            _ => Err(ClientError::Protocol(format!("bad reply to Submit of {tx_id:?}"))),
        }
    }

    /// One coordinator-decision query for cross-shard transaction `xid`
    /// (two-phase commit, DESIGN.md §12). Returns
    /// `Some((commit, decision_receipt))` once decided, `None` while
    /// undecided.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] / [`ClientError::Protocol`] on
    /// transport trouble or a non-decision reply.
    pub fn xs_status(
        &mut self,
        xid: Hash256,
    ) -> Result<Option<(bool, Option<TxReceipt>)>, ClientError> {
        match self.call(&GatewayRequest::XsStatus { xid })? {
            GatewayResponse::XsDecision { decided: false, .. } => Ok(None),
            GatewayResponse::XsDecision { commit, receipt, .. } => Ok(Some((commit, receipt))),
            other => Err(ClientError::Protocol(format!(
                "unexpected XsStatus reply: {other:?}"
            ))),
        }
    }

    /// Polls until the coordinator decides cross-shard transaction
    /// `xid`, returning the verdict (`true` = commit). When the decision
    /// receipt is retrievable its Merkle proof is verified locally
    /// before the verdict is trusted.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Timeout`] if the deadline passes,
    /// [`ClientError::BadProof`] if the decision receipt does not
    /// verify.
    pub fn wait_xs_decision(
        &mut self,
        xid: Hash256,
        timeout: Duration,
    ) -> Result<bool, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((commit, receipt)) = self.xs_status(xid)? {
                if let Some(receipt) = receipt {
                    if !receipt.verify() {
                        return Err(ClientError::BadProof(xid));
                    }
                }
                return Ok(commit);
            }
            if Instant::now() >= deadline {
                return Err(ClientError::Timeout(xid));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Light-client state read against the key's home shard: asks the
    /// gateway for the value at `key` plus its sparse-Merkle proof, and
    /// **verifies the proof locally** before returning (DESIGN.md §13).
    ///
    /// The returned [`StateProof`] is internally consistent: the path
    /// folds up to the root it carries. A fully trustless caller should
    /// additionally check `proof.verify_against(&root)` with a header
    /// root obtained independently of the gateway.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::BadProof`] (carrying the key hash) when
    /// the gateway's answer does not verify or speaks about a different
    /// key, [`ClientError::Rejected`] when the gateway cannot serve
    /// state proofs.
    pub fn query_proven(&mut self, key: &LeafKey) -> Result<StateProof, ClientError> {
        self.query_proven_on(key, None)
    }

    /// [`Client::query_proven`] pinned to an explicit sub-chain — e.g.
    /// to obtain an absence proof from a shard the key does not route
    /// to. The proof then verifies against *that* shard's tip root.
    ///
    /// # Errors
    ///
    /// As [`Client::query_proven`].
    pub fn query_proven_on(
        &mut self,
        key: &LeafKey,
        shard: Option<ShardId>,
    ) -> Result<StateProof, ClientError> {
        let request = GatewayRequest::Query { key: key.clone(), shard };
        match self.call(&request)? {
            GatewayResponse::Proven { proof } => {
                // Trustless checks: the proof must speak about the key
                // we asked for, come from the shard we pinned (if any),
                // and fold up to the root it names.
                let wrong_key = proof.key != *key;
                let wrong_shard = shard.is_some_and(|s| proof.shard != s);
                if wrong_key || wrong_shard || !proof.verify() {
                    return Err(ClientError::BadProof(key_hash(key)));
                }
                Ok(proof)
            }
            GatewayResponse::Rejected { reason, .. } => Err(ClientError::Rejected {
                tx_id: key_hash(key),
                reason,
            }),
            other => Err(ClientError::Protocol(format!(
                "unexpected Query reply: {other:?}"
            ))),
        }
    }

    /// One status query for `tx_id`.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] / [`ClientError::Protocol`] on
    /// transport trouble.
    pub fn status(&mut self, tx_id: Hash256) -> Result<GatewayResponse, ClientError> {
        self.call(&GatewayRequest::Status { tx_id })
    }

    /// Polls until the transaction commits and returns its receipt,
    /// **after** verifying the Merkle inclusion proof locally.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Timeout`] if the deadline passes,
    /// [`ClientError::BadProof`] if the gateway's receipt does not
    /// verify.
    pub fn wait_receipt(
        &mut self,
        pending: &PendingTx,
        timeout: Duration,
    ) -> Result<TxReceipt, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.status(pending.tx_id)? {
                GatewayResponse::Committed { receipt } => {
                    // Trustless check: the receipt must prove the id we
                    // submitted under the root it names.
                    if receipt.tx_id != pending.tx_id || !receipt.verify() {
                        return Err(ClientError::BadProof(pending.tx_id));
                    }
                    return Ok(receipt);
                }
                GatewayResponse::Pending { .. } | GatewayResponse::Unknown { .. } => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Timeout(pending.tx_id));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected status reply: {other:?}"
                    )))
                }
            }
        }
    }
}
