//! The opaque secure-email baseline the paper criticizes.
//!
//! "HIE medical data exchange is conducted through secure e-mail. As a
//! result, various medical data sources cannot be integrated, and cannot
//! directly be used for AI analysis" and the systems are "opaque and
//! un-auditable" (§III-B). [`EmailExchange`] models that world: messages
//! are fire-and-forget, there is no delivery receipt, no integrity
//! protection, and no machine-readable audit trail — so when a dispute
//! arises, blame cannot be assigned. Experiment E4 compares this against
//! [`crate::exchange::HieNetwork`].

use medchain_chain::Address;

/// What an administrator can conclude about a disputed email exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmailAuditOutcome {
    /// The sender's outbox shows *something* was sent — but not what,
    /// nor whether it arrived intact. No party can be blamed.
    Inconclusive,
    /// Not even an outbox entry exists.
    NoRecord,
}

/// One sent email: all the baseline records is a subject line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SentEmail {
    /// Sender.
    from: Address,
    /// Recipient.
    to: Address,
    /// Subject (free text, not machine-readable).
    subject: String,
}

/// The secure-email HIE baseline.
#[derive(Debug, Default)]
pub struct EmailExchange {
    outbox: Vec<SentEmail>,
    bytes_moved: u64,
}

impl EmailExchange {
    /// Creates the baseline transport.
    pub fn new() -> EmailExchange {
        EmailExchange::default()
    }

    /// Sends records as an attachment. Returns nothing — there is no
    /// exchange id, no receipt, and no phase tracking.
    pub fn send(&mut self, from: Address, to: Address, subject: &str, records: &[Vec<u8>]) {
        self.outbox.push(SentEmail { from, to, subject: subject.to_string() });
        self.bytes_moved += records.iter().map(Vec::len).sum::<usize>() as u64;
    }

    /// Attempts to audit a disputed transfer. The best the baseline can
    /// do is grep subject lines.
    pub fn audit(&self, from: Address, to: Address, subject_contains: &str) -> EmailAuditOutcome {
        let any = self
            .outbox
            .iter()
            .any(|m| m.from == from && m.to == to && m.subject.contains(subject_contains));
        if any {
            EmailAuditOutcome::Inconclusive
        } else {
            EmailAuditOutcome::NoRecord
        }
    }

    /// Bytes moved (for cost comparison with the HIE protocol).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_is_always_inconclusive_at_best() {
        let mut email = EmailExchange::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        email.send(a, b, "EMR export Q2", &[b"data".to_vec()]);
        assert_eq!(email.audit(a, b, "EMR"), EmailAuditOutcome::Inconclusive);
        assert_eq!(email.audit(b, a, "EMR"), EmailAuditOutcome::NoRecord);
        assert_eq!(email.audit(a, b, "genomics"), EmailAuditOutcome::NoRecord);
    }

    #[test]
    fn bytes_moved_counts_attachment_bytes() {
        let mut email = EmailExchange::new();
        email.send(
            Address::from_seed(1),
            Address::from_seed(2),
            "records",
            &[b"r1".to_vec(), b"r2".to_vec()],
        );
        assert_eq!(email.bytes_moved(), 4);
    }
}
