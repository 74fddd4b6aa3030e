//! Data ownership and fine-grained access policy.
//!
//! The paper's on-chain smart contract is "the access policy control
//! point" enforcing "the ownership right and fine grain access policy of
//! off-chain data and analytics code" (§III). This module is that policy
//! model: owners, purpose-limited grants with expiry, and patient
//! consent, evaluated deterministically on-chain.

use crate::value::{Value, ValueError};
use medchain_chain::Address;
use std::collections::BTreeSet;
use std::fmt;

/// Why data is being requested. Mirrors HIPAA-style purpose limitation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Purpose {
    /// Direct patient care.
    Treatment,
    /// Secondary research use (incl. deep learning).
    Research,
    /// Clinical-trial recruitment, monitoring, or audit.
    ClinicalTrial,
    /// Population-level public-health analytics.
    PublicHealth,
    /// Regulator audit (e.g. the FDA node).
    RegulatoryAudit,
}

impl Purpose {
    /// Stable integer encoding for on-chain storage.
    pub fn code(self) -> i64 {
        match self {
            Purpose::Treatment => 0,
            Purpose::Research => 1,
            Purpose::ClinicalTrial => 2,
            Purpose::PublicHealth => 3,
            Purpose::RegulatoryAudit => 4,
        }
    }

    /// Decodes [`Purpose::code`].
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnknownPurpose`] for unknown codes.
    pub fn from_code(code: i64) -> Result<Purpose, PolicyError> {
        match code {
            0 => Ok(Purpose::Treatment),
            1 => Ok(Purpose::Research),
            2 => Ok(Purpose::ClinicalTrial),
            3 => Ok(Purpose::PublicHealth),
            4 => Ok(Purpose::RegulatoryAudit),
            other => Err(PolicyError::UnknownPurpose(other)),
        }
    }
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Purpose::Treatment => "treatment",
            Purpose::Research => "research",
            Purpose::ClinicalTrial => "clinical-trial",
            Purpose::PublicHealth => "public-health",
            Purpose::RegulatoryAudit => "regulatory-audit",
        };
        f.write_str(name)
    }
}

/// A purpose-limited, optionally expiring access grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Who may access.
    pub grantee: Address,
    /// For what purpose.
    pub purpose: Purpose,
    /// Absolute expiry in simulation milliseconds (`None` = perpetual).
    pub expires_at_ms: Option<u64>,
}

impl Grant {
    /// Whether the grant covers `(requester, purpose)` at `now_ms`.
    pub fn covers(&self, requester: &Address, purpose: Purpose, now_ms: u64) -> bool {
        self.grantee == *requester
            && self.purpose == purpose
            && self.expires_at_ms.is_none_or(|expiry| now_ms < expiry)
    }
}

/// Result of a policy evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Access allowed.
    Permit,
    /// Access denied with a reason string.
    Deny(DenyReason),
}

/// Why access was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// No grant matches the requester and purpose.
    NoGrant,
    /// A matching grant exists but expired.
    Expired,
    /// The dataset requires patient consent that is absent or withdrawn.
    NoConsent,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::NoGrant => f.write_str("no matching grant"),
            DenyReason::Expired => f.write_str("grant expired"),
            DenyReason::NoConsent => f.write_str("patient consent missing or withdrawn"),
        }
    }
}

/// Access policy attached to a registered dataset.
///
/// # Examples
///
/// ```
/// use medchain_contracts::policy::{AccessPolicy, Decision, Purpose};
/// use medchain_chain::Address;
///
/// let owner = Address::from_seed(1);
/// let researcher = Address::from_seed(2);
/// let mut policy = AccessPolicy::new(owner);
/// policy.grant(researcher, Purpose::Research, None);
/// assert_eq!(policy.evaluate(&researcher, Purpose::Research, 0), Decision::Permit);
/// assert_ne!(policy.evaluate(&researcher, Purpose::Treatment, 0), Decision::Permit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPolicy {
    owner: Address,
    grants: Vec<Grant>,
    /// When true, access additionally requires the patient's consent set
    /// to contain the requesting purpose.
    consent_required: bool,
    consented_purposes: BTreeSet<i64>,
}

impl AccessPolicy {
    /// Creates a default-deny policy owned by `owner`.
    pub fn new(owner: Address) -> AccessPolicy {
        AccessPolicy {
            owner,
            grants: Vec::new(),
            consent_required: false,
            consented_purposes: BTreeSet::new(),
        }
    }

    /// The data owner (always permitted).
    pub fn owner(&self) -> Address {
        self.owner
    }

    /// All current grants.
    pub fn grants(&self) -> &[Grant] {
        &self.grants
    }

    /// Adds a grant.
    pub fn grant(&mut self, grantee: Address, purpose: Purpose, expires_at_ms: Option<u64>) {
        self.grants.push(Grant { grantee, purpose, expires_at_ms });
    }

    /// Removes every grant held by `grantee`.
    pub fn revoke(&mut self, grantee: &Address) {
        self.grants.retain(|g| g.grantee != *grantee);
    }

    /// Requires patient consent for every non-owner access.
    pub fn require_consent(&mut self) {
        self.consent_required = true;
    }

    /// Records patient consent for `purpose`.
    pub fn consent(&mut self, purpose: Purpose) {
        self.consented_purposes.insert(purpose.code());
    }

    /// Withdraws patient consent for `purpose`.
    pub fn withdraw_consent(&mut self, purpose: Purpose) {
        self.consented_purposes.remove(&purpose.code());
    }

    /// Evaluates an access request.
    pub fn evaluate(&self, requester: &Address, purpose: Purpose, now_ms: u64) -> Decision {
        if *requester == self.owner {
            return Decision::Permit;
        }
        let matching: Vec<&Grant> = self
            .grants
            .iter()
            .filter(|g| g.grantee == *requester && g.purpose == purpose)
            .collect();
        if matching.is_empty() {
            return Decision::Deny(DenyReason::NoGrant);
        }
        if !matching.iter().any(|g| g.covers(requester, purpose, now_ms)) {
            return Decision::Deny(DenyReason::Expired);
        }
        if self.consent_required && !self.consented_purposes.contains(&purpose.code()) {
            return Decision::Deny(DenyReason::NoConsent);
        }
        Decision::Permit
    }

    /// Serializes to the VM value codec for on-chain storage.
    pub fn to_values(&self) -> Vec<Value> {
        let mut values = vec![
            Value::address(&self.owner),
            Value::Int(i64::from(self.consent_required)),
            Value::Int(self.consented_purposes.len() as i64),
            Value::Int(self.grants.len() as i64),
        ];
        for code in &self.consented_purposes {
            values.push(Value::Int(*code));
        }
        for grant in &self.grants {
            values.push(Value::address(&grant.grantee));
            values.push(Value::Int(grant.purpose.code()));
            values.push(Value::Int(match grant.expires_at_ms {
                Some(t) => t as i64,
                None => -1,
            }));
        }
        values
    }

    /// Deserializes from [`AccessPolicy::to_values`].
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError`] on malformed input.
    pub fn from_values(values: &[Value]) -> Result<AccessPolicy, PolicyError> {
        let get = |i: usize| values.get(i).ok_or(PolicyError::Malformed);
        let owner = get(0)?.as_address().map_err(PolicyError::Value)?;
        let consent_required = get(1)?.as_int().map_err(PolicyError::Value)? != 0;
        let consent_count = get(2)?.as_int().map_err(PolicyError::Value)? as usize;
        let grant_count = get(3)?.as_int().map_err(PolicyError::Value)? as usize;
        let mut policy = AccessPolicy::new(owner);
        if consent_required {
            policy.require_consent();
        }
        let mut at = 4;
        for _ in 0..consent_count {
            let code = get(at)?.as_int().map_err(PolicyError::Value)?;
            policy.consented_purposes.insert(code);
            at += 1;
        }
        for _ in 0..grant_count {
            let grantee = get(at)?.as_address().map_err(PolicyError::Value)?;
            let purpose = Purpose::from_code(get(at + 1)?.as_int().map_err(PolicyError::Value)?)?;
            let expiry = get(at + 2)?.as_int().map_err(PolicyError::Value)?;
            policy.grant(grantee, purpose, (expiry >= 0).then_some(expiry as u64));
            at += 3;
        }
        Ok(policy)
    }
}

/// Errors from policy encoding/decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyError {
    /// Unknown purpose code.
    UnknownPurpose(i64),
    /// Value-level decoding failure.
    Value(ValueError),
    /// Structurally malformed policy blob.
    Malformed,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnknownPurpose(code) => write!(f, "unknown purpose code {code}"),
            PolicyError::Value(e) => write!(f, "policy value error: {e}"),
            PolicyError::Malformed => f.write_str("malformed policy encoding"),
        }
    }
}

impl std::error::Error for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_seed(n)
    }

    #[test]
    fn owner_is_always_permitted() {
        let policy = AccessPolicy::new(addr(1));
        assert_eq!(policy.evaluate(&addr(1), Purpose::Research, 0), Decision::Permit);
    }

    #[test]
    fn default_deny_for_strangers() {
        let policy = AccessPolicy::new(addr(1));
        assert_eq!(
            policy.evaluate(&addr(2), Purpose::Research, 0),
            Decision::Deny(DenyReason::NoGrant)
        );
    }

    #[test]
    fn purpose_limitation_is_enforced() {
        let mut policy = AccessPolicy::new(addr(1));
        policy.grant(addr(2), Purpose::Research, None);
        assert_eq!(policy.evaluate(&addr(2), Purpose::Research, 0), Decision::Permit);
        assert_eq!(
            policy.evaluate(&addr(2), Purpose::Treatment, 0),
            Decision::Deny(DenyReason::NoGrant)
        );
    }

    #[test]
    fn expiry_is_enforced() {
        let mut policy = AccessPolicy::new(addr(1));
        policy.grant(addr(2), Purpose::Research, Some(1_000));
        assert_eq!(policy.evaluate(&addr(2), Purpose::Research, 999), Decision::Permit);
        assert_eq!(
            policy.evaluate(&addr(2), Purpose::Research, 1_000),
            Decision::Deny(DenyReason::Expired)
        );
    }

    #[test]
    fn revoke_removes_all_grants() {
        let mut policy = AccessPolicy::new(addr(1));
        policy.grant(addr(2), Purpose::Research, None);
        policy.grant(addr(2), Purpose::Treatment, None);
        policy.revoke(&addr(2));
        assert_ne!(policy.evaluate(&addr(2), Purpose::Research, 0), Decision::Permit);
        assert_ne!(policy.evaluate(&addr(2), Purpose::Treatment, 0), Decision::Permit);
    }

    #[test]
    fn consent_gates_access() {
        let mut policy = AccessPolicy::new(addr(1));
        policy.grant(addr(2), Purpose::Research, None);
        policy.require_consent();
        assert_eq!(
            policy.evaluate(&addr(2), Purpose::Research, 0),
            Decision::Deny(DenyReason::NoConsent)
        );
        policy.consent(Purpose::Research);
        assert_eq!(policy.evaluate(&addr(2), Purpose::Research, 0), Decision::Permit);
        policy.withdraw_consent(Purpose::Research);
        assert_eq!(
            policy.evaluate(&addr(2), Purpose::Research, 0),
            Decision::Deny(DenyReason::NoConsent)
        );
    }

    #[test]
    fn value_round_trip() {
        let mut policy = AccessPolicy::new(addr(1));
        policy.grant(addr(2), Purpose::Research, Some(5_000));
        policy.grant(addr(3), Purpose::ClinicalTrial, None);
        policy.require_consent();
        policy.consent(Purpose::Research);
        let decoded = AccessPolicy::from_values(&policy.to_values()).unwrap();
        assert_eq!(decoded, policy);
    }

    #[test]
    fn malformed_blob_rejected() {
        assert!(AccessPolicy::from_values(&[]).is_err());
        assert!(AccessPolicy::from_values(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn purpose_codes_round_trip() {
        for p in [
            Purpose::Treatment,
            Purpose::Research,
            Purpose::ClinicalTrial,
            Purpose::PublicHealth,
            Purpose::RegulatoryAudit,
        ] {
            assert_eq!(Purpose::from_code(p.code()).unwrap(), p);
        }
        assert!(Purpose::from_code(99).is_err());
    }
}

mod codec_impls {
    use super::{AccessPolicy, Grant, Purpose};
    use medchain_runtime::{impl_codec_struct, impl_codec_unit_enum};

    impl_codec_unit_enum!(Purpose {
        Treatment,
        Research,
        ClinicalTrial,
        PublicHealth,
        RegulatoryAudit,
    });
    impl_codec_struct!(Grant { grantee, purpose, expires_at_ms });
    impl_codec_struct!(AccessPolicy { owner, grants, consent_required, consented_purposes });
}
