//! Native contracts: trusted Rust implementations dispatched by name.
//!
//! Permissioned chains (Hyperledger Fabric chaincode) run contracts as
//! native code rather than bytecode. The runtime supports both: a deploy
//! whose code blob is `NATIVE:<name>` binds the contract address to the
//! registered implementation `<name>`. The paper's three contract
//! categories (data / analytics / clinical-trial, Fig. 4) are shipped as
//! native contracts in [`crate::standard`].

use crate::value::{Args, Value, ValueError};
use medchain_chain::{Address, Event, StateAccess};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Prefix marking a deploy blob as a native-contract manifest.
const NATIVE_MAGIC: &[u8] = b"NATIVE:";

/// Builds the deploy blob for native contract `name`.
pub fn native_manifest(name: &str) -> Vec<u8> {
    let mut blob = NATIVE_MAGIC.to_vec();
    blob.extend_from_slice(name.as_bytes());
    blob
}

/// Parses a native manifest, returning the contract name.
pub fn parse_manifest(code: &[u8]) -> Option<&str> {
    code.strip_prefix(NATIVE_MAGIC)
        .and_then(|name| std::str::from_utf8(name).ok())
}

/// Call context handed to a native contract.
#[derive(Debug)]
pub struct NativeCtx {
    /// The contract's own address (storage namespace).
    pub contract: Address,
    /// Transaction sender.
    pub caller: Address,
    /// Gas budget.
    pub gas_limit: u64,
    /// Block logical timestamp, for expiring grants.
    pub now_ms: u64,
}

/// Successful native call result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NativeOutcome {
    /// Gas consumed (the implementation self-reports; the runtime adds a
    /// base cost and enforces the limit).
    pub gas_used: u64,
    /// Returned values.
    pub returned: Vec<Value>,
    /// Emitted events.
    pub events: Vec<Event>,
}

/// Error from a native call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeError {
    /// Call data malformed.
    BadArgs(ValueError),
    /// The method selector is unknown.
    UnknownMethod(String),
    /// Domain-level refusal (access denied, conflict, not found).
    Refused(String),
    /// Gas exhausted.
    OutOfGas,
}

impl From<ValueError> for NativeError {
    fn from(e: ValueError) -> Self {
        NativeError::BadArgs(e)
    }
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::BadArgs(e) => write!(f, "bad call arguments: {e}"),
            NativeError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            NativeError::Refused(why) => write!(f, "refused: {why}"),
            NativeError::OutOfGas => f.write_str("out of gas"),
        }
    }
}

impl std::error::Error for NativeError {}

/// A native contract implementation.
pub trait NativeContract: Send + Sync {
    /// Registry name, referenced by `NATIVE:<name>` manifests.
    fn name(&self) -> &'static str;

    /// Handles a call. Convention: `args[0]` is the method selector
    /// string; remaining values are method arguments.
    ///
    /// # Errors
    ///
    /// Returns [`NativeError`] on bad arguments, unknown methods, or
    /// domain-level refusals.
    fn call(
        &self,
        ctx: &NativeCtx,
        args: &Args,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError>;
}

/// Registry of native contract implementations available on a node.
///
/// All consortium nodes must register the same natives (same code, same
/// behaviour) — the on-chain-identical-code requirement of paper §III.
#[derive(Clone, Default)]
pub struct NativeRegistry {
    contracts: HashMap<&'static str, Arc<dyn NativeContract>>,
}

impl fmt::Debug for NativeRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.contracts.keys().copied().collect();
        names.sort_unstable();
        f.debug_struct("NativeRegistry").field("contracts", &names).finish()
    }
}

impl NativeRegistry {
    /// Creates an empty registry.
    pub fn new() -> NativeRegistry {
        NativeRegistry::default()
    }

    /// Registry with the paper's three standard contract categories
    /// plus the policy registry contract.
    pub fn standard() -> NativeRegistry {
        let mut registry = NativeRegistry::new();
        registry.register(Arc::new(crate::standard::DataContract));
        registry.register(Arc::new(crate::standard::AnalyticsContract));
        registry.register(Arc::new(crate::standard::TrialContract));
        registry
    }

    /// Registers an implementation under its [`NativeContract::name`].
    pub fn register(&mut self, contract: Arc<dyn NativeContract>) {
        self.contracts.insert(contract.name(), contract);
    }

    /// Looks up an implementation by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn NativeContract>> {
        self.contracts.get(name)
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.contracts.keys().copied().collect();
        names.sort_unstable();
        names
    }
}

/// Helper for native contracts: typed storage cells in the contract's
/// world-state namespace, storing value sequences.
pub struct Cell<'a> {
    contract: Address,
    key: Vec<u8>,
    state: &'a mut dyn StateAccess,
}

impl<'a> Cell<'a> {
    /// Binds a storage cell at `key` parts joined with `/`.
    pub fn at(state: &'a mut dyn StateAccess, contract: Address, parts: &[&str]) -> Cell<'a> {
        Cell { contract, key: parts.join("/").into_bytes(), state }
    }

    /// Reads the cell as decoded values (`None` if absent).
    pub fn read(&self) -> Option<Vec<Value>> {
        let raw = self.state.storage(&self.contract, &self.key)?;
        crate::value::decode_args(raw).ok()
    }

    /// Writes encoded values to the cell.
    pub fn write(&mut self, values: &[Value]) {
        let encoded = crate::value::encode_args(values);
        self.state.set_storage(self.contract, self.key.clone(), encoded);
    }

    /// Whether the cell holds a value.
    pub fn exists(&self) -> bool {
        self.state.storage(&self.contract, &self.key).is_some()
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("contract", &self.contract)
            .field("key", &String::from_utf8_lossy(&self.key))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_chain::WorldState;

    #[test]
    fn manifest_round_trip() {
        let blob = native_manifest("data_contract");
        assert_eq!(parse_manifest(&blob), Some("data_contract"));
        assert_eq!(parse_manifest(b"MCV1...."), None);
        assert_eq!(parse_manifest(b""), None);
    }

    #[test]
    fn standard_registry_has_three_categories() {
        let registry = NativeRegistry::standard();
        assert_eq!(
            registry.names(),
            vec!["analytics_contract", "data_contract", "trial_contract"]
        );
        assert!(registry.get("data_contract").is_some());
        assert!(registry.get("nonexistent").is_none());
    }

    #[test]
    fn cell_read_write() {
        let mut state = WorldState::new();
        let contract = Address::from_seed(9);
        let mut cell = Cell::at(&mut state, contract, &["ds", "cohort-1"]);
        assert!(!cell.exists());
        assert_eq!(cell.read(), None);
        cell.write(&[Value::Int(5), Value::str("x")]);
        assert!(cell.exists());
        assert_eq!(cell.read(), Some(vec![Value::Int(5), Value::str("x")]));
    }

    #[test]
    fn cells_namespace_by_contract() {
        let mut state = WorldState::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);
        Cell::at(&mut state, a, &["k"]).write(&[Value::Int(1)]);
        assert_eq!(Cell::at(&mut state, b, &["k"]).read(), None);
    }
}
