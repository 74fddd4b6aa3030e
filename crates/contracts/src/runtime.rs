//! The contract runtime installed into each node's ledger.
//!
//! Dispatches `Deploy`/`Invoke` transactions to either the bytecode VM
//! or a registered native contract, translating between the chain
//! layer's [`ContractRuntime`] interface and this crate's execution
//! machinery.

use crate::native::{parse_manifest, NativeCtx, NativeError, NativeRegistry};
use crate::opcode::{decode_program, Instr, BYTECODE_MAGIC};
use crate::value::{decode_args, encode_args, Args, Value};
use crate::vm::{execute, CallDispatcher, CallEnv, MAX_CALL_DEPTH};
use medchain_chain::{Address, ContractRuntime, ExecError, ExecOutcome, ExecScope, StateAccess};

/// Gas charged for a deploy before any constructor runs.
const DEPLOY_BASE_GAS: u64 = 100;

/// The MedChain contract runtime: bytecode VM plus native registry.
///
/// # Examples
///
/// ```
/// use medchain_contracts::runtime::Runtime;
/// use medchain_contracts::native::NativeRegistry;
///
/// let runtime = Runtime::new(NativeRegistry::standard());
/// assert!(runtime.natives().get("data_contract").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Runtime {
    natives: NativeRegistry,
}

impl Runtime {
    /// Creates a runtime with the given native registry.
    pub fn new(natives: NativeRegistry) -> Runtime {
        Runtime { natives }
    }

    /// Runtime with the standard contract categories installed.
    pub fn standard() -> Runtime {
        Runtime::new(NativeRegistry::standard())
    }

    /// The native registry.
    pub fn natives(&self) -> &NativeRegistry {
        &self.natives
    }

    #[allow(clippy::too_many_arguments)]
    fn run_bytecode(
        &self,
        sender: Address,
        contract: Address,
        code: &[u8],
        input: &[u8],
        gas_limit: u64,
        now_ms: u64,
        depth: u32,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        let program = decode_program(code)
            .map_err(|e| ExecError { gas_used: DEPLOY_BASE_GAS, reason: e.to_string() })?;
        let args = decode_args(input)
            .map_err(|e| ExecError { gas_used: DEPLOY_BASE_GAS, reason: e.to_string() })?;
        let dispatcher = RuntimeDispatcher { runtime: self, now_ms };
        let env = CallEnv {
            contract,
            caller: sender,
            args: &args,
            gas_limit,
            dispatcher: Some(&dispatcher),
            depth,
        };
        match execute(&program, &env, state) {
            Ok(outcome) => Ok(ExecOutcome {
                gas_used: outcome.gas_used,
                output: encode_args(&outcome.returned),
                events: outcome.events,
            }),
            Err((trap, gas_used)) => Err(ExecError { gas_used, reason: trap.to_string() }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn invoke_at_depth(
        &self,
        sender: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        now_ms: u64,
        depth: u32,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        if depth > MAX_CALL_DEPTH {
            return Err(ExecError {
                gas_used: 0,
                reason: "cross-contract call depth exceeded".into(),
            });
        }
        let code = state
            .code(&contract)
            .ok_or_else(|| ExecError {
                gas_used: DEPLOY_BASE_GAS,
                reason: format!("no contract at {contract:?}"),
            })?
            .to_vec();
        if let Some(name) = parse_manifest(&code) {
            return self.run_native(name, sender, contract, input, gas_limit, now_ms, state);
        }
        self.run_bytecode(sender, contract, &code, input, gas_limit, now_ms, depth, state)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_native(
        &self,
        name: &str,
        sender: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        now_ms: u64,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        let implementation = self.natives.get(name).ok_or_else(|| ExecError {
            gas_used: DEPLOY_BASE_GAS,
            reason: format!("native contract {name:?} not registered on this node"),
        })?;
        let args = Args::decode(input)
            .map_err(|e| ExecError { gas_used: DEPLOY_BASE_GAS, reason: e.to_string() })?;
        let ctx = NativeCtx { contract, caller: sender, gas_limit, now_ms };
        match implementation.call(&ctx, &args, state) {
            Ok(outcome) => {
                if outcome.gas_used > gas_limit {
                    return Err(ExecError {
                        gas_used: outcome.gas_used,
                        reason: NativeError::OutOfGas.to_string(),
                    });
                }
                Ok(ExecOutcome {
                    gas_used: outcome.gas_used,
                    output: encode_args(&outcome.returned),
                    events: outcome.events,
                })
            }
            Err(err) => Err(ExecError { gas_used: DEPLOY_BASE_GAS, reason: err.to_string() }),
        }
    }
}

impl ContractRuntime for Runtime {
    fn deploy(
        &self,
        sender: Address,
        contract_addr: Address,
        code: &[u8],
        init: &[u8],
        gas_limit: u64,
        now_ms: u64,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        if let Some(name) = parse_manifest(code) {
            if self.natives.get(name).is_none() {
                return Err(ExecError {
                    gas_used: DEPLOY_BASE_GAS,
                    reason: format!("native contract {name:?} not registered on this node"),
                });
            }
            state.set_code(contract_addr, code.to_vec());
            let mut outcome =
                ExecOutcome { gas_used: DEPLOY_BASE_GAS, ..ExecOutcome::default() };
            if !init.is_empty() {
                let init_outcome = self
                    .run_native(name, sender, contract_addr, init, gas_limit, now_ms, state)?;
                outcome.gas_used += init_outcome.gas_used;
                outcome.events = init_outcome.events;
            }
            return Ok(outcome);
        }
        if code.starts_with(BYTECODE_MAGIC) {
            // Validate the program before storing.
            decode_program(code)
                .map_err(|e| ExecError { gas_used: DEPLOY_BASE_GAS, reason: e.to_string() })?;
            state.set_code(contract_addr, code.to_vec());
            let mut outcome = ExecOutcome {
                gas_used: DEPLOY_BASE_GAS + code.len() as u64 / 32,
                ..ExecOutcome::default()
            };
            if !init.is_empty() {
                let init_outcome = self
                    .run_bytecode(sender, contract_addr, code, init, gas_limit, now_ms, 0, state)?;
                outcome.gas_used += init_outcome.gas_used;
                outcome.events = init_outcome.events;
            }
            return Ok(outcome);
        }
        Err(ExecError {
            gas_used: DEPLOY_BASE_GAS,
            reason: "unrecognized contract code format".into(),
        })
    }

    fn invoke(
        &self,
        sender: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        now_ms: u64,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        self.invoke_at_depth(sender, contract, input, gas_limit, now_ms, 0, state)
    }

    fn code_scope(&self, code: &[u8]) -> ExecScope {
        if let Some(name) = parse_manifest(code) {
            // Unknown natives can't run here; MayEscape is the safe
            // answer either way.
            return self
                .natives
                .get(name)
                .map_or(ExecScope::MayEscape, |native| native.scope());
        }
        match decode_program(code) {
            // A bytecode program with no `callc` can only touch its own
            // contract's storage slice — every sload/sstore is keyed by
            // the executing contract address.
            Ok(program) => {
                if program.iter().any(|i| matches!(i, Instr::CallContract)) {
                    ExecScope::MayEscape
                } else {
                    ExecScope::SelfContained
                }
            }
            // Undecodable code traps before touching any state, so a
            // self-contained classification is still sound.
            Err(_) => ExecScope::SelfContained,
        }
    }
}

/// Dispatcher handed to the VM for `callc`: re-enters the runtime with
/// the block timestamp and incremented depth.
struct RuntimeDispatcher<'a> {
    runtime: &'a Runtime,
    now_ms: u64,
}

impl CallDispatcher for RuntimeDispatcher<'_> {
    fn dispatch(
        &self,
        caller: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        depth: u32,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError> {
        self.runtime
            .invoke_at_depth(caller, contract, input, gas_limit, self.now_ms, depth, state)
    }
}

/// Convenience: encodes a method call (`selector` + values) for the
/// standard native contracts.
pub fn call_data(selector: &str, args: &[Value]) -> Vec<u8> {
    let mut values = Vec::with_capacity(args.len() + 1);
    values.push(Value::str(selector));
    values.extend_from_slice(args);
    encode_args(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::native::native_manifest;
    use crate::opcode::encode_program;
    use medchain_chain::ledger::contract_address;
    use medchain_chain::node::ChainApp;
    use medchain_chain::sig::AuthorityKey;
    use medchain_chain::tx::TxPayload;
    use medchain_chain::{Hash256, KeyRegistry, Transaction};

    fn chain_with_runtime() -> (ChainApp, AuthorityKey) {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let app = ChainApp::with_runtime("contract-test", registry, Box::new(Runtime::standard()));
        (app, key)
    }

    fn commit_tx(app: &mut ChainApp, tx: Transaction) -> medchain_chain::Receipt {
        use medchain_chain::consensus::Application;
        let id = tx.id();
        assert!(app.submit(tx), "tx not admitted");
        let block = app.make_block(AuthorityKey::from_seed(1).address(), 10);
        assert!(app.commit_block(&block), "block rejected");
        app.receipt(&id).expect("receipt").clone()
    }

    #[test]
    fn deploy_and_invoke_bytecode_contract() {
        let (mut app, key) = chain_with_runtime();
        let program = assemble("arg 0\narg 1\nadd\nhalt").unwrap();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, deploy);
        assert!(receipt.ok, "{:?}", receipt.error);
        let contract = contract_address(&key.address(), 0);

        let invoke = Transaction::new(
            key.address(),
            1,
            TxPayload::Invoke {
                contract,
                input: encode_args(&[Value::Int(20), Value::Int(22)]),
            },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, invoke);
        assert!(receipt.ok);
        assert_eq!(decode_args(&receipt.output).unwrap(), vec![Value::Int(42)]);
    }

    #[test]
    fn deploy_and_invoke_native_data_contract() {
        let (mut app, key) = chain_with_runtime();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: native_manifest("data_contract"), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        assert!(commit_tx(&mut app, deploy).ok);
        let contract = contract_address(&key.address(), 0);

        let register = Transaction::new(
            key.address(),
            1,
            TxPayload::Invoke {
                contract,
                input: call_data(
                    "register",
                    &[
                        Value::str("hospital-1/emr"),
                        Value::Bytes(Hash256::digest(b"emr data").0.to_vec()),
                        Value::str("fhir-r4"),
                    ],
                ),
            },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, register);
        assert!(receipt.ok, "{:?}", receipt.error);
        assert_eq!(receipt.events.len(), 1);
        assert_eq!(receipt.events[0].topic, crate::events::DATASET_REGISTERED);
    }

    #[test]
    fn code_scope_classifies_contract_footprints() {
        let runtime = Runtime::standard();
        let plain = encode_program(&assemble("arg 0\nhalt").unwrap());
        assert_eq!(runtime.code_scope(&plain), ExecScope::SelfContained);
        let calling = encode_program(
            &assemble("pushb 0x0000000000000000000000000000000000000000\npushb 0x00\ncallc\nhalt")
                .unwrap(),
        );
        assert_eq!(runtime.code_scope(&calling), ExecScope::MayEscape);
        // Registered natives declare their own scope; unknown natives
        // and empty code stay conservative / inert respectively.
        assert_eq!(
            runtime.code_scope(&native_manifest("data_contract")),
            ExecScope::SelfContained
        );
        assert_eq!(runtime.code_scope(&native_manifest("ghost")), ExecScope::MayEscape);
        assert_eq!(runtime.code_scope(b"junk"), ExecScope::SelfContained);
    }

    #[test]
    fn deploying_unknown_native_fails() {
        let (mut app, key) = chain_with_runtime();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: native_manifest("ghost"), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, deploy);
        assert!(!receipt.ok);
        assert!(receipt.error.as_deref().unwrap_or("").contains("ghost"));
    }

    #[test]
    fn garbage_code_fails_deploy() {
        let (mut app, key) = chain_with_runtime();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: vec![1, 2, 3], init: Vec::new() },
            10_000,
        )
        .signed(&key);
        assert!(!commit_tx(&mut app, deploy).ok);
    }

    #[test]
    fn invoking_missing_contract_fails() {
        let (mut app, key) = chain_with_runtime();
        let invoke = Transaction::new(
            key.address(),
            0,
            TxPayload::Invoke {
                contract: Address::from_seed(404),
                input: encode_args(&[]),
            },
            10_000,
        )
        .signed(&key);
        assert!(!commit_tx(&mut app, invoke).ok);
    }

    #[test]
    fn reverting_contract_produces_failed_receipt_with_reason() {
        let (mut app, key) = chain_with_runtime();
        let program = assemble("pushb \"policy violation\"\nrevert").unwrap();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        commit_tx(&mut app, deploy);
        let contract = contract_address(&key.address(), 0);
        let invoke = Transaction::new(
            key.address(),
            1,
            TxPayload::Invoke { contract, input: encode_args(&[]) },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, invoke);
        assert!(!receipt.ok);
        assert!(receipt.error.as_deref().unwrap().contains("policy violation"));
    }

    #[test]
    fn failed_execution_does_not_mutate_storage() {
        // A contract that writes storage then reverts: the ledger rolls
        // back to the pre-transaction snapshot, so no partial write may
        // survive (while the nonce is still consumed).
        let (mut app, key) = chain_with_runtime();
        let program = assemble(
            "pushb \"k\"\npushb \"v\"\nsstore\npushb \"boom\"\nrevert",
        )
        .unwrap();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        commit_tx(&mut app, deploy);
        let contract = contract_address(&key.address(), 0);
        let invoke = Transaction::new(
            key.address(),
            1,
            TxPayload::Invoke { contract, input: encode_args(&[]) },
            10_000,
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, invoke);
        assert!(!receipt.ok);
        assert_eq!(app.ledger().state().storage(&contract, b"k"), None);
        // The nonce was still consumed by the failed transaction.
        assert_eq!(app.ledger().state().account(&key.address()).nonce, 2);
    }

    #[test]
    fn gas_limit_enforced_for_invoke() {
        let (mut app, key) = chain_with_runtime();
        let program = assemble("push 1000000\nburn\nhalt").unwrap();
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: encode_program(&program), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        commit_tx(&mut app, deploy);
        let contract = contract_address(&key.address(), 0);
        let invoke = Transaction::new(
            key.address(),
            1,
            TxPayload::Invoke { contract, input: encode_args(&[]) },
            500, // far too little
        )
        .signed(&key);
        let receipt = commit_tx(&mut app, invoke);
        assert!(!receipt.ok);
        assert!(receipt.error.as_deref().unwrap().contains("gas"));
    }
}

#[cfg(test)]
mod call_tests {
    use super::*;
    use crate::asm::assemble;
    use crate::opcode::encode_program;
    use medchain_chain::ledger::contract_address;
    use medchain_chain::node::ChainApp;
    use medchain_chain::sig::AuthorityKey;
    use medchain_chain::tx::TxPayload;
    use medchain_chain::{KeyRegistry, Transaction, WorldState};

    fn chain() -> (ChainApp, AuthorityKey) {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let app = ChainApp::with_runtime("call-test", registry, Box::new(Runtime::standard()));
        (app, key)
    }

    fn commit(app: &mut ChainApp, key: &AuthorityKey, tx: Transaction) -> medchain_chain::Receipt {
        use medchain_chain::consensus::Application;
        let id = tx.id();
        assert!(app.submit(tx));
        let block = app.make_block(key.address(), 10);
        assert!(app.commit_block(&block));
        app.receipt(&id).expect("receipt").clone()
    }

    fn deploy(app: &mut ChainApp, key: &AuthorityKey, nonce: u64, src: &str) -> Address {
        let code = encode_program(&assemble(src).unwrap());
        let receipt = commit(
            app,
            key,
            Transaction::new(
                key.address(),
                nonce,
                TxPayload::Deploy { code, init: Vec::new() },
                100_000,
            )
            .signed(key),
        );
        assert!(receipt.ok, "{:?}", receipt.error);
        contract_address(&key.address(), nonce)
    }

    #[test]
    fn bytecode_contract_calls_bytecode_contract() {
        let (mut app, key) = chain();
        // Callee: adds its two int args.
        let callee = deploy(&mut app, &key, 0, "arg 0\narg 1\nadd\nhalt");
        // Caller: forwards its own args to the callee via callc and
        // returns the callee's raw output blob.
        let caller_src = format!(
            "pushb 0x{}\narg 0\ncallc\nhalt",
            callee.0.iter().map(|b| format!("{b:02x}")).collect::<String>()
        );
        let caller = deploy(&mut app, &key, 1, &caller_src);

        // args[0] of the caller is the *encoded* args blob for the callee.
        let inner = encode_args(&[Value::Int(20), Value::Int(22)]);
        let receipt = commit(
            &mut app,
            &key,
            Transaction::new(
                key.address(),
                2,
                TxPayload::Invoke {
                    contract: caller,
                    input: encode_args(&[Value::Bytes(inner)]),
                },
                100_000,
            )
            .signed(&key),
        );
        assert!(receipt.ok, "{:?}", receipt.error);
        let outer = decode_args(&receipt.output).unwrap();
        let inner_result = decode_args(outer[0].as_bytes().unwrap()).unwrap();
        assert_eq!(inner_result, vec![Value::Int(42)]);
    }

    #[test]
    fn bytecode_contract_calls_native_contract() {
        let (mut app, key) = chain();
        // Deploy the native data contract and register a dataset.
        let receipt = commit(
            &mut app,
            &key,
            Transaction::new(
                key.address(),
                0,
                TxPayload::Deploy {
                    code: crate::native::native_manifest("data_contract"),
                    init: Vec::new(),
                },
                100_000,
            )
            .signed(&key),
        );
        assert!(receipt.ok);
        let data = contract_address(&key.address(), 0);
        let receipt = commit(
            &mut app,
            &key,
            Transaction::new(
                key.address(),
                1,
                TxPayload::Invoke {
                    contract: data,
                    input: call_data(
                        "register",
                        &[
                            Value::str("emr"),
                            Value::Bytes(medchain_chain::Hash256::digest(b"d").0.to_vec()),
                            Value::str("fhir"),
                        ],
                    ),
                },
                100_000,
            )
            .signed(&key),
        );
        assert!(receipt.ok);

        // A bytecode gateway that proxies an access request to the data
        // contract — contracts composing contracts, as a platform allows.
        let gateway_src = format!(
            "pushb 0x{}\narg 0\ncallc\nhalt",
            data.0.iter().map(|b| format!("{b:02x}")).collect::<String>()
        );
        let gateway = deploy(&mut app, &key, 2, &gateway_src);
        let request = call_data(
            "request",
            &[Value::str("emr"), Value::Int(crate::policy::Purpose::Research.code())],
        );
        let run_gateway = |app: &mut ChainApp, nonce: u64| {
            commit(
                app,
                &key,
                Transaction::new(
                    key.address(),
                    nonce,
                    TxPayload::Invoke {
                        contract: gateway,
                        input: encode_args(&[Value::Bytes(request.clone())]),
                    },
                    100_000,
                )
                .signed(&key),
            )
        };

        // The nested caller is the *gateway contract*, not the sender —
        // EVM-like semantics. Without a grant, the gateway is denied.
        let receipt = run_gateway(&mut app, 3);
        assert!(receipt.ok, "{:?}", receipt.error);
        assert!(receipt.events.iter().any(|e| e.topic == crate::events::DATA_DENIED));

        // Grant the gateway research access, then the proxied request
        // is permitted and the nested event propagates to the receipt.
        let receipt = commit(
            &mut app,
            &key,
            Transaction::new(
                key.address(),
                4,
                TxPayload::Invoke {
                    contract: data,
                    input: call_data(
                        "grant",
                        &[
                            Value::str("emr"),
                            Value::address(&gateway),
                            Value::Int(crate::policy::Purpose::Research.code()),
                            Value::Int(-1),
                        ],
                    ),
                },
                100_000,
            )
            .signed(&key),
        );
        assert!(receipt.ok);
        let receipt = run_gateway(&mut app, 5);
        assert!(receipt.ok, "{:?}", receipt.error);
        assert!(receipt.events.iter().any(|e| e.topic == crate::events::DATA_REQUESTED));
        let outer = decode_args(&receipt.output).unwrap();
        let inner = decode_args(outer[0].as_bytes().unwrap()).unwrap();
        assert_eq!(inner[0], Value::Int(1), "granted gateway should be permitted");
    }

    #[test]
    fn unbounded_recursion_is_stopped_by_depth_limit() {
        let (mut app, key) = chain();
        // A contract that calls *itself* forever. Its own address is
        // derived from (sender, nonce 0) before deployment.
        let self_addr = contract_address(&key.address(), 0);
        let src = format!(
            "pushb 0x{}\npushb 0x00000000\ncallc\nhalt",
            self_addr.0.iter().map(|b| format!("{b:02x}")).collect::<String>()
        );
        let me = deploy(&mut app, &key, 0, &src);
        assert_eq!(me, self_addr);
        let receipt = commit(
            &mut app,
            &key,
            Transaction::new(
                key.address(),
                1,
                TxPayload::Invoke { contract: me, input: encode_args(&[]) },
                1_000_000,
            )
            .signed(&key),
        );
        assert!(!receipt.ok);
        assert!(
            receipt.error.as_deref().unwrap_or("").contains("depth"),
            "expected depth trap, got {:?}",
            receipt.error
        );
    }

    #[test]
    fn callc_without_dispatcher_traps() {
        use crate::vm::{execute, CallEnv, Trap};
        let program = assemble(
            "pushb 0x0000000000000000000000000000000000000000\npushb 0x00\ncallc\nhalt",
        )
        .unwrap();
        let env = CallEnv::new(Address::from_seed(1), Address::from_seed(2), &[], 10_000);
        let mut state = WorldState::new();
        let err = execute(&program, &env, &mut state).unwrap_err();
        assert_eq!(err.0, Trap::NoDispatcher);
    }
}
