//! The paper's three standard contract categories (Fig. 4):
//! [`DataContract`], [`AnalyticsContract`], and [`TrialContract`].
//!
//! Each is a native contract with a string method selector in `args[0]`.
//! They are deliberately *light-weight access-policy control points*
//! (paper §III): heavy work never happens on-chain — contracts register
//! ownership, evaluate policy, and emit events that the off-chain
//! monitor node (Fig. 3) turns into real data movement and computation.

use crate::events;
use crate::native::{Cell, NativeContract, NativeCtx, NativeError, NativeOutcome};
use crate::policy::{AccessPolicy, Decision, Purpose};
use crate::value::{decode_args, encode_args, Args, Value};
use medchain_chain::{Address, Event, ExecScope, Hash256, StateAccess, WorldState};

fn emit(ctx: &NativeCtx, topic: &str, payload: &[Value]) -> Event {
    Event { contract: ctx.contract, topic: topic.to_string(), data: encode_args(payload) }
}

fn require(condition: bool, why: &str) -> Result<(), NativeError> {
    if condition {
        Ok(())
    } else {
        Err(NativeError::Refused(why.to_string()))
    }
}

fn hash32(bytes: &[u8]) -> Result<Hash256, NativeError> {
    let arr: [u8; 32] = bytes
        .try_into()
        .map_err(|_| NativeError::Refused("expected a 32-byte hash".into()))?;
    Ok(Hash256(arr))
}

/// **Data contract** — registers off-chain datasets with their Merkle
/// roots, stores the owner's fine-grained [`AccessPolicy`], and
/// adjudicates access requests.
///
/// Methods (`args[0]`):
///
/// | selector | arguments | effect |
/// |---|---|---|
/// | `register` | label, root (32B), schema | bind dataset to caller as owner |
/// | `grant` | label, grantee, purpose code, expiry (-1 = none) | owner adds a grant |
/// | `revoke` | label, grantee | owner removes all grants of grantee |
/// | `require_consent` | label | owner requires patient consent |
/// | `consent` | label, purpose code | record consent |
/// | `withdraw_consent` | label, purpose code | withdraw consent |
/// | `request` | label, purpose code | evaluate policy; emit event |
/// | `meta` | label | return root, schema, owner |
#[derive(Debug, Default, Clone, Copy)]
pub struct DataContract;

impl DataContract {
    fn load_policy(
        state: &mut dyn StateAccess,
        ctx: &NativeCtx,
        label: &str,
    ) -> Result<AccessPolicy, NativeError> {
        let values = Cell::at(state, ctx.contract, &["ds", label, "policy"])
            .read()
            .ok_or_else(|| NativeError::Refused(format!("unknown dataset {label:?}")))?;
        AccessPolicy::from_values(&values)
            .map_err(|e| NativeError::Refused(format!("corrupt policy: {e}")))
    }

    fn store_policy(
        state: &mut dyn StateAccess,
        ctx: &NativeCtx,
        label: &str,
        policy: &AccessPolicy,
    ) {
        Cell::at(state, ctx.contract, &["ds", label, "policy"]).write(&policy.to_values());
    }
}

impl NativeContract for DataContract {
    fn name(&self) -> &'static str {
        "data_contract"
    }

    // Policy and metadata cells all live under the contract's own
    // address, so parallel scheduling may key this contract by address.
    fn scope(&self) -> ExecScope {
        ExecScope::SelfContained
    }

    fn call(
        &self,
        ctx: &NativeCtx,
        args: &Args,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError> {
        let method = args.str(0)?;
        let mut outcome = NativeOutcome { gas_used: 50, ..NativeOutcome::default() };
        match method {
            "register" => {
                let label = args.str(1)?;
                let root = hash32(args.bytes(2)?)?;
                let schema = args.str(3)?;
                let mut meta = Cell::at(state, ctx.contract, &["ds", label, "meta"]);
                require(!meta.exists(), "dataset already registered")?;
                meta.write(&[
                    Value::Bytes(root.0.to_vec()),
                    Value::str(schema),
                    Value::Int(ctx.now_ms as i64),
                    Value::address(&ctx.caller),
                ]);
                Self::store_policy(state, ctx, label, &AccessPolicy::new(ctx.caller));
                outcome.gas_used += 60;
                outcome.events.push(emit(
                    ctx,
                    events::DATASET_REGISTERED,
                    &[Value::str(label), Value::Bytes(root.0.to_vec()), Value::address(&ctx.caller)],
                ));
                outcome.returned.push(Value::Int(1));
            }
            "grant" | "revoke" | "require_consent" | "consent" | "withdraw_consent" => {
                let label = args.str(1)?;
                let mut policy = Self::load_policy(state, ctx, label)?;
                require(policy.owner() == ctx.caller, "only the data owner may change policy")?;
                match method {
                    "grant" => {
                        let grantee = args.address(2)?;
                        let purpose = Purpose::from_code(args.int(3)?)
                            .map_err(|e| NativeError::Refused(e.to_string()))?;
                        let expiry = args.int(4)?;
                        policy.grant(grantee, purpose, (expiry >= 0).then_some(expiry as u64));
                        outcome.events.push(emit(
                            ctx,
                            events::GRANT_ADDED,
                            &[Value::str(label), Value::address(&grantee), Value::Int(purpose.code())],
                        ));
                    }
                    "revoke" => {
                        let grantee = args.address(2)?;
                        policy.revoke(&grantee);
                        outcome.events.push(emit(
                            ctx,
                            events::GRANT_REVOKED,
                            &[Value::str(label), Value::address(&grantee)],
                        ));
                    }
                    "require_consent" => policy.require_consent(),
                    "consent" => {
                        let purpose = Purpose::from_code(args.int(2)?)
                            .map_err(|e| NativeError::Refused(e.to_string()))?;
                        policy.consent(purpose);
                    }
                    "withdraw_consent" => {
                        let purpose = Purpose::from_code(args.int(2)?)
                            .map_err(|e| NativeError::Refused(e.to_string()))?;
                        policy.withdraw_consent(purpose);
                    }
                    _ => unreachable!(),
                }
                Self::store_policy(state, ctx, label, &policy);
                outcome.gas_used += 40;
                outcome.returned.push(Value::Int(1));
            }
            "request" => {
                let label = args.str(1)?;
                let purpose = Purpose::from_code(args.int(2)?)
                    .map_err(|e| NativeError::Refused(e.to_string()))?;
                let policy = Self::load_policy(state, ctx, label)?;
                let decision = policy.evaluate(&ctx.caller, purpose, ctx.now_ms);
                outcome.gas_used += 30;
                match decision {
                    Decision::Permit => {
                        // Access token: binds requester, dataset, and a
                        // per-dataset counter so each request is unique.
                        let mut counter_cell =
                            Cell::at(state, ctx.contract, &["ds", label, "reqctr"]);
                        let count = counter_cell
                            .read()
                            .and_then(|v| v.first().and_then(|x| x.as_int().ok()))
                            .unwrap_or(0);
                        counter_cell.write(&[Value::Int(count + 1)]);
                        let mut material = label.as_bytes().to_vec();
                        material.extend_from_slice(&ctx.caller.0);
                        material.extend_from_slice(&count.to_le_bytes());
                        let token = Hash256::digest(&material);
                        outcome.events.push(emit(
                            ctx,
                            events::DATA_REQUESTED,
                            &[
                                Value::str(label),
                                Value::address(&ctx.caller),
                                Value::Int(purpose.code()),
                                Value::Bytes(token.0.to_vec()),
                            ],
                        ));
                        outcome.returned.push(Value::Int(1));
                        outcome.returned.push(Value::Bytes(token.0.to_vec()));
                    }
                    Decision::Deny(reason) => {
                        outcome.events.push(emit(
                            ctx,
                            events::DATA_DENIED,
                            &[
                                Value::str(label),
                                Value::address(&ctx.caller),
                                Value::Int(purpose.code()),
                                Value::str(&reason.to_string()),
                            ],
                        ));
                        outcome.returned.push(Value::Int(0));
                        outcome.returned.push(Value::str(&reason.to_string()));
                    }
                }
            }
            "meta" => {
                let label = args.str(1)?;
                let meta = Cell::at(state, ctx.contract, &["ds", label, "meta"])
                    .read()
                    .ok_or_else(|| NativeError::Refused(format!("unknown dataset {label:?}")))?;
                outcome.returned = meta;
            }
            other => return Err(NativeError::UnknownMethod(other.to_string())),
        }
        Ok(outcome)
    }
}

/// **Analytics contract** — registers analytics tools with code-integrity
/// hashes and coordinates off-chain runs (paper Fig. 1): a request names
/// the sites that run it, each named site runs its shard next to its own
/// data, and each posts back its outcome, the encoded local result.
///
/// Methods: `register_tool(name, code_hash)` (any name but the reserved
/// [`QUERY_TOOL`]),
/// `request_run(tool, dataset_label, site₁, params₁, …, siteₙ, paramsₙ)`,
/// `post_result(task_id, outcome)`, `result(task_id)`; a tool's hash
/// reads without a transaction through [`AnalyticsContract::tool_hash`].
///
/// A task record is `[tool, dataset, requester, status, composed hash,
/// site₁, outcome₁, …, siteₙ, outcomeₙ]`. Each named site may post once,
/// under its own key, a non-empty outcome of at most
/// [`MAX_OUTCOME_BYTES`]; the caller's address picks its shard. When the
/// last one posts, status turns 1 and the composed hash becomes
/// SHA-256(SHA-256(outcome₁) ‖ … ‖ SHA-256(outcomeₙ)) in shard order.
/// The contract checks *who* posts, not whether an outcome is right: a
/// forged outcome stands next to the site that posted it.
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyticsContract;

/// The largest outcome one site may post for one shard. Outcomes are
/// local results (counts, sufficient statistics, model parameters), not
/// records; the largest the pipelines post is a GWAS count table of
/// about 0.55 kB.
pub const MAX_OUTCOME_BYTES: usize = 4 * 1024;

/// Index of the first `(site, outcome)` pair in a task record.
const TASK_SHARDS: usize = 5;

/// The tool every site installs to answer queries, GWAS and federated
/// rounds. The contract knows it from deployment: `register_tool`
/// refuses the name, so no caller can claim it with another hash, and
/// `request_run` names the build [`QUERY_TOOL_BUILD`].
pub const QUERY_TOOL: &str = "query";

/// The one build of [`QUERY_TOOL`] sites run. A tool built as
/// `Tool::new(QUERY_TOOL, QUERY_TOOL_BUILD, …)` hashes to
/// SHA-256(name ‖ build), the code hash `request_run` names for it.
pub const QUERY_TOOL_BUILD: &str = "v1";

fn query_tool_hash() -> Hash256 {
    Hash256::digest(format!("{QUERY_TOOL}{QUERY_TOOL_BUILD}").as_bytes())
}

impl AnalyticsContract {
    /// Task `id`'s record as committed in `state`, read without a
    /// transaction: `record[3] == Value::Int(1)` once every named site
    /// posted.
    pub fn task(state: &WorldState, contract: &Address, id: i64) -> Option<Vec<Value>> {
        decode_args(state.storage(contract, format!("task/{id}").as_bytes())?).ok()
    }

    /// The code hash `request_run` names for tool `name` in `state`, read
    /// without a transaction: [`QUERY_TOOL`]'s fixed build, or the hash
    /// `register_tool` recorded.
    pub fn tool_hash(state: &WorldState, contract: &Address, name: &str) -> Option<Hash256> {
        if name == QUERY_TOOL {
            return Some(query_tool_hash());
        }
        let record = decode_args(state.storage(contract, format!("tool/{name}").as_bytes())?).ok()?;
        hash32(record.first()?.as_bytes().ok()?).ok()
    }
}

impl NativeContract for AnalyticsContract {
    fn name(&self) -> &'static str {
        "analytics_contract"
    }

    fn scope(&self) -> ExecScope {
        ExecScope::SelfContained
    }

    fn call(
        &self,
        ctx: &NativeCtx,
        args: &Args,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError> {
        let method = args.str(0)?;
        let mut outcome = NativeOutcome { gas_used: 50, ..NativeOutcome::default() };
        match method {
            "register_tool" => {
                let name = args.str(1)?;
                let code_hash = hash32(args.bytes(2)?)?;
                require(name != QUERY_TOOL, "tool name reserved")?;
                let mut cell = Cell::at(state, ctx.contract, &["tool", name]);
                require(!cell.exists(), "tool already registered")?;
                cell.write(&[
                    Value::Bytes(code_hash.0.to_vec()),
                    Value::address(&ctx.caller),
                    Value::Int(ctx.now_ms as i64),
                ]);
                outcome.gas_used += 40;
                outcome.events.push(emit(
                    ctx,
                    events::TOOL_REGISTERED,
                    &[Value::str(name), Value::Bytes(code_hash.0.to_vec())],
                ));
                outcome.returned.push(Value::Int(1));
            }
            "request_run" => {
                let tool = args.str(1)?;
                let dataset = args.str(2)?;
                let shards = &args.0[3..];
                require(
                    !shards.is_empty() && shards.len().is_multiple_of(2),
                    "a run names (site, params) shards",
                )?;
                let mut record = vec![
                    Value::str(tool),
                    Value::str(dataset),
                    Value::address(&ctx.caller),
                    Value::Int(0), // status: pending
                    Value::Bytes(Vec::new()),
                ];
                for pair in shards.chunks(2) {
                    let site = Value::address(&pair[0].as_address()?);
                    pair[1].as_bytes()?;
                    require(!record[TASK_SHARDS..].contains(&site), "site named twice")?;
                    record.extend([site, Value::Bytes(Vec::new())]);
                }
                // The registered code hash rides the event, so every site
                // checks its installed build before running.
                let known = (tool == QUERY_TOOL).then(|| Value::Bytes(query_tool_hash().0.to_vec()));
                let code_hash = Cell::at(state, ctx.contract, &["tool", tool])
                    .read()
                    .and_then(|cell| cell.into_iter().next())
                    .or(known)
                    .ok_or_else(|| NativeError::Refused("unknown analytics tool".into()))?;
                let mut counter = Cell::at(state, ctx.contract, &["taskctr"]);
                let id = counter
                    .read()
                    .and_then(|v| v.first().and_then(|x| x.as_int().ok()))
                    .unwrap_or(0);
                counter.write(&[Value::Int(id + 1)]);
                Cell::at(state, ctx.contract, &["task", &id.to_string()]).write(&record);
                outcome.gas_used += 60;
                let mut payload = vec![
                    Value::Int(id),
                    Value::str(tool),
                    code_hash,
                    Value::str(dataset),
                    Value::address(&ctx.caller),
                ];
                payload.extend_from_slice(shards);
                outcome.events.push(emit(ctx, events::ANALYTICS_REQUESTED, &payload));
                outcome.returned.push(Value::Int(id));
            }
            "post_result" => {
                let id = args.int(1)?;
                let posted_outcome = args.bytes(2)?;
                require(
                    !posted_outcome.is_empty() && posted_outcome.len() <= MAX_OUTCOME_BYTES,
                    "an outcome is 1 to MAX_OUTCOME_BYTES bytes",
                )?;
                let key = id.to_string();
                let mut cell = Cell::at(state, ctx.contract, &["task", &key]);
                let mut task = cell
                    .read()
                    .ok_or_else(|| NativeError::Refused(format!("unknown task {id}")))?;
                let caller = Value::address(&ctx.caller);
                let slot = (TASK_SHARDS..task.len())
                    .step_by(2)
                    .find(|&i| task[i] == caller)
                    .map(|i| i + 1)
                    .ok_or_else(|| NativeError::Refused("caller is not a named site".into()))?;
                require(task[slot].as_bytes()?.is_empty(), "site already posted")?;
                task[slot] = Value::Bytes(posted_outcome.to_vec());
                let mut posted = Vec::new();
                for value in task[TASK_SHARDS + 1..].iter().step_by(2) {
                    posted.push(value.as_bytes()?);
                }
                if posted.iter().all(|bytes| !bytes.is_empty()) {
                    // The last named site: compose and complete.
                    let mut hashes = Vec::with_capacity(32 * posted.len());
                    for bytes in posted {
                        hashes.extend_from_slice(&Hash256::digest(bytes).0);
                    }
                    let composed = Hash256::digest(&hashes);
                    task[3] = Value::Int(1);
                    task[4] = Value::Bytes(composed.0.to_vec());
                    outcome.events.push(emit(
                        ctx,
                        events::ANALYTICS_COMPLETED,
                        &[Value::Int(id), Value::Bytes(composed.0.to_vec())],
                    ));
                }
                cell.write(&task);
                outcome.gas_used += 40;
                outcome.returned.push(Value::Int(1));
            }
            "result" => {
                let id = args.int(1)?;
                let task = Cell::at(state, ctx.contract, &["task", &id.to_string()])
                    .read()
                    .ok_or_else(|| NativeError::Refused(format!("unknown task {id}")))?;
                outcome.returned = task;
            }
            other => return Err(NativeError::UnknownMethod(other.to_string())),
        }
        Ok(outcome)
    }
}

/// **Clinical-trial contract** — trial registration with pre-specified
/// primary outcomes, participant enrollment, and outcome reporting with
/// automatic outcome-switch flagging (the COMPare problem, §III-B).
///
/// Methods: `register(trial_id, protocol_hash, primary_outcome)`,
/// `enroll(trial_id, patient_pseudonym)`,
/// `report_outcome(trial_id, outcome_name, value_hash)`,
/// `audit(trial_id)`, `enrollment(trial_id)`.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrialContract;

impl NativeContract for TrialContract {
    fn name(&self) -> &'static str {
        "trial_contract"
    }

    fn scope(&self) -> ExecScope {
        ExecScope::SelfContained
    }

    fn call(
        &self,
        ctx: &NativeCtx,
        args: &Args,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError> {
        let method = args.str(0)?;
        let mut outcome = NativeOutcome { gas_used: 50, ..NativeOutcome::default() };
        match method {
            "register" => {
                let trial = args.str(1)?;
                let protocol_hash = hash32(args.bytes(2)?)?;
                let primary_outcome = args.str(3)?;
                let mut meta = Cell::at(state, ctx.contract, &["trial", trial, "meta"]);
                require(!meta.exists(), "trial already registered")?;
                meta.write(&[
                    Value::Bytes(protocol_hash.0.to_vec()),
                    Value::address(&ctx.caller),
                    Value::str(primary_outcome),
                    Value::Int(ctx.now_ms as i64),
                ]);
                outcome.gas_used += 50;
                outcome.events.push(emit(
                    ctx,
                    events::TRIAL_REGISTERED,
                    &[Value::str(trial), Value::str(primary_outcome)],
                ));
                outcome.returned.push(Value::Int(1));
            }
            "enroll" => {
                let trial = args.str(1)?;
                let patient = args.bytes(2)?.to_vec();
                require(
                    Cell::at(state, ctx.contract, &["trial", trial, "meta"]).exists(),
                    "unknown trial",
                )?;
                let patient_hex: String = patient.iter().map(|b| format!("{b:02x}")).collect();
                let mut cell =
                    Cell::at(state, ctx.contract, &["trial", trial, "enroll", &patient_hex]);
                require(!cell.exists(), "participant already enrolled")?;
                cell.write(&[Value::Int(ctx.now_ms as i64), Value::address(&ctx.caller)]);
                let mut counter = Cell::at(state, ctx.contract, &["trial", trial, "count"]);
                let n = counter
                    .read()
                    .and_then(|v| v.first().and_then(|x| x.as_int().ok()))
                    .unwrap_or(0);
                counter.write(&[Value::Int(n + 1)]);
                outcome.gas_used += 45;
                outcome.events.push(emit(
                    ctx,
                    events::PARTICIPANT_ENROLLED,
                    &[Value::str(trial), Value::Bytes(patient)],
                ));
                outcome.returned.push(Value::Int(n + 1));
            }
            "report_outcome" => {
                let trial = args.str(1)?;
                let outcome_name = args.str(2)?;
                let value_hash = hash32(args.bytes(3)?)?;
                let meta = Cell::at(state, ctx.contract, &["trial", trial, "meta"])
                    .read()
                    .ok_or_else(|| NativeError::Refused("unknown trial".into()))?;
                let primary = meta
                    .get(2)
                    .and_then(|v| v.as_str().ok())
                    .unwrap_or("")
                    .to_string();
                let switched = outcome_name != primary;
                let mut reports = Cell::at(state, ctx.contract, &["trial", trial, "outcomes"]);
                let mut list = reports.read().unwrap_or_default();
                list.push(Value::str(outcome_name));
                list.push(Value::Bytes(value_hash.0.to_vec()));
                list.push(Value::address(&ctx.caller));
                list.push(Value::Int(i64::from(switched)));
                reports.write(&list);
                outcome.gas_used += 45;
                outcome.events.push(emit(
                    ctx,
                    events::OUTCOME_REPORTED,
                    &[
                        Value::str(trial),
                        Value::str(outcome_name),
                        Value::Int(i64::from(switched)),
                    ],
                ));
                outcome.returned.push(Value::Int(i64::from(switched)));
            }
            "audit" => {
                let trial = args.str(1)?;
                let list = Cell::at(state, ctx.contract, &["trial", trial, "outcomes"])
                    .read()
                    .unwrap_or_default();
                let reports = (list.len() / 4) as i64;
                let switched = list
                    .chunks(4)
                    .filter(|c| c.get(3).and_then(|v| v.as_int().ok()) == Some(1))
                    .count() as i64;
                outcome.returned = vec![Value::Int(reports), Value::Int(switched)];
            }
            "enrollment" => {
                let trial = args.str(1)?;
                let n = Cell::at(state, ctx.contract, &["trial", trial, "count"])
                    .read()
                    .and_then(|v| v.first().and_then(|x| x.as_int().ok()))
                    .unwrap_or(0);
                outcome.returned = vec![Value::Int(n)];
            }
            other => return Err(NativeError::UnknownMethod(other.to_string())),
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(caller_seed: u64) -> NativeCtx {
        NativeCtx {
            contract: Address::from_seed(500),
            caller: Address::from_seed(caller_seed),
            gas_limit: 1_000_000,
            now_ms: 1_000,
        }
    }

    fn call(
        contract: &dyn NativeContract,
        caller_seed: u64,
        args: Vec<Value>,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError> {
        contract.call(&ctx(caller_seed), &Args(args), state)
    }

    fn root() -> Value {
        Value::Bytes(Hash256::digest(b"dataset").0.to_vec())
    }

    #[test]
    fn dataset_register_and_meta() {
        let mut state = WorldState::new();
        let out = call(
            &DataContract,
            1,
            vec![Value::str("register"), Value::str("emr-2018"), root(), Value::str("fhir")],
            &mut state,
        )
        .unwrap();
        assert_eq!(out.events[0].topic, events::DATASET_REGISTERED);
        let meta = call(
            &DataContract,
            2,
            vec![Value::str("meta"), Value::str("emr-2018")],
            &mut state,
        )
        .unwrap();
        assert_eq!(meta.returned[1], Value::str("fhir"));
        assert_eq!(meta.returned[3], Value::address(&Address::from_seed(1)));
    }

    #[test]
    fn duplicate_registration_refused() {
        let mut state = WorldState::new();
        let args =
            vec![Value::str("register"), Value::str("emr"), root(), Value::str("csv")];
        call(&DataContract, 1, args.clone(), &mut state).unwrap();
        assert!(matches!(
            call(&DataContract, 2, args, &mut state),
            Err(NativeError::Refused(_))
        ));
    }

    #[test]
    fn grant_then_request_permits_and_emits_token() {
        let mut state = WorldState::new();
        call(
            &DataContract,
            1,
            vec![Value::str("register"), Value::str("emr"), root(), Value::str("csv")],
            &mut state,
        )
        .unwrap();
        call(
            &DataContract,
            1,
            vec![
                Value::str("grant"),
                Value::str("emr"),
                Value::address(&Address::from_seed(2)),
                Value::Int(Purpose::Research.code()),
                Value::Int(-1),
            ],
            &mut state,
        )
        .unwrap();
        let out = call(
            &DataContract,
            2,
            vec![Value::str("request"), Value::str("emr"), Value::Int(Purpose::Research.code())],
            &mut state,
        )
        .unwrap();
        assert_eq!(out.returned[0], Value::Int(1));
        assert_eq!(out.events[0].topic, events::DATA_REQUESTED);
        // Second request gets a different token.
        let out2 = call(
            &DataContract,
            2,
            vec![Value::str("request"), Value::str("emr"), Value::Int(Purpose::Research.code())],
            &mut state,
        )
        .unwrap();
        assert_ne!(out.returned[1], out2.returned[1]);
    }

    #[test]
    fn ungranted_request_is_denied_but_audited() {
        let mut state = WorldState::new();
        call(
            &DataContract,
            1,
            vec![Value::str("register"), Value::str("emr"), root(), Value::str("csv")],
            &mut state,
        )
        .unwrap();
        let out = call(
            &DataContract,
            7,
            vec![Value::str("request"), Value::str("emr"), Value::Int(Purpose::Research.code())],
            &mut state,
        )
        .unwrap();
        assert_eq!(out.returned[0], Value::Int(0));
        assert_eq!(out.events[0].topic, events::DATA_DENIED);
    }

    #[test]
    fn non_owner_cannot_grant() {
        let mut state = WorldState::new();
        call(
            &DataContract,
            1,
            vec![Value::str("register"), Value::str("emr"), root(), Value::str("csv")],
            &mut state,
        )
        .unwrap();
        let result = call(
            &DataContract,
            2,
            vec![
                Value::str("grant"),
                Value::str("emr"),
                Value::address(&Address::from_seed(2)),
                Value::Int(Purpose::Research.code()),
                Value::Int(-1),
            ],
            &mut state,
        );
        assert!(matches!(result, Err(NativeError::Refused(_))));
    }

    #[test]
    fn consent_flow_end_to_end() {
        let mut state = WorldState::new();
        let research = Value::Int(Purpose::Research.code());
        call(
            &DataContract,
            1,
            vec![Value::str("register"), Value::str("emr"), root(), Value::str("csv")],
            &mut state,
        )
        .unwrap();
        call(
            &DataContract,
            1,
            vec![
                Value::str("grant"),
                Value::str("emr"),
                Value::address(&Address::from_seed(2)),
                research.clone(),
                Value::Int(-1),
            ],
            &mut state,
        )
        .unwrap();
        call(&DataContract, 1, vec![Value::str("require_consent"), Value::str("emr")], &mut state)
            .unwrap();
        let denied = call(
            &DataContract,
            2,
            vec![Value::str("request"), Value::str("emr"), research.clone()],
            &mut state,
        )
        .unwrap();
        assert_eq!(denied.returned[0], Value::Int(0));
        call(
            &DataContract,
            1,
            vec![Value::str("consent"), Value::str("emr"), research.clone()],
            &mut state,
        )
        .unwrap();
        let permitted = call(
            &DataContract,
            2,
            vec![Value::str("request"), Value::str("emr"), research],
            &mut state,
        )
        .unwrap();
        assert_eq!(permitted.returned[0], Value::Int(1));
    }

    /// Registers tool `t` and requests a run naming sites 2, 3 and 4 (in
    /// that shard order); returns the task id.
    fn three_site_task(state: &mut WorldState) -> i64 {
        let code_hash = Value::Bytes(Hash256::digest(b"t v1").0.to_vec());
        call(
            &AnalyticsContract,
            1,
            vec![Value::str("register_tool"), Value::str("t"), code_hash.clone()],
            state,
        )
        .unwrap();
        let mut args = vec![Value::str("request_run"), Value::str("t"), Value::str("d")];
        for site in [2, 3, 4] {
            let named = Value::address(&Address::from_seed(site));
            args.extend([named, Value::Bytes(vec![site as u8])]);
        }
        let out = call(&AnalyticsContract, 1, args, state).unwrap();
        assert_eq!(out.events[0].topic, events::ANALYTICS_REQUESTED);
        // The event carries the registered code hash for the sites' check.
        let payload = crate::value::decode_args(&out.events[0].data).unwrap();
        assert_eq!(payload[2], code_hash);
        out.returned[0].as_int().unwrap()
    }

    fn post(
        state: &mut WorldState,
        site: u64,
        id: i64,
        outcome: &[u8],
    ) -> Result<NativeOutcome, NativeError> {
        let args = vec![Value::str("post_result"), Value::Int(id), Value::Bytes(outcome.to_vec())];
        call(&AnalyticsContract, site, args, state)
    }

    fn record(state: &mut WorldState, id: i64) -> Vec<Value> {
        call(&AnalyticsContract, 9, vec![Value::str("result"), Value::Int(id)], state)
            .unwrap()
            .returned
    }

    /// Site `site`'s fixed outcome bytes.
    fn site_outcome(site: u64) -> Vec<u8> {
        format!("outcome of site {site}").into_bytes()
    }

    #[test]
    fn analytics_task_lifecycle() {
        let mut state = WorldState::new();
        let id = three_site_task(&mut state);
        // Posts arrive out of shard order; the task stays pending until
        // the last named site posts.
        for site in [4, 2] {
            let out = post(&mut state, site, id, &site_outcome(site)).unwrap();
            assert!(out.events.is_empty());
            assert_eq!(out.gas_used, 90);
            assert_eq!(record(&mut state, id)[3], Value::Int(0), "pending after site {site}");
        }
        let out = post(&mut state, 3, id, &site_outcome(3)).unwrap();
        assert_eq!(out.events[0].topic, events::ANALYTICS_COMPLETED);
        let stored = record(&mut state, id);
        assert_eq!(stored[3], Value::Int(1)); // status done
        // Each slot holds the outcome its site posted.
        for (slot, site) in [2, 3, 4].into_iter().enumerate() {
            assert_eq!(stored[TASK_SHARDS + 2 * slot + 1], Value::Bytes(site_outcome(site)));
        }
    }

    #[test]
    fn the_composed_hash_is_sha256_over_the_per_site_sha256s() {
        let mut state = WorldState::new();
        let id = three_site_task(&mut state);
        for site in [3, 4, 2] {
            post(&mut state, site, id, &site_outcome(site)).unwrap();
        }
        // SHA-256(SHA-256(out₂) ‖ SHA-256(out₃) ‖ SHA-256(out₄)): shard
        // order, whatever the posting order. It is the value the sites'
        // hash posts composed to before posts carried outcomes.
        let mut material = Vec::new();
        for site in [2, 3, 4] {
            material.extend_from_slice(&Hash256::digest(&site_outcome(site)).0);
        }
        let composed = Hash256::digest(&material);
        assert_eq!(record(&mut state, id)[4], Value::Bytes(composed.0.to_vec()));
        assert_eq!(
            composed.to_hex(),
            "92acfd0a818da7e9236623d971cd77389100f43ac0779f866f06c57f06520dbb"
        );
    }

    #[test]
    fn double_result_posting_refused() {
        let mut state = WorldState::new();
        let id = three_site_task(&mut state);
        post(&mut state, 2, id, &site_outcome(2)).unwrap();
        for (site, task, outcome, why) in [
            (2, id, site_outcome(2), "a second post from one site"),
            (1, id, site_outcome(1), "the requester, not a named site"),
            (7, id, site_outcome(7), "a key outside the named sites"),
            (3, id + 1, site_outcome(3), "an unknown task"),
            (3, id, Vec::new(), "an empty outcome"),
            (3, id, vec![7; MAX_OUTCOME_BYTES + 1], "an outcome over the cap"),
        ] {
            let refused = post(&mut state, site, task, &outcome);
            assert!(matches!(refused, Err(NativeError::Refused(_))), "{why} was accepted");
        }
        // A request must name at least one site, and each site once.
        let site = Value::address(&Address::from_seed(2));
        for shards in [
            vec![],
            vec![site.clone()],
            vec![site.clone(), Value::Bytes(vec![1]), site, Value::Bytes(vec![2])],
        ] {
            let mut args = vec![Value::str("request_run"), Value::str("t"), Value::str("d")];
            args.extend(shards);
            assert!(matches!(
                call(&AnalyticsContract, 1, args, &mut state),
                Err(NativeError::Refused(_) | NativeError::BadArgs(_))
            ));
        }
        // The refusals left the task record as the one good post made it.
        let stored = record(&mut state, id);
        assert_eq!(stored[3], Value::Int(0));
        assert_eq!(stored[6], Value::Bytes(site_outcome(2)));
        assert_eq!(stored[8], Value::Bytes(Vec::new()));
        // An outcome of exactly the cap is accepted.
        post(&mut state, 3, id, &[7; MAX_OUTCOME_BYTES]).unwrap();
    }

    #[test]
    fn the_task_record_names_a_site_that_posts_a_forged_outcome() {
        let mut state = WorldState::new();
        let id = three_site_task(&mut state);
        post(&mut state, 2, id, &site_outcome(2)).unwrap();
        post(&mut state, 3, id, b"forged").unwrap();
        post(&mut state, 4, id, &site_outcome(4)).unwrap();
        // The requester recomputes each site's outcome off-chain and
        // reads who posted what from the record alone.
        let stored = record(&mut state, id);
        assert_eq!(stored[3], Value::Int(1), "the contract cannot tell a forged outcome");
        let forgers: Vec<u64> = [2, 3, 4]
            .into_iter()
            .filter(|&site| {
                let named = Value::address(&Address::from_seed(site));
                let pair = stored[TASK_SHARDS..].chunks(2).find(|p| p[0] == named).unwrap();
                pair[1] != Value::Bytes(site_outcome(site))
            })
            .collect();
        assert_eq!(forgers, vec![3]);
    }

    #[test]
    fn a_registered_tool_hash_reads_back_without_a_transaction() {
        let mut state = WorldState::new();
        three_site_task(&mut state);
        let contract = ctx(1).contract;
        let registered = AnalyticsContract::tool_hash(&state, &contract, "t");
        assert_eq!(registered, Some(Hash256::digest(b"t v1")));
        assert_eq!(AnalyticsContract::tool_hash(&state, &contract, "ghost"), None);
    }

    #[test]
    fn the_query_tool_name_cannot_be_registered() {
        let mut state = WorldState::new();
        let contract = ctx(1).contract;
        let bogus = Value::Bytes(Hash256::digest(b"bogus").0.to_vec());
        let squat = vec![Value::str("register_tool"), Value::str(QUERY_TOOL), bogus];
        assert!(matches!(
            call(&AnalyticsContract, 7, squat, &mut state),
            Err(NativeError::Refused(why)) if why == "tool name reserved"
        ));
        // The contract names the sites' build without a registration.
        let expected = Hash256::digest(b"queryv1");
        assert_eq!(AnalyticsContract::tool_hash(&state, &contract, QUERY_TOOL), Some(expected));
        let site = Value::address(&Address::from_seed(2));
        let (tool, shard) = (Value::str(QUERY_TOOL), Value::Bytes(vec![1]));
        let args = vec![Value::str("request_run"), tool, Value::str("d"), site, shard];
        let out = call(&AnalyticsContract, 1, args, &mut state).unwrap();
        let payload = crate::value::decode_args(&out.events[0].data).unwrap();
        assert_eq!(payload[2], Value::Bytes(expected.0.to_vec()));
    }

    #[test]
    fn unknown_tool_run_refused() {
        let mut state = WorldState::new();
        assert!(matches!(
            call(
                &AnalyticsContract,
                1,
                vec![
                    Value::str("request_run"),
                    Value::str("ghost"),
                    Value::str("d"),
                    Value::address(&Address::from_seed(2)),
                    Value::Bytes(vec![]),
                ],
                &mut state,
            ),
            Err(NativeError::Refused(_))
        ));
    }

    #[test]
    fn trial_outcome_switching_is_flagged() {
        let mut state = WorldState::new();
        let protocol = Value::Bytes(Hash256::digest(b"protocol v1").0.to_vec());
        call(
            &TrialContract,
            1,
            vec![
                Value::str("register"),
                Value::str("NCT001"),
                protocol,
                Value::str("mortality-30d"),
            ],
            &mut state,
        )
        .unwrap();

        let honest = call(
            &TrialContract,
            1,
            vec![
                Value::str("report_outcome"),
                Value::str("NCT001"),
                Value::str("mortality-30d"),
                Value::Bytes(Hash256::digest(b"result A").0.to_vec()),
            ],
            &mut state,
        )
        .unwrap();
        assert_eq!(honest.returned[0], Value::Int(0)); // not switched

        let switched = call(
            &TrialContract,
            1,
            vec![
                Value::str("report_outcome"),
                Value::str("NCT001"),
                Value::str("quality-of-life"), // not the pre-registered outcome
                Value::Bytes(Hash256::digest(b"result B").0.to_vec()),
            ],
            &mut state,
        )
        .unwrap();
        assert_eq!(switched.returned[0], Value::Int(1));

        let audit = call(
            &TrialContract,
            9,
            vec![Value::str("audit"), Value::str("NCT001")],
            &mut state,
        )
        .unwrap();
        assert_eq!(audit.returned, vec![Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn trial_enrollment_counts_and_dedupes() {
        let mut state = WorldState::new();
        let protocol = Value::Bytes(Hash256::digest(b"p").0.to_vec());
        call(
            &TrialContract,
            1,
            vec![Value::str("register"), Value::str("T"), protocol, Value::str("o")],
            &mut state,
        )
        .unwrap();
        for i in 0..5u8 {
            call(
                &TrialContract,
                1,
                vec![Value::str("enroll"), Value::str("T"), Value::Bytes(vec![i])],
                &mut state,
            )
            .unwrap();
        }
        assert!(matches!(
            call(
                &TrialContract,
                1,
                vec![Value::str("enroll"), Value::str("T"), Value::Bytes(vec![0])],
                &mut state,
            ),
            Err(NativeError::Refused(_))
        ));
        let n = call(
            &TrialContract,
            2,
            vec![Value::str("enrollment"), Value::str("T")],
            &mut state,
        )
        .unwrap();
        assert_eq!(n.returned, vec![Value::Int(5)]);
    }

    #[test]
    fn unknown_methods_rejected() {
        let mut state = WorldState::new();
        for contract in [&DataContract as &dyn NativeContract, &AnalyticsContract, &TrialContract]
        {
            assert!(matches!(
                call_dyn(contract, &mut state),
                Err(NativeError::UnknownMethod(_))
            ));
        }
    }

    fn call_dyn(
        contract: &dyn NativeContract,
        state: &mut dyn StateAccess,
    ) -> Result<NativeOutcome, NativeError> {
        contract.call(&ctx(1), &Args(vec![Value::str("no_such_method")]), state)
    }
}
