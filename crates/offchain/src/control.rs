//! The per-node off-chain control code (paper Fig. 1).
//!
//! "The off-chain control code which communicate with on-chain smart
//! contract of each node is different. Each individual control code will
//! feed different data to the smart contract. As a result, each smart
//! contract on each node will effectively behave differently" (§III).
//!
//! [`ControlNode`] is that per-site brain. [`ControlNode::pick_up`] polls
//! the site's own replica through its [`MonitorNode`] and keeps the
//! analytics requests that name *this* site; [`ControlNode::run`] runs
//! the site's shard on its own [`TaskExecutor`], next to its own data,
//! after checking the installed tool against the code hash registered
//! on-chain. Only the encoded result — the site's outcome, at most
//! [`MAX_OUTCOME_BYTES`] — leaves the site, for the surrounding node to
//! post under its own key. The same
//! on-chain contract code thus drives *different* computation at every
//! site, which is exactly the transformation the paper proposes.

use crate::executor::{TaskExecutor, Tool};
use crate::monitor::{CapturedEvent, MonitorNode};
use medchain_chain::{Address, Hash256, Ledger};
use medchain_contracts::events;
use medchain_contracts::standard::{AnalyticsContract, MAX_OUTCOME_BYTES};
use medchain_contracts::value::{decode_args, encode_args, Value};
use std::fmt;

/// One site's shard of an analytics request, picked up from its replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJob {
    /// Task id assigned by the analytics contract.
    pub task_id: i64,
    /// Tool to run.
    pub tool: String,
    /// The tool's code hash as registered on-chain.
    pub code_hash: Hash256,
    /// Dataset label the request names.
    pub dataset: String,
    /// This site's shard parameters.
    pub params: Vec<u8>,
}

/// Work statistics for one control node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlStats {
    /// Shards executed locally.
    pub tasks_run: u64,
    /// Analytics requests that named other sites only.
    pub tasks_skipped: u64,
    /// Shards that failed: tool missing, built differently from the
    /// registered code, erroring, or returning an outcome over
    /// [`MAX_OUTCOME_BYTES`].
    pub failures: u64,
}

/// One site's off-chain control code.
pub struct ControlNode {
    site: String,
    address: Address,
    monitor: MonitorNode,
    executor: TaskExecutor,
    stats: ControlStats,
}

impl fmt::Debug for ControlNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlNode")
            .field("site", &self.site)
            .field("address", &self.address)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ControlNode {
    /// Creates the control code for `site`, which signs as `address`.
    pub fn new(site: &str, address: Address) -> ControlNode {
        ControlNode {
            site: site.to_string(),
            address,
            monitor: MonitorNode::new(),
            executor: TaskExecutor::new(),
            stats: ControlStats::default(),
        }
    }

    /// The site name.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// Installs an analytics tool at this site.
    pub fn install_tool(&mut self, tool: Tool) {
        self.executor.install(tool);
    }

    /// The site's executor.
    pub fn executor_mut(&mut self) -> &mut TaskExecutor {
        &mut self.executor
    }

    /// Work statistics.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Polls the site's own replica for new blocks and returns the shards
    /// of the requests to the `analytics` contract that name this site
    /// and that it has not answered yet. Any contract can emit an event
    /// under the same topic; only the analytics contract's count. A site
    /// resumed from disk replays the blocks above its snapshot, and the
    /// committed task record says which of their shards it already
    /// posted.
    pub fn pick_up(&mut self, ledger: &Ledger, analytics: &Address) -> Vec<ShardJob> {
        let mut jobs = Vec::new();
        for captured in self.monitor.poll(ledger) {
            let event = &captured.event;
            if event.topic != events::ANALYTICS_REQUESTED || event.contract != *analytics {
                continue;
            }
            match self.shard_of(&captured) {
                Some(job) if !self.posted(ledger, analytics, job.task_id) => jobs.push(job),
                Some(_) => {}
                None => self.stats.tasks_skipped += 1,
            }
        }
        jobs
    }

    /// Whether this site's slot in task `id`'s committed record is filled.
    fn posted(&self, ledger: &Ledger, analytics: &Address, id: i64) -> bool {
        let me = Value::address(&self.address);
        // The record's (site, outcome) pairs start at index 5.
        AnalyticsContract::task(ledger.state(), analytics, id).is_some_and(|record| {
            let pairs = record.get(5..).unwrap_or_default().chunks_exact(2);
            pairs.into_iter().any(|pair| pair[0] == me && pair[1] != Value::Bytes(Vec::new()))
        })
    }

    /// Payload: `[task_id, tool, code_hash, dataset, requester,
    /// (site, params)…]`.
    fn shard_of(&self, captured: &CapturedEvent) -> Option<ShardJob> {
        let values = decode_args(&captured.event.data).ok()?;
        let me = Value::address(&self.address);
        let params = values.get(5..)?.chunks(2).find(|pair| pair[0] == me)?.get(1)?;
        Some(ShardJob {
            task_id: values.first()?.as_int().ok()?,
            tool: values.get(1)?.as_str().ok()?.to_string(),
            code_hash: Hash256(values.get(2)?.as_bytes().ok()?.try_into().ok()?),
            dataset: values.get(3)?.as_str().ok()?.to_string(),
            params: params.as_bytes().ok()?.to_vec(),
        })
    }

    /// Runs one shard next to the site's data: the tool sees `[dataset,
    /// shard params]` (a tool that reads the site's records closes over
    /// them), and runs only if its build matches the registered code
    /// hash. Returns the outcome, the encoded result (`encode_args` of
    /// the tool's output), the only part of the run that leaves the
    /// site. An outcome over [`MAX_OUTCOME_BYTES`] is a failure: the
    /// contract would refuse to store it.
    pub fn run(&mut self, job: &ShardJob) -> Option<Vec<u8>> {
        let params = [Value::str(&job.dataset), Value::Bytes(job.params.clone())];
        let outcome = self
            .executor
            .run(&job.tool, &params, Some(job.code_hash))
            .map(|result| encode_args(&result.output));
        match outcome {
            Ok(outcome) if outcome.len() <= MAX_OUTCOME_BYTES => {
                self.stats.tasks_run += 1;
                Some(outcome)
            }
            _ => {
                self.stats.failures += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ToolError;
    use medchain_chain::consensus::Application;
    use medchain_chain::ledger::contract_address;
    use medchain_chain::node::ChainApp;
    use medchain_chain::sig::AuthorityKey;
    use medchain_chain::tx::TxPayload;
    use medchain_chain::{KeyRegistry, Transaction};
    use medchain_contracts::native::native_manifest;
    use medchain_contracts::runtime::{call_data, Runtime};

    struct Setup {
        app: ChainApp,
        key: AuthorityKey,
        analytics: medchain_chain::Address,
        nonce: u64,
    }

    impl Setup {
        fn new() -> Setup {
            let key = AuthorityKey::from_seed(1);
            let mut registry = KeyRegistry::new();
            registry.enroll(&key);
            let mut app =
                ChainApp::with_runtime("control-test", registry, Box::new(Runtime::standard()));
            let deploy = Transaction::new(
                key.address(),
                0,
                TxPayload::Deploy {
                    code: native_manifest("analytics_contract"),
                    init: Vec::new(),
                },
                10_000,
            )
            .signed(&key);
            app.submit(deploy);
            let block = app.make_block(key.address(), 1);
            assert!(app.commit_block(&block));
            let analytics = contract_address(&key.address(), 0);
            Setup { app, key, analytics, nonce: 1 }
        }

        fn invoke(&mut self, selector: &str, args: &[Value]) {
            let tx = Transaction::new(
                self.key.address(),
                self.nonce,
                TxPayload::Invoke {
                    contract: self.analytics,
                    input: call_data(selector, args),
                },
                100_000,
            )
            .signed(&self.key);
            self.nonce += 1;
            assert!(self.app.submit(tx));
            let block = self.app.make_block(self.key.address(), 10);
            assert!(self.app.commit_block(&block));
        }
    }

    fn mean_tool() -> Tool {
        // params: [dataset_label, shard params]; the mean of the bytes.
        Tool::new("mean", "v1", |params| {
            let values = params[1].as_bytes().map_err(|e| ToolError::new(e.to_string()))?;
            let sum: i64 = values.iter().map(|&v| i64::from(v)).sum();
            Ok(vec![Value::Int(sum / values.len().max(1) as i64)])
        })
    }

    /// Registers `registered`, requests a run of it on `site-a/emr` naming
    /// `site` with shard params `[10, 20, 30]`, and returns site-a's
    /// control node with `installed`.
    fn requested(
        setup: &mut Setup,
        registered: &Tool,
        installed: Tool,
        site: Address,
    ) -> ControlNode {
        setup.invoke(
            "register_tool",
            &[Value::str("mean"), Value::Bytes(registered.code_hash().0.to_vec())],
        );
        setup.invoke(
            "request_run",
            &[
                Value::str("mean"),
                Value::str("site-a/emr"),
                Value::address(&site),
                Value::Bytes(vec![10, 20, 30]),
            ],
        );
        let mut control = ControlNode::new("site-a", setup.key.address());
        control.install_tool(installed);
        control
    }

    #[test]
    fn named_site_picks_up_its_shard_and_runs_it_locally() {
        let mut setup = Setup::new();
        let me = setup.key.address();
        let mut control = requested(&mut setup, &mean_tool(), mean_tool(), me);
        let jobs = control.pick_up(setup.app.ledger(), &setup.analytics);
        assert_eq!(jobs.len(), 1);
        assert_eq!((jobs[0].task_id, jobs[0].params.as_slice()), (0, &[10u8, 20, 30][..]));
        let outcome = control.run(&jobs[0]).expect("the shard runs");
        assert_eq!(outcome, encode_args(&[Value::Int(20)]));
        assert_eq!(control.stats().tasks_run, 1);
        // Nothing new on a second poll.
        assert!(control.pick_up(setup.app.ledger(), &setup.analytics).is_empty());
    }

    #[test]
    fn requests_from_another_contract_are_ignored() {
        let mut setup = Setup::new();
        let me = setup.key.address();
        let mut control = requested(&mut setup, &mean_tool(), mean_tool(), me);
        let forger = Address::from_seed(99);
        assert!(control.pick_up(setup.app.ledger(), &forger).is_empty());
        assert_eq!(control.stats(), ControlStats::default());
    }

    #[test]
    fn requests_for_other_sites_are_skipped() {
        let mut setup = Setup::new();
        let mut control =
            requested(&mut setup, &mean_tool(), mean_tool(), Address::from_seed(2));
        assert!(control.pick_up(setup.app.ledger(), &setup.analytics).is_empty());
        assert_eq!(control.stats().tasks_skipped, 1);
    }

    #[test]
    fn tool_failure_is_counted() {
        // A tool that errors, a build other than the registered one and
        // an outcome over the cap: none yields an outcome to post.
        let crash = Tool::new("mean", "broken", |_| Err(ToolError::new("crash")));
        let v2 = Tool::new("mean", "v2", |_| Ok(vec![Value::Int(1)]));
        let huge =
            Tool::new("mean", "huge", |_| Ok(vec![Value::Bytes(vec![0; MAX_OUTCOME_BYTES])]));
        for (registered, installed) in
            [(crash.clone(), crash), (mean_tool(), v2), (huge.clone(), huge)]
        {
            let mut setup = Setup::new();
            let me = setup.key.address();
            let mut control = requested(&mut setup, &registered, installed, me);
            let jobs = control.pick_up(setup.app.ledger(), &setup.analytics);
            assert_eq!(jobs[0].code_hash, registered.code_hash());
            assert!(control.run(&jobs[0]).is_none());
            assert_eq!((control.stats().tasks_run, control.stats().failures), (0, 1));
        }
    }
}
