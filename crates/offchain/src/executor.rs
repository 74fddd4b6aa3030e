//! The off-chain task executor — where the real computation happens.
//!
//! The paper's transformation keeps contracts as thin policy gates and
//! moves "the off-chain real arbitrary computation codes" next to the
//! data (§III). [`TaskExecutor`] is one site's compute engine: a registry
//! of analytics *tools* (arbitrary Rust closures keyed by name, with
//! code-integrity hashes matching the on-chain `ToolRegistered` anchors)
//! executed against locally resident data. `Network::control_cycle` runs
//! every site's executor on its own OS thread.

use medchain_chain::Hash256;
use medchain_contracts::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failure raised by a tool implementation.
///
/// Tool bodies are arbitrary closures, so the error carries a message
/// rather than a closed set of variants, but it still implements
/// [`std::error::Error`] so callers can box and chain it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolError {
    message: String,
}

impl ToolError {
    /// Creates a tool error from any message.
    pub fn new(message: impl Into<String>) -> ToolError {
        ToolError { message: message.into() }
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ToolError {}

impl From<&str> for ToolError {
    fn from(message: &str) -> ToolError {
        ToolError::new(message)
    }
}

impl From<String> for ToolError {
    fn from(message: String) -> ToolError {
        ToolError { message }
    }
}

/// An analytics tool: pure function from parameters to results, in the
/// standard value format.
type ToolFn = dyn Fn(&[Value]) -> Result<Vec<Value>, ToolError> + Send + Sync;

/// A registered tool with its integrity hash.
#[derive(Clone)]
pub struct Tool {
    name: String,
    code_hash: Hash256,
    func: Arc<ToolFn>,
}

impl fmt::Debug for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tool")
            .field("name", &self.name)
            .field("code_hash", &self.code_hash)
            .finish()
    }
}

impl Tool {
    /// Creates a tool. The `code_hash` is the anchor registered on-chain
    /// via the analytics contract; `version_tag` feeds the hash so that
    /// re-deployments are distinguishable.
    pub fn new(
        name: &str,
        version_tag: &str,
        func: impl Fn(&[Value]) -> Result<Vec<Value>, ToolError> + Send + Sync + 'static,
    ) -> Tool {
        let mut material = name.as_bytes().to_vec();
        material.extend_from_slice(version_tag.as_bytes());
        Tool { name: name.to_string(), code_hash: Hash256::digest(&material), func: Arc::new(func) }
    }

    /// Tool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Integrity hash to anchor on-chain.
    pub fn code_hash(&self) -> Hash256 {
        self.code_hash
    }
}

/// Result of one task execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResult {
    /// Tool that ran.
    pub tool: String,
    /// Returned values.
    pub output: Vec<Value>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Errors from task execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutorError {
    /// Tool not installed at this site.
    UnknownTool(String),
    /// The on-chain anchor does not match the local tool code.
    IntegrityMismatch {
        /// Tool name.
        tool: String,
        /// Hash recorded on-chain.
        expected: Hash256,
        /// Hash of the local implementation.
        actual: Hash256,
    },
    /// The tool itself failed.
    ToolFailed(ToolError),
}

impl fmt::Display for ExecutorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorError::UnknownTool(name) => write!(f, "tool {name:?} not installed"),
            ExecutorError::IntegrityMismatch { tool, expected, actual } => write!(
                f,
                "integrity mismatch for {tool:?}: on-chain {expected:?}, local {actual:?}"
            ),
            ExecutorError::ToolFailed(err) => write!(f, "tool failed: {err}"),
        }
    }
}

impl std::error::Error for ExecutorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutorError::ToolFailed(err) => Some(err),
            _ => None,
        }
    }
}

/// One site's analytics compute engine.
#[derive(Debug, Default, Clone)]
pub struct TaskExecutor {
    tools: HashMap<String, Tool>,
    executed: u64,
    metrics: medchain_runtime::metrics::Metrics,
}

impl TaskExecutor {
    /// Creates an executor with no tools installed.
    pub fn new() -> TaskExecutor {
        TaskExecutor::default()
    }

    /// Installs a metrics handle; `offchain.*` counters (tasks run,
    /// failures, wall-clock task latency) report there.
    pub fn set_metrics(&mut self, metrics: medchain_runtime::metrics::Metrics) {
        self.metrics = metrics;
    }

    /// Installs a tool.
    pub fn install(&mut self, tool: Tool) {
        self.tools.insert(tool.name().to_string(), tool);
    }

    /// Looks up an installed tool.
    pub fn tool(&self, name: &str) -> Option<&Tool> {
        self.tools.get(name)
    }

    /// Number of tasks executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Runs `tool` with `params`, optionally verifying the local code
    /// hash against an on-chain `anchor` first (the paper's requirement
    /// that the chain "manage and enforce its integrity of the off-chain
    /// data and code").
    ///
    /// # Errors
    ///
    /// Returns [`ExecutorError`] on unknown tools, integrity mismatches,
    /// or tool failures.
    pub fn run(
        &mut self,
        tool: &str,
        params: &[Value],
        anchor: Option<Hash256>,
    ) -> Result<TaskResult, ExecutorError> {
        let entry = self
            .tools
            .get(tool)
            .ok_or_else(|| ExecutorError::UnknownTool(tool.to_string()))?;
        if let Some(expected) = anchor {
            if expected != entry.code_hash {
                return Err(ExecutorError::IntegrityMismatch {
                    tool: tool.to_string(),
                    expected,
                    actual: entry.code_hash,
                });
            }
        }
        let start = Instant::now();
        let output = match (entry.func)(params) {
            Ok(output) => output,
            Err(err) => {
                self.metrics.counter("offchain.task_failures", 1);
                return Err(ExecutorError::ToolFailed(err));
            }
        };
        self.executed += 1;
        let elapsed = start.elapsed();
        self.metrics.counter("offchain.tasks", 1);
        self.metrics.observe("offchain.task_ms", elapsed.as_secs_f64() * 1e3);
        Ok(TaskResult { tool: tool.to_string(), output, elapsed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_tool() -> Tool {
        Tool::new("sum", "v1", |params| {
            let mut total = 0i64;
            for p in params {
                total += p.as_int().map_err(|e| ToolError::new(e.to_string()))?;
            }
            Ok(vec![Value::Int(total)])
        })
    }

    #[test]
    fn run_installed_tool() {
        let mut executor = TaskExecutor::new();
        executor.install(sum_tool());
        let result = executor
            .run("sum", &[Value::Int(1), Value::Int(2), Value::Int(3)], None)
            .unwrap();
        assert_eq!(result.output, vec![Value::Int(6)]);
        assert_eq!(executor.executed(), 1);
    }

    #[test]
    fn unknown_tool_is_an_error() {
        let mut executor = TaskExecutor::new();
        assert!(matches!(
            executor.run("ghost", &[], None),
            Err(ExecutorError::UnknownTool(_))
        ));
    }

    #[test]
    fn integrity_anchor_is_enforced() {
        let mut executor = TaskExecutor::new();
        let tool = sum_tool();
        let good_anchor = tool.code_hash();
        executor.install(tool);
        assert!(executor.run("sum", &[Value::Int(1)], Some(good_anchor)).is_ok());
        let bad_anchor = Hash256::digest(b"tampered tool");
        assert!(matches!(
            executor.run("sum", &[Value::Int(1)], Some(bad_anchor)),
            Err(ExecutorError::IntegrityMismatch { .. })
        ));
    }

    #[test]
    fn tool_versions_have_distinct_hashes() {
        let v1 = Tool::new("t", "v1", |_| Ok(vec![]));
        let v2 = Tool::new("t", "v2", |_| Ok(vec![]));
        assert_ne!(v1.code_hash(), v2.code_hash());
    }

    #[test]
    fn tool_failure_propagates() {
        let mut executor = TaskExecutor::new();
        executor.install(Tool::new("bad", "v1", |_| Err(ToolError::new("boom"))));
        assert_eq!(
            executor.run("bad", &[], None),
            Err(ExecutorError::ToolFailed(ToolError::new("boom")))
        );
    }
}
