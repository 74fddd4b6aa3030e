//! The monitor node (paper Fig. 3).
//!
//! "A monitor node is used to monitor all the related smart contract
//! events which would like to access the managed heterogeneous data
//! sets. The monitor node is a mechanism for our system to securely
//! bridge the smart contract and the external world" (§III-A).
//!
//! [`MonitorNode`] scans committed blocks for contract events and keeps
//! a height cursor so every event is observed exactly once.

use medchain_chain::{Event, Hash256, Ledger};

/// An event captured from a committed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedEvent {
    /// Height of the block that carried the event.
    pub block_height: u64,
    /// Transaction that emitted it.
    pub tx_id: Hash256,
    /// The event itself.
    pub event: Event,
}

/// Scans the chain for contract events and hands them off-chain.
#[derive(Debug, Default)]
pub struct MonitorNode {
    cursor: u64,
    observed: u64,
}

impl MonitorNode {
    /// Creates a monitor starting at genesis.
    pub fn new() -> MonitorNode {
        MonitorNode::default()
    }

    /// Height up to which events have been observed.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Total events observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Scans blocks `(cursor, tip]`, returning all captured events in
    /// commit order. A ledger restored from a snapshot keeps no block at
    /// or below its base height, so the scan starts no lower than that.
    pub fn poll(&mut self, ledger: &Ledger) -> Vec<CapturedEvent> {
        let mut captured = Vec::new();
        let tip = ledger.height();
        self.cursor = self.cursor.max(ledger.base_height());
        while self.cursor < tip {
            let height = self.cursor + 1;
            let block = ledger.block(height).expect("height below tip");
            for tx in block.transactions.iter() {
                let Some(receipt) = ledger.receipt(&tx.id()) else { continue };
                for event in receipt.events {
                    let item = CapturedEvent { block_height: height, tx_id: receipt.tx_id, event };
                    self.observed += 1;
                    captured.push(item);
                }
            }
            self.cursor = height;
        }
        captured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medchain_chain::consensus::Application;
    use medchain_chain::node::ChainApp;
    use medchain_chain::sig::AuthorityKey;
    use medchain_chain::tx::TxPayload;
    use medchain_chain::{KeyRegistry, Transaction};
    use medchain_contracts::native::native_manifest;
    use medchain_contracts::runtime::{call_data, Runtime};
    use medchain_contracts::value::Value;

    fn app_with_data_contract() -> (ChainApp, AuthorityKey, medchain_chain::Address) {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut app =
            ChainApp::with_runtime("monitor-test", registry, Box::new(Runtime::standard()));
        let deploy = Transaction::new(
            key.address(),
            0,
            TxPayload::Deploy { code: native_manifest("data_contract"), init: Vec::new() },
            10_000,
        )
        .signed(&key);
        app.submit(deploy);
        let block = app.make_block(key.address(), 1);
        assert!(app.commit_block(&block));
        let contract = medchain_chain::ledger::contract_address(&key.address(), 0);
        (app, key, contract)
    }

    fn register_dataset(app: &mut ChainApp, key: &AuthorityKey, nonce: u64, label: &str) {
        let tx = Transaction::new(
            key.address(),
            nonce,
            TxPayload::Invoke {
                contract: medchain_chain::ledger::contract_address(&key.address(), 0),
                input: call_data(
                    "register",
                    &[
                        Value::str(label),
                        Value::Bytes(Hash256::digest(label.as_bytes()).0.to_vec()),
                        Value::str("csv"),
                    ],
                ),
            },
            10_000,
        )
        .signed(key);
        assert!(app.submit(tx));
        let block = app.make_block(key.address(), 10);
        assert!(app.commit_block(&block));
    }

    #[test]
    fn poll_captures_events_once() {
        let (mut app, key, _) = app_with_data_contract();
        register_dataset(&mut app, &key, 1, "emr-a");
        let mut monitor = MonitorNode::new();
        let events = monitor.poll(app.ledger());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event.topic, "DatasetRegistered");
        // No double delivery.
        assert!(monitor.poll(app.ledger()).is_empty());
        // New block, new events.
        register_dataset(&mut app, &key, 2, "emr-b");
        assert_eq!(monitor.poll(app.ledger()).len(), 1);
        assert_eq!(monitor.observed(), 2);
    }

    #[test]
    fn cursor_tracks_tip() {
        let (mut app, key, _) = app_with_data_contract();
        let mut monitor = MonitorNode::new();
        monitor.poll(app.ledger());
        assert_eq!(monitor.cursor(), app.height());
        register_dataset(&mut app, &key, 1, "emr-a");
        monitor.poll(app.ledger());
        assert_eq!(monitor.cursor(), app.height());
    }
}
