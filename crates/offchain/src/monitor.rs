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
    /// A block the ledger's store cannot read back ends the scan there;
    /// the next poll resumes from it.
    pub fn poll(&mut self, ledger: &Ledger) -> Vec<CapturedEvent> {
        let mut captured = Vec::new();
        let tip = ledger.height();
        self.cursor = self.cursor.max(ledger.base_height());
        while self.cursor < tip {
            let height = self.cursor + 1;
            let Some(block) = ledger.block(height) else { break };
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
    use medchain_chain::store::{BlockStore, StoreError};
    use medchain_chain::{Block, WorldState};
    use std::ops::Range;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    fn app_with_data_contract() -> (ChainApp, AuthorityKey, medchain_chain::Address) {
        app_with_data_contract_on(None)
    }

    /// [`app_with_data_contract`], persisting every block to `store`.
    fn app_with_data_contract_on(
        store: Option<Box<dyn BlockStore>>,
    ) -> (ChainApp, AuthorityKey, medchain_chain::Address) {
        let key = AuthorityKey::from_seed(1);
        let mut registry = KeyRegistry::new();
        registry.enroll(&key);
        let mut app =
            ChainApp::with_runtime("monitor-test", registry, Box::new(Runtime::standard()));
        if let Some(store) = store {
            app.attach_store(store);
        }
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

    /// A store that holds every appended block, reads them back unless
    /// `failing` is set, and reports a snapshot at every block, so the
    /// ledger keeps only its tip decoded.
    struct FlakyStore {
        blocks: Arc<Mutex<Vec<Block>>>,
        failing: Arc<AtomicBool>,
    }

    impl BlockStore for FlakyStore {
        fn append(&mut self, block: &Block, _state: &WorldState) -> Result<(), StoreError> {
            self.blocks.lock().unwrap().push(block.clone());
            Ok(())
        }

        fn flush(&mut self) -> Result<(), StoreError> {
            Ok(())
        }

        fn read_block(&self, height: u64) -> Result<Option<Block>, StoreError> {
            if self.failing.load(Ordering::SeqCst) {
                return Err(StoreError::Io("read failed".into()));
            }
            let blocks = self.blocks.lock().unwrap();
            Ok(blocks.iter().find(|block| block.header.height == height).cloned())
        }

        fn below_snapshot(&self) -> Range<u64> {
            let blocks = self.blocks.lock().unwrap();
            blocks.first().zip(blocks.last()).map_or(0..0, |(first, last)| {
                first.header.height..last.header.height + 1
            })
        }
    }

    #[test]
    fn a_block_that_cannot_be_read_back_stops_the_poll_until_it_can() {
        let failing = Arc::new(AtomicBool::new(false));
        let blocks = Arc::new(Mutex::new(Vec::new()));
        let store = FlakyStore { blocks: Arc::clone(&blocks), failing: Arc::clone(&failing) };
        let (mut app, key, _) = app_with_data_contract_on(Some(Box::new(store)));
        let mut monitor = MonitorNode::new();
        register_dataset(&mut app, &key, 1, "emr-a");
        assert_eq!(monitor.poll(app.ledger()).len(), 1);
        assert_eq!(monitor.cursor(), 2);
        register_dataset(&mut app, &key, 2, "emr-b");
        register_dataset(&mut app, &key, 3, "emr-c");
        // Only the tip stays decoded: the poll stops at height 3, which
        // only the store holds, and reports nothing from it.
        failing.store(true, Ordering::SeqCst);
        assert!(monitor.poll(app.ledger()).is_empty());
        assert_eq!(monitor.cursor(), 2);
        // Reads succeed again: the next poll resumes at height 3 and
        // sees each event once.
        failing.store(false, Ordering::SeqCst);
        let events = monitor.poll(app.ledger());
        let heights: Vec<u64> = events.iter().map(|e| e.block_height).collect();
        assert_eq!(heights, vec![3, 4]);
        assert_eq!(monitor.cursor(), app.height());
        assert_eq!(monitor.observed(), 3);
        assert_eq!(blocks.lock().unwrap().len(), 4);
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
