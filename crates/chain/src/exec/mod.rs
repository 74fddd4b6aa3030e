//! Block execution (DESIGN.md §11).
//!
//! [`run_block_sequential`] turns a block body into `(receipts, state
//! delta)`: one [`WorldStateOverlay`] over the committed state,
//! transactions in block order, each admitted (signature, nonce) against
//! the overlay as its predecessors left it. The first admission failure
//! ends the block with that error and no state effects. This is the only
//! way a block is executed: `Ledger::propose` runs the same admission and
//! [`execute_tx`] per transaction, dropping instead of failing.

pub mod overlay;

pub use overlay::{StateAccess, StateDelta, WorldStateOverlay};

use crate::ledger::{contract_address, ContractRuntime, ExecError, ExecOutcome, LedgerError, Receipt};
use crate::shard::{sharded_contract_address, ShardId};
use crate::sig::KeyRegistry;
use crate::state::WorldState;
use crate::tx::{SealedTx, TxPayload};
use medchain_runtime::metrics::Metrics;

/// Everything tx execution needs from the ledger, as borrows.
pub(crate) struct ExecCtx<'a> {
    pub runtime: &'a dyn ContractRuntime,
    pub registry: &'a KeyRegistry,
    pub shard: ShardId,
    pub shard_count: u16,
    /// Where `exec.txs` counts every transaction executed.
    pub metrics: &'a Metrics,
}

/// Signature + expected-nonce admission against arbitrary state.
pub(crate) fn admission_check(
    registry: &KeyRegistry,
    state: &dyn StateAccess,
    tx: &SealedTx,
) -> Result<(), LedgerError> {
    if !tx.verify(registry) {
        return Err(LedgerError::BadSignature(tx.id()));
    }
    let account = state.account(&tx.sender);
    if tx.nonce != account.nonce {
        return Err(LedgerError::BadNonce {
            tx_id: tx.id(),
            expected: account.nonce,
            got: tx.nonce,
        });
    }
    Ok(())
}

/// Executes one admissible transaction against `state`.
///
/// Contract execution is atomic: `Deploy`/`Invoke` run against a child
/// overlay whose delta only lands on `state` on success — a trap leaves
/// no partial writes (the nonce bump happens before and survives).
pub(crate) fn execute_tx(
    ctx: &ExecCtx<'_>,
    state: &mut WorldStateOverlay<'_>,
    tx: &SealedTx,
    now_ms: u64,
) -> Receipt {
    // Bump nonce first: failed transactions still consume it.
    let mut account = state.account(&tx.sender);
    account.nonce += 1;
    state.set_account(tx.sender, account);

    let result: Result<ExecOutcome, ExecError> = match &tx.payload {
        TxPayload::Transfer { to, amount } => state
            .debit(tx.sender, *amount)
            .map(|()| {
                state.credit(*to, *amount);
                ExecOutcome { gas_used: 21, ..ExecOutcome::default() }
            })
            .map_err(|e| ExecError { gas_used: 21, reason: e.to_string() }),
        TxPayload::Deploy { code, init } => {
            // On a data shard of a sharded topology the address is ground
            // so that the invoke routing rule (shard_for_key on the
            // address) lands back on this shard; the coordinator, home of
            // the standard contracts, derives it as a flat chain does
            // (DESIGN.md §9).
            let contract_addr = if ctx.shard_count > 1 && !ctx.shard.is_coordinator() {
                sharded_contract_address(&tx.sender, tx.nonce, ctx.shard, ctx.shard_count)
            } else {
                contract_address(&tx.sender, tx.nonce)
            };
            let attempt = {
                let mut child = WorldStateOverlay::new(state);
                ctx.runtime
                    .deploy(tx.sender, contract_addr, code, init, tx.gas_limit, now_ms, &mut child)
                    .map(|outcome| (outcome, child.into_delta()))
            };
            attempt.map(|(mut outcome, delta)| {
                delta.apply_to(state);
                outcome.output = contract_addr.0.to_vec();
                outcome
            })
        }
        TxPayload::Invoke { contract, input } => {
            let attempt = {
                let mut child = WorldStateOverlay::new(state);
                ctx.runtime
                    .invoke(tx.sender, *contract, input, tx.gas_limit, now_ms, &mut child)
                    .map(|outcome| (outcome, child.into_delta()))
            };
            attempt.map(|(outcome, delta)| {
                delta.apply_to(state);
                outcome
            })
        }
        TxPayload::Anchor { root, label } => match state.anchor(label) {
            Some(existing) if existing != *root => Err(ExecError {
                gas_used: 30,
                reason: LedgerError::AnchorConflict(label.clone()).to_string(),
            }),
            _ => {
                state.set_anchor(label, *root);
                Ok(ExecOutcome { gas_used: 30, ..ExecOutcome::default() })
            }
        },
        TxPayload::CrossLink { shard, height, tip } => {
            if !ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 40,
                    reason: format!("cross-link for {shard} on non-coordinator chain"),
                })
            } else if shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 40,
                    reason: "cross-link cannot reference the coordinator itself".into(),
                })
            } else {
                match state.cross_link(*shard) {
                    // A shard's committed height is monotonic: a link at
                    // or below the last one is a rewind.
                    Some(prev) if prev.height >= *height => Err(ExecError {
                        gas_used: 40,
                        reason: format!(
                            "cross-link height regression for {shard}: \
                             have {}, got {height}",
                            prev.height
                        ),
                    }),
                    _ => {
                        state.set_cross_link(
                            *shard,
                            crate::state::CrossLinkRecord { height: *height, tip: *tip },
                        );
                        Ok(ExecOutcome { gas_used: 40, ..ExecOutcome::default() })
                    }
                }
            }
        }
        TxPayload::XsPrepare { xid, leg, deadline_ms } => {
            if ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 45,
                    reason: "cross-shard prepare on the coordinator chain".into(),
                })
            } else if leg.shard != ctx.shard {
                Err(ExecError {
                    gas_used: 45,
                    reason: format!("prepare leg for {} executed on {}", leg.shard, ctx.shard),
                })
            } else if leg.shard != crate::shard::shard_for_key(&leg.account.0, ctx.shard_count) {
                // Locks must live on the account's home shard, because the
                // finalize that releases them routes by `shard_for_key` —
                // a lock anywhere else would be unreachable forever.
                Err(ExecError {
                    gas_used: 45,
                    reason: format!(
                        "prepare leg locks {:?} away from its home shard",
                        leg.account
                    ),
                })
            } else if leg.debit && tx.sender != leg.account {
                // Only the owner may escrow its own funds. Prepares are
                // client-mintable, so without this check any enrolled
                // client could lock (and, paired with a credit leg to
                // itself, drain) an arbitrary victim account. Credit
                // legs stay open to third parties — paying someone else
                // is the point.
                Err(ExecError {
                    gas_used: 45,
                    reason: LedgerError::XsUnauthorizedDebit {
                        sender: tx.sender,
                        account: leg.account,
                    }
                    .to_string(),
                })
            } else if let Some(held) = state.lock(&leg.account) {
                Err(ExecError {
                    gas_used: 45,
                    reason: LedgerError::AccountLocked { address: leg.account, xid: held.xid }
                        .to_string(),
                })
            } else {
                // A debit leg escrows the amount at prepare time, so a
                // later commit can never fail for funds; a credit leg
                // only records the pending payout.
                let escrow = if leg.debit { state.debit(leg.account, leg.amount) } else { Ok(()) };
                match escrow {
                    Err(e) => Err(ExecError { gas_used: 45, reason: e.to_string() }),
                    Ok(()) => {
                        state.set_lock(
                            leg.account,
                            crate::state::XsLock {
                                xid: *xid,
                                amount: leg.amount,
                                debit: leg.debit,
                                deadline_ms: *deadline_ms,
                            },
                        );
                        Ok(ExecOutcome { gas_used: 45, ..ExecOutcome::default() })
                    }
                }
            }
        }
        TxPayload::XsDecide { xid, commit } => {
            if !ctx.shard.is_coordinator() {
                Err(ExecError {
                    gas_used: 45,
                    reason: "cross-shard decision on non-coordinator chain".into(),
                })
            } else if state.xs_decision(xid).is_some() {
                // Decisions are write-once: participants resolving an
                // interrupted round must never see the verdict flip.
                Err(ExecError {
                    gas_used: 45,
                    reason: format!("cross-shard transaction {xid:?} already decided"),
                })
            } else {
                state.set_xs_decision(
                    *xid,
                    crate::state::XsDecisionRecord { commit: *commit, tx_id: tx.id() },
                );
                Ok(ExecOutcome {
                    gas_used: 45,
                    output: vec![u8::from(*commit)],
                    ..ExecOutcome::default()
                })
            }
        }
        TxPayload::XsFinalize { xid, account, commit } => match state.lock(account) {
            None => Err(ExecError {
                gas_used: 45,
                reason: format!("no cross-shard lock held on {account:?}"),
            }),
            Some(lock) if lock.xid != *xid => Err(ExecError {
                gas_used: 45,
                reason: format!(
                    "lock on {account:?} held by a different cross-shard transaction"
                ),
            }),
            Some(lock) => {
                // Commit: a debit leg's escrow is burned here (the
                // credit leg mints on its own shard); a credit leg pays
                // out. Abort: the debit escrow is refunded; a credit
                // leg never moved funds.
                if *commit != lock.debit {
                    state.credit(*account, lock.amount);
                }
                state.clear_lock(account);
                Ok(ExecOutcome { gas_used: 45, ..ExecOutcome::default() })
            }
        },
    };

    match result {
        Ok(outcome) => Receipt {
            tx_id: tx.id(),
            ok: true,
            gas_used: outcome.gas_used,
            output: outcome.output,
            events: outcome.events,
            error: None,
        },
        Err(err) => Receipt {
            tx_id: tx.id(),
            ok: false,
            gas_used: err.gas_used,
            output: Vec::new(),
            events: Vec::new(),
            error: Some(err.reason),
        },
    }
}

/// Executes a block body: one overlay, transactions in block order.
///
/// # Errors
///
/// Returns the first transaction's admission failure, leaving no state
/// effects (the overlay is simply dropped).
pub(crate) fn run_block_sequential(
    ctx: &ExecCtx<'_>,
    base: &WorldState,
    txs: &[SealedTx],
    now_ms: u64,
) -> Result<(Vec<Receipt>, StateDelta), LedgerError> {
    let mut overlay = WorldStateOverlay::new(base);
    let mut receipts = Vec::with_capacity(txs.len());
    let admitted = txs.iter().try_for_each(|tx| {
        admission_check(ctx.registry, &overlay, tx)?;
        receipts.push(execute_tx(ctx, &mut overlay, tx, now_ms));
        Ok(())
    });
    ctx.metrics.counter("exec.txs", receipts.len() as u64);
    admitted?;
    Ok((receipts, overlay.into_delta()))
}
