//! Failure-injection tests for the consensus substrate: crashes,
//! message loss, WAN latency, and cross-engine agreement under a real
//! transaction workload.

use medchain_chain::consensus::pbft::{PbftEngine, PbftMsg};
use medchain_chain::consensus::poa::{PoaEngine, PoaMsg};
use medchain_chain::consensus::pos::PosEngine;
use medchain_chain::consensus::{seeded_consortium, Application, Cluster, Engine, Quorum};
use medchain_chain::node::{ChainApp, SubmitOutcome};
use medchain_chain::sig::AuthorityKey;
use medchain_chain::tx::TxPayload;
use medchain_chain::{Hash256, KeyRegistry, Transaction};
use medchain_transport::{
    FaultyTransport, LatencyModel, NetStats, NodeId, SimTransport, TcpTransport, Transport, Wire,
};

fn fund_and_submit(apps: &mut [ChainApp], keys: &[AuthorityKey], txs: u64) {
    for key in keys {
        for app in apps.iter_mut() {
            app.ledger_mut().state_mut().credit(key.address(), 1_000_000);
        }
    }
    for (i, key) in keys.iter().enumerate() {
        for n in 0..txs {
            let tx = Transaction::new(
                key.address(),
                n,
                TxPayload::Transfer { to: keys[(i + 1) % keys.len()].address(), amount: 1 },
                1_000,
            )
            .signed(key);
            for app in apps.iter_mut() {
                app.submit(tx.clone());
            }
        }
    }
}

/// The simulator under the fault layer, both seeded with `seed`. With no
/// latency model the layer forwards at once and draws nothing for node
/// failures, so a crash scenario replays exactly as on a bare simulator.
fn faulty_sim<M: Wire + Clone>(n: usize, seed: u64) -> FaultyTransport<M, SimTransport<M>> {
    FaultyTransport::new(SimTransport::new(n, seed), seed)
}

fn assert_agreement<E: Engine, T>(cluster: &Cluster<E, ChainApp, T>, height: u64, live: &[usize]) {
    let ids: Vec<Hash256> =
        live.iter().map(|&i| cluster.replicas[i].app.tip_at(height)).collect();
    assert!(ids.windows(2).all(|w| w[0] == w[1]), "divergence at height {height}");
}

#[test]
fn poa_commits_transfer_workload_under_wan_latency() {
    let n = 5;
    let (ks, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 80);
    let mut apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("fault-test", registry.clone())).collect();
    fund_and_submit(&mut apps, &ks, 20);
    let mut cluster = Cluster::new(engines, apps, 9);
    cluster.net.set_latency(LatencyModel::wan());
    let report = cluster.run_until_height(4, 3_600_000);
    assert!(report.reached, "stalled under WAN latency: {report:?}");
    assert_agreement(&cluster, 4, &[0, 1, 2, 3, 4]);
    // The workload actually committed.
    let committed: usize = cluster.replicas[0]
        .app
        .ledger()
        .blocks_from(0)
        .map(|b| b.transactions.len())
        .sum();
    assert!(committed >= 60, "only {committed} txs committed");
}

#[test]
fn poa_tolerates_moderate_message_loss() {
    let n = 4;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 60);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("lossy-test", registry.clone())).collect();
    // Three heights take about 50 messages, so at 5% roughly one seed in
    // ten drops none; under seed 18 the fault layer's coins drop three,
    // and the losses cost the cluster a round.
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 18));
    cluster.net.set_drop_rate(0.05);
    let report = cluster.run_until_height(3, 3_600_000);
    assert!(report.reached, "stalled under 5% loss: {report:?}");
    assert_agreement(&cluster, 3, &[0, 1, 2, 3]);
    assert!(cluster.net.stats().dropped > 0, "loss was not exercised");
}

#[test]
fn pbft_recovers_from_cascading_primary_failures() {
    let n = 7; // f = 2: survives two crashed primaries
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PbftEngine::make_replicas(n, 40, 1_500);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("cascade-test", registry.clone())).collect();
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 11));
    cluster.run_until_height(1, 600_000);
    // Crash the view-0 primary, wait for recovery, then crash the next.
    cluster.net.fail_node(NodeId(0));
    let report = cluster.run_until_height(2, 3_600_000);
    assert!(report.reached, "no recovery from first crash");
    cluster.net.fail_node(NodeId(1));
    let report = cluster.run_until_height(3, 7_200_000);
    assert!(report.reached, "no recovery from second crash");
    assert_agreement(&cluster, 3, &[2, 3, 4, 5, 6]);
    // Recorded when the simulator itself carried the faults: the fault
    // layer must replay a crash scenario event for event.
    assert_eq!(report.elapsed_ms, 3_016);
    assert_eq!(
        cluster.net.stats(),
        NetStats { sent: 366, delivered: 299, dropped: 67, bytes: 30_564, backpressure: 0 }
    );
    assert_eq!(
        cluster.replicas[2].app.tip_at(3).to_hex(),
        "01dbd715db5dddfa25f51028f2de0b63e2de4b7783d52fe5f5bf2821f076fed0"
    );
}

#[test]
fn pos_progresses_with_crashed_minority_stake() {
    let n = 5;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PosEngine::make_stakers(n, Some(vec![100, 100, 100, 100, 100]), 100);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("pos-fault", registry.clone())).collect();
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 12));
    cluster.run_until_height(1, 1_200_000);
    cluster.net.fail_node(NodeId(4));
    let report = cluster.run_until_height(3, 3_600_000);
    assert!(report.reached, "PoS stalled after one staker crashed: {report:?}");
    assert_agreement(&cluster, 3, &[0, 1, 2, 3]);
}

#[test]
fn healed_node_rejoins_poa_progress() {
    let n = 4;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 60);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("heal-test", registry.clone())).collect();
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 13));
    cluster.run_until_height(1, 600_000);
    // Fail the proposer of height 2 (validators rotate round-robin, so
    // height 2 belongs to node 2): progress stalls at height 1.
    cluster.net.fail_node(NodeId(2));
    let stalled = cluster.run_until_height(2, cluster.net.now_ms() + 5_000);
    assert!(!stalled.reached, "height 2 should stall without its proposer");
    // Heal and kick: the fault layer dropped the node's timers while it
    // was failed, so it must be restarted to resume ticking.
    cluster.net.heal_node(NodeId(2));
    cluster.kick(NodeId(2));
    let report = cluster.run_until_height(3, 3_600_000);
    assert!(report.reached, "healed proposer should unblock the chain: {report:?}");
    assert_agreement(&cluster, 3, &[0, 1, 2, 3]);
}

#[test]
fn all_engines_reject_foreign_blocks() {
    // A block body or state root forged by a non-member never commits:
    // covered at the ledger layer — exercise via a PoA cluster receiving
    // transactions signed by a non-enrolled key.
    let n = 3;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 50);
    let mut apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("foreign-test", registry.clone())).collect();
    let intruder = AuthorityKey::from_seed(999);
    let tx = Transaction::new(
        intruder.address(),
        0,
        TxPayload::Anchor { root: Hash256::digest(b"malicious"), label: "evil".into() },
        100,
    )
    .signed(&intruder);
    for app in apps.iter_mut() {
        assert!(!app.submit(tx.clone()), "unenrolled tx must be refused");
    }
    let mut cluster = Cluster::new(engines, apps, 14);
    cluster.run_until_height(2, 600_000);
    assert_eq!(cluster.replicas[0].app.ledger().state().anchor("evil"), None);
}

#[test]
fn lagging_healed_node_syncs_missed_blocks() {
    // Node 3 crashes, misses committed blocks, then heals: the PoA sync
    // protocol must deliver the sealed blocks it missed so it catches up
    // and the chain can pass its proposer turn.
    let n = 4;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 60);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("sync-test", registry.clone())).collect();
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 15));
    cluster.run_until_height(1, 600_000);
    cluster.net.fail_node(NodeId(3));
    // Heights 2 (proposer 2) commits while node 3 is down; the run stops
    // once live nodes reach 2 (node 3 is excluded as failed).
    let report = cluster.run_until_height(2, 3_600_000);
    assert!(report.reached, "live majority should commit height 2");
    assert_eq!(cluster.replicas[3].app.height(), 1, "node 3 missed height 2");

    cluster.net.heal_node(NodeId(3));
    cluster.kick(NodeId(3));
    // Height 3's proposer IS node 3: it must first sync height 2, then
    // propose height 3 — full recovery.
    let report = cluster.run_until_height(3, 3_600_000);
    assert!(report.reached, "healed node should sync and unblock: {report:?}");
    assert_eq!(cluster.replicas[3].app.height(), 3, "node 3 caught up");
    assert_agreement(&cluster, 3, &[0, 1, 2, 3]);
    // Recorded when the simulator itself carried the faults.
    assert_eq!(report.elapsed_ms, 253);
    assert_eq!(
        cluster.net.stats(),
        NetStats { sent: 66, delivered: 58, dropped: 4, bytes: 6_054, backpressure: 0 }
    );
    assert_eq!(
        cluster.replicas[0].app.tip_at(3).to_hex(),
        "bbaaf96ea4bc8e7bad33ea471c1443690e6c631be5a4f7965aea71870ed4e8bd"
    );
}

#[test]
fn sync_responses_with_forged_seals_are_rejected() {
    use medchain_chain::block::Seal;
    use medchain_chain::consensus::Application;
    // Craft a sync response whose seal lacks a quorum; the lagging node
    // must refuse to commit it.
    let n = 4;
    let (ks, registry) = seeded_consortium(n);
    let (mut engines, _) = PoaEngine::make_validators(n, 60);
    let mut apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("forge-test", registry.clone())).collect();

    // Build a legitimate block for height 1 but seal it with a single
    // vote (below the 3-of-4 quorum).
    let proposer = &ks[1]; // validators[1 % 4] proposes height 1
    let block = apps[1].make_block(proposer.address(), 10);
    let sig = proposer.sign(&block.id().0);
    let forged = medchain_chain::Block {
        seal: Seal::Authority { proposer: sig, votes: vec![sig] },
        ..block
    };

    // Feed the forged sync response directly into node 0's engine.
    let mut out = medchain_chain::consensus::Outbox::new(0);
    engines[0].on_message(
        NodeId(1),
        medchain_chain::consensus::poa::PoaMsg::SyncResponse { blocks: vec![forged] },
        &mut apps[0],
        &mut out,
    );
    assert_eq!(apps[0].height(), 0, "under-quorum seal must not commit");
}

/// `n` members' keys plus three outsiders (the gateway's client-key
/// seeds), all enrolled in one registry, as a network enrolls every
/// site and every client key in the registry its engines share.
fn members_and_outsiders(n: usize) -> (Vec<AuthorityKey>, Vec<AuthorityKey>, KeyRegistry) {
    let (members, mut registry) = seeded_consortium(n);
    let outsiders: Vec<AuthorityKey> =
        (0..3).map(|i| AuthorityKey::from_seed(0x1000_0000 + i)).collect();
    for key in &outsiders {
        registry.enroll(key);
    }
    (members, outsiders, registry)
}

fn quorum(members: &[AuthorityKey], registry: &KeyRegistry) -> Quorum {
    Quorum::new(members.iter().map(AuthorityKey::address).collect(), registry.clone())
}

fn poa_engines(members: &[AuthorityKey], registry: &KeyRegistry) -> Vec<PoaEngine> {
    let quorum = quorum(members, registry);
    let node = |(i, key): (usize, &AuthorityKey)| {
        PoaEngine::new(NodeId(i), key.clone(), quorum.clone(), 60)
    };
    members.iter().enumerate().map(node).collect()
}

fn pbft_engines(members: &[AuthorityKey], registry: &KeyRegistry) -> Vec<PbftEngine> {
    let quorum = quorum(members, registry);
    let node = |(i, key): (usize, &AuthorityKey)| {
        PbftEngine::new(NodeId(i), key.clone(), quorum.clone(), 40, 800)
    };
    members.iter().enumerate().map(node).collect()
}

/// Hands `msg` from `from` to `engine` over `app`.
fn deliver<E: Engine>(engine: &mut E, from: usize, msg: E::Msg, app: &mut ChainApp) {
    let mut out = medchain_chain::consensus::Outbox::new(0);
    engine.on_message(NodeId(from), msg, app, &mut out);
}

#[test]
fn poa_sync_responses_sealed_by_outsiders_are_rejected() {
    use medchain_chain::block::Seal;
    let (ks, outsiders, registry) = members_and_outsiders(4);
    let mut engines = poa_engines(&ks, &registry);
    let mut apps: Vec<ChainApp> =
        (0..4).map(|_| ChainApp::new("outsider-seal", registry.clone())).collect();
    // The right proposer, but every vote from an enrolled non-member.
    let block = apps[1].make_block(ks[1].address(), 10);
    let id = block.id();
    let sealed = medchain_chain::Block {
        seal: Seal::Authority {
            proposer: ks[1].sign(&id.0),
            votes: outsiders.iter().map(|k| k.sign(&id.0)).collect(),
        },
        ..block
    };
    deliver(&mut engines[0], 1, PoaMsg::SyncResponse { blocks: vec![sealed] }, &mut apps[0]);
    assert_eq!(apps[0].height(), 0, "outsider votes must not seal a block");
}

#[test]
fn pbft_sync_responses_sealed_by_outsiders_are_rejected() {
    use medchain_chain::block::Seal;
    let (ks, outsiders, registry) = members_and_outsiders(4);
    let mut engines = pbft_engines(&ks, &registry);
    let mut apps: Vec<ChainApp> =
        (0..4).map(|_| ChainApp::new("outsider-seal", registry.clone())).collect();
    let block = apps[0].make_block(ks[0].address(), 10);
    let id = block.id();
    let sealed = medchain_chain::Block {
        seal: Seal::Pbft { view: 0, commits: outsiders.iter().map(|k| k.sign(&id.0)).collect() },
        ..block
    };
    deliver(&mut engines[1], 0, PbftMsg::SyncResponse { blocks: vec![sealed] }, &mut apps[1]);
    assert_eq!(apps[1].height(), 0, "outsider commits must not seal a block");
}

#[test]
fn outsider_votes_never_complete_a_poa_height() {
    let (ks, outsiders, registry) = members_and_outsiders(4);
    let mut engines = poa_engines(&ks, &registry);
    let mut apps: Vec<ChainApp> =
        (0..4).map(|_| ChainApp::new("outsider-vote", registry.clone())).collect();
    // Node 0 takes validator 1's proposal for height 1 and votes for it:
    // one member vote of the three a height needs.
    let block = apps[1].make_block(ks[1].address(), 10);
    let block_id = block.id();
    let sig = ks[1].sign(&block_id.0);
    deliver(&mut engines[0], 1, PoaMsg::Proposal { block, sig }, &mut apps[0]);
    for key in &outsiders {
        let vote = PoaMsg::Vote { height: 1, block_id, sig: key.sign(&block_id.0) };
        deliver(&mut engines[0], 1, vote, &mut apps[0]);
    }
    assert_eq!(apps[0].height(), 0, "outsider votes must not complete a height");
    // Two member votes do.
    for i in [1, 2] {
        let vote = PoaMsg::Vote { height: 1, block_id, sig: ks[i].sign(&block_id.0) };
        deliver(&mut engines[0], i, vote, &mut apps[0]);
    }
    assert_eq!(apps[0].height(), 1);
}

#[test]
fn outsider_view_changes_never_move_a_pbft_view() {
    let (ks, outsiders, registry) = members_and_outsiders(4);
    let mut engines = pbft_engines(&ks, &registry);
    let mut apps: Vec<ChainApp> =
        (0..4).map(|_| ChainApp::new("outsider-view", registry.clone())).collect();
    let new_view = 1u64;
    for key in &outsiders {
        let sig = key.sign(&new_view.to_le_bytes());
        deliver(&mut engines[2], 0, PbftMsg::ViewChange { new_view, height: 0, sig }, &mut apps[2]);
    }
    // Still in view 0: replica 2 takes view 0's pre-prepare and commits
    // it on view-0 prepares and commits from two other members.
    let block = apps[0].make_block(ks[0].address(), 10);
    let digest = block.id();
    let sig = ks[0].sign(&digest.0);
    deliver(&mut engines[2], 0, PbftMsg::PrePrepare { view: 0, block, sig }, &mut apps[2]);
    for i in [0, 1] {
        let sig = ks[i].sign(&digest.0);
        let prepare = PbftMsg::Prepare { view: 0, height: 1, digest, sig };
        deliver(&mut engines[2], i, prepare, &mut apps[2]);
    }
    for i in [0, 1] {
        let sig = ks[i].sign(&digest.0);
        let commit = PbftMsg::Commit { view: 0, height: 1, digest, sig };
        deliver(&mut engines[2], i, commit, &mut apps[2]);
    }
    assert_eq!(apps[2].height(), 1, "outsider view changes moved the view");
}

#[test]
fn pbft_seal_needs_four_of_five_commits() {
    use medchain_chain::block::Seal;
    let (ks, _, registry) = members_and_outsiders(5);
    let mut engines = pbft_engines(&ks, &registry);
    let mut apps: Vec<ChainApp> =
        (0..5).map(|_| ChainApp::new("five-seal", registry.clone())).collect();
    let block = apps[0].make_block(ks[0].address(), 10);
    let id = block.id();
    let synced = |signers: &[AuthorityKey]| {
        let commits = signers.iter().map(|k| k.sign(&id.0)).collect();
        let seal = Seal::Pbft { view: 0, commits };
        PbftMsg::SyncResponse { blocks: vec![medchain_chain::Block { seal, ..block.clone() }] }
    };
    // n = 5 tolerates f = 1: 3 commits is not n - f.
    deliver(&mut engines[4], 0, synced(&ks[..3]), &mut apps[4]);
    assert_eq!(apps[4].height(), 0, "3 of 5 commits must not seal a block");
    deliver(&mut engines[4], 0, synced(&ks[..4]), &mut apps[4]);
    assert_eq!(apps[4].height(), 1);
}

#[test]
fn pbft_healed_replica_syncs_missed_blocks() {
    let n = 4;
    let (_, registry) = seeded_consortium(n);
    let (engines, _) = PbftEngine::make_replicas(n, 40, 800);
    let apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("pbft-sync", registry.clone())).collect();
    let mut cluster = Cluster::with_transport(engines, apps, faulty_sim(n, 16));
    cluster.run_until_height(1, 600_000);
    // Crash a non-primary replica; the cluster keeps committing.
    cluster.net.fail_node(NodeId(3));
    let report = cluster.run_until_height(3, 3_600_000);
    assert!(report.reached, "majority should progress: {report:?}");
    assert!(cluster.replicas[3].app.height() < 3, "node 3 missed blocks");
    // Heal + kick: the stall probe fires, peers serve sealed blocks, and
    // the replica catches up without any view change.
    cluster.net.heal_node(NodeId(3));
    cluster.kick(NodeId(3));
    let caught_up = cluster.run_until(
        |replicas| replicas[3].app.height() >= 3,
        cluster.net.now_ms() + 600_000,
    );
    assert!(caught_up.reached, "healed PBFT replica failed to sync: {caught_up:?}");
    assert_agreement(&cluster, 3, &[0, 1, 2, 3]);
}

/// A replica whose application, when `forged` is set, proposes that
/// block instead of an honest one and approves whatever it is shown —
/// a hostile proposer running the real engine over the real transport.
struct MaybeHostile {
    app: ChainApp,
    forged: Option<medchain_chain::Block>,
    hostile: bool,
}

impl Application for MaybeHostile {
    fn height(&self) -> u64 {
        self.app.height()
    }
    fn tip_id(&self) -> Hash256 {
        self.app.tip_id()
    }
    fn make_block(&mut self, proposer: medchain_chain::Address, now_ms: u64) -> medchain_chain::Block {
        self.forged.take().unwrap_or_else(|| self.app.make_block(proposer, now_ms))
    }
    fn validate_block(&self, block: &medchain_chain::Block) -> bool {
        self.hostile || self.app.validate_block(block)
    }
    fn commit_block(&mut self, block: &medchain_chain::Block) -> bool {
        self.app.commit_block(block)
    }
    fn sealed_block(&self, height: u64) -> Option<medchain_chain::Block> {
        self.app.sealed_block(height)
    }
}

/// The verify-once rule's adversary. Every honest replica has verified
/// and pooled a transaction — as one shared allocation, so no replica
/// will check *that allocation* again. The proposer of height 1 then
/// proposes a block carrying its twin: same signing bytes, hence the
/// same id, the same `tx_root` and (execution never reads the
/// signature) the same state root as the honest block, under a valid
/// proposer signature — with the transaction's own signature forged or
/// stripped. Only a signature check of the bytes actually proposed
/// stops it. Over the simulator the replicas are handed the hostile
/// allocation itself; over TCP they decode fresh ones.
fn hostile_twin_is_rejected<T: Transport<PoaMsg>>(
    net: T,
    strip_signature: bool,
    budget_ms: u64,
) {
    use medchain_chain::{Block, SealedTx};
    let n = 4;
    let (ks, registry) = seeded_consortium(n);
    let (engines, _) = PoaEngine::make_validators(n, 50);
    let mut apps: Vec<ChainApp> =
        (0..n).map(|_| ChainApp::new("hostile-test", registry.clone())).collect();
    let mut hostile = ChainApp::new("hostile-test", registry.clone());
    for app in apps.iter_mut().chain(std::iter::once(&mut hostile)) {
        app.ledger_mut().state_mut().credit(ks[0].address(), 1_000);
    }
    let good = SealedTx::from(
        Transaction::new(
            ks[0].address(),
            0,
            TxPayload::Transfer { to: ks[2].address(), amount: 5 },
            1_000,
        )
        .signed(&ks[0]),
    );
    for app in apps.iter_mut().chain(std::iter::once(&mut hostile)) {
        assert!(app.submit(good.clone()), "the honest transaction is verified and pooled");
    }

    // Height 1 is proposed by validator 1.
    let honest = hostile.make_block(ks[1].address(), 50);
    assert_eq!(honest.transactions.len(), 1);
    let mut twin = Transaction::clone(&good);
    match twin.signature.as_mut() {
        Some(_) if strip_signature => twin.signature = None,
        Some(sig) => sig.tag.0[0] ^= 1,
        None => unreachable!("signed above"),
    }
    assert_eq!(twin.id(), good.id(), "the id does not cover the signature");
    let forged = Block { transactions: vec![twin.clone()].into(), ..honest.clone() };
    assert_eq!(forged.id(), honest.id());
    assert!(forged.is_body_consistent(), "same ids, same transaction root");
    assert!(apps[0].validate_block(&honest), "the honest block would have passed");

    // Every replica refuses it outright, to vote on and to commit.
    for app in &mut apps {
        assert!(!app.validate_block(&forged));
        assert!(!app.commit_block(&forged));
        assert_eq!(app.height(), 0);
        assert_eq!(app.submit_in(twin.clone(), medchain_chain::Lane::Normal), SubmitOutcome::Duplicate);
    }

    // And through consensus: the hostile proposer votes for its own
    // block, nobody else does, and height 1 never commits anywhere.
    let replicas: Vec<MaybeHostile> = apps
        .into_iter()
        .enumerate()
        .map(|(i, app)| MaybeHostile {
            app,
            forged: (i == 1).then(|| forged.clone()),
            hostile: i == 1,
        })
        .collect();
    let mut cluster = Cluster::with_transport(engines, replicas, net);
    let budget = cluster.net.now_ms() + budget_ms;
    let report = cluster.run_until_height(1, budget);
    assert!(!report.reached, "a block with a forged transaction signature committed");
    assert!(cluster.net.stats().delivered > 0, "the proposal was never delivered");
    for replica in &cluster.replicas {
        assert_eq!(replica.app.height(), 0);
        assert!(replica.app.app.receipt(&good.id()).is_none());
    }
    cluster.shutdown();
}

#[test]
fn hostile_proposer_cannot_commit_a_forged_twin_of_a_verified_transaction() {
    for strip_signature in [false, true] {
        hostile_twin_is_rejected(SimTransport::new(4, 21), strip_signature, 5_000);
        let tcp = TcpTransport::bind(4).expect("loopback bind");
        hostile_twin_is_rejected(tcp, strip_signature, 1_500);
    }
}

/// A forged transaction never commits, whichever door it is pushed
/// through: full-verification admission refuses it; the trusted
/// `admit_verified` door (the path `sign_and_submit` takes after its
/// own check) pools it on the caller's word, and the proposer's one
/// signature check then drops it instead of including it.
#[test]
fn forged_transactions_never_commit_through_any_admission_path() {
    use medchain::{GatewayBackend, Network};
    let mut builder = Network::builder().block_interval_ms(20).seed(3);
    for i in 0..4 {
        builder = builder.site(&format!("hospital-{i}"), Vec::new());
    }
    let mut net = builder.build().expect("network builds");
    let key = AuthorityKey::from_seed(0); // site 0's enrolled key
    let nonce = net.ledger().state().account(&key.address()).nonce;
    let mut forged = Transaction::new(
        key.address(),
        nonce,
        TxPayload::Anchor { root: Hash256::digest(b"forged"), label: "forged/anchor".into() },
        1_000,
    )
    .signed(&key);
    forged.signature.as_mut().expect("signed").tag.0[7] ^= 0x10;
    assert!(!forged.verify(net.registry()));

    let mut app = ChainApp::new("forged-test", net.registry().clone());
    assert_eq!(
        app.submit_in(forged.clone(), medchain_chain::Lane::Normal),
        SubmitOutcome::Inadmissible
    );

    let (_, outcome) = net.admit_verified(forged.clone(), medchain_chain::Lane::Normal);
    assert!(outcome.is_admitted(), "admit_verified takes the caller's word");
    net.advance(4).expect("blocks keep committing");
    assert!(net.find_receipt(&forged.id()).is_none());
    for site in 0..4 {
        assert!(net.ledger_of(site).locate_tx(&forged.id()).is_none());
    }
    net.shutdown();
}
