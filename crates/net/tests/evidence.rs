//! End-to-end evidence capture over the wire: a per-op rejection stashes a
//! portable bundle, a failed grove sync-up seals the localization (and the
//! grafted transition logs let the cold audit name the forked shard and
//! counter), and the sealed bytes survive the independent verifier while
//! any single-byte mutation is rejected.

use tcvs_core::adversary::{ForkServer, LieServer, Trigger};
use tcvs_core::{
    audit_bytes, diagnose_with_timeline, EvidenceKind, HonestServer, Op, ProtocolConfig, ServerApi,
    SyncShare, Verdict,
};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient2, NetServer, NetServerOptions, ShardedClient2, ShardedServer};
use tcvs_obs::{Event, EventKind};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 10,
    }
}

fn root0s(n: usize, config: &ProtocolConfig) -> Vec<tcvs_core::Digest> {
    vec![MerkleTree::with_order(config.order).root_digest(); n]
}

/// A lying server's rejected response leaves an auditable bundle on the
/// client: the independent verifier accepts the sealed bytes and reads the
/// exact verdict out of them, and every single-byte mutation is rejected.
#[test]
fn per_op_rejection_captures_an_auditable_bundle() {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(LieServer::new(&cfg, Trigger::AtCtr(3))),
        NetServerOptions::default(),
    );
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = NetClient2::new(0, &root0, cfg, &server);
    c.enable_logging();
    c.set_evidence_seed(0xDEC0DE);

    let mut verdict = None;
    for i in 0..16u64 {
        if let Err(e) = c.execute(&Op::Put(u64_key(i), vec![i as u8])) {
            verdict = Some((i, e));
            break;
        }
    }
    let (at, _err) = verdict.expect("the lie went undetected");
    assert_eq!(at, 3, "caught on the very response that carried the lie");

    let bundle = c.take_evidence().expect("rejection captured evidence");
    assert!(c.take_evidence().is_none(), "the stash holds one bundle");
    assert_eq!(bundle.kind, EvidenceKind::ProtocolVerdict);
    assert_eq!(bundle.seed, 0xDEC0DE);
    assert_eq!(bundle.trigger.deviation, "bad-proof");
    assert_eq!(bundle.vos.len(), 1, "the offending VO rides along");
    assert_eq!(
        bundle.transition_logs.len(),
        1,
        "the client's accepted-transition history rides along"
    );

    let bytes = bundle.to_bytes();
    let report = audit_bytes(&bytes);
    assert!(report.accepted, "authentic bundle: {:?}", report.rejection);
    assert_eq!(report.kind.as_deref(), Some("protocol-verdict"));
    assert_eq!(report.protocol, "protocol-2");

    // Any single mutated byte is rejected — sample every 11th position to
    // keep the integration test quick (the exhaustive sweep lives in the
    // core unit tests).
    for at in (0..bytes.len()).step_by(11) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            !audit_bytes(&bad).accepted,
            "flipped byte {at} must reject the artifact"
        );
    }
    server.shutdown();
}

/// A fork confined to one shard of a grove: per-op exchanges stay clean on
/// both branches, the sync-up localizes the forked shard, and the captured
/// bundle — with both users' transition logs grafted in — lets the cold
/// audit independently confirm the deviation, re-localize the same shard,
/// and name the exact forked counter.
#[test]
fn grove_fork_bundle_names_the_shard_and_counter() {
    const FORK_AT: u64 = 4;
    let cfg = config();
    let n = 4;
    let bad_shard = 2;
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..n)
        .map(|i| -> Box<dyn ServerApi + Send> {
            if i == bad_shard {
                // Partition user 0 onto branch A; user 1 continues on B.
                Box::new(ForkServer::new(&cfg, Trigger::AtCtr(FORK_AT), &[0]))
            } else {
                Box::new(HonestServer::new(&cfg))
            }
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(inners, NetServerOptions::default());
    let r0 = root0s(n, &cfg);
    let mut alice = ShardedClient2::new(0, &r0, cfg, &grove);
    let mut bob = ShardedClient2::new(1, &r0, cfg, &grove);
    alice.enable_logging();
    bob.enable_logging();

    // Interleave writes; each branch of the fork stays self-consistent, so
    // no per-op exchange alarms — the fork only surfaces at sync-up.
    for i in 0..40u64 {
        alice
            .execute(&Op::Put(u64_key(2 * i), vec![1]))
            .expect("branch A self-consistent");
        bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
            .expect("branch B self-consistent");
    }
    let a = alice.sync_shares();
    let b = bob.sync_shares();
    let per_shard: Vec<Vec<SyncShare>> = (0..n).map(|i| vec![a[i].clone(), b[i].clone()]).collect();
    assert!(!alice.sync_succeeds(&per_shard), "the fork fails sync-up");
    assert_eq!(alice.deviating_shards(&per_shard), vec![bad_shard]);

    // Capture: alice's builder carries her whole view; the harness grafts
    // bob's log and seals.
    let builder = alice
        .localization_evidence(77, &per_shard, None)
        .expect("localization fired");
    let bob_log = bob
        .client(bad_shard)
        .transition_log()
        .expect("logging enabled")
        .clone();
    let bundle = builder.transition_log(bad_shard, 1, &bob_log).build();
    assert_eq!(bundle.kind, EvidenceKind::ShardLocalization);
    assert_eq!(bundle.claimed_deviating_shards, vec![bad_shard as u32]);

    let report = audit_bytes(&bundle.to_bytes());
    assert!(report.accepted, "authentic bundle: {:?}", report.rejection);
    assert!(report.confirmed, "the audit re-derives the deviation cold");
    assert_eq!(
        report.deviating_shards,
        vec![bad_shard as u32],
        "re-localized to the same shard with no live server"
    );
    let culprit = report.culprit.expect("transition logs pin the fork");
    assert_eq!(culprit.shard, bad_shard as u32);
    assert_eq!(culprit.class, "fork");
    assert_eq!(
        culprit.at_ctr, FORK_AT,
        "the audit names the exact forked counter"
    );
    // Determinism: sealing the same capture twice is byte-identical.
    let builder2 = alice
        .localization_evidence(77, &per_shard, None)
        .expect("localization is repeatable");
    let bundle2 = builder2.transition_log(bad_shard, 1, &bob_log).build();
    assert_eq!(bundle.to_bytes(), bundle2.to_bytes());
    grove.shutdown();
}

/// Forensics under a sharded grove: pooling both users' per-shard transition
/// logs and running [`diagnose_with_timeline`] shard by shard names the
/// forked shard's first bad counter — and *only* that shard's. Every honest
/// shard's pooled history reconstructs as a single clean path, so a lie
/// confined to one shard cannot smear the diagnosis onto its neighbours.
#[test]
fn sharded_diagnosis_names_only_the_forked_shards_counter() {
    const FORK_AT: u64 = 5;
    let cfg = config();
    let n = 4;
    let bad_shard = 3;
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..n)
        .map(|i| -> Box<dyn ServerApi + Send> {
            if i == bad_shard {
                Box::new(ForkServer::new(&cfg, Trigger::AtCtr(FORK_AT), &[0]))
            } else {
                Box::new(HonestServer::new(&cfg))
            }
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(inners, NetServerOptions::default());
    let r0 = root0s(n, &cfg);
    let mut alice = ShardedClient2::new(0, &r0, cfg, &grove);
    let mut bob = ShardedClient2::new(1, &r0, cfg, &grove);
    alice.enable_logging();
    bob.enable_logging();
    for i in 0..32u64 {
        alice
            .execute(&Op::Put(u64_key(2 * i), vec![1]))
            .expect("branch A self-consistent");
        bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
            .expect("branch B self-consistent");
    }
    let a = alice.sync_shares();
    let b = bob.sync_shares();
    let per_shard: Vec<Vec<SyncShare>> = (0..n).map(|i| vec![a[i].clone(), b[i].clone()]).collect();
    assert!(!alice.sync_succeeds(&per_shard), "the fork fails sync-up");

    // Every shard's keyspace shares the same empty initial tree, so the
    // common-knowledge initial token is the same for all of them.
    let initial = tcvs_core::state::initial_token(&r0[0]);
    for shard in 0..n {
        let logs = vec![
            alice
                .client(shard)
                .transition_log()
                .expect("logging enabled")
                .clone(),
            bob.client(shard)
                .transition_log()
                .expect("logging enabled")
                .clone(),
        ];
        let timeline = vec![
            Event::new(shard as u64, EventKind::SyncTriggered, 0),
            Event::new(shard as u64, EventKind::SyncUp, 0)
                .detail(format!("shard {shard}: grove sync-up failed")),
        ];
        let report = diagnose_with_timeline(&logs, &initial, timeline);
        if shard == bad_shard {
            match &report.verdict {
                Verdict::Fork { at_ctr, users, .. } => {
                    assert_eq!(
                        *at_ctr, FORK_AT,
                        "the forked shard's diagnosis names the first bad counter"
                    );
                    let mut u = users.clone();
                    u.sort_unstable();
                    assert_eq!(u, vec![0, 1], "both sides of the partition are named");
                }
                other => panic!("expected a fork on shard {shard}, got {other:?}"),
            }
            let rendered = report.render();
            assert!(rendered.contains("Fork"), "{rendered}");
            assert!(rendered.contains("timeline:"), "{rendered}");
            assert!(rendered.contains("sync-up failed"), "{rendered}");
        } else {
            assert!(
                matches!(report.verdict, Verdict::CleanPath { .. }),
                "honest shard {shard} must stay clean, got {:?}",
                report.verdict
            );
        }
    }
    grove.shutdown();
}

/// An honest grove captures nothing: no per-op stash, no localization
/// builder — evidence capture is free on the honest path.
#[test]
fn honest_grove_captures_no_evidence() {
    let cfg = config();
    let n = 3;
    let grove = ShardedServer::spawn(n, &cfg, NetServerOptions::default());
    let mut c = ShardedClient2::new(0, &root0s(n, &cfg), cfg, &grove);
    c.enable_logging();
    for i in 0..30u64 {
        c.execute(&Op::Put(u64_key(i), vec![i as u8]))
            .expect("honest grove");
    }
    assert!(c.take_evidence().is_none());
    let per_shard: Vec<Vec<SyncShare>> = c.sync_shares().into_iter().map(|s| vec![s]).collect();
    assert!(c.sync_succeeds(&per_shard));
    assert!(c.localization_evidence(0, &per_shard, None).is_none());
    grove.shutdown();
}
