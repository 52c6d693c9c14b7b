//! Forensics benchmarks — what deviation evidence *costs*.
//!
//! Three claims the evidence-bundle subsystem makes, measured:
//!
//! 1. **Capture is cheap when it fires.** Sealing a cross-shard
//!    localization bundle (the most expensive capture site: sync shares,
//!    grove sample, and both users' transition logs) is a one-shot cost
//!    paid only after a deviation verdict — the `capture_*` rows record
//!    seals/second and sealed-artifact bytes.
//! 2. **Cold audit scales with history size.** `tcvs-audit` re-verifies
//!    every signature, hash chain, and transition log in the bundle; the
//!    `audit_verify_*` rows track verifications/second as the captured
//!    transition history grows with the database run length.
//! 3. **Capture is free when it doesn't fire.** An armed client (logging
//!    on, evidence seed set) on an honest server must match the dark
//!    client's throughput: the `honest_*` rows record both, and the
//!    `honest_instrumented_ratio` row records instrumented/dark (gated
//!    ≥ 0.95 by the forensics tests and the CI audit-smoke job).

use std::time::Instant;

use tcvs_core::adversary::{ForkServer, LieServer, Trigger};
use tcvs_core::{
    audit_bytes, EvidenceBundle, HonestServer, Op, ProtocolConfig, ServerApi, SyncShare,
};
use tcvs_merkle::{u64_key, MerkleTree};
use tcvs_net::{NetClient2, NetServer, NetServerOptions, ShardedClient2, ShardedServer};

use crate::perf::PerfResult;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 8,
        k: 1 << 20,
        epoch_len: 1 << 30,
    }
}

fn row(name: String, ops_per_sec: f64, proof_bytes: Option<f64>) -> PerfResult {
    PerfResult {
        name,
        ops_per_sec,
        proof_bytes,
        p50_us: None,
        p99_us: None,
        p999_us: None,
    }
}

/// Drives a 1-of-4-shard fork to a failed sync-up and returns everything a
/// capture needs: the localizing client, the grafted second user's log, and
/// the per-shard shares. Shard 3 is the forked one (the routing of the
/// even/odd key split gives both users a healthy op count there).
pub struct ForkScenario {
    grove: ShardedServer,
    alice: ShardedClient2,
    bob: ShardedClient2,
    per_shard: Vec<Vec<SyncShare>>,
    /// The shard running the forking server.
    pub bad_shard: usize,
    /// The counter at which that shard forked.
    pub fork_at: u64,
}

impl ForkScenario {
    /// Runs the seeded fork attack to the point where sync-up has failed
    /// and localization names exactly one shard.
    pub fn drive(n_ops: u64) -> ForkScenario {
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
        let r0 = vec![MerkleTree::with_order(cfg.order).root_digest(); n];
        let mut alice = ShardedClient2::new(0, &r0, cfg, &grove);
        let mut bob = ShardedClient2::new(1, &r0, cfg, &grove);
        alice.enable_logging();
        bob.enable_logging();
        for i in 0..n_ops {
            alice
                .execute(&Op::Put(u64_key(2 * i), vec![1]))
                .expect("branch A self-consistent");
            bob.execute(&Op::Put(u64_key(2 * i + 1), vec![2]))
                .expect("branch B self-consistent");
        }
        let a = alice.sync_shares();
        let b = bob.sync_shares();
        let per_shard: Vec<Vec<SyncShare>> =
            (0..n).map(|i| vec![a[i].clone(), b[i].clone()]).collect();
        assert!(!alice.sync_succeeds(&per_shard), "the fork fails sync-up");
        ForkScenario {
            grove,
            alice,
            bob,
            per_shard,
            bad_shard,
            fork_at: FORK_AT,
        }
    }

    /// Seals one localization bundle (alice's view plus bob's grafted log
    /// for the deviating shard) — the exact capture the sync-up harness
    /// performs.
    pub fn seal(&self, seed: u64) -> EvidenceBundle {
        let builder = self
            .alice
            .localization_evidence(seed, &self.per_shard, None)
            .expect("localization fired");
        let bob = self.bob.client(self.bad_shard);
        let bob_log = bob.transition_log().expect("logging enabled");
        builder
            .transition_log(self.bad_shard, bob.user(), bob_log)
            .build()
    }

    /// Shuts the grove down.
    pub fn shutdown(self) {
        self.grove.shutdown();
    }
}

/// Runs a lying server until the per-op verdict fires at `detect_at` and
/// returns the sealed per-op bundle (transition log of `detect_at` ops).
fn per_op_bundle(detect_at: u64) -> EvidenceBundle {
    let cfg = config();
    let server = NetServer::spawn_with(
        Box::new(LieServer::new(&cfg, Trigger::AtCtr(detect_at))),
        NetServerOptions::default(),
    );
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = NetClient2::new(0, &root0, cfg, &server);
    c.enable_logging();
    c.set_evidence_seed(detect_at);
    let mut caught = false;
    for i in 0..=detect_at {
        if c.execute(&Op::Put(u64_key(i), vec![i as u8])).is_err() {
            caught = true;
            break;
        }
    }
    assert!(caught, "the lie at ctr {detect_at} went undetected");
    let bundle = c.take_evidence().expect("rejection captured evidence");
    server.shutdown();
    bundle
}

/// Honest-path throughput with and without the forensics instrumentation
/// armed. Returns `(dark_ops_per_sec, instrumented_ops_per_sec)`.
fn honest_throughput(n_ops: u64) -> (f64, f64) {
    let cfg = config();
    let run = |armed: bool| -> f64 {
        let server = NetServer::spawn_with(
            Box::new(HonestServer::new(&cfg)),
            NetServerOptions::default(),
        );
        let root0 = MerkleTree::with_order(cfg.order).root_digest();
        let mut c = NetClient2::new(0, &root0, cfg, &server);
        if armed {
            c.enable_logging();
            c.set_evidence_seed(1);
        }
        let started = Instant::now();
        for i in 0..n_ops {
            c.execute(&Op::Put(u64_key(i % 64), vec![i as u8]))
                .expect("honest server");
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        assert!(c.take_evidence().is_none(), "honest run captured evidence");
        server.shutdown();
        n_ops as f64 / secs
    };
    // Interleave a warmup of each shape so neither ordering is favoured.
    let _ = run(false);
    let _ = run(true);
    (run(false), run(true))
}

/// The forensics probe suite: capture cost, cold-audit verify rate vs
/// history size, and the honest-path instrumented/dark throughput ratio.
pub fn forensics_suite(quick: bool) -> Vec<PerfResult> {
    let mut probes = Vec::new();

    // 1. Localization capture cost (seals/second, sealed bytes).
    let scenario = ForkScenario::drive(if quick { 24 } else { 48 });
    let seal_rounds: u64 = if quick { 20 } else { 100 };
    let bytes = scenario.seal(0).to_bytes();
    let started = Instant::now();
    for seed in 0..seal_rounds {
        let b = scenario.seal(seed);
        assert_eq!(b.claimed_deviating_shards, vec![scenario.bad_shard as u32]);
    }
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    probes.push(row(
        "forensics/capture_localization_bundle".into(),
        seal_rounds as f64 / secs,
        Some(bytes.len() as f64),
    ));
    scenario.shutdown();

    // 2. Cold audit rate vs captured history size.
    let sizes: &[u64] = if quick {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024]
    };
    let audit_rounds: u64 = if quick { 20 } else { 100 };
    for &n in sizes {
        let bytes = per_op_bundle(n).to_bytes();
        let started = Instant::now();
        for _ in 0..audit_rounds {
            let report = audit_bytes(&bytes);
            assert!(report.accepted, "{:?}", report.rejection);
        }
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        probes.push(row(
            format!("forensics/audit_verify_{n}ops"),
            audit_rounds as f64 / secs,
            Some(bytes.len() as f64),
        ));
    }

    // 3. Honest-path overhead of armed instrumentation.
    let (dark, instrumented) = honest_throughput(if quick { 400 } else { 4000 });
    probes.push(row("forensics/honest_dark_ops".into(), dark, None));
    probes.push(row(
        "forensics/honest_instrumented_ops".into(),
        instrumented,
        None,
    ));
    probes.push(row(
        "forensics/honest_instrumented_ratio".into(),
        instrumented / dark.max(1e-9),
        None,
    ));
    probes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_produces_the_expected_probe_family() {
        let probes = forensics_suite(true);
        let names: Vec<&str> = probes.iter().map(|p| p.name.as_str()).collect();
        assert!(names.contains(&"forensics/capture_localization_bundle"));
        assert!(names.contains(&"forensics/audit_verify_16ops"));
        assert!(names.contains(&"forensics/honest_instrumented_ratio"));
        for p in &probes {
            assert!(
                p.ops_per_sec.is_finite() && p.ops_per_sec > 0.0,
                "{}",
                p.name
            );
        }
    }

    #[test]
    fn sealed_scenario_bundle_audits_cold_and_names_the_shard() {
        let scenario = ForkScenario::drive(24);
        let bundle = scenario.seal(42);
        let report = audit_bytes(&bundle.to_bytes());
        assert!(report.accepted, "{:?}", report.rejection);
        assert!(report.confirmed);
        assert_eq!(report.deviating_shards, vec![scenario.bad_shard as u32]);
        let culprit = report.culprit.expect("logs pin the fork");
        assert_eq!(culprit.shard, scenario.bad_shard as u32);
        assert_eq!(culprit.at_ctr, scenario.fork_at);
        scenario.shutdown();
    }
}
