//! Focused performance probes for the hot paths this repository optimizes
//! across PRs: proof generation, crash snapshots, and mixed read/write
//! throughput. `expgen` runs these and records the numbers in
//! `BENCH_results.json` so the perf trajectory is tracked per PR.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcvs_core::adversary::{LieServer, Trigger};
use tcvs_core::{
    FaultPlan, FaultRates, HonestServer, ProtocolConfig, ProtocolKind, ServerApi, ServerCore,
    NO_USER,
};
use tcvs_merkle::{
    apply_op, prune_for_op, u64_key, ChunkAssembler, ChunkSource, MerkleTree, Op,
    VerificationObject,
};
use tcvs_net::{
    run_sharded_throughput, run_throughput, run_throughput_observed, run_throughput_tuned,
    BootstrapClient, FaultLink, NetClientTrusted, NetServer, NetServerOptions, NetStats,
    RetryPolicy, ShardedClient2, ShardedServer, ThroughputOptions, ThroughputReport,
};
use tcvs_obs::{MetricsRegistry, MetricsSnapshot, Tracer};

/// One probe's outcome: throughput plus optional proof-size and latency
/// quantiles (probes that don't measure them leave `None`).
#[derive(Clone, Debug)]
pub struct PerfResult {
    /// Probe name (stable key in `BENCH_results.json`).
    pub name: String,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Mean verification-object size in bytes, if the probe builds proofs.
    pub proof_bytes: Option<f64>,
    /// Median per-op latency in microseconds, if measured per-op.
    pub p50_us: Option<f64>,
    /// 99th-percentile per-op latency in microseconds, if measured per-op.
    pub p99_us: Option<f64>,
    /// 99.9th-percentile per-op latency in microseconds. Batching trades
    /// tail latency for throughput (every op in a window waits for the
    /// whole exchange), and p99 alone hides that trade — the batching
    /// probes exist to make it visible.
    pub p999_us: Option<f64>,
}

fn quantile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Builds a throughput probe from a rig report, with the full latency
/// quantile set (p50/p99/p999) computed from the per-op samples.
fn probe_from_report(name: String, r: &ThroughputReport) -> PerfResult {
    let mut lat = r.latencies_ns.clone();
    lat.sort_unstable();
    PerfResult {
        name,
        ops_per_sec: r.ops_per_sec(),
        proof_bytes: None,
        p50_us: Some(quantile(&lat, 0.5)),
        p99_us: Some(quantile(&lat, 0.99)),
        p999_us: Some(quantile(&lat, 0.999)),
    }
}

/// Point-update proof generation on a tree of `n` entries: per iteration the
/// server builds the verification object for a `Put`, applies it, and reads
/// the new root — the §4.1 hot path every protocol bottlenecks on.
pub fn point_update_proof_gen(n: u64, order: usize, value_len: usize, iters: u64) -> PerfResult {
    let mut tree = MerkleTree::with_order(order);
    for i in 0..n {
        tree.insert(u64_key(i), vec![0xAB; value_len])
            .expect("full tree");
    }
    let mut proof_bytes = 0u64;
    let mut lat = Vec::with_capacity(iters as usize);
    let started = Instant::now();
    for i in 0..iters {
        // Spread updates across the key space deterministically.
        let op = Op::Put(u64_key((i * 7919) % n), vec![(i % 251) as u8; value_len]);
        let t = Instant::now();
        let vo = VerificationObject::new(prune_for_op(&tree, &op));
        apply_op(&mut tree, &op).expect("full tree");
        std::hint::black_box(tree.root_digest());
        lat.push(t.elapsed().as_nanos() as u64);
        proof_bytes += vo.encoded_size() as u64;
    }
    let elapsed = started.elapsed().as_secs_f64();
    lat.sort_unstable();
    PerfResult {
        name: format!("point_update_proof_gen/n{n}_order{order}_val{value_len}"),
        ops_per_sec: iters as f64 / elapsed.max(1e-9),
        proof_bytes: Some(proof_bytes as f64 / iters as f64),
        p50_us: Some(quantile(&lat, 0.5)),
        p99_us: Some(quantile(&lat, 0.99)),
        p999_us: Some(quantile(&lat, 0.999)),
    }
}

/// Read-heavy mixed throughput: `clients` threads against one server,
/// `update_pct`% updates (the acceptance mix is 90/10 reads/writes).
pub fn mixed_throughput(
    protocol: ProtocolKind,
    clients: u32,
    ops_per_client: u64,
    update_pct: u32,
) -> PerfResult {
    let config = ProtocolConfig {
        order: 16,
        k: u64::MAX,
        epoch_len: 1 << 30,
    };
    let r = run_throughput(protocol, clients, ops_per_client, update_pct, &config);
    probe_from_report(
        format!(
            "throughput/{}_{}clients_{}pct_updates",
            protocol.label(),
            clients,
            update_pct
        ),
        &r,
    )
}

/// Crash-snapshot capture cost on a database of `n` entries: captures per
/// second (the higher, the cheaper a capture; an O(1) capture stays flat as
/// `n` grows).
pub fn crash_snapshot_capture(n: u64, iters: u64) -> PerfResult {
    let config = ProtocolConfig {
        order: 16,
        k: u64::MAX,
        epoch_len: 1 << 30,
    };
    let mut core = ServerCore::new(&config);
    for i in 0..n {
        core.process(0, &Op::Put(u64_key(i), vec![0xCD; 24]), i);
    }
    let started = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(core.crash_snapshot());
    }
    let elapsed = started.elapsed().as_secs_f64();
    PerfResult {
        name: format!("crash_snapshot_capture/n{n}"),
        ops_per_sec: iters as f64 / elapsed.max(1e-9),
        proof_bytes: None,
        p50_us: None,
        p99_us: None,
        p999_us: None,
    }
}

fn throughput_config() -> ProtocolConfig {
    ProtocolConfig {
        order: 16,
        k: u64::MAX,
        epoch_len: 1 << 30,
    }
}

/// Instrumented trusted-read throughput: the same rig as
/// [`mixed_throughput`] with live metric handles attached to the server
/// thread, the reader pool, and every client. Returns the probe result and
/// the metrics snapshot the run produced (serialized into
/// `BENCH_results.json`'s `"metrics"` section).
///
/// The probe exists to keep the write-lock invariant honest: metric and
/// event emission happen strictly outside the snapshot-slot critical
/// section, so this number must track the uninstrumented
/// `throughput/trusted_*` probe.
pub fn instrumented_throughput(
    clients: u32,
    ops_per_client: u64,
    update_pct: u32,
) -> (PerfResult, MetricsSnapshot) {
    let stats = NetStats::new(Arc::new(MetricsRegistry::new()), Tracer::disabled());
    let r = run_throughput_observed(
        ProtocolKind::Trusted,
        clients,
        ops_per_client,
        update_pct,
        &throughput_config(),
        stats.clone(),
    );
    let result = probe_from_report(
        format!("throughput/trusted_{clients}clients_{update_pct}pct_updates_instrumented"),
        &r,
    );
    (result, stats.snapshot())
}

/// The dark and instrumented trusted-read probes measured **interleaved**:
/// `rounds` passes, each running both rigs with the order flipped every
/// pass, taking the best of each side. The suite used to run all dark
/// probes first and the instrumented one last, so allocator/cache warm-up
/// leaked into whichever side ran later and the instrumented number could
/// *exceed* the dark baseline (686k vs 553k in the PR 5 results) — an
/// ordering artifact, not negative-overhead instrumentation. Alternating
/// the order makes warm-up drift hit both sides equally.
pub fn interleaved_trusted_probes(
    clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    rounds: u32,
) -> (PerfResult, PerfResult, MetricsSnapshot) {
    let config = throughput_config();
    let dark_name = format!("throughput/trusted_{clients}clients_{update_pct}pct_updates");
    let mut dark: Option<PerfResult> = None;
    let mut instrumented: Option<(PerfResult, MetricsSnapshot)> = None;
    let measure_dark = |best: &mut Option<PerfResult>| {
        let r = run_throughput(
            ProtocolKind::Trusted,
            clients,
            ops_per_client,
            update_pct,
            &config,
        );
        let probe = probe_from_report(dark_name.clone(), &r);
        if best
            .as_ref()
            .is_none_or(|b| probe.ops_per_sec > b.ops_per_sec)
        {
            *best = Some(probe);
        }
    };
    let measure_instrumented = |best: &mut Option<(PerfResult, MetricsSnapshot)>| {
        let (probe, metrics) = instrumented_throughput(clients, ops_per_client, update_pct);
        if best
            .as_ref()
            .is_none_or(|(b, _)| probe.ops_per_sec > b.ops_per_sec)
        {
            *best = Some((probe, metrics));
        }
    };
    for round in 0..rounds.max(1) {
        if round % 2 == 0 {
            measure_dark(&mut dark);
            measure_instrumented(&mut instrumented);
        } else {
            measure_instrumented(&mut instrumented);
            measure_dark(&mut dark);
        }
    }
    let dark = dark.expect("rounds >= 1");
    let (inst, metrics) = instrumented.expect("rounds >= 1");
    (dark, inst, metrics)
}

/// Instrumented-to-dark throughput ratio on the trusted-read rig, taking
/// the best of `rounds` interleaved measurements for each side (best-of
/// suppresses scheduler noise; interleaving suppresses drift). 1.0 means
/// instrumentation is free; the overhead gate asserts it stays above 0.95.
pub fn instrumentation_overhead_ratio(
    clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    rounds: u32,
) -> f64 {
    let config = throughput_config();
    let mut dark: f64 = 0.0;
    let mut instrumented: f64 = 0.0;
    for _ in 0..rounds.max(1) {
        dark = dark.max(
            run_throughput(
                ProtocolKind::Trusted,
                clients,
                ops_per_client,
                update_pct,
                &config,
            )
            .ops_per_sec(),
        );
        instrumented = instrumented.max(
            instrumented_throughput(clients, ops_per_client, update_pct)
                .0
                .ops_per_sec,
        );
    }
    instrumented / dark.max(1e-9)
}

/// The standard probe suite; `quick` shrinks sizes for CI smoke runs.
/// Discards the metrics snapshot — use [`run_suite_observed`] to keep it.
pub fn run_suite(quick: bool) -> Vec<PerfResult> {
    run_suite_observed(quick).0
}

/// The standard probe suite plus the instrumented trusted-read probe;
/// returns the probes and the instrumented run's metrics snapshot. The
/// dark and instrumented trusted probes are measured interleaved (see
/// [`interleaved_trusted_probes`]) so probe order cannot bias their ratio.
pub fn run_suite_observed(quick: bool) -> (Vec<PerfResult>, MetricsSnapshot) {
    let (n, iters) = if quick {
        (1 << 12, 400)
    } else {
        (1 << 14, 2000)
    };
    let (clients, ops) = if quick { (4, 100) } else { (4, 500) };
    let snap_iters = if quick { 50 } else { 200 };
    let rounds = if quick { 2 } else { 3 };
    let (trusted, instrumented, metrics) = interleaved_trusted_probes(clients, ops, 10, rounds);
    let probes = vec![
        point_update_proof_gen(n, 16, 24, iters),
        point_update_proof_gen(n, 16, 256, iters),
        trusted,
        mixed_throughput(ProtocolKind::Two, clients, ops, 10),
        mixed_throughput(ProtocolKind::Two, clients, ops, 90),
        crash_snapshot_capture(n, snap_iters),
        crash_snapshot_capture(n * 4, snap_iters),
        instrumented,
    ];
    (probes, metrics)
}

/// The `"batching"` probe family: before/after rows for the two tuned
/// verified paths, with a trusted reference measured in the **same run**
/// so the verified-to-trusted ratio is an apples-to-apples comparison.
///
/// Naming: the plain `throughput/...` name carries the *tuned*
/// configuration (it is the headline verified number after this change);
/// the `_per_op` / `_blocking` suffixes carry the untuned before rows.
/// The acceptance gate is `throughput/protocol-2_4clients_10pct_updates`
/// here ≥ 0.5× `throughput/trusted_4clients_10pct_updates` here.
///
/// Caveat for the Protocol I pair: pipelining converts the blocking
/// deposit wait into *overlapped* client verify+sign work, so its win is
/// wall-clock parallelism. On a single-core host (this repo's CI
/// container) every P1 configuration is signature-bound at the same
/// ops/sec and the pipelined row ties the blocking row; the lever pays on
/// multicore. The batched Protocol II win, by contrast, is a per-op CPU
/// reduction (shared spine siblings, one exchange per window) and shows
/// up regardless of core count.
pub fn batching_suite(quick: bool) -> Vec<PerfResult> {
    let config = throughput_config();
    let (clients, ops) = if quick { (4, 100) } else { (4, 500) };
    let (p1_clients, p1_ops) = if quick { (2, 60) } else { (2, 250) };
    let window = 16usize;
    let depth = 8usize;
    let tuned = |protocol, n: u32, per: u64, t: ThroughputOptions| {
        run_throughput_tuned(protocol, n, per, 10, &config, t, NetStats::disabled())
    };

    let trusted = tuned(
        ProtocolKind::Trusted,
        clients,
        ops,
        ThroughputOptions::default(),
    );
    let p2_per_op = tuned(
        ProtocolKind::Two,
        clients,
        ops,
        ThroughputOptions::default(),
    );
    let p2_batched = tuned(
        ProtocolKind::Two,
        clients,
        ops,
        ThroughputOptions {
            batch_window: window,
            publish_every_ops: window as u64,
            ..ThroughputOptions::default()
        },
    );
    let p1_blocking = tuned(
        ProtocolKind::One,
        p1_clients,
        p1_ops,
        ThroughputOptions::default(),
    );
    let p1_pipelined = tuned(
        ProtocolKind::One,
        p1_clients,
        p1_ops,
        ThroughputOptions {
            pipeline_depth: depth,
            ..ThroughputOptions::default()
        },
    );

    vec![
        probe_from_report(
            format!("throughput/trusted_{clients}clients_10pct_updates"),
            &trusted,
        ),
        probe_from_report(
            format!("throughput/protocol-2_{clients}clients_10pct_updates_per_op"),
            &p2_per_op,
        ),
        probe_from_report(
            format!("throughput/protocol-2_{clients}clients_10pct_updates"),
            &p2_batched,
        ),
        probe_from_report(
            format!("throughput/protocol-1_{p1_clients}clients_10pct_updates_blocking"),
            &p1_blocking,
        ),
        probe_from_report(
            format!("throughput/protocol-1_{p1_clients}clients_10pct_updates"),
            &p1_pipelined,
        ),
    ]
}

/// Modeled per-op service latency for the sharding probes (see
/// [`run_sharded_throughput`]): the fixed wire + commit cost each shard's
/// serialized path charges per operation. Carried in the probe names
/// (`_wire200us`) so rows from different latency models never compare.
const SHARD_WIRE_LATENCY: Duration = Duration::from_micros(200);

/// The `"sharding"` probe family: trusted and batched Protocol II 90/10
/// throughput over a sharded grove at 1/2/4/8 shards, plus a
/// fork-detection run where exactly one shard of four deviates.
///
/// All scaling rows model a fixed 200µs per-op service latency on each
/// shard's serialized path ([`run_sharded_throughput`] explains why: the
/// quantity sharding multiplies is serialized-resource capacity, which a
/// paced shard reproduces on any host, while raw single-host CPU does not
/// scale with N on fewer cores than shards). The acceptance gate compares
/// same-run rows: 4-shard trusted ≥ 2× the 1-shard trusted figure.
///
/// The two `fork_1of4` rows carry *counts*, not rates, in the schema's
/// `ops_per_sec` slot (the section is probe-shaped by construction; the
/// `_ops` / `_alarms` name suffixes carry the unit): the detection gap in
/// operations on the deviating shard past its trigger (Protocol II's
/// replay check ⇒ 0, and always ≤ k), and the number of honest-shard
/// false alarms (must be 0).
pub fn sharding_suite(quick: bool) -> Vec<PerfResult> {
    let config = throughput_config();
    let clients = 8u32;
    let ops = if quick { 64 } else { 256 };
    let window = 16usize;
    let mut probes = Vec::new();
    for n_shards in [1usize, 2, 4, 8] {
        let trusted = run_sharded_throughput(
            ProtocolKind::Trusted,
            n_shards,
            clients,
            ops,
            10,
            &config,
            ThroughputOptions::default(),
            SHARD_WIRE_LATENCY,
            NetStats::disabled(),
        );
        probes.push(probe_from_report(
            format!("sharding/trusted_{n_shards}shards_{clients}clients_10pct_updates_wire200us"),
            &trusted,
        ));
        let p2 = run_sharded_throughput(
            ProtocolKind::Two,
            n_shards,
            clients,
            ops,
            10,
            &config,
            ThroughputOptions {
                batch_window: window,
                publish_every_ops: window as u64,
                ..ThroughputOptions::default()
            },
            SHARD_WIRE_LATENCY,
            NetStats::disabled(),
        );
        probes.push(probe_from_report(
            format!(
                "sharding/protocol-2_{n_shards}shards_{clients}clients_10pct_updates_wire200us"
            ),
            &p2,
        ));
    }
    let (gap, false_alarms) = fork_one_of_four();
    let count_row = |name: &str, value: f64| PerfResult {
        name: name.into(),
        ops_per_sec: value,
        proof_bytes: None,
        p50_us: None,
        p99_us: None,
        p999_us: None,
    };
    probes.push(count_row(
        "sharding/fork_1of4_detection_gap_ops",
        gap as f64,
    ));
    probes.push(count_row(
        "sharding/fork_1of4_false_alarms",
        false_alarms as f64,
    ));
    probes
}

/// The fork-detection run: a four-shard grove with a lying server on
/// exactly one shard (triggered at that shard's counter 12). Returns the
/// detection gap in deviating-shard operations past the trigger, and the
/// number of alarms raised by traffic on the three honest shards (the
/// false-alarm count). Panics if the lie escapes detection — a silent pass
/// must never produce a results row.
fn fork_one_of_four() -> (u64, u64) {
    const LIE_AT: u64 = 12;
    let cfg = ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 1 << 30,
    };
    let bad_shard = 2;
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..4)
        .map(|i| -> Box<dyn ServerApi + Send> {
            if i == bad_shard {
                Box::new(LieServer::new(&cfg, Trigger::AtCtr(LIE_AT)))
            } else {
                Box::new(HonestServer::new(&cfg))
            }
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(inners, NetServerOptions::default());
    let router = grove.router();
    let root0 = MerkleTree::with_order(cfg.order).root_digest();
    let mut c = ShardedClient2::new(0, &[root0; 4], cfg, &grove);
    let mut per_shard_ops = [0u64; 4];
    let mut outcome = None;
    for i in 0..400u64 {
        let op = Op::Put(u64_key(i), vec![i as u8; 8]);
        let shard = router.route_op(&op).expect("keyed op");
        match c.execute(&op) {
            Ok(_) => per_shard_ops[shard] += 1,
            Err(_) => {
                outcome = Some(shard);
                break;
            }
        }
    }
    let alarmed_shard = outcome.expect("the deviating shard escaped detection");
    let false_alarms = u64::from(alarmed_shard != bad_shard);
    let gap = per_shard_ops[bad_shard].saturating_sub(LIE_AT);
    grove.shutdown();
    (gap, false_alarms)
}

/// Value length used by the bootstrap probes; together with the key count
/// it fixes the snapshot size each chunk budget has to move.
const BOOTSTRAP_VALUE_LEN: usize = 16;

/// Spawns a net server whose tree holds `n_keys` entries and whose
/// bootstrap responses are sliced at `budget` bytes per chunk.
fn populated_server(cfg: &ProtocolConfig, n_keys: u64, budget: usize) -> NetServer {
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(cfg)),
        NetServerOptions {
            bootstrap_chunk_bytes: budget,
            ..NetServerOptions::default()
        },
    );
    let mut writer = NetClientTrusted::new(0, &server);
    for i in 0..n_keys {
        writer
            .execute(&Op::Put(
                u64_key(i),
                vec![(i % 251) as u8; BOOTSTRAP_VALUE_LEN],
            ))
            .expect("honest server");
    }
    server
}

/// The verified-state-sync family: end-to-end bootstrap cost over the real
/// wire as the database size and chunk budget vary (`ops_per_sec` is keys
/// restored per second; `proof_bytes` is the mean chunk payload), plus
/// count rows (`_alarms` / `_misses` suffixes carry the unit) for the two
/// safety properties — benign fault storms must cause zero bootstrap
/// failures, and a forged chunk must be rejected at exactly its index for
/// every index in the stream.
pub fn bootstrap_suite(quick: bool) -> Vec<PerfResult> {
    let cfg = ProtocolConfig {
        order: 8,
        k: 16,
        epoch_len: 1 << 30,
    };
    let sizes: &[u64] = if quick { &[256, 1024] } else { &[1024, 8192] };
    let budgets: &[usize] = &[1024, 16 * 1024, 64 * 1024];
    let rounds: u64 = if quick { 2 } else { 5 };
    let mut probes = Vec::new();
    for &n_keys in sizes {
        for &budget in budgets {
            let server = populated_server(&cfg, n_keys, budget);
            let mut chunks = 0u64;
            let mut bytes = 0u64;
            let started = Instant::now();
            for _ in 0..rounds {
                let mut boot = BootstrapClient::new(NO_USER, &server);
                let report = boot.bootstrap(None).expect("honest bootstrap");
                assert_eq!(
                    report.tree.len(),
                    Some(n_keys as usize),
                    "bootstrap dropped entries"
                );
                chunks += report.chunks_fetched;
                bytes += report.bytes_fetched;
            }
            let secs = started.elapsed().as_secs_f64().max(1e-9);
            probes.push(PerfResult {
                name: format!("bootstrap/{n_keys}keys_{budget}b_chunks"),
                ops_per_sec: (n_keys * rounds) as f64 / secs,
                proof_bytes: Some(bytes as f64 / (chunks.max(1)) as f64),
                p50_us: None,
                p99_us: None,
                p999_us: None,
            });
            server.shutdown();
        }
    }
    let count_row = |name: &str, value: f64| PerfResult {
        name: name.into(),
        ops_per_sec: value,
        proof_bytes: None,
        p50_us: None,
        p99_us: None,
        p999_us: None,
    };
    let (storm_runs, storm_alarms) = bootstrap_fault_storm(&cfg);
    probes.push(count_row("bootstrap/fault_storm_runs", storm_runs as f64));
    probes.push(count_row(
        "bootstrap/fault_storm_false_alarms",
        storm_alarms as f64,
    ));
    let (forge_trials, forge_misses) = forged_chunk_sweep(&cfg);
    probes.push(count_row(
        "bootstrap/forge_trials_chunks",
        forge_trials as f64,
    ));
    probes.push(count_row(
        "bootstrap/forge_detection_misses",
        forge_misses as f64,
    ));
    probes
}

/// Bootstraps through a seeded benign fault storm (drops, delays,
/// duplicates, reorders on the wire). Returns (runs, false alarms): every
/// run must assemble the same root a storm-free bootstrap sees, so any
/// failure or divergence counts as a false alarm.
fn bootstrap_fault_storm(cfg: &ProtocolConfig) -> (u64, u64) {
    let server = populated_server(cfg, 128, 512);
    let mut direct = BootstrapClient::new(NO_USER, &server);
    let clean = direct.bootstrap(None).expect("storm-free bootstrap");
    let mut runs = 0u64;
    let mut false_alarms = 0u64;
    for seed in [0xb007_u64, 0x57a9, 0xfa11] {
        let plan = FaultPlan::seeded(seed, 40, &FaultRates::heavy());
        let link = FaultLink::interpose(&server, plan);
        let mut boot = BootstrapClient::new(NO_USER, &link);
        boot.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_millis(40),
            max_jitter: Duration::from_millis(5),
        });
        runs += 1;
        match boot.bootstrap(None) {
            Ok(report) if report.root == clean.root => {}
            _ => false_alarms += 1,
        }
    }
    server.shutdown();
    (runs, false_alarms)
}

/// The forged-chunk sweep: for every chunk index in a multi-chunk
/// snapshot, flip one byte inside that chunk's node region and replay the
/// stream. Returns (trials, misses) where a miss is a forgery that was
/// admitted at all or rejected at the wrong index — the acceptance gate
/// requires zero.
fn forged_chunk_sweep(cfg: &ProtocolConfig) -> (u64, u64) {
    let mut tree = MerkleTree::with_order(cfg.order);
    for i in 0..200u64 {
        tree.insert(u64_key(i), vec![(i % 251) as u8; BOOTSTRAP_VALUE_LEN])
            .expect("full tree");
    }
    let source = ChunkSource::new(&tree, 512).expect("full tree chunks");
    let n = source.num_chunks();
    assert!(n >= 3, "the sweep needs a multi-chunk transfer, got {n}");
    let mut misses = 0u64;
    for bad in 0..n {
        let mut assembler = ChunkAssembler::new(source.manifest().clone()).expect("valid manifest");
        let mut caught = None;
        for i in 0..n {
            let mut bytes = source.chunk(i).expect("in range");
            if i == bad {
                let at = bytes.len() - 1 - bytes.len() / 4;
                bytes[at] ^= 0x01;
            }
            if assembler.admit(i, &bytes).is_err() {
                caught = Some(i);
                break;
            }
        }
        if caught != Some(bad) {
            misses += 1;
        }
    }
    (n as u64, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The write-lock invariant, as a perf gate: attaching metrics and a
    /// tracer must not extend the snapshot-slot critical section, so the
    /// instrumented trusted-read rig has to stay within 5% of the dark one
    /// (whose recorded PR-2 baseline is 112904 ops/s in release full mode).
    /// Timing under a loaded test runner is noisy, so the gate re-measures
    /// with more rounds before declaring a regression.
    #[test]
    fn instrumentation_overhead_stays_under_five_percent() {
        let mut ratio = 0.0;
        for rounds in [2, 3, 4] {
            ratio = instrumentation_overhead_ratio(4, 400, 10, rounds);
            if ratio >= 0.95 {
                return;
            }
        }
        panic!("instrumented/dark trusted-read throughput ratio {ratio:.3} < 0.95");
    }

    /// The batching family carries the same-run trusted reference, the
    /// untuned before rows, and the tuned after rows under the canonical
    /// names the acceptance gate compares, each with the full latency
    /// quantile set (the p999 column is the whole point of the family).
    #[test]
    fn batching_suite_produces_before_and_after_rows() {
        let probes = batching_suite(true);
        let names: Vec<&str> = probes.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "throughput/trusted_4clients_10pct_updates",
            "throughput/protocol-2_4clients_10pct_updates_per_op",
            "throughput/protocol-2_4clients_10pct_updates",
            "throughput/protocol-1_2clients_10pct_updates_blocking",
            "throughput/protocol-1_2clients_10pct_updates",
        ] {
            assert!(names.contains(&expected), "missing probe {expected}");
        }
        for p in &probes {
            assert!(
                p.ops_per_sec.is_finite() && p.ops_per_sec > 0.0,
                "{}: {}",
                p.name,
                p.ops_per_sec
            );
            assert!(p.p999_us.is_some(), "{} lacks tail latency", p.name);
        }
    }

    /// The bootstrap acceptance gate, on the quick suite: every size ×
    /// budget cell produced a finite transfer-rate row whose mean chunk
    /// never exceeds roughly its budget, the fault storm caused zero
    /// bootstrap failures, and the forged-chunk sweep covered a
    /// multi-chunk stream with zero detection misses.
    #[test]
    fn bootstrap_suite_transfers_and_detects() {
        let probes = bootstrap_suite(true);
        let get = |name: &str| {
            probes
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("missing probe {name}"))
        };
        for n_keys in [256u64, 1024] {
            for budget in [1024usize, 16 * 1024, 64 * 1024] {
                let p = get(&format!("bootstrap/{n_keys}keys_{budget}b_chunks"));
                assert!(
                    p.ops_per_sec.is_finite() && p.ops_per_sec > 0.0,
                    "{}: {}",
                    p.name,
                    p.ops_per_sec
                );
                let mean_chunk = p.proof_bytes.expect("mean chunk bytes recorded");
                // The codec's per-chunk envelope can push a single-chunk
                // payload slightly past the budget; 2x is the sanity bound.
                assert!(
                    mean_chunk > 0.0 && mean_chunk < 2.0 * budget as f64,
                    "{}: mean chunk {mean_chunk} vs budget {budget}",
                    p.name
                );
            }
        }
        assert!(get("bootstrap/fault_storm_runs").ops_per_sec >= 3.0);
        assert_eq!(
            get("bootstrap/fault_storm_false_alarms").ops_per_sec,
            0.0,
            "benign storms must never fail a bootstrap"
        );
        assert!(get("bootstrap/forge_trials_chunks").ops_per_sec >= 3.0);
        assert_eq!(
            get("bootstrap/forge_detection_misses").ops_per_sec,
            0.0,
            "every forged chunk is rejected at its exact index"
        );
    }

    /// The sharding acceptance gate, on the quick suite: all sixteen
    /// scaling rows exist under their canonical `_wire200us` names, the
    /// 4-shard trusted figure is at least 2× the same-run 1-shard figure,
    /// the one-deviating-shard run is caught within the k-bound, and the
    /// honest shards raise zero false alarms.
    #[test]
    fn sharding_suite_scales_and_detects() {
        let probes = sharding_suite(true);
        let get = |name: &str| {
            probes
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("missing probe {name}"))
                .ops_per_sec
        };
        for n in [1, 2, 4, 8] {
            for proto in ["trusted", "protocol-2"] {
                let v = get(&format!(
                    "sharding/{proto}_{n}shards_8clients_10pct_updates_wire200us"
                ));
                assert!(v.is_finite() && v > 0.0, "{proto}/{n}: {v}");
            }
        }
        let t1 = get("sharding/trusted_1shards_8clients_10pct_updates_wire200us");
        let t4 = get("sharding/trusted_4shards_8clients_10pct_updates_wire200us");
        assert!(
            t4 >= 2.0 * t1,
            "4-shard trusted {t4:.0} ops/s < 2x the same-run 1-shard {t1:.0}"
        );
        let gap = get("sharding/fork_1of4_detection_gap_ops");
        assert!(gap <= 16.0, "detection gap {gap} exceeds the k-bound");
        assert_eq!(
            get("sharding/fork_1of4_false_alarms"),
            0.0,
            "an honest shard alarmed"
        );
    }

    #[test]
    fn instrumented_probe_counts_every_op() {
        let (probe, metrics) = instrumented_throughput(2, 50, 10);
        assert!(probe.name.ends_with("_instrumented"));
        let reads = metrics.counter("net.server.reads_served").unwrap_or(0);
        let ops = metrics.counter("net.server.ops_served").unwrap_or(0);
        // Every one of the 100 worker ops lands on exactly one path.
        assert_eq!(reads + ops, 100, "reads={reads} ops={ops}");
    }
}
