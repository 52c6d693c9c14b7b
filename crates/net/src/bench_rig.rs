//! Multi-threaded throughput rig for experiment E6: `u` client threads
//! hammer one server thread; wall-clock ops/sec per protocol.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use tcvs_core::{HonestServer, Op, ProtocolConfig, ProtocolKind};
use tcvs_crypto::setup_users;
use tcvs_merkle::{u64_key, MerkleTree};

use tcvs_core::ServerApi;

use crate::client::{NetClient1, NetClient2, NetClientTrusted};
use crate::obs::NetStats;
use crate::server::{NetServer, NetServerOptions};
use crate::shard::{PacedServer, ShardedClient2, ShardedClientTrusted, ShardedServer};

/// Result of one throughput run.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Client threads.
    pub clients: u32,
    /// Total operations completed.
    pub ops: u64,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Per-operation latencies in nanoseconds (all workers, unordered).
    pub latencies_ns: Vec<u64>,
    /// Operations that failed (server unavailable mid-run); 0 against a
    /// healthy server.
    pub failed_ops: u64,
}

impl ThroughputReport {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The `q`-quantile per-op latency (q in [0, 1]).
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.latencies_ns.is_empty() {
            return Duration::ZERO;
        }
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Duration::from_nanos(v[idx])
    }
}

/// Shared collector for per-op latencies across worker threads.
type LatencySink = Arc<Mutex<Vec<u64>>>;

fn record(sink: &LatencySink, started: Instant) {
    sink.lock().push(started.elapsed().as_nanos() as u64);
}

/// The update-heavy op stream each worker issues.
fn worker_op(user: u32, i: u64, update_fraction: u32) -> Op {
    let key = u64_key((user as u64 * 7919 + i * 13) % 1024);
    if i % 100 < update_fraction as u64 {
        Op::Put(key, vec![(i % 251) as u8; 32])
    } else {
        Op::Get(key)
    }
}

/// Per-worker tally: (completed ops, failed ops). A worker stops at its
/// first failure — the server is gone or deviating; either way the rig
/// reports it rather than panicking on a bench thread.
type WorkerTally = (u64, u64);

/// Batching/pipelining knobs for a tuned throughput run. The default is
/// the pre-batching configuration (per-op exchanges, blocking Protocol I
/// deposits, publish-every-write), so `run_throughput` numbers are
/// unchanged by construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThroughputOptions {
    /// Protocol II: operations per batched window (1 = per-op exchanges).
    pub batch_window: usize,
    /// Protocol I: server pipeline depth (0 = physically blocking deposits).
    pub pipeline_depth: usize,
    /// Snapshot-slot publication window in ops (1 = publish every write).
    pub publish_every_ops: u64,
}

impl Default for ThroughputOptions {
    fn default() -> ThroughputOptions {
        ThroughputOptions {
            batch_window: 1,
            pipeline_depth: 0,
            publish_every_ops: 1,
        }
    }
}

/// Runs `n_clients` threads, each performing `ops_per_client` operations
/// against a fresh honest server, under the given protocol. Returns
/// wall-clock throughput. `update_pct` is the percentage of updates.
pub fn run_throughput(
    protocol: ProtocolKind,
    n_clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    config: &ProtocolConfig,
) -> ThroughputReport {
    run_throughput_observed(
        protocol,
        n_clients,
        ops_per_client,
        update_pct,
        config,
        NetStats::disabled(),
    )
}

/// [`run_throughput`] with observability attached: the server thread, the
/// reader pool, and every worker's client feed the counters and histograms
/// in `stats`. Used by the overhead probe to compare instrumented vs dark
/// throughput on the same rig.
pub fn run_throughput_observed(
    protocol: ProtocolKind,
    n_clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    config: &ProtocolConfig,
    stats: NetStats,
) -> ThroughputReport {
    run_throughput_tuned(
        protocol,
        n_clients,
        ops_per_client,
        update_pct,
        config,
        ThroughputOptions::default(),
        stats,
    )
}

/// [`run_throughput_observed`] with the batching levers exposed: Protocol II
/// windows of [`ThroughputOptions::batch_window`] ops per exchange,
/// Protocol I deposits pipelined to [`ThroughputOptions::pipeline_depth`],
/// and snapshot publication batched every
/// [`ThroughputOptions::publish_every_ops`] writes. The defaults reproduce
/// the untuned rig exactly.
pub fn run_throughput_tuned(
    protocol: ProtocolKind,
    n_clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    config: &ProtocolConfig,
    tuning: ThroughputOptions,
    stats: NetStats,
) -> ThroughputReport {
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let blocking = protocol == ProtocolKind::One && tuning.pipeline_depth == 0;
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(config)),
        NetServerOptions {
            blocking_signatures: blocking,
            pipeline_depth: tuning.pipeline_depth,
            publish_every_ops: tuning.publish_every_ops,
            stats: stats.clone(),
            ..NetServerOptions::default()
        },
    );
    let sink: LatencySink = Arc::new(Mutex::new(Vec::with_capacity(
        (n_clients as u64 * ops_per_client) as usize,
    )));

    let start;
    let mut handles: Vec<std::thread::JoinHandle<WorkerTally>> = Vec::new();
    match protocol {
        ProtocolKind::Trusted => {
            start = Instant::now();
            for u in 0..n_clients {
                let mut c = NetClientTrusted::new(u, &server);
                c.set_stats(stats.clone());
                let sink = Arc::clone(&sink);
                handles.push(std::thread::spawn(move || {
                    let mut done = 0;
                    for i in 0..ops_per_client {
                        let t = Instant::now();
                        if c.execute(&worker_op(u, i, update_pct)).is_err() {
                            return (done, ops_per_client - done);
                        }
                        record(&sink, t);
                        done += 1;
                    }
                    (done, 0)
                }));
            }
        }
        ProtocolKind::One => {
            // Key heights must cover ops_per_client signatures per user.
            let height = 64 - (ops_per_client + 2).leading_zeros();
            let (rings, registry) = setup_users([0x11; 32], n_clients, height.max(4));
            let mut clients: Vec<NetClient1> = rings
                .into_iter()
                .map(|r| {
                    let mut c = NetClient1::new(r, registry.clone(), *config, &server);
                    c.set_stats(stats.clone());
                    c.set_pipelined(tuning.pipeline_depth > 0);
                    c
                })
                .collect();
            clients[0].deposit_initial(&root0).expect("fresh server");
            start = Instant::now();
            for (u, mut c) in clients.into_iter().enumerate() {
                let sink = Arc::clone(&sink);
                handles.push(std::thread::spawn(move || {
                    let mut done = 0;
                    for i in 0..ops_per_client {
                        let t = Instant::now();
                        if c.execute(&worker_op(u as u32, i, update_pct)).is_err() {
                            return (done, ops_per_client - done);
                        }
                        record(&sink, t);
                        done += 1;
                    }
                    (done, 0)
                }));
            }
        }
        ProtocolKind::Two => {
            let window = tuning.batch_window.max(1) as u64;
            start = Instant::now();
            for u in 0..n_clients {
                let mut c = NetClient2::new(u, &root0, *config, &server);
                c.set_stats(stats.clone());
                let sink = Arc::clone(&sink);
                handles.push(std::thread::spawn(move || {
                    let mut done = 0;
                    let mut i = 0;
                    while i < ops_per_client {
                        let n = window.min(ops_per_client - i);
                        let t = Instant::now();
                        let ok = if n == 1 {
                            c.execute(&worker_op(u, i, update_pct)).is_ok()
                        } else {
                            let ops: Vec<Op> =
                                (i..i + n).map(|j| worker_op(u, j, update_pct)).collect();
                            c.execute_batch(&ops).is_ok()
                        };
                        if !ok {
                            return (done, ops_per_client - done);
                        }
                        // Every op in the window waited for the whole
                        // exchange; each is charged the window latency.
                        for _ in 0..n {
                            record(&sink, t);
                        }
                        done += n;
                        i += n;
                    }
                    (done, 0)
                }));
            }
        }
        other => panic!("run_throughput does not support {other:?}"),
    }
    let (mut ops, mut failed_ops) = (0, 0);
    for h in handles {
        let (done, failed) = h.join().expect("worker");
        ops += done;
        failed_ops += failed;
    }
    let elapsed = start.elapsed();
    server.shutdown();
    let latencies_ns = Arc::try_unwrap(sink)
        .map(|m| m.into_inner())
        .unwrap_or_default();
    ThroughputReport {
        protocol,
        clients: n_clients,
        ops,
        elapsed,
        latencies_ns,
        failed_ops,
    }
}

/// Sharded-grove throughput: `n_clients` worker threads hammer a
/// [`ShardedServer`] of `n_shards` paced shards, each shard charging
/// `wire_latency` of modeled service time per serialized operation
/// ([`PacedServer`]).
///
/// The pacing is the point: sharding multiplies *serialized-resource
/// capacity*, not host CPU, so the scaling probes model the resource
/// (per-op service latency on each shard's write path, as a WAN deployment
/// or commit-bound disk would see) and measure how aggregate throughput
/// grows with N while the modeled per-op cost stays fixed. With
/// `wire_latency == 0` this degenerates to raw single-host CPU, which does
/// not and should not scale with N on fewer cores than shards.
///
/// Supports [`ProtocolKind::Trusted`] (routed baseline; snapshot reads
/// bypass the paced path exactly as real reads bypass the write lock) and
/// [`ProtocolKind::Two`] (per-shard verified batch windows of
/// [`ThroughputOptions::batch_window`] ops).
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_throughput(
    protocol: ProtocolKind,
    n_shards: usize,
    n_clients: u32,
    ops_per_client: u64,
    update_pct: u32,
    config: &ProtocolConfig,
    tuning: ThroughputOptions,
    wire_latency: Duration,
    stats: NetStats,
) -> ThroughputReport {
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let inners: Vec<Box<dyn ServerApi + Send>> = (0..n_shards)
        .map(|_| {
            Box::new(PacedServer::new(HonestServer::new(config), wire_latency))
                as Box<dyn ServerApi + Send>
        })
        .collect();
    let grove = ShardedServer::spawn_with_servers(
        inners,
        NetServerOptions {
            publish_every_ops: tuning.publish_every_ops,
            stats: stats.clone(),
            ..NetServerOptions::default()
        },
    );
    let sink: LatencySink = Arc::new(Mutex::new(Vec::with_capacity(
        (n_clients as u64 * ops_per_client) as usize,
    )));

    let start;
    let mut handles: Vec<std::thread::JoinHandle<WorkerTally>> = Vec::new();
    match protocol {
        ProtocolKind::Trusted => {
            start = Instant::now();
            for u in 0..n_clients {
                let mut c = ShardedClientTrusted::new(u, &grove);
                c.set_stats(stats.clone());
                let sink = Arc::clone(&sink);
                handles.push(std::thread::spawn(move || {
                    let mut done = 0;
                    for i in 0..ops_per_client {
                        let t = Instant::now();
                        if c.execute(&worker_op(u, i, update_pct)).is_err() {
                            return (done, ops_per_client - done);
                        }
                        record(&sink, t);
                        done += 1;
                    }
                    (done, 0)
                }));
            }
        }
        ProtocolKind::Two => {
            let window = tuning.batch_window.max(1) as u64;
            let root0s = vec![root0; n_shards];
            start = Instant::now();
            for u in 0..n_clients {
                let mut c = ShardedClient2::new(u, &root0s, *config, &grove);
                c.set_stats(stats.clone());
                let sink = Arc::clone(&sink);
                handles.push(std::thread::spawn(move || {
                    let mut done = 0;
                    let mut i = 0;
                    while i < ops_per_client {
                        let n = window.min(ops_per_client - i);
                        let t = Instant::now();
                        let ok = if n == 1 {
                            c.execute(&worker_op(u, i, update_pct)).is_ok()
                        } else {
                            let ops: Vec<Op> =
                                (i..i + n).map(|j| worker_op(u, j, update_pct)).collect();
                            c.execute_batch(&ops).is_ok()
                        };
                        if !ok {
                            return (done, ops_per_client - done);
                        }
                        for _ in 0..n {
                            record(&sink, t);
                        }
                        done += n;
                        i += n;
                    }
                    (done, 0)
                }));
            }
        }
        other => panic!("run_sharded_throughput does not support {other:?}"),
    }
    let (mut ops, mut failed_ops) = (0, 0);
    for h in handles {
        let (done, failed) = h.join().expect("worker");
        ops += done;
        failed_ops += failed;
    }
    let elapsed = start.elapsed();
    grove.shutdown();
    let latencies_ns = Arc::try_unwrap(sink)
        .map(|m| m.into_inner())
        .unwrap_or_default();
    ThroughputReport {
        protocol,
        clients: n_clients,
        ops,
        elapsed,
        latencies_ns,
        failed_ops,
    }
}
