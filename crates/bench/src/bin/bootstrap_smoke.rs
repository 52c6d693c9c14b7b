//! Bootstrap smoke test: SIGKILL a live shard mid-run, restore it from a
//! peer via verified chunk sync, and prove the grove is whole again.
//!
//! Orchestrator mode (`bootstrap_smoke <dir> [rounds]`) spawns itself in
//! worker mode: the worker is shard 1's durable process, appending that
//! shard's slice of a deterministic global op stream to the real
//! filesystem. The orchestrator SIGKILLs it at a different point every
//! round, verifies the kill was survivable (recovered state matches an
//! in-memory oracle replay), then declares the worker's disk lost and
//! restores the shard the way a production operator would:
//!
//! 1. A grove peer holding the full shard-1 state serves chunked verified
//!    state sync over the wire ([`BootstrapClient`] pinned to the last
//!    grove epoch's shard root).
//! 2. The verified tree is re-anchored to fresh durable storage via
//!    [`DurableServer::open_from_chunks`], which checkpoints immediately
//!    so the kill-anywhere discipline resumes.
//! 3. The rebuilt shard rejoins the grove (`bootstrap_restart`); the next
//!    grove epoch must fold the same grove root as before the kill.
//! 4. A late-joining verified client re-enters at the post-rejoin epoch
//!    and the Protocol II grove sync-up must pass.
//!
//! A final corruption round forges one chunk of the peer's stream and
//! asserts the restore fails at exactly that chunk index. Any divergence,
//! alarm, or recovery failure exits nonzero.

use std::process::{Command, Stdio};
use std::time::Duration;

use tcvs_core::{HonestServer, ProtocolConfig, ServerCore, ShardRouter, SyncShare, NO_USER};
use tcvs_merkle::{u64_key, ChunkAssembler, ChunkSource, Op, OpResult};
use tcvs_net::{BootstrapClient, NetServer, NetServerOptions, ShardedClient2, ShardedServer};
use tcvs_storage::{
    DurabilityOptions, DurableOptions, DurableServer, DurableStorage, FileMedium, StorageObs,
};

const SHARDS: usize = 3;
const KILLED: usize = 1;
/// Global ops the surviving grove absorbs before serving the restore.
const GROVE_OPS: u64 = 90;
const KEY_SPACE: u64 = 64;
/// Small chunk budget so every restore is a genuinely multi-chunk sync.
const CHUNK_BUDGET: usize = 256;

fn config() -> ProtocolConfig {
    ProtocolConfig {
        order: 4,
        k: 16,
        epoch_len: 10,
    }
}

/// The deterministic global op stream the whole smoke test is a function
/// of: the worker replays its shard's slice, the grove absorbs the prefix,
/// and the oracle reconstructs either from indices alone.
fn scripted(j: u64) -> Op {
    Op::Put(u64_key(j % KEY_SPACE), vec![(j % 97) as u8; 6])
}

fn open_durable(dir: &str) -> Result<DurableServer<DurableStorage<FileMedium>>, String> {
    let medium = FileMedium::open(dir).map_err(|e| format!("open medium: {e}"))?;
    let store = DurableStorage::open(
        medium,
        DurableOptions {
            segment_bytes: 8 * 1024,
            retain_checkpoints: 2,
        },
    );
    DurableServer::open(
        store,
        config(),
        DurabilityOptions {
            checkpoint_every: 16,
            ..DurabilityOptions::default()
        },
        StorageObs::disabled(),
    )
    .map_err(|e| format!("open server: {e}"))
}

/// Worker mode: shard `KILLED`'s durable process. Replays the global
/// stream, applies only the ops that route to this shard, and keeps going
/// until the orchestrator kills it.
fn worker(dir: &str) -> Result<(), String> {
    let router = ShardRouter::new(SHARDS);
    let mut server = open_durable(dir)?;
    let already = server.core().ctr();
    let mut seen = 0u64;
    let mut j = 0u64;
    loop {
        let op = scripted(j);
        if router.route_op(&op) == Some(KILLED) {
            if seen >= already {
                server
                    .apply(0, seen, &op, seen)
                    .map_err(|e| format!("apply shard op {seen}: {e}"))?;
            }
            seen += 1;
        }
        j += 1;
    }
}

/// Replays the first `n_shard_ops` shard-`KILLED` ops of the global
/// stream on a pristine in-memory core — the oracle the killed worker's
/// recovered state must match.
fn shard_oracle(n_shard_ops: u64) -> ServerCore {
    let router = ShardRouter::new(SHARDS);
    let mut oracle = ServerCore::new(&config());
    let mut seen = 0u64;
    let mut j = 0u64;
    while seen < n_shard_ops {
        let op = scripted(j);
        if router.route_op(&op) == Some(KILLED) {
            oracle.process(0, &op, seen);
            seen += 1;
        }
        j += 1;
    }
    oracle
}

fn round(exe: &std::path::Path, dir: &str, round: u64) -> Result<(), String> {
    let cfg = config();
    let worker_dir = format!("{dir}/round{round}/worker");
    let restored_dir = format!("{dir}/round{round}/restored");
    std::fs::create_dir_all(&worker_dir).map_err(|e| format!("mkdir: {e}"))?;
    std::fs::create_dir_all(&restored_dir).map_err(|e| format!("mkdir: {e}"))?;

    // The live shard, as a real OS process, killed at a different point
    // every round — before the first op, mid-append, mid-checkpoint, …
    let mut child = Command::new(exe)
        .arg("worker")
        .arg(&worker_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    std::thread::sleep(Duration::from_millis(15 + (round * 7) % 60));
    child.kill().map_err(|e| format!("kill worker: {e}"))?; // SIGKILL
    child.wait().map_err(|e| format!("wait worker: {e}"))?;

    // The kill must be survivable on the worker's own disk (the durable
    // discipline), even though this round abandons that disk afterwards.
    let dead = open_durable(&worker_dir)?;
    if let Some(stop) = &dead.last_recovery().corrupt_stop {
        return Err(format!(
            "round {round}: worker recovery hit corruption: {stop}"
        ));
    }
    let dead_ctr = dead.core().ctr();
    if dead.core().root_digest() != shard_oracle(dead_ctr).root_digest() {
        return Err(format!(
            "round {round}: recovered worker root diverges from oracle at ctr {dead_ctr}"
        ));
    }
    drop(dead);

    // The surviving grove: its shard `KILLED` is the peer that will serve
    // the restore. The global stream prefix flows through a verified
    // sharded client, so the peer's state is itself root-checked.
    let mut grove = ShardedServer::spawn(
        SHARDS,
        &cfg,
        NetServerOptions {
            bootstrap_chunk_bytes: CHUNK_BUDGET,
            ..NetServerOptions::default()
        },
    );
    let r0 = vec![tcvs_merkle::MerkleTree::with_order(cfg.order).root_digest(); SHARDS];
    let mut writer = ShardedClient2::new(0, &r0, cfg, &grove);
    for j in 0..GROVE_OPS {
        writer
            .execute(&scripted(j))
            .map_err(|e| format!("round {round}: grove write {j} alarmed: {e}"))?;
    }
    let epoch1 = grove
        .grove_epoch()
        .ok_or_else(|| format!("round {round}: grove refuses to publish an epoch"))?;
    let shard_root = epoch1.shard_roots[KILLED];

    // Verified chunk sync from the peer, pinned to the epoch's shard root.
    let mut boot = BootstrapClient::new(NO_USER, grove.shard(KILLED));
    let report = boot
        .bootstrap(Some(&shard_root))
        .map_err(|e| format!("round {round}: chunk sync from peer failed: {e}"))?;
    if report.chunks_fetched <= 1 {
        return Err(format!(
            "round {round}: transfer was not chunked ({} chunks)",
            report.chunks_fetched
        ));
    }

    // Re-anchor the verified tree to fresh durable storage; the restored
    // server checkpoints immediately, so a later plain open recovers it
    // locally without touching the network.
    let source = ChunkSource::new(&report.tree, CHUNK_BUDGET)
        .map_err(|e| format!("round {round}: chunk source: {e}"))?;
    let medium = FileMedium::open(&restored_dir).map_err(|e| format!("open medium: {e}"))?;
    let restored = DurableServer::open_from_chunks(
        DurableStorage::open(medium, DurableOptions::default()),
        cfg,
        DurabilityOptions::default(),
        StorageObs::disabled(),
        &report.root,
        report.ctr,
        &source.manifest().to_bytes(),
        |i| source.chunk(i),
    )
    .map_err(|e| format!("round {round}: durable restore: {e}"))?;
    if restored.core().root_digest() != shard_root {
        return Err(format!("round {round}: restored durable root diverges"));
    }
    drop(restored);
    let reopened = open_durable(&restored_dir)?;
    if reopened.core().root_digest() != shard_root {
        return Err(format!(
            "round {round}: restored shard did not checkpoint locally"
        ));
    }
    drop(reopened);

    // Rejoin: kill-and-replace the grove's shard with a server rebuilt
    // from the verified chunks. The grove root must not move.
    let core = ServerCore::from_verified_state(report.tree, report.ctr, &cfg)
        .map_err(|e| format!("round {round}: verified state rejected: {e}"))?;
    let replica = NetServer::spawn_with(
        Box::new(HonestServer::from_core(core)),
        NetServerOptions::default(),
    );
    grove
        .bootstrap_restart(KILLED, &replica, &shard_root, &cfg)
        .map_err(|e| format!("round {round}: shard rejoin failed: {e}"))?;
    replica.shutdown();
    let epoch2 = grove
        .grove_epoch()
        .ok_or_else(|| format!("round {round}: rejoined grove refuses to publish"))?;
    if epoch2.grove_root != epoch1.grove_root {
        return Err(format!(
            "round {round}: grove root moved across the restore"
        ));
    }

    // A late joiner anchored at the post-rejoin epoch reads what the
    // pre-kill history wrote and passes the Protocol II grove sync-up.
    let mut carol = ShardedClient2::join(2, &epoch2, cfg, &grove);
    for k in 0..KEY_SPACE {
        let last = (0..GROVE_OPS).rev().find(|j| j % KEY_SPACE == k);
        let got = carol
            .execute(&Op::Get(u64_key(k)))
            .map_err(|e| format!("round {round}: verified read of key {k} alarmed: {e}"))?;
        let want = OpResult::Value(last.map(|j| vec![(j % 97) as u8; 6]));
        if got != want {
            return Err(format!(
                "round {round}: key {k} read {got:?}, expected {want:?}"
            ));
        }
    }
    for j in GROVE_OPS..GROVE_OPS + 12 {
        carol
            .execute(&scripted(j))
            .map_err(|e| format!("round {round}: post-rejoin write {j} alarmed: {e}"))?;
    }
    let per_shard: Vec<Vec<SyncShare>> = carol.sync_shares().into_iter().map(|s| vec![s]).collect();
    if !carol.sync_succeeds(&per_shard) {
        return Err(format!(
            "round {round}: Protocol II sync-up failed on the rejoined grove"
        ));
    }
    grove.shutdown();
    println!(
        "round {round}: worker killed at ctr {dead_ctr}, restored via {} chunks, \
         grove root held, sync-up passed — ok",
        report.chunks_fetched
    );
    Ok(())
}

/// The corruption round: every chunk of a peer snapshot is forged in turn
/// (one byte flipped in the node region) and the stream replayed; the
/// restore must fail at exactly the offending index every time.
fn corruption_round() -> Result<(), String> {
    let cfg = config();
    let mut tree = tcvs_merkle::MerkleTree::with_order(cfg.order);
    for j in 0..GROVE_OPS {
        if let Op::Put(k, v) = scripted(j) {
            tree.insert(k, v).map_err(|e| format!("insert: {e}"))?;
        }
    }
    let source = ChunkSource::new(&tree, CHUNK_BUDGET).map_err(|e| format!("source: {e}"))?;
    let n = source.num_chunks();
    if n < 3 {
        return Err(format!(
            "corruption round needs a multi-chunk stream, got {n}"
        ));
    }
    for bad in 0..n {
        let mut assembler =
            ChunkAssembler::new(source.manifest().clone()).map_err(|e| format!("manifest: {e}"))?;
        let mut caught = None;
        for i in 0..n {
            let mut bytes = source.chunk(i).ok_or("chunk in range")?;
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
            return Err(format!(
                "forged chunk {bad} of {n}: rejected at {caught:?}, expected Some({bad})"
            ));
        }
    }
    println!("corruption round: {n} forged chunks, each rejected at its exact index — ok");
    Ok(())
}

fn orchestrate(dir: &str, rounds: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for r in 0..rounds {
        round(&exe, dir, r)?;
    }
    corruption_round()?;
    println!("bootstrap-smoke: {rounds} kill-and-restore rounds survived");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("worker") => match args.get(2) {
            Some(dir) => worker(dir),
            None => Err("usage: bootstrap_smoke worker <dir>".into()),
        },
        Some(dir) => {
            let rounds = args.get(2).and_then(|r| r.parse().ok()).unwrap_or(8);
            orchestrate(dir, rounds)
        }
        None => Err("usage: bootstrap_smoke <dir> [rounds] | bootstrap_smoke worker <dir>".into()),
    };
    if let Err(msg) = result {
        eprintln!("bootstrap-smoke FAILED: {msg}");
        std::process::exit(1);
    }
}
