//! The benchmark's own checks: negative controls (an adversarial server
//! must not pass), an honest traced run whose spans nest, and the seam
//! wrappers' forwarding.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tcvs_core::adversary::{ForkServer, LieServer, Trigger};
use tcvs_core::{
    BatchResponse, Digest, Epoch, HonestServer, Keyring, Op, PipelinedResponse, ProtocolConfig,
    ReadSnapshot, ServerApi, ServerMetrics, ServerResponse, SignedCheckpoint, SignedEpochState,
    SignedState, UserId,
};
use tcvs_cvsbench::layers::{Recorder, TracedMedium, TracedServer, TracedStorage};
use tcvs_cvsbench::report::{nesting_problems, outcome, per_layer, self_times};
use tcvs_cvsbench::rig::{run, Backend, RunConfig, RunResult};
use tcvs_cvsbench::workload::{Load, Mix, Pick, Protocol, WorkloadSpec};
use tcvs_merkle::u64_key;
use tcvs_storage::{
    response_bytes, DurabilityOptions, DurableOptions, DurableServer, DurableStorage, MemMedium,
    StorageObs,
};

fn tiny(protocol: Protocol) -> WorkloadSpec {
    WorkloadSpec {
        name: "tiny",
        protocol,
        files: 8,
        revisions: 20,
        lines: 10,
        line_len: 12,
        pick: Pick::Uniform,
        mix: Mix {
            edit: 50,
            checkout: 40,
            log: 10,
        },
        load: if protocol == Protocol::One {
            Load::Adds
        } else {
            Load::Puts
        },
        user_key_height: 12,
    }
}

fn config(spec: WorkloadSpec, trace: bool, backend: Backend, label: &str) -> RunConfig {
    RunConfig {
        spec,
        seed: 7,
        seconds: 0.5,
        trace,
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(label),
        backend,
    }
}

fn alarms(r: &RunResult) -> u64 {
    r.users.iter().map(|u| u.alarms).sum()
}

fn fork(config: &ProtocolConfig) -> Box<dyn ServerApi + Send> {
    // User 0 is split from user 1 and the loader once the run is under way
    // (the load takes the first 8 operations).
    Box::new(ForkServer::new(config, Trigger::AtCtr(40), &[0]))
}

fn lie(config: &ProtocolConfig) -> Box<dyn ServerApi + Send> {
    Box::new(LieServer::new(config, Trigger::AtCtr(40)))
}

#[test]
fn forked_server_fails_the_run() {
    let r = run(&config(
        tiny(Protocol::Two),
        false,
        Backend::InMemory(fork),
        "fork",
    ))
    .expect("run completes");
    let (attempted, failed) = outcome(&r);
    assert!(!r.sync_ok, "a forked history must fail the sync-up");
    assert!(!r.problems.is_empty());
    assert!(attempted > 0 && failed == attempted);
}

#[test]
fn lying_server_raises_an_alarm() {
    let r = run(&config(
        tiny(Protocol::Two),
        false,
        Backend::InMemory(lie),
        "lie",
    ))
    .expect("run completes");
    assert!(alarms(&r) > 0, "a forged answer must be detected");
    assert!(r.problems.iter().any(|p| p.contains("deviation")));
    let (_, failed) = outcome(&r);
    assert!(failed > 0);
}

fn check_honest_traced(protocol: Protocol, label: &str) {
    let r = run(&config(tiny(protocol), true, Backend::Durable, label)).expect("run completes");
    assert!(r.sync_ok);
    assert_eq!(alarms(&r), 0);
    assert!(r.problems.is_empty(), "{:?}", r.problems);
    for seam in [
        "cvs.checkout",
        "net",
        "server.handle_op_seq",
        "storage.commit",
        "medium.sync",
    ] {
        assert!(r.spans.iter().any(|s| s.name == seam), "no {seam} span");
    }
    assert_eq!(nesting_problems(&r.spans), Vec::<String>::new());
    assert!(self_times(&r.spans).values().all(|&t| t >= 0));
    for m in per_layer(&r) {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        if m.name.contains("self") {
            assert!(m.value >= 0.0, "{} = {}", m.name, m.value);
        }
    }
}

#[test]
fn honest_traced_run_is_clean_and_nests() {
    check_honest_traced(Protocol::Two, "honest2");
}

#[test]
fn honest_signed_run_is_clean_and_nests() {
    check_honest_traced(Protocol::One, "honest1");
}

/// A server that records which `ServerApi` methods reached it.
struct Probe {
    honest: HonestServer,
    calls: Arc<Mutex<Vec<&'static str>>>,
}

impl Probe {
    fn hit(&self, name: &'static str) {
        self.calls.lock().unwrap().push(name);
    }
}

impl ServerApi for Probe {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        self.hit("handle_op");
        self.honest.handle_op(user, op, round)
    }
    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        self.hit("handle_op_seq");
        self.honest.handle_op_seq(user, seq, op, round)
    }
    fn handle_op_batch(
        &mut self,
        user: UserId,
        seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        self.hit("handle_op_batch");
        self.honest.handle_op_batch(user, seq, ops, round)
    }
    fn handle_op_pipelined(
        &mut self,
        user: UserId,
        seq: u64,
        op: &Op,
        round: u64,
        depth: usize,
    ) -> Option<PipelinedResponse> {
        self.hit("handle_op_pipelined");
        self.honest.handle_op_pipelined(user, seq, op, round, depth)
    }
    fn deposit_lag(&self) -> u64 {
        self.hit("deposit_lag");
        7
    }
    fn deposit_signature(&mut self, _user: UserId, _s: SignedState) {
        self.hit("deposit_signature");
    }
    fn deposit_epoch_state(&mut self, _s: SignedEpochState) {
        self.hit("deposit_epoch_state");
    }
    fn fetch_epoch_states(&mut self, _requester: UserId, _epoch: Epoch) -> Vec<SignedEpochState> {
        self.hit("fetch_epoch_states");
        Vec::new()
    }
    fn deposit_checkpoint(&mut self, _c: SignedCheckpoint) {
        self.hit("deposit_checkpoint");
    }
    fn fetch_checkpoint(&mut self, _requester: UserId, _epoch: Epoch) -> Option<SignedCheckpoint> {
        self.hit("fetch_checkpoint");
        None
    }
    fn metrics(&self) -> ServerMetrics {
        self.hit("metrics");
        self.honest.metrics()
    }
    fn crash_restart(&mut self) {
        self.hit("crash_restart");
    }
    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        self.hit("read_snapshot");
        self.honest.read_snapshot()
    }
    fn recovered_journal(&self) -> Option<Vec<(UserId, u64, ServerResponse)>> {
        self.hit("recovered_journal");
        Some(Vec::new())
    }
}

#[test]
fn traced_server_forwards_every_method() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let probe = Probe {
        honest: HonestServer::new(&ProtocolConfig::default()),
        calls: Arc::clone(&calls),
    };
    let rec = Recorder::new();
    rec.set_on(true);
    let mut s = TracedServer::new(Box::new(probe), Arc::clone(&rec));
    let op = Op::Put(u64_key(1), b"v".to_vec());
    let mut ring = Keyring::derive(&[3; 32], 0, 2);
    let sig = ring.sign(&Digest::ZERO).unwrap();

    s.handle_op(0, &op, 0);
    s.handle_op_seq(0, 1, &op, 1);
    assert!(s.handle_op_batch(0, 2, &[Op::Get(u64_key(1))], 2).is_some());
    s.handle_op_pipelined(0, 3, &op, 3, 1);
    assert_eq!(s.deposit_lag(), 7);
    s.deposit_signature(
        0,
        SignedState {
            signer: 0,
            root: Digest::ZERO,
            ctr: 0,
            sig: sig.clone(),
        },
    );
    s.deposit_epoch_state(SignedEpochState {
        user: 0,
        epoch: 0,
        sigma: Digest::ZERO,
        last: None,
        ops: 0,
        sig: sig.clone(),
    });
    s.fetch_epoch_states(0, 0);
    s.deposit_checkpoint(SignedCheckpoint {
        epoch: 0,
        checker: 0,
        final_token: Digest::ZERO,
        sig,
    });
    s.fetch_checkpoint(0, 0);
    s.metrics();
    s.crash_restart();
    assert!(s.read_snapshot().is_some());
    assert!(s.recovered_journal().is_some());

    let seen = calls.lock().unwrap().clone();
    assert_eq!(
        seen,
        [
            "handle_op",
            "handle_op_seq",
            "handle_op_batch",
            "handle_op_pipelined",
            "deposit_lag",
            "deposit_signature",
            "deposit_epoch_state",
            "fetch_epoch_states",
            "deposit_checkpoint",
            "fetch_checkpoint",
            "metrics",
            "crash_restart",
            "read_snapshot",
            "recovered_journal",
        ]
    );
    assert_eq!(rec.take().len(), seen.len());
}

type Plain = DurableServer<DurableStorage<MemMedium>>;
type Traced = DurableServer<TracedStorage<DurableStorage<TracedMedium<MemMedium>>>>;

#[test]
fn traced_storage_and_medium_change_nothing() {
    let cfg = ProtocolConfig {
        order: 4,
        ..ProtocolConfig::default()
    };
    let opts = DurabilityOptions {
        checkpoint_every: 5,
        ..DurabilityOptions::default()
    };
    let rec = Recorder::new();
    rec.set_on(true);
    let mut plain: Plain = DurableServer::open(
        DurableStorage::open(MemMedium::new(), DurableOptions::default()),
        cfg,
        opts,
        StorageObs::disabled(),
    )
    .unwrap();
    let mut traced: Traced = DurableServer::open(
        TracedStorage::new(
            DurableStorage::open(
                TracedMedium::new(MemMedium::new(), Arc::clone(&rec)),
                DurableOptions::default(),
            ),
            Arc::clone(&rec),
        ),
        cfg,
        opts,
        StorageObs::disabled(),
    )
    .unwrap();
    for i in 0..23u64 {
        let op = match i % 3 {
            0 => Op::Put(u64_key(i % 7), vec![i as u8; 5]),
            1 => Op::Get(u64_key(i % 5)),
            _ => Op::Delete(u64_key(i % 4)),
        };
        let a = plain.handle_op_seq((i % 2) as u32, i, &op, i);
        let b = traced.handle_op_seq((i % 2) as u32, i, &op, i);
        assert_eq!(response_bytes(&a), response_bytes(&b));
        if i == 17 {
            plain.crash_restart();
            traced.crash_restart();
        }
    }
    assert_eq!(plain.core().root_digest(), traced.core().root_digest());
    let names: Vec<&str> = rec.take().iter().map(|s| s.name).collect();
    for seam in [
        "storage.commit",
        "storage.checkpoint",
        "storage.recover",
        "medium.append",
        "medium.sync",
        "medium.write_atomic",
        "medium.read",
        "medium.list",
    ] {
        assert!(names.contains(&seam), "no {seam} span");
    }
}
