//! The deployment under test and the closed-loop users that drive it.
//!
//! One run: generate the seeded inputs, set up (MSS keygen, a `NetServer`
//! over a `DurableServer` over `DurableStorage<FileMedium>` in a fresh
//! directory, repository load), let two closed-loop users replay their
//! plans for the measured window, then check the run: sync-up over every
//! user's share, and a reopen of the storage directory in which every
//! acknowledged commit must appear in its file's log.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcvs_core::{KeyRegistry, Keyring, Op, OpResult, ProtocolConfig, ServerApi, SyncShare, UserId};
use tcvs_cvs::{file_key, Cvs, CvsError, VerifiedDb};
use tcvs_merkle::{MerkleTree, DEFAULT_ORDER};
use tcvs_net::{NetClient1, NetClient2, NetError, NetServer, NetServerOptions};
use tcvs_storage::{
    DurabilityOptions, DurableOptions, DurableServer, DurableStorage, FileMedium, StorageObs,
};
use tcvs_store::FileHistory;

use crate::layers::{Recorder, TracedMedium, TracedServer, TracedStorage};
use crate::workload::{Action, Inputs, Preload, Protocol, WorkloadSpec};

/// Closed-loop user threads: one per core of the machine the benchmark is
/// sized for.
pub const USERS: usize = 2;

/// The user id that loads the repository during setup. It joins the final
/// sync-up like any other user.
const LOADER: UserId = USERS as UserId;

/// The protocol configuration of every run: default Merkle order, and no
/// sync-up until the end of the run.
pub fn protocol_config() -> ProtocolConfig {
    ProtocolConfig {
        order: DEFAULT_ORDER,
        k: u64::MAX,
        epoch_len: 1 << 30,
    }
}

/// The server a run deploys behind the `NetServer`.
#[derive(Clone, Copy)]
pub enum Backend {
    /// `DurableServer` over `DurableStorage<FileMedium>` with default
    /// options. The only backend the benchmark reports.
    Durable,
    /// An in-memory server built by the function (the negative controls
    /// run adversaries through this). The recovery check is skipped.
    InMemory(fn(&ProtocolConfig) -> Box<dyn ServerApi + Send>),
}

/// The protocol client behind a session. Only three sessions exist per
/// run, so the size difference of the variants does not matter.
#[allow(clippy::large_enum_variant)]
enum Client {
    One(NetClient1),
    Two(NetClient2),
}

/// The benchmark's `VerifiedDb` adapter over a threaded protocol client.
/// In a traced run it records one `net` span per operation.
pub struct Session {
    client: Client,
    user: UserId,
    /// Operations issued; equals the client's own wire sequence number.
    seq: u64,
    trace: Option<Arc<Recorder>>,
    /// Value bytes moved through `execute`: put payloads plus read results.
    pub value_bytes: u64,
    /// Deviation alarms raised.
    pub alarms: u64,
}

impl Session {
    fn new(client: Client, user: UserId, trace: Option<Arc<Recorder>>) -> Session {
        Session {
            client,
            user,
            seq: 0,
            trace,
            value_bytes: 0,
            alarms: 0,
        }
    }

    fn sync_share(&self) -> SyncShare {
        match &self.client {
            Client::One(c) => c.sync_share(),
            Client::Two(c) => c.sync_share(),
        }
    }

    fn sync_succeeds(&self, shares: &[SyncShare]) -> bool {
        match &self.client {
            Client::One(c) => c.sync_succeeds(shares),
            Client::Two(c) => c.sync_succeeds(shares),
        }
    }
}

impl VerifiedDb for Session {
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        self.seq += 1;
        let span = self
            .trace
            .as_ref()
            .map(|r| r.enter("net", Some((self.user, self.seq))));
        let out = match &mut self.client {
            Client::One(c) => c.execute(op),
            Client::Two(c) => c.execute(op),
        };
        drop(span);
        if let Op::Put(_, v) = op {
            self.value_bytes += v.len() as u64;
        }
        if let Ok(OpResult::Value(Some(v))) = &out {
            self.value_bytes += v.len() as u64;
        }
        out.map_err(|e| match e {
            NetError::Deviation(d) => {
                self.alarms += 1;
                CvsError::Deviation(d)
            }
            other => CvsError::Network(other.to_string()),
        })
    }
}

/// A set-up deployment: the server thread and every user's session.
struct Deployment {
    server: NetServer,
    users: Vec<Session>,
    loader: Session,
    setup_s: f64,
    keygen_s: f64,
}

/// Smallest MSS height whose key covers `sigs` signatures.
fn height_for(sigs: u64) -> u32 {
    64 - sigs.saturating_sub(1).leading_zeros()
}

/// Derives every keyring, one thread per user.
fn derive_keys(spec: &WorkloadSpec, seed: u64) -> (Vec<Keyring>, KeyRegistry) {
    let mut setup_seed = [0u8; 32];
    setup_seed[..8].copy_from_slice(&seed.to_le_bytes());
    // The loader signs the initial state plus two operations per add.
    let loader_height = height_for(2 * spec.files as u64 + 1);
    let rings: Vec<Keyring> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..=LOADER)
            .map(|u| {
                let h = if u == LOADER {
                    loader_height
                } else {
                    spec.user_key_height
                };
                s.spawn(move || Keyring::derive(&setup_seed, u, h))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("keygen thread panicked"))
            .collect()
    });
    let mut registry = KeyRegistry::new();
    for r in &rings {
        registry.register(r.user, r.public_key());
    }
    (rings, registry)
}

/// Spawns the server: the chosen backend, wrapped in the seam timers when
/// tracing.
fn spawn_server(
    backend: Backend,
    dir: &Path,
    blocking: bool,
    trace: Option<&Arc<Recorder>>,
) -> Result<NetServer, String> {
    let config = protocol_config();
    let inner: Box<dyn ServerApi + Send> = match backend {
        Backend::InMemory(make) => make(&config),
        Backend::Durable => {
            let medium = FileMedium::open(dir).map_err(|e| e.to_string())?;
            match trace {
                None => Box::new(
                    DurableServer::open(
                        DurableStorage::open(medium, DurableOptions::default()),
                        config,
                        DurabilityOptions::default(),
                        StorageObs::disabled(),
                    )
                    .map_err(|e| e.to_string())?,
                ),
                Some(rec) => Box::new(
                    DurableServer::open(
                        TracedStorage::new(
                            DurableStorage::open(
                                TracedMedium::new(medium, Arc::clone(rec)),
                                DurableOptions::default(),
                            ),
                            Arc::clone(rec),
                        ),
                        config,
                        DurabilityOptions::default(),
                        StorageObs::disabled(),
                    )
                    .map_err(|e| e.to_string())?,
                ),
            }
        }
    };
    let inner = match trace {
        Some(rec) => Box::new(TracedServer::new(inner, Arc::clone(rec))),
        None => inner,
    };
    Ok(NetServer::spawn_with(
        inner,
        NetServerOptions {
            blocking_signatures: blocking,
            pipeline_depth: 0,
            ..NetServerOptions::default()
        },
    ))
}

/// Sets up one deployment in `dir` and loads the repository; the returned
/// `setup_s` covers keygen, server start and load.
fn deploy(
    spec: &WorkloadSpec,
    inputs: &Inputs,
    seed: u64,
    backend: Backend,
    dir: &Path,
    trace: Option<&Arc<Recorder>>,
) -> Result<Deployment, String> {
    let config = protocol_config();
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let started = Instant::now();
    let (rings, registry, keygen_s) = match spec.protocol {
        Protocol::One => {
            let (rings, registry) = derive_keys(spec, seed);
            (rings, registry, started.elapsed().as_secs_f64())
        }
        Protocol::Two => (Vec::new(), KeyRegistry::new(), 0.0),
    };
    let server = spawn_server(backend, dir, spec.protocol == Protocol::One, trace)?;
    let mut sessions: Vec<Session> = match spec.protocol {
        Protocol::One => rings
            .into_iter()
            .map(|ring| {
                let user = ring.user;
                let c = NetClient1::new(ring, registry.clone(), config, &server);
                Session::new(Client::One(c), user, trace.cloned())
            })
            .collect(),
        Protocol::Two => (0..=LOADER)
            .map(|u| {
                let c = NetClient2::new(u, &root0, config, &server);
                Session::new(Client::Two(c), u, trace.cloned())
            })
            .collect(),
    };
    let mut loader = sessions.pop().expect("loader session");
    if let Client::One(c) = &mut loader.client {
        c.deposit_initial(&root0).map_err(|e| e.to_string())?;
    }
    match &inputs.preload {
        Preload::Values(values) => {
            for (path, v) in inputs.paths.iter().zip(values) {
                loader
                    .execute(&Op::Put(file_key(path), v.clone()))
                    .map_err(|e| format!("load {path}: {e}"))?;
            }
        }
        Preload::Texts(texts) => {
            let mut cvs = Cvs::new(&mut loader, "loader");
            for (path, text) in inputs.paths.iter().zip(texts) {
                cvs.add(path, text, "import", crate::workload::LOADER_STAMP)
                    .map_err(|e| format!("load {path}: {e}"))?;
            }
        }
    }
    Ok(Deployment {
        server,
        users: sessions,
        loader,
        setup_s: started.elapsed().as_secs_f64(),
        keygen_s,
    })
}

/// What a command was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Cvs::checkout`.
    Checkout,
    /// `Cvs::commit`.
    Commit,
    /// `Cvs::log`.
    Log,
    /// `Cvs::update` after a conflicting commit.
    Update,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Checkout => "cvs.checkout",
            Kind::Commit => "cvs.commit",
            Kind::Log => "cvs.log",
            Kind::Update => "cvs.update",
        }
    }
}

/// One timed command.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Command.
    pub kind: Kind,
    /// Start, nanoseconds since the run's epoch.
    pub start: u64,
    /// End, nanoseconds since the run's epoch.
    pub end: u64,
    /// False when the command returned an error (a conflict is a normal
    /// outcome, not an error).
    pub ok: bool,
}

/// An acknowledged commit.
#[derive(Clone, Copy, Debug)]
pub struct Acked {
    /// Committing user.
    pub user: UserId,
    /// File index.
    pub file: u32,
    /// Revision the commit returned.
    pub rev: u32,
    /// Unique stamp recorded in the revision's metadata.
    pub stamp: u64,
    /// The commit command's start and end (run epoch, ns).
    pub start: u64,
    /// See `start`.
    pub end: u64,
}

/// What one user did during the run.
pub struct UserRun {
    /// Every command, in order.
    pub samples: Vec<Sample>,
    /// Every acknowledged commit.
    pub acked: Vec<Acked>,
    /// Commits answered with `Conflict`.
    pub conflicts: u64,
    /// Errors (the user stops at the first one).
    pub errors: Vec<String>,
    /// Value bytes moved through the session.
    pub value_bytes: u64,
    /// Operations issued.
    pub ops: u64,
    /// Deviation alarms raised.
    pub alarms: u64,
}

/// One user thread: its session and what it has done so far.
struct User<'a> {
    session: &'a mut Session,
    name: String,
    epoch: Instant,
    out: UserRun,
}

impl User<'_> {
    /// Runs one command through a fresh `Cvs` front end, timed from
    /// outside. Returns the result with the command's start and end.
    fn timed<T>(
        &mut self,
        kind: Kind,
        f: impl FnOnce(&mut Cvs<'_, Session>) -> Result<T, CvsError>,
    ) -> (Result<T, CvsError>, u64, u64) {
        let id = (self.session.user, self.session.seq + 1);
        let trace = self.session.trace.clone();
        let mut cvs = Cvs::new(&mut *self.session, &self.name);
        let t0 = Instant::now();
        let res = {
            let _span = trace.as_ref().map(|r| r.enter(kind.span_name(), Some(id)));
            f(&mut cvs)
        };
        let t1 = Instant::now();
        let ok = matches!(res, Ok(_) | Err(CvsError::Conflict { .. }));
        if let (false, Err(e)) = (ok, &res) {
            self.out.errors.push(format!("{kind:?}: {e}"));
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start, end) = (ns(t0), ns(t1));
        self.out.samples.push(Sample {
            kind,
            start,
            end,
            ok,
        });
        (res, start, end)
    }

    /// Performs one planned action; `false` once a command has failed and
    /// the user must stop.
    fn act(&mut self, action: &Action, paths: &[String], stamp: u64) -> bool {
        match action {
            Action::Checkout { file } => {
                let path = &paths[*file as usize];
                self.timed(Kind::Checkout, |cvs| cvs.checkout(path))
                    .0
                    .is_ok()
            }
            Action::Log { file } => {
                let path = &paths[*file as usize];
                self.timed(Kind::Log, |cvs| cvs.log(path)).0.is_ok()
            }
            Action::Edit { file, line, text } => {
                let path = &paths[*file as usize];
                let Ok(mut wf) = self.timed(Kind::Checkout, |cvs| cvs.checkout(path)).0 else {
                    return false;
                };
                let n = wf.lines.len();
                wf.lines[*line as usize % n] = text.clone();
                match self.timed(Kind::Commit, |cvs| cvs.commit(&wf, "edit", stamp)) {
                    (Ok(rev), start, end) => {
                        self.out.acked.push(Acked {
                            user: self.session.user,
                            file: *file,
                            rev,
                            stamp,
                            start,
                            end,
                        });
                        true
                    }
                    (Err(CvsError::Conflict { .. }), _, _) => {
                        self.out.conflicts += 1;
                        self.timed(Kind::Update, |cvs| cvs.update(&mut wf))
                            .0
                            .is_ok()
                    }
                    (Err(_), _, _) => false,
                }
            }
        }
    }
}

/// Replays `plan` as the session's user from `start` until `deadline`,
/// timing every command from outside. The user stops at its first error.
fn user_loop(
    session: &mut Session,
    plan: &[Action],
    paths: &[String],
    epoch: Instant,
    start: Instant,
    deadline: Instant,
) -> UserRun {
    let user = session.user;
    let mut u = User {
        name: format!("user{user}"),
        session,
        epoch,
        out: UserRun {
            samples: Vec::with_capacity(1 << 16),
            acked: Vec::new(),
            conflicts: 0,
            errors: Vec::new(),
            value_bytes: 0,
            ops: 0,
            alarms: 0,
        },
    };
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    for (n, action) in plan.iter().cycle().enumerate() {
        // Every commit stamp is unique across users and runs of the plan.
        let stamp = ((user as u64 + 1) << 40) | n as u64;
        if Instant::now() >= deadline || !u.act(action, paths, stamp) {
            break;
        }
    }
    u.out.value_bytes = u.session.value_bytes;
    u.out.ops = u.session.seq;
    u.out.alarms = u.session.alarms;
    u.out
}

/// Process-wide write counters from `/proc/self/io`:
/// `(write_bytes, wchar)`.
pub fn io_counters() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(0)
    };
    (field("write_bytes:"), field("wchar:"))
}

/// How one run is configured.
#[derive(Clone)]
pub struct RunConfig {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: f64,
    /// Traced run: seam timers installed, recording switched on for half
    /// of the window (see `TRACE_SLICES`).
    pub trace: bool,
    /// Scratch directory for the storage directories of this run.
    pub data_dir: PathBuf,
    /// Server behind the `NetServer`.
    pub backend: Backend,
}

/// Everything a run produced, for the report.
pub struct RunResult {
    /// Per-user records.
    pub users: Vec<UserRun>,
    /// Start and end of the measured window (run epoch, ns).
    pub window: (u64, u64),
    /// Traced slices of the window (run epoch, ns), empty if untraced.
    pub traced: Vec<(u64, u64)>,
    /// Untraced slices of a traced window.
    pub untraced: Vec<(u64, u64)>,
    /// Every set-up time measured, seconds.
    pub setup_s: Vec<f64>,
    /// Every keygen time measured, seconds (empty under Protocol II).
    pub keygen_s: Vec<f64>,
    /// Bytes written by the process during the window, and the counter
    /// they were read from.
    pub write_bytes: (u64, &'static str),
    /// Spans recorded during the traced slices.
    pub spans: Vec<crate::layers::Span>,
    /// Sync-up outcome over every user's share.
    pub sync_ok: bool,
    /// Acknowledged commits missing after recovery, each overlapping a
    /// concurrent commit of the same file by another user (the lost-update
    /// race).
    pub lost: Vec<Acked>,
    /// Hard correctness failures (anything but a conflict or a lost update).
    pub problems: Vec<String>,
}

/// Set-ups per run: at least this many (the first is the measured one);
/// `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 3;
/// Further set-ups are performed until their total time reaches this, so
/// that a set-up of milliseconds still gets a steady median.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Upper limit on set-ups per run.
const MAX_SETUPS: usize = 40;

/// Which slices of a traced run's window record spans. Untraced and traced
/// slices alternate in an ABBA pattern, so the per-layer numbers and the
/// tracing overhead come from the same evolving state and a linear drift
/// cancels out of the overhead.
const TRACE_SLICES: [bool; 8] = [false, true, true, false, false, true, true, false];

/// Removes a storage directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_dir(base: &Path, label: &str) -> Result<DirGuard, String> {
    let dir = base.join(format!("{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(DirGuard(dir))
}

/// Whether the missing acknowledged commit `c` is explained by the
/// lost-update race of `Cvs::commit` (a get of the head, then a put): both
/// users read head r−1 and put r, and the later put overwrote `c`. So the
/// overwriting commit is another user's commit of the same file,
/// acknowledged at the same revision, overlapping `c` in time, and logged
/// (`log`: stamp → revision of the recovered file) at that revision. Any
/// other loss is a durability failure.
fn lost_to_race(c: &Acked, acked: &[Acked], log: &HashMap<u64, u32>) -> bool {
    acked.iter().any(|d| {
        d.user != c.user
            && d.file == c.file
            && d.rev == c.rev
            && d.start < c.end
            && c.start < d.end
            && log.get(&d.stamp) == Some(&c.rev)
    })
}

/// Reopens the storage directory and checks every acknowledged commit.
/// Returns the lost updates; anything else missing is a problem.
fn check_recovery(
    dir: &Path,
    paths: &[String],
    acked: &[Acked],
    problems: &mut Vec<String>,
) -> Vec<Acked> {
    let reopened = FileMedium::open(dir)
        .map_err(|e| e.to_string())
        .and_then(|m| {
            DurableServer::open(
                DurableStorage::open(m, DurableOptions::default()),
                protocol_config(),
                DurabilityOptions::default(),
                StorageObs::disabled(),
            )
            .map_err(|e| e.to_string())
        });
    let server = match reopened {
        Ok(s) => s,
        Err(e) => {
            problems.push(format!("reopen failed: {e}"));
            return Vec::new();
        }
    };
    let mut logs: HashMap<u32, HashMap<u64, u32>> = HashMap::new();
    let mut lost = Vec::new();
    for c in acked {
        let log = logs.entry(c.file).or_insert_with(|| {
            let path = &paths[c.file as usize];
            match server.core().db().get(&file_key(path)) {
                Ok(Some(v)) => match FileHistory::from_bytes(v) {
                    Ok(h) => h.log().map(|(rev, m)| (m.stamp, rev)).collect(),
                    Err(e) => {
                        problems.push(format!("{path}: undecodable history: {e}"));
                        HashMap::new()
                    }
                },
                other => {
                    problems.push(format!("{path}: missing after recovery ({other:?})"));
                    HashMap::new()
                }
            }
        });
        match log.get(&c.stamp) {
            Some(&rev) if rev == c.rev => {}
            Some(&rev) => problems.push(format!(
                "{}: commit {:#x} acknowledged as r{} but logged as r{rev}",
                paths[c.file as usize], c.stamp, c.rev
            )),
            None => {
                if lost_to_race(c, acked, log) {
                    lost.push(*c);
                } else {
                    problems.push(format!(
                        "{}: commit {:#x} (r{}) lost with no concurrent commit",
                        paths[c.file as usize], c.stamp, c.rev
                    ));
                }
            }
        }
    }
    lost
}

/// Runs one workload: inputs, set-up, measured window, checks, and the
/// extra set-ups behind the `setup_s` median.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let spec = &cfg.spec;
    let inputs = Inputs::generate(spec, cfg.seed, USERS);
    let trace = cfg.trace.then(Recorder::new);
    let guard = fresh_dir(&cfg.data_dir, spec.name)?;
    let mut dep = deploy(
        spec,
        &inputs,
        cfg.seed,
        cfg.backend,
        &guard.0,
        trace.as_ref(),
    )?;
    let epoch = trace.as_ref().map_or_else(Instant::now, |r| r.epoch());
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;

    // Users start a tenth of the window before measurement does, so the
    // window sees warm threads and caches.
    let window = Duration::from_secs_f64(cfg.seconds);
    let begin = Instant::now() + Duration::from_millis(20);
    let start = begin + window / 10;
    let deadline = start + window;
    let slice = window / TRACE_SLICES.len() as u32;
    let mut io = ((0, 0), (0, 0));
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let users: Vec<UserRun> = std::thread::scope(|s| {
        let handles: Vec<_> = dep
            .users
            .iter_mut()
            .zip(&inputs.plans)
            .map(|(session, plan)| {
                let paths = &inputs.paths;
                s.spawn(move || user_loop(session, plan, paths, epoch, begin, deadline))
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        io.0 = io_counters();
        if let Some(rec) = &trace {
            for (i, &on) in TRACE_SLICES.iter().enumerate() {
                let a = start + slice * i as u32;
                std::thread::sleep(a.saturating_duration_since(Instant::now()));
                rec.set_on(on);
                let span = (ns(a), ns(a + slice));
                if on {
                    traced.push(span);
                } else {
                    untraced.push(span);
                }
            }
        }
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        if let Some(rec) = &trace {
            rec.set_on(false);
        }
        io.1 = io_counters();
        handles
            .into_iter()
            .map(|h| h.join().expect("user thread panicked"))
            .collect()
    });

    let mut problems: Vec<String> = users.iter().flat_map(|u| u.errors.clone()).collect();
    let mut shares: Vec<SyncShare> = dep.users.iter().map(Session::sync_share).collect();
    shares.push(dep.loader.sync_share());
    let sync_ok = dep
        .users
        .iter()
        .chain(std::iter::once(&dep.loader))
        .any(|s| s.sync_succeeds(&shares));
    if !sync_ok {
        problems.push("sync-up failed".to_string());
    }
    let spans = trace.as_ref().map(|r| r.take()).unwrap_or_default();
    let mut setup_s = vec![dep.setup_s];
    let mut keygen_s = vec![dep.keygen_s];
    dep.server.shutdown();

    let acked: Vec<Acked> = users.iter().flat_map(|u| u.acked.iter().copied()).collect();
    let lost = match cfg.backend {
        Backend::Durable => check_recovery(&guard.0, &inputs.paths, &acked, &mut problems),
        Backend::InMemory(_) => Vec::new(),
    };
    drop(guard);

    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64() && setup_s.len() < MAX_SETUPS)
    {
        let label = format!("{}-setup{}", spec.name, setup_s.len());
        let guard = fresh_dir(&cfg.data_dir, &label)?;
        let extra = deploy(spec, &inputs, cfg.seed, cfg.backend, &guard.0, None)?;
        setup_s.push(extra.setup_s);
        keygen_s.push(extra.keygen_s);
        extra.server.shutdown();
    }
    if spec.protocol == Protocol::Two {
        keygen_s.clear();
    }

    let (wb, wc) = ((io.1).0 - (io.0).0, (io.1).1 - (io.0).1);
    Ok(RunResult {
        users,
        window: (ns(start), ns(deadline)),
        traced,
        untraced,
        setup_s,
        keygen_s,
        // Storage write volume where the kernel accounts it; on file
        // systems without block-level accounting, bytes passed to write().
        write_bytes: if wb > 0 {
            (wb, "write_bytes")
        } else {
            (wc, "wchar")
        },
        spans,
        sync_ok,
        lost,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acked(user: UserId, file: u32, rev: u32, stamp: u64, start: u64, end: u64) -> Acked {
        Acked {
            user,
            file,
            rev,
            stamp,
            start,
            end,
        }
    }

    #[test]
    fn only_the_race_explains_a_lost_commit() {
        // `c` (user 0, r5 of file 3) is missing from the recovered log.
        let c = acked(0, 3, 5, 0xc, 100, 200);
        let log: HashMap<u64, u32> = [(0xd, 5), (0xe, 6), (0xf, 4)].into_iter().collect();
        // The race: user 1 committed r5 of the same file, overlapping, and
        // that commit is what the log holds at r5.
        let d = acked(1, 3, 5, 0xd, 150, 250);
        assert!(lost_to_race(&c, &[c, d], &log));

        // Each of these overlaps `c` but cannot have overwritten it.
        let misses = [
            ("same user", acked(0, 3, 5, 0xd, 150, 250)),
            ("other file", acked(1, 4, 5, 0xd, 150, 250)),
            ("later revision", acked(1, 3, 6, 0xe, 150, 250)),
            ("earlier revision", acked(1, 3, 4, 0xf, 50, 150)),
            ("no overlap", acked(1, 3, 5, 0xd, 200, 300)),
            ("not logged", acked(1, 3, 5, 0xa, 150, 250)),
        ];
        for (why, d) in misses {
            assert!(!lost_to_race(&c, &[c, d], &log), "{why}");
        }
        let moved: HashMap<u64, u32> = [(0xd, 6)].into_iter().collect();
        assert!(
            !lost_to_race(&c, &[c, d], &moved),
            "logged at another revision"
        );
    }
}
