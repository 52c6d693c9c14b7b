//! The threaded server, as a machine plus a driver.
//!
//! `ServerMachine` owns a [`ServerApi`] implementation and all the
//! transport state around it: the reply journal, the snapshot publisher,
//! the bootstrap cache, the backlog held behind a wait, and the wait
//! itself. It never spawns a thread, receives from a channel, sleeps, or
//! reads the clock — time comes in as an argument, and replies go out over
//! each request's own one-shot sender. [`NetServer`] is the driver: one
//! thread that feeds the machine its backlog, then its queue, and blocks
//! only when both are empty, never past the machine's deadline.
//!
//! Protocol I's blocking step is *physically* reproduced: in blocking mode
//! the machine will not take the next operation until the previous
//! client's signature deposit has arrived — this is what experiment E6's
//! wall-clock throughput numbers measure. With pipelining
//! ([`NetServerOptions::pipeline_depth`]) the wait survives only as a
//! *catch-up* before any response whose signature must be current. Every
//! wait gives up [`NetServerOptions::deposit_timeout`] after it began (a
//! catch-up's deadline moves only when a deposit it waits for arrives) and
//! counts the miss in [`NetServer::missed_deposits`].
//!
//! Every operation carries a per-user sequence number; the machine keeps the
//! last reply per user in a *reply journal*, so a retry is answered from the
//! journal instead of re-executing — exactly-once semantics over an
//! at-least-once transport. The journal survives [`NetServer::crash_restart`]
//! along with whatever the inner [`ServerApi`] persists. Every op shape —
//! plain, batch window, pipelined, pipelined fallback — takes one
//! execute-journal-publish-reply path, live and during the shutdown drain
//! alike; the drain just starts no new waits.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use tcvs_core::{
    BatchResponse, Ctr, Digest, Epoch, Op, OpResult, PipelinedResponse, ReadSnapshot, ServerApi,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};
use tcvs_merkle::{ChunkSource, VerificationObject};
use tcvs_obs::{stage, Event, EventKind, SpanContext, NO_ACTOR};

use crate::error::{NetError, RetryPolicy};
use crate::obs::NetStats;

/// The header every operation-shaped request carries.
#[derive(Clone, Copy)]
pub(crate) struct OpHeader {
    pub(crate) user: UserId,
    /// Per-user sequence number; retries of the same operation reuse it.
    pub(crate) seq: u64,
    pub(crate) round: u64,
    /// Wire-propagated trace context: the client's root span for this
    /// logical operation. Every event the server (or an interposed fault
    /// link) emits while handling the request is a child of it.
    pub(crate) ctx: Option<SpanContext>,
}

/// A request to the server thread.
pub(crate) enum Request {
    Op {
        head: OpHeader,
        op: Op,
        reply: Sender<ServerResponse>,
    },
    /// A Protocol II window of operations verified as one exchange against
    /// one pre-state root. The server may decline (`None`) — e.g. the
    /// window mixes non-batchable structural ops, or the deployment does
    /// not implement batching — in which case the client falls back to
    /// per-operation execution with fresh sequence numbers.
    OpBatch {
        head: OpHeader,
        ops: Vec<Op>,
        reply: Sender<Option<BatchResponse>>,
    },
    /// A Protocol I operation the client is willing to verify against its
    /// own last *deposited* signature (its frontier) instead of a
    /// signature over the immediately preceding state — letting the server
    /// skip the blocking deposit wait when the pipeline is shallow enough.
    OpPipelined {
        head: OpHeader,
        op: Op,
        reply: Sender<PipelinedReply>,
    },
    Signature {
        user: UserId,
        signed: SignedState,
        /// Trace context of the operation this deposit settles.
        ctx: Option<SpanContext>,
    },
    EpochState(SignedEpochState),
    FetchEpochStates {
        user: UserId,
        epoch: Epoch,
        reply: Sender<Vec<SignedEpochState>>,
    },
    Checkpoint(SignedCheckpoint),
    FetchCheckpoint {
        user: UserId,
        epoch: Epoch,
        reply: Sender<Option<SignedCheckpoint>>,
    },
    /// Fetch the chunk manifest for the server's current snapshot: the
    /// serialized [`tcvs_merkle::ChunkManifest`] plus the counter the
    /// snapshot was current as of. `None` means the endpoint serves no
    /// bootstrap path (e.g. an adversary with no read snapshot).
    BootstrapManifest {
        reply: Sender<Option<(Vec<u8>, Ctr)>>,
    },
    /// Fetch one chunk of the snapshot identified by `anchor`. `None` means
    /// the server no longer holds that snapshot (the client refetches the
    /// manifest and resumes against the new anchor) or the index is out of
    /// range.
    BootstrapChunk {
        anchor: Digest,
        index: u32,
        reply: Sender<Option<Vec<u8>>>,
    },
    /// Crash the inner server and restart it from persisted state.
    Crash {
        ack: Sender<()>,
    },
    Shutdown,
}

impl Request {
    /// The header of an operation-shaped request — plain, batched window,
    /// or pipelined; `None` for deposits, fetches and control requests.
    pub(crate) fn op_header(&self) -> Option<OpHeader> {
        match self {
            Request::Op { head, .. }
            | Request::OpBatch { head, .. }
            | Request::OpPipelined { head, .. } => Some(*head),
            _ => None,
        }
    }
}

/// Reply to a pipelined Protocol I request: the anchored fast-path shape
/// when the server could serve without waiting, or an ordinary blocking-path
/// response (signature current as of the reply) when it fell back.
#[derive(Clone)]
pub(crate) enum PipelinedReply {
    Pipelined(PipelinedResponse),
    Legacy(ServerResponse),
}

impl PipelinedReply {
    /// The plain response inside either shape.
    fn plain(&self) -> &ServerResponse {
        match self {
            PipelinedReply::Pipelined(p) => &p.resp,
            PipelinedReply::Legacy(r) => r,
        }
    }
}

/// A read-only request for the concurrent snapshot read path. Carries no
/// user identity or sequence number: reads from a published snapshot are
/// idempotent, so retries need no journal.
pub(crate) struct ReadRequest {
    pub(crate) op: Op,
    /// Wire-propagated trace context for the reader's logical operation.
    pub(crate) ctx: Option<SpanContext>,
    pub(crate) reply: Sender<ReadResponse>,
}

/// Reply from the snapshot read path: the answer, its proof, and the
/// snapshot root/counter the proof is against.
pub(crate) struct ReadResponse {
    pub(crate) result: OpResult,
    pub(crate) vo: VerificationObject,
    /// Root digest of the snapshot the server claims this answer reflects.
    pub(crate) root: Digest,
    /// Counter the snapshot was current as of.
    pub(crate) ctr: Ctr,
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// An opaque handle onto a server thread's request channel. Only this
/// crate can look inside; clients obtain one through [`Endpoint`].
pub struct WireHandle(pub(crate) Sender<Request>);

/// An opaque handle onto a server's concurrent read path (if it has one).
/// Only this crate can look inside. It carries two ways in: the published
/// snapshot slot itself (proof-free reads executed on the caller's thread —
/// the shared-memory fast path the trusted baseline uses) and the channel
/// into the server's reader pool (proof-bearing reads for verifying
/// clients).
pub struct ReadWireHandle {
    pub(crate) slot: SnapshotSlot,
    pub(crate) tx: Sender<ReadRequest>,
}

/// Something clients can bind to: a [`NetServer`] directly, or a
/// [`crate::FaultLink`] interposed in front of one.
///
/// The trait is sealed — only this crate's types implement it — because its
/// wire format (the request channel) is an internal detail.
pub trait Endpoint: sealed::Sealed {
    /// The wire into this endpoint (crate-internal).
    #[doc(hidden)]
    fn wire(&self) -> WireHandle;

    /// The concurrent read wire, if this endpoint exposes one. The default
    /// is `None`: a [`crate::FaultLink`] deliberately inherits it, so faults
    /// exercise the serialized, detection-bearing path — the read path is a
    /// scalability side channel only honest deployments opt into.
    #[doc(hidden)]
    fn read_wire(&self) -> Option<ReadWireHandle> {
        None
    }
}

/// Tuning knobs and instrumentation for a server thread.
#[derive(Clone, Debug)]
pub struct NetServerOptions {
    /// Reproduce Protocol I's blocking signature deposit: after each
    /// operation the server waits for that client's deposit before serving
    /// the next request.
    pub blocking_signatures: bool,
    /// How long a deposit wait may last, counted from when it began, before
    /// the server gives up, records the miss, and moves on. Only progress
    /// on a pipelined catch-up (a deposit it waits for) restarts the count;
    /// no other traffic does. Bounds the Protocol I stall when a client dies
    /// (or its deposit is lost) mid-exchange.
    pub deposit_timeout: Duration,
    /// Number of reader threads serving point/range queries concurrently
    /// from the latest published snapshot (only spawned when the inner
    /// server opts in via [`ServerApi::read_snapshot`]). Clamped to ≥ 1.
    pub read_pool: usize,
    /// Maximum number of operations the server may run ahead of a user's
    /// last deposited signature before a pipelined request falls back to
    /// the blocking path. `0` (the default) disables pipelining entirely:
    /// pipelined requests are served exactly like blocking ones.
    ///
    /// With depth `d > 0` the server answers pipelined operations without
    /// waiting for the preceding deposit; the reply re-anchors the client
    /// at its own frontier, so detection stays k-bounded (the deposit lag
    /// adds at most `d` undetected operations on top of Theorem 4.1's
    /// bound — see DESIGN.md).
    pub pipeline_depth: usize,
    /// Republish the concurrent-read snapshot every this many committed
    /// operations (write batching of the slot swap). `1` (the default)
    /// preserves strict read-your-writes across the two paths; `W > 1`
    /// relaxes it to bounded staleness: a reader may miss at most the last
    /// `W - 1` acknowledged writes, and never misses any once the server
    /// goes idle or [`NetServerOptions::publish_interval`] elapses.
    pub publish_every_ops: u64,
    /// Time bound on snapshot staleness under a sustained write load:
    /// whenever this much time has passed since the last publication, the
    /// next committed operation republishes regardless of the write count.
    /// (Checked at operation boundaries — an idle server publishes any
    /// pending writes before blocking on its queue, so idle staleness is
    /// zero.)
    pub publish_interval: Duration,
    /// Byte budget per bootstrap chunk (whole leaves are grouped under it;
    /// a single oversized leaf still ships as one chunk). Governs the
    /// chunk-count / per-chunk-size trade-off the `bootstrap` bench suite
    /// sweeps.
    pub bootstrap_chunk_bytes: usize,
    /// Metrics and events the server thread and its reader pool feed
    /// (dark by default). Timestamps are taken and metrics recorded
    /// strictly outside the snapshot-slot critical section, so attaching
    /// stats does not lengthen the serialized region the concurrent readers
    /// contend on.
    pub stats: NetStats,
}

impl Default for NetServerOptions {
    fn default() -> NetServerOptions {
        NetServerOptions {
            blocking_signatures: false,
            deposit_timeout: Duration::from_secs(2),
            read_pool: 2,
            pipeline_depth: 0,
            publish_every_ops: 1,
            publish_interval: Duration::from_millis(1),
            bootstrap_chunk_bytes: 64 * 1024,
            stats: NetStats::disabled(),
        }
    }
}

/// The slot the write thread publishes fresh snapshots into and readers
/// load from. Swapping the inner `Arc` is O(1) and never torn: a reader
/// either sees the tree before an update or after it, never a mix.
pub(crate) type SnapshotSlot = Arc<Mutex<Arc<ReadSnapshot>>>;

/// What the journal remembers about a served request: the reply in the
/// shape it went out, with a plain op's response (or a durable server's
/// recovered one) kept as a legacy reply. Retries are answered in a
/// compatible shape — a plain retry of a pipelined op gets the embedded
/// plain response, a pipelined retry of a plain op gets the legacy reply.
/// Batch replies only answer batch retries.
enum JournaledReply {
    Op(PipelinedReply),
    Batch(BatchResponse),
}

/// The per-user reply journal: last `(seq, reply)` served to each user.
type ReplyJournal = HashMap<UserId, (u64, JournaledReply)>;

/// Write-batched publication of the concurrent-read snapshot. With the
/// default `publish_every_ops = 1` every committed operation republishes
/// before its reply is sent (strict read-your-writes, the pre-batching
/// behavior); with a wider window the slot swap and its lock traffic are
/// amortized over `W` writes, bounded in staleness by the window and by
/// `publish_interval`, and flushed whenever the server is about to go idle.
struct SnapshotPublisher {
    slot: Option<SnapshotSlot>,
    every_ops: u64,
    interval: Duration,
    /// Committed operations not yet reflected in the published snapshot.
    pending: u64,
    last: Instant,
    stats: NetStats,
}

impl SnapshotPublisher {
    /// A publisher for `inner`'s read snapshot. Adversaries keep the default
    /// `None` snapshot and get no slot: every answer they give stays on the
    /// serialized, countered path.
    fn new(inner: &dyn ServerApi, opts: &NetServerOptions, now: Instant) -> Self {
        SnapshotPublisher {
            slot: inner
                .read_snapshot()
                .map(|s| Arc::new(Mutex::new(Arc::new(s)))),
            every_ops: opts.publish_every_ops.max(1),
            interval: opts.publish_interval,
            pending: 0,
            last: now,
            stats: opts.stats.clone(),
        }
    }

    /// Accounts `ops` freshly committed operations and republishes if the
    /// write window is full or the time bound has elapsed by `now`.
    fn record(&mut self, inner: &mut dyn ServerApi, ops: u64, now: Instant) {
        if self.slot.is_none() {
            return;
        }
        self.pending += ops;
        if self.pending >= self.every_ops
            || now.saturating_duration_since(self.last) >= self.interval
        {
            self.force(inner, now);
        }
    }

    /// Republishes if any committed operation is still unpublished. Called
    /// before the server blocks idle on its queue, so snapshot staleness is
    /// bounded by the window only *while the server is busy*.
    fn flush(&mut self, inner: &mut dyn ServerApi, now: Instant) {
        if self.pending > 0 {
            self.force(inner, now);
        }
    }

    /// Unconditional republication (crash recovery must make the restored
    /// state visible even when nothing is pending).
    fn force(&mut self, inner: &mut dyn ServerApi, now: Instant) {
        let Some(slot) = &self.slot else { return };
        if let Some(snap) = inner.read_snapshot() {
            *slot.lock() = Arc::new(snap);
            self.stats.snapshot_publishes.inc();
            self.stats.snapshot_lag_ops.observe(self.pending);
            self.pending = 0;
            self.last = now;
        }
    }
}

/// What the machine waits for before it takes the next request off its
/// backlog. Every wait carries the instant it gives up at.
enum Wait {
    /// Not waiting: requests are served in arrival order.
    Idle,
    /// Protocol I: the last op is served, and `user`'s signature deposit
    /// for it is owed before any other op runs.
    Deposit { user: UserId, deadline: Instant },
    /// Pipelined mode: `held` (a plain op or a pipelined fallback) must
    /// carry a current signature, so it runs once no deposit is outstanding.
    CatchUp { held: Request, deadline: Instant },
}

/// The server as a state machine: the inner [`ServerApi`] plus everything
/// the transport keeps around it. A driver hands it one request (or one
/// passed deadline) at a time together with the current instant; the
/// machine answers over each request's own reply sender and tells the
/// driver when its current wait gives up ([`ServerMachine::deadline`]).
pub(crate) struct ServerMachine {
    inner: Box<dyn ServerApi + Send>,
    opts: NetServerOptions,
    journal: ReplyJournal,
    publisher: SnapshotPublisher,
    /// Lazily-built chunk source for the bootstrap path — the slicing of
    /// one snapshot, with the counter it was current as of. Kept across
    /// crash/restart and into the drain: serving a consistent *stale*
    /// snapshot is exactly what lets a client resume an interrupted
    /// bootstrap.
    bootstrap: Option<(ChunkSource, Ctr)>,
    /// Requests that arrived during a wait; served in arrival order once
    /// it ends.
    backlog: VecDeque<Request>,
    wait: Wait,
    /// A shutdown arrived: serve what is queued, start no new wait.
    draining: bool,
    /// Deposits given up on, shared with [`NetServer::missed_deposits`].
    missed: Arc<AtomicU64>,
}

impl ServerMachine {
    /// A machine over `inner`, started at `now`. A durable inner server may
    /// already hold recovered replies from a previous process; the journal
    /// starts from them, so a retry arriving over the wire hits them instead
    /// of re-executing.
    pub(crate) fn new(
        inner: Box<dyn ServerApi + Send>,
        opts: NetServerOptions,
        now: Instant,
    ) -> ServerMachine {
        let mut machine = ServerMachine {
            publisher: SnapshotPublisher::new(inner.as_ref(), &opts, now),
            inner,
            opts,
            journal: ReplyJournal::new(),
            bootstrap: None,
            backlog: VecDeque::new(),
            wait: Wait::Idle,
            draining: false,
            missed: Arc::new(AtomicU64::new(0)),
        };
        seed_journal(machine.inner.as_ref(), &mut machine.journal);
        machine
    }

    /// When the current wait gives up, if the machine is waiting.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        match &self.wait {
            Wait::Idle => None,
            Wait::Deposit { deadline, .. } | Wait::CatchUp { deadline, .. } => Some(*deadline),
        }
    }

    /// The oldest request held back by an earlier wait, once no wait holds
    /// the line any more.
    pub(crate) fn next_backlogged(&mut self) -> Option<Request> {
        match self.wait {
            Wait::Idle => self.backlog.pop_front(),
            _ => None,
        }
    }

    /// The driver is about to block (or to exit): make every acknowledged
    /// write visible to readers first, so batched publication never leaves
    /// a stale snapshot standing while nothing else is happening.
    pub(crate) fn idle(&mut self, now: Instant) {
        self.publisher.flush(self.inner.as_mut(), now);
    }

    /// Handles one request arriving at `now`. Returns whether an operation
    /// was executed.
    pub(crate) fn handle(&mut self, req: Request, now: Instant) -> bool {
        match self.wait {
            Wait::Idle => self.dispatch(req, now),
            // The request arrived during the wait; then a wait past its
            // deadline ends, however busy the queue keeps the driver.
            _ => self.while_waiting(req, now) | self.expire(now),
        }
    }

    /// Ends the current wait if its deadline has passed by `now`. The
    /// outstanding deposits are lost or their clients died: each one is
    /// counted as missed and the machine moves on rather than deadlock (a
    /// held catch-up op runs with the stale signature, which then surfaces
    /// at the client exactly as a blocking-mode miss would). Returns whether
    /// an operation was executed.
    pub(crate) fn expire(&mut self, now: Instant) -> bool {
        if self.deadline().is_none_or(|deadline| now < deadline) {
            return false;
        }
        match std::mem::replace(&mut self.wait, Wait::Idle) {
            Wait::Deposit { user, .. } => {
                self.miss(1, user, "timeout");
                false
            }
            Wait::CatchUp { held, .. } => {
                self.miss(self.inner.deposit_lag(), NO_ACTOR, "timeout");
                self.execute(held, now)
            }
            Wait::Idle => false,
        }
    }

    /// Serves a request while no wait holds the line.
    fn dispatch(&mut self, req: Request, now: Instant) -> bool {
        // A retry of an already-executed operation: serve the journaled
        // reply, never re-execute (and never re-enter a wait — the first
        // delivery already did).
        let Some(req) = self.answer_from_journal(req) else {
            return false;
        };
        let depth = self.opts.pipeline_depth;
        match req {
            Request::OpPipelined { head, ref op, .. } if depth > 0 => match self
                .inner
                .handle_op_pipelined(head.user, head.seq, op, head.round, depth)
            {
                Some(presp) => {
                    let entry = JournaledReply::Op(PipelinedReply::Pipelined(presp));
                    self.commit(req, entry, now)
                }
                None => {
                    self.opts.stats.pipeline_fallbacks.inc();
                    self.run_current(req, now)
                }
            },
            Request::Op { .. } | Request::OpPipelined { .. } => self.run_current(req, now),
            // No wait around batch windows: they are a Protocol II path,
            // whose deposits are asynchronous state tokens.
            Request::OpBatch { .. } => self.execute(req, now),
            other => {
                self.serve_other(other, now);
                false
            }
        }
    }

    /// Deposits, fetches, bootstrap reads and control requests: everything
    /// that is not an operation.
    fn serve_other(&mut self, req: Request, now: Instant) {
        match req {
            Request::Signature { user, signed, ctx } => self.deposit(user, signed, ctx),
            Request::EpochState(s) => self.inner.deposit_epoch_state(s),
            Request::FetchEpochStates { user, epoch, reply } => {
                let _ = reply.send(self.inner.fetch_epoch_states(user, epoch));
            }
            Request::Checkpoint(c) => self.inner.deposit_checkpoint(c),
            Request::FetchCheckpoint { user, epoch, reply } => {
                let _ = reply.send(self.inner.fetch_checkpoint(user, epoch));
            }
            Request::BootstrapManifest { reply } => {
                // Publish pending writes first so the manifest reflects
                // every acknowledged operation.
                self.publisher.flush(self.inner.as_mut(), now);
                let _ = reply.send(self.bootstrap_manifest());
            }
            Request::BootstrapChunk {
                anchor,
                index,
                reply,
            } => {
                let _ = reply.send(self.bootstrap_chunk(&anchor, index));
            }
            Request::Crash { ack } => self.crash(ack, now),
            Request::Shutdown => self.draining = true,
            Request::Op { .. } | Request::OpBatch { .. } | Request::OpPipelined { .. } => {
                unreachable!("operations are dispatched before this")
            }
        }
    }

    /// A request arriving during a wait. Awaited deposits, crashes and
    /// shutdowns act at once. Retries of already-served ops are answered
    /// from the journal in place (notably the blocked user's own, or those
    /// of the clients whose deposits a catch-up needs); everything else
    /// queues behind the wait — that latency is Protocol I's measured cost.
    fn while_waiting(&mut self, req: Request, now: Instant) -> bool {
        match req {
            Request::Signature { user, signed, ctx } if self.awaits(user) => {
                let lag = self.inner.deposit_lag();
                self.deposit(user, signed, ctx);
                let progressed = self.inner.deposit_lag() < lag;
                let timeout = self.opts.deposit_timeout;
                match &mut self.wait {
                    // A blocking wait is settled by its one deposit.
                    Wait::Deposit { .. } => self.wait = Wait::Idle,
                    // A catch-up that made progress gives the deposits it
                    // still needs a full timeout of their own.
                    Wait::CatchUp { deadline, .. } if progressed => *deadline = now + timeout,
                    _ => {}
                }
                self.resume(now)
            }
            Request::Crash { ack } => {
                self.crash(ack, now);
                // A crash wipes a blocking wait: the deposit it owed (if it
                // ever arrives) is absorbed like any other. A catch-up's
                // pipeline is abandoned with the volatile state, so the held
                // op runs against the restored server.
                if let Wait::Deposit { user, .. } = self.wait {
                    self.wait = Wait::Idle;
                    self.miss(1, user, "crash");
                }
                self.resume(now)
            }
            Request::Shutdown => {
                self.draining = true;
                self.resume(now)
            }
            other => {
                if let Some(req) = self.answer_from_journal(other) {
                    self.backlog.push_back(req);
                }
                false
            }
        }
    }

    /// Whether a deposit from `user` is one the current wait waits for: a
    /// blocking wait waits for its own user's, a catch-up for everyone's.
    fn awaits(&self, user: UserId) -> bool {
        match self.wait {
            Wait::Idle => false,
            Wait::Deposit { user: owed, .. } => owed == user,
            Wait::CatchUp { .. } => true,
        }
    }

    /// Ends a catch-up once no deposit is outstanding and runs the op it
    /// held; a drain ends any wait at once. Returns whether an operation
    /// was executed.
    fn resume(&mut self, now: Instant) -> bool {
        let done = self.draining
            || matches!(self.wait, Wait::CatchUp { .. }) && self.inner.deposit_lag() == 0;
        if !done {
            return false;
        }
        match std::mem::replace(&mut self.wait, Wait::Idle) {
            Wait::CatchUp { held, .. } => self.execute(held, now),
            _ => false,
        }
    }

    /// Serves an op whose reply must carry a *current* signature. In
    /// pipelined mode the deposit wait moves before the op: while deposits
    /// are outstanding the op is held in a catch-up instead of stalling
    /// after it.
    fn run_current(&mut self, req: Request, now: Instant) -> bool {
        if self.opts.pipeline_depth > 0 && !self.draining && self.inner.deposit_lag() > 0 {
            let deadline = now + self.opts.deposit_timeout;
            self.wait = Wait::CatchUp {
                held: req,
                deadline,
            };
            return false;
        }
        self.execute(req, now)
    }

    /// Executes a plain op, a batch window, or a pipelined request on the
    /// blocking path (which answers in the legacy shape). The sequence
    /// number rides down to the inner server so a durable backend can log
    /// it and recover its own copy of the reply journal.
    fn execute(&mut self, req: Request, now: Instant) -> bool {
        let OpHeader {
            user, seq, round, ..
        } = req.op_header().expect("only operations execute");
        let entry = match &req {
            Request::Op { op, .. } | Request::OpPipelined { op, .. } => JournaledReply::Op(
                PipelinedReply::Legacy(self.inner.handle_op_seq(user, seq, op, round)),
            ),
            Request::OpBatch { ops, reply, .. } => {
                match self.inner.handle_op_batch(user, seq, ops, round) {
                    Some(resp) => JournaledReply::Batch(resp),
                    // Declined: side-effect free by contract, so not journaled —
                    // a retry may legitimately decline again or (after a
                    // crash-restart) succeed.
                    None => {
                        self.opts.stats.batch_declined.inc();
                        let _ = reply.send(None);
                        return false;
                    }
                }
            }
            _ => unreachable!("only operations execute"),
        };
        self.commit(req, entry, now)
    }

    /// The path every executed op shares, live and draining alike: publish,
    /// reply, account, journal, and — in Protocol I blocking mode — start
    /// waiting for the op's signature deposit.
    fn commit(&mut self, req: Request, entry: JournaledReply, now: Instant) -> bool {
        let OpHeader {
            user,
            seq,
            round,
            ctx,
        } = req.op_header().expect("only operations commit");
        let stats = &self.opts.stats;
        let (ctr, n) = match &entry {
            JournaledReply::Op(PipelinedReply::Pipelined(p)) => {
                stats.pipelined_served.inc();
                stats.pipeline_backfill.observe(p.backfill.len() as u64);
                (p.resp.ctr, 1)
            }
            JournaledReply::Op(r) => (r.plain().ctr, 1),
            JournaledReply::Batch(b) => {
                stats.batch_windows.inc();
                stats.batch_ops.add(b.window_len() as u64);
                (b.ctr, b.window_len() as u64)
            }
        };
        let fallback = matches!(req, Request::OpPipelined { .. });
        let blocks = self.opts.blocking_signatures
            && self.opts.pipeline_depth == 0
            && !self.draining
            && !matches!(entry, JournaledReply::Batch(_));
        journal_insert(&mut self.journal, stats, user, seq, entry);
        let entry = &self.journal[&user].1;
        // Publish before replying: a client that sees its write acknowledged
        // must find it in the snapshot (read-your-writes across the two
        // paths, relaxed to a bounded window when `publish_every_ops > 1`).
        self.publisher.record(self.inner.as_mut(), n, now);
        send_reply(req, entry);
        stats.ops_served.add(n);
        stats.tracer.emit(|| {
            let shape = match entry {
                JournaledReply::Op(PipelinedReply::Pipelined(p)) => {
                    format!(" backfill={}", p.backfill.len())
                }
                JournaledReply::Op(_) if fallback => " fallback".to_string(),
                JournaledReply::Op(_) => String::new(),
                JournaledReply::Batch(_) => format!(" batch={n}"),
            };
            Event::new(ctr, EventKind::OpServed, user)
                .detail(format!("seq={seq} round={round}{shape}"))
                .span_opt(ctx.map(|c| c.child(stage::SERVER)))
        });
        if blocks {
            // Retries of this very op that queued behind the previous wait
            // are answered now, not after the one starting here.
            for _ in 0..self.backlog.len() {
                let req = self.backlog.pop_front().expect("counted");
                if let Some(req) = self.answer_from_journal(req) {
                    self.backlog.push_back(req);
                }
            }
            let deadline = now + self.opts.deposit_timeout;
            self.wait = Wait::Deposit { user, deadline };
        }
        true
    }

    /// Answers `req` from the reply journal when its `(user, seq)` matches
    /// the journaled entry and the reply shapes fit, emitting the
    /// journal-hit event. Returns the request back when it must be executed:
    /// any other pairing falls through to execution, where the per-user
    /// sequence check in the inner server still guards against double
    /// execution.
    fn answer_from_journal(&self, req: Request) -> Option<Request> {
        let Some(OpHeader { user, seq, ctx, .. }) = req.op_header() else {
            return Some(req);
        };
        match self.journal.get(&user) {
            Some((journaled, entry)) if *journaled == seq && fits(&req, entry) => {
                let stats = &self.opts.stats;
                stats.journal_hits.inc();
                stats.tracer.emit(|| {
                    Event::new(seq, EventKind::JournalHit, user)
                        .span_opt(ctx.map(|c| c.child(stage::JOURNAL)))
                });
                send_reply(req, entry);
                None
            }
            _ => Some(req),
        }
    }

    fn deposit(&mut self, user: UserId, signed: SignedState, ctx: Option<SpanContext>) {
        let ctr = signed.ctr;
        self.inner.deposit_signature(user, signed);
        self.opts.stats.tracer.emit(|| {
            Event::new(ctr, EventKind::Deposit, user).span_opt(ctx.map(|c| c.child(stage::DEPOSIT)))
        });
    }

    /// Crashes the inner server and restarts it from its persisted state.
    fn crash(&mut self, ack: Sender<()>, now: Instant) {
        let stats = &self.opts.stats;
        stats.crashes.inc();
        stats
            .tracer
            .emit(|| Event::new(0, EventKind::Crash, NO_ACTOR));
        // The reply journal is durable transport state: a durable inner
        // server recovers its own copy, which replaces ours; otherwise the
        // in-memory journal survives alongside whatever the inner server
        // keeps.
        self.inner.crash_restart();
        seed_journal(self.inner.as_ref(), &mut self.journal);
        // Readers must see the restored state, not a pre-crash root the
        // restarted server no longer has.
        self.publisher.force(self.inner.as_mut(), now);
        let _ = ack.send(());
        stats
            .tracer
            .emit(|| Event::new(0, EventKind::Restart, NO_ACTOR));
    }

    /// Serves the bootstrap manifest for the server's *current* snapshot,
    /// (re)slicing when the snapshot has moved since the cache was built.
    /// `None` when the inner server exposes no read snapshot (adversaries)
    /// or its snapshot cannot be sliced.
    fn bootstrap_manifest(&mut self) -> Option<(Vec<u8>, Ctr)> {
        let snap = self.inner.read_snapshot()?;
        let stale = self
            .bootstrap
            .as_ref()
            .is_none_or(|(src, _)| src.manifest().anchor != snap.root_digest());
        if stale {
            let src = ChunkSource::new(snap.db(), self.opts.bootstrap_chunk_bytes).ok()?;
            self.bootstrap = Some((src, snap.ctr()));
        }
        let (src, ctr) = self.bootstrap.as_ref()?;
        Some((src.manifest().to_bytes(), *ctr))
    }

    /// Serves one chunk of the snapshot identified by `anchor`. The cached
    /// slicing answers requests for *its* snapshot even after the live tree
    /// has moved on (that is what makes an in-flight bootstrap resumable); a
    /// request for any other anchor is answered only if the current snapshot
    /// matches, otherwise declined so the client refetches the manifest.
    fn bootstrap_chunk(&mut self, anchor: &Digest, index: u32) -> Option<Vec<u8>> {
        let cached = self
            .bootstrap
            .as_ref()
            .is_some_and(|(src, _)| src.manifest().anchor == *anchor);
        if !cached {
            let snap = self.inner.read_snapshot()?;
            if snap.root_digest() != *anchor {
                return None;
            }
            let src = ChunkSource::new(snap.db(), self.opts.bootstrap_chunk_bytes).ok()?;
            self.bootstrap = Some((src, snap.ctr()));
        }
        self.bootstrap.as_ref()?.0.chunk(index)
    }

    /// Records `n` deposits given up on while `user` (or, for a catch-up,
    /// nobody in particular) owed them.
    fn miss(&self, n: u64, user: UserId, why: &'static str) {
        self.missed.fetch_add(n, Ordering::Relaxed);
        self.opts.stats.missed_deposits.add(n);
        self.opts
            .stats
            .tracer
            .emit(|| Event::new(0, EventKind::MissedDeposit, user).detail(why));
    }
}

/// Whether a journaled reply can answer the op-shaped `req` (see
/// [`JournaledReply`] for the shape conversions).
fn fits(req: &Request, entry: &JournaledReply) -> bool {
    matches!(req, Request::OpBatch { .. }) == matches!(entry, JournaledReply::Batch(_))
}

/// Sends `entry` down `req`'s reply channel in the shape `req` asked for;
/// the caller has checked that it [`fits`]. The channel may be gone if the
/// client detected deviation and bailed; that's fine.
fn send_reply(req: Request, entry: &JournaledReply) {
    match (req, entry) {
        (Request::Op { reply, .. }, JournaledReply::Op(r)) => {
            let _ = reply.send(r.plain().clone());
        }
        (Request::OpPipelined { reply, .. }, JournaledReply::Op(r)) => {
            let _ = reply.send(r.clone());
        }
        (Request::OpBatch { reply, .. }, JournaledReply::Batch(b)) => {
            let _ = reply.send(Some(b.clone()));
        }
        _ => unreachable!("reply shapes are checked before sending"),
    }
}

/// Handle to a running server thread.
pub struct NetServer {
    tx: Sender<Request>,
    read: Option<(SnapshotSlot, Sender<ReadRequest>)>,
    join: Option<JoinHandle<()>>,
    missed: Arc<AtomicU64>,
}

impl sealed::Sealed for NetServer {}

impl Endpoint for NetServer {
    fn wire(&self) -> WireHandle {
        WireHandle(self.tx.clone())
    }

    fn read_wire(&self) -> Option<ReadWireHandle> {
        self.read.as_ref().map(|(slot, tx)| ReadWireHandle {
            slot: Arc::clone(slot),
            tx: tx.clone(),
        })
    }
}

impl NetServer {
    /// Spawns the server thread over any (honest or adversarial) server
    /// implementation, tuned and instrumented by `opts`. Reader threads are
    /// spawned only when the inner server exposes a read snapshot.
    pub fn spawn_with(inner: Box<dyn ServerApi + Send>, opts: NetServerOptions) -> NetServer {
        let (tx, rx) = unbounded();
        let read_pool = opts.read_pool.max(1);
        let machine = ServerMachine::new(inner, opts, Instant::now());
        let missed = Arc::clone(&machine.missed);
        let read = machine.publisher.slot.clone().map(|slot| {
            let (read_tx, read_rx) = unbounded();
            spawn_readers(&slot, read_rx, read_pool, machine.opts.stats.clone());
            (slot, read_tx)
        });
        let join = std::thread::spawn(move || drive(machine, rx));
        NetServer {
            tx,
            read,
            join: Some(join),
            missed,
        }
    }

    /// Signature deposits the blocking server gave up waiting for (always 0
    /// in non-blocking mode or on a fault-free network).
    pub fn missed_deposits(&self) -> u64 {
        self.missed.load(Ordering::Relaxed)
    }

    /// Crashes the inner server and restarts it from its persisted state,
    /// synchronously: when this returns `Ok`, the restart has completed.
    pub fn crash_restart(&self) -> Result<(), NetError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Request::Crash { ack: ack_tx })
            .map_err(|_| NetError::ServerGone)?;
        ack_rx.recv().map_err(|_| NetError::ServerGone)
    }

    /// Stops the server thread gracefully: backlogged and queued requests
    /// are served (from the journal or by execution), then the thread exits.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.tx.send(Request::Shutdown);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// The server thread: feeds the machine its backlog first, then its queue,
/// and blocks only when both are empty — never past the machine's deadline.
/// Operations the machine executes are timed here, where the clock is.
fn drive(mut machine: ServerMachine, rx: Receiver<Request>) {
    let stats = machine.opts.stats.clone();
    loop {
        let next = match machine.next_backlogged().map_or_else(|| rx.try_recv(), Ok) {
            Ok(req) => Ok(req),
            // A drain ends once the backlog and the queue have run dry.
            Err(_) if machine.draining => break,
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => {
                machine.idle(Instant::now());
                match machine.deadline() {
                    Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                }
            }
        };
        let now = Instant::now();
        let served = match next {
            Ok(req) => machine.handle(req, now),
            Err(RecvTimeoutError::Timeout) => machine.expire(now),
            // Every sender is gone: serve what is left, then stop.
            Err(RecvTimeoutError::Disconnected) => machine.handle(Request::Shutdown, now),
        };
        if served {
            stats.op_micros.observe(now.elapsed().as_micros() as u64);
        }
    }
    // Leave the final state visible to any reader that outlives the writer.
    machine.idle(Instant::now());
}

/// Spawns the reader pool: detached threads pulling read requests off a
/// shared queue and answering them from the latest published snapshot.
/// They exit when every read-wire sender is gone.
fn spawn_readers(
    slot: &SnapshotSlot,
    read_rx: Receiver<ReadRequest>,
    pool: usize,
    stats: NetStats,
) {
    let read_rx = Arc::new(Mutex::new(read_rx));
    for _ in 0..pool {
        let slot = Arc::clone(slot);
        let read_rx = Arc::clone(&read_rx);
        let stats = stats.clone();
        std::thread::spawn(move || loop {
            // Hold the queue lock only to dequeue; serving (prune + replay)
            // happens outside it, so readers overlap on multi-core hosts.
            let dequeued = {
                let guard = read_rx.lock();
                guard.recv()
            };
            let req = match dequeued {
                Ok(r) => r,
                Err(_) => return,
            };
            // The timestamp opens *after* the slot lock has been taken and
            // released (the clone is one refcount bump under the guard);
            // nothing below touches the slot again, so instrumentation adds
            // zero time to the critical section writers contend on.
            let snap = Arc::clone(&slot.lock());
            let started = Instant::now();
            match snap.serve(&req.op) {
                Some((result, vo)) => {
                    let ctr = snap.ctr();
                    let _ = req.reply.send(ReadResponse {
                        result,
                        vo,
                        root: snap.root_digest(),
                        ctr,
                    });
                    stats.reads_served.inc();
                    stats
                        .read_micros
                        .observe(started.elapsed().as_micros() as u64);
                    stats.tracer.emit(|| {
                        Event::new(ctr, EventKind::ReadServed, NO_ACTOR)
                            .span_opt(req.ctx.map(|c| c.child(stage::READ)))
                    });
                }
                // An update on the read wire is a client bug; dropping the
                // reply sender disconnects the waiter rather than serving a
                // state transition outside the serialized path.
                None => drop(req.reply),
            }
        });
    }
}

/// Installs `user`'s newest reply, evicting the entry below the freshly
/// acknowledged watermark. A new sequence number from a user is an implicit
/// ack of every older one (the client retries strictly in order), so the
/// journal stays bounded at one entry per user; each displaced entry is
/// counted so deployments can see the eviction rate.
fn journal_insert(
    journal: &mut ReplyJournal,
    stats: &NetStats,
    user: UserId,
    seq: u64,
    resp: JournaledReply,
) {
    if let Some((old_seq, _)) = journal.insert(user, (seq, resp)) {
        if old_seq < seq {
            stats.journal_evictions.inc();
        }
    }
}

/// Re-seeds the transport journal from whatever the inner server recovered
/// durably, so a retry of a pre-crash operation is still answered from the
/// journal instead of re-executing. An inner server with no durable journal
/// (`None`) keeps the machine's in-memory journal as before.
fn seed_journal(inner: &dyn ServerApi, journal: &mut ReplyJournal) {
    if let Some(entries) = inner.recovered_journal() {
        journal.clear();
        for (user, seq, resp) in entries {
            journal.insert(
                user,
                (seq, JournaledReply::Op(PipelinedReply::Legacy(resp))),
            );
        }
    }
}

/// One request → reply round trip with bounded retry, over any request
/// channel: `make` builds the request around each attempt's fresh one-shot
/// reply sender.
///
/// Each attempt waits [`RetryPolicy::attempt_timeout`] for its reply. A
/// failed *send* means the server thread (or the link to it) is gone — that
/// is terminal. A disconnected reply channel means the request was consumed
/// but no reply will come (a dropped request or reply in flight) — retry
/// immediately. A timeout backs off exponentially before the retry. Retries
/// of an operation reuse the same `seq`, so the server's reply journal
/// guarantees it executes at most once; reads and fetches are idempotent
/// and need no journal, so for them `seq` only seeds the backoff jitter.
/// Retries reuse the same trace context (the retry is a new span in the
/// *same* trace, not a new trace).
pub(crate) fn remote_call<R, T>(
    tx: &Sender<R>,
    user: UserId,
    seq: u64,
    ctx: Option<SpanContext>,
    policy: &RetryPolicy,
    stats: &NetStats,
    mut make: impl FnMut(Sender<T>) -> R,
) -> Result<T, NetError> {
    let attempts = policy.max_attempts.max(1);
    for attempt in 0..attempts {
        if attempt > 0 {
            stats.retries.inc();
            stats.tracer.emit(|| {
                Event::new(seq, EventKind::Retry, user)
                    .detail(format!("attempt={attempt}"))
                    .span_opt(ctx.map(|c| c.child(stage::RETRY)))
            });
        }
        let (reply_tx, reply_rx) = bounded(1);
        tx.send(make(reply_tx)).map_err(|_| NetError::ServerGone)?;
        match reply_rx.recv_timeout(policy.attempt_timeout(user, seq, attempt)) {
            Ok(resp) => return Ok(resp),
            // The request or its reply was lost in flight; retry at once.
            Err(RecvTimeoutError::Disconnected) => continue,
            // No verdict on this attempt; the backoff grows with `attempt`.
            Err(RecvTimeoutError::Timeout) => continue,
        }
    }
    Err(NetError::Timeout { attempts })
}

/// One remote operation over the wire; transport semantics are
/// [`remote_call`]'s.
pub(crate) fn remote_op(
    tx: &Sender<Request>,
    head: OpHeader,
    op: &Op,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<ServerResponse, NetError> {
    remote_call(tx, head.user, head.seq, head.ctx, policy, stats, |reply| {
        Request::Op {
            head,
            op: op.clone(),
            reply,
        }
    })
}

/// One batched Protocol II window over the wire; `Ok(None)` means the
/// server declined the window (side-effect free) and the caller should fall
/// back to per-op execution. Transport semantics are [`remote_call`]'s.
pub(crate) fn remote_batch(
    tx: &Sender<Request>,
    head: OpHeader,
    ops: &[Op],
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<Option<BatchResponse>, NetError> {
    remote_call(tx, head.user, head.seq, head.ctx, policy, stats, |reply| {
        Request::OpBatch {
            head,
            ops: ops.to_vec(),
            reply,
        }
    })
}

/// One pipelined Protocol I operation over the wire. The reply is either
/// the anchored pipelined shape or a blocking-path response the server fell
/// back to. Transport semantics are [`remote_call`]'s.
pub(crate) fn remote_pipelined(
    tx: &Sender<Request>,
    head: OpHeader,
    op: &Op,
    policy: &RetryPolicy,
    stats: &NetStats,
) -> Result<PipelinedReply, NetError> {
    remote_call(tx, head.user, head.seq, head.ctx, policy, stats, |reply| {
        Request::OpPipelined {
            head,
            op: op.clone(),
            reply,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcvs_core::ProtocolConfig;
    use tcvs_merkle::u64_key;
    use tcvs_storage::{
        response_bytes, DurabilityOptions, DurableOptions, DurableServer, DurableStorage,
        MemMedium, StorageObs,
    };

    fn open_durable(medium: MemMedium) -> DurableServer<DurableStorage<MemMedium>> {
        let config = ProtocolConfig {
            order: 4,
            k: 4,
            epoch_len: 64,
        };
        let store = DurableStorage::open(medium, DurableOptions::default());
        DurableServer::open(
            store,
            config,
            DurabilityOptions::default(),
            StorageObs::disabled(),
        )
        .expect("open durable server")
    }

    fn send_op(tx: &Sender<Request>, user: UserId, seq: u64, op: Op, round: u64) -> ServerResponse {
        let (reply_tx, reply_rx) = bounded(1);
        let head = OpHeader {
            user,
            seq,
            round,
            ctx: None,
        };
        tx.send(Request::Op {
            head,
            op,
            reply: reply_tx,
        })
        .expect("server thread alive");
        reply_rx.recv().expect("reply delivered")
    }

    /// The full durability wiring: operations flow through the transport to
    /// a durable inner server with their sequence numbers; when the whole
    /// transport (thread *and* its in-memory journal) is torn down and the
    /// medium loses its unsynced tail, a freshly spawned server over the
    /// recovered store still answers a retry of the last acknowledged
    /// operation from the journal — byte-identical, without re-executing —
    /// because `spawn` seeds the journal from `recovered_journal()`.
    #[test]
    fn recovered_journal_survives_transport_replacement() {
        let medium = MemMedium::new();
        let stats = NetStats::disabled();
        let server = NetServer::spawn_with(
            Box::new(open_durable(medium.clone())),
            NetServerOptions {
                stats: stats.clone(),
                ..NetServerOptions::default()
            },
        );
        let tx = server.wire().0;
        send_op(&tx, 7, 0, Op::Put(u64_key(1), b"a".to_vec()), 0);
        let acked = send_op(&tx, 7, 1, Op::Put(u64_key(2), b"b".to_vec()), 1);
        // Seq 1 displaced seq 0's journal entry: one eviction, counted.
        assert_eq!(
            stats.snapshot().counter("net.server.journal_evictions"),
            Some(1)
        );

        // Kill the transport (its thread-local journal dies with it) and the
        // page cache; only what the durable engine synced survives.
        drop(server);
        medium.crash();

        let stats2 = NetStats::disabled();
        let server2 = NetServer::spawn_with(
            Box::new(open_durable(medium)),
            NetServerOptions {
                stats: stats2.clone(),
                ..NetServerOptions::default()
            },
        );
        let tx2 = server2.wire().0;
        // A retry of the last acknowledged op: journal hit, not a re-run.
        let replay = send_op(&tx2, 7, 1, Op::Put(u64_key(2), b"b".to_vec()), 1);
        assert_eq!(response_bytes(&replay), response_bytes(&acked));
        let snap = stats2.snapshot();
        assert_eq!(snap.counter("net.server.journal_hits"), Some(1));
        assert_eq!(snap.counter("net.server.ops_served"), Some(0));

        // New work continues exactly where the acknowledged history ended.
        let next = send_op(&tx2, 7, 2, Op::Get(u64_key(2)), 2);
        assert_eq!(next.ctr, acked.ctr + 1);
    }

    /// An in-place crash (`Request::Crash`) over a durable inner server:
    /// the recovered journal replaces the transport's copy and retries
    /// still hit it.
    #[test]
    fn crash_restart_reseeds_the_journal_from_durable_state() {
        let medium = MemMedium::new();
        let stats = NetStats::disabled();
        let server = NetServer::spawn_with(
            Box::new(open_durable(medium)),
            NetServerOptions {
                stats: stats.clone(),
                ..NetServerOptions::default()
            },
        );
        let tx = server.wire().0;
        let acked = send_op(&tx, 3, 9, Op::Put(u64_key(5), b"x".to_vec()), 0);
        server.crash_restart().expect("restart");
        let replay = send_op(&tx, 3, 9, Op::Put(u64_key(5), b"x".to_vec()), 0);
        assert_eq!(response_bytes(&replay), response_bytes(&acked));
        assert_eq!(stats.snapshot().counter("net.server.journal_hits"), Some(1));
    }

    /// Thread-free tests of the machine itself: every instant is made up
    /// (an offset from one base), nothing sleeps, and replies are read with
    /// `try_recv` — whatever the machine has not answered by the time
    /// `handle` returns, it has not answered at all.
    mod machine {
        use super::*;
        use tcvs_core::{Client1, HonestServer};
        use tcvs_merkle::MerkleTree;

        const TIMEOUT: Duration = Duration::from_secs(2);

        fn config() -> ProtocolConfig {
            ProtocolConfig {
                order: 4,
                k: 4,
                epoch_len: 64,
            }
        }

        fn ms(n: u64) -> Duration {
            Duration::from_millis(n)
        }

        /// A machine over a fresh honest server, its stats, and the base
        /// instant every test offsets from.
        fn machine(opts: NetServerOptions) -> (ServerMachine, NetStats, Instant) {
            let stats = NetStats::disabled();
            let t0 = Instant::now();
            let opts = NetServerOptions {
                stats: stats.clone(),
                ..opts
            };
            let inner = Box::new(HonestServer::new(&config()));
            (ServerMachine::new(inner, opts, t0), stats, t0)
        }

        fn blocking() -> NetServerOptions {
            NetServerOptions {
                blocking_signatures: true,
                ..NetServerOptions::default()
            }
        }

        fn pipelining(depth: usize) -> NetServerOptions {
            NetServerOptions {
                pipeline_depth: depth,
                ..NetServerOptions::default()
            }
        }

        fn counter(stats: &NetStats, name: &str) -> u64 {
            stats.snapshot().counter(name).unwrap_or(0)
        }

        fn missed(m: &ServerMachine) -> u64 {
            m.missed.load(Ordering::Relaxed)
        }

        fn head(user: UserId, seq: u64) -> OpHeader {
            OpHeader {
                user,
                seq,
                round: seq,
                ctx: None,
            }
        }

        fn plain(user: UserId, seq: u64, op: Op) -> (Request, Receiver<ServerResponse>) {
            let (reply, rx) = bounded(1);
            let head = head(user, seq);
            (Request::Op { head, op, reply }, rx)
        }

        fn pipelined(user: UserId, seq: u64, op: Op) -> (Request, Receiver<PipelinedReply>) {
            let (reply, rx) = bounded(1);
            let head = head(user, seq);
            (Request::OpPipelined { head, op, reply }, rx)
        }

        fn deposit(user: UserId, signed: SignedState) -> Request {
            Request::Signature {
                user,
                signed,
                ctx: None,
            }
        }

        fn put(key: u64) -> Op {
            Op::Put(u64_key(key), vec![key as u8; 8])
        }

        /// User 0's Protocol I client, its initial signature deposited.
        fn signer(m: &mut ServerMachine, t0: Instant) -> Client1 {
            let (rings, registry) = tcvs_crypto::setup_users([0x5e; 32], 1, 4);
            let ring = rings.into_iter().next().expect("one keyring");
            let mut c = Client1::new(ring, registry, config());
            let root0 = MerkleTree::with_order(config().order).root_digest();
            let init = c.sign_initial(&root0).expect("fresh key");
            m.handle(deposit(0, init), t0);
            c
        }

        /// User 0 runs `n` pipelined ops ahead of its deposits; returns
        /// each op with the reply it verified against.
        fn run_ahead(m: &mut ServerMachine, t0: Instant, n: u64) -> Vec<(Op, PipelinedResponse)> {
            (1..=n)
                .map(|i| {
                    let (req, rx) = pipelined(0, i, put(i));
                    assert!(m.handle(req, t0));
                    match rx.try_recv() {
                        Ok(PipelinedReply::Pipelined(p)) => (put(i), p),
                        _ => panic!("op {i} served pipelined"),
                    }
                })
                .collect()
        }

        #[test]
        fn blocking_wait_ends_when_the_owed_deposit_arrives() {
            let (mut m, stats, t0) = machine(blocking());
            let mut c0 = signer(&mut m, t0);
            let (req, rx) = plain(0, 1, put(1));
            assert!(m.handle(req, t0));
            let resp = rx.try_recv().expect("served at once");
            assert_eq!(m.deadline(), Some(t0 + TIMEOUT));
            // Another user's op queues behind the block.
            let (req, rx1) = plain(1, 1, Op::Get(u64_key(1)));
            assert!(!m.handle(req, t0 + ms(10)));
            assert!(rx1.try_recv().is_err());
            assert!(m.next_backlogged().is_none(), "the wait holds the line");

            let (_, dep) = c0.handle_response(&put(1), &resp).expect("honest");
            assert!(!m.handle(deposit(0, dep), t0 + ms(20)));
            assert_eq!(m.deadline(), None);
            let req = m.next_backlogged().expect("released by the deposit");
            assert!(m.handle(req, t0 + ms(30)));
            rx1.try_recv().expect("served after the deposit");
            assert_eq!(
                m.deadline(),
                Some(t0 + ms(30) + TIMEOUT),
                "user 1 owes next"
            );
            assert_eq!(missed(&m), 0);
            assert_eq!(counter(&stats, "net.server.ops_served"), 2);
        }

        #[test]
        fn blocking_wait_gives_up_at_its_deadline_and_counts_the_miss_once() {
            let (mut m, stats, t0) = machine(blocking());
            let (req, _rx) = plain(0, 1, put(1));
            m.handle(req, t0);
            // Unrelated traffic never moves the deadline: another user's op,
            // its retry, a fetch, and another user's deposit all queue.
            let (req, first) = plain(1, 1, put(2));
            m.handle(req, t0 + ms(1500));
            let (req, retry) = plain(1, 1, put(2));
            m.handle(req, t0 + ms(1700));
            let (reply, _fetch) = bounded(1);
            let fetch = Request::FetchCheckpoint {
                user: 2,
                epoch: 0,
                reply,
            };
            m.handle(fetch, t0 + ms(1800));
            assert_eq!(m.deadline(), Some(t0 + TIMEOUT));
            assert!(!m.expire(t0 + ms(1999)));
            assert_eq!(missed(&m), 0);

            // A request arriving at the deadline queues behind the wait,
            // which then ends.
            let (req, _late) = plain(3, 1, put(4));
            assert!(!m.handle(req, t0 + TIMEOUT));
            assert_eq!(m.deadline(), None);
            assert!(!m.expire(t0 + ms(5000)));
            assert_eq!(missed(&m), 1);
            assert_eq!(counter(&stats, "net.server.missed_deposits"), 1);
            // The first copy of user 1's op executes from the backlog and
            // starts user 1's own wait; the retry queued behind it is
            // answered from the journal at once instead of after that wait.
            let req = m.next_backlogged().expect("backlog released");
            assert!(m.handle(req, t0 + ms(2001)));
            first.try_recv().expect("served in arrival order");
            retry.try_recv().expect("retry answered from the journal");
            assert_eq!(m.backlog.len(), 2, "the fetch and user 3's op wait");
            assert_eq!(counter(&stats, "net.server.journal_hits"), 1);
            assert_eq!(counter(&stats, "net.server.ops_served"), 2);
        }

        #[test]
        fn retry_is_answered_from_the_journal_while_blocked() {
            let (mut m, stats, t0) = machine(blocking());
            let (req, rx) = plain(0, 1, put(1));
            m.handle(req, t0);
            let first = rx.try_recv().expect("served");
            // The reply was lost; the blocked user's own retry arrives.
            let (req, rx) = plain(0, 1, put(1));
            assert!(!m.handle(req, t0 + ms(100)));
            let again = rx.try_recv().expect("answered in place");
            assert_eq!(again.ctr, first.ctr);
            assert_eq!(counter(&stats, "net.server.journal_hits"), 1);
            assert_eq!(counter(&stats, "net.server.ops_served"), 1);
            assert_eq!(m.deadline(), Some(t0 + TIMEOUT), "still blocked");
            assert!(m.backlog.is_empty());
        }

        #[test]
        fn crash_during_a_blocking_wait_counts_a_miss_and_unblocks() {
            let (mut m, stats, t0) = machine(blocking());
            let (req, _rx) = plain(0, 1, put(1));
            m.handle(req, t0);
            let (ack, acked) = bounded(1);
            assert!(!m.handle(Request::Crash { ack }, t0 + ms(100)));
            acked.try_recv().expect("restart acknowledged");
            assert_eq!(m.deadline(), None);
            assert_eq!(missed(&m), 1);
            assert_eq!(counter(&stats, "net.server.crashes"), 1);
            assert_eq!(counter(&stats, "net.server.missed_deposits"), 1);
        }

        #[test]
        fn crash_during_a_catch_up_runs_the_held_op_on_the_restored_state() {
            let (mut m, stats, t0) = machine(pipelining(2));
            signer(&mut m, t0);
            run_ahead(&mut m, t0, 1);
            // A plain op must carry a current signature: held.
            let (req, rx) = plain(1, 1, Op::Get(u64_key(1)));
            assert!(!m.handle(req, t0 + ms(10)));
            assert!(rx.try_recv().is_err());
            assert_eq!(m.deadline(), Some(t0 + ms(10) + TIMEOUT));

            let (ack, acked) = bounded(1);
            assert!(m.handle(Request::Crash { ack }, t0 + ms(20)));
            acked.try_recv().expect("restart acknowledged");
            let resp = rx.try_recv().expect("held op served after the restart");
            assert_eq!(resp.ctr, 1, "on the restored history");
            assert_eq!(m.deadline(), None);
            assert_eq!(missed(&m), 0);
            assert_eq!(counter(&stats, "net.server.crashes"), 1);
        }

        #[test]
        fn shutdown_during_a_blocking_wait_drains_without_new_waits() {
            let (mut m, stats, t0) = machine(blocking());
            let (req, _rx) = plain(0, 1, put(1));
            m.handle(req, t0);
            let (req, rx1) = plain(1, 1, put(2));
            m.handle(req, t0 + ms(10));
            let (req, rx2) = plain(2, 1, put(3));
            m.handle(req, t0 + ms(20));
            assert!(!m.handle(Request::Shutdown, t0 + ms(30)));
            assert!(m.draining);
            assert_eq!(m.deadline(), None);
            while let Some(req) = m.next_backlogged() {
                assert!(m.handle(req, t0 + ms(40)));
                assert_eq!(m.deadline(), None, "no wait starts while draining");
            }
            rx1.try_recv().expect("drained");
            rx2.try_recv().expect("drained");
            assert_eq!(missed(&m), 0);
            assert_eq!(counter(&stats, "net.server.ops_served"), 3);
        }

        #[test]
        fn shutdown_during_a_catch_up_serves_the_held_op_and_the_backlog() {
            let (mut m, stats, t0) = machine(pipelining(2));
            signer(&mut m, t0);
            run_ahead(&mut m, t0, 1);
            let (req, held) = plain(1, 1, Op::Get(u64_key(1)));
            m.handle(req, t0 + ms(10));
            let (req, queued) = plain(2, 1, Op::Get(u64_key(1)));
            m.handle(req, t0 + ms(20));
            assert!(queued.try_recv().is_err());

            assert!(m.handle(Request::Shutdown, t0 + ms(30)), "held op runs");
            held.try_recv().expect("held op served");
            let req = m.next_backlogged().expect("backlog released");
            assert!(m.handle(req, t0 + ms(40)));
            queued
                .try_recv()
                .expect("served despite the outstanding deposit");
            assert_eq!(m.deadline(), None);
            assert!(m.inner.deposit_lag() > 0, "nobody waited for the deposits");
            assert_eq!(counter(&stats, "net.server.ops_served"), 3);
        }

        #[test]
        fn pipelined_fallback_catches_up_then_serves() {
            let (mut m, stats, t0) = machine(pipelining(2));
            let mut c0 = signer(&mut m, t0);
            let ahead = run_ahead(&mut m, t0, 2);
            // User 1 has no anchor on file: its pipelined op falls back to
            // the blocking path and waits for both outstanding deposits.
            let (req, rx) = pipelined(1, 1, Op::Get(u64_key(1)));
            assert!(!m.handle(req, t0 + ms(10)));
            assert_eq!(counter(&stats, "net.server.pipeline_fallbacks"), 1);
            assert_eq!(m.deadline(), Some(t0 + ms(10) + TIMEOUT));

            // One deposit lands: progress earns the rest a fresh timeout...
            let deposits: Vec<SignedState> = ahead
                .iter()
                .map(|(op, p)| c0.handle_pipelined_response(op, p).expect("honest").1)
                .collect();
            let mut deposits = deposits.into_iter();
            m.handle(deposit(0, deposits.next().unwrap()), t0 + ms(1500));
            assert_eq!(m.deadline(), Some(t0 + ms(1500) + TIMEOUT));
            // ...while unrelated traffic queues and moves nothing.
            let (reply, fetched) = bounded(1);
            let fetch = Request::FetchCheckpoint {
                user: 2,
                epoch: 0,
                reply,
            };
            m.handle(fetch, t0 + ms(2500));
            assert_eq!(m.deadline(), Some(t0 + ms(1500) + TIMEOUT));
            assert!(rx.try_recv().is_err());

            // The last deposit ends the catch-up: the held op is served on
            // the blocking path, then the backlog.
            assert!(m.handle(deposit(0, deposits.next().unwrap()), t0 + ms(3000)));
            assert!(matches!(rx.try_recv(), Ok(PipelinedReply::Legacy(_))));
            assert_eq!(m.deadline(), None);
            let req = m.next_backlogged().expect("backlog released");
            m.handle(req, t0 + ms(3001));
            fetched.try_recv().expect("answered");
            assert_eq!(missed(&m), 0);
            assert_eq!(counter(&stats, "net.server.pipelined_served"), 2);
        }

        #[test]
        fn drain_serves_bootstrap_chunks_from_the_live_cache() {
            let opts = NetServerOptions {
                bootstrap_chunk_bytes: 256,
                ..NetServerOptions::default()
            };
            let (mut m, _stats, t0) = machine(opts);
            for i in 0..64 {
                let (req, _rx) = plain(0, i + 1, put(i));
                m.handle(req, t0);
            }
            let (reply, manifest) = bounded(1);
            m.handle(Request::BootstrapManifest { reply }, t0);
            let (bytes, _) = manifest.try_recv().unwrap().expect("honest server slices");
            let anchor = tcvs_merkle::ChunkManifest::from_bytes(&bytes)
                .expect("well-formed manifest")
                .anchor;
            let chunk = |m: &mut ServerMachine| {
                let (reply, rx) = bounded(1);
                m.handle(
                    Request::BootstrapChunk {
                        anchor,
                        index: 1,
                        reply,
                    },
                    t0,
                );
                rx.try_recv().expect("answered")
            };
            let live = chunk(&mut m).expect("a 256-byte budget yields several chunks");
            m.handle(Request::Shutdown, t0);
            assert_eq!(chunk(&mut m), Some(live), "same chunk, same budget");
        }
    }
}
