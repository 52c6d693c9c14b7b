//! The traced run's span recorder and the pass-through timers it wraps
//! around the program's public seams: [`ServerApi`], [`Storage`] and
//! [`Medium`]. (The fourth seam, the `VerifiedDb` adapter, lives in
//! [`crate::rig::Session`].)
//!
//! Every wrapper forwards every trait method unchanged to the inner
//! implementation — including the defaulted ones (`read_snapshot`,
//! `recovered_journal`, `handle_op_batch`, `deposit_lag`, ...), since a
//! method that silently fell back to its default would change the program
//! under test. The only addition is a span around the call, recorded while
//! the recorder is switched on.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tcvs_core::{
    BatchResponse, Epoch, Op, PipelinedResponse, ReadSnapshot, ServerApi, ServerMetrics,
    ServerResponse, SignedCheckpoint, SignedEpochState, SignedState, UserId,
};
use tcvs_storage::{Medium, Recovered, Storage, StorageError, WriteBatch, NO_SEQ};

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Seam and method, e.g. `server.handle_op_seq`.
    pub name: &'static str,
    /// Recording thread (small dense ids).
    pub tid: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Operation id: the issuing user ...
    pub user: UserId,
    /// ... and that user's operation sequence number.
    pub seq: u64,
    /// Bytes the call moved, where the seam knows (0 otherwise).
    pub bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

thread_local! {
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Open spans on this thread: `(id, user, seq)`, innermost last.
    static OPEN: RefCell<Vec<(u64, UserId, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans in memory; they are written out once the run ends.
pub struct Recorder {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    next_tid: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder, initially switched off.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            next_tid: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off. Spans already open when recording
    /// stops are still recorded when they close.
    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag publishes no other data.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorder's time origin.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn tid(&self) -> u32 {
        TID.with(|t| {
            if t.get() == u32::MAX {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Opens a span. `id` names the operation; `None` inherits the
    /// enclosing span's operation on this thread.
    pub fn enter(&self, name: &'static str, id: Option<(UserId, u64)>) -> Enter<'_> {
        if !self.on.load(Ordering::Relaxed) {
            return Enter {
                rec: self,
                open: None,
                bytes: 0,
            };
        }
        let span_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, user, seq) = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let top = o.last().copied();
            let (user, seq) = id
                .or(top.map(|(_, u, s)| (u, s)))
                .unwrap_or((u32::MAX, NO_SEQ));
            o.push((span_id, user, seq));
            (top.map(|(p, _, _)| p), user, seq)
        });
        Enter {
            rec: self,
            open: Some(Span {
                id: span_id,
                parent,
                name,
                tid: self.tid(),
                start: self.now(),
                end: 0,
                user,
                seq,
                bytes: 0,
            }),
            bytes: 0,
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("recorder poisoned"))
    }
}

/// An open span; it is recorded when dropped.
pub struct Enter<'a> {
    rec: &'a Recorder,
    open: Option<Span>,
    /// Bytes to attribute to the span.
    pub bytes: u64,
}

impl Drop for Enter<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.open.take() {
            span.end = self.rec.now();
            span.bytes = self.bytes;
            OPEN.with(|o| o.borrow_mut().pop());
            // A poisoned lock means a panicking thread; drop the span rather
            // than panic inside `drop`.
            if let Ok(mut spans) = self.rec.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// [`ServerApi`] with a span around every method.
pub struct TracedServer {
    inner: Box<dyn ServerApi + Send>,
    rec: Arc<Recorder>,
}

impl TracedServer {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ServerApi + Send>, rec: Arc<Recorder>) -> TracedServer {
        TracedServer { inner, rec }
    }
}

impl ServerApi for TracedServer {
    fn handle_op(&mut self, user: UserId, op: &Op, round: u64) -> ServerResponse {
        let mut g = self.rec.enter("server.handle_op", Some((user, NO_SEQ)));
        let resp = self.inner.handle_op(user, op, round);
        g.bytes = resp.encoded_size() as u64;
        resp
    }

    fn handle_op_seq(&mut self, user: UserId, seq: u64, op: &Op, round: u64) -> ServerResponse {
        let mut g = self.rec.enter("server.handle_op_seq", Some((user, seq)));
        let resp = self.inner.handle_op_seq(user, seq, op, round);
        g.bytes = resp.encoded_size() as u64;
        resp
    }

    fn handle_op_batch(
        &mut self,
        user: UserId,
        seq: u64,
        ops: &[Op],
        round: u64,
    ) -> Option<BatchResponse> {
        let mut g = self.rec.enter("server.handle_op_batch", Some((user, seq)));
        let resp = self.inner.handle_op_batch(user, seq, ops, round);
        g.bytes = resp.as_ref().map_or(0, |r| r.encoded_size() as u64);
        resp
    }

    fn handle_op_pipelined(
        &mut self,
        user: UserId,
        seq: u64,
        op: &Op,
        round: u64,
        depth: usize,
    ) -> Option<PipelinedResponse> {
        let _g = self
            .rec
            .enter("server.handle_op_pipelined", Some((user, seq)));
        self.inner.handle_op_pipelined(user, seq, op, round, depth)
    }

    fn deposit_lag(&self) -> u64 {
        let _g = self.rec.enter("server.deposit_lag", None);
        self.inner.deposit_lag()
    }

    fn deposit_signature(&mut self, user: UserId, s: SignedState) {
        let _g = self
            .rec
            .enter("server.deposit_signature", Some((user, NO_SEQ)));
        self.inner.deposit_signature(user, s)
    }

    fn deposit_epoch_state(&mut self, s: SignedEpochState) {
        let _g = self.rec.enter("server.deposit_epoch_state", None);
        self.inner.deposit_epoch_state(s)
    }

    fn fetch_epoch_states(&mut self, requester: UserId, epoch: Epoch) -> Vec<SignedEpochState> {
        let _g = self
            .rec
            .enter("server.fetch_epoch_states", Some((requester, NO_SEQ)));
        self.inner.fetch_epoch_states(requester, epoch)
    }

    fn deposit_checkpoint(&mut self, c: SignedCheckpoint) {
        let _g = self.rec.enter("server.deposit_checkpoint", None);
        self.inner.deposit_checkpoint(c)
    }

    fn fetch_checkpoint(&mut self, requester: UserId, epoch: Epoch) -> Option<SignedCheckpoint> {
        let _g = self
            .rec
            .enter("server.fetch_checkpoint", Some((requester, NO_SEQ)));
        self.inner.fetch_checkpoint(requester, epoch)
    }

    fn metrics(&self) -> ServerMetrics {
        let _g = self.rec.enter("server.metrics", None);
        self.inner.metrics()
    }

    fn crash_restart(&mut self) {
        let _g = self.rec.enter("server.crash_restart", None);
        self.inner.crash_restart()
    }

    fn read_snapshot(&self) -> Option<ReadSnapshot> {
        let _g = self.rec.enter("server.read_snapshot", None);
        self.inner.read_snapshot()
    }

    fn recovered_journal(&self) -> Option<Vec<(UserId, u64, ServerResponse)>> {
        let _g = self.rec.enter("server.recovered_journal", None);
        self.inner.recovered_journal()
    }
}

/// [`Storage`] with a span around every method.
pub struct TracedStorage<S: Storage> {
    inner: S,
    rec: Arc<Recorder>,
}

impl<S: Storage> TracedStorage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, rec: Arc<Recorder>) -> TracedStorage<S> {
        TracedStorage { inner, rec }
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn commit(&mut self, batch: WriteBatch) -> Result<u64, StorageError> {
        let mut g = self.rec.enter("storage.commit", None);
        g.bytes = batch.len() as u64;
        self.inner.commit(batch)
    }

    fn checkpoint(&mut self, state: &[u8]) -> Result<u64, StorageError> {
        let mut g = self.rec.enter("storage.checkpoint", None);
        g.bytes = state.len() as u64;
        self.inner.checkpoint(state)
    }

    fn recover(&mut self) -> Result<Recovered, StorageError> {
        let _g = self.rec.enter("storage.recover", None);
        self.inner.recover()
    }

    fn salvage(&mut self) -> Result<Recovered, StorageError> {
        let _g = self.rec.enter("storage.salvage", None);
        self.inner.salvage()
    }

    fn next_lsn(&self) -> u64 {
        let _g = self.rec.enter("storage.next_lsn", None);
        self.inner.next_lsn()
    }
}

/// [`Medium`] with a span around every method.
pub struct TracedMedium<M: Medium> {
    inner: M,
    rec: Arc<Recorder>,
}

impl<M: Medium> TracedMedium<M> {
    /// Wraps `inner`.
    pub fn new(inner: M, rec: Arc<Recorder>) -> TracedMedium<M> {
        TracedMedium { inner, rec }
    }
}

impl<M: Medium> Medium for TracedMedium<M> {
    fn list(&self) -> Result<Vec<String>, StorageError> {
        let _g = self.rec.enter("medium.list", None);
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let _g = self.rec.enter("medium.read", None);
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut g = self.rec.enter("medium.append", None);
        g.bytes = data.len() as u64;
        self.inner.append(name, data)
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let _g = self.rec.enter("medium.sync", None);
        self.inner.sync(name)
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut g = self.rec.enter("medium.write_atomic", None);
        g.bytes = data.len() as u64;
        self.inner.write_atomic(name, data)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        let _g = self.rec.enter("medium.remove", None);
        self.inner.remove(name)
    }
}

/// Renders spans as Chrome trace-event JSON, which Perfetto opens.
/// Timestamps are microseconds since the recorder's epoch.
pub fn render_trace(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in &tids {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"thread {tid}\"}}}},"
        );
    }
    for (i, s) in spans.iter().enumerate() {
        // Absent ids render as null rather than as their sentinel values.
        let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let parent = or_null(s.parent);
        let user = or_null((s.user != u32::MAX).then_some(u64::from(s.user)));
        let seq = or_null((s.seq != NO_SEQ).then_some(s.seq));
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"user\":{},\"seq\":{},\"bytes\":{}}}}}",
            s.name,
            s.tid,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.id,
            parent,
            user,
            seq,
            s.bytes
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}
