//! The serving engine: a fixed worker pool around the pure
//! [`Scheduler`], plus the in-process session API the deterministic
//! tests and the TCP layer both use.
//!
//! One mutex holds the scheduler and the ready queue, so every
//! transition the trace records really happened atomically in that
//! order. Workers block on a condvar, pop dispatch tickets, run the
//! engine under the admitted [`Guard`], stream result chunks through a
//! bounded per-job channel (blocking when the client is slow — that is
//! the backpressure), and report completion back to the scheduler,
//! which refunds the unspent grant and may hand back newly dispatchable
//! queued jobs.
//!
//! Isolation: each job runs under `catch_unwind`, so an engine panic is
//! confined to that job (SSD111 to its session) and the worker survives;
//! cancellation fires the job's token, which the guard polls at tick
//! boundaries — between chunks, mid-evaluation, and mid-fixpoint alike.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;

use semistructured::query::analyze::{analyze_datalog_cost, analyze_query_cost};
use semistructured::query::lang::{self, Binding, Construct, Source};
use semistructured::triples::datalog::{self, Program};
use semistructured::{CostContext, Database, SelectQuery};
use ssd_diag::{Code, Diagnostic};
use ssd_guard::{CostEnvelope, Exhausted, Guard, Interval};
use ssd_store::{Store, Txn};

use crate::clock::MonotonicClock;
use crate::metrics::{Counters, Metrics};
use crate::quota::SessionQuota;
use crate::sched::{
    Decision, Dequeued, FinishKind, JobId, JobKind, Scheduler, SessionId, Ticket, TraceEvent,
};

/// Submitting a job whose text contains this marker makes the worker
/// panic mid-job. Test-only: it is how the suite proves panic isolation
/// without a fault-injection build flag.
#[doc(hidden)]
pub const PANIC_PROBE: &str = "__ssd_panic_probe__";

/// A job as admission checked it: parsed once, refused there if any
/// engine would refuse it statically, and run by the worker as is. A
/// read carries the snapshot admission pinned and costed it against;
/// the worker runs it there, however many commits land in between.
enum Work {
    /// A `QUERY`, or an `RPE` as the select over its path.
    Select(Arc<Database>, SelectQuery),
    /// A `DATALOG` program, parsed against its snapshot's symbols.
    Datalog(Arc<Database>, Program),
    /// A `COMMIT`'s staged operations, each validated.
    Commit(Txn),
    /// A job carrying [`PANIC_PROBE`].
    PanicProbe,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bounded run-queue length; submissions beyond it are SSD201.
    pub queue_cap: usize,
    /// Result roots per streamed chunk.
    pub chunk_size: usize,
    /// Per-job event-channel buffer; 0 means fully synchronous
    /// (each chunk waits for the client — maximal backpressure).
    pub stream_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_cap: 16,
            chunk_size: 8,
            stream_buffer: 64,
        }
    }
}

/// What a job streams back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// One standalone literal chunk of the result.
    Chunk(String),
    /// The job finished; `summary` is a one-line account.
    Done { summary: String },
    /// The job ended without a (complete) result; the string is a
    /// rendered diagnostic headline (SSD1xx/SSD2xx).
    Failed(String),
}

/// Why a submit returned no job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control said no (SSD030/SSD2xx); zero engine fuel spent.
    Rejected(Diagnostic),
    /// The text does not parse, or the language's static check refuses
    /// it: the first error diagnostic of the check `ssd check` runs
    /// (SSD001–SSD005 for `QUERY` and `RPE`, SSD020–SSD022 for
    /// `DATALOG`), with its code. A `COMMIT` is invalid when a staged
    /// literal does not parse. Nothing was scheduled and nothing was
    /// counted.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(d) => f.write_str(&d.headline()),
            SubmitError::Invalid(m) => f.write_str(m),
        }
    }
}

/// A submitted job: consume [`JobHandle::events`] for streaming, or
/// [`JobHandle::wait`] to block for the collected outcome.
pub struct JobHandle {
    pub job: JobId,
    /// True when the job went to the run queue rather than a worker.
    pub queued: bool,
    rx: Receiver<JobEvent>,
}

/// Everything a finished job produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    pub chunks: Vec<String>,
    pub summary: Option<String>,
    /// Rendered diagnostic headline when the job did not complete.
    pub error: Option<String>,
}

impl JobHandle {
    /// Block until the job finishes, collecting all chunks.
    pub fn wait(self) -> JobOutcome {
        let mut out = JobOutcome {
            chunks: Vec::new(),
            summary: None,
            error: None,
        };
        for ev in self.rx.iter() {
            match ev {
                JobEvent::Chunk(c) => out.chunks.push(c),
                JobEvent::Done { summary } => {
                    out.summary = Some(summary);
                    break;
                }
                JobEvent::Failed(e) => {
                    out.error = Some(e);
                    break;
                }
            }
        }
        out
    }

    /// The raw event stream (ends with `Done` or `Failed`).
    pub fn events(self) -> Receiver<JobEvent> {
        self.rx
    }
}

struct State {
    sched: Scheduler,
    /// Dispatched jobs awaiting a worker, with their work and event sender.
    ready: VecDeque<(Ticket, Work, SyncSender<JobEvent>)>,
    /// Work and event senders of *queued* jobs, claimed at dispatch or
    /// rejection.
    senders: HashMap<JobId, (Work, SyncSender<JobEvent>)>,
    /// Set once shutdown has fully drained: workers exit.
    stop: bool,
}

/// What reads run on.
enum Data {
    /// One immutable database: the server is read-only (mutations are
    /// SSD403).
    Fixed(Arc<Database>),
    /// A durable store: each read pins its current generation at
    /// admission, and COMMIT jobs write through it.
    Store(Arc<Store>),
}

struct Inner {
    data: Data,
    cfg: ServeConfig,
    state: Mutex<State>,
    work: Condvar,
    /// Failure notices that could not be delivered without blocking go
    /// here; one shared notifier thread drains them (see
    /// [`notify_failed`]).
    notify: Sender<(SyncSender<JobEvent>, String)>,
}

/// The serving subsystem. See the module docs.
pub struct Server {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    shutdown_requested: AtomicBool,
}

impl Server {
    /// Start `cfg.workers` workers over `db` with a wall clock. The
    /// server is read-only: mutation verbs are rejected with SSD403.
    pub fn start(db: Arc<Database>, cfg: ServeConfig) -> Server {
        Server::start_full(Data::Fixed(db), cfg)
    }

    /// Start over a durable [`Store`]: each read is costed against and
    /// runs on the generation current at its admission, and `COMMIT`
    /// jobs write through the WAL.
    pub fn start_with_store(store: Arc<Store>, cfg: ServeConfig) -> Server {
        Server::start_full(Data::Store(store), cfg)
    }

    fn start_full(data: Data, cfg: ServeConfig) -> Server {
        let (notify, notices) = mpsc::channel::<(SyncSender<JobEvent>, String)>();
        // One notifier for the whole server: delivers the failure
        // notices that could not be sent without blocking. It exits when
        // the last `Inner` clone (and thus the sender) is dropped.
        std::thread::spawn(move || {
            for (tx, headline) in notices {
                let _ = tx.send(JobEvent::Failed(headline));
            }
        });
        let inner = Arc::new(Inner {
            data,
            cfg: cfg.clone(),
            state: Mutex::new(State {
                sched: Scheduler::new(cfg.workers, cfg.queue_cap, Arc::new(MonotonicClock::new())),
                ready: VecDeque::new(),
                senders: HashMap::new(),
                stop: false,
            }),
            work: Condvar::new(),
            notify,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(inner))
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
            shutdown_requested: AtomicBool::new(false),
        }
    }

    /// Does this server write through a durable store? When false,
    /// mutation verbs are rejected with SSD403 before admission.
    pub fn writable(&self) -> bool {
        matches!(self.inner.data, Data::Store(_))
    }

    /// The current store generation, when there is a store.
    pub fn generation(&self) -> Option<u64> {
        match &self.inner.data {
            Data::Store(store) => Some(store.generation()),
            Data::Fixed(_) => None,
        }
    }

    /// Open a session under `quota`.
    pub fn open_session(&self, quota: SessionQuota) -> SessionHandle {
        let mut st = self.inner.state.lock().expect("state lock");
        let id = st.sched.open_session(quota);
        SessionHandle {
            inner: Arc::clone(&self.inner),
            id,
            closed: AtomicBool::new(false),
        }
    }

    /// Ask for shutdown without blocking: new submissions are rejected
    /// (SSD203) at once; queued and running jobs keep draining. The TCP
    /// accept loop polls [`Server::shutdown_requested`].
    pub fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::SeqCst);
        let mut st = self.inner.state.lock().expect("state lock");
        st.sched.begin_shutdown();
        maybe_stop(&mut st);
        drop(st);
        self.inner.work.notify_all();
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting, drain the queue, join every
    /// worker, and return the final metrics snapshot.
    pub fn shutdown(&self) -> Metrics {
        self.request_shutdown();
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for w in workers {
            let _ = w.join();
        }
        self.metrics()
    }

    /// Global metrics snapshot.
    pub fn metrics(&self) -> Metrics {
        self.inner.state.lock().expect("state lock").sched.metrics()
    }

    /// The scheduler's decision trace so far.
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.inner
            .state
            .lock()
            .expect("state lock")
            .sched
            .trace()
            .to_vec()
    }

    /// The `STATS` block: global metrics (greppable `key value` lines
    /// followed by the same numbers in Prometheus text format), plus one
    /// session's counters, latency percentiles, and recent decision
    /// trace when `session` is given.
    pub fn stats_text(&self, session: Option<SessionId>) -> String {
        let st = self.inner.state.lock().expect("state lock");
        let metrics = st.sched.metrics();
        let mut out = metrics.render();
        if let Some(id) = session {
            if let Some(c) = st.sched.session_counters(id) {
                for (k, v) in [
                    ("session.admitted", c.admitted),
                    ("session.rejected", c.rejected),
                    ("session.queued", c.queued),
                    ("session.cancelled", c.cancelled),
                    ("session.completed", c.completed),
                    ("session.panicked", c.panicked),
                    ("session.fuel_spent", c.fuel_spent),
                    ("session.fuel_estimated", c.fuel_estimated),
                    ("session.fuel_refunded", c.fuel_refunded),
                    ("session.refund_clamped", c.refund_clamped),
                ] {
                    out.push_str(&format!("{k} {v}\n"));
                }
            }
            if let Some(lat) = st.sched.session_latency(id) {
                out.push_str(&format!("session.latency_p50_us {}\n", lat.percentile(50)));
                out.push_str(&format!("session.latency_p99_us {}\n", lat.percentile(99)));
            }
            if let Some(trace) = st.sched.session_trace(id) {
                for ev in &trace {
                    out.push_str(&format!("session.trace {ev:?}\n"));
                }
            }
        }
        out.push_str(&metrics.render_prometheus());
        out
    }
}

/// One session against a [`Server`]. Dropping the handle closes the
/// session — queued jobs are cancelled and running jobs' tokens fire
/// (the TCP layer relies on this for disconnect teardown).
pub struct SessionHandle {
    inner: Arc<Inner>,
    pub id: SessionId,
    closed: AtomicBool,
}

impl SessionHandle {
    /// Submit a job. Admission happens here: the text is parsed and
    /// checked once ([`SubmitError::Invalid`] when it does not parse or an
    /// engine would refuse it), costed, and scheduled;
    /// `Err(Rejected)` costs zero fuel.
    pub fn submit(&self, kind: JobKind, text: &str) -> Result<JobHandle, SubmitError> {
        let (work, envelope) = admit(&self.inner, kind, text).map_err(SubmitError::Invalid)?;
        let mut st = self.inner.state.lock().expect("state lock");
        match st.sched.submit(self.id, envelope) {
            Decision::Dispatch(ticket) => {
                let (tx, rx) = mpsc::sync_channel(self.inner.cfg.stream_buffer);
                let job = ticket.job;
                st.ready.push_back((ticket, work, tx));
                drop(st);
                self.inner.work.notify_all();
                Ok(JobHandle {
                    job,
                    queued: false,
                    rx,
                })
            }
            Decision::Queued { job, .. } => {
                let (tx, rx) = mpsc::sync_channel(self.inner.cfg.stream_buffer);
                st.senders.insert(job, (work, tx));
                Ok(JobHandle {
                    job,
                    queued: true,
                    rx,
                })
            }
            Decision::Rejected(d) => Err(SubmitError::Rejected(d)),
        }
    }

    /// Cancel one of *this session's* jobs: `Ok(false)` if it was still
    /// queued (already gone), `Ok(true)` if running (its token fired;
    /// the stream will end with an SSD105 failure). A job id belonging
    /// to another session is SSD204, exactly like an unknown id.
    pub fn cancel(&self, job: JobId) -> Result<bool, Diagnostic> {
        let mut st = self.inner.state.lock().expect("state lock");
        let was_running = st.sched.cancel(self.id, job)?;
        if !was_running {
            if let Some((_, tx)) = st.senders.remove(&job) {
                notify_failed(&self.inner, tx, Exhausted::Cancelled.headline());
            }
        }
        Ok(was_running)
    }

    /// This session's counters.
    pub fn counters(&self) -> Option<Counters> {
        self.inner
            .state
            .lock()
            .expect("state lock")
            .sched
            .session_counters(self.id)
    }

    /// Close the session: cancel everything it still has in flight.
    pub fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut st = self.inner.state.lock().expect("state lock");
        let dropped = st.sched.close_session(self.id);
        for job in dropped {
            if let Some((_, tx)) = st.senders.remove(&job) {
                notify_failed(&self.inner, tx, Exhausted::Cancelled.headline());
            }
        }
        maybe_stop(&mut st);
        drop(st);
        self.inner.work.notify_all();
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// Parse and check a job once, into the [`Work`] the worker runs and the
/// envelope admission schedules. A job is refused here when any engine
/// would refuse it statically. A read pins the current snapshot here and
/// is costed against that snapshot's [`Database::index_stats`] — the
/// generation it will run on, so the lower bounds admission compares
/// with the budget hold for the run even after commits.
fn admit(inner: &Inner, kind: JobKind, text: &str) -> Result<(Work, CostEnvelope), String> {
    if text.contains(PANIC_PROBE) {
        let envelope = CostEnvelope {
            cardinality: Interval::exact(1),
            fuel: Interval::exact(1),
            memory: Interval::exact(0),
        };
        return Ok((Work::PanicProbe, envelope));
    }
    match kind {
        JobKind::Query | JobKind::Rpe => {
            let query = if kind == JobKind::Rpe {
                lang::parse_rpe(text)
                    .map(select_over)
                    .and_then(|q| lang::check_query(&q, None).map(|()| q))
            } else {
                lang::parse_query(text)
            }
            .map_err(|e| e.to_string())?;
            let db = snapshot(inner);
            let ctx = CostContext::with_stats(db.index_stats());
            let envelope = analyze_query_cost(&query, None, &ctx).envelope;
            Ok((Work::Select(db, query), envelope))
        }
        JobKind::Datalog => {
            let db = snapshot(inner);
            let program = datalog::parse_program(text, db.graph().symbols())?;
            datalog::admit(&program).map_err(|e| e.to_string())?;
            let ctx = CostContext::with_stats(db.index_stats());
            let envelope = analyze_datalog_cost(&program, None, None, &ctx).envelope;
            Ok((Work::Datalog(db, program), envelope))
        }
        JobKind::Commit => {
            // Writes are costed from the transaction script itself: the
            // byte volume is known exactly up front, so the envelope is
            // exact and admission (quota, per-job ceiling, queue) treats
            // write budgets like any other job. Every op is validated
            // here — a bad literal is rejected before scheduling.
            let txn = Txn::parse_script(text)?;
            if txn.is_empty() {
                return Err("COMMIT with no staged operations".to_string());
            }
            for op in txn.ops() {
                match op {
                    ssd_store::Op::Insert(lit) => ssd_store::validate_insert(lit)
                        .map_err(|e| format!("INSERT literal does not parse: {e}"))?,
                    ssd_store::Op::Delete(label) => ssd_store::validate_delete(label)?,
                }
            }
            let (fuel, memory) = commit_cost(&txn);
            let envelope = CostEnvelope {
                cardinality: Interval::exact(txn.len() as u64),
                fuel: Interval::exact(fuel),
                memory: Interval::exact(memory),
            };
            Ok((Work::Commit(txn), envelope))
        }
    }
}

/// The snapshot a read admitted now runs on: a single `Arc` clone, so
/// readers never block writers or vice versa, and commits that land
/// while the job waits or streams cannot change what it reads.
fn snapshot(inner: &Inner) -> Arc<Database> {
    match &inner.data {
        Data::Store(store) => store.snapshot(),
        Data::Fixed(db) => Arc::clone(db),
    }
}

/// `select X from db.<path> X`: what an `RPE` job runs.
fn select_over(path: semistructured::Rpe) -> SelectQuery {
    SelectQuery {
        construct: Construct::Var("X".to_string()),
        bindings: vec![Binding {
            source: Source::Db,
            path,
            var: "X".to_string(),
        }],
        condition: None,
    }
}

/// The write cost model, shared by the estimator and the worker so the
/// charge always equals the (exact) envelope: one step per op plus one
/// per body byte of fuel; the body bytes again as memory.
fn commit_cost(txn: &Txn) -> (u64, u64) {
    let bytes = txn.body_bytes();
    (1 + txn.len() as u64 + bytes, bytes)
}

/// Deliver a failure notice without blocking the caller: these fire
/// from under the state lock (cancel, close, late-reject), where a
/// rendezvous `send` to a client that is not currently reading — or
/// that *is* the calling thread — would deadlock. The fast path is a
/// `try_send` (the stream buffer almost always has room); a full or
/// rendezvous channel falls back to the server's single notifier
/// thread, so an in-process caller holding unconsumed handles delays
/// later notices at worst — it never accumulates blocked threads.
fn notify_failed(inner: &Inner, tx: SyncSender<JobEvent>, headline: String) {
    match tx.try_send(JobEvent::Failed(headline)) {
        Ok(()) | Err(TrySendError::Disconnected(_)) => {}
        Err(TrySendError::Full(ev)) => {
            let JobEvent::Failed(headline) = ev else {
                unreachable!("notify_failed sends Failed events only");
            };
            // lint: allow(lock) — std mpsc send on an unbounded channel only enqueues; it cannot block the callers that hold `state`
            let _ = inner.notify.send((tx, headline));
        }
    }
}

/// When shutdown has been requested and nothing is queued, running, or
/// ready, tell the workers to exit.
fn maybe_stop(st: &mut State) {
    if st.sched.is_shutting_down() && st.sched.drained() && st.ready.is_empty() {
        st.stop = true;
    }
}

thread_local! {
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Suppress the default "thread panicked" stderr noise for panics we
/// catch inside jobs, without hiding panics anywhere else.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_JOB.with(|f| f.get()) {
                prev(info);
            }
        }));
    });
}

fn worker_loop(inner: Arc<Inner>) {
    install_quiet_hook();
    loop {
        let (ticket, work, tx) = {
            let mut st = inner.state.lock().expect("state lock");
            loop {
                if let Some(item) = st.ready.pop_front() {
                    break item;
                }
                if st.stop {
                    return;
                }
                st = inner.work.wait(st).expect("state lock");
            }
        };
        let job = ticket.job;
        // The guard outlives the catch_unwind below, so fuel spent up to
        // a panic is still read back and charged to the session.
        let guard = ticket.budget.guard();
        IN_JOB.with(|f| f.set(true));
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_job(&inner, &ticket, &work, &guard, &tx)
        }));
        IN_JOB.with(|f| f.set(false));
        let finish = match ran {
            Ok(finish) => finish,
            Err(_) => {
                let d = Diagnostic::new(
                    Code::EnginePanic,
                    format!(
                        "job {job} panicked; the worker survived and the session keeps running"
                    ),
                );
                let _ = tx.send(JobEvent::Failed(d.headline()));
                FinishKind::Panicked
            }
        };
        let mut st = inner.state.lock().expect("state lock");
        let mut pending: VecDeque<Dequeued> = st
            .sched
            .complete(job, guard.steps_used(), guard.memory_used(), finish)
            .into();
        while let Some(d) = pending.pop_front() {
            match d {
                Dequeued::Dispatch(t) => {
                    if let Some((work, tx)) = st.senders.remove(&t.job) {
                        st.ready.push_back((t, work, tx));
                    } else {
                        // Every queued job has a sender until dispatch
                        // or rejection claims it, so this is a bug —
                        // but dropping the ticket would leak the worker
                        // slot and session-active count it was
                        // dispatched with, so give them back.
                        debug_assert!(false, "dispatched job {} has no sender", t.job);
                        pending.extend(st.sched.complete(t.job, 0, 0, FinishKind::Cancelled));
                    }
                }
                Dequeued::LateReject { job, diag } => {
                    if let Some((_, tx)) = st.senders.remove(&job) {
                        notify_failed(&inner, tx, diag.headline());
                    }
                }
            }
        }
        maybe_stop(&mut st);
        drop(st);
        inner.work.notify_all();
    }
}

/// Run one ticket's admitted work and stream its result. The returned
/// kind is what the scheduler records; evaluation *errors* still count
/// as completed (the slot was used), only token-cancellation counts as
/// cancelled.
fn run_job(
    inner: &Inner,
    ticket: &Ticket,
    work: &Work,
    guard: &Guard,
    tx: &SyncSender<JobEvent>,
) -> FinishKind {
    let cancelled = || {
        ticket
            .budget
            .cancel
            .as_ref()
            .is_some_and(|t| t.is_cancelled())
    };
    let summary: String;
    match work {
        Work::PanicProbe => panic!("panic probe"),
        Work::Select(db, query) => {
            match db.select_with(query, guard) {
                Err(e) => {
                    let _ = tx.send(JobEvent::Failed(e));
                    return if cancelled() {
                        FinishKind::Cancelled
                    } else {
                        FinishKind::Completed
                    };
                }
                Ok(result) => {
                    // Stream at guard tick boundaries: poll between
                    // chunks so CANCEL lands mid-stream, not after it.
                    for chunk in result.chunks(inner.cfg.chunk_size) {
                        if let Err(e) = guard.poll() {
                            let _ = tx.send(JobEvent::Failed(e.headline()));
                            return if matches!(e, Exhausted::Cancelled) {
                                FinishKind::Cancelled
                            } else {
                                FinishKind::Completed
                            };
                        }
                        if tx.send(JobEvent::Chunk(chunk)).is_err() {
                            // Receiver hung up: the client is gone.
                            return FinishKind::Cancelled;
                        }
                    }
                    let s = result.stats();
                    summary = format!(
                        "results={} fuel={}{}",
                        s.results_constructed,
                        guard.steps_used(),
                        if s.truncated.is_some() {
                            " truncated"
                        } else {
                            ""
                        },
                    );
                }
            }
        }
        Work::Commit(txn) => {
            // Charge exactly what admission granted (the envelope is
            // exact), so session fuel accounting covers writes too.
            let (fuel, memory) = commit_cost(txn);
            if let Err(e) = guard
                .tick_hard(fuel)
                .and_then(|()| guard.alloc(memory).map(|_| ()))
            {
                let _ = tx.send(JobEvent::Failed(e.headline()));
                return if matches!(e, Exhausted::Cancelled) {
                    FinishKind::Cancelled
                } else {
                    FinishKind::Completed
                };
            }
            let Data::Store(store) = &inner.data else {
                let d = Diagnostic::new(
                    Code::ReadOnlyStore,
                    "server is read-only: started without --data-dir",
                );
                let _ = tx.send(JobEvent::Failed(d.headline()));
                return FinishKind::Completed;
            };
            match store.commit(txn) {
                Err(e) => {
                    let _ = tx.send(JobEvent::Failed(e.headline()));
                    return FinishKind::Completed;
                }
                Ok(info) => {
                    summary = format!(
                        "committed generation={} seq={} ops={} wal_bytes={} fuel={}",
                        info.generation,
                        info.seq,
                        info.ops,
                        info.bytes,
                        guard.steps_used(),
                    );
                }
            }
        }
        Work::Datalog(db, program) => match db.program_with(program, guard) {
            Err(e) => {
                let _ = tx.send(JobEvent::Failed(e));
                return if cancelled() {
                    FinishKind::Cancelled
                } else {
                    FinishKind::Completed
                };
            }
            Ok(eval) => {
                let lines: Vec<String> = eval
                    .predicates()
                    .map(|p| format!("{p}: {} tuple(s)", eval.count(p)))
                    .collect();
                for batch in lines.chunks(inner.cfg.chunk_size.max(1)) {
                    if let Err(e) = guard.poll() {
                        let _ = tx.send(JobEvent::Failed(e.headline()));
                        return if matches!(e, Exhausted::Cancelled) {
                            FinishKind::Cancelled
                        } else {
                            FinishKind::Completed
                        };
                    }
                    if tx.send(JobEvent::Chunk(batch.join("\n"))).is_err() {
                        return FinishKind::Cancelled;
                    }
                }
                summary = format!(
                    "iterations={} rules={} fuel={}{}",
                    eval.iterations,
                    eval.rule_evaluations,
                    guard.steps_used(),
                    if eval.truncated.is_some() {
                        " truncated"
                    } else {
                        ""
                    },
                );
            }
        },
    }
    let _ = tx.send(JobEvent::Done { summary });
    FinishKind::Completed
}
