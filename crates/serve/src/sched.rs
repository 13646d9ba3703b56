//! The admission-controlled run queue: a *pure* scheduler state machine.
//!
//! All scheduling decisions — admit, queue, reject, dispatch, refund —
//! live here, with no threads, sockets, or wall clock. The server wraps
//! this in a mutex and a worker pool; the deterministic test harness
//! drives it directly with a [`ManualClock`](crate::clock::ManualClock)
//! and asserts on the [`TraceEvent`] log, which records every transition
//! in decision order.
//!
//! Admission happens *before* any engine fuel is spent: a submitted
//! job's static [`CostEnvelope`] is checked against the session's
//! per-job ceiling and remaining balance ([`Budget::admit`] rejects only
//! when the envelope's lower bound provably exceeds a limit). Admitted
//! jobs either dispatch immediately — receiving a checked
//! [`Budget::split`] of the session balance — or wait in a bounded FIFO
//! queue. When a job finishes, the unspent remainder of its grant is
//! refunded and the queue is re-scanned; a queued job whose session
//! balance has meanwhile been drained is *late-rejected* (SSD200) rather
//! than dispatched with a grant it was never admitted against.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ssd_diag::{Code, Diagnostic};
use ssd_guard::{Budget, CancelToken, CostEnvelope};

use crate::clock::Clock;
use crate::metrics::{Counters, Histogram, Metrics};
use crate::quota::SessionQuota;

/// Most recent trace events retained. Truncation is deterministic
/// (purely a function of the decision sequence), so trace equality
/// across identical runs still holds after it kicks in.
pub const TRACE_CAP: usize = 4096;

/// Most recent trace events retained *per session* (the `STATS`
/// per-session breakdown shows these); same deterministic batch
/// truncation as the global trace.
pub const SESSION_TRACE_CAP: usize = 64;

/// Identifies a session for the lifetime of a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Identifies a job (`CANCEL <job-id>` uses the inner number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What kind of evaluation a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    Query,
    Datalog,
    /// One regular path expression; run as the `select` over it.
    Rpe,
    /// A durable write: a staged INSERT/DELETE batch committed through
    /// the store. Write budgets flow through the same admission pipeline
    /// as reads — the envelope is sized from the transaction script.
    Commit,
}

/// A dispatch order: the job, its session and its grant. What the job
/// runs is the server's to keep; the scheduler schedules envelopes.
#[derive(Debug)]
pub struct Ticket {
    pub job: JobId,
    pub session: SessionId,
    /// The admitted per-job budget (grant split off the session balance,
    /// with the job's cancellation token attached).
    pub budget: Budget,
    pub grant_fuel: u64,
    pub grant_memory: u64,
}

/// Outcome of a submit.
#[derive(Debug)]
pub enum Decision {
    /// A worker slot and grant were available: run it now.
    Dispatch(Ticket),
    /// Admitted but waiting; `depth` is its 1-based queue position.
    Queued { job: JobId, depth: usize },
    /// Not admitted; the diagnostic says why (SSD030/SSD2xx). Costs
    /// zero engine fuel.
    Rejected(Diagnostic),
}

/// How a dispatched job ended, as reported by the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishKind {
    /// Ran to completion (including guard-truncated partial results and
    /// ordinary evaluation errors — the slot was used and released).
    Completed,
    /// Ended because its cancellation token fired.
    Cancelled,
    /// The worker caught a panic from the engine (SSD111).
    Panicked,
}

/// A queue transition triggered by a finished job.
#[derive(Debug)]
pub enum Dequeued {
    /// This queued job can run now.
    Dispatch(Ticket),
    /// This queued job's session balance was drained by jobs that ran
    /// before it: rejected after queuing, without dispatch.
    LateReject { job: JobId, diag: Diagnostic },
}

/// Everything the trace records; one event per scheduler transition, in
/// decision order. `Vec<TraceEvent>` equality across runs is the
/// determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    SessionOpened {
        session: SessionId,
    },
    Submitted {
        job: JobId,
        session: SessionId,
    },
    Dispatched {
        job: JobId,
        grant_fuel: u64,
    },
    Queued {
        job: JobId,
        depth: usize,
    },
    Rejected {
        job: JobId,
        code: Code,
    },
    Completed {
        job: JobId,
        fuel_spent: u64,
    },
    Cancelled {
        job: JobId,
    },
    Panicked {
        job: JobId,
    },
    /// A finish tried to refund more than its session's outstanding
    /// grant (SSD211): the refund was clamped and the books kept
    /// consistent, but this is a scheduler bug worth surfacing.
    RefundClamped {
        job: JobId,
        fuel_excess: u64,
        memory_excess: u64,
    },
    SessionClosed {
        session: SessionId,
    },
    ShutdownBegan,
}

struct Session {
    quota: SessionQuota,
    balance: Budget,
    active: usize,
    closed: bool,
    counters: Counters,
    /// Per-session submit→finish latency histogram (constant memory,
    /// covers every finish over the session's lifetime).
    latency: Histogram,
    /// This session's slice of the decision trace (most recent
    /// [`SESSION_TRACE_CAP`] events, deterministic batch truncation).
    recent: Vec<TraceEvent>,
}

enum JobState {
    Queued,
    Running { grant_fuel: u64, grant_memory: u64 },
}

struct Job {
    session: SessionId,
    envelope: CostEnvelope,
    state: JobState,
    cancel: CancelToken,
    submitted_at: u64,
}

/// See the module docs. All methods take `&mut self`; the server holds
/// the scheduler behind one mutex so every transition is atomic.
///
/// Memory stays bounded over a long-running server: finished jobs are
/// evicted from the job map (only queued and running jobs are live),
/// the trace keeps the last [`TRACE_CAP`] events, and latencies live in
/// constant-size log-bucketed [`Histogram`]s.
pub struct Scheduler {
    clock: Arc<dyn Clock>,
    workers: usize,
    busy: usize,
    queue_cap: usize,
    queue: VecDeque<JobId>,
    /// Queued and running jobs only; finished jobs are evicted.
    jobs: HashMap<JobId, Job>,
    sessions: HashMap<SessionId, Session>,
    next_session: u64,
    next_job: u64,
    trace: Vec<TraceEvent>,
    metrics: Metrics,
    shutting_down: bool,
}

impl Scheduler {
    /// `workers` ≥ 1 worker slots, a run queue bounded at `queue_cap`.
    pub fn new(workers: usize, queue_cap: usize, clock: Arc<dyn Clock>) -> Scheduler {
        Scheduler {
            clock,
            workers: workers.max(1),
            busy: 0,
            queue_cap,
            queue: VecDeque::new(),
            jobs: HashMap::new(),
            sessions: HashMap::new(),
            next_session: 0,
            next_job: 0,
            trace: Vec::new(),
            metrics: Metrics::default(),
            shutting_down: false,
        }
    }

    /// Append a trace event, keeping the log bounded: let it grow to
    /// twice [`TRACE_CAP`], then drop the oldest half in one batch
    /// (amortized O(1), and deterministic given the decision sequence).
    fn record(&mut self, ev: TraceEvent) {
        self.trace.push(ev);
        if self.trace.len() >= TRACE_CAP * 2 {
            let excess = self.trace.len() - TRACE_CAP;
            self.trace.drain(..excess);
        }
    }

    /// [`Scheduler::record`], additionally mirroring the event into the
    /// session's own bounded trace (the `STATS` per-session breakdown).
    fn record_for(&mut self, session: SessionId, ev: TraceEvent) {
        if let Some(s) = self.sessions.get_mut(&session) {
            s.recent.push(ev.clone());
            if s.recent.len() >= SESSION_TRACE_CAP * 2 {
                let excess = s.recent.len() - SESSION_TRACE_CAP;
                s.recent.drain(..excess);
            }
        }
        self.record(ev);
    }

    /// Open a session under `quota`.
    pub fn open_session(&mut self, quota: SessionQuota) -> SessionId {
        self.next_session += 1;
        let id = SessionId(self.next_session);
        self.sessions.insert(
            id,
            Session {
                balance: quota.session_budget(),
                quota,
                active: 0,
                closed: false,
                counters: Counters::default(),
                latency: Histogram::new(),
                recent: Vec::new(),
            },
        );
        self.record_for(id, TraceEvent::SessionOpened { session: id });
        id
    }

    /// Submit a job: estimate already done (the `envelope` argument), so
    /// this is pure admission — reject, queue, or dispatch.
    pub fn submit(&mut self, session: SessionId, envelope: CostEnvelope) -> Decision {
        self.next_job += 1;
        let job = JobId(self.next_job);
        self.record_for(session, TraceEvent::Submitted { job, session });

        let reject = |sched: &mut Scheduler, job, diag: Diagnostic| {
            if let Some(s) = sched.sessions.get_mut(&session) {
                s.counters.rejected += 1;
            }
            sched.metrics.counters.rejected += 1;
            sched.record_for(
                session,
                TraceEvent::Rejected {
                    job,
                    code: diag.code,
                },
            );
            Decision::Rejected(diag)
        };

        if self.shutting_down {
            return reject(
                self,
                job,
                Diagnostic::new(
                    Code::ServerShuttingDown,
                    "server is shutting down; no new jobs accepted".to_string(),
                ),
            );
        }
        let Some(sess) = self.sessions.get(&session) else {
            return reject(
                self,
                job,
                Diagnostic::new(Code::ProtocolError, format!("no such session {session}")),
            );
        };
        if sess.closed {
            return reject(
                self,
                job,
                Diagnostic::new(Code::ProtocolError, format!("session {session} is closed")),
            );
        }

        // Per-job ceiling: can this envelope ever fit in one grant?
        if let Err(d) = sess.quota.job_ceiling().admit(&envelope) {
            return reject(self, job, d);
        }
        // Remaining session balance: SSD200 once the quota is drained.
        if sess.balance.admit(&envelope).is_err() {
            let d = Diagnostic::new(
                Code::SessionQuotaExhausted,
                format!(
                    "session {session} quota exhausted: the estimate needs at least \
                     {} fuel / {} byte(s), more than the session has left",
                    envelope.fuel.lo, envelope.memory.lo
                ),
            );
            return reject(self, job, d);
        }

        let can_dispatch = self.busy < self.workers && sess.active < sess.quota.max_concurrent;
        if !can_dispatch && self.queue.len() >= self.queue_cap {
            return reject(
                self,
                job,
                Diagnostic::new(
                    Code::QueueFull,
                    format!("run queue is full ({} waiting)", self.queue_cap),
                ),
            );
        }

        // Admitted. Charge the estimate to the books.
        let est = envelope.fuel.lo;
        let sess = self.sessions.get_mut(&session).expect("checked above");
        sess.counters.admitted += 1;
        sess.counters.fuel_estimated += est;
        self.metrics.counters.admitted += 1;
        self.metrics.counters.fuel_estimated += est;

        self.jobs.insert(
            job,
            Job {
                session,
                envelope,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                submitted_at: self.clock.now_micros(),
            },
        );

        if can_dispatch {
            let ticket = self.dispatch(job);
            self.record_for(
                session,
                TraceEvent::Dispatched {
                    job,
                    grant_fuel: ticket.grant_fuel,
                },
            );
            return Decision::Dispatch(ticket);
        }

        self.queue.push_back(job);
        let depth = self.queue.len();
        self.metrics.queue_depth = depth;
        self.metrics.queue_peak = self.metrics.queue_peak.max(depth);
        let sess = self.sessions.get_mut(&session).expect("checked above");
        sess.counters.queued += 1;
        self.metrics.counters.queued += 1;
        self.record_for(session, TraceEvent::Queued { job, depth });
        Decision::Queued { job, depth }
    }

    /// Take a worker slot and a grant for `job` (which must be admitted
    /// and not yet running). Infallible by construction: callers check
    /// admission and capacity first.
    fn dispatch(&mut self, job: JobId) -> Ticket {
        let j = self.jobs.get_mut(&job).expect("dispatch of unknown job");
        let sess = self.sessions.get_mut(&j.session).expect("job has session");
        let (grant_fuel, grant_memory) = sess.quota.job_grant(&sess.balance);
        let budget = sess
            .balance
            .split(grant_fuel, grant_memory)
            .expect("grant is clamped to the balance")
            .cancel_token(j.cancel.clone());
        sess.active += 1;
        self.busy += 1;
        j.state = JobState::Running {
            grant_fuel,
            grant_memory,
        };
        Ticket {
            job,
            session: j.session,
            budget,
            grant_fuel,
            grant_memory,
        }
    }

    /// A worker finished `job`: release its slot, refund the unspent
    /// grant, record metrics, evict the job, and re-scan the queue.
    /// Returns the queue transitions (dispatches and late rejections)
    /// this unblocked.
    pub fn complete(
        &mut self,
        job: JobId,
        fuel_spent: u64,
        memory_spent: u64,
        finish: FinishKind,
    ) -> Vec<Dequeued> {
        let j = self.jobs.remove(&job).expect("complete of unknown job");
        let JobState::Running {
            grant_fuel,
            grant_memory,
        } = j.state
        else {
            panic!("complete of a job that is not running");
        };
        let session = j.session;
        let latency = self.clock.now_micros().saturating_sub(j.submitted_at);
        self.busy -= 1;

        let sess = self.sessions.get_mut(&session).expect("job has session");
        sess.active -= 1;
        // The guard can overshoot the limit by one check interval, so
        // clamp: refund exactly the unspent part of the grant. The
        // outcome is checked: a refund beyond the session's outstanding
        // grants means the books are wrong (SSD211), and is surfaced
        // rather than silently absorbed.
        let refund_fuel = grant_fuel.saturating_sub(fuel_spent);
        let refund_memory = grant_memory.saturating_sub(memory_spent);
        let outcome = sess.balance.refund(refund_fuel, refund_memory);
        let credited = refund_fuel - outcome.fuel_excess;
        sess.counters.fuel_refunded += credited;
        self.metrics.counters.fuel_refunded += credited;
        sess.counters.fuel_spent += fuel_spent;
        self.metrics.counters.fuel_spent += fuel_spent;
        sess.latency.record(latency);
        self.metrics.latency.record(latency);
        if outcome.clamped() {
            let sess = self.sessions.get_mut(&session).expect("job has session");
            sess.counters.refund_clamped += 1;
            self.metrics.counters.refund_clamped += 1;
            self.record_for(
                session,
                TraceEvent::RefundClamped {
                    job,
                    fuel_excess: outcome.fuel_excess,
                    memory_excess: outcome.memory_excess,
                },
            );
        }
        let sess = self.sessions.get_mut(&session).expect("job has session");
        match finish {
            FinishKind::Completed => {
                sess.counters.completed += 1;
                self.metrics.counters.completed += 1;
                self.record_for(session, TraceEvent::Completed { job, fuel_spent });
            }
            FinishKind::Cancelled => {
                sess.counters.cancelled += 1;
                self.metrics.counters.cancelled += 1;
                self.record_for(session, TraceEvent::Cancelled { job });
            }
            FinishKind::Panicked => {
                sess.counters.panicked += 1;
                self.metrics.counters.panicked += 1;
                self.record_for(session, TraceEvent::Panicked { job });
            }
        }
        self.drain_queue()
    }

    /// Scan the queue in FIFO order for jobs that can run now. A job
    /// whose session is at its concurrency cap stays queued (later
    /// sessions' jobs may overtake it); a job whose session balance can
    /// no longer cover its envelope is late-rejected.
    fn drain_queue(&mut self) -> Vec<Dequeued> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.queue.len() && self.busy < self.workers {
            let job = self.queue[i];
            let j = &self.jobs[&job];
            let sess = &self.sessions[&j.session];
            if sess.closed {
                // close_session removes its queued jobs; nothing of a
                // closed session should still be here.
                i += 1;
                continue;
            }
            if sess.balance.admit(&j.envelope).is_err() {
                let session = j.session;
                self.queue.remove(i);
                self.jobs.remove(&job);
                let d = Diagnostic::new(
                    Code::SessionQuotaExhausted,
                    format!("session {session} quota exhausted while job {job} was queued"),
                );
                let sess = self.sessions.get_mut(&session).expect("job has session");
                sess.counters.rejected += 1;
                self.metrics.counters.rejected += 1;
                self.record_for(session, TraceEvent::Rejected { job, code: d.code });
                out.push(Dequeued::LateReject { job, diag: d });
                continue;
            }
            if sess.active >= sess.quota.max_concurrent {
                i += 1;
                continue;
            }
            self.queue.remove(i);
            let ticket = self.dispatch(job);
            self.record_for(
                ticket.session,
                TraceEvent::Dispatched {
                    job,
                    grant_fuel: ticket.grant_fuel,
                },
            );
            out.push(Dequeued::Dispatch(ticket));
        }
        self.metrics.queue_depth = self.queue.len();
        out
    }

    /// Cancel one of `session`'s jobs. A queued job is removed
    /// immediately (`Ok(false)`); a running job has its token fired
    /// (`Ok(true)`) and will report back through [`Scheduler::complete`]
    /// when the guard notices.
    ///
    /// Job ids are global sequential integers, so ownership is checked:
    /// a job belonging to *another* session gets the same SSD204 as an
    /// unknown job (no cross-session cancellation, and no oracle for
    /// which ids are live elsewhere).
    pub fn cancel(&mut self, session: SessionId, job: JobId) -> Result<bool, Diagnostic> {
        let unknown = || {
            Err(Diagnostic::new(
                Code::UnknownJob,
                format!("no such (or already finished) job {job}"),
            ))
        };
        let (running, owner) = match self.jobs.get(&job) {
            Some(j) => (matches!(j.state, JobState::Running { .. }), j.session),
            None => return unknown(),
        };
        if owner != session {
            return unknown();
        }
        if running {
            self.jobs[&job].cancel.cancel();
            return Ok(true);
        }
        let pos = self
            .queue
            .iter()
            .position(|&q| q == job)
            .expect("queued job is in the queue");
        self.queue.remove(pos);
        self.metrics.queue_depth = self.queue.len();
        self.jobs.remove(&job);
        let sess = self.sessions.get_mut(&session).expect("job has session");
        sess.counters.cancelled += 1;
        self.metrics.counters.cancelled += 1;
        self.record_for(session, TraceEvent::Cancelled { job });
        Ok(false)
    }

    /// Close a session: cancel its queued jobs (returned, so the server
    /// can notify) and fire the tokens of its running jobs. The session
    /// accepts no further submissions.
    pub fn close_session(&mut self, session: SessionId) -> Vec<JobId> {
        let Some(sess) = self.sessions.get_mut(&session) else {
            return Vec::new();
        };
        sess.closed = true;
        let queued: Vec<JobId> = self
            .queue
            .iter()
            .copied()
            .filter(|q| self.jobs[q].session == session)
            .collect();
        for &job in &queued {
            // Queued cancellation of the session's own jobs always succeeds.
            let _ = self.cancel(session, job);
        }
        for j in self.jobs.values() {
            if j.session == session && matches!(j.state, JobState::Running { .. }) {
                j.cancel.cancel();
            }
        }
        self.record_for(session, TraceEvent::SessionClosed { session });
        queued
    }

    /// Stop admitting; queued and running jobs drain normally.
    pub fn begin_shutdown(&mut self) {
        if !self.shutting_down {
            self.shutting_down = true;
            self.record(TraceEvent::ShutdownBegan);
        }
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// True once nothing is queued or running.
    pub fn drained(&self) -> bool {
        self.queue.is_empty() && self.busy == 0
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub fn busy(&self) -> usize {
        self.busy
    }

    /// The decision log (most recent [`TRACE_CAP`]+ events); identical
    /// across runs given identical inputs, including any truncation.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Queued + running jobs currently held (finished jobs are evicted,
    /// so this is the scheduler's live footprint, not a lifetime count).
    pub fn live_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Snapshot of the global metrics.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.metrics.clone();
        m.queue_depth = self.queue.len();
        m
    }

    /// Snapshot of one session's counters (`None` if unknown).
    pub fn session_counters(&self, session: SessionId) -> Option<Counters> {
        self.sessions.get(&session).map(|s| s.counters.clone())
    }

    /// The session's remaining fuel balance (`None` = unmetered).
    pub fn session_fuel_left(&self, session: SessionId) -> Option<u64> {
        self.sessions
            .get(&session)
            .and_then(|s| s.balance.max_steps)
    }

    /// Snapshot of one session's submit→finish latency histogram
    /// (microseconds, every finish over the session's lifetime).
    /// `None` if unknown.
    pub fn session_latency(&self, session: SessionId) -> Option<Histogram> {
        self.sessions.get(&session).map(|s| s.latency.clone())
    }

    /// Snapshot of one session's slice of the decision trace (most
    /// recent [`SESSION_TRACE_CAP`]+ events). `None` if unknown.
    pub fn session_trace(&self, session: SessionId) -> Option<Vec<TraceEvent>> {
        self.sessions.get(&session).map(|s| s.recent.clone())
    }
}
