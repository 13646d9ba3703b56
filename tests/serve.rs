//! ssd-serve: deterministic scheduler tests and in-process server tests.
//!
//! The scheduler is a pure state machine driven by a [`ManualClock`], so
//! the first half of this suite replays fixed scenarios and asserts on
//! the *exact* decision trace — byte-for-byte identical across runs.
//! The second half exercises the threaded server end to end: streaming,
//! mid-stream cancellation, panic isolation, and graceful shutdown.
//! Those tests assert on outcomes and counters (thread interleavings
//! may vary), never on wall-clock timing.

use std::sync::Arc;

use semistructured::query::analyze::{analyze_datalog_cost, analyze_query_cost};
use semistructured::query::parse_query;
use semistructured::triples::datalog::parse_program;
use semistructured::{CostContext, Database};
use ssd_guard::{Bound, CostEnvelope, Interval};
use ssd_serve::sched::{JobId, SessionId};
use ssd_serve::{
    Decision, Dequeued, FinishKind, JobEvent, JobKind, ManualClock, Scheduler, ServeConfig, Server,
    SessionQuota, SubmitError, TraceEvent, PANIC_PROBE,
};

fn env(fuel_lo: u64) -> CostEnvelope {
    CostEnvelope {
        cardinality: Interval::exact(1),
        fuel: Interval::new(fuel_lo, Bound::Unbounded),
        memory: Interval::exact(0),
    }
}

fn quota(fuel: Option<u64>, job_fuel: u64, max_concurrent: usize) -> SessionQuota {
    SessionQuota {
        fuel,
        memory: None,
        max_concurrent,
        job_fuel,
        job_memory: 1 << 20,
    }
}

fn movies() -> Arc<Database> {
    Arc::new(Database::new(ssd_data::movies::figure1()))
}

// ---------------------------------------------------------------------------
// Pure scheduler: deterministic traces
// ---------------------------------------------------------------------------

/// One fixed scenario covering admit → queue → reject → drain.
fn admit_queue_reject_scenario() -> Vec<TraceEvent> {
    let clock = Arc::new(ManualClock::new());
    let mut s = Scheduler::new(1, 2, clock.clone());
    let sid = s.open_session(quota(Some(1000), 50, 4));

    // Worker free: dispatch.
    let d1 = s.submit(sid, env(10));
    let t1 = match d1 {
        Decision::Dispatch(t) => t,
        other => panic!("q1 should dispatch, got {other:?}"),
    };
    assert_eq!(t1.grant_fuel, 50);
    clock.advance(100);

    // Worker busy: queue, in order.
    assert!(matches!(
        s.submit(sid, env(10)),
        Decision::Queued { depth: 1, .. }
    ));
    assert!(matches!(
        s.submit(sid, env(10)),
        Decision::Queued { depth: 2, .. }
    ));

    // Queue full: SSD201, and the books show zero fuel charged for it.
    let Decision::Rejected(d) = s.submit(sid, env(10)) else {
        panic!("q4 should be rejected");
    };
    assert_eq!(d.code.as_str(), "SSD201");

    // Per-job ceiling: lower bound 60 can never fit a 50-fuel grant.
    let Decision::Rejected(d) = s.submit(sid, env(60)) else {
        panic!("q5 should be rejected");
    };
    assert_eq!(d.code.as_str(), "SSD030");

    // Completion frees the worker; the queue drains in FIFO order.
    clock.advance(400);
    let unblocked = s.complete(t1.job, 42, 0, FinishKind::Completed);
    assert_eq!(unblocked.len(), 1);
    let Dequeued::Dispatch(t2) = &unblocked[0] else {
        panic!("q2 should dispatch on drain");
    };
    let t2_job = t2.job;
    let unblocked = s.complete(t2_job, 7, 0, FinishKind::Completed);
    assert_eq!(unblocked.len(), 1);
    let Dequeued::Dispatch(t3) = &unblocked[0] else {
        panic!("q3 should dispatch on drain");
    };
    let t3_job = t3.job;
    s.complete(t3_job, 5, 0, FinishKind::Completed);

    let m = s.metrics();
    assert_eq!(m.counters.admitted, 3);
    assert_eq!(m.counters.rejected, 2);
    assert_eq!(m.counters.queued, 2);
    assert_eq!(m.counters.completed, 3);
    // Rejected submissions cost zero engine fuel: only the three
    // admitted jobs' spends appear, nothing for q4/q5.
    assert_eq!(m.counters.fuel_spent, 42 + 7 + 5);
    assert_eq!(m.counters.fuel_estimated, 30);
    assert_eq!(m.queue_peak, 2);
    assert_eq!(m.queue_depth, 0);
    s.trace().to_vec()
}

#[test]
fn admit_queue_reject_ordering_is_deterministic() {
    let a = admit_queue_reject_scenario();
    let b = admit_queue_reject_scenario();
    assert_eq!(a, b, "identical inputs must give identical traces");
    // And the trace is the exact decision sequence, not just equal noise.
    let codes: Vec<&'static str> = a
        .iter()
        .map(|e| match e {
            TraceEvent::SessionOpened { .. } => "open",
            TraceEvent::Submitted { .. } => "sub",
            TraceEvent::Dispatched { .. } => "disp",
            TraceEvent::Queued { .. } => "queue",
            TraceEvent::Rejected { .. } => "rej",
            TraceEvent::Completed { .. } => "done",
            _ => "other",
        })
        .collect();
    assert_eq!(
        codes,
        [
            "open", "sub", "disp", "sub", "queue", "sub", "queue", "sub", "rej", "sub", "rej",
            "done", "disp", "done", "disp", "done"
        ]
    );
}

#[test]
fn session_quota_exhaustion_is_ssd200() {
    let mut s = Scheduler::new(1, 8, Arc::new(ManualClock::new()));
    let sid = s.open_session(quota(Some(100), 60, 2));

    // j1 takes a 60-fuel grant, leaving 40.
    let Decision::Dispatch(t1) = s.submit(sid, env(10)) else {
        panic!("j1 dispatches");
    };
    assert_eq!(t1.grant_fuel, 60);
    assert_eq!(s.session_fuel_left(sid), Some(40));

    // Needs at least 50 but only 40 remain: immediate SSD200.
    let Decision::Rejected(d) = s.submit(sid, env(50)) else {
        panic!("j2 is over the session balance");
    };
    assert_eq!(d.code.as_str(), "SSD200");

    // j3 and j4 fit the *current* balance and queue up behind j1.
    assert!(matches!(s.submit(sid, env(35)), Decision::Queued { .. }));
    assert!(matches!(s.submit(sid, env(35)), Decision::Queued { .. }));

    // j1 spends everything it was granted; j3 dispatches with the whole
    // remaining balance (40); j4's 35-fuel floor no longer fits the
    // empty balance when its turn comes: late SSD200 without dispatch.
    let unblocked = s.complete(t1.job, 60, 0, FinishKind::Completed);
    assert_eq!(unblocked.len(), 1);
    let Dequeued::Dispatch(t3) = &unblocked[0] else {
        panic!("j3 dispatches on drain");
    };
    assert_eq!(t3.grant_fuel, 40);
    let t3_job = t3.job;
    assert_eq!(s.session_fuel_left(sid), Some(0));

    let unblocked = s.complete(t3_job, 40, 0, FinishKind::Completed);
    assert_eq!(unblocked.len(), 1);
    match &unblocked[0] {
        Dequeued::LateReject { diag, .. } => assert_eq!(diag.code.as_str(), "SSD200"),
        other => panic!("j4 should be late-rejected, got {other:?}"),
    }
    assert!(s.drained());
    let c = s.session_counters(sid).unwrap();
    assert_eq!(c.rejected, 2);
    assert_eq!(c.completed, 2);
}

#[test]
fn cancel_queued_and_unknown_jobs() {
    let mut s = Scheduler::new(1, 8, Arc::new(ManualClock::new()));
    let sid = s.open_session(SessionQuota::default());
    let Decision::Dispatch(t1) = s.submit(sid, env(1)) else {
        panic!("a dispatches");
    };
    let Decision::Queued { job: j2, .. } = s.submit(sid, env(1)) else {
        panic!("b queues");
    };
    // Queued: removed synchronously.
    assert_eq!(s.cancel(sid, j2), Ok(false));
    assert_eq!(s.queue_len(), 0);
    // Unknown / already-finished: SSD204.
    assert_eq!(
        s.cancel(sid, JobId(999)).unwrap_err().code.as_str(),
        "SSD204"
    );
    assert_eq!(s.cancel(sid, j2).unwrap_err().code.as_str(), "SSD204");
    // Running: token fires, completion arrives later as Cancelled.
    assert_eq!(s.cancel(sid, t1.job), Ok(true));
    assert!(t1.budget.cancel.as_ref().unwrap().is_cancelled());
    s.complete(t1.job, 3, 0, FinishKind::Cancelled);
    assert_eq!(s.metrics().counters.cancelled, 2);
}

#[test]
fn cancel_is_scoped_to_the_owning_session() {
    let mut s = Scheduler::new(1, 8, Arc::new(ManualClock::new()));
    let owner = s.open_session(SessionQuota::default());
    let intruder = s.open_session(SessionQuota::default());
    let Decision::Dispatch(t1) = s.submit(owner, env(1)) else {
        panic!("a dispatches");
    };
    let Decision::Queued { job: j2, .. } = s.submit(owner, env(1)) else {
        panic!("b queues");
    };
    // Another session's CANCEL gets the same SSD204 as an unknown id —
    // no cross-session teardown, no probe for live ids.
    assert_eq!(
        s.cancel(intruder, t1.job).unwrap_err().code.as_str(),
        "SSD204"
    );
    assert_eq!(s.cancel(intruder, j2).unwrap_err().code.as_str(), "SSD204");
    assert!(!t1.budget.cancel.as_ref().unwrap().is_cancelled());
    assert_eq!(s.queue_len(), 1);
    assert_eq!(s.session_counters(owner).unwrap().cancelled, 0);
    // The owner still can.
    assert_eq!(s.cancel(owner, j2), Ok(false));
    assert_eq!(s.cancel(owner, t1.job), Ok(true));
}

#[test]
fn scheduler_state_stays_bounded() {
    use ssd_serve::sched::TRACE_CAP;
    let clock = Arc::new(ManualClock::new());
    let mut s = Scheduler::new(1, 8, clock.clone());
    let sid = s.open_session(SessionQuota::default());
    // Far more jobs than any cap; each completes before the next.
    for i in 0..(TRACE_CAP as u64 * 3) {
        let Decision::Dispatch(t) = s.submit(sid, env(1)) else {
            panic!("lone job always dispatches");
        };
        clock.advance(i % 7);
        s.complete(t.job, 1, 0, FinishKind::Completed);
    }
    // Finished jobs are evicted; only live work is held.
    assert_eq!(s.live_jobs(), 0);
    assert!(s.trace().len() < TRACE_CAP * 2, "trace is bounded");
    let m = s.metrics();
    // The histogram keeps constant memory while counting every finish.
    assert_eq!(m.latency.count(), TRACE_CAP as u64 * 3);
    assert_eq!(m.counters.completed, TRACE_CAP as u64 * 3);
}

#[test]
fn shutdown_rejects_new_work_but_drains_the_queue() {
    let mut s = Scheduler::new(1, 8, Arc::new(ManualClock::new()));
    let sid = s.open_session(SessionQuota::default());
    let Decision::Dispatch(t1) = s.submit(sid, env(1)) else {
        panic!("a dispatches");
    };
    let Decision::Queued { .. } = s.submit(sid, env(1)) else {
        panic!("b queues");
    };
    s.begin_shutdown();
    let Decision::Rejected(d) = s.submit(sid, env(1)) else {
        panic!("c is rejected during shutdown");
    };
    assert_eq!(d.code.as_str(), "SSD203");
    assert!(!s.drained(), "queued work survives shutdown begin");
    let unblocked = s.complete(t1.job, 1, 0, FinishKind::Completed);
    let Dequeued::Dispatch(t2) = &unblocked[0] else {
        panic!("b still dispatches while draining");
    };
    let t2_job = t2.job;
    s.complete(t2_job, 1, 0, FinishKind::Completed);
    assert!(s.drained());
    assert_eq!(s.metrics().counters.completed, 2);
}

#[test]
fn budget_split_refund_round_trips_through_scheduling() {
    // The session balance after any run equals initial − Σ spent: the
    // scheduler never double-counts grants and refunds.
    let mut s = Scheduler::new(2, 8, Arc::new(ManualClock::new()));
    let sid = s.open_session(quota(Some(500), 100, 2));
    let mut spent_total = 0u64;
    for spent in [30u64, 100, 0, 77] {
        let Decision::Dispatch(t) = s.submit(sid, env(1)) else {
            panic!("dispatch");
        };
        s.complete(t.job, spent, 0, FinishKind::Completed);
        spent_total += spent;
        assert_eq!(s.session_fuel_left(sid), Some(500 - spent_total));
    }
}

/// A queued admission is the documented SSD202 outcome: the decision
/// carries the queue depth, the trace records it, and the code the
/// docs/protocol cite for it is the Note-severity `Code::JobQueued`.
#[test]
fn queued_admission_is_ssd202() {
    use semistructured::diag::{Code, Severity};
    let mut s = Scheduler::new(1, 4, Arc::new(ManualClock::new()));
    let sid = s.open_session(quota(Some(1000), 50, 4));
    let Decision::Dispatch(_) = s.submit(sid, env(1)) else {
        panic!("first job should dispatch");
    };
    let Decision::Queued { depth, .. } = s.submit(sid, env(1)) else {
        panic!("second job should queue behind the busy worker");
    };
    assert_eq!(depth, 1);
    assert!(
        s.trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::Queued { depth: 1, .. })),
        "{:?}",
        s.trace()
    );
    assert_eq!(Code::JobQueued.as_str(), "SSD202");
    assert_eq!(Code::JobQueued.severity(), Severity::Note);
}

/// SSD211 (`Code::RefundExceedsGrant`) is the pathological refund: more
/// fuel returned than was ever split off. A healthy scheduler never
/// produces it — whole scheduling round-trips leave `refund_clamped` at
/// zero and no `RefundClamped` trace event — and the guard crate's
/// books catch the bug at the source (a debug assertion; clamped and
/// surfaced via `RefundOutcome` in release builds).
#[test]
fn refund_beyond_grant_is_ssd211_and_never_happens_when_healthy() {
    use semistructured::diag::{Code, Severity};
    use semistructured::Budget;

    let mut s = Scheduler::new(1, 4, Arc::new(ManualClock::new()));
    let sid = s.open_session(quota(Some(500), 100, 2));
    for spent in [0u64, 100, 37] {
        let Decision::Dispatch(t) = s.submit(sid, env(1)) else {
            panic!("dispatch");
        };
        s.complete(t.job, spent, 0, FinishKind::Completed);
    }
    assert_eq!(s.metrics().counters.refund_clamped, 0);
    assert!(
        !s.trace()
            .iter()
            .any(|e| matches!(e, TraceEvent::RefundClamped { .. })),
        "healthy round-trips must not clamp refunds: {:?}",
        s.trace()
    );
    assert_eq!(Code::RefundExceedsGrant.as_str(), "SSD211");
    assert_eq!(Code::RefundExceedsGrant.severity(), Severity::Warning);

    // The books catch an over-refund at the source in debug builds
    // (which is what `cargo test` runs).
    #[cfg(debug_assertions)]
    {
        let caught = std::panic::catch_unwind(|| {
            let mut b = Budget::unlimited().max_steps(100);
            let _grant = b.split(10, 0).expect("split fits");
            b.refund(15, 0); // 5 more than the outstanding grant
        });
        assert!(caught.is_err(), "over-refund must trip the debug assertion");
    }
}

// ---------------------------------------------------------------------------
// Seeded interleaving stress: permuted worker wakeups over virtual time
// ---------------------------------------------------------------------------

/// Mirror of one session's books on the test side.
struct StressSession {
    id: SessionId,
    fuel: u64,
    grants: u64,
    open: bool,
}

/// Fold queue transitions returned by [`Scheduler::complete`] into the
/// test-side mirror of the running and queued sets.
fn apply_dequeued(
    deq: Vec<Dequeued>,
    sessions: &mut [StressSession],
    running: &mut Vec<(JobId, usize, bool)>,
    queued: &mut Vec<(JobId, usize)>,
) {
    for d in deq {
        match d {
            Dequeued::Dispatch(t) => {
                let pos = queued
                    .iter()
                    .position(|(j, _)| *j == t.job)
                    .expect("dispatched job was queued");
                let (job, si) = queued.remove(pos);
                sessions[si].grants += t.grant_fuel;
                running.push((job, si, false));
            }
            Dequeued::LateReject { job, .. } => {
                queued.retain(|(j, _)| *j != job);
            }
        }
    }
}

/// Replay one seeded schedule: random submits across four sessions,
/// completions in a permuted order (the virtual-time analogue of worker
/// threads waking in arbitrary order), cancellations, clock jumps, and
/// session closes, with the scheduler's bookkeeping checked against a
/// test-side mirror after every transition. Returns the decision trace
/// for the determinism assertion.
fn stress_run(seed: u64) -> Vec<TraceEvent> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const WORKERS: usize = 3;
    const QUEUE_CAP: usize = 5;

    let mut rng = SmallRng::seed_from_u64(seed);
    let clock = Arc::new(ManualClock::new());
    let mut s = Scheduler::new(WORKERS, QUEUE_CAP, clock.clone());

    let mut sessions: Vec<StressSession> = (0..4u64)
        .map(|i| {
            let fuel = 2_000 + 500 * i;
            StressSession {
                id: s.open_session(quota(Some(fuel), 40, 2)),
                fuel,
                grants: 0,
                open: true,
            }
        })
        .collect();

    // (job, session index, token fired?) — each entry holds a worker slot.
    let mut running: Vec<(JobId, usize, bool)> = Vec::new();
    let mut queued: Vec<(JobId, usize)> = Vec::new();

    for step in 0..400 {
        match rng.gen_range(0u32..100) {
            // Submit to a random session (possibly closed or drained:
            // the rejection paths are part of the schedule).
            0..=54 => {
                let si = rng.gen_range(0..sessions.len());
                let d = s.submit(sessions[si].id, env(rng.gen_range(1..=30)));
                match d {
                    Decision::Dispatch(t) => {
                        assert!(sessions[si].open, "closed session must not dispatch");
                        sessions[si].grants += t.grant_fuel;
                        running.push((t.job, si, false));
                    }
                    Decision::Queued { job, depth } => {
                        assert!(sessions[si].open, "closed session must not queue");
                        assert!((1..=QUEUE_CAP).contains(&depth));
                        queued.push((job, si));
                    }
                    Decision::Rejected(_) => {}
                }
            }
            // A random worker finishes: complete in permuted order.
            55..=79 => {
                if running.is_empty() {
                    continue;
                }
                let (job, _, fired) = running.remove(rng.gen_range(0..running.len()));
                let kind = if fired {
                    FinishKind::Cancelled
                } else {
                    FinishKind::Completed
                };
                let deq = s.complete(job, rng.gen_range(0..=45), 0, kind);
                apply_dequeued(deq, &mut sessions, &mut running, &mut queued);
            }
            // Cancel a random live job, queued or running.
            80..=87 => {
                let total = running.len() + queued.len();
                if total == 0 {
                    continue;
                }
                let i = rng.gen_range(0..total);
                if i < running.len() {
                    let (job, si, fired) = &mut running[i];
                    let token = s
                        .cancel(sessions[*si].id, *job)
                        .expect("running job is cancellable");
                    assert!(token, "running cancellation fires the token");
                    *fired = true;
                } else {
                    let (job, si) = queued.remove(i - running.len());
                    let token = s
                        .cancel(sessions[si].id, job)
                        .expect("queued job is cancellable");
                    assert!(!token, "queued cancellation removes immediately");
                }
            }
            88..=93 => clock.advance(rng.gen_range(1..5_000)),
            // Close a random session, keeping at least one open.
            _ => {
                let open: Vec<usize> = (0..sessions.len()).filter(|&i| sessions[i].open).collect();
                if open.len() <= 1 {
                    continue;
                }
                let si = open[rng.gen_range(0..open.len())];
                let torn_down = s.close_session(sessions[si].id);
                sessions[si].open = false;
                for job in torn_down {
                    queued.retain(|(j, _)| *j != job);
                }
                for (_, rsi, fired) in running.iter_mut() {
                    if *rsi == si {
                        *fired = true;
                    }
                }
            }
        }
        assert_eq!(s.busy(), running.len(), "seed {seed} step {step}: busy");
        assert_eq!(
            s.queue_len(),
            queued.len(),
            "seed {seed} step {step}: queue"
        );
        assert!(s.queue_len() <= QUEUE_CAP);
        assert_eq!(s.live_jobs(), running.len() + queued.len());
    }

    // Drain: workers keep waking in a permuted order until nothing is
    // queued or running.
    s.begin_shutdown();
    while !running.is_empty() {
        let (job, _, fired) = running.remove(rng.gen_range(0..running.len()));
        let kind = if fired {
            FinishKind::Cancelled
        } else {
            FinishKind::Completed
        };
        let deq = s.complete(job, rng.gen_range(0..=45), 0, kind);
        apply_dequeued(deq, &mut sessions, &mut running, &mut queued);
    }
    assert!(s.drained(), "seed {seed}: scheduler must drain");
    assert!(queued.is_empty(), "seed {seed}: queue must drain");

    // Fuel conservation, per session: what left the balance is exactly
    // the dispatched grants minus the credited refunds.
    for sess in &sessions {
        let left = s.session_fuel_left(sess.id).expect("finite quota");
        let c = s.session_counters(sess.id).expect("session still known");
        assert_eq!(
            sess.fuel - left,
            sess.grants - c.fuel_refunded,
            "seed {seed}: fuel books for session {}",
            sess.id
        );
    }

    s.trace().to_vec()
}

#[test]
fn seeded_interleavings_hold_invariants_and_replay_identically() {
    for seed in [1u64, 7, 42, 0xBEEF] {
        let first = stress_run(seed);
        assert_eq!(
            first,
            stress_run(seed),
            "seed {seed}: same seed must replay the same decision trace"
        );
        // The schedule actually exercised the interesting transitions.
        assert!(first.iter().any(|e| matches!(e, TraceEvent::Queued { .. })));
        assert!(first
            .iter()
            .any(|e| matches!(e, TraceEvent::Cancelled { .. })));
        assert!(first
            .iter()
            .any(|e| matches!(e, TraceEvent::SessionClosed { .. })));
    }
}

// ---------------------------------------------------------------------------
// Threaded server: isolation, cancellation, shutdown
// ---------------------------------------------------------------------------

#[test]
fn server_streams_chunked_results() {
    let server = Server::start(
        movies(),
        ServeConfig {
            workers: 2,
            chunk_size: 1,
            ..ServeConfig::default()
        },
    );
    let session = server.open_session(SessionQuota::default());
    let out = session
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap()
        .wait();
    assert_eq!(out.error, None);
    // 3 titles, one root per chunk.
    assert_eq!(out.chunks.len(), 3);
    for c in &out.chunks {
        assert!(
            Database::from_literal(c).is_ok(),
            "each chunk is a standalone literal: {c}"
        );
    }
    assert!(out.summary.unwrap().contains("results=3"));
    server.shutdown();
}

/// An `RPE` job is the select over its path: the same envelope (the
/// estimate the books carry), the same chunks and the same summary as
/// the `QUERY` spelled out.
#[test]
fn rpe_jobs_desugar_to_selects() {
    let server = Server::start(movies(), ServeConfig::default());
    let run = |kind, text| {
        let session = server.open_session(SessionQuota::default());
        let out = session.submit(kind, text).unwrap().wait();
        (session.counters().unwrap().fuel_estimated, out)
    };
    let rpe = run(JobKind::Rpe, "Entry.%.Title");
    let query = run(JobKind::Query, "select X from db.Entry.%.Title X");
    assert_eq!(rpe, query);
    assert_eq!(rpe.1.error, None);
    assert!(rpe.0 > 0, "the estimate reached the books");
    assert!(rpe.1.summary.unwrap().starts_with("results=3 "));
    server.shutdown();
}

/// A job any engine refuses statically is refused by `submit` itself:
/// nothing is admitted, estimated, granted or traced.
#[test]
fn statically_refused_jobs_are_invalid_at_submit() {
    let server = Server::start(movies(), ServeConfig::default());
    let session = server.open_session(SessionQuota {
        fuel: Some(1_000_000),
        ..SessionQuota::default()
    });
    let trace = server.trace();
    for (kind, text, why) in [
        (
            JobKind::Query,
            "select X from db.Entry.Movie Y",
            "unbound variable X",
        ),
        (
            JobKind::Rpe,
            "Entry.Movie M, M.Title",
            "trailing input after path expression",
        ),
        (
            JobKind::Datalog,
            "p(X) :- node(X), not p(X).",
            "not stratifiable",
        ),
        (
            JobKind::Datalog,
            "q(X, Y) :- edge(X, Y).",
            "predicate edge used with arity 2, expected 3",
        ),
        (JobKind::Datalog, "p(X) :- not node(X).", "unsafe program"),
    ] {
        match session.submit(kind, text) {
            Err(SubmitError::Invalid(m)) => assert!(m.contains(why), "{text}: {m}"),
            Err(e) => panic!("{text}: wrong refusal: {e}"),
            Ok(h) => panic!("{text}: scheduled as job {}", h.job),
        }
    }
    let c = session.counters().unwrap();
    assert_eq!((c.admitted, c.fuel_estimated), (0, 0));
    assert_eq!(server.trace(), trace, "the scheduler never saw them");
    server.shutdown();
}

#[test]
fn mid_stream_cancellation_stops_the_stream() {
    // Rendezvous channels: the worker blocks on every chunk until the
    // client takes it, so cancelling after the first chunk always lands
    // before the stream finishes.
    let server = Server::start(
        movies(),
        ServeConfig {
            workers: 1,
            chunk_size: 1,
            stream_buffer: 0,
            ..ServeConfig::default()
        },
    );
    let session = server.open_session(SessionQuota::default());
    let handle = session
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap();
    let job = handle.job;
    let rx = handle.events();
    let first = rx.recv().expect("first chunk");
    assert!(matches!(first, JobEvent::Chunk(_)));
    session.cancel(job).unwrap();
    let mut chunks = 1;
    let mut error = None;
    for ev in rx.iter() {
        match ev {
            JobEvent::Chunk(_) => chunks += 1,
            JobEvent::Failed(e) => {
                error = Some(e);
                break;
            }
            JobEvent::Done { .. } => break,
        }
    }
    let error = error.expect("cancelled jobs end in a failure event");
    assert!(error.contains("SSD105"), "cancellation is SSD105: {error}");
    assert!(chunks < 3, "the stream stopped early (got {chunks} chunks)");
    let m = server.shutdown();
    assert_eq!(m.counters.cancelled, 1);
}

#[test]
fn panic_is_confined_to_one_job_and_session() {
    let server = Server::start(
        movies(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let victim = server.open_session(SessionQuota::default());
    let bystander = server.open_session(SessionQuota::default());

    let boom = victim.submit(JobKind::Query, PANIC_PROBE).unwrap().wait();
    let error = boom.error.expect("panic surfaces as a failure");
    assert!(error.contains("SSD111"), "panic is SSD111: {error}");

    // The bystander session is untouched...
    let ok = bystander
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap()
        .wait();
    assert_eq!(ok.error, None);
    assert!(!ok.chunks.is_empty());

    // ...and so is the victim session itself: the worker survived.
    let again = victim
        .submit(
            JobKind::Datalog,
            "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
        )
        .unwrap()
        .wait();
    assert_eq!(again.error, None);

    let m = server.shutdown();
    assert_eq!(m.counters.panicked, 1);
    assert_eq!(m.counters.completed, 2);
    assert_eq!(victim.counters().unwrap().panicked, 1);
    assert_eq!(bystander.counters().unwrap().panicked, 0);
}

#[test]
fn graceful_shutdown_drains_queued_jobs() {
    // One worker, rendezvous streaming: j1 blocks on its first chunk,
    // so j2 and j3 are deterministically queued when shutdown begins.
    let server = Server::start(
        movies(),
        ServeConfig {
            workers: 1,
            chunk_size: 1,
            stream_buffer: 0,
            queue_cap: 8,
        },
    );
    let session = server.open_session(SessionQuota::default());
    let q = "select T from db.Entry.%.Title T";
    let j1 = session.submit(JobKind::Query, q).unwrap();
    let j2 = session.submit(JobKind::Query, q).unwrap();
    let j3 = session.submit(JobKind::Query, q).unwrap();
    assert!(!j1.queued);
    assert!(j2.queued && j3.queued);

    server.request_shutdown();
    let refused = session.submit(JobKind::Query, q);
    match refused {
        Err(ssd_serve::SubmitError::Rejected(d)) => assert_eq!(d.code.as_str(), "SSD203"),
        Err(other) => panic!("submissions during shutdown are SSD203, got {other}"),
        Ok(_) => panic!("submissions during shutdown must be rejected"),
    }

    // Draining: all three pre-shutdown jobs still complete.
    for j in [j1, j2, j3] {
        let out = j.wait();
        assert_eq!(out.error, None);
        assert_eq!(out.chunks.len(), 3);
    }
    let m = server.shutdown();
    assert_eq!(m.counters.completed, 3);
    assert_eq!(m.counters.rejected, 1);
    assert_eq!(m.queue_depth, 0);
}

#[test]
fn closing_a_session_tears_down_its_jobs_only() {
    let server = Server::start(
        movies(),
        ServeConfig {
            workers: 1,
            chunk_size: 1,
            stream_buffer: 0,
            queue_cap: 8,
        },
    );
    let doomed = server.open_session(SessionQuota::default());
    let survivor = server.open_session(SessionQuota::default());
    let q = "select T from db.Entry.%.Title T";
    // doomed's first job holds the only worker; its second job queues;
    // survivor's job queues behind them.
    let d1 = doomed.submit(JobKind::Query, q).unwrap();
    let d2 = doomed.submit(JobKind::Query, q).unwrap();
    let s1 = survivor.submit(JobKind::Query, q).unwrap();
    assert!(d2.queued && s1.queued);

    doomed.close();
    let out1 = d1.wait();
    let e = out1
        .error
        .expect("running job of a closed session is cancelled");
    assert!(e.contains("SSD105"), "{e}");
    let out2 = d2.wait();
    assert!(out2
        .error
        .expect("queued job is cancelled")
        .contains("SSD105"));

    // The survivor's job dispatches and completes untouched.
    let outs = s1.wait();
    assert_eq!(outs.error, None);
    assert_eq!(outs.chunks.len(), 3);
    server.shutdown();
}

#[test]
fn another_session_cannot_cancel_your_job() {
    let server = Server::start(movies(), ServeConfig::default());
    let victim = server.open_session(SessionQuota::default());
    let attacker = server.open_session(SessionQuota::default());
    let handle = victim
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap();
    // Whether the job is still running or already finished when this
    // lands, the attacker only ever sees SSD204 — never a teardown.
    let err = attacker.cancel(handle.job).unwrap_err();
    assert_eq!(err.code.as_str(), "SSD204");
    let out = handle.wait();
    assert_eq!(out.error, None);
    assert!(out.summary.unwrap().contains("results=3"));
    let m = server.shutdown();
    assert_eq!(m.counters.cancelled, 0);
    assert_eq!(victim.counters().unwrap().cancelled, 0);
}

#[test]
fn stats_text_has_global_and_session_sections() {
    let server = Server::start(movies(), ServeConfig::default());
    let session = server.open_session(SessionQuota::default());
    session
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap()
        .wait();
    let text = server.stats_text(Some(session.id));
    for key in [
        "admitted 1",
        "completed 1",
        "session.admitted 1",
        "latency_p50_us",
        "latency_p99_us",
        "queue_depth 0",
    ] {
        assert!(text.contains(key), "missing `{key}` in:\n{text}");
    }
    assert!(server.metrics().counters.fuel_spent > 0);
    server.shutdown();
}

#[test]
fn admission_rejection_spends_no_engine_fuel() {
    // The wildcard step keeps this shape on the interpreter, whose root
    // scan is a fuel lower bound above a one-unit job ceiling: every
    // submit is refused with SSD030 before any engine work starts.
    let server = Server::start(movies(), ServeConfig::default());
    let session = server.open_session(quota(None, 1, 64));
    for _ in 0..64 {
        let Err(SubmitError::Rejected(d)) =
            session.submit(JobKind::Query, "select T from db.Entry.%.Title T")
        else {
            panic!("expected an admission rejection");
        };
        assert_eq!(d.code.as_str(), "SSD030", "{}", d.headline());
    }
    session.close();
    let m = server.shutdown();
    assert_eq!(m.counters.rejected, 64);
    assert_eq!(m.counters.fuel_spent, 0, "rejection must cost no fuel");
}

// ---------------------------------------------------------------------------
// Durable mutations: JobKind::Commit through the store
// ---------------------------------------------------------------------------

fn store_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ssd-serve-store-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn script(ops: &[ssd_store::Op]) -> String {
    let mut txn = ssd_store::Txn::new();
    for op in ops {
        txn.push(op.clone());
    }
    txn.to_script()
}

#[test]
fn commit_jobs_write_through_the_store_and_refresh_snapshots() {
    let dir = store_dir("commit");
    ssd_store::Store::init(&dir, &movies()).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let server = Server::start_with_store(Arc::new(store), ServeConfig::default());
    assert!(server.writable());
    assert_eq!(server.generation(), Some(0));

    let session = server.open_session(SessionQuota::default());
    let out = session
        .submit(
            JobKind::Commit,
            &script(&[ssd_store::Op::Insert(
                "{Entry: {Movie: {Title: \"Z\"}}}".to_string(),
            )]),
        )
        .unwrap()
        .wait();
    assert_eq!(out.error, None);
    assert!(
        out.summary
            .as_deref()
            .unwrap_or("")
            .contains("committed generation=1"),
        "{:?}",
        out.summary
    );
    assert_eq!(server.generation(), Some(1));

    // A job submitted after the commit pins the new generation.
    let out = session
        .submit(JobKind::Query, "select T from db.Entry.%.Title T")
        .unwrap()
        .wait();
    assert_eq!(out.error, None);
    assert!(out.summary.unwrap().contains("results=4"));
    server.shutdown();
}

/// Datalog reads the snapshot's triple index in place, and a commit
/// builds the new generation's index from the new graph: a `DATALOG` job
/// after a commit on the same session must see the committed edge, not
/// the index of the generation it was first built for.
#[test]
fn datalog_after_a_commit_reads_the_new_generation() {
    const CLOSURE: &str = "reach(X, Y) :- edge(X, 'References', Y).\n\
                           reach(X, Z) :- reach(X, Y), edge(Y, 'References', Z).";
    let dir = store_dir("closure");
    let seed = Database::from_literal(
        r#"{Entry: {Movie: {Title: "A", References: {Movie: {Title: "B"}}}}}"#,
    )
    .unwrap();
    ssd_store::Store::init(&dir, &seed).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let server = Server::start_with_store(Arc::new(store), ServeConfig::default());
    let session = server.open_session(SessionQuota::default());
    let closure = |expect: &str| {
        let out = session.submit(JobKind::Datalog, CLOSURE).unwrap().wait();
        assert_eq!(out.error, None);
        assert_eq!(out.chunks, vec![expect.to_string()]);
    };
    // Builds generation 0's index, so the commit builds generation 1's.
    closure("reach: 1 tuple(s)");
    let out = session
        .submit(
            JobKind::Commit,
            &script(&[ssd_store::Op::Insert(
                r#"{Entry: {Movie: {Title: "C", References: {References: {Title: "D"}}}}}"#
                    .to_string(),
            )]),
        )
        .unwrap()
        .wait();
    assert_eq!(out.error, None);
    assert_eq!(server.generation(), Some(1));
    // Two new edges in a chain: 1 + (2 direct + 1 transitive).
    closure("reach: 4 tuple(s)");
    server.shutdown();
}

/// A `DATALOG` job is parsed against the symbols of the generation
/// admission pins for it, and runs on that generation: a label first
/// committed after start resolves once that commit is current.
#[test]
fn datalog_resolves_labels_committed_after_start() {
    let dir = store_dir("symbols");
    ssd_store::Store::init(&dir, &movies()).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let server = Server::start_with_store(Arc::new(store), ServeConfig::default());
    let session = server.open_session(SessionQuota::default());
    let insert = script(&[ssd_store::Op::Insert("{Fresh: 1}".to_string())]);
    let out = session.submit(JobKind::Commit, &insert).unwrap().wait();
    assert_eq!(out.error, None);
    let out = session
        .submit(JobKind::Datalog, "f(Y) :- edge(_X, 'Fresh', Y).")
        .unwrap()
        .wait();
    assert_eq!(out.error, None);
    assert_eq!(out.chunks, vec!["f: 1 tuple(s)".to_string()]);
    server.shutdown();
}

#[test]
fn commit_on_a_storeless_server_is_ssd403() {
    let server = Server::start(movies(), ServeConfig::default());
    assert!(!server.writable());
    assert_eq!(server.generation(), None);
    let session = server.open_session(SessionQuota::default());
    let out = session
        .submit(
            JobKind::Commit,
            &script(&[ssd_store::Op::Delete("Entry".to_string())]),
        )
        .unwrap()
        .wait();
    let err = out.error.expect("mutation on a read-only server must fail");
    assert!(err.contains("SSD403"), "{err}");
    server.shutdown();
}

#[test]
fn malformed_commit_scripts_are_rejected_at_admission() {
    let dir = store_dir("bad");
    ssd_store::Store::init(&dir, &movies()).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let server = Server::start_with_store(Arc::new(store), ServeConfig::default());
    let session = server.open_session(SessionQuota::default());
    for bad in [
        "not a txn script",
        "INSERT 5\n{a:}\n", // literal does not parse
        &script(&[]),       // empty transaction
    ] {
        let Err(err) = session.submit(JobKind::Commit, bad) else {
            panic!("`{bad}` should be rejected before admission");
        };
        assert!(
            matches!(err, SubmitError::Invalid(_)),
            "`{bad}`: wrong rejection: {err}"
        );
    }
    server.shutdown();
}

#[test]
fn commit_admission_charges_the_exact_envelope() {
    let dir = store_dir("cost");
    ssd_store::Store::init(&dir, &movies()).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let server = Server::start_with_store(Arc::new(store), ServeConfig::default());
    // A job-fuel ceiling far below the txn's exact cost: rejected up
    // front with SSD030 — the write never reaches the WAL.
    let session = server.open_session(quota(None, 2, 1));
    let Err(err) = session.submit(
        JobKind::Commit,
        &script(&[ssd_store::Op::Insert(
            "{Entry: {Movie: {Title: \"Huge\"}}}".to_string(),
        )]),
    ) else {
        panic!("expected admission rejection");
    };
    let SubmitError::Rejected(d) = err else {
        panic!("expected admission rejection, got {err}");
    };
    assert!(d.headline().contains("SSD030"), "{}", d.headline());
    assert_eq!(server.generation(), Some(0));
    server.shutdown();
}

/// Open a store seeded with `seed` and serve it, keeping a handle on the
/// store so a test can read the generation a job ran on.
fn serve_store(tag: &str, seed: &Database) -> (Arc<ssd_store::Store>, Server) {
    let dir = store_dir(tag);
    ssd_store::Store::init(&dir, seed).unwrap();
    let (store, _) = ssd_store::Store::open(&dir, &semistructured::Budget::unlimited()).unwrap();
    let store = Arc::new(store);
    let server = Server::start_with_store(Arc::clone(&store), ServeConfig::default());
    (store, server)
}

/// Admission costs a job against the generation it runs on. On
/// `examples/movies.ssd` a 4-step job ceiling is below the floor of a
/// datalog job scanning every `Title` edge (5 edges, plus the round
/// tick), so it is refused; after a commit deletes those edges the same
/// job fits, runs, and its estimate is the new generation's.
#[test]
fn admission_costs_the_generation_after_a_commit() {
    const TITLES: &str = "t(X) :- edge(X, 'Title', _Y).";
    let seed = Database::from_literal(include_str!("../examples/movies.ssd")).unwrap();
    let (store, server) = serve_store("recost", &seed);
    let tight = server.open_session(quota(None, 4, 1));
    let Err(SubmitError::Rejected(d)) = tight.submit(JobKind::Datalog, TITLES) else {
        panic!("generation 0 has 5 Title edges: expected SSD030");
    };
    assert!(
        d.headline()
            .contains("needs at least 6 step(s), limit is 4"),
        "{}",
        d.headline()
    );

    let writer = server.open_session(SessionQuota::default());
    let delete = script(&[ssd_store::Op::Delete("Title".to_string())]);
    let out = writer.submit(JobKind::Commit, &delete).unwrap().wait();
    assert_eq!(out.error, None);
    assert_eq!(server.generation(), Some(1));

    let out = match tight.submit(JobKind::Datalog, TITLES) {
        Ok(job) => job.wait(),
        Err(e) => panic!("refused on generation 1: {e}"),
    };
    assert_eq!(out.error, None);
    assert_eq!(out.chunks, vec!["t: 0 tuple(s)".to_string()]);
    let generation1 = store.snapshot();
    let program = parse_program(TITLES, generation1.graph().symbols()).unwrap();
    let ctx = CostContext::with_stats(generation1.index_stats());
    let estimate = analyze_datalog_cost(&program, None, None, &ctx)
        .envelope
        .fuel
        .lo;
    assert_eq!(estimate, 1, "no Title edge left: the round tick only");
    assert_eq!(tight.counters().unwrap().fuel_estimated, estimate);
    server.shutdown();
}

/// An interpreter-shaped select's floor scans the root's edges, so its
/// estimate follows the root fan-out of the generation it runs on: after
/// an insert adds a root edge it is generation 1's, not generation 0's.
#[test]
fn select_estimate_follows_the_root_fanout_of_its_generation() {
    const QUERY: &str = "select T from db.Entry.%.Title T";
    let (store, server) = serve_store("fanout", &movies());
    let estimate = |db: &Database| {
        let ctx = CostContext::with_stats(db.index_stats());
        analyze_query_cost(&parse_query(QUERY).unwrap(), None, &ctx)
            .envelope
            .fuel
            .lo
    };
    let generation0 = estimate(&store.snapshot());

    let writer = server.open_session(SessionQuota::default());
    let insert = script(&[ssd_store::Op::Insert(
        "{Entry: {Movie: {Title: \"Z\"}}}".to_string(),
    )]);
    let out = writer.submit(JobKind::Commit, &insert).unwrap().wait();
    assert_eq!(out.error, None);
    let generation1 = estimate(&store.snapshot());
    assert!(generation1 > generation0, "{generation1} vs {generation0}");

    let reader = server.open_session(SessionQuota::default());
    let out = reader.submit(JobKind::Query, QUERY).unwrap().wait();
    assert_eq!(out.error, None);
    assert!(out.summary.unwrap().contains("results=4"));
    assert_eq!(reader.counters().unwrap().fuel_estimated, generation1);
    server.shutdown();
}
