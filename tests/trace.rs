//! Integration tests for `ssd-trace`: across every traced evaluator —
//! select, datalog, and bare RPEs — and every outcome — success,
//! fuel/memory exhaustion, cancellation, injected faults, and panics —
//! the emitted event stream is *well-formed*:
//! strictly increasing sequence numbers, every span opened is closed
//! exactly once, and parent links are acyclic (a parent always opens
//! before its children). `semistructured::trace::validate` checks all
//! of that; these tests drive it with proptest.

use proptest::prelude::*;
use semistructured::trace::{self, Phase, SharedRing, Tracer};
use semistructured::{Budget, CancelToken, Database};

const FP_SELECT_BINDING: &str = semistructured::query::lang::eval::FP_SELECT_BINDING;

fn movies(n: usize) -> Database {
    let entries: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "Entry: {{Movie: {{Title: \"M{i}\", Cast: {{Actors: \"A{i}\"}}, Year: {}}}}}",
                1900 + i
            )
        })
        .collect();
    Database::from_literal(&format!("{{{}}}", entries.join(", "))).unwrap()
}

const SELECT: &str = "select T from db.Entry.Movie.Title T";
const JOIN: &str = "select {t: T, a: A} from db.Entry.Movie M, M.Title T, M.Cast.Actors A";
const TC: &str = "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).";

fn ring_tracer() -> (Tracer, SharedRing) {
    let ring = SharedRing::new(8192);
    let tracer = Tracer::with_sink(Box::new(ring.clone()));
    (tracer, ring)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every combination of evaluator, budget, cancellation, and fault
    /// injection yields a well-formed trace — success and failure alike.
    #[test]
    fn traces_are_well_formed(
        n in 1usize..16,
        fuel_raw in 0u64..1_500,
        kind in 0u8..4,
        cancelled in any::<bool>(),
        inject in any::<bool>(),
    ) {
        // 0 means "no explicit fuel cap" — the metered default applies.
        let fuel = (fuel_raw > 0).then_some(fuel_raw);
        let db = movies(n);
        let (tracer, ring) = ring_tracer();
        let mut budget = Budget::metered();
        if let Some(f) = fuel {
            budget = budget.max_steps(f);
        }
        if inject {
            budget = budget.fail_at(FP_SELECT_BINDING, 2);
        }
        let token = CancelToken::new();
        if cancelled {
            token.cancel();
        }
        let budget = budget.cancel_token(token);
        let guard = budget.guard();
        match kind {
            0 => {
                let _ = db.query_traced(SELECT, Some(&guard), Some(&tracer));
            }
            1 => {
                let _ = db.query_traced(JOIN, Some(&guard), Some(&tracer));
            }
            2 => {
                let _ = db.datalog_traced(TC, Some(&guard), Some(&tracer));
            }
            _ => {
                // A bare RPE through the standalone traced entry point.
                let q = semistructured::query::parse_query(SELECT).unwrap();
                let _ = semistructured::query::rpe::eval_rpe_traced(
                    db.graph(),
                    db.graph().root(),
                    &q.bindings[0].path,
                    &guard,
                    Some(&tracer),
                );
            }
        }
        tracer.flush();
        let events = ring.snapshot();
        prop_assert!(!events.is_empty(), "a traced run must emit events");
        if let Err(why) = trace::validate(&events) {
            return Err(TestCaseError::Fail(format!("malformed trace: {why}")));
        }
    }

    /// Detached (cross-thread) span ids stitch into the same validity
    /// contract: open once, close once, in seq order.
    #[test]
    fn detached_spans_validate(jobs in 1usize..20) {
        let (tracer, ring) = ring_tracer();
        let ids: Vec<u64> = (0..jobs)
            .map(|i| {
                tracer.open_detached(
                    Phase::Serve,
                    "job",
                    0,
                    vec![("job", (i as u64).into())],
                )
            })
            .collect();
        // Close in reverse order — detached spans need not nest.
        for &id in ids.iter().rev() {
            tracer.close_detached(id, Phase::Serve, "job", 1, 0, Vec::new());
        }
        tracer.flush();
        prop_assert!(trace::validate(&ring.snapshot()).is_ok());
    }
}

/// A panic while spans are open must not corrupt the stream: `Span`'s
/// drop closes it during unwinding, so the trace stays well-formed and
/// the tracer stays usable afterwards.
#[test]
fn spans_close_during_panic_unwind() {
    let (tracer, ring) = ring_tracer();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _outer = tracer.span(Phase::Eval, "outer", None);
        let _inner = tracer.span(Phase::Eval, "inner", None);
        panic!("deliberate test panic");
    }));
    assert!(unwound.is_err());
    tracer.flush();
    trace::validate(&ring.snapshot()).expect("trace must survive unwinding");
    // The tracer is still usable after the panic.
    drop(tracer.span(Phase::Eval, "after", None));
    tracer.flush();
    trace::validate(&ring.snapshot()).expect("tracer must stay usable");
}

/// Exhaustion mid-evaluation emits the guard event and still closes
/// every open span.
#[test]
fn exhaustion_emits_guard_event_and_closes_spans() {
    let db = movies(50);
    let (tracer, ring) = ring_tracer();
    let budget = Budget::metered().max_steps(10);
    let guard = budget.guard();
    let err = db.query_traced(SELECT, Some(&guard), Some(&tracer));
    assert!(err.is_err(), "10 fuel cannot evaluate 50 movies");
    tracer.flush();
    let events = ring.snapshot();
    trace::validate(&events).expect("exhausted trace must be well-formed");
    assert!(
        events
            .iter()
            .any(|e| e.phase == Phase::Guard && e.name == "exhausted"),
        "expected a guard exhaustion event"
    );
}

/// Cancellation surfaces like exhaustion: a guard event, then clean
/// span closure.
#[test]
fn cancellation_closes_spans() {
    let db = movies(20);
    let (tracer, ring) = ring_tracer();
    let token = CancelToken::new();
    token.cancel();
    let budget = Budget::metered().cancel_token(token);
    let guard = budget.guard();
    let err = db.datalog_traced(TC, Some(&guard), Some(&tracer));
    assert!(err.is_err(), "a pre-cancelled token must stop evaluation");
    tracer.flush();
    trace::validate(&ring.snapshot()).expect("cancelled trace must be well-formed");
}

/// The datalog span names the EDB it read (the snapshot's triple index,
/// in place), and every round span carries its delta and rule-evaluation
/// counts; the deltas add up to the tuples derived.
#[test]
fn datalog_span_names_its_edb_and_rounds_report_deltas() {
    let db = movies(5);
    let (tracer, ring) = ring_tracer();
    let eval = db.datalog_traced(TC, None, Some(&tracer)).unwrap();
    tracer.flush();
    let events = ring.snapshot();
    let field = |e: &trace::Event, key: &str| {
        e.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    let whole = events
        .iter()
        .find(|e| e.phase == Phase::Datalog && e.name == "datalog" && !e.fields.is_empty())
        .expect("a closed datalog span");
    assert_eq!(field(whole, "edb"), Some("index".into()));
    let deltas: u64 = events
        .iter()
        .filter(|e| e.phase == Phase::Datalog && e.name == "round")
        .filter_map(|e| {
            assert!(field(e, "rule_evals").is_some() == field(e, "delta").is_some());
            match field(e, "delta") {
                Some(trace::FieldValue::U64(n)) => Some(n),
                _ => None,
            }
        })
        .sum();
    assert_eq!(deltas, eval.count("reach") as u64);
}

/// Both engines say how many distinct top-level edges the union of the
/// constructed results left: the interpreter on its `select` span, the
/// pipeline on `project` — beside `results`, which counts before the
/// union.
#[test]
fn select_spans_report_root_edges_after_the_union() {
    let db = movies(20);
    let closed = |text: &str, span: &str, key: &str| {
        let (tracer, ring) = ring_tracer();
        db.query_traced(text, None, Some(&tracer)).unwrap();
        tracer.flush();
        let events = ring.snapshot();
        let field = events
            .iter()
            .filter(|e| e.name == span)
            .find_map(|e| e.fields.iter().find(|(k, _)| *k == key))
            .map(|(_, v)| v.to_string());
        field.unwrap_or_else(|| panic!("no `{key}` on a closed `{span}` span for {text}"))
    };
    // Three label names, sixty times over, all onto one shared leaf.
    let labels = "select L from db.Entry.Movie.^L X";
    assert_eq!(closed(labels, "select", "results"), "60");
    assert_eq!(closed(labels, "select", "root_edges"), "3");
    assert_eq!(closed(SELECT, "project", "rows"), "20");
    assert_eq!(closed(SELECT, "project", "root_edges"), "20");
}
