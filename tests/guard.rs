//! Integration tests for `ssd-guard`: every evaluator entry point
//! accepts a budget and (a) surfaces each exhaustion kind as a rendered
//! SSD1xx diagnostic, (b) fires every fault-injection seam, (c) returns
//! well-formed partial results in graceful-degradation mode, and (d) is
//! deterministic for a fixed budget.

use semistructured::schema::{FP_DATAGUIDE_STATE, FP_SCHEMA_EXTRACT};
use semistructured::triples::datalog::FP_DATALOG_ROUND;
use semistructured::{Budget, CancelToken, DataGuide, Database, Exhausted};

const FP_SELECT_BINDING: &str = semistructured::query::lang::eval::FP_SELECT_BINDING;
const FP_RPE_STEP: &str = semistructured::query::rpe::eval::FP_RPE_STEP;
const FP_GEXT_NODE: &str = semistructured::query::recursion::FP_GEXT_NODE;

/// A movie database with `n` entries — big enough that per-step budgets
/// bite before evaluation finishes.
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

/// A flat graph with `n` anonymous children; quadratic datalog rules over
/// `node/1` turn it into an arbitrarily heavy workload.
fn flat(n: usize) -> Database {
    let entries: Vec<String> = (0..n).map(|i| format!("n{i}")).collect();
    Database::from_literal(&format!("{{{}}}", entries.join(", "))).unwrap()
}

const TC: &str = "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).";
const SELECT: &str = "select T from db.Entry.Movie.Title T";
/// An interpreter-only shape (wildcard step): the `select.binding` and
/// `rpe.step` seams live in the interpreter.
const INTERP_SELECT: &str = "select T from db.Entry.%.Title T";

// ---------------------------------------------------------------- fault
// injection: every seam, every evaluator.

#[test]
fn fault_injection_select_binding() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_SELECT_BINDING, 1);
    let err = db.query_with(INTERP_SELECT, &budget.guard()).err().unwrap();
    assert!(err.contains("SSD106"), "{err}");
    assert!(err.contains(FP_SELECT_BINDING), "{err}");
}

#[test]
fn fault_injection_rpe_step() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_RPE_STEP, 1);
    let err = db.query_with(INTERP_SELECT, &budget.guard()).err().unwrap();
    assert!(err.contains("SSD106"), "{err}");
    assert!(err.contains(FP_RPE_STEP), "{err}");
}

#[test]
fn fault_injection_recursion_node() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_GEXT_NODE, 1);
    let err = db
        .rewrite_with("rewrite case Cast => collapse", &budget.guard())
        .err()
        .unwrap();
    assert!(err.contains("SSD106"), "{err}");
}

#[test]
fn fault_injection_datalog_round() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_DATALOG_ROUND, 1);
    let err = db.datalog_with(TC, &budget.guard()).err().unwrap();
    assert!(err.contains("SSD106"), "{err}");
}

#[test]
fn fault_injection_dataguide_state() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_DATAGUIDE_STATE, 1);
    let err = DataGuide::try_build(db.graph(), &budget.guard())
        .err()
        .unwrap();
    assert_eq!(
        err,
        Exhausted::Fault {
            site: FP_DATAGUIDE_STATE.to_string()
        }
    );
}

#[test]
fn fault_injection_schema_extract() {
    let db = movies(5);
    let budget = Budget::unlimited().fail_at(FP_SCHEMA_EXTRACT, 1);
    let err = db.extract_schema_with(&budget.guard()).err().unwrap();
    assert!(err.contains("SSD106"), "{err}");
}

#[test]
fn fault_injection_is_one_shot_and_countdown_based() {
    let db = movies(5);
    // Firing on the 10_000th hit never triggers on this tiny input...
    let budget = Budget::unlimited().fail_at(FP_SELECT_BINDING, 10_000);
    assert!(db.query_with(INTERP_SELECT, &budget.guard()).is_ok());
    // ...while a later hit of a seam that is reached repeatedly does:
    // with three binding levels the seam fires once per enumerated prefix.
    let nested = "select T from db.Entry E, E.% M, M.Title T";
    let budget = Budget::unlimited().fail_at(FP_SELECT_BINDING, 3);
    assert!(db.query_with(nested, &budget.guard()).is_err());
}

// ---------------------------------------------------------------- every
// exhaustion kind, per evaluator.

#[test]
fn select_surfaces_all_exhaustion_kinds() {
    let db = movies(50);
    let cases: Vec<(Budget, &str)> = vec![
        (Budget::unlimited().max_steps(3), "SSD101"),
        (Budget::unlimited().max_memory_bytes(64), "SSD102"),
        (
            Budget::unlimited().timeout(std::time::Duration::ZERO),
            "SSD103",
        ),
    ];
    for (budget, code) in cases {
        let err = db.query_with(SELECT, &budget.guard()).err().unwrap();
        assert!(err.contains(code), "expected {code}, got: {err}");
    }
    // Depth: binding nesting depth in the enumerator.
    let nested = "select T from db.Entry E, E.Movie M, M.Title T";
    let err = db
        .query_with(nested, &Budget::unlimited().max_depth(1).guard())
        .err()
        .unwrap();
    assert!(err.contains("SSD104"), "{err}");
}

#[test]
fn datalog_surfaces_steps_memory_deadline_cancel() {
    let db = movies(20);
    let cases: Vec<(Budget, &str)> = vec![
        (Budget::unlimited().max_steps(5), "SSD101"),
        (Budget::unlimited().max_memory_bytes(100), "SSD102"),
        (
            Budget::unlimited().timeout(std::time::Duration::ZERO),
            "SSD103",
        ),
    ];
    for (budget, code) in cases {
        let err = db.datalog_with(TC, &budget.guard()).err().unwrap();
        assert!(err.contains(code), "expected {code}, got: {err}");
    }
    let pre_cancelled = CancelToken::new();
    pre_cancelled.cancel();
    let budget = Budget::unlimited().cancel_token(pre_cancelled);
    let err = db.datalog_with(TC, &budget.guard()).err().unwrap();
    assert!(err.contains("SSD105"), "{err}");
}

#[test]
fn rewrite_schema_dataguide_surface_step_exhaustion() {
    let db = movies(20);
    let b = || Budget::unlimited().max_steps(2);
    let err = db
        .rewrite_with("rewrite case Cast => collapse", &b().guard())
        .err()
        .unwrap();
    assert!(err.contains("SSD101"), "{err}");
    let err = db.extract_schema_with(&b().guard()).err().unwrap();
    assert!(err.contains("SSD101"), "{err}");
    let err = DataGuide::try_build(db.graph(), &b().guard())
        .err()
        .unwrap();
    assert_eq!(err, Exhausted::Steps { limit: 2 });
}

#[test]
fn dataguide_surfaces_memory_exhaustion() {
    let db = movies(20);
    let budget = Budget::unlimited().max_memory_bytes(8);
    let err = DataGuide::try_build(db.graph(), &budget.guard())
        .err()
        .unwrap();
    assert!(matches!(err, Exhausted::Memory { .. }), "{err:?}");
}

// ---------------------------------------------------------------- partial
// (graceful degradation) mode: well-formed results + truncation note.

#[test]
fn partial_select_returns_well_formed_graph() {
    let db = movies(50);
    let budget = Budget::unlimited().max_steps(40).partial(true);
    let result = db.query_with(SELECT, &budget.guard()).unwrap();
    let truncated = result.stats().truncated.clone().expect("must truncate");
    assert!(truncated.contains("SSD101"), "{truncated}");
    assert!(
        result.stats().warnings.iter().any(|w| w.contains("SSD107")),
        "{:?}",
        result.stats().warnings
    );
    // The partial result graph is well-formed: its literal form re-parses.
    let lit = result.to_literal();
    Database::from_literal(&lit).expect("partial result must re-parse");
    // And it is a strict under-approximation of the full result.
    let full = db.query(SELECT).unwrap();
    assert!(
        result.graph().out_degree(result.graph().root())
            <= full.graph().out_degree(full.graph().root())
    );
}

#[test]
fn partial_datalog_keeps_head_predicates_well_formed() {
    let db = movies(20);
    let budget = Budget::unlimited().max_steps(10).partial(true);
    let eval = db.datalog_with(TC, &budget.guard()).unwrap();
    assert!(eval.truncated.is_some());
    // Head predicates exist even when truncation skipped their strata.
    assert!(eval.predicates().any(|p| p == "reach"));
    // Tuples are an under-approximation of the full fixpoint.
    let full = db.datalog(TC).unwrap();
    assert!(eval.count("reach") <= full.count("reach"));
}

#[test]
fn partial_rewrite_returns_well_formed_graph() {
    let db = movies(30);
    let budget = Budget::unlimited().max_steps(20).partial(true);
    let out = db
        .rewrite_with("rewrite case Cast => collapse", &budget.guard())
        .unwrap();
    Database::from_literal(&out.to_literal()).expect("partial rewrite must re-parse");
}

#[test]
fn partial_schema_and_dataguide_are_usable() {
    let db = movies(30);
    let budget = Budget::unlimited().max_steps(25).partial(true);
    let guard = budget.guard();
    let schema = db.extract_schema_with(&guard).unwrap();
    let _ = schema.to_string();
    let budget = Budget::unlimited().max_steps(25).partial(true);
    let guard = budget.guard();
    let guide = DataGuide::try_build(db.graph(), &guard).unwrap();
    assert!(guard.truncation().is_some());
    let _ = guide.node_count();
}

// ---------------------------------------------------------------- budget
// outcomes are deterministic.

#[test]
fn step_limited_runs_are_deterministic() {
    let db = movies(40);
    let run = || {
        let budget = Budget::unlimited().max_steps(60).partial(true);
        let result = db.query_with(SELECT, &budget.guard()).unwrap();
        (result.to_literal(), result.stats().truncated.clone())
    };
    let (lit1, trunc1) = run();
    let (lit2, trunc2) = run();
    assert_eq!(lit1, lit2);
    assert_eq!(trunc1, trunc2);
}

#[test]
fn datalog_step_limited_runs_are_deterministic() {
    let db = movies(20);
    let run = || {
        let budget = Budget::unlimited().max_steps(200).partial(true);
        let eval = db.datalog_with(TC, &budget.guard()).unwrap();
        let counts: Vec<(String, usize)> = eval
            .predicates()
            .map(|p| (p.to_owned(), eval.count(p)))
            .collect();
        (counts, eval.iterations, eval.truncated.clone())
    };
    assert_eq!(run(), run());
}

#[test]
fn hard_exhaustion_points_are_deterministic() {
    let db = movies(30);
    let run = || {
        db.query_with(SELECT, &Budget::unlimited().max_steps(25).guard())
            .err()
            .unwrap()
    };
    assert_eq!(run(), run());
}

// ---------------------------------------------------------------- cancellation
// stops a running fixpoint promptly.

#[test]
fn cancellation_mid_fixpoint_stops_datalog() {
    // Quadratic rules over an 80-node flat graph: far more join work than
    // can finish before the cancel lands, but bounded if it ever ran dry.
    let db = flat(80);
    let program = "p(X, Y) :- node(X), node(Y).\nq(X, Z) :- p(X, Y), p(Y, Z).";
    let token = CancelToken::new();
    let budget = Budget::unlimited().cancel_token(token.clone());
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            token.cancel();
        })
    };
    let started = std::time::Instant::now();
    let result = db.datalog_with(program, &budget.guard());
    let elapsed = started.elapsed();
    canceller.join().unwrap();
    let err = result.err().unwrap();
    assert!(err.contains("SSD105"), "{err}");
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "cancellation took {elapsed:?}"
    );
}
