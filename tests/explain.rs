//! Golden-file tests for `ssd explain --analyze` and for the datalog
//! access paths of `ssd check ... datalog --explain`, plus the programmatic
//! counterpart: on `examples/movies.ssd` the statically estimated
//! `CostEnvelope` must bracket the actuals the tracer measures — the
//! same soundness contract `tests/cost_soundness.rs` checks with
//! random graphs, pinned here to the shipped example so the rendered
//! output stays reviewable.
//!
//! Numbers in the explain golden file are masked (`N`) so cosmetic cost-model
//! retuning does not churn the fixture; the *bracketing* is asserted
//! exactly, not masked.

use std::io::Cursor;
use std::path::Path;

use semistructured::trace::{SharedRing, Tracer};
use semistructured::{Bound, Budget, Database};

const QUERY: &str = "select T from db.Entry.Movie.Title T";

fn repo_path(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
        .to_string_lossy()
        .into_owned()
}

fn run_cli(args: &[&str]) -> String {
    let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
    ssd_cli::run(&owned, &mut Cursor::new(&b""[..])).expect("cli run failed")
}

/// Replace every maximal digit run with `N` so the golden file pins
/// *structure* (lines, labels, ordering) rather than exact counters.
fn mask_digits(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_digits = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
                in_digits = true;
            }
        } else {
            in_digits = false;
            out.push(c);
        }
    }
    out
}

#[test]
fn explain_analyze_matches_golden() {
    let movies = repo_path("examples/movies.ssd");
    let out = run_cli(&["explain", &movies, QUERY, "--analyze"]);
    let masked = mask_digits(out.trim_end());
    let golden_path = repo_path("tests/golden/explain_movies.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if masked != golden.trim_end() && std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{masked}\n")).expect("write golden");
        return;
    }
    assert_eq!(
        masked,
        golden.trim_end(),
        "ssd explain --analyze drifted from tests/golden/explain_movies.txt \
         (run with UPDATE_GOLDEN=1 to regenerate)"
    );
}

/// Recursion, a builtin, a constant label in each join position and
/// stratified negation: every kind of access path `ssd check ... datalog
/// --explain` can print.
const PROGRAM: &str = "reach(X) :- root(X).\n\
    reach(Y) :- reach(X), edge(X, _L, Y).\n\
    old(M) :- reach(M), edge(M, 'Year', Y), edge(Y, V, _Z), lt(V, 1945).\n\
    recent(M) :- edge(_E, 'Movie', M), not old(M).";

#[test]
fn check_datalog_explain_matches_golden() {
    let movies = repo_path("examples/movies.ssd");
    let out = run_cli(&["check", &movies, "datalog", PROGRAM, "--explain"]);
    let golden_path = repo_path("tests/golden/check_datalog_movies.txt");
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if out.trim_end() != golden.trim_end() && std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{}\n", out.trim_end())).expect("write golden");
        return;
    }
    assert_eq!(
        out.trim_end(),
        golden.trim_end(),
        "ssd check datalog --explain drifted from tests/golden/check_datalog_movies.txt \
         (run with UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn explain_plain_shows_estimate_only() {
    let movies = repo_path("examples/movies.ssd");
    let out = run_cli(&["explain", &movies, QUERY]);
    assert!(out.contains("estimated cost"), "missing estimate: {out}");
    assert!(
        !out.contains("actual cost"),
        "plain explain must not evaluate: {out}"
    );
}

/// The estimate printed by `explain` brackets the actuals measured by
/// `explain --analyze` — checked here on real counters, not rendered
/// text, against the shipped example database.
#[test]
fn estimated_envelope_brackets_traced_actuals_on_movies() {
    let text = std::fs::read_to_string(repo_path("examples/movies.ssd")).unwrap();
    let db = Database::from_literal(&text).unwrap();
    let analysis = db.estimate_query(QUERY).expect("estimate failed");
    let env = &analysis.envelope;

    let ring = SharedRing::new(semistructured::trace::DEFAULT_RING_CAP);
    let tracer = Tracer::with_sink(Box::new(ring.clone()));
    let guard = Budget::metered().guard();
    let result = db
        .query_traced(QUERY, Some(&guard), Some(&tracer))
        .expect("traced evaluation failed");
    tracer.flush();

    let fuel = guard.steps_used();
    let memory = guard.memory_used();
    assert!(
        fuel >= env.fuel.lo,
        "actual fuel {fuel} below estimated lower bound {}",
        env.fuel.lo
    );
    if let Bound::Finite(hi) = env.fuel.hi {
        assert!(fuel <= hi, "actual fuel {fuel} above estimated bound {hi}");
    }
    if let Bound::Finite(hi) = env.memory.hi {
        assert!(
            memory <= hi,
            "actual memory {memory} above estimated bound {hi}"
        );
    }
    if let Bound::Finite(hi) = env.cardinality.hi {
        let n = result.stats().results_constructed as u64;
        assert!(n <= hi, "result count {n} above estimated cardinality {hi}");
    }

    // And the trace itself is well-formed and attributes the work.
    let events = ring.snapshot();
    semistructured::trace::validate(&events).expect("trace must validate");
    let totals = semistructured::trace::phase_totals(&events);
    assert!(
        totals.contains("eval"),
        "missing eval phase totals: {totals}"
    );
}

/// `explain` names the index permutations per binding for a batchable
/// shape — at any size, the tiny shipped example included — and names
/// the interpreter, citing SSD050 with the shape, for an unbatchable one.
#[test]
fn explain_names_the_chosen_access_path_per_binding() {
    let movies = repo_path("examples/movies.ssd");
    let out = run_cli(&[
        "explain",
        &movies,
        "select T from db.Entry E, E.Movie M, M.Title T",
    ]);
    assert_eq!(out.matches("access=index(").count(), 3, "{out}");
    assert!(!out.contains("SSD050"), "no fallback note expected: {out}");

    let out = run_cli(&[
        "explain",
        &movies,
        "select T from db.Entry.Movie.References*.Title T",
    ]);
    assert!(
        out.contains("access=interpreter(nfa-scan)"),
        "a Kleene-star path keeps the interpreter: {out}"
    );
    assert!(
        out.contains("SSD050") && out.contains("Kleene star"),
        "fallback note must name the shape: {out}"
    );
}
