//! Integration tests for the `ssd-analyze` static-analysis pass, run over
//! generated datasets (ssd-data movies / webgraph): every SSD0xx code
//! fires at least once with a source span, clean inputs yield zero
//! diagnostics, `ssd check`, the library and a server session refuse
//! exactly the same sources, and — property-tested — analyzer-accepted
//! queries never fail evaluation.

use std::sync::Arc;

use proptest::prelude::*;
use semistructured::diag::{Code, DiagnosticSink, Severity};
use semistructured::query::lang::{
    Binding, CmpOp, Cond, Construct, EvalOptions, Expr, SelectQuery, Source,
};
use semistructured::query::Rpe;
use semistructured::Database;
use ssd_serve::{JobKind, ServeConfig, Server, SessionQuota, SubmitError};

fn movie_db() -> Database {
    Database::new(semistructured::data::movies::movie_database(
        &semistructured::data::movies::MovieDbConfig::sized(60),
    ))
}

fn web_db() -> Database {
    Database::new(semistructured::data::webgraph::web_graph(
        &semistructured::data::webgraph::WebGraphConfig {
            pages: 50,
            ..Default::default()
        },
    ))
}

/// Sources that must trigger each query-side diagnostic code.
const QUERY_CASES: &[(Code, &str)] = &[
    (Code::UnboundVariable, "select X from db.Entry _E"),
    (
        Code::UseBeforeBind,
        "select T from M.Title T, db.Entry.Movie M",
    ),
    (
        Code::DuplicateBinding,
        "select M from db.Entry M, db.Entry M",
    ),
    (Code::UnusedBinding, "select M from db.Entry M, M.Movie N"),
    (Code::LabelVarMisuse, "select X from db.(^L)*.%* X"),
    (Code::EmptyPath, "select X from db.Bogus.Nowhere X"),
];

/// Sources that must trigger each datalog-side diagnostic code.
const DATALOG_CASES: &[(Code, &str)] = &[
    (Code::DatalogUnsafe, "q(X, Y) :- node(X)."),
    (Code::DatalogArityMismatch, "q(X) :- edge(X, Y), node(Y)."),
    (
        Code::DatalogNotStratifiable,
        "win(X) :- edge(X, _L, Y), not win(Y).",
    ),
    (Code::DatalogUndefinedPredicate, "q(X) :- nodes(X)."),
    (
        Code::DatalogUnreachableRule,
        "orphan(X) :- node(X).\nresult(X) :- root(X).",
    ),
    (Code::DatalogHeadWildcard, "q(_) :- node(_)."),
    (
        Code::DatalogSingletonVariable,
        "q(X) :- edge(X, L, Y), node(Y).",
    ),
];

#[test]
fn every_query_code_fires_with_a_span_on_movie_data() {
    let db = movie_db();
    for (code, src) in QUERY_CASES {
        let analysis = db.check_query(src).unwrap();
        let hit = analysis
            .diagnostics
            .iter()
            .find(|d| d.code == *code)
            .unwrap_or_else(|| {
                panic!(
                    "{code} did not fire for {src:?}: {:?}",
                    analysis.diagnostics
                )
            });
        assert!(hit.span.is_some(), "{code} on {src:?} lacks a span");
        assert_eq!(hit.severity, code.severity());
    }
}

#[test]
fn every_datalog_code_fires_with_a_span_on_web_data() {
    let db = web_db();
    for (code, src) in DATALOG_CASES {
        let diags = db.check_datalog(src).unwrap();
        let hit = diags
            .iter()
            .find(|d| d.code == *code)
            .unwrap_or_else(|| panic!("{code} did not fire for {src:?}: {diags:?}"));
        assert!(hit.span.is_some(), "{code} on {src:?} lacks a span");
    }
}

/// The cost band (SSD03x) is opt-in: it comes from the estimator
/// (`estimate_query`/`estimate_datalog`, CLI `--estimate`/`--admission`)
/// rather than from `check_query`, so it gets its own driver.
#[test]
fn every_cost_code_fires_through_the_estimator() {
    let db = movie_db();
    // SSD030: even the cheapest interpreter run cannot fit a 1-step budget.
    let est = db
        .estimate_query("select T from db.Entry.%.Title T")
        .unwrap();
    let rejection = semistructured::Budget::unlimited()
        .max_steps(1)
        .admit(&est.envelope)
        .unwrap_err();
    assert_eq!(rejection.code, Code::CostExceedsBudget);
    // SSD031: star over the cyclic movie graph has no finite word bound.
    let est = db.estimate_query("select X from db.%* X").unwrap();
    assert!(
        est.diagnostics
            .iter()
            .any(|d| d.code == Code::UnboundedCost),
        "{:?}",
        est.diagnostics
    );
    // SSD032: two bindings sharing no variable multiply out.
    let est = db
        .estimate_query("select {m: M, n: N} from db.Entry M, db.Entry N")
        .unwrap();
    let cross = est
        .diagnostics
        .iter()
        .find(|d| d.code == Code::CrossProductJoin)
        .unwrap();
    assert!(cross.span.is_some(), "SSD032 lacks a span");
    // SSD033: with no statistics the estimate is widened, with a reason.
    let q = semistructured::query::parse_query("select T from db.Entry.Movie.Title T").unwrap();
    let a = semistructured::query::analyze::analyze_query_cost(
        &q,
        None,
        &semistructured::query::analyze::CostContext::default(),
    );
    assert!(
        a.diagnostics
            .iter()
            .any(|d| d.code == Code::ImpreciseEstimate),
        "{:?}",
        a.diagnostics
    );
}

#[test]
fn all_static_codes_are_covered_by_the_cases() {
    // Runtime-governance codes (SSD1xx/SSD2xx) are exercised by
    // tests/guard.rs and tests/serve.rs; the cost band (SSD03x) by
    // every_cost_code_fires_through_the_estimator and
    // tests/cost_soundness.rs; SSD034 by the CLI's
    // strict-admission-overrides-partial test; this file's tables own
    // the rest.
    let cost_band = [
        Code::CostExceedsBudget,
        Code::UnboundedCost,
        Code::CrossProductJoin,
        Code::ImpreciseEstimate,
        Code::AdmissionOverridesPartial,
    ];
    // The SSD05x execution band (SSD050 index fallback) is emitted by
    // the access-path planner, not the query/datalog analyzers;
    // tests/index.rs exercises it.
    let index_band = [Code::IndexFallback];
    let covered: Vec<Code> = QUERY_CASES
        .iter()
        .chain(DATALOG_CASES)
        .map(|(c, _)| *c)
        .chain(cost_band)
        .chain(index_band)
        .collect();
    // SSD9xx source lints are exercised by tests/lint.rs, not by the
    // query/datalog analyzers.
    for &code in Code::all()
        .iter()
        .filter(|c| !c.is_runtime() && !c.is_lint())
    {
        assert!(covered.contains(&code), "no test case triggers {code}");
    }
}

#[test]
fn clean_query_and_program_yield_zero_diagnostics() {
    let movies = movie_db();
    let a = movies
        .check_query("select {Title: T} from db.Entry.Movie M, M.Title T")
        .unwrap();
    assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    assert!(a.types.is_some());

    let web = web_db();
    let d = web
        .check_datalog(
            "reach(X) :- root(X).\n\
             reach(Y) :- reach(X), edge(X, _L, Y).",
        )
        .unwrap();
    assert!(d.is_empty(), "{d:?}");
}

/// One refusal set per language: `ssd check` (`check_query` /
/// `check_datalog`) reports an error exactly when the library
/// (`query` / `datalog`) and a server session's `submit` refuse the
/// source, and each refusal carries the code of the first error.
#[test]
fn check_library_and_server_refuse_the_same_sources() {
    let db = Arc::new(movie_db());
    let server = Server::start(Arc::clone(&db), ServeConfig::default());
    let session = server.open_session(SessionQuota {
        fuel: None,
        ..SessionQuota::default()
    });
    let clean_query = "select {Title: T} from db.Entry.Movie M, M.Title T";
    let clean_program = "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).";
    let queries = QUERY_CASES.iter().map(|(_, src)| *src).chain([clean_query]);
    let programs = DATALOG_CASES
        .iter()
        .map(|(_, src)| *src)
        .chain([clean_program]);
    let sources = queries
        .map(|src| (JobKind::Query, src))
        .chain(programs.map(|src| (JobKind::Datalog, src)));
    for (kind, src) in sources {
        let (checked, library) = if kind == JobKind::Query {
            let diags = db.check_query(src).unwrap().diagnostics;
            (diags, db.query(src).err())
        } else {
            (db.check_datalog(src).unwrap(), db.datalog(src).err())
        };
        let first_error = checked.iter().find(|d| d.is_error()).map(|d| d.code);
        let served = match session.submit(kind, src) {
            Err(SubmitError::Invalid(m)) => Some(m),
            Err(e) => panic!("{src:?}: refused by admission control: {e}"),
            Ok(h) => {
                let out = h.wait();
                assert_eq!(out.error, None, "{src:?} failed after admission");
                None
            }
        };
        assert_eq!(
            library.is_some(),
            first_error.is_some(),
            "{src:?}: check found {first_error:?}, the library said {library:?}"
        );
        assert_eq!(
            served.is_some(),
            first_error.is_some(),
            "{src:?}: check found {first_error:?}, the server said {served:?}"
        );
        if let Some(code) = first_error {
            for refusal in [library, served].into_iter().flatten() {
                assert!(refusal.contains(code.as_str()), "{src:?}: {refusal}");
            }
        }
    }
    server.shutdown();
}

#[test]
fn diagnostics_render_with_carets() {
    let db = movie_db();
    let src = "select X from db.Entry _E";
    let a = db.check_query(src).unwrap();
    let rendered = a.diagnostics.render_all(src, "query");
    assert!(rendered.contains("error[SSD001]"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
    assert!(rendered.contains("--> query:1:"), "{rendered}");
}

#[test]
fn warnings_do_not_block_evaluation_errors_do() {
    let db = movie_db();
    // SSD004 (warning): runs, and the warning reaches EvalStats.
    let warned = db
        .query("select M from db.Entry M, M.Movie _X, db.Entry Unused")
        .unwrap();
    assert!(
        warned.stats().warnings.iter().any(|w| w.contains("SSD004")),
        "{:?}",
        warned.stats().warnings
    );
    // SSD001 (error): the evaluation gate refuses a hand-built AST that
    // bypasses parse-time validation, citing the diagnostic code.
    let bad = SelectQuery {
        construct: Construct::Var("Nope".into()),
        bindings: vec![Binding {
            source: Source::Db,
            path: Rpe::symbol("Entry"),
            var: "_E".into(),
        }],
        condition: None,
    };
    let err = semistructured::query::evaluate_select(db.graph(), &bad, &EvalOptions::default())
        .expect_err("query with unbound construct variable was accepted");
    assert!(err.contains("SSD001"), "{err}");
}

// ---------------------------------------------------------------------------
// Property: the analyzer's error set is the evaluator's refusal set.
// Accepted ⇒ evaluation succeeds: the interpreter's runtime variable
// lookups never miss.

const VARS: &[&str] = &["A", "B", "C"];
const LABELS: &[&str] = &["Entry", "Movie", "Title", "Cast", "Bogus"];

fn arb_path() -> impl Strategy<Value = Rpe> {
    prop_oneof![
        (0..LABELS.len()).prop_map(|i| Rpe::symbol(LABELS[i])),
        (0..LABELS.len(), 0..LABELS.len())
            .prop_map(|(i, j)| Rpe::seq(vec![Rpe::symbol(LABELS[i]), Rpe::symbol(LABELS[j])])),
        (0..LABELS.len()).prop_map(|i| Rpe::symbol(LABELS[i]).star()),
    ]
}

fn arb_binding() -> impl Strategy<Value = Binding> {
    (0..=VARS.len(), arb_path(), 0..VARS.len()).prop_map(|(src, path, var)| Binding {
        source: if src == 0 {
            Source::Db
        } else {
            Source::Var(VARS[src - 1].to_owned())
        },
        path,
        var: VARS[var].to_owned(),
    })
}

fn arb_query() -> impl Strategy<Value = SelectQuery> {
    (
        0..VARS.len(),
        proptest::collection::vec(arb_binding(), 1..4),
        // 0 encodes "no condition"; i > 0 compares VARS[i - 1] against n.
        0..=VARS.len(),
        -3i64..3,
    )
        .prop_map(|(cvar, bindings, cond, n)| SelectQuery {
            construct: Construct::Var(VARS[cvar].to_owned()),
            bindings,
            condition: (cond > 0).then(|| {
                Cond::Cmp(
                    Expr::Var(VARS[cond - 1].to_owned()),
                    CmpOp::Eq,
                    Expr::Const(semistructured::Value::Int(n)),
                )
            }),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn analyzer_accepted_queries_always_evaluate(q in arb_query()) {
        let db = Database::new(semistructured::data::movies::figure1());
        let analysis = semistructured::query::analyze_query(&q, None, None);
        let errors: Vec<_> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        let outcome =
            semistructured::query::evaluate_select(db.graph(), &q, &EvalOptions::default());
        // Accepted ⇒ evaluation completes (no unbound-variable failures).
        prop_assert_eq!(
            outcome.is_ok(),
            errors.is_empty(),
            "gate/evaluator disagree on {}",
            q
        );
    }
}
