//! Soundness of the static cost estimator (ssd-cost).
//!
//! The envelope's contract: on any dataset, a governed evaluation's
//! measured guard fuel and guard-accounted memory never exceed the
//! static upper bounds, and (for complete, untruncated runs) fuel never
//! falls below the lower bound — for the interpreter and for the engine
//! `Database` dispatches the query's shape to. Random graphs and random
//! path expressions probe the contract; the guard must be *active* (huge
//! but finite limits) because an unlimited guard counts nothing.

use proptest::prelude::*;
use semistructured::query::analyze::{analyze_datalog_cost, analyze_query_cost, CostContext};
use semistructured::query::lang::ast::{Binding, Construct, SelectQuery, Source};
use semistructured::query::lang::{evaluate_select, EvalOptions, EvalStats};
use semistructured::query::{evaluate_batched, Rpe, Step};
use semistructured::triples::datalog::parse_program;
use semistructured::{
    AccessDecision, Bound, Budget, DataStats, Database, Graph, Guard, Label, Pred,
};
use ssd_data::movies::{movie_database, MovieDbConfig};

const LABELS: &[&str] = &["a", "b", "c", "Movie", "Title"];

fn graph_from_edges(n: usize, edges: &[(usize, usize, usize)]) -> Graph {
    let mut g = Graph::new();
    let mut ids = vec![g.root()];
    for _ in 1..n {
        ids.push(g.add_node());
    }
    for &(from, to, label) in edges {
        let from = ids[from % n];
        let to = ids[to % n];
        let label = if label < LABELS.len() {
            Label::symbol(g.symbols(), LABELS[label])
        } else {
            Label::int((label - LABELS.len()) as i64)
        };
        g.add_edge(from, label, to);
    }
    g
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..7,
        proptest::collection::vec((0usize..7, 0usize..7, 0usize..7), 0..16),
    )
        .prop_map(|(n, edges)| graph_from_edges(n, &edges))
}

/// Binding paths: arbitrary RPEs (mostly interpreter-only shapes) and
/// plain label sequences (the shapes the batched pipeline serves).
fn arb_path() -> impl Strategy<Value = Rpe> {
    let label_seq = proptest::collection::vec(0usize..LABELS.len(), 0..4).prop_map(|word| {
        word.into_iter().fold(Rpe::Epsilon, |path, i| {
            Rpe::Seq(Box::new(path), Box::new(Rpe::symbol(LABELS[i])))
        })
    });
    prop_oneof![arb_rpe(), label_seq]
}

fn arb_rpe() -> impl Strategy<Value = Rpe> {
    let leaf = prop_oneof![
        (0usize..LABELS.len()).prop_map(|i| Rpe::symbol(LABELS[i])),
        Just(Rpe::step(Step::wildcard())),
        (0usize..LABELS.len()).prop_map(|i| Rpe::step(Step::not_symbol(LABELS[i]))),
        Just(Rpe::Epsilon),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Rpe::Seq(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Rpe::Alt(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| a.star()),
            inner.clone().prop_map(|a| a.plus()),
            inner.prop_map(|a| a.opt()),
        ]
    })
}

/// `select {x: X[, y: Y]} from db.p1 X[, X.p2 Y]` — programmatically
/// built so no Display/parse round trip can skew the experiment.
fn query_of(p1: Rpe, p2: Option<Rpe>) -> SelectQuery {
    let mut bindings = vec![Binding {
        source: Source::Db,
        path: p1,
        var: "X".into(),
    }];
    let mut fields = vec![(
        semistructured::query::lang::LabelExpr::Symbol("x".into()),
        Construct::Var("X".into()),
    )];
    if let Some(p) = p2 {
        bindings.push(Binding {
            source: Source::Var("X".into()),
            path: p,
            var: "Y".into(),
        });
        fields.push((
            semistructured::query::lang::LabelExpr::Symbol("y".into()),
            Construct::Var("Y".into()),
        ));
    }
    SelectQuery {
        construct: Construct::Node(fields),
        bindings,
        condition: None,
    }
}

/// An active guard with limits far beyond anything a 7-node graph can
/// consume: everything is counted, nothing is tripped.
fn huge_active_guard() -> Guard {
    Budget::unlimited()
        .max_steps(u64::MAX / 4)
        .max_memory_bytes(u64::MAX / 4)
        .guard()
}

/// Run `q` on the all-off reference interpreter and on the engine
/// `Database` dispatches its shape to (the interpreter there always runs
/// with pushdown and RPE simplification), each under its own fresh guard.
fn run_both_engines(
    g: &Graph,
    q: &SelectQuery,
) -> Result<[(&'static str, Guard, EvalStats); 2], TestCaseError> {
    let fail = |e: String| TestCaseError::Fail(format!("evaluation failed: {e}"));
    let interp_guard = huge_active_guard();
    let opts = EvalOptions::default().with_guard(&interp_guard);
    let (_, interp) = evaluate_select(g, q, &opts).map_err(fail)?;

    let db = Database::new(g.clone());
    let guard = huge_active_guard();
    let opts = EvalOptions::optimized(None).with_guard(&guard);
    let (_, dispatched) = match (db.select_access(q), db.triple_index()) {
        (AccessDecision::Batched(plan), Some(index)) => {
            evaluate_batched(db.graph(), index, q, &plan, &opts)
        }
        _ => evaluate_select(db.graph(), q, &opts),
    }
    .map_err(fail)?;
    Ok([
        ("interpreter", interp_guard, interp),
        ("dispatched", guard, dispatched),
    ])
}

fn assert_brackets(
    what: &str,
    envelope: &semistructured::CostEnvelope,
    used: u64,
    mem: u64,
) -> Result<(), TestCaseError> {
    prop_assert!(
        used >= envelope.fuel.lo,
        "{what}: fuel {used} below lower bound {}",
        envelope.fuel.lo
    );
    if let Bound::Finite(hi) = envelope.fuel.hi {
        prop_assert!(used <= hi, "{what}: fuel {used} above upper bound {hi}");
    }
    if let Bound::Finite(hi) = envelope.memory.hi {
        prop_assert!(mem <= hi, "{what}: memory {mem} above upper bound {hi}");
    }
    Ok(())
}

/// The fixed datalog workloads: recursion, stratified negation, joins,
/// and leading `edge` literals whose constants pick the access path — a
/// label (symbol and value), the source node, a label no edge carries.
const PROGRAMS: &[&str] = &[
    "tc(X, Y) :- edge(X, _L, Y).\n\
     tc(X, Y) :- edge(X, _L, Z), tc(Z, Y).",
    "out(X) :- edge(X, _L, _Y).\n\
     sink(X) :- node(X), not out(X).",
    "r(X) :- root(X).\n\
     reach(Y) :- r(Y).\n\
     reach(Y) :- reach(X), edge(X, _L, Y).",
    "pair(X, Y) :- edge(X, _L, Y), edge(Y, _K, X).",
    "hop(X, Y) :- edge(X, a, Y).\n\
     hop(X, Z) :- hop(X, Y), edge(Y, a, Z).",
    "num(X, Y) :- edge(X, 0, Y).",
    "out(L, Y) :- edge(&0, L, Y).\n\
     back(X) :- edge(X, _L, &0).",
    "none(Y) :- edge(_X, 'Nope', Y).\n\
     some(X) :- node(X), not none(X).",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_envelope_brackets_measured_guard_cost(
        g in arb_graph(),
        p1 in arb_path(),
        p2 in prop_oneof![Just(None), arb_path().prop_map(Some)],
    ) {
        let q = query_of(p1, p2);
        let stats = DataStats::collect(&g);
        let a = analyze_query_cost(&q, None, &CostContext::with_stats(&stats));
        for (engine, guard, run) in run_both_engines(&g, &q)? {
            prop_assert!(run.truncated.is_none(), "huge budget must not truncate");
            assert_brackets(engine, &a.envelope, guard.steps_used(), guard.memory_used())?;
            // Cardinality: with no `where` clause every assignment reaches
            // the construct stage, so the count is the match cardinality.
            if let Bound::Finite(hi) = a.envelope.cardinality.hi {
                let results = run.results_constructed as u64;
                prop_assert!(results <= hi, "{engine}: {results} results above bound {hi}");
            }
        }
    }

    /// Tracing is an observer, not a participant: running the same
    /// query with a `Tracer` attached must leave the guard-measured
    /// cost unchanged, so the static envelope brackets *traced*
    /// actuals exactly as it brackets untraced ones. This is the
    /// property `ssd explain --analyze` (tests/explain.rs) relies on
    /// when it prints estimated and measured cost side by side.
    #[test]
    fn traced_evaluation_costs_the_same_and_stays_bracketed(
        g in arb_graph(),
        p1 in arb_rpe(),
        p2 in prop_oneof![Just(None), arb_rpe().prop_map(Some)],
    ) {
        let q = query_of(p1, p2);
        let stats = DataStats::collect(&g);
        let a = analyze_query_cost(&q, None, &CostContext::with_stats(&stats));

        let plain_guard = huge_active_guard();
        let plain_opts = EvalOptions::default().with_guard(&plain_guard);
        let plain = evaluate_select(&g, &q, &plain_opts).map_err(|e| {
            TestCaseError::Fail(format!("plain evaluation failed: {e}"))
        })?;
        prop_assert!(plain.1.truncated.is_none());

        let ring = semistructured::trace::SharedRing::new(65_536);
        let tracer =
            semistructured::trace::Tracer::with_sink(Box::new(ring.clone()));
        let traced_guard = huge_active_guard();
        let traced_opts = EvalOptions::default()
            .with_guard(&traced_guard)
            .with_tracer(&tracer);
        let traced = evaluate_select(&g, &q, &traced_opts).map_err(|e| {
            TestCaseError::Fail(format!("traced evaluation failed: {e}"))
        })?;
        prop_assert!(traced.1.truncated.is_none());
        tracer.flush();

        prop_assert_eq!(
            plain_guard.steps_used(),
            traced_guard.steps_used(),
            "attaching a tracer changed the measured fuel"
        );
        prop_assert_eq!(
            plain_guard.memory_used(),
            traced_guard.memory_used(),
            "attaching a tracer changed the measured memory"
        );
        assert_brackets(
            "traced query",
            &a.envelope,
            traced_guard.steps_used(),
            traced_guard.memory_used(),
        )?;
        let events = ring.snapshot();
        prop_assert!(!events.is_empty());
        if let Err(why) = semistructured::trace::validate(&events) {
            return Err(TestCaseError::Fail(format!("malformed trace: {why}")));
        }
    }

    #[test]
    fn datalog_envelope_brackets_measured_guard_cost(
        g in arb_graph(),
        which in 0usize..PROGRAMS.len(),
    ) {
        let p = parse_program(PROGRAMS[which], g.symbols()).unwrap();
        let stats = DataStats::collect(&g);
        let a = analyze_datalog_cost(&p, None, None, &CostContext::with_stats(&stats));
        let db = Database::new(g);
        let guard = huge_active_guard();
        let eval = db.datalog_with(PROGRAMS[which], &guard).map_err(|e| {
            TestCaseError::Fail(format!("evaluation failed: {e}"))
        })?;
        prop_assert!(eval.truncated.is_none(), "huge budget must not truncate");
        assert_brackets("datalog", &a.envelope, guard.steps_used(), guard.memory_used())?;
    }

    /// Contrapositive of soundness: if a real run finishes within a
    /// budget, admission with that budget must accept the envelope —
    /// costed, as the server costs it, from the statistics of the
    /// generation that runs: a generated graph, and the generation a
    /// generated commit makes of it.
    #[test]
    fn admission_never_rejects_a_run_that_fits(
        g in arb_graph(),
        p1 in arb_path(),
        insert in arb_graph(),
        delete in prop_oneof![Just(None), (0usize..LABELS.len()).prop_map(Some)],
    ) {
        let q = query_of(p1, None);
        let base = Database::new(g);
        let next = commit(&base, &insert, delete.map(|k| LABELS[k]));
        for db in [&base, &next] {
            let ctx = CostContext::with_stats(db.index_stats());
            let a = analyze_query_cost(&q, None, &ctx);
            for (engine, guard, _) in run_both_engines(db.graph(), &q)? {
                let budget = Budget::unlimited()
                    .max_steps(guard.steps_used())
                    .max_memory_bytes(guard.memory_used().max(1));
                prop_assert!(
                    budget.admit(&a.envelope).is_ok(),
                    "generation {}: admission rejected a budget the {engine} run fit: \
                     used {} steps",
                    db.generation(),
                    guard.steps_used()
                );
            }
        }
    }
}

/// The generation a store commit of `INSERT insert` (then `DELETE
/// label`) makes of `base`: the id-stable ops a commit applies.
fn commit(base: &Database, insert: &Graph, delete: Option<&str>) -> Database {
    let mut next = base.union_id_stable(&Database::new(insert.clone()));
    if let Some(label) = delete {
        next = next.delete_edges_id_stable(&Pred::Symbol(label.into()));
    }
    next.with_generation(1)
}

/// The `Database` leg of traced ≡ untraced, on the retired E15's reorder query
/// (independent bindings in a pessimal order) and an interpreter shape
/// whose selective `where` pushdown prunes early: the plan is a function
/// of the query and the snapshot, so `query_with` and `query_traced` —
/// tracer detached, then attached — spend bit-identical fuel and memory,
/// inside the envelope `estimate_query` gives admission.
#[test]
fn traced_database_queries_run_the_same_plan_and_stay_bracketed() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(100)));
    for text in [
        r#"select {e: E, a: A} from db.Entry E, db.Entry.Movie.(!Movie)*."Actor 1" A"#,
        r#"select {t: T} from db.Entry.% M, M.Year Y, M.Title T where Y < 1935"#,
    ] {
        let ring = semistructured::trace::SharedRing::new(65_536);
        let tracer = semistructured::trace::Tracer::with_sink(Box::new(ring.clone()));
        let [plain, untraced, traced] = [(); 3].map(|()| huge_active_guard());
        db.query_with(text, &plain).unwrap();
        db.query_traced(text, Some(&untraced), None).unwrap();
        db.query_traced(text, Some(&traced), Some(&tracer)).unwrap();
        tracer.flush();
        let cost = |g: &Guard| (g.steps_used(), g.memory_used());
        assert_eq!(cost(&plain), cost(&untraced), "{text}: query_traced");
        assert_eq!(cost(&plain), cost(&traced), "{text}: tracer attached");
        let a = db.estimate_query(text).unwrap();
        assert_brackets(text, &a.envelope, traced.steps_used(), traced.memory_used()).unwrap();
        semistructured::trace::validate(&ring.snapshot()).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Budget split/refund: the session-quota arithmetic ssd-serve relies on
// ---------------------------------------------------------------------------

proptest! {
    /// Conservation: after any sequence of splits (some refused) and
    /// full refunds of the unspent remainders, the parent balance is
    /// exactly `initial − Σ spent` — no double-counting, no leaks.
    #[test]
    fn split_refund_conserves_fuel_and_memory(
        initial_fuel in 0u64..10_000,
        initial_mem in 0u64..10_000,
        jobs in proptest::collection::vec(
            (0u64..3_000, 0u64..3_000, 0u64..4_000),
            0..12,
        ),
    ) {
        let mut session = Budget::unlimited()
            .max_steps(initial_fuel)
            .max_memory_bytes(initial_mem);
        let mut spent_fuel_total = 0u64;
        let mut spent_mem_total = 0u64;
        for (grant_fuel, grant_mem, spend) in jobs {
            let before = (session.max_steps, session.max_memory_bytes);
            match session.split(grant_fuel, grant_mem) {
                Err(_) => {
                    // A refused split must leave the parent untouched.
                    prop_assert_eq!(
                        (session.max_steps, session.max_memory_bytes),
                        before
                    );
                }
                Ok(child) => {
                    prop_assert_eq!(child.max_steps, Some(grant_fuel));
                    prop_assert_eq!(child.max_memory_bytes, Some(grant_mem));
                    // The job spends up to (or past — guards can
                    // overshoot a check interval) its grant; the refund
                    // is clamped to the unspent part, like the server's.
                    let spent_fuel = spend.min(grant_fuel);
                    let spent_mem = (spend / 2).min(grant_mem);
                    session.refund(
                        grant_fuel - spent_fuel,
                        grant_mem - spent_mem,
                    );
                    spent_fuel_total += spent_fuel;
                    spent_mem_total += spent_mem;
                }
            }
            prop_assert_eq!(
                session.max_steps,
                Some(initial_fuel - spent_fuel_total),
                "fuel books diverged"
            );
            prop_assert_eq!(
                session.max_memory_bytes,
                Some(initial_mem - spent_mem_total),
                "memory books diverged"
            );
        }
    }

    /// Splitting can never manufacture budget: the child's grant plus
    /// the parent's remainder equals the parent's balance before.
    #[test]
    fn split_is_a_partition(
        initial in 0u64..10_000,
        want in 0u64..12_000,
    ) {
        let mut session = Budget::unlimited().max_steps(initial);
        match session.split(want, 0) {
            Ok(child) => {
                prop_assert_eq!(
                    child.max_steps.unwrap() + session.max_steps.unwrap(),
                    initial
                );
            }
            Err(_) => {
                prop_assert!(want > initial);
                prop_assert_eq!(session.max_steps, Some(initial));
            }
        }
    }

    /// An unmetered session grants without deduction and ignores
    /// refunds: `None` means infinity on both sides of the ledger.
    #[test]
    fn unmetered_sessions_never_deduct(grant in 0u64..10_000) {
        let mut session = Budget::unlimited();
        let child = session.split(grant, grant).unwrap();
        prop_assert_eq!(child.max_steps, Some(grant));
        prop_assert_eq!(session.max_steps, None);
        session.refund(grant, grant);
        prop_assert_eq!(session.max_steps, None);
        prop_assert_eq!(session.max_memory_bytes, None);
    }
}
