//! Property tests for the `ssd-index` subsystem (SSD05x band):
//!
//! * the dictionary round-trips labels through dense ids and reports
//!   SSD051 (`DictionaryOverflow`) when the id space is exhausted;
//! * sorted runs are strictly sorted and duplicate-free however they are
//!   built, and `merge(base, inserts, deletes)` agrees with rebuilding
//!   from scratch;
//! * `TripleIndex::merge_delta` over an id-stable graph evolution equals
//!   a full rebuild;
//! * every batchable shape is dispatched to the batched columnar
//!   pipeline, at any graph size, and returns a result bisimilar to the
//!   interpreter's — the reference the pipeline is checked against;
//! * on the E3/E5/E10 stand-ins it spends less guard fuel than the
//!   interpreter, at least 4× less on a σ over a rare value label;
//! * unbatchable shapes fall back (SSD050) without building an index;
//! * datalog derives the same tuples, for the same guard fuel and
//!   memory, whether its EDB is the triple index or a reference EDB built
//!   by walking the graph, and naively — also after id-stable commits,
//!   with the index carried by `merge_delta` or rebuilt;
//! * the decoded SPO run is the reachable edge set of a direct graph
//!   walk.

use proptest::prelude::*;
use semistructured::triples::datalog::{Edb, Key};
use semistructured::{
    AccessDecision, Budget, Database, EvalOptions, Graph, Guard, Label, NodeId, TripleIndex, Value,
};
use ssd_data::movies::{movie_database, MovieDbConfig};
use ssd_graph::bisim::graphs_bisimilar;
use ssd_graph::ops::extract_subgraph;
use ssd_index::run::SortedRun;
use ssd_index::Dictionary;
use std::collections::BTreeSet;

fn movies(n: usize) -> Database {
    let entries: Vec<String> = (0..n)
        .map(|i| {
            format!(
                "Entry: {{Movie: {{Title: \"M{i}\", Cast: {{Actors: \"A{}\"}}, Year: {}}}}}",
                i % 7,
                1900 + (i % 90)
            )
        })
        .collect();
    Database::from_literal(&format!("{{{}}}", entries.join(", "))).unwrap()
}

/// Databases the dispatch property runs on: the movie shape (non-empty
/// answers) at 1..60 entries, the paper's Figure 1, and arbitrary small
/// graphs — one edge up, cycles included — over the labels the queries
/// mention.
fn arb_db() -> impl Strategy<Value = Database> {
    const LABELS: &[&str] = &["Entry", "Movie", "Title", "Cast", "Actors", "Year"];
    let random = (
        1usize..6,
        proptest::collection::vec((0usize..6, 0usize..6, 0..LABELS.len()), 1..20),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new();
            let mut ids = vec![g.root()];
            ids.extend((1..n).map(|_| g.add_node()));
            for (from, to, label) in edges {
                let label = Label::symbol(g.symbols(), LABELS[label]);
                g.add_edge(ids[from % n], label, ids[to % n]);
            }
            Database::new(g)
        });
    let figure1 = Just(()).prop_map(|()| Database::new(semistructured::data::movies::figure1()));
    prop_oneof![(1usize..60).prop_map(movies), figure1, random]
}

/// Small graphs for the datalog differential: symbol and integer labels
/// (so builtins and label/node id confusion have something to bite on),
/// self-loops and cycles included.
fn arb_datalog_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..6,
        proptest::collection::vec((0usize..6, 0usize..6, 0usize..7), 0..14),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new();
            let mut ids = vec![g.root()];
            ids.extend((1..n).map(|_| g.add_node()));
            for (from, to, label) in edges {
                let label = match label {
                    0 => Label::symbol(g.symbols(), "a"),
                    1 => Label::symbol(g.symbols(), "b"),
                    2 => Label::symbol(g.symbols(), "References"),
                    k => Label::int(k as i64 - 3),
                };
                g.add_edge(ids[from % n], label, ids[to % n]);
            }
            g
        })
}

/// Recursion on either side of the join, stratified negation, builtins,
/// constants in every `edge` position, repeated variables, `node`/`root`,
/// facts in program text, and labels meeting nodes in one variable.
const DATALOG_PROGRAMS: &[&str] = &[
    "path(X, Y) :- edge(X, _L, Y).\n\
     path(X, Y) :- edge(X, _L, Z), path(Z, Y).",
    "path(X, Y) :- edge(X, _L, Y).\n\
     path(X, Z) :- path(X, Y), edge(Y, _L, Z).",
    "reach(X) :- root(X).\n\
     reach(Y) :- reach(X), edge(X, a, Y).\n\
     unreached(X) :- node(X), not reach(X).\n\
     noloop(X) :- node(X), not edge(X, a, X).",
    "small(X, V) :- edge(X, V, _Y), lt(V, 2).\n\
     big(V) :- edge(_X, V, _Y), ge(V, 1), not lt(V, 2).\n\
     same(X, Y) :- edge(X, L, _Z), edge(Y, K, _W), eq(L, K), neq(X, Y).",
    "from(L, Y) :- edge(&0, L, Y).\n\
     via(X, Y) :- edge(X, a, Y).\n\
     into(X, L) :- edge(X, L, &1).\n\
     between(L) :- edge(&0, L, &1).\n\
     hop(Y) :- edge(&0, a, Y).\n\
     pre(X) :- edge(X, 'References', &1).\n\
     exact(X) :- node(X), edge(&0, a, &1).\n\
     never(X) :- edge(X, 'Nope', _Y).",
    "loop(X, L) :- edge(X, L, X).\n\
     twin(X, Y) :- edge(X, L, Y), edge(Y, L, X).",
    "n(X) :- node(X).\n\
     r(X) :- root(X).\n\
     both(X) :- root(X), node(X).\n\
     inner(X) :- node(X), not root(X).",
    "likes(\"ann\", \"bob\").\nlikes(\"bob\", \"cy\").\n\
     knows(X, Y) :- likes(X, Y).\n\
     knows(X, Y) :- likes(X, Z), knows(Z, Y).\n\
     seed(a).\nseed(\"zzz\").\nseed(1).\nstart(&1).\n\
     used(L) :- edge(_X, L, _Y), seed(L).\n\
     next(Y) :- start(X), edge(X, _L, Y).",
    "mixed(X) :- edge(_A, X, _B), edge(X, _L, _C).\n\
     mixed(X) :- node(X), edge(_A, X, _B).\n\
     any(X) :- node(X).\n\
     any(L) :- edge(_X, L, _Y).",
    "sg(X, X) :- node(X).\n\
     sg(X, Y) :- edge(P, _L1, X), edge(Q, _L2, Y), sg(P, Q).",
];

/// The reference EDB the index is checked against: the reachable edges
/// of a direct graph walk in a `Vec`, labels numbered in first-arrival
/// order, every lookup a filter over the whole `Vec`. It shares no code
/// with the index.
struct WalkedEdb {
    root: u32,
    labels: Vec<Label>,
    keys: Vec<Key>,
}

impl WalkedEdb {
    fn new(g: &Graph) -> WalkedEdb {
        let mut edb = WalkedEdb {
            root: g.root().index() as u32,
            labels: Vec::new(),
            keys: Vec::new(),
        };
        for n in g.reachable() {
            for e in g.edges(n) {
                let p = edb.label_id(&e.label).unwrap_or_else(|| {
                    edb.labels.push(e.label.clone());
                    edb.labels.len() as u32 - 1
                });
                edb.keys.push([n.index() as u32, p, e.to.index() as u32]);
            }
        }
        edb
    }
}

impl Edb for WalkedEdb {
    fn root(&self) -> u32 {
        self.root
    }
    fn max_node(&self) -> u32 {
        self.nodes().last().copied().unwrap_or(self.root)
    }
    fn label_count(&self) -> usize {
        self.labels.len()
    }
    fn label_id(&self, label: &Label) -> Option<u32> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| i as u32)
    }
    fn label(&self, id: u32) -> Option<&Label> {
        self.labels.get(id as usize)
    }
    fn scan(
        &self,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
        visit: &mut dyn FnMut(Key) -> bool,
    ) {
        let hit = |k: &&Key| {
            [s, p, o]
                .iter()
                .zip(k.iter())
                .all(|(want, v)| want.is_none_or(|w| w == *v))
        };
        for &k in self.keys.iter().filter(hit) {
            if !visit(k) {
                return;
            }
        }
    }
    fn nodes(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.keys.iter().flat_map(|k| [k[0], k[2]]).collect();
        out.push(self.root);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// `program` derives the same tuples, predicate by predicate, on `db`'s
/// triple index (semi-naive), on the reference EDB (semi-naive) and
/// naively on the index; the two semi-naive runs spend the same guard
/// fuel and memory, since both EDBs offer exactly the matching triples.
fn assert_datalog_agrees(db: &Database, program: &str) -> Result<(), TestCaseError> {
    use semistructured::triples::datalog::{evaluate_naive, evaluate_with, parse_program};
    prop_assert!(db.triple_index().is_some());
    let parsed = parse_program(program, db.graph().symbols()).unwrap();
    let (on_index, on_walk) = (huge_active_guard(), huge_active_guard());
    let indexed = db.datalog_with(program, &on_index).unwrap();
    let walked = evaluate_with(&parsed, &WalkedEdb::new(db.graph()), &on_walk).unwrap();
    let naive = evaluate_naive(&parsed, &db.triples()).unwrap();
    prop_assert!(indexed.predicates().eq(walked.predicates()));
    prop_assert!(indexed.predicates().eq(naive.predicates()));
    for pred in indexed.predicates() {
        let want: Vec<_> = walked.tuples(pred).collect();
        prop_assert_eq!(indexed.count(pred), want.len(), "{}: count", pred);
        prop_assert!(
            indexed.tuples(pred).eq(want.iter().cloned()),
            "{}: index EDB",
            pred
        );
        prop_assert!(
            naive.tuples(pred).eq(want.iter().cloned()),
            "{}: naive",
            pred
        );
    }
    prop_assert_eq!(
        on_index.steps_used(),
        on_walk.steps_used(),
        "fuel differs by EDB"
    );
    prop_assert_eq!(
        on_index.memory_used(),
        on_walk.memory_used(),
        "memory differs by EDB"
    );
    Ok(())
}

/// An active guard with limits no generated program can reach: every
/// tick and allocation is counted, nothing trips.
fn huge_active_guard() -> Guard {
    Budget::unlimited()
        .max_steps(u64::MAX / 4)
        .max_memory_bytes(u64::MAX / 4)
        .guard()
}

fn arb_label() -> impl Strategy<Value = Label> {
    prop_oneof![
        (0i64..50).prop_map(|n| Label::Value(Value::Int(n))),
        "[a-z]{1,6}".prop_map(|s| Label::Value(Value::Str(s))),
    ]
}

fn arb_key() -> impl Strategy<Value = Key> {
    (0u32..64, 0u32..8, 0u32..64).prop_map(|(s, p, o)| [s, p, o])
}

proptest! {
    /// Interning is idempotent, ids are dense, and resolve inverts
    /// lookup for every label ever interned.
    #[test]
    fn dictionary_round_trips(labels in proptest::collection::vec(arb_label(), 0..40)) {
        let mut dict = Dictionary::new();
        let mut ids = Vec::new();
        for l in &labels {
            ids.push(dict.intern(l).unwrap());
        }
        for (l, &id) in labels.iter().zip(&ids) {
            prop_assert_eq!(dict.lookup(l), Some(id));
            prop_assert_eq!(dict.intern(l).unwrap(), id);
            prop_assert_eq!(dict.resolve(id), Some(l));
        }
        prop_assert!(dict.len() <= labels.len());
        for id in 0..dict.len() as u32 {
            prop_assert!(dict.resolve(id).is_some(), "ids must be dense");
        }
    }

    /// Runs are strictly sorted and duplicate-free from any input, and
    /// every input key (and no other) is present.
    #[test]
    fn sorted_run_invariants(keys in proptest::collection::vec(arb_key(), 0..120)) {
        let run = SortedRun::from_unsorted(keys.clone());
        prop_assert!(run.is_strictly_sorted());
        for k in &keys {
            prop_assert!(run.contains(k));
        }
        let mut expect = keys;
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(run.len(), expect.len());
    }

    /// Merging a base with insert/delete runs equals rebuilding from the
    /// edited key set.
    #[test]
    fn merge_agrees_with_rebuild(
        base in proptest::collection::vec(arb_key(), 0..80),
        ins in proptest::collection::vec(arb_key(), 0..40),
        del in proptest::collection::vec(arb_key(), 0..40),
    ) {
        let b = SortedRun::from_unsorted(base.clone());
        let i = SortedRun::from_unsorted(ins.clone());
        let d = SortedRun::from_unsorted(del.clone());
        let merged = SortedRun::merge(&b, &i, &d);
        prop_assert!(merged.is_strictly_sorted());
        let mut expect: Vec<Key> = base;
        expect.retain(|k| !d.contains(k));
        expect.extend(ins.iter().filter(|k| !d.contains(k)));
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(merged.iter().copied().collect::<Vec<_>>(), expect);
    }

    /// An id-stable edit sequence merged as a delta equals a full
    /// rebuild, triple for triple.
    #[test]
    fn merge_delta_equals_rebuild(
        n in 1usize..20,
        inserts in proptest::collection::vec(0usize..5, 0..3),
        delete_year in any::<bool>(),
        back_edge in any::<bool>(),
    ) {
        // With an edge into the root, each insert unions under a fresh
        // root; without one, it rewrites the root in place.
        let mut base = movies(n);
        if back_edge {
            let mut g = base.graph().clone();
            let entry = g.edges(g.root())[0].to;
            let root = g.root();
            g.add_sym_edge(entry, "Up", root);
            base = Database::new(g);
        }
        let index = TripleIndex::build(base.graph()).unwrap();
        let mut db = base;
        for (j, extra) in inserts.iter().enumerate() {
            let other = Database::from_literal(
                &format!("{{Extra: {{Tag: \"t{j}\", N: {extra}}}}}")).unwrap();
            db = db.union_id_stable(&other);
        }
        if delete_year {
            db = db.delete_edges_id_stable(&semistructured::Pred::Symbol("Year".into()));
        }
        let merged = index.merge_delta(db.graph()).unwrap();
        let rebuilt = TripleIndex::build(db.graph()).unwrap();
        let key = |(s, l, o): &(u32, Label, u32)| (*s, format!("{l:?}"), *o);
        let mut a = merged.decoded();
        let mut b = rebuilt.decoded();
        a.sort_by_key(key);
        b.sort_by_key(key);
        prop_assert_eq!(a, b);
        prop_assert_eq!(merged.root(), rebuilt.root());
        prop_assert!(merged.spo().is_strictly_sorted());
    }

    /// Every batchable shape is dispatched to the batched pipeline at
    /// every size, and agrees with the interpreter (bisimilar result
    /// graphs).
    #[test]
    fn batchable_shapes_run_batched_and_equal_interpreted(db in arb_db(), pick in 0usize..4) {
        let queries = [
            "select T from db.Entry.Movie.Title T",
            "select {t: T, a: A} from db.Entry.Movie M, M.Title T, M.Cast.Actors A",
            "select M from db.Entry.Movie M where exists M.Year",
            "select A from db.Entry.Movie.Cast.Actors A",
        ];
        let q = queries[pick];
        let parsed = semistructured::query::parse_query(q).unwrap();
        let access = db.select_access(&parsed);
        prop_assert!(
            matches!(access, AccessDecision::Batched(_)),
            "{} fell back: {:?}", q, access.fallback_reason()
        );
        let batched = db.query(q).unwrap();
        let interp = semistructured::query::evaluate_select(
            db.graph(),
            &parsed,
            &EvalOptions::default(),
        )
        .unwrap();
        prop_assert!(
            graphs_bisimilar(batched.graph(), &interp.0),
            "access paths diverged on {} over {}", q, db.to_literal()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Datalog over the index, over the reference EDB, and naive agree on
    /// every derived predicate of every program in the pool.
    #[test]
    fn datalog_agrees_across_edbs_and_modes(g in arb_datalog_graph()) {
        let db = Database::new(g);
        for program in DATALOG_PROGRAMS {
            assert_datalog_agrees(&db, program)?;
        }
    }

    /// The same after an id-stable commit step, with the index carried
    /// across it by `merge_delta` (dictionary ids from before the commit,
    /// labels that lost their last edge still interned) and rebuilt.
    #[test]
    fn datalog_agrees_after_commits(
        g in arb_datalog_graph(),
        insert in arb_datalog_graph(),
        delete in 0usize..4,
        root_in in 0usize..3,
    ) {
        // Edges into the root as generated, one more, or none: the
        // fresh-union-root and the in-place insert are both carried.
        let mut g = g;
        let root = g.root();
        if root_in == 1 {
            let last = NodeId::from_index(g.node_count() - 1);
            g.add_edge(last, Label::symbol(g.symbols(), "a"), root);
        } else if root_in == 2 {
            for n in g.node_ids().collect::<Vec<_>>() {
                let kept = g.edges(n).iter().filter(|e| e.to != root).cloned().collect();
                g.set_edges(n, kept);
            }
        }
        let base = Database::new(g);
        let before = base.triple_index().unwrap();
        let mut next = base.union_id_stable(&Database::new(insert));
        if let Some(name) = ["a", "b", "References"].get(delete) {
            next = next.delete_edges_id_stable(&semistructured::Pred::Symbol((*name).into()));
        }
        let merged = before.merge_delta(next.graph()).unwrap();
        let carried = Database::new(next.graph().clone()).with_seeded_index(merged);
        for program in DATALOG_PROGRAMS {
            assert_datalog_agrees(&carried, program)?;
            assert_datalog_agrees(&next, program)?;
        }
    }
}

/// The index is the §3 edge relation: the decoded SPO run is the
/// reachable edge set of a direct graph walk, and nothing else.
#[test]
fn index_agrees_with_the_triple_shredder() {
    let db = movies(25);
    let index = TripleIndex::build(db.graph()).unwrap();
    let g = db.graph();
    let text = |l: &Label| format!("{l:?}");
    let from_index: BTreeSet<(usize, String, usize)> = index
        .decoded()
        .into_iter()
        .map(|(s, l, o)| (s as usize, text(&l), o as usize))
        .collect();
    let walked: BTreeSet<(usize, String, usize)> = g
        .reachable()
        .into_iter()
        .flat_map(|n| {
            g.edges(n)
                .iter()
                .map(move |e| (n.index(), text(&e.label), e.to.index()))
        })
        .collect();
    assert_eq!(index.len(), from_index.len());
    assert_eq!(from_index, walked);
}

/// SSD051: a dictionary with an artificially small id space reports the
/// overflow as a diagnostic instead of wrapping ids.
#[test]
fn dictionary_overflow_is_ssd051() {
    let mut dict = Dictionary::with_limit(2);
    dict.intern(&Label::Value(Value::Int(0))).unwrap();
    dict.intern(&Label::Value(Value::Int(1))).unwrap();
    let err = dict.intern(&Label::Value(Value::Int(2))).unwrap_err();
    assert_eq!(err.code, semistructured::diag::Code::DictionaryOverflow);
    assert!(err.headline().contains("SSD051"), "{}", err.headline());
}

/// Results wide at the root — thousands of top-level edges, titles
/// repeated so that equal labels meet — are the same set, in the same
/// order, from the all-off interpreter and from whichever engine the shape
/// is dispatched to; and `chunks` deals that root out 8 edges at a time
/// without losing, repeating or reordering one.
#[test]
fn wide_results_agree_across_engines_and_chunks() {
    let entries: Vec<String> = (0..5_000)
        .map(|i| {
            format!(
                "Entry: {{Movie: {{Title: \"T{}\", Year: {}}}}}",
                i % 1_250,
                1900 + i % 90
            )
        })
        .collect();
    let db = Database::from_literal(&format!("{{{}}}", entries.join(", "))).unwrap();
    for (text, batched, root_edges) in [
        ("select T from db.Entry.Movie.Title T", true, 5_000),
        (
            "select {t: T, y: Y} from db.Entry.Movie M, M.Title T, M.Year Y",
            true,
            10_000,
        ),
        ("select T from db.Entry.%.Title T", false, 5_000),
        ("select T from db.Entry*.Movie.Title T", false, 5_000),
        // Label variables land on one shared leaf: the union keeps one
        // edge per distinct label out of 10 000 constructed.
        ("select L from db.Entry.Movie.^L X", false, 2),
    ] {
        let parsed = semistructured::query::parse_query(text).unwrap();
        let access = db.select_access(&parsed);
        assert_eq!(
            matches!(access, AccessDecision::Batched(_)),
            batched,
            "{text}"
        );
        let served = db.query(text).unwrap();
        let (interp, _) =
            semistructured::query::evaluate_select(db.graph(), &parsed, &EvalOptions::default())
                .unwrap();
        let full = served.graph();
        assert_eq!(full.out_degree(full.root()), root_edges, "{text}");
        assert_eq!(interp.out_degree(interp.root()), root_edges, "{text}");
        assert!(graphs_bisimilar(full, &interp), "{text}");
        assert_eq!(full.validate(), Ok(()), "{text}");

        let chunks: Vec<Database> = served
            .chunks(8)
            .map(|c| Database::from_literal(&c).unwrap())
            .collect();
        assert_eq!(chunks.len(), root_edges.div_ceil(8), "{text}");
        let mut dealt = 0;
        for chunk in &chunks {
            let g = chunk.graph();
            assert_eq!(g.out_degree(g.root()), 8.min(root_edges - dealt), "{text}");
            for (got, want) in g
                .edges(g.root())
                .iter()
                .zip(&full.edges(full.root())[dealt..])
            {
                assert_eq!(
                    got.label.display(g.symbols()).to_string(),
                    want.label.display(full.symbols()).to_string(),
                    "{text}: root edge {dealt}"
                );
                assert!(
                    graphs_bisimilar(
                        &extract_subgraph(g, got.to),
                        &extract_subgraph(full, want.to)
                    ),
                    "{text}: subtree of root edge {dealt}"
                );
                dealt += 1;
            }
        }
        assert_eq!(dealt, root_edges, "{text}");
    }
}

/// The batched pipeline does strictly less guard-counted work than the
/// interpreter `Database` would otherwise run (pushdown and RPE
/// simplification on), and returns the same answer, on batchable
/// stand-ins for the E3, E5 and E10 workloads over the 300-entry movie
/// database. A σ over a rare value label, which the POS permutation
/// answers without traversing to it, costs at most a quarter.
#[test]
fn batched_pipeline_spends_less_fuel_than_the_interpreter() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(300)));
    for (name, text) in [
        (
            "E3-join",
            "select {p: {t: T, d: D}} from db.Entry.Movie M, M.Title T, M.Director D \
             where exists M.Cast",
        ),
        ("E5-path3", "select T from db.Entry.Movie.Title T"),
        (
            "E5-sigma",
            r#"select X from db.Entry.Movie.Title."Movie 7" X"#,
        ),
        (
            "E10-filter",
            "select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T where Y < 1935",
        ),
    ] {
        let q = semistructured::query::parse_query(text).unwrap();
        // Planning builds the index, outside any job's guard.
        let access = db.select_access(&q);
        assert!(matches!(access, AccessDecision::Batched(_)), "{name}");
        let batched_guard = Budget::metered().guard();
        let batched = db.query_with(text, &batched_guard).unwrap();
        let interp_guard = Budget::metered().guard();
        let (interp, stats) = semistructured::query::evaluate_select(
            db.graph(),
            &q,
            &EvalOptions::optimized(None).with_guard(&interp_guard),
        )
        .unwrap();
        assert!(stats.results_constructed > 0, "{name}: no results");
        assert!(graphs_bisimilar(batched.graph(), &interp), "{name}");
        let (b, i) = (batched_guard.steps_used(), interp_guard.steps_used());
        assert!(b < i, "{name}: batched {b} fuel, interpreter {i}");
        if name == "E5-sigma" {
            assert!(4 * b <= i, "{name}: batched {b} fuel, interpreter {i}");
        }
    }
}

/// SSD050: unbatchable query shapes fall back to the interpreter with a
/// reason naming the shape, the result is still correct, and a fresh
/// database never builds a triple index it cannot use.
#[test]
fn unbatchable_shapes_fall_back_with_ssd050_and_build_no_index() {
    for (text, why) in [
        ("select T from db.Entry*.Movie.Title T", "Kleene star"),
        ("select T from db.Entry.%.Title T", "predicate `%`"),
        ("select L from db.Entry.Movie.^L X", "label variable"),
    ] {
        let db = movies(40);
        let q = semistructured::query::parse_query(text).unwrap();
        let access = db.select_access(&q);
        let reason = access.fallback_reason().expect("shape is unbatchable");
        assert!(reason.contains(why), "{text}: {reason}");
        let note = semistructured::query::batch::fallback_note(reason);
        assert_eq!(note.code, semistructured::diag::Code::IndexFallback);
        assert!(note.headline().contains("SSD050"), "{}", note.headline());
        // The query still runs (via the interpreter), index-free.
        let answer = db.query_with(text, &Budget::unlimited().guard()).unwrap();
        assert!(!answer.graph().is_leaf(answer.graph().root()), "{text}");
        assert!(db.existing_index().is_none(), "{text} built an index");
    }
}
