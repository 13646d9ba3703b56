//! Experiment report: regenerates the E1–E13 measured series recorded
//! in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ssd-bench --bin report
//! ```
//!
//! This is the only runner of the E-series. It produces the *shape*
//! tables — counts, work measures, and median wall-clock times and
//! ratios — that stand in for the tutorial's (non-existent) evaluation
//! tables. It prints and writes nothing else: the served system's
//! numbers come from `benchmark/` (BENCHMARK.json).

use semistructured::graph::bisim::graphs_bisimilar;
use semistructured::graph::index::GraphIndex;
use semistructured::query::decompose::{eval_decomposed_nfa, Partition};
use semistructured::query::recursion::{gext, Transducer};
use semistructured::query::rpe::eval::{eval_nfa, eval_nfa_with_stats};
use semistructured::query::{browse, evaluate_select, optimizer, parse_query, restructure};
use semistructured::query::{Nfa, Rpe, Step};
use semistructured::triples::datalog::{evaluate, evaluate_naive, parse_program};
use semistructured::{DataGuide, Database, EvalOptions, Graph, Guard, Pred, TripleIndex, Value};
use ssd_data::movies::{figure1, movie_database, MovieDbConfig};
use ssd_data::webgraph::{clustered_graph, web_graph, WebGraphConfig};
use std::time::Instant;

/// The standard movie database of a given entry count.
fn movies(entries: usize) -> Graph {
    movie_database(&MovieDbConfig::sized(entries))
}

/// The standard web graph.
fn web(pages: usize) -> Graph {
    web_graph(&WebGraphConfig {
        pages,
        mean_links: 4,
        skew: 0.7,
        seed: 7,
    })
}

/// Chain-of-clusters graph for the decomposition experiment.
fn clusters(k: usize, size: usize) -> Graph {
    clustered_graph(k, size, 3)
}

/// Median wall time over `n` runs, in microseconds.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    println!("semistructured — experiment report (E1–E13)");
    println!("paper: Buneman, \"Semistructured Data\", PODS 1997 (tutorial; no tables — series defined in EXPERIMENTS.md)");

    e01();
    e02();
    e03();
    e04();
    e05();
    e06();
    e07();
    e08();
    e09();
    e10();
    e11();
    e12();
    e13();
    println!("\nreport complete.");
}

fn e01() {
    header("E1 / Figure 1 — the movie database");
    let g = figure1();
    println!(
        "nodes={} edges={} cyclic={} entries={}",
        g.reachable().len(),
        g.edge_count(),
        g.has_cycle(),
        g.successors_by_name(g.root(), "Entry").len()
    );
    let g2 = figure1();
    println!(
        "independent constructions bisimilar: {}",
        graphs_bisimilar(&g, &g2)
    );
    println!(
        "conforms to hand-written Figure-1 schema: {}",
        ssd_schema::conforms(&g, &ssd_schema::figure1_schema())
    );
}

fn e02() {
    header("E2 — §1.3 browsing, locate phase: scan vs index (µs, median of 9)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "entries", "q1 scan", "q1 index", "q2 scan", "q2 index", "q3 scan", "q3 index"
    );
    for &size in &[30usize, 100, 300, 1000] {
        let g = movies(size);
        let idx = GraphIndex::build(&g);
        let q1s = time_us(9, || browse::locate_string_scan(&g, "Actor 3"));
        let q1i = time_us(9, || browse::locate_string_indexed(&g, &idx, "Actor 3"));
        let q2s = time_us(9, || browse::locate_ints_greater_scan(&g, 1 << 16));
        let q2i = time_us(9, || browse::locate_ints_greater_indexed(&g, &idx, 1 << 16));
        let q3s = time_us(9, || browse::locate_attrs_prefix_scan(&g, "Act"));
        let q3i = time_us(9, || browse::locate_attrs_prefix_indexed(&g, &idx, "Act"));
        println!(
            "{size:>8} {q1s:>12.1} {q1i:>12.1} {q2s:>12.1} {q2i:>12.1} {q3s:>12.1} {q3i:>12.1}"
        );
    }
}

fn e03() {
    header("E3 — select-from-where (µs, median of 9)");
    let join = parse_query(
        r#"select {p: {t: T, d: D}} from db.Entry.Movie M, M.Title T, M.Director D
           where exists M.Cast"#,
    )
    .unwrap();
    println!("{:>8} {:>14} {:>10}", "entries", "join query", "results");
    for &size in &[30usize, 100, 300] {
        let g = movies(size);
        let t = time_us(9, || {
            evaluate_select(&g, &join, &EvalOptions::default()).unwrap()
        });
        let (_, stats) = evaluate_select(&g, &join, &EvalOptions::default()).unwrap();
        println!("{size:>8} {t:>14.1} {:>10}", stats.results_constructed);
    }
}

fn e04() {
    header("E4 — regular path expressions: product work (visited pairs)");
    let queries: Vec<(&str, Rpe)> = vec![
        (
            "Entry.Movie.Title",
            Rpe::seq(vec![
                Rpe::symbol("Entry"),
                Rpe::symbol("Movie"),
                Rpe::symbol("Title"),
            ]),
        ),
        (
            "Entry.Movie.(!Movie)*.\"Actor 1\"",
            Rpe::seq(vec![
                Rpe::symbol("Entry"),
                Rpe::symbol("Movie"),
                Rpe::step(Step::not_symbol("Movie")).star(),
                Rpe::step(Step::value("Actor 1")),
            ]),
        ),
        ("%*", Rpe::step(Step::wildcard()).star()),
    ];
    println!(
        "{:>8} {:>38} {:>10} {:>10} {:>12}",
        "entries", "query", "matches", "pairs", "µs"
    );
    for &size in &[100usize, 300] {
        let g = movies(size);
        for (name, rpe) in &queries {
            let nfa = Nfa::compile(rpe);
            let (matches, pairs) =
                eval_nfa_with_stats(&g, g.root(), &nfa, &Guard::unlimited()).unwrap_or_default();
            let t = time_us(9, || eval_nfa(&g, g.root(), &nfa));
            println!(
                "{size:>8} {name:>38} {:>10} {pairs:>10} {t:>12.1}",
                matches.len()
            );
        }
    }
}

fn e05() {
    header("E5 — relational strategy vs traversal (µs, median of 9)");
    use semistructured::triples::{Datum, Relation};
    use semistructured::Label;
    println!(
        "{:>8} {:>16} {:>16} {:>16} {:>16}",
        "entries", "σ-label rel", "σ-label POS", "path3 joins", "path3 traverse"
    );
    for &size in &[100usize, 300] {
        let db = Database::new(movies(size));
        let g = db.graph();
        let rel = Relation::edge_relation(&db.triples());
        let movie = Label::symbol(g.symbols(), "Movie");
        let t_rel = time_us(9, || {
            rel.select_eq("label", &Datum::Label(movie.clone()))
                .unwrap()
        });
        let index = TripleIndex::build(g);
        let t_idx = time_us(9, || {
            index.label_id(&movie).map(|p| index.by_label(p).len())
        });
        let entry = Label::symbol(g.symbols(), "Entry");
        let title = Label::symbol(g.symbols(), "Title");
        let t_joins = time_us(5, || {
            let e1 = rel
                .select_eq("label", &Datum::Label(entry.clone()))
                .unwrap()
                .project(&["src", "dst"])
                .unwrap()
                .rename("dst", "n1")
                .unwrap();
            let e2 = rel
                .select_eq("label", &Datum::Label(movie.clone()))
                .unwrap()
                .project(&["src", "dst"])
                .unwrap()
                .rename("src", "n1")
                .unwrap()
                .rename("dst", "n2")
                .unwrap();
            let e3 = rel
                .select_eq("label", &Datum::Label(title.clone()))
                .unwrap()
                .project(&["src", "dst"])
                .unwrap()
                .rename("src", "n2")
                .unwrap()
                .rename("dst", "n3")
                .unwrap();
            e1.natural_join(&e2)
                .natural_join(&e3)
                .project(&["n3"])
                .unwrap()
        });
        let path = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::symbol("Title"),
        ]);
        let nfa = Nfa::compile(&path);
        let t_trav = time_us(9, || eval_nfa(g, g.root(), &nfa));
        println!("{size:>8} {t_rel:>16.1} {t_idx:>16.1} {t_joins:>16.1} {t_trav:>16.1}");
    }
}

fn e06() {
    header("E6 — graph datalog: semi-naive vs naive (transitive closure)");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "pages", "|path|", "semi µs", "naive µs", "semi evals", "naive evals"
    );
    for &pages in &[30usize, 60, 120] {
        let db = Database::new(web(pages));
        let (g, edges) = (db.graph(), db.triples());
        let program = parse_program(
            "path(X, Y) :- edge(X, _L, Y).\npath(X, Y) :- edge(X, _L, Z), path(Z, Y).",
            g.symbols(),
        )
        .unwrap();
        let semi = evaluate(&program, &edges).unwrap();
        let naive = evaluate_naive(&program, &edges).unwrap();
        assert!(semi.tuples("path").eq(naive.tuples("path")));
        let t_semi = time_us(3, || evaluate(&program, &edges).unwrap());
        let t_naive = time_us(3, || evaluate_naive(&program, &edges).unwrap());
        println!(
            "{pages:>8} {:>10} {t_semi:>12.1} {t_naive:>12.1} {:>12} {:>12}",
            semi.count("path"),
            semi.rule_evaluations,
            naive.rule_evaluations
        );
    }
}

fn e07() {
    header("E7 — structural recursion (gext): linear, total on cycles");
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "edges", "cyclic", "identity µs", "µs/edge"
    );
    for &size in &[100usize, 300, 1000] {
        let g = movies(size);
        let t = time_us(5, || gext(&g, g.root(), &Transducer::new()));
        println!(
            "{:>10} {:>10} {t:>14.1} {:>10.3}",
            g.edge_count(),
            g.has_cycle(),
            t / g.edge_count() as f64
        );
    }
    // Infinite unfolding, finite time.
    let g = movie_database(&MovieDbConfig {
        reference_prob: 0.8,
        ..MovieDbConfig::sized(300)
    });
    let t = time_us(5, || gext(&g, g.root(), &Transducer::new()));
    println!("dense-cycles 300 entries: {:.1} µs (unfolding is infinite; output is a finite cyclic graph)", t);
}

fn e08() {
    header("E8 — relational fragment through the graph engine (µs)");
    use semistructured::query::relational_fragment as rf;
    println!(
        "{:>8} {:>14} {:>14} {:>12} {:>12}",
        "rows", "σ graph", "σ native", "⋈ graph", "⋈ native"
    );
    for &rows in &[50usize, 200] {
        let rel = ssd_data::relational::wide_relation(rows, 3, 10, 2);
        let g = rf::database_of(std::slice::from_ref(&rel));
        let t_sg = time_us(5, || rf::select_eq(&g, &rel, "c1", &Value::Int(3)).unwrap());
        let t_sn = time_us(9, || rf::native_select_eq(&rel, "c1", &Value::Int(3)));
        let (ord, cust) = ssd_data::relational::orders_and_customers(rows, 10, 5);
        let g2 = rf::database_of(&[ord.clone(), cust.clone()]);
        let t_jg = time_us(3, || {
            rf::join(&g2, &ord, &cust, "customer", "name").unwrap()
        });
        let t_jn = time_us(9, || rf::native_join(&ord, &cust, "customer", "name"));
        // Cross-check once.
        assert_eq!(
            rf::select_eq(&g, &rel, "c1", &Value::Int(3))
                .unwrap()
                .row_set(),
            rf::native_select_eq(&rel, "c1", &Value::Int(3)).row_set()
        );
        println!("{rows:>8} {t_sg:>14.1} {t_sn:>14.1} {t_jg:>12.1} {t_jn:>12.1}");
    }
    println!("(set difference is NOT expressible in the positive select fragment — provided natively; see DESIGN.md S13)");
}

fn e09() {
    header("E9 — deep restructuring (µs, median of 5)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "entries", "relabel", "collapse", "delete", "shortcut"
    );
    for &size in &[100usize, 300] {
        let g = movies(size);
        let t_rel = time_us(5, || {
            restructure::relabel_edges(&g, Pred::Symbol("Actors".into()), "Performer")
        });
        let t_col = time_us(5, || {
            restructure::collapse_edges(&g, Pred::Symbol("Credit".into()))
        });
        let t_del = time_us(5, || {
            restructure::delete_edges(&g, Pred::Symbol("BoxOffice".into()))
        });
        let t_sc = time_us(5, || {
            restructure::shortcut(
                &g,
                &Pred::Symbol("Cast".into()),
                &Pred::Symbol("Actors".into()),
                "CastMember",
            )
        });
        println!("{size:>8} {t_rel:>12.1} {t_col:>12.1} {t_del:>12.1} {t_sc:>12.1}");
    }
}

fn e10() {
    header("E10 — optimizer: baseline vs pushdown+guide (µs, median of 5)");
    let selective = parse_query(
        r#"select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T, M.Cast.%* X where Y < 1935"#,
    )
    .unwrap();
    let unselective = parse_query(
        r#"select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T, M.Cast.%* X where Y < 2100"#,
    )
    .unwrap();
    let empty = parse_query("select T from db.NoSuchThing.%* T").unwrap();
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "entries", "query", "baseline", "optimized", "speedup", "base asgn", "opt asgn"
    );
    for &size in &[100usize, 300] {
        let g = movies(size);
        let guide = DataGuide::build(&g);
        for (name, q) in [
            ("selective", &selective),
            ("unselect.", &unselective),
            ("empty", &empty),
        ] {
            let t_base = time_us(5, || {
                evaluate_select(&g, q, &EvalOptions::default()).unwrap()
            });
            let t_opt = time_us(5, || {
                evaluate_select(&g, q, &EvalOptions::optimized(Some(&guide))).unwrap()
            });
            let (_, sb) = evaluate_select(&g, q, &EvalOptions::default()).unwrap();
            let (_, so) = evaluate_select(&g, q, &EvalOptions::optimized(Some(&guide))).unwrap();
            println!(
                "{size:>8} {name:>12} {t_base:>14.1} {t_opt:>14.1} {:>13.1}x {:>12} {:>12}",
                t_base / t_opt.max(0.01),
                sb.assignments_tried,
                so.assignments_tried
            );
        }
    }
    // Schema refutation of an impossible path.
    let g = movies(300);
    let schema = ssd_schema::extract_schema_default(&g);
    let impossible = Rpe::seq(vec![
        Rpe::symbol("Entry"),
        Rpe::symbol("Movie"),
        Rpe::symbol("Nonexistent"),
        Rpe::symbol("Title"),
    ]);
    let t_schema = time_us(9, || optimizer::schema_allows(&schema, &impossible));
    let nfa = Nfa::compile(&impossible);
    let t_data = time_us(9, || eval_nfa(&g, g.root(), &nfa).is_empty());
    println!("emptiness of impossible path: schema check {t_schema:.1} µs vs data traversal {t_data:.1} µs");
}

fn e11() {
    header("E11 — parallel decomposition over sites");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let g = clusters(16, 400);
    let rpe = Rpe::seq(vec![
        Rpe::step(Step::wildcard()).star(),
        Rpe::symbol("stop"),
    ]);
    let nfa = Nfa::compile(&rpe);
    let t_seq = time_us(5, || eval_nfa(&g, g.root(), &nfa));
    println!(
        "graph: {} nodes, {} edges; sequential: {t_seq:.1} µs",
        g.reachable().len(),
        g.edge_count()
    );
    println!("host cores: {cores}; wall clock is core-bound — the ideal speedup is the");
    println!("partition-determined work profile, a model of a k-core host (one site per core)");
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "sites", "blocks µs", "wall spd", "cross", "waves", "ideal spd", "hash µs", "wall spd"
    );
    for &k in &[2usize, 4, 8, 16] {
        let blocks = Partition::index_blocks(&g, k);
        let hash = Partition::hash(&g, k);
        let t_b = time_us(5, || eval_decomposed_nfa(&g, &nfa, &blocks));
        let t_h = time_us(5, || eval_decomposed_nfa(&g, &nfa, &hash));
        let profile =
            semistructured::query::decompose::decomposition_work_profile(&g, &nfa, &blocks);
        println!(
            "{k:>6} {t_b:>12.1} {:>9.2}x {:>8} {:>10} {:>9.2}x {t_h:>12.1} {:>9.2}x",
            t_seq / t_b.max(0.01),
            blocks.cross_edges(&g),
            profile.waves.len(),
            profile.ideal_speedup(),
            t_seq / t_h.max(0.01)
        );
    }
}

fn e12() {
    header("E12 — schemas: conformance, extraction, DataGuide vs 1-index (µs)");
    println!(
        "{:>8} {:>10} {:>13} {:>13} {:>11} {:>11} {:>11} {:>11}",
        "entries",
        "nodes",
        "conform µs",
        "extract µs",
        "guide µs",
        "guide sz",
        "1idx µs",
        "1idx sz"
    );
    for &size in &[30usize, 100, 300] {
        let g = movies(size);
        let schema = ssd_schema::extract_schema_default(&g);
        let t_con = time_us(5, || ssd_schema::conforms(&g, &schema));
        let t_ext = time_us(3, || ssd_schema::extract_schema_default(&g));
        let t_dg = time_us(3, || DataGuide::build(&g));
        let t_oi = time_us(3, || ssd_schema::OneIndex::build(&g));
        let guide = DataGuide::build(&g);
        let oneidx = ssd_schema::OneIndex::build(&g);
        println!(
            "{size:>8} {:>10} {t_con:>13.1} {t_ext:>13.1} {t_dg:>11.1} {:>11} {t_oi:>11.1} {:>11}",
            g.reachable().len(),
            guide.node_count(),
            oneidx.node_count()
        );
    }
    let db = Database::new(movies(100));
    println!(
        "schema of 100-entry DB has {} nodes (constant in data size: structure repeats)",
        db.extract_schema().node_count()
    );
}

fn e13() {
    use semistructured::graph::bisim::{bisimilarity_classes, naive_bisimilar};
    use semistructured::graph::{json, literal};
    use semistructured::Label;
    use ssd_data::acedb::{acedb, AcedbConfig};
    header("E13 — ablations of DESIGN.md §3's choices: first vs second (µs, median of 9)");
    println!(
        "{:>36} {:>12} {:>12} {:>14}",
        "pair", "first µs", "second µs", "second/first"
    );
    let row = |pair: &str, first: f64, second: f64| {
        let ratio = second / first.max(0.01);
        println!("{pair:>36} {first:>12.1} {second:>12.1} {ratio:>13.2}x");
    };
    // Partition refinement vs the naive greatest-fixpoint oracle; small
    // sizes only, the oracle is O(n² m).
    for &size in &[5usize, 15] {
        let g = movies(size);
        let refine = time_us(9, || bisimilarity_classes(&g));
        let naive = time_us(9, || naive_bisimilar(&g, g.root(), &g, g.root()));
        row(&format!("bisim refine/naive movies({size})"), refine, naive);
    }
    // All 125 three-label words against an RPE with overlapping alternatives.
    let regular = movies(100);
    let syms = regular.symbols();
    let nfa = Nfa::compile(&Rpe::seq(vec![
        Rpe::alt(vec![Rpe::symbol("Entry"), Rpe::symbol("Movie")]).star(),
        Rpe::alt(vec![
            Rpe::symbol("Title"),
            Rpe::seq(vec![Rpe::symbol("Cast"), Rpe::symbol("Actors")]),
        ]),
    ]));
    let dfa = nfa.to_dfa();
    let alphabet = ["Entry", "Movie", "Title", "Cast", "Actors"].map(|s| Label::symbol(syms, s));
    let words: Vec<Vec<Label>> = (0..125)
        .map(|i| vec![i / 25, i / 5 % 5, i % 5])
        .map(|w| w.into_iter().map(|j| alphabet[j].clone()).collect())
        .collect();
    let t_nfa = time_us(9, || words.iter().filter(|w| nfa.accepts(w, syms)).count());
    let t_dfa = time_us(9, || words.iter().filter(|w| dfa.accepts(w, syms)).count());
    row("accept nfa/dfa 125 words", t_nfa, t_dfa);
    // The ACeDB tree is acyclic, so JSON can carry it.
    let tree = acedb(&AcedbConfig {
        objects: 40,
        max_depth: 6,
        branching: 3,
        seed: 4,
    });
    let t_lit = time_us(9, || {
        literal::parse_graph(&literal::write_graph(&tree)).unwrap()
    });
    let t_json = time_us(9, || {
        json::from_json(&json::graph_to_json(&tree).unwrap()).unwrap()
    });
    row("round trip literal/json acedb", t_lit, t_json);
    for (name, g) in [("movies(100)", &regular), ("acedb", &tree)] {
        let guide = time_us(9, || DataGuide::build(g));
        let oneidx = time_us(9, || ssd_schema::OneIndex::build(g));
        row(&format!("dataguide/1-index {name}"), guide, oneidx);
    }
}
