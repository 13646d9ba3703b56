//! Experiment report: regenerates the E1–E12 and E15–E20 measured
//! series recorded in EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p ssd-bench --bin report
//! ```
//!
//! Criterion (`cargo bench`) provides rigorous timings; this binary
//! produces the *shape* tables — counts, work measures, and coarse
//! wall-clock ratios — that stand in for the tutorial's (non-existent)
//! evaluation tables. It prints and writes nothing else: the served
//! system's numbers come from `benchmark/` (BENCHMARK.json).

use semistructured::graph::bisim::graphs_bisimilar;
use semistructured::graph::index::GraphIndex;
use semistructured::query::decompose::{eval_decomposed_nfa, Partition};
use semistructured::query::recursion::{gext, Transducer};
use semistructured::query::rpe::eval::{eval_nfa, eval_nfa_with_stats};
use semistructured::query::{browse, evaluate_select, optimizer, parse_query, restructure};
use semistructured::query::{Nfa, Rpe, Step};
use semistructured::triples::datalog::{evaluate, evaluate_naive, parse_program};
use semistructured::triples::TripleStore;
use semistructured::{DataGuide, Database, EvalOptions, Pred, Value};
use ssd_bench::{clusters, movies, web};
use ssd_data::movies::figure1;
use std::time::Instant;

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
    println!("semistructured — experiment report (E1–E12, E15–E20)");
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
    e15();
    e16();
    e17();
    e18();
    e19();
    e20();
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
            let (matches, pairs) = eval_nfa_with_stats(&g, g.root(), &nfa);
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
        "entries", "σ-label rel", "σ-label index", "path3 joins", "path3 traverse"
    );
    for &size in &[100usize, 300] {
        let g = movies(size);
        let store = TripleStore::from_graph(&g);
        let rel = Relation::edge_relation(&store);
        let movie = Label::symbol(g.symbols(), "Movie");
        let t_rel = time_us(9, || {
            rel.select_eq("label", &Datum::Label(movie.clone()))
                .unwrap()
        });
        let t_idx = time_us(9, || store.with_label(&movie).len());
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
        let t_trav = time_us(9, || eval_nfa(&g, g.root(), &nfa));
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
        let g = web(pages);
        let store = TripleStore::from_graph(&g);
        let program = parse_program(
            "path(X, Y) :- edge(X, _L, Y).\npath(X, Y) :- edge(X, _L, Z), path(Z, Y).",
            g.symbols(),
        )
        .unwrap();
        let semi = evaluate(&program, &store).unwrap();
        let naive = evaluate_naive(&program, &store).unwrap();
        assert!(semi.tuples("path").eq(naive.tuples("path")));
        let t_semi = time_us(3, || evaluate(&program, &store).unwrap());
        let t_naive = time_us(3, || evaluate_naive(&program, &store).unwrap());
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
    let g = ssd_data::movies::movie_database(&ssd_data::movies::MovieDbConfig {
        reference_prob: 0.8,
        ..ssd_data::movies::MovieDbConfig::sized(300)
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

fn e15() {
    header("E15 — cost-based vs heuristic optimizer (µs, median of 5)");
    use semistructured::DataStats;
    // The E10 workloads (nothing to reorder: the cost-based pass must
    // not lose) plus a join-reorder case where the expensive `Cast.%*`
    // binding sits before the cheap `Title` binding.
    let selective = parse_query(
        r#"select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T, M.Cast.%* X where Y < 1935"#,
    )
    .unwrap();
    let unselective = parse_query(
        r#"select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T, M.Cast.%* X where Y < 2100"#,
    )
    .unwrap();
    let path3 = parse_query("select T from db.Entry.Movie.Title T").unwrap();
    // Independent bindings in a pessimal order: the cheap, high-
    // cardinality `Entry` scan sits outermost, so the expensive
    // `(!Movie)*` traversal is re-evaluated once per entry; cost-based
    // reordering runs it once and loops the cheap scan instead.
    let reorder =
        parse_query(r#"select {e: E, a: A} from db.Entry E, db.Entry.Movie.(!Movie)*."Actor 1" A"#)
            .unwrap();
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>10} {:>10} {:>10}",
        "entries", "query", "heuristic", "cost-based", "speedup", "heur asgn", "cost asgn"
    );
    for &size in &[100usize, 300] {
        let g = movies(size);
        let schema = ssd_schema::extract_schema_default(&g);
        let stats = DataStats::collect_with_schema(&g, &schema);
        for (name, q) in [
            ("selective", &selective),
            ("unselect.", &unselective),
            ("path3", &path3),
            ("reorder", &reorder),
        ] {
            let (heur, _) = optimizer::optimize(q, Some(&schema));
            let (cost, report) = optimizer::optimize_with_stats(q, Some(&schema), Some(&stats));
            let (rh, sh) = evaluate_select(&g, &heur, &EvalOptions::default()).unwrap();
            let (rc, sc) = evaluate_select(&g, &cost, &EvalOptions::default()).unwrap();
            assert!(
                graphs_bisimilar(&rh, &rc),
                "cost-based reorder changed the result of {name}"
            );
            let t_h = time_us(5, || {
                evaluate_select(&g, &heur, &EvalOptions::default()).unwrap()
            });
            let t_c = time_us(5, || {
                evaluate_select(&g, &cost, &EvalOptions::default()).unwrap()
            });
            let moved = if report.reordered.is_empty() { "" } else { "*" };
            println!(
                "{size:>8} {name:>11}{moved} {t_h:>14.1} {t_c:>14.1} {:>9.2}x {:>10} {:>10}",
                t_h / t_c.max(0.01),
                sh.assignments_tried,
                sc.assignments_tried
            );
        }
    }
    println!("(* = cost model committed a binding reorder; envelopes in OptReport)");
}

/// `fuel=N` token out of a job's DONE summary.
fn job_fuel(summary: &str) -> u64 {
    summary
        .split_whitespace()
        .find_map(|t| t.strip_prefix("fuel="))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Replay the scheduler's FIFO dispatch over measured per-job fuel:
/// each job goes to the least-loaded of `workers`; the makespan is the
/// heaviest worker's total. This is the partition-determined ideal the
/// E11 work profile uses, grounded in fuel the jobs actually spent.
fn simulated_makespan(fuels: &[u64], workers: usize) -> u64 {
    let mut load = vec![0u64; workers.max(1)];
    for &f in fuels {
        let i = (0..load.len()).min_by_key(|&i| load[i]).expect("nonempty");
        load[i] += f;
    }
    load.into_iter().max().unwrap_or(0)
}

fn e16() {
    use ssd_serve::{JobKind, ServeConfig, Server, SessionQuota};
    use std::sync::Arc;
    header("E16 — ssd-serve: worker scaling, admission cost, tail latency");

    const JOBS: usize = 32;
    const JOIN: &str = r#"select {p: {t: T, d: D}} from db.Entry.Movie M, M.Title T, M.Director D
                          where exists M.Cast"#;
    let db = Arc::new(Database::new(movies(100)));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let roomy = SessionQuota {
        fuel: None,
        memory: None,
        max_concurrent: JOBS,
        job_fuel: 1 << 40,
        job_memory: 1 << 32,
    };
    let cfg = |workers| ServeConfig {
        workers,
        queue_cap: JOBS * 2,
        ..ServeConfig::default()
    };

    // (a) Throughput scaling, 32 identical join jobs per run.
    println!("host cores: {cores}; wall clock is core-bound — the simulated makespan");
    println!("replays FIFO dispatch over the measured per-job fuel, a model of a k-core host");
    println!(
        "{:>8} {:>12} {:>10} {:>16} {:>10}",
        "workers", "wall µs", "wall spd", "sim makespan", "sim spd"
    );
    let mut fuels: Vec<u64> = Vec::new();
    let (mut wall1, mut mk1) = (0.0f64, 0u64);
    for &w in &[1usize, 2, 4, 8] {
        let server = Server::start(Arc::clone(&db), cfg(w));
        let sess = server.open_session(roomy.clone());
        let t = Instant::now();
        let handles: Vec<_> = (0..JOBS)
            .map(|_| sess.submit(JobKind::Query, JOIN).expect("admitted"))
            .collect();
        let mut run_fuels = Vec::with_capacity(JOBS);
        for h in handles {
            let o = h.wait();
            assert!(o.error.is_none(), "{:?}", o.error);
            run_fuels.push(job_fuel(o.summary.as_deref().unwrap_or("")));
        }
        let wall = t.elapsed().as_secs_f64() * 1e6;
        sess.close();
        server.shutdown();
        if w == 1 {
            fuels = run_fuels;
        }
        let mk = simulated_makespan(&fuels, w);
        if w == 1 {
            (wall1, mk1) = (wall, mk);
        }
        println!(
            "{w:>8} {wall:>12.1} {:>9.2}x {mk:>16} {:>9.2}x",
            wall1 / wall.max(0.01),
            mk1 as f64 / mk.max(1) as f64
        );
    }

    // (b) Admission rejection never reaches the engine. Only an
    // interpreter shape has a fuel lower bound to reject on: its root scan.
    const WILD: &str = "select T from db.Entry.%.Title T";
    let server = Server::start(Arc::clone(&db), cfg(2));
    let sess = server.open_session(SessionQuota {
        job_fuel: 1,
        ..roomy.clone()
    });
    let t = Instant::now();
    let rejected = (0..64)
        .filter(|_| sess.submit(JobKind::Query, WILD).is_err())
        .count();
    let per = t.elapsed().as_secs_f64() * 1e6 / 64.0;
    sess.close();
    let m = server.shutdown();
    println!(
        "admission: {rejected}/64 over-ceiling jobs rejected, {per:.1} µs each; \
         engine fuel spent = {} (rejection is free)",
        m.counters.fuel_spent
    );

    // (c) Tail latency under a mixed load, 2 workers.
    let server = Server::start(Arc::clone(&db), cfg(2));
    let sess = server.open_session(roomy.clone());
    let path3 = "select T from db.Entry.Movie.Title T";
    let handles: Vec<_> = (0..JOBS)
        .map(|i| match i % 3 {
            0 => sess.submit(JobKind::Query, JOIN),
            1 => sess.submit(JobKind::Query, path3),
            _ => sess.submit(JobKind::Rpe, "Entry.Movie.Title"),
        })
        .map(|r| r.expect("admitted"))
        .collect();
    for h in handles {
        let o = h.wait();
        assert!(o.error.is_none(), "{:?}", o.error);
    }
    sess.close();
    let m = server.shutdown();
    let (p50, p99) = (m.latency.percentile(50), m.latency.percentile(99));
    println!(
        "mixed load ({JOBS} jobs, 2 workers): p50={p50} µs p99={p99} µs queue peak={} \
         fuel est/spent={}/{}",
        m.queue_peak, m.counters.fuel_estimated, m.counters.fuel_spent
    );
}

fn e17() {
    use semistructured::query::evaluate_select;
    use semistructured::trace::{JsonlSink, SharedRing, Tracer, DEFAULT_RING_CAP};
    use semistructured::{Budget, EvalOptions};
    header("E17 — tracing overhead on the E3 select workload");

    const JOIN: &str = r#"select {p: {t: T, d: D}} from db.Entry.Movie M, M.Title T, M.Director D
                          where exists M.Cast"#;
    // An active budget that never trips: tracing reads fuel/memory off
    // the guard, so every variant pays the same guard cost and the
    // comparison isolates the tracer (same setup as benches/e17_trace.rs).
    let roomy = || {
        Budget::unlimited()
            .max_steps(u64::MAX / 2)
            .max_memory_mb(1 << 20)
            .max_depth(1 << 20)
            .timeout(std::time::Duration::from_secs(3600))
    };
    let g = movies(1000);
    let q = semistructured::query::parse_query(JOIN).unwrap();

    let baseline = time_us(15, || {
        let guard = roomy().guard();
        evaluate_select(&g, &q, &EvalOptions::default().with_guard(&guard)).unwrap()
    });
    let mut events = 0usize;
    let ring = SharedRing::new(DEFAULT_RING_CAP);
    let ring_tracer = Tracer::with_sink(Box::new(ring.clone()));
    let ring_t = time_us(15, || {
        let guard = roomy().guard();
        let r = evaluate_select(
            &g,
            &q,
            &EvalOptions::default()
                .with_guard(&guard)
                .with_tracer(&ring_tracer),
        )
        .unwrap();
        ring_tracer.flush();
        events = ring.take().len();
        r
    });
    let jsonl_tracer = Tracer::with_sink(Box::new(JsonlSink::new(std::io::sink())));
    let jsonl = time_us(15, || {
        let guard = roomy().guard();
        let r = evaluate_select(
            &g,
            &q,
            &EvalOptions::default()
                .with_guard(&guard)
                .with_tracer(&jsonl_tracer),
        )
        .unwrap();
        jsonl_tracer.flush();
        r
    });

    let pct = |v: f64| (v / baseline.max(0.01) - 1.0) * 100.0;
    println!("select join over movies(1000), median of 15 runs:");
    println!("{:>10} {:>12} {:>10}", "variant", "median µs", "overhead");
    println!("{:>10} {baseline:>12.1} {:>10}", "baseline", "—");
    println!(
        "{:>10} {ring_t:>12.1} {:>9.1}%  ({events} event(s))",
        "ring",
        pct(ring_t)
    );
    println!("{:>10} {jsonl:>12.1} {:>9.1}%", "jsonl", pct(jsonl));
}

fn e18() {
    use semistructured::Budget;
    use ssd_store::{Op, Store, Txn};
    header("E18 — durable commit and recovery-replay throughput");

    let dir = std::env::temp_dir().join(format!("ssd-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = Database::from_literal("{Seed: {Tag: \"bench\"}}").expect("seed");
    Store::init(&dir, &seed).expect("init store");
    let (store, _) = Store::open(&dir, &Budget::unlimited()).expect("open store");

    // Each commit is one op frame + one COMMIT frame + one fsync — the
    // dominant cost is the fsync, which is the honest number for a
    // durability layer.
    const TXNS: u64 = 200;
    let t = Instant::now();
    for i in 0..TXNS {
        let mut txn = Txn::new();
        txn.push(Op::Insert(format!("{{T{i}: {{N: {i}}}}}")));
        store.commit(&txn).expect("commit");
    }
    let commit_total_us = t.elapsed().as_secs_f64() * 1e6;
    let wal_bytes = store.wal_len();
    let generation = store.generation();
    drop(store);

    // Recovery replays the whole log (scan + checksum + apply) on every
    // open; the reopened store must land on the same generation.
    let recover_us = time_us(9, || {
        let (s, r) = Store::open(&dir, &Budget::unlimited()).expect("reopen");
        assert_eq!(r.txns_replayed, TXNS);
        s
    });

    let per_commit = commit_total_us / TXNS as f64;
    let replay_per_txn = recover_us / TXNS as f64;
    println!(
        "{TXNS} single-op txns: {per_commit:.1} µs/commit ({:.0} commits/s), wal={wal_bytes} B",
        1e6 / per_commit.max(0.01)
    );
    println!(
        "recovery replay: {recover_us:.1} µs total, {replay_per_txn:.2} µs/txn, \
         generation={generation}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn e19() {
    header("E19 — static analysis: full-workspace lint pass");

    // The lint pass runs in CI on every change, so its wall-clock is a
    // budget worth tracking: ten passes (five intraprocedural, five on
    // the interprocedural call graph with fixpoint effect summaries)
    // over every source file in the workspace.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = match ssd_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint pass skipped: {e}");
            return;
        }
    };
    let wall_us = time_us(5, || ssd_lint::lint_workspace(&root).expect("lint"));
    let files = report.files_scanned;
    let functions = report.functions_scanned;
    let findings = report.findings.len();
    let per_file = wall_us / files.max(1) as f64;
    println!(
        "full workspace lint (median of 5): {:.1} ms total, {per_file:.0} µs/file \
         ({files} files, {functions} functions, {findings} findings)",
        wall_us / 1e3
    );
}

fn e20() {
    header("E20 — batched columnar execution vs interpreter (µs, median of 9)");
    use semistructured::query::{evaluate_batched, plan_access};
    use semistructured::TripleIndex;

    // Batchable stand-ins for the E3/E5/E10 workloads: the E3 join; the
    // E5 three-step path and its σ-label analog (a selective lookup the
    // POS permutation answers directly, E5's "σ-label index" column as a
    // full select query); and the E10 selective filter without its
    // (unbatchable) `%*` tail.
    let cases: [(&str, &str); 4] = [
        (
            "E3-join",
            r#"select {p: {t: T, d: D}} from db.Entry.Movie M, M.Title T, M.Director D
               where exists M.Cast"#,
        ),
        ("E5-path3", "select T from db.Entry.Movie.Title T"),
        (
            "E5-sigma",
            r#"select X from db.Entry.Movie.Title."Movie 7" X"#,
        ),
        (
            "E10-filter",
            r#"select {t: T} from db.Entry.Movie M, M.Year Y, M.Title T where Y < 1935"#,
        ),
    ];
    println!(
        "{:>8} {:>12} {:>14} {:>12} {:>10} {:>9}",
        "entries", "query", "interpreter", "batched", "speedup", "results"
    );
    for &size in &[1usize, 30, 100, 300, 3000] {
        let g = movies(size);
        let index = TripleIndex::build(&g).expect("index build");
        for (name, text) in &cases {
            let q = parse_query(text).unwrap();
            let plan = plan_access(&g, &index, &q).expect("plannable");
            let t_interp = time_us(9, || {
                evaluate_select(&g, &q, &EvalOptions::default()).unwrap()
            });
            let t_batch = time_us(9, || {
                evaluate_batched(&g, &index, &q, &plan, &EvalOptions::default()).unwrap()
            });
            let (_, bstats) =
                evaluate_batched(&g, &index, &q, &plan, &EvalOptions::default()).unwrap();
            let speedup = t_interp / t_batch.max(0.001);
            println!(
                "{size:>8} {name:>12} {t_interp:>14.1} {t_batch:>12.1} {speedup:>9.1}x {:>9}",
                bstats.results_constructed
            );
        }
    }
}
