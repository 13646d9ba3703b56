//! Querying a web-like graph (§1.1's motivating example) with graph
//! datalog and parallel decomposition.
//!
//! ```sh
//! cargo run --example webgraph
//! ```

use semistructured::graph::stats::profile;
use semistructured::query::decompose::{eval_decomposed, Partition};
use semistructured::query::{eval_rpe, Rpe, Step};
use semistructured::Database;
use ssd_data::webgraph::{web_graph, WebGraphConfig};

fn main() -> Result<(), String> {
    let g = web_graph(&WebGraphConfig {
        pages: 500,
        mean_links: 5,
        skew: 0.8,
        seed: 7,
    });
    let db = Database::new(g);
    println!("web graph: {}", profile(db.graph()));

    // Pages reachable from page 0 through links only — a recursive query,
    // i.e. "graph datalog" (§3).
    let eval = db.datalog(
        r#"start(P) :- edge(_R, page, P), edge(P, title, T), edge(T, "Page 0", _L).
           reach(P) :- start(P).
           reach(Q) :- reach(P), edge(P, link, Q).
           hub(P)   :- reach(P), edge(_X, link, P), edge(_Y, link, P)."#,
    )?;
    println!(
        "pages link-reachable from \"Page 0\": {} (of 500); {} iterations",
        eval.count("reach"),
        eval.iterations
    );

    // The same reachability as a regular path expression.
    let rpe = Rpe::seq(vec![Rpe::symbol("page"), Rpe::symbol("link").star()]);
    let hits = eval_rpe(db.graph(), db.graph().root(), &rpe);
    println!("pages reachable via page.link*: {}", hits.len());

    // Parallel decomposition (§4, [35]): partition into sites, evaluate
    // per-site summaries in parallel, combine.
    for k in [1, 2, 4, 8] {
        let part = Partition::hash(db.graph(), k);
        let par = eval_decomposed(db.graph(), &rpe, &part);
        assert_eq!(par.len(), hits.len());
        println!(
            "decomposed over {k} site(s): same {} results, {} cross edges",
            par.len(),
            part.cross_edges(db.graph())
        );
    }

    // Text search over the whole graph without a schema.
    let deep = Rpe::seq(vec![
        Rpe::step(Step::wildcard()).star(),
        Rpe::step(Step::value("Page 42")),
    ]);
    let found = eval_rpe(db.graph(), db.graph().root(), &deep);
    println!("\"Page 42\" occurrences: {}", found.len());
    Ok(())
}
