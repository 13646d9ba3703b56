//! Quickstart: build a small semistructured database, query it, browse
//! it, and restructure it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use semistructured::graph::stats::profile;
use semistructured::{Database, Pred};

fn main() -> Result<(), String> {
    // 1. Data is self-describing: no schema needed up front. The literal
    //    syntax is the paper's nested-set notation; `@x = ...` introduces
    //    sharing and cycles.
    let db = Database::from_literal(
        r#"{
            Entry: {Movie: {Title: "Casablanca",
                            Year: 1942,
                            Cast: {Actors: "Bogart", Actors: "Bacall"},
                            Director: "Curtiz"}},
            Entry: {Movie: {Title: "Play it again, Sam",
                            Year: 1972,
                            Cast: {Credit: {Actors: "Allen"}},
                            Director: "Ross"}}
        }"#,
    )?;
    println!("database: {}", profile(db.graph()));

    // 2. Query with path expressions; variables tie paths together.
    let r = db.query(
        r#"select {Pair: {Title: T, Director: D}}
           from db.Entry.Movie M, M.Title T, M.Director D
           where exists M.Cast"#,
    )?;
    println!("\ntitles and directors:\n{}", r.to_literal());

    // 3. Regular path expressions cope with heterogeneous structure: both
    //    cast representations in one query.
    let actors = db.query("select A from db.Entry.Movie.Cast.(Actors | Credit.Actors) A")?;
    println!("\nall actors:\n{}", actors.to_literal());

    // 4. Browse without knowing the schema (§1.3).
    let hits = db.find_string("Casablanca");
    println!("\n\"Casablanca\" found at {} place(s)", hits.len());
    for h in &hits {
        let path: Vec<String> = h
            .path
            .iter()
            .map(|l| l.display(db.graph().symbols()).to_string())
            .collect();
        println!("  via path {}", path.join("."));
    }

    // 5. Deep restructuring: flatten the Credit wrapper so both movies
    //    share one cast shape.
    let flat = db.collapse_edges(Pred::Symbol("Credit".into()));
    println!("\nafter collapsing Credit:\n{}", flat.to_literal());

    // 6. Discover structure (§5): extract a schema and verify conformance.
    let schema = db.extract_schema();
    println!("\nextracted {}", schema);
    assert!(db.conforms_to(&schema));
    // The flattened DB has a different shape, so it may or may not conform.
    println!("flattened conforms: {}", flat.conforms_to(&schema));
    Ok(())
}
