//! Views, the rewrite language, and JSON exchange working together.
//!
//! ```sh
//! cargo run --example views
//! ```

use semistructured::graph::stats::profile;
use semistructured::query::views::ViewCatalog;
use semistructured::Database;

fn main() -> Result<(), String> {
    // Ingest JSON (the modern face of §1.2's data exchange).
    let db = Database::from_json(
        r#"{
          "catalog": [
            {"title": "Casablanca",        "year": 1942, "cast": ["Bogart", "Bacall"]},
            {"title": "Play it again, Sam","year": 1972, "cast": ["Allen", "Keaton"]},
            {"title": "Annie Hall",        "year": 1977, "cast": ["Allen", "Keaton"]}
          ]
        }"#,
    )?;
    println!("imported: {}", profile(db.graph()));

    // Rewrite: rename `cast` to `performers` everywhere (deep relabel in
    // the surface transformation language).
    let shaped = db.rewrite(
        r#"rewrite
             case cast  => { performers: recur }
             otherwise  => { _: recur }"#,
    )?;
    println!("\nafter relabeling:\n{}", shaped.to_literal());

    // Define views; the second composes with the first through an
    // ordinary path. JSON array slots carry integer labels, so `%`
    // wildcards step over them.
    let mut catalog = ViewCatalog::new();
    catalog
        .define(
            "seventies",
            r#"select {movie: M} from db.catalog.% M, M.year Y where Y >= 1970"#,
        )
        .map_err(|e| e.to_string())?;
    catalog
        .define(
            "allen_films",
            r#"select {title: T} from db.seventies.movie M, M.title T,
                      M.performers.%."Allen" A"#,
        )
        .map_err(|e| e.to_string())?;
    let extended = catalog
        .materialize(shaped.graph())
        .map_err(|e| e.to_string())?;
    let ext_db = Database::new(extended);

    let r = ext_db.query("select T from db.allen_films.title T")?;
    println!("\nAllen films of the seventies:\n{}", r.to_literal());

    // Export a view back to JSON for the next system in the pipeline.
    let export = ext_db.query(r#"select {film: T} from db.allen_films.title T"#)?;
    let json = Database::new(export.graph().clone())
        .to_json()
        .map_err(|e| e.to_string())?;
    println!("\nas JSON: {json}");
    Ok(())
}
