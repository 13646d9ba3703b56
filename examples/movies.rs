//! Figure 1 of the paper, reproduced exactly, with the tutorial's own
//! queries run against it:
//!
//! * the three §1.3 browsing queries;
//! * the §3 "did Allen act in Casablanca?" regular-path-expression query
//!   (with the (!Movie)* constraint);
//! * the §3 restructuring query that "corrects the egregious error in the
//!   'Bacall' edge label";
//! * the §5 schema conformance check.
//!
//! ```sh
//! cargo run --example movies
//! ```

use semistructured::graph::stats::profile;
use semistructured::query::restructure;
use semistructured::{Database, Pred, Value};

fn main() -> Result<(), String> {
    let db = Database::new(semistructured::data::movies::figure1());
    println!("Figure 1: {}", profile(db.graph()));
    println!("{}\n", db.to_literal());

    // --- §1.3 browsing -------------------------------------------------
    println!("Q1: where is the string \"Casablanca\"?");
    for h in db.find_string("Casablanca") {
        let path: Vec<String> = h
            .path
            .iter()
            .map(|l| l.display(db.graph().symbols()).to_string())
            .collect();
        println!("  at root.{}", path.join("."));
    }

    println!("\nQ2: integers greater than 2^16?");
    let big = db.ints_greater(1 << 16);
    println!(
        "  {} found (the ints in Figure 1 are guest indices)",
        big.len()
    );
    println!("  reals, though: BoxOffice = 1.2E6 is present");

    println!("\nQ3: attribute names starting with \"Act\"?");
    for h in db.attrs_with_prefix("Act") {
        println!(
            "  edge {} at node {}",
            h.label.display(db.graph().symbols()),
            h.from
        );
    }

    // --- §3: Allen in Casablanca? ---------------------------------------
    // "one would not want this path to contain another Movie edge".
    let q = r#"select T from db.Entry.Movie M, M.Title T, M.(!Movie)*."Allen" A"#;
    let r = db.query(q)?;
    println!("\nmovies containing \"Allen\" below them (no Movie edge crossed):");
    println!("{}", r.to_literal());

    // --- §3: fix the egregious Bacall error ------------------------------
    // Figure 1 labels Bacall's actor edge with the other movie's title.
    let fixed = Database::new(restructure::relabel_edges_to_value(
        db.graph(),
        Pred::ValueEq(Value::Str("Play it again, Sam".into())),
        "Bacall",
    ));
    // Note this relabels ALL such value edges, including the legitimate
    // title — the paper's point is that the *query language* can express
    // the repair; a real repair would add a path condition:
    let surgical = db.query(
        r#"select {Fixed: C} from db.Entry.Movie M, M.Title T, M.Cast C where T = "Casablanca""#,
    )?;
    println!(
        "\ncast of Casablanca before repair:\n{}",
        surgical.to_literal()
    );
    println!(
        "\nafter global relabel, \"Bacall\" occurs {} time(s)",
        fixed.find_string("Bacall").len()
    );

    // --- §5: schema -------------------------------------------------------
    let schema = semistructured::schema::figure1_schema();
    println!("\nconforms to the hand-written Figure-1 schema: (loose!)");
    println!("  {}", db.conforms_to(&schema));
    let extracted = db.extract_schema();
    println!(
        "extracted schema has {} nodes; data conforms: {}",
        extracted.node_count(),
        db.conforms_to(&extracted)
    );

    // --- DataGuide --------------------------------------------------------
    let guide = db.dataguide();
    println!(
        "\nDataGuide: {} states summarising {} nodes",
        guide.node_count(),
        db.graph().reachable().len()
    );
    Ok(())
}
