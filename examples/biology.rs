//! ACeDB-style ragged biology trees (§1.1): arbitrary depth, loose
//! structure, schema discovery.
//!
//! ```sh
//! cargo run --example biology
//! ```

use semistructured::Database;
use ssd_data::acedb::{acedb, max_depth, AcedbConfig};

fn main() -> Result<(), String> {
    let g = acedb(&AcedbConfig {
        objects: 100,
        max_depth: 12,
        branching: 3,
        seed: 11,
    });
    let depth = max_depth(&g);
    let db = Database::new(g);
    println!(
        "ACeDB-like database: {} nodes, max depth {depth}",
        db.graph().reachable().len()
    );

    // "Trees of arbitrary depth ... cannot be queried using conventional
    // techniques" — but a regular path expression reaches any depth:
    let deep_refs = db.query("select R from db.Gene.%*.Reference R")?;
    println!(
        "Reference sections at ANY depth: {}",
        deep_refs.graph().out_degree(deep_refs.graph().root())
    );

    // Loose structure: which genes have sequences with homologies?
    let r = db.query("select {Name: N} from db.Gene G, G.Name N, G.%*.Homology H")?;
    println!(
        "genes with a Homology somewhere below: {}",
        r.graph().successors_by_name(r.graph().root(), "Name").len()
    );

    // Discover the schema (§5) and check how loose it is.
    let schema = db.extract_schema();
    println!(
        "extracted schema: {} nodes / {} predicate edges (data graph: {} nodes)",
        schema.node_count(),
        schema.edge_count(),
        db.graph().reachable().len()
    );
    assert!(db.conforms_to(&schema));

    // The DataGuide summarises every label path in the data.
    let guide = db.dataguide();
    println!(
        "DataGuide: {} states; every path of length <= 3: {} distinct paths",
        guide.node_count(),
        guide.paths_up_to(3).len()
    );

    // Type predicates (§2 self-describing data): find integer annotations.
    let ints = db.ints_greater(90_000);
    println!("integer annotations > 90000: {}", ints.len());
    Ok(())
}
