//! Query optimization (§4 and \[20\]).
//!
//! Three techniques, all measured in E10/E12:
//!
//! 1. **Algebraic RPE simplification** — `(e*)* → e*` etc.
//!    ([`Rpe::simplify`], applied by [`optimize`]).
//! 2. **Selection pushdown** — conjuncts evaluated as soon as their
//!    variables are bound (`EvalOptions::pushdown`; the "extensions of
//!    existing techniques for optimization of object-oriented or
//!    relational query languages" of §4).
//! 3. **Schema/DataGuide pruning** (\[20\], §5) — before touching data,
//!    check the query's paths against a structural summary:
//!    * [`schema_allows`]: product reachability of the path automaton and
//!      a predicate-labeled [`Schema`] using conservative predicate
//!      intersection — a `false` proves the path matches nothing in any
//!      conforming database;
//!    * DataGuide probing is exact and lives in
//!      [`EvalOptions::guide`](crate::lang::EvalOptions).
//!
//! These are library passes. `Database` applies 1 and 2 on its own
//! whenever the interpreter runs; 3's DataGuide it never does. Nothing
//! reorders bindings: when the cost estimator sees a cross-product join,
//! SSD032 advises the writer instead.

use crate::analyze::typing;
use crate::lang::{SelectQuery, Source};
use crate::rpe::Rpe;
use ssd_schema::Schema;
use std::collections::BTreeSet;

/// Report of what the optimizer did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// Binding indexes whose RPE changed under simplification.
    pub simplified: Vec<usize>,
    /// Binding indexes proven empty against the schema (query result is
    /// empty).
    pub schema_pruned: Vec<usize>,
}

/// Rewrite the query: simplify all binding RPEs; check db-rooted paths
/// against an optional schema. If any binding is schema-pruned the query
/// provably returns the empty tree on every conforming database.
pub fn optimize(query: &SelectQuery, schema: Option<&Schema>) -> (SelectQuery, OptReport) {
    let mut out = query.clone();
    let mut report = OptReport::default();
    for (i, b) in out.bindings.iter_mut().enumerate() {
        let simplified = b.path.simplify();
        if simplified != b.path {
            report.simplified.push(i);
            b.path = simplified;
        }
    }
    if let Some(s) = schema {
        // The analyzer's path-typing inference threads schema-node sets
        // through the from-clause environment, so (unlike the old
        // db-rooted-only check) a binding sourced from another variable is
        // also pruned when its inferred node set is empty.
        let (types, _) = typing::infer(&out, s, None);
        for (i, b) in out.bindings.iter().enumerate() {
            let sourced = match &b.source {
                Source::Db => true,
                Source::Var(v) => out.bindings[..i].iter().any(|p| &p.var == v),
            };
            if sourced && types.provably_empty(i) {
                report.schema_pruned.push(i);
            }
        }
    }
    (out, report)
}

/// Could any path from the schema root satisfy `path`? Conservative:
/// `true` may be wrong (lost optimization), `false` is a proof of
/// emptiness for every database conforming to `schema`.
///
/// Boolean view of the analyzer's product-reachability inference
/// ([`crate::analyze::typing::reach`]): the path is allowed iff the set of
/// schema nodes it can reach from the root is non-empty. Label variables
/// are wildcards for this purpose.
pub fn schema_allows(schema: &Schema, path: &Rpe) -> bool {
    let seeds: BTreeSet<_> = std::iter::once(schema.root()).collect();
    !typing::reach(schema, path, &seeds).nodes.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_query;
    use ssd_schema::Pred;

    fn movie_schema() -> Schema {
        let mut s = Schema::new();
        let root = s.root();
        let entry = s.add_node();
        let movie = s.add_node();
        let strval = s.add_node();
        s.add_edge(root, Pred::Symbol("Entry".into()), entry);
        s.add_edge(entry, Pred::Symbol("Movie".into()), movie);
        s.add_edge(movie, Pred::Symbol("Title".into()), strval);
        s.add_edge(
            movie,
            Pred::Symbol("Cast".into()),
            movie, // cast loops back for nested structure
        );
        s.add_edge(strval, Pred::Kind(ssd_graph::LabelKind::Str), strval);
        s
    }

    #[test]
    fn schema_allows_valid_paths() {
        let s = movie_schema();
        let p = parse_query("select T from db.Entry.Movie.Title T")
            .unwrap()
            .bindings[0]
            .path
            .clone();
        assert!(schema_allows(&s, &p));
    }

    #[test]
    fn schema_refutes_impossible_paths() {
        let s = movie_schema();
        let p = parse_query("select T from db.Entry.Director T")
            .unwrap()
            .bindings[0]
            .path
            .clone();
        assert!(!schema_allows(&s, &p));
    }

    #[test]
    fn schema_allows_wildcards_and_stars() {
        let s = movie_schema();
        let star = parse_query("select T from db.%*.Title T").unwrap().bindings[0]
            .path
            .clone();
        assert!(schema_allows(&s, &star));
        let nowhere = parse_query("select T from db.%*.Nonexistent T")
            .unwrap()
            .bindings[0]
            .path
            .clone();
        assert!(!schema_allows(&s, &nowhere));
    }

    #[test]
    fn schema_allows_nullable_path_trivially() {
        let s = Schema::new();
        assert!(schema_allows(&s, &Rpe::symbol("x").star()));
        assert!(!schema_allows(&s, &Rpe::symbol("x")));
    }

    #[test]
    fn optimize_simplifies_and_prunes() {
        let q = parse_query("select T from db.Entry.Movie.Title.%** T").unwrap();
        let s = movie_schema();
        let (opt, report) = optimize(&q, Some(&s));
        assert_eq!(report.simplified, vec![0]);
        assert!(report.schema_pruned.is_empty());
        assert!(opt.bindings[0].path.to_string().len() <= q.bindings[0].path.to_string().len());

        let q2 = parse_query("select T from db.Bogus.Path T").unwrap();
        let (_, report2) = optimize(&q2, Some(&s));
        assert_eq!(report2.schema_pruned, vec![0]);
    }

    #[test]
    fn optimize_without_schema_only_simplifies() {
        let q = parse_query("select T from db.a?* T").unwrap();
        let (opt, report) = optimize(&q, None);
        assert_eq!(report.simplified, vec![0]);
        assert!(report.schema_pruned.is_empty());
        assert_eq!(opt.bindings[0].path.to_string(), "(a)*");
    }

    #[test]
    fn cyclic_schema_paths_allowed_to_any_depth() {
        let s = movie_schema();
        // Cast loops: Entry.Movie.Cast.Cast.Cast.Title is allowed.
        let q = parse_query("select T from db.Entry.Movie.Cast.Cast.Cast.Title T").unwrap();
        assert!(schema_allows(&s, &q.bindings[0].path));
    }
}
