//! Query optimization (§4 and \[20\]).
//!
//! Three techniques, all benchmarked in E10/E12:
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
//! 4. **Cost-based join ordering** (ssd-cost) — [`optimize_with_stats`]
//!    reorders from-clause bindings by their statically estimated match
//!    cardinality (cheapest first, dependencies respected), and
//!    [`optimize_datalog`] does the same for positive body atoms of each
//!    datalog rule. Both record before/after [`CostEnvelope`]s so
//!    experiment E15 can show the predicted effect.
//!
//! These are library passes. `Database` applies 1 and 2 on its own
//! whenever the interpreter runs; 3's DataGuide and 4 it never does — no
//! caller asks for a plan (SSD032 is the user-facing reorder advice).

use crate::analyze::cost::{self, CostContext};
use crate::analyze::typing;
use crate::lang::{SelectQuery, Source};
use crate::rpe::Rpe;
use ssd_guard::CostEnvelope;
use ssd_schema::{DataStats, Schema};
use ssd_triples::datalog::{is_builtin, Program};
use std::collections::BTreeSet;

/// Report of what the optimizer did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct OptReport {
    /// Binding indexes whose RPE changed under simplification.
    pub simplified: Vec<usize>,
    /// Binding indexes proven empty against the schema (query result is
    /// empty).
    pub schema_pruned: Vec<usize>,
    /// Cost-based reorder: for queries, the original binding indexes in
    /// their new order; for datalog, the indexes of rules whose body was
    /// reordered. Empty when nothing moved.
    pub reordered: Vec<usize>,
    /// Estimated envelope of the input (set by the cost-based passes).
    pub before: Option<CostEnvelope>,
    /// Estimated envelope of the optimized output.
    pub after: Option<CostEnvelope>,
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
                crate::lang::Source::Db => true,
                crate::lang::Source::Var(v) => out.bindings[..i].iter().any(|p| &p.var == v),
            };
            if sourced && types.provably_empty(i) {
                report.schema_pruned.push(i);
            }
        }
    }
    (out, report)
}

/// Cost-based optimization: everything [`optimize`] does, plus greedy
/// reordering of from-clause bindings by estimated match cardinality.
/// A binding only moves ahead of another when no dependency (variable
/// source, shared label variable) forces their relative order, and the
/// reorder is kept only when the estimated fuel bound actually improves —
/// with ties broken toward the original order, the pass can never pick a
/// plan the estimator considers worse than the input.
pub fn optimize_with_stats(
    query: &SelectQuery,
    schema: Option<&Schema>,
    stats: Option<&DataStats>,
) -> (SelectQuery, OptReport) {
    let (mut out, mut report) = optimize(query, schema);
    let ctx = CostContext { stats, schema };
    let before = cost::analyze_query_cost(&out, None, &ctx);
    report.before = Some(before.envelope);
    report.after = Some(before.envelope);

    let k = out.bindings.len();
    if k >= 2 {
        let order = greedy_order(&out, &before.per_binding);
        if order.iter().enumerate().any(|(pos, &i)| pos != i) {
            let candidate = SelectQuery {
                bindings: order.iter().map(|&i| out.bindings[i].clone()).collect(),
                ..out.clone()
            };
            let after = cost::analyze_query_cost(&candidate, None, &ctx);
            if after.envelope.fuel.hi < before.envelope.fuel.hi {
                report.reordered = order;
                report.after = Some(after.envelope);
                out = candidate;
            }
        }
    }
    (out, report)
}

/// Dependency-respecting greedy order: repeatedly take the cheapest
/// binding (by match upper bound, then lower bound, then original index)
/// among those whose prerequisites are already placed.
fn greedy_order(query: &SelectQuery, matches: &[ssd_guard::Interval]) -> Vec<usize> {
    let k = query.bindings.len();
    // deps[i] = binding indexes that must be placed before i: the binder
    // of a variable source, and any earlier binding sharing a label
    // variable (the first occurrence binds, later ones constrain).
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, b) in query.bindings.iter().enumerate() {
        if let Source::Var(v) = &b.source {
            if let Some(j) = query.bindings[..i].iter().position(|p| &p.var == v) {
                deps[i].push(j);
            }
        }
        let lvs: BTreeSet<&str> = b.path.label_vars().into_iter().collect();
        for (j, p) in query.bindings[..i].iter().enumerate() {
            if p.path.label_vars().iter().any(|lv| lvs.contains(lv)) {
                deps[i].push(j);
            }
        }
    }
    let mut placed = vec![false; k];
    let mut order = Vec::with_capacity(k);
    while order.len() < k {
        let next = (0..k)
            .filter(|&i| !placed[i] && deps[i].iter().all(|&j| placed[j]))
            .min_by_key(|&i| {
                let m = matches.get(i).copied().unwrap_or_default();
                (m.hi, m.lo, i)
            });
        match next {
            Some(i) => {
                placed[i] = true;
                order.push(i);
            }
            // Unreachable for well-formed dependency graphs (deps always
            // point at earlier indexes), but never loop forever.
            None => {
                for (i, p) in placed.iter_mut().enumerate() {
                    if !*p {
                        *p = true;
                        order.push(i);
                    }
                }
            }
        }
    }
    order
}

/// Cost-based datalog optimization: within each rule, evaluate small
/// relations first. Positive non-builtin atoms are stable-sorted by their
/// static size bound; each builtin or negated literal then re-attaches at
/// the earliest point where every variable it mentions is bound by a
/// preceding positive literal (they are pure filters, so evaluating them
/// with the same variables bound yields the same result in any position).
pub fn optimize_datalog(program: &Program, stats: Option<&DataStats>) -> (Program, OptReport) {
    let mut out = program.clone();
    let mut report = OptReport::default();
    let ctx = CostContext {
        stats,
        schema: None,
    };
    let bounds = cost::datalog::RelBounds::new(program, &ctx);
    report.before = Some(cost::analyze_datalog_cost(program, None, None, &ctx).envelope);
    for (ri, rule) in out.rules.iter_mut().enumerate() {
        let mut positives: Vec<_> = rule
            .body
            .iter()
            .filter(|l| l.positive && !is_builtin(l.atom.pred.as_str()))
            .cloned()
            .collect();
        positives.sort_by_key(|l| bounds.hi(l.atom.pred.as_str()));
        let filters: Vec<_> = rule
            .body
            .iter()
            .filter(|l| !l.positive || is_builtin(l.atom.pred.as_str()))
            .cloned()
            .collect();
        let mut body = positives;
        for f in filters {
            let needed: BTreeSet<&str> = f.atom.vars().collect();
            let mut bound: BTreeSet<&str> = BTreeSet::new();
            let mut at = body.len();
            for (i, l) in body.iter().enumerate() {
                if l.positive && !is_builtin(l.atom.pred.as_str()) {
                    bound.extend(l.atom.vars());
                }
                if needed.iter().all(|v| bound.contains(v)) {
                    at = i + 1;
                    break;
                }
            }
            body.insert(at, f);
        }
        if body != rule.body {
            rule.body = body;
            report.reordered.push(ri);
        }
    }
    report.after = Some(cost::analyze_datalog_cost(&out, None, None, &ctx).envelope);
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
    use crate::lang::{parse_query, EvalOptions};
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
    fn cost_reorder_moves_cheap_binding_first_and_preserves_results() {
        use ssd_graph::bisim::graphs_bisimilar;
        use ssd_graph::literal::parse_graph;
        use ssd_schema::figure1_schema;

        let g = parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca",
                               Cast: {Actors: "Bogart", Actress: "Bergman"}}},
                Entry: {Movie: {Title: "Sam", Cast: {Actors: "Allen"}}}}"#,
        )
        .unwrap();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        // `X` ranges over every node, `T` over the two entries: cheapest
        // first means `T` moves ahead of `X`.
        let q = crate::lang::parse_query("select {x: X, t: T} from db.%* X, db.Entry T").unwrap();
        let (opt, report) = optimize_with_stats(&q, Some(&schema), Some(&stats));
        assert_eq!(report.reordered, vec![1, 0], "{report:?}");
        assert_eq!(opt.bindings[0].var, "T");
        let (before, after) = (report.before.unwrap(), report.after.unwrap());
        assert!(after.fuel.hi < before.fuel.hi, "{report:?}");
        // Same results either way (the enumeration is a join).
        let opts = EvalOptions::default();
        let (base, _) = crate::lang::evaluate_select(&g, &q, &opts).unwrap();
        let (reord, _) = crate::lang::evaluate_select(&g, &opt, &opts).unwrap();
        assert!(graphs_bisimilar(&base, &reord));
    }

    #[test]
    fn cost_reorder_respects_dependencies() {
        use ssd_graph::literal::parse_graph;
        use ssd_schema::figure1_schema;

        let g = parse_graph(r#"{Entry: {Movie: {Title: "Casablanca"}}}"#).unwrap();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        // `T` sources from `M`: it can never be enumerated first, however
        // cheap it looks.
        let q = crate::lang::parse_query("select T from db.Entry.Movie M, M.Title T").unwrap();
        let (opt, report) = optimize_with_stats(&q, Some(&schema), Some(&stats));
        assert!(report.reordered.is_empty(), "{report:?}");
        assert_eq!(opt.bindings[0].var, "M");
        assert!(report.before.is_some() && report.after.is_some());
    }

    #[test]
    fn datalog_reorder_scans_small_relations_first() {
        use ssd_graph::literal::parse_graph;
        use ssd_triples::datalog::{evaluate, parse_program};
        use ssd_triples::TripleStore;

        let g = parse_graph("{a: {b: 1}, c: {b: 2}}").unwrap();
        let stats = DataStats::collect(&g);
        let p = parse_program(
            "hit(X) :- edge(A, _L, X), root(A).\n\
             far(X) :- edge(A, _L, M), root(A), edge(M, _K, X), not hit(X).",
            g.symbols(),
        )
        .unwrap();
        let (opt, report) = optimize_datalog(&p, Some(&stats));
        // `root/1` (one tuple) moves ahead of `edge/3` in both rules.
        assert_eq!(report.reordered, vec![0, 1], "{report:?}");
        assert_eq!(opt.rules[0].body[0].atom.pred, "root");
        // The negated filter still follows the literal binding `X`.
        let far = &opt.rules[1].body;
        let neg_at = far.iter().position(|l| !l.positive).unwrap();
        assert!(
            far[..neg_at]
                .iter()
                .any(|l| l.positive && l.atom.vars().any(|v| v == "X")),
            "{far:?}"
        );
        // Same derived tuples.
        let store = TripleStore::from_graph(&g);
        let base = evaluate(&p, &store).unwrap();
        let reord = evaluate(&opt, &store).unwrap();
        for pred in ["hit", "far"] {
            let a: std::collections::BTreeSet<_> = base.tuples(pred).collect();
            let b: std::collections::BTreeSet<_> = reord.tuples(pred).collect();
            assert_eq!(a, b, "{pred}");
        }
        assert!(report.before.unwrap().fuel.is_bounded());
        assert!(report.after.unwrap().fuel.is_bounded());
    }

    #[test]
    fn cyclic_schema_paths_allowed_to_any_depth() {
        let s = movie_schema();
        // Cast loops: Entry.Movie.Cast.Cast.Cast.Title is allowed.
        let q = parse_query("select T from db.Entry.Movie.Cast.Cast.Cast.Title T").unwrap();
        assert!(schema_allows(&s, &q.bindings[0].path));
    }
}
