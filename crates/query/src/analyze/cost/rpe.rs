//! Cost of one regular-path-expression evaluation.
//!
//! The evaluator ([`crate::rpe::eval`]) is a BFS over the product of data
//! graph × automaton: one fuel tick per popped product state, one per
//! scanned edge, [`VISIT_COST`] bytes per visited-set entry. With data
//! statistics those unit costs turn into closed-form interval bounds; the
//! NFA × *schema* product refines the match-cardinality upper bound
//! (Goldman–Widom-style statistics on the summary) and detects the
//! ISSUE's explicit `Unbounded` marker — a Kleene loop closing over a
//! cyclic schema region on an accepting path, which makes the set of
//! matchable label words infinite.

use super::{widen, CostContext};
use crate::analyze::typing::reach;
use crate::rpe::eval::VISIT_COST;
use crate::rpe::nfa::StateId;
use crate::rpe::{Nfa, Rpe};
use ssd_guard::{Bound, Interval};
use ssd_schema::{Schema, SchemaNodeId};
use std::collections::{BTreeMap, BTreeSet};

/// Static cost of evaluating one RPE from one start node.
#[derive(Debug, Clone, Default)]
pub struct RpeCost {
    /// Distinct matches one evaluation returns: nodes, or `(label, node)`
    /// pairs for a trailing label variable. Finite whenever statistics
    /// are available — the BFS deduplicates, so even an infinite word
    /// language lands on finitely many nodes.
    pub matches: Interval,
    /// Upper bound on *distinct label words* the path can match against
    /// the schema (against the bare automaton when no schema is given).
    /// [`Bound::Unbounded`] is the explicit marker for a Kleene star
    /// looping through a cyclic schema region.
    pub words: Bound,
    /// Should SSD031 fire? True when `words` is unbounded and the data
    /// side cannot rule the blow-up out (schema region is cyclic, or no
    /// schema and the data is cyclic / of unknown shape).
    pub unbounded_words: bool,
    /// Guard fuel for one evaluation (one product BFS).
    pub fuel: Interval,
    /// Guard-accounted bytes for one evaluation.
    pub memory: Interval,
    /// Why bounds were widened — SSD033 payload, deduplicated.
    pub widening: Vec<String>,
}

/// Estimate one RPE evaluation. `seeds` are the schema nodes the start
/// can denote (`None` = the schema root, when a schema is present);
/// `start_fanout` is the out-degree of the start node when known (the
/// data root's, for `db`-sourced bindings) — it sharpens the fuel lower
/// bound.
pub fn rpe_cost(
    path: &Rpe,
    seeds: Option<&BTreeSet<SchemaNodeId>>,
    start_fanout: Option<u64>,
    ctx: &CostContext<'_>,
) -> RpeCost {
    let mut out = RpeCost::default();
    let split = path.split_trailing_label_var();
    let trailing = split.is_some();
    // The evaluator compiles the prefix when the path ends in a label
    // variable, the whole path otherwise — mirror it exactly.
    let target = split.as_ref().map_or(path, |(prefix, _)| prefix);
    let compiled = Nfa::compile(target);
    let states = compiled.state_count() as u64;
    // `Database` simplifies the path before the interpreter compiles it.
    // Thompson construction only ever loses states to a simplification
    // rule, so the unsimplified automaton gives the upper bounds and the
    // simplified one the (smaller) start closure of the lower bound —
    // together they bracket a run with or without the rewrite.
    let simplified = target.simplify();
    let closure0 = if simplified == *target {
        compiled.closure(compiled.start()).len()
    } else {
        let nfa = Nfa::compile(&simplified);
        nfa.closure(nfa.start()).len()
    } as u64;
    let nullable = compiled
        .closure(compiled.start())
        .contains(&compiled.accept());

    let default_seeds: BTreeSet<SchemaNodeId> = ctx.schema.map(|s| s.root()).into_iter().collect();
    let seeds = seeds.unwrap_or(&default_seeds);

    // Fuel and memory for one product BFS: every visited (node, state)
    // pair is popped once (1 tick) and scans its node's edges (1 tick
    // each); every insert beyond the start closure allocates VISIT_COST.
    match ctx.stats {
        Some(st) => {
            let n = st.nodes_reachable;
            let e = st.edges_reachable;
            let pairs = n.saturating_mul(states);
            let mut fuel_hi = pairs.saturating_add(e.saturating_mul(states));
            if trailing {
                // The trailing-edge scan ticks once per edge of each
                // prefix match.
                fuel_hi = fuel_hi.saturating_add(e);
            }
            out.fuel.hi = Bound::Finite(fuel_hi);
            out.memory.hi = Bound::Finite(VISIT_COST.saturating_mul(pairs));
        }
        None => {
            out.fuel.hi = Bound::Unbounded;
            out.memory.hi = Bound::Unbounded;
            widen(&mut out.widening, "no data statistics available");
        }
    }
    // Lower bound: the start ε-closure pairs are always popped (1 tick
    // each) and each scans every start edge. Holds for complete,
    // non-truncated runs; the start inserts do not allocate.
    out.fuel.lo = closure0.saturating_mul(1 + start_fanout.unwrap_or(0));
    out.memory.lo = 0;

    // Match cardinality.
    if trailing {
        out.matches.hi = match ctx.stats {
            Some(st) => Bound::Finite(st.edges_reachable),
            None => Bound::Unbounded,
        };
        if ctx.stats.is_some() {
            widen(
                &mut out.widening,
                "label-variable binding is bounded only by the total edge count",
            );
        }
    } else {
        out.matches.hi = match ctx.stats {
            Some(st) => Bound::Finite(st.nodes_reachable),
            None => Bound::Unbounded,
        };
        if let Some(schema) = ctx.schema {
            if ctx.schema_extents_usable() {
                // Conformance makes this sound: every data node the path
                // reaches is assigned (by the data×schema product the
                // statistics record) to a schema node the typing product
                // reaches, so the summed extents bound the match count.
                let t = reach(schema, path, seeds);
                let mut sum = 0u64;
                for node in &t.nodes {
                    if let Some(st) = ctx.stats {
                        sum = sum.saturating_add(st.schema_extent(*node).unwrap_or(0));
                    }
                }
                out.matches.hi = out.matches.hi.min(Bound::Finite(sum));
            } else if ctx.stats.is_some() {
                widen(
                    &mut out.widening,
                    "data does not conform to the schema; bounds use whole-graph counts",
                );
            }
        } else if ctx.stats.is_some() {
            widen(
                &mut out.widening,
                "no schema available; bounds use whole-graph counts",
            );
        }
        // A nullable path always matches its own start node.
        out.matches.lo = u64::from(nullable);
        if let Bound::Finite(h) = out.matches.hi {
            out.matches.lo = out.matches.lo.min(h);
        }
    }

    // Word-language bound against the schema (or the bare automaton).
    out.words = words_bound(&compiled, ctx.schema, seeds);
    if trailing {
        // The final label-variable step multiplies the word count by at
        // most the number of distinct labels.
        out.words = out.words.mul(match ctx.stats {
            Some(st) => Bound::Finite(st.distinct_labels),
            None => Bound::Unbounded,
        });
    }
    out.unbounded_words = out.words == Bound::Unbounded
        && (ctx.schema.is_some() || ctx.stats.is_none_or(|st| st.cyclic));
    out
}

/// Product state: (schema-node index, NFA state). Without a schema the
/// first component is always 0 (a universal one-node schema).
type Pair = (usize, StateId);

/// Bound the number of distinct accepted label words realizable against
/// `schema`: build the NFA×schema product restricted to pairs on some
/// accepting path, return [`Bound::Unbounded`] iff that subgraph has a
/// cycle, otherwise count accepting paths by DP over the DAG.
fn words_bound(nfa: &Nfa, schema: Option<&Schema>, seeds: &BTreeSet<SchemaNodeId>) -> Bound {
    let successors = |(s, q): Pair| -> Vec<Pair> {
        let mut out = Vec::new();
        for &qa in nfa.closure(q) {
            for (pred, q2) in nfa.transitions_from(qa) {
                match schema {
                    Some(sc) => {
                        for edge in sc.edges(SchemaNodeId::from_raw(s)) {
                            if pred.may_overlap(&edge.pred) {
                                out.push((edge.to.index(), *q2));
                            }
                        }
                    }
                    None => out.push((0, *q2)),
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    };
    let accepting = |(_, q): Pair| nfa.closure(q).contains(&nfa.accept());

    let starts: Vec<Pair> = match schema {
        Some(_) => seeds.iter().map(|s| (s.index(), nfa.start())).collect(),
        None => vec![(0, nfa.start())],
    };
    // Forward reachability, recording adjacency.
    let mut adj: BTreeMap<Pair, Vec<Pair>> = BTreeMap::new();
    let mut stack: Vec<Pair> = starts.clone();
    while let Some(p) = stack.pop() {
        if adj.contains_key(&p) {
            continue;
        }
        let succ = successors(p);
        for &s in &succ {
            if !adj.contains_key(&s) {
                stack.push(s);
            }
        }
        adj.insert(p, succ);
    }
    // Backward reachability from accepting pairs.
    let mut useful: BTreeSet<Pair> = adj.keys().copied().filter(|&p| accepting(p)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (p, succ) in &adj {
            if !useful.contains(p) && succ.iter().any(|s| useful.contains(s)) {
                useful.insert(*p);
                changed = true;
            }
        }
    }
    // Cycle check on the useful-induced subgraph (Kahn's algorithm).
    let mut indeg: BTreeMap<Pair, usize> = useful.iter().map(|&p| (p, 0)).collect();
    for p in &useful {
        if let Some(succ) = adj.get(p) {
            for s in succ {
                if let Some(d) = indeg.get_mut(s) {
                    *d += 1;
                }
            }
        }
    }
    let mut order: Vec<Pair> = Vec::with_capacity(useful.len());
    let mut queue: Vec<Pair> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&p, _)| p)
        .collect();
    while let Some(p) = queue.pop() {
        order.push(p);
        if let Some(succ) = adj.get(&p) {
            for s in succ {
                if let Some(d) = indeg.get_mut(s) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push(*s);
                    }
                }
            }
        }
    }
    if order.len() < useful.len() {
        return Bound::Unbounded; // a Kleene loop over a cyclic region
    }
    // DAG: count paths ending at an accepting pair, saturating.
    let mut ways: BTreeMap<Pair, u64> = BTreeMap::new();
    for &p in order.iter().rev() {
        let mut w = u64::from(accepting(p));
        if let Some(succ) = adj.get(&p) {
            for s in succ {
                if useful.contains(s) {
                    w = w.saturating_add(ways.get(s).copied().unwrap_or(0));
                }
            }
        }
        ways.insert(p, w);
    }
    let total = starts.iter().fold(0u64, |acc, p| {
        acc.saturating_add(ways.get(p).copied().unwrap_or(0))
    });
    Bound::Finite(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;
    use ssd_schema::{figure1_schema, DataStats};

    fn fig1() -> (DataStats, Schema) {
        let g = parse_graph(
            r#"{Entry: @e1 = {Movie: {Title: "Casablanca",
                                      References: @e2 = {Movie: {Title: "Sam",
                                                                 References: @e1}}}},
                Entry: @e2}"#,
        )
        .unwrap();
        let schema = figure1_schema();
        (DataStats::collect_with_schema(&g, &schema), schema)
    }

    #[test]
    fn finite_path_has_finite_words_and_schema_tight_matches() {
        let (stats, schema) = fig1();
        let ctx = CostContext {
            stats: Some(&stats),
            schema: Some(&schema),
        };
        let rc = rpe_cost(&Rpe::symbol("Entry"), None, Some(stats.root_fanout), &ctx);
        assert!(!rc.unbounded_words, "{rc:?}");
        assert!(matches!(rc.words, Bound::Finite(n) if n >= 1), "{rc:?}");
        // Entry leads to the entry schema node, whose extent is 2 — tighter
        // than the whole-graph node count.
        assert_eq!(rc.matches.hi, Bound::Finite(2), "{rc:?}");
        assert!(rc.fuel.is_bounded() && rc.memory.is_bounded());
        assert!(rc.fuel.lo >= 1);
    }

    #[test]
    fn star_over_cyclic_schema_region_is_the_unbounded_marker() {
        let (stats, schema) = fig1();
        let ctx = CostContext {
            stats: Some(&stats),
            schema: Some(&schema),
        };
        // %* loops through the References cycle of the Figure 1 schema.
        let star = Rpe::step(crate::rpe::Step::wildcard()).star();
        let rc = rpe_cost(&star, None, Some(stats.root_fanout), &ctx);
        assert_eq!(rc.words, Bound::Unbounded);
        assert!(rc.unbounded_words);
        // Matches and fuel stay finite: the BFS deduplicates.
        assert!(rc.matches.is_bounded(), "{rc:?}");
        assert!(rc.fuel.is_bounded(), "{rc:?}");
        // ε-match: the start always matches a nullable path.
        assert_eq!(rc.matches.lo, 1);
    }

    #[test]
    fn star_on_acyclic_data_without_schema_does_not_warn() {
        let g = parse_graph("{a: {b: 1}}").unwrap();
        let stats = DataStats::collect(&g);
        let ctx = CostContext::with_stats(&stats);
        let star = Rpe::symbol("a").star();
        let rc = rpe_cost(&star, None, Some(stats.root_fanout), &ctx);
        // Word language of a* is infinite, but the data is acyclic.
        assert_eq!(rc.words, Bound::Unbounded);
        assert!(!rc.unbounded_words);
    }

    #[test]
    fn no_statistics_widen_to_unknown() {
        let ctx = CostContext::default();
        let rc = rpe_cost(&Rpe::symbol("a"), None, None, &ctx);
        assert_eq!(rc.fuel.hi, Bound::Unbounded);
        assert_eq!(rc.matches.hi, Bound::Unbounded);
        assert!(
            rc.widening.iter().any(|w| w.contains("no data statistics")),
            "{rc:?}"
        );
    }
}
