//! Cost of a select-from-where query.
//!
//! The evaluator ([`crate::lang::eval`]) is a nested-loop join: one
//! `enumerate` call per surviving assignment prefix (1 tick each), one
//! RPE evaluation per call below the last depth, condition evaluation
//! (only `exists` consumes fuel) and [`CONSTRUCT_COST`] bytes per
//! constructed result at the last depth. Abstract interpretation
//! multiplies the per-binding match intervals into prefix counts
//! `P_d` and folds the per-evaluation RPE costs ([`super::rpe`]) through
//! them. The model is the guide-free interpreter, with or without the
//! rewrites `Database` always applies: the condition term uses `Σ_d P_d`
//! so it covers pushdown, which may evaluate a conjunct once per prefix
//! at any single depth, and [`super::rpe`] takes upper bounds from the
//! path as written and the lower bound from its simplified form. Shapes
//! the batched pipeline ([`crate::batch`]) serves get that engine's
//! lower bound and its batch-memory term, so the envelope brackets
//! whichever engine runs.

use super::rpe::{rpe_cost, RpeCost};
use super::{widen, CostAnalysis, CostContext};
use crate::batch::CELL_BYTES;
use crate::lang::ast::Cond;
use crate::lang::eval::CONSTRUCT_COST;
use crate::lang::{QuerySpans, SelectQuery, Source};
use crate::rpe::eval::VISIT_COST;
use crate::rpe::{Nfa, Rpe};
use ssd_diag::{Code, Diagnostic};
use ssd_guard::{Bound, Interval};
use ssd_schema::SchemaNodeId;
use std::collections::{BTreeSet, HashMap};

/// Statically bound cardinality, fuel, and memory for `query`, emitting
/// the cost-band diagnostics (SSD031 unbounded words, SSD032 cross
/// product, SSD033 widening notes). SSD030 is the admission check's —
/// pass the envelope to [`ssd_guard::Budget::admit`].
pub fn analyze_query_cost(
    query: &SelectQuery,
    spans: Option<&QuerySpans>,
    ctx: &CostContext<'_>,
) -> CostAnalysis {
    let mut out = CostAnalysis::default();
    let k = query.bindings.len();

    // Per-binding RPE costs, threading schema seeds exactly like the
    // typing pass: `db` starts at the schema root, a variable source at
    // whatever its binder inferred.
    let mut env: HashMap<&str, BTreeSet<SchemaNodeId>> = HashMap::new();
    let mut costs: Vec<RpeCost> = Vec::with_capacity(k);
    for b in &query.bindings {
        let (seeds, start_fanout) = match &b.source {
            Source::Db => (
                ctx.schema.map(|s| std::iter::once(s.root()).collect()),
                ctx.stats.map(|st| st.root_fanout),
            ),
            Source::Var(v) => (env.get(v.as_str()).cloned(), None),
        };
        let rc = rpe_cost(&b.path, seeds.as_ref(), start_fanout, ctx);
        if ctx.schema.is_some() {
            let nodes = ctx
                .schema
                .map(|s| {
                    crate::analyze::typing::reach(
                        s,
                        &b.path,
                        seeds.as_ref().unwrap_or(&BTreeSet::new()),
                    )
                    .nodes
                })
                .unwrap_or_default();
            env.insert(b.var.as_str(), nodes);
        }
        costs.push(rc);
    }
    out.per_binding = costs.iter().map(|c| c.matches).collect();

    // Prefix assignment counts: P_0 = 1, P_{d+1} = P_d · matches_d.
    let mut prefix: Vec<Interval> = Vec::with_capacity(k + 1);
    prefix.push(Interval::exact(1));
    for c in &costs {
        let last = prefix[prefix.len() - 1];
        prefix.push(last.mul(c.matches));
    }
    let total_prefixes: Bound = prefix.iter().fold(Bound::Finite(0), |acc, p| acc.add(p.hi));

    // Condition costs: only `exists` consumes fuel — one uncached NFA
    // compile + product BFS per evaluation.
    let mut exists_paths: Vec<&Rpe> = Vec::new();
    if let Some(cond) = &query.condition {
        collect_exists(cond, &mut exists_paths);
    }
    let (mut cond_fuel, mut cond_mem) = (Bound::Finite(0), Bound::Finite(0));
    for path in &exists_paths {
        let s = Nfa::compile(path).state_count() as u64;
        match ctx.stats {
            Some(st) => {
                let pairs = st.nodes_reachable.saturating_mul(s);
                cond_fuel = cond_fuel.add(Bound::Finite(
                    pairs.saturating_add(st.edges_reachable.saturating_mul(s)),
                ));
                cond_mem = cond_mem.add(Bound::Finite(VISIT_COST.saturating_mul(pairs)));
            }
            None => {
                cond_fuel = Bound::Unbounded;
                cond_mem = Bound::Unbounded;
            }
        }
    }

    // Fold into the envelope.
    let mut fuel_hi = Bound::Finite(0);
    let mut mem_hi = Bound::Finite(0);
    for (d, c) in costs.iter().enumerate() {
        // Each depth-d call ticks once and evaluates binding d's RPE.
        fuel_hi = fuel_hi.add(prefix[d].hi.mul(Bound::Finite(1).add(c.fuel.hi)));
        mem_hi = mem_hi.add(prefix[d].hi.mul(c.memory.hi));
    }
    // Depth-k calls: one tick and one constructed result each.
    fuel_hi = fuel_hi.add(prefix[k].hi);
    mem_hi = mem_hi.add(prefix[k].hi.mul(Bound::Finite(CONSTRUCT_COST)));
    // Conditions, at whichever depth the plan evaluates them.
    fuel_hi = fuel_hi.add(total_prefixes.mul(cond_fuel));
    mem_hi = mem_hi.add(total_prefixes.mul(cond_mem));
    // Batchable shapes run on the columnar pipeline, whose fuel the terms
    // above already cover (a walk ticks at most once per node and edge per
    // step) but which also charges every batch cell it emits: stage d
    // hands on at most P_d rows of d columns, and a `where` filter
    // re-emits the last stage's.
    let batchable = crate::batch::batchable(query).is_ok();
    if batchable {
        let stages = (1..=k).chain(query.condition.as_ref().map(|_| k));
        for d in stages {
            mem_hi = mem_hi.add(prefix[d].hi.mul(Bound::Finite(d as u64 * CELL_BYTES)));
        }
    }

    out.envelope.fuel.hi = fuel_hi;
    out.envelope.memory.hi = mem_hi;
    // Lower bound, for the engine the shape selects. Interpreter: the
    // depth-0 call always ticks and, with at least one binding, its RPE
    // is evaluated once before anything can prune. Batched: a first label
    // absent from the index ends the scan before any tick.
    out.envelope.fuel.lo = if batchable {
        0
    } else {
        1 + costs.first().map_or(0, |c| c.fuel.lo)
    };
    out.envelope.memory.lo = 0;
    out.envelope.cardinality.hi = prefix[k].hi;
    out.envelope.cardinality.lo = if query.condition.is_none() {
        prefix[k].lo
    } else {
        0
    };

    // SSD031: unbounded word language.
    for (i, c) in costs.iter().enumerate() {
        if c.unbounded_words {
            out.diagnostics.push(
                Diagnostic::new(
                    Code::UnboundedCost,
                    format!(
                        "path `{}` of binding `{}` can match an unbounded set of \
                         label words (Kleene loop over a cyclic region)",
                        query.bindings[i].path, query.bindings[i].var
                    ),
                )
                .with_span_opt(spans.and_then(|s| s.path(i)))
                .with_suggestion(
                    "matches stay finite (the evaluator deduplicates), but only \
                     the dataset size bounds the work; prefer a more selective path",
                ),
            );
        }
    }
    // SSD032: FROM bindings forming a cross product.
    cross_product_check(query, spans, &mut out.diagnostics);
    // SSD033: widening notes, one per distinct reason.
    let mut reasons: Vec<String> = Vec::new();
    for c in &costs {
        for r in &c.widening {
            widen(&mut reasons, r);
        }
    }
    if exists_paths.iter().any(|_| ctx.stats.is_none()) {
        widen(&mut reasons, "no data statistics available");
    }
    for r in reasons {
        out.diagnostics.push(Diagnostic::new(
            Code::ImpreciseEstimate,
            format!("cost estimate widened: {r}"),
        ));
    }
    out
}

/// All `exists` paths in a condition, including under `not`/`or`.
fn collect_exists<'a>(cond: &'a Cond, out: &mut Vec<&'a Rpe>) {
    match cond {
        Cond::Exists(_, path) => out.push(path),
        Cond::Not(c) => collect_exists(c, out),
        Cond::And(a, b) | Cond::Or(a, b) => {
            collect_exists(a, out);
            collect_exists(b, out);
        }
        Cond::Cmp(..) | Cond::Like(..) | Cond::TypeIs(..) => {}
    }
}

/// Connected components over the bindings: an edge when one binding
/// sources from another, or a condition conjunct mentions variables of
/// both (tree or label variables). More than one component means the
/// enumeration multiplies unrelated match counts — SSD032, naming one
/// binding from each side (the satellite's "which two, and how to join
/// them" requirement).
fn cross_product_check(
    query: &SelectQuery,
    spans: Option<&QuerySpans>,
    diags: &mut Vec<Diagnostic>,
) {
    let k = query.bindings.len();
    if k < 2 {
        return;
    }
    // Variable name → owning binding index (tree vars and label vars).
    let mut owner: HashMap<&str, usize> = HashMap::new();
    for (i, b) in query.bindings.iter().enumerate() {
        owner.insert(b.var.as_str(), i);
        for lv in b.path.label_vars() {
            owner.insert(lv, i);
        }
    }
    let mut uf: Vec<usize> = (0..k).collect();
    fn find(uf: &mut [usize], mut i: usize) -> usize {
        while uf[i] != i {
            uf[i] = uf[uf[i]];
            i = uf[i];
        }
        i
    }
    let union = |uf: &mut [usize], a: usize, b: usize| {
        let (ra, rb) = (find(uf, a), find(uf, b));
        if ra != rb {
            uf[ra.max(rb)] = ra.min(rb);
        }
    };
    for (i, b) in query.bindings.iter().enumerate() {
        if let Source::Var(v) = &b.source {
            if let Some(&j) = owner.get(v.as_str()) {
                union(&mut uf, i, j);
            }
        }
    }
    if let Some(cond) = &query.condition {
        for conj in cond.conjuncts() {
            let mentioned: Vec<usize> = conj
                .vars()
                .iter()
                .filter_map(|v| owner.get(v).copied())
                .collect();
            for w in mentioned.windows(2) {
                union(&mut uf, w[0], w[1]);
            }
        }
    }
    // Components, keyed by their smallest member.
    let mut components: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..k {
        let r = find(&mut uf, i);
        components.entry(r).or_default().push(i);
    }
    if components.len() < 2 {
        return;
    }
    let mut reps: Vec<usize> = components.keys().copied().collect();
    reps.sort_unstable();
    let a = reps[0];
    let a_var = query.bindings[a].var.as_str();
    for &b in &reps[1..] {
        let b_var = query.bindings[b].var.as_str();
        diags.push(
            Diagnostic::new(
                Code::CrossProductJoin,
                format!(
                    "bindings `{a_var}` and `{b_var}` share no variable: the \
                     enumeration multiplies their match counts (cross product)"
                ),
            )
            .with_span_opt(spans.and_then(|s| s.binder(b)))
            .with_suggestion(format!(
                "add a join condition linking `{a_var}` and `{b_var}` (for \
                 example `where {a_var} = {b_var}`), or source one binding's \
                 path from the other"
            )),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{evaluate_select, parse_query_spanned, EvalOptions};
    use ssd_graph::literal::parse_graph;
    use ssd_guard::Budget;
    use ssd_schema::{figure1_schema, DataStats, Schema};

    fn fig1_db() -> ssd_graph::Graph {
        parse_graph(
            r#"{Entry: @e1 = {Movie: {Title: "Casablanca",
                                      References: @e2 = {Movie: {Title: "Sam",
                                                                 References: @e1}}}},
                Entry: @e2}"#,
        )
        .unwrap()
    }

    fn ctx_for(stats: &DataStats, schema: &Schema) -> (CostAnalysis, SelectQuery) {
        let src = "select T from db.Entry.Movie M, M.Title T";
        let (q, spans) = parse_query_spanned(src).unwrap();
        let ctx = CostContext {
            stats: Some(stats),
            schema: Some(schema),
        };
        (analyze_query_cost(&q, Some(&spans), &ctx), q)
    }

    #[test]
    fn bounded_query_has_finite_envelope() {
        let g = fig1_db();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        let (a, _) = ctx_for(&stats, &schema);
        assert!(a.envelope.fuel.is_bounded(), "{:?}", a.envelope);
        assert!(a.envelope.memory.is_bounded(), "{:?}", a.envelope);
        assert!(a.envelope.cardinality.is_bounded(), "{:?}", a.envelope);
        // A batchable shape: an absent first label ends the scan unticked.
        assert_eq!(a.envelope.fuel.lo, 0);
        assert_eq!(a.per_binding.len(), 2);
        assert!(!a
            .diagnostics
            .iter()
            .any(|d| d.code == Code::CrossProductJoin));
    }

    #[test]
    fn envelope_brackets_a_real_run() {
        let g = fig1_db();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        let (a, q) = ctx_for(&stats, &schema);
        // An *active* guard with huge limits measures without tripping.
        let guard = Budget::unlimited().max_steps(u64::MAX / 4).guard();
        let opts = EvalOptions::default().with_guard(&guard);
        evaluate_select(&g, &q, &opts).unwrap();
        let used = guard.steps_used();
        let mem = guard.memory_used();
        assert!(
            used >= a.envelope.fuel.lo,
            "{used} < {}",
            a.envelope.fuel.lo
        );
        match a.envelope.fuel.hi {
            Bound::Finite(hi) => assert!(used <= hi, "{used} > {hi}"),
            Bound::Unbounded => {}
        }
        match a.envelope.memory.hi {
            Bound::Finite(hi) => assert!(mem <= hi, "{mem} > {hi}"),
            Bound::Unbounded => {}
        }
    }

    #[test]
    fn cross_product_names_both_bindings_and_suggests_a_join() {
        let src = "select {a: X, b: Y} from db.Entry X, db.Entry Y";
        let (q, spans) = parse_query_spanned(src).unwrap();
        let a = analyze_query_cost(&q, Some(&spans), &CostContext::default());
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == Code::CrossProductJoin)
            .expect("cross product should be flagged");
        assert!(
            d.message.contains("`X`") && d.message.contains("`Y`"),
            "{d:?}"
        );
        let sugg = d.suggestion.as_deref().unwrap_or("");
        assert!(sugg.contains("join condition"), "{d:?}");
        assert!(sugg.contains("`X`") && sugg.contains("`Y`"), "{d:?}");
        let span = d.span.expect("span on the second binder");
        assert_eq!(&src[span.start..span.end], "Y");
    }

    #[test]
    fn join_condition_or_shared_source_silences_ssd032() {
        for src in [
            "select {a: X, b: Y} from db.Entry X, db.Entry Y where X = Y",
            "select T from db.Entry.Movie M, M.Title T",
        ] {
            let (q, spans) = parse_query_spanned(src).unwrap();
            let a = analyze_query_cost(&q, Some(&spans), &CostContext::default());
            assert!(
                !a.diagnostics
                    .iter()
                    .any(|d| d.code == Code::CrossProductJoin),
                "{src}: {:?}",
                a.diagnostics
            );
        }
    }

    #[test]
    fn star_query_warns_unbounded_with_schema() {
        let g = fig1_db();
        let schema = figure1_schema();
        let stats = DataStats::collect_with_schema(&g, &schema);
        let (q, spans) = parse_query_spanned("select X from db.%* X").unwrap();
        let ctx = CostContext {
            stats: Some(&stats),
            schema: Some(&schema),
        };
        let a = analyze_query_cost(&q, Some(&spans), &ctx);
        assert!(
            a.diagnostics.iter().any(|d| d.code == Code::UnboundedCost),
            "{:?}",
            a.diagnostics
        );
        // Fuel still finite: product BFS deduplicates.
        assert!(a.envelope.fuel.is_bounded());
    }

    #[test]
    fn no_stats_yields_unknown_envelope_and_imprecision_note() {
        let (q, spans) = parse_query_spanned("select X from db.Entry X").unwrap();
        let a = analyze_query_cost(&q, Some(&spans), &CostContext::default());
        assert!(!a.envelope.fuel.is_bounded());
        assert!(
            a.diagnostics
                .iter()
                .any(|d| d.code == Code::ImpreciseEstimate),
            "{:?}",
            a.diagnostics
        );
    }
}
