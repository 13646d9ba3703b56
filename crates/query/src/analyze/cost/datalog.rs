//! Cost of a graph-datalog program.
//!
//! The evaluator ([`ssd_triples::datalog::eval`]) runs a stratified
//! semi-naive fixpoint: one fuel tick per round and per join candidate
//! its access path offers — for an EDB literal exactly the tuples that
//! match the arguments already resolved, never the whole relation —
//! and [`TUPLE_COST`] bytes per derived tuple. Statically, predicate arities
//! and the active domain bound every IDB relation (`|p| ≤ |D|^arity`,
//! the classic datalog bound), which in turn bounds rounds per stratum
//! (each growing round adds at least one tuple) and the join candidates
//! per round. A stratum that derives a predicate from itself is flagged
//! SSD031 — its fixpoint is bounded only by the domain product.

use super::{bound_pow, widen, CostAnalysis, CostContext};
use crate::analyze::datalog::EDB_PREDICATES;
use ssd_diag::{Code, Diagnostic};
use ssd_graph::Label;
use ssd_guard::{Bound, Interval};
use ssd_triples::datalog::eval::TUPLE_COST;
use ssd_triples::datalog::{admit, is_builtin, Program, ProgramSpans, Rule, Term};
use ssd_triples::Datum;
use std::collections::{BTreeSet, HashMap};

/// Statically bound cardinality (tuples of the result predicate), fuel,
/// and memory for `program`. `result` names the result predicate (`None`
/// = head of the last rule, the CLI convention). Programs the evaluator
/// refuses (unsafe, arity-inconsistent, non-stratifiable) get the exact
/// zero envelope — refusal happens before any guard work.
pub fn analyze_datalog_cost(
    program: &Program,
    spans: Option<&ProgramSpans>,
    result: Option<&str>,
    ctx: &CostContext<'_>,
) -> CostAnalysis {
    let mut out = CostAnalysis::default();
    let Ok(strata) = admit(program) else {
        return out; // refused at run time: zero fuel, zero memory
    };

    let mut reasons: Vec<String> = Vec::new();
    let bounds = RelBounds::new(program, ctx);
    if ctx.stats.is_none() {
        widen(&mut reasons, "no data statistics available");
    }
    let rel_hi = |pred: &str| -> Bound { bounds.hi(pred) };

    let (mut fuel_hi, mut fuel_lo) = (Bound::Finite(0), 0u64);
    let mut mem_hi = Bound::Finite(0);
    for stratum in &strata {
        if stratum.is_empty() {
            continue;
        }
        let head_preds: BTreeSet<&str> = stratum.iter().map(|r| r.head.pred.as_str()).collect();
        // Capacity of the stratum: every growing round adds ≥ 1 tuple.
        let capacity = head_preds
            .iter()
            .fold(Bound::Finite(0), |acc, p| acc.add(rel_hi(p)));
        let rounds = capacity.add(Bound::Finite(1));
        let mut per_round_fuel = Bound::Finite(1); // the round tick
        let mut per_round_mem = Bound::Finite(0);
        for rule in stratum {
            let m = rule.body.len() as u64;
            let joins = rule
                .body
                .iter()
                .filter(|l| !is_builtin(l.atom.pred.as_str()))
                .fold(Bound::Finite(1), |acc, l| {
                    acc.mul(rel_hi(l.atom.pred.as_str()).max(Bound::Finite(1)))
                });
            // ≤ m rule evaluations per round (semi-naive per-delta
            // position), each ticking ≤ m·joins candidates …
            per_round_fuel = per_round_fuel.add(Bound::Finite(m.saturating_mul(m)).mul(joins));
            // … and allocating ≤ min(bindings, dedup'd head tuples).
            let derived = joins.min(rel_hi(rule.head.pred.as_str()));
            per_round_mem = per_round_mem.add(
                Bound::Finite(m.max(1))
                    .mul(derived)
                    .mul(Bound::Finite(TUPLE_COST)),
            );
            // Lower bound: the seed round evaluates every rule once in
            // full; a leading positive EDB literal is offered exactly
            // the tuples its constants select (one tick each).
            fuel_lo = fuel_lo.saturating_add(first_literal_floor(rule, ctx));
        }
        fuel_hi = fuel_hi.add(rounds.mul(per_round_fuel));
        mem_hi = mem_hi.add(rounds.mul(per_round_mem));
        fuel_lo = fuel_lo.saturating_add(1); // at least one round tick

        // SSD031: the stratum derives one of its own predicates.
        let recursive = stratum.iter().find(|r| {
            r.body
                .iter()
                .any(|l| l.positive && head_preds.contains(l.atom.pred.as_str()))
        });
        if let Some(rule) = recursive {
            let idx = program.rules.iter().position(|r| std::ptr::eq(r, *rule));
            out.diagnostics.push(
                Diagnostic::new(
                    Code::UnboundedCost,
                    format!(
                        "recursive stratum: `{}` is derived from itself; its \
                         fixpoint is bounded only by the domain (≤ {} tuple(s))",
                        rule.head.pred, capacity
                    ),
                )
                .with_span_opt(idx.and_then(|i| spans.and_then(|s| s.head(i))))
                .with_suggestion(
                    "recursion terminates (tuples are deduplicated), but the \
                     derived-set size scales with the dataset, not the query",
                ),
            );
        }
    }

    out.envelope.fuel = Interval::new(fuel_lo, fuel_hi);
    out.envelope.memory = Interval::new(0, mem_hi);
    let result_pred = result
        .map(str::to_owned)
        .or_else(|| program.rules.last().map(|r| r.head.pred.clone()));
    out.envelope.cardinality = Interval::new(
        0,
        result_pred.map_or(Bound::Finite(0), |p| rel_hi(p.as_str())),
    );

    for r in reasons {
        out.diagnostics.push(Diagnostic::new(
            Code::ImpreciseEstimate,
            format!("cost estimate widened: {r}"),
        ));
    }
    out
}

/// Static upper bounds on relation sizes: EDB relations from statistics
/// (exact — the triple index holds the reachable fragment the collector
/// counts), IDB relations from the classic `|D|^arity` domain bound.
struct RelBounds {
    domain: Bound,
    arity: HashMap<String, usize>,
    idb: BTreeSet<String>,
    edges: Option<u64>,
    edb_nodes: Option<u64>,
}

impl RelBounds {
    fn new(program: &Program, ctx: &CostContext<'_>) -> RelBounds {
        // Active domain: node ids and labels occurring in the EDB, plus
        // the program's own constants (range restriction confines every
        // derived datum to this set).
        let consts: BTreeSet<&Datum> = program
            .rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter().map(|l| &l.atom)))
            .flat_map(|a| a.terms.iter())
            .filter_map(|t| match t {
                Term::Const(d) => Some(d),
                Term::Var(_) => None,
            })
            .collect();
        let domain = match ctx.stats {
            Some(st) => Bound::Finite(
                st.edb_nodes
                    .saturating_add(st.distinct_labels)
                    .saturating_add(consts.len() as u64),
            ),
            None => Bound::Unbounded,
        };
        RelBounds {
            domain,
            arity: arity_map(program),
            idb: program
                .idb_predicates()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            edges: ctx.stats.map(|st| st.edges_reachable),
            edb_nodes: ctx.stats.map(|st| st.edb_nodes),
        }
    }

    /// Upper bound on the tuple count of `pred`.
    fn hi(&self, pred: &str) -> Bound {
        match pred {
            "edge" => self.edges.map_or(Bound::Unbounded, Bound::Finite),
            "node" => self.edb_nodes.map_or(Bound::Unbounded, Bound::Finite),
            "root" => Bound::Finite(1),
            p if self.idb.contains(p) => {
                bound_pow(self.domain, self.arity.get(p).copied().unwrap_or(0))
            }
            _ => Bound::Finite(0), // undefined predicate: never matches
        }
    }
}

/// Exact tick count of a rule's leading literal on the seed round, when
/// it is a positive EDB atom: the size of the range its constants select.
/// No constant selects the whole relation; a symbol in `edge`'s label
/// position selects that label's edges (none if no edge carries it). A
/// node constant selects one node's fan-in or fan-out, and the
/// statistics do not count value labels — both are floored at 0.
fn first_literal_floor(rule: &Rule, ctx: &CostContext<'_>) -> u64 {
    let Some(first) = rule.body.first() else {
        return 0;
    };
    if !first.positive {
        return 0;
    }
    match (
        first.atom.pred.as_str(),
        first.atom.terms.as_slice(),
        ctx.stats,
    ) {
        ("root", _, _) => 1,
        ("edge", [Term::Var(_), Term::Var(_), Term::Var(_)], Some(st)) => st.edges_reachable,
        (
            "edge",
            [Term::Var(_), Term::Const(Datum::Label(Label::Symbol(s))), Term::Var(_)],
            Some(st),
        ) => st.symbol_count(*s),
        ("node", [Term::Var(_)], Some(st)) => st.edb_nodes,
        _ => 0,
    }
}

/// First-occurrence arity of each predicate (heads then bodies, in rule
/// order), seeded with the EDB arities — the same convention the
/// evaluator's own arity check uses.
fn arity_map(program: &Program) -> HashMap<String, usize> {
    let mut arity: HashMap<String, usize> = EDB_PREDICATES
        .iter()
        .map(|&(p, a)| (p.to_owned(), a))
        .collect();
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter().map(|l| &l.atom)) {
            arity.entry(atom.pred.clone()).or_insert(atom.terms.len());
        }
    }
    arity
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::literal::parse_graph;
    use ssd_graph::{Graph, Label};
    use ssd_guard::Budget;
    use ssd_schema::DataStats;
    use ssd_triples::datalog::{evaluate_with, parse_program, Edb, Key};

    /// The run's EDB: `g`'s reachable edges in a `Vec`, every lookup a
    /// filter over all of them. (The triple index's EDB lives in the
    /// facade, above this crate.)
    struct Edges(u32, Vec<Label>, Vec<Key>);

    impl Edges {
        fn new(g: &Graph) -> Edges {
            let mut edb = Edges(g.root().index() as u32, Vec::new(), Vec::new());
            for n in g.reachable() {
                for e in g.edges(n) {
                    let p = edb.label_id(&e.label).unwrap_or_else(|| {
                        edb.1.push(e.label.clone());
                        edb.1.len() as u32 - 1
                    });
                    edb.2.push([n.index() as u32, p, e.to.index() as u32]);
                }
            }
            edb
        }
    }

    impl Edb for Edges {
        fn root(&self) -> u32 {
            self.0
        }
        fn max_node(&self) -> u32 {
            self.nodes().last().copied().unwrap_or(self.0)
        }
        fn label_count(&self) -> usize {
            self.1.len()
        }
        fn label_id(&self, label: &Label) -> Option<u32> {
            self.1.iter().position(|l| l == label).map(|i| i as u32)
        }
        fn label(&self, id: u32) -> Option<&Label> {
            self.1.get(id as usize)
        }
        fn scan(
            &self,
            s: Option<u32>,
            p: Option<u32>,
            o: Option<u32>,
            v: &mut dyn FnMut(Key) -> bool,
        ) {
            let hit = |k: &&Key| {
                [s, p, o]
                    .iter()
                    .zip(*k)
                    .all(|(w, x)| w.is_none_or(|w| w == *x))
            };
            for &k in self.2.iter().filter(hit) {
                if !v(k) {
                    return;
                }
            }
        }
        fn nodes(&self) -> Vec<u32> {
            let mut out: Vec<u32> = self.2.iter().flat_map(|k| [k[0], k[2]]).collect();
            out.push(self.0);
            out.sort_unstable();
            out.dedup();
            out
        }
    }

    fn tc_src() -> &'static str {
        "path(X, Y) :- edge(X, _L, Y).\n\
         path(X, Y) :- edge(X, _L, Z), path(Z, Y)."
    }

    #[test]
    fn envelope_brackets_a_real_run() {
        let g = parse_graph("{a: {b: {c: 1}}, d: {e: 2}}").unwrap();
        let stats = DataStats::collect(&g);
        let p = parse_program(tc_src(), g.symbols()).unwrap();
        let a = analyze_datalog_cost(&p, None, None, &CostContext::with_stats(&stats));
        assert!(a.envelope.fuel.is_bounded(), "{:?}", a.envelope);
        let guard = Budget::unlimited().max_steps(u64::MAX / 4).guard();
        evaluate_with(&p, &Edges::new(&g), &guard).unwrap();
        let used = guard.steps_used();
        let mem = guard.memory_used();
        assert!(
            used >= a.envelope.fuel.lo,
            "{used} < {}",
            a.envelope.fuel.lo
        );
        match a.envelope.fuel.hi {
            Bound::Finite(hi) => assert!(used <= hi, "{used} > {hi}"),
            Bound::Unbounded => panic!("expected finite bound"),
        }
        match a.envelope.memory.hi {
            Bound::Finite(hi) => assert!(mem <= hi, "{mem} > {hi}"),
            Bound::Unbounded => panic!("expected finite bound"),
        }
    }

    #[test]
    fn recursive_stratum_warns_ssd031() {
        let g = parse_graph("{a: 1}").unwrap();
        let stats = DataStats::collect(&g);
        let p = parse_program(tc_src(), g.symbols()).unwrap();
        let a = analyze_datalog_cost(&p, None, None, &CostContext::with_stats(&stats));
        assert!(
            a.diagnostics.iter().any(|d| d.code == Code::UnboundedCost),
            "{:?}",
            a.diagnostics
        );
    }

    #[test]
    fn nonrecursive_program_is_quiet_and_tightly_bounded() {
        let g = parse_graph("{a: 1, b: 2}").unwrap();
        let stats = DataStats::collect(&g);
        let p = parse_program("hit(Y) :- edge(_X, a, Y).", g.symbols()).unwrap();
        let a = analyze_datalog_cost(&p, None, None, &CostContext::with_stats(&stats));
        assert!(
            !a.diagnostics.iter().any(|d| d.code == Code::UnboundedCost),
            "{:?}",
            a.diagnostics
        );
        assert!(a.envelope.fuel.is_bounded());
        // Seed round is offered exactly the `a` edges, plus the round tick.
        let a_edges = stats.symbol_count(g.symbols().intern("a"));
        assert_eq!(a.envelope.fuel.lo, a_edges + 1);
        let all = parse_program("hit(Y) :- edge(_X, _L, Y).", g.symbols()).unwrap();
        let a = analyze_datalog_cost(&all, None, None, &CostContext::with_stats(&stats));
        assert_eq!(a.envelope.fuel.lo, stats.edges_reachable + 1);
    }

    #[test]
    fn refused_programs_get_the_zero_envelope() {
        let g = parse_graph("{}").unwrap();
        let stats = DataStats::collect(&g);
        // Unsafe: head variable unbound.
        let p = parse_program("q(X, Y) :- node(X).", g.symbols()).unwrap();
        let a = analyze_datalog_cost(&p, None, None, &CostContext::with_stats(&stats));
        assert_eq!(a.envelope.fuel, Interval::exact(0));
        // Arity mismatch against the EDB.
        let p2 = parse_program("q(X) :- edge(X, _Y).", g.symbols()).unwrap();
        let a2 = analyze_datalog_cost(&p2, None, None, &CostContext::with_stats(&stats));
        assert_eq!(a2.envelope.fuel, Interval::exact(0));
    }

    #[test]
    fn no_stats_widen_with_note() {
        let g = parse_graph("{a: 1}").unwrap();
        let p = parse_program(tc_src(), g.symbols()).unwrap();
        let a = analyze_datalog_cost(&p, None, None, &CostContext::default());
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
