//! RPE evaluation: reachability in the product of data graph × automaton.
//!
//! A BFS over `(node, state)` pairs with a visited set — linear in the size
//! of the product, total on cyclic data (the visited set cuts cycles), and
//! the workhorse behind the select-from-where evaluator, the optimizer's
//! baselines, and the parallel decomposition of \[35\].

use super::ast::Rpe;
use super::nfa::Nfa;
use ssd_graph::{Graph, Label, NodeId};
use ssd_guard::{Exhausted, Guard};
use ssd_trace::{Phase, Tracer};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Fault-injection seam: hit once per product state popped by the BFS.
pub const FP_RPE_STEP: &str = "rpe.step";

/// Approximate bytes a visited-set entry costs (pair + hash overhead).
/// Public so the static cost analysis charges the same unit it measures.
pub const VISIT_COST: u64 = 48;

/// A match of an RPE with a trailing label variable: the binding of the
/// final edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathMatch {
    /// Label of the final (variable-bound) edge.
    pub label: Label,
    /// Target node of that edge.
    pub node: NodeId,
}

/// All nodes reachable from `start` by a path whose label word is accepted
/// by `rpe`. Result is a sorted, deduplicated set.
pub fn eval_rpe(g: &Graph, start: NodeId, rpe: &Rpe) -> Vec<NodeId> {
    let nfa = Nfa::compile(rpe);
    eval_nfa(g, start, &nfa)
}

/// As [`eval_rpe`], under a resource [`Guard`]. In partial mode exhaustion
/// returns the nodes found so far (with the cause recorded on the guard).
pub fn eval_rpe_guarded(
    g: &Graph,
    start: NodeId,
    rpe: &Rpe,
    guard: &Guard,
) -> Result<Vec<NodeId>, Exhausted> {
    let nfa = Nfa::compile(rpe);
    eval_nfa_guarded(g, start, &nfa, guard)
}

/// As [`eval_rpe`], with a precompiled NFA (reuse across many starts).
pub fn eval_nfa(g: &Graph, start: NodeId, nfa: &Nfa) -> Vec<NodeId> {
    // An unlimited guard never reports exhaustion.
    match product_bfs(g, start, nfa, &Guard::unlimited()) {
        Ok((nodes, _)) => nodes,
        Err(_) => Vec::new(),
    }
}

/// Guarded BFS with a precompiled NFA: one fuel tick per product state
/// popped and per edge scanned, memory accounted per visited-set entry.
pub fn eval_nfa_guarded(
    g: &Graph,
    start: NodeId,
    nfa: &Nfa,
    guard: &Guard,
) -> Result<Vec<NodeId>, Exhausted> {
    product_bfs(g, start, nfa, guard).map(|(nodes, _)| nodes)
}

/// Evaluate an RPE whose final step binds a label variable: returns the
/// distinct `(label, node)` pairs of the final edges. The RPE must pass
/// [`Rpe::check_label_vars`]; if it has no trailing label variable this
/// degenerates to [`eval_rpe`] with an empty label.
pub fn eval_rpe_with_labels(g: &Graph, start: NodeId, rpe: &Rpe) -> Vec<PathMatch> {
    eval_rpe_with_labels_guarded(g, start, rpe, &Guard::unlimited()).unwrap_or_default()
}

/// As [`eval_rpe_with_labels`], under a resource [`Guard`].
pub fn eval_rpe_with_labels_guarded(
    g: &Graph,
    start: NodeId,
    rpe: &Rpe,
    guard: &Guard,
) -> Result<Vec<PathMatch>, Exhausted> {
    match rpe.split_trailing_label_var() {
        Some((prefix, step)) => {
            let mids = eval_rpe_guarded(g, start, &prefix, guard)?;
            let symbols = g.symbols();
            let mut out: BTreeSet<(Label, NodeId)> = BTreeSet::new();
            'scan: for mid in mids {
                for e in g.edges(mid) {
                    if !guard.tick(1)? {
                        break 'scan;
                    }
                    if step.matches(&e.label, symbols) {
                        out.insert((e.label.clone(), e.to));
                    }
                }
            }
            Ok(out
                .into_iter()
                .map(|(label, node)| PathMatch { label, node })
                .collect())
        }
        None => Ok(eval_rpe_guarded(g, start, rpe, guard)?
            .into_iter()
            .map(|node| PathMatch {
                label: Label::str(""),
                node,
            })
            .collect()),
    }
}

/// The matches and the count of product states visited by an evaluation
/// under a resource [`Guard`] — the work measure used by the optimizer
/// experiments (E4/E10).
pub fn eval_nfa_with_stats(
    g: &Graph,
    start: NodeId,
    nfa: &Nfa,
    guard: &Guard,
) -> Result<(Vec<NodeId>, usize), Exhausted> {
    product_bfs(g, start, nfa, guard)
}

/// As [`eval_rpe_guarded`], with one [`Phase::Rpe`] span recorded per
/// evaluation: nodes matched, product states visited, and the guard's
/// fuel/memory deltas. Exhaustion additionally records a [`Phase::Guard`]
/// instant with the cause before propagating.
pub fn eval_rpe_traced(
    g: &Graph,
    start: NodeId,
    rpe: &Rpe,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Vec<NodeId>, Exhausted> {
    let mut sp = ssd_trace::span(tracer, Phase::Rpe, "rpe", Some(guard));
    let nfa = Nfa::compile(rpe);
    match product_bfs(g, start, &nfa, guard) {
        Ok((nodes, visited)) => {
            if sp.enabled() {
                sp.field("nodes", nodes.len());
                sp.field("visited", visited);
            }
            Ok(nodes)
        }
        Err(e) => {
            ssd_trace::instant(
                tracer,
                Phase::Guard,
                "exhausted",
                vec![("cause", e.headline().into())],
            );
            Err(e)
        }
    }
}

/// The one BFS over the product of data graph × automaton, shared by every
/// public entry point so the guard semantics cannot drift between them.
fn product_bfs(
    g: &Graph,
    start: NodeId,
    nfa: &Nfa,
    guard: &Guard,
) -> Result<(Vec<NodeId>, usize), Exhausted> {
    let symbols = g.symbols();
    let start_states = nfa.epsilon_closure(&std::iter::once(nfa.start()).collect());
    let mut visited: HashSet<(NodeId, usize)> = HashSet::new();
    let mut result: BTreeSet<NodeId> = BTreeSet::new();
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::new();
    for &s in &start_states {
        if visited.insert((start, s)) {
            queue.push_back((start, s));
        }
    }
    if start_states.contains(&nfa.accept()) {
        result.insert(start);
    }
    'bfs: while let Some((n, s)) = queue.pop_front() {
        if !(guard.tick(1)? && guard.fail_point(FP_RPE_STEP)?) {
            break 'bfs;
        }
        for e in g.edges(n) {
            if !guard.tick(1)? {
                break 'bfs;
            }
            for (pred, t) in nfa.transitions_from(s) {
                if pred.matches(&e.label, symbols) {
                    for &ct in nfa.closure(*t) {
                        if ct == nfa.accept() {
                            result.insert(e.to);
                        }
                        if visited.insert((e.to, ct)) {
                            if !guard.alloc(VISIT_COST)? {
                                break 'bfs;
                            }
                            queue.push_back((e.to, ct));
                        }
                    }
                }
            }
        }
    }
    Ok((result.into_iter().collect(), visited.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpe::ast::Step;
    use ssd_graph::literal::parse_graph;
    use ssd_graph::Value;

    fn movie_db() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca",
                                Cast: {Actors: "Bogart", Actors: "Bacall"}}},
                Entry: {Movie: {Title: "Play it again, Sam",
                                Cast: {Credit: {Actors: "Allen"}},
                                Director: "Allen"}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn fixed_path() {
        let g = movie_db();
        let e = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::symbol("Title"),
        ]);
        let titles = eval_rpe(&g, g.root(), &e);
        assert_eq!(titles.len(), 2);
        for t in titles {
            assert!(g.atomic_value(t).is_some());
        }
    }

    #[test]
    fn epsilon_matches_start() {
        let g = movie_db();
        assert_eq!(eval_rpe(&g, g.root(), &Rpe::Epsilon), vec![g.root()]);
    }

    #[test]
    fn wildcard_star_reaches_everything() {
        let g = movie_db();
        let all = eval_rpe(&g, g.root(), &Rpe::step(Step::wildcard()).star());
        assert_eq!(all.len(), g.reachable().len());
    }

    #[test]
    fn alternation_covers_both_cast_shapes() {
        // Cast.(Actors | Credit.Actors) — the two representations in
        // Figure 1.
        let g = movie_db();
        let e = Rpe::seq(vec![
            Rpe::step(Step::wildcard()).star(),
            Rpe::symbol("Cast"),
            Rpe::alt(vec![
                Rpe::symbol("Actors"),
                Rpe::seq(vec![Rpe::symbol("Credit"), Rpe::symbol("Actors")]),
            ]),
        ]);
        let actors = eval_rpe(&g, g.root(), &e);
        // Bogart, Bacall, Allen nodes.
        assert_eq!(actors.len(), 3);
    }

    #[test]
    fn negated_step_constrains_path() {
        // From the root: Entry.Movie.(!Movie)*."Allen" must match the cast
        // member, and never cross into another Movie.
        let g = movie_db();
        let e = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::step(Step::not_symbol("Movie")).star(),
            Rpe::step(Step::value("Allen")),
        ]);
        let hits = eval_rpe(&g, g.root(), &e);
        // Allen appears twice below the second movie (actor + director leaf
        // nodes; they may be distinct leaves).
        assert!(!hits.is_empty());
        for h in &hits {
            assert!(g.is_leaf(*h));
        }
    }

    #[test]
    fn evaluation_terminates_on_cycles() {
        let g = parse_graph("@x = {next: {next: @x}, stop: 1}").unwrap();
        let e = Rpe::seq(vec![Rpe::symbol("next").star(), Rpe::symbol("stop")]);
        let hits = eval_rpe(&g, g.root(), &e);
        assert_eq!(hits.len(), 1);
        // Star over a cycle from a cyclic start reaches both cycle nodes.
        let all_next = eval_rpe(&g, g.root(), &Rpe::symbol("next").star());
        assert_eq!(all_next.len(), 2);
    }

    #[test]
    fn precompiled_nfa_reuse() {
        let g = movie_db();
        let nfa = Nfa::compile(&Rpe::symbol("Movie"));
        let entries = eval_rpe(&g, g.root(), &Rpe::symbol("Entry"));
        let mut count = 0;
        for e in entries {
            count += eval_nfa(&g, e, &nfa).len();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn label_variable_binds_final_edges() {
        let g = movie_db();
        // Entry.Movie.^L — bind the attribute names of movies.
        let e = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::step(Step::label_var("L")),
        ]);
        let matches = eval_rpe_with_labels(&g, g.root(), &e);
        let names: BTreeSet<String> = matches
            .iter()
            .filter_map(|m| m.label.text(g.symbols()))
            .collect();
        assert!(names.contains("Title"));
        assert!(names.contains("Cast"));
        assert!(names.contains("Director"));
    }

    #[test]
    fn label_variable_with_predicate() {
        let g = movie_db();
        // Values directly under titles: Entry.Movie.Title.^V where V is a
        // string.
        let e = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::symbol("Movie"),
            Rpe::symbol("Title"),
            Rpe::Step(Step {
                pred: ssd_schema::Pred::Kind(ssd_graph::LabelKind::Str),
                label_var: Some("V".into()),
            }),
        ]);
        let matches = eval_rpe_with_labels(&g, g.root(), &e);
        let titles: BTreeSet<&str> = matches
            .iter()
            .filter_map(|m| m.label.as_value().and_then(Value::as_str))
            .collect();
        assert_eq!(
            titles,
            ["Casablanca", "Play it again, Sam"].into_iter().collect()
        );
    }

    #[test]
    fn stats_report_product_work() {
        let g = movie_db();
        let narrow = Nfa::compile(&Rpe::symbol("Entry"));
        let broad = Nfa::compile(&Rpe::step(Step::wildcard()).star());
        let (_, w1) = eval_nfa_with_stats(&g, g.root(), &narrow, &Guard::unlimited()).unwrap();
        let (_, w2) = eval_nfa_with_stats(&g, g.root(), &broad, &Guard::unlimited()).unwrap();
        assert!(w2 > w1, "wildcard-star should visit more product states");
    }

    #[test]
    fn start_node_acceptance_with_nullable_rpe() {
        let g = movie_db();
        let e = Rpe::symbol("Entry").opt();
        let hits = eval_rpe(&g, g.root(), &e);
        assert!(hits.contains(&g.root()));
        assert_eq!(hits.len(), 3); // root + 2 entries
    }
}
