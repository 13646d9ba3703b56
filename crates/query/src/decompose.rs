//! Parallel query decomposition over graph "sites" (§4, \[35\]).
//!
//! "In \[35\] it is shown how an analysis of the query, combined with some
//! segmentation of the graph into local 'sites' can be used to decompose a
//! query into independent, parallel sub-queries."
//!
//! We implement the idea for regular-path-expression reachability: the
//! graph is partitioned into `k` sites. Evaluation proceeds in *waves*:
//! each wave hands every site its pending entry pairs
//! `(node, automaton state)`; the sites expand them through their local
//! edges **in parallel** (one thread per active site), producing result
//! nodes and exit pairs for other sites; exits seed the next wave. Total
//! work matches the sequential product-BFS (each pair is expanded once,
//! globally deduplicated between waves), waves correspond to the
//! communication rounds of the distributed setting \[35\], and the result
//! is identical to [`crate::rpe::eval::eval_nfa`] — verified by tests and
//! benchmarked in E11.

use crate::rpe::nfa::{Nfa, StateId};
use crate::rpe::Rpe;
use ssd_graph::{Graph, NodeId};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// A partition of the reachable nodes into sites.
#[derive(Debug, Clone)]
pub struct Partition {
    /// `site_of[node.index()]` = site id (usize::MAX for unreachable).
    site_of: Vec<usize>,
    pub sites: usize,
}

impl Partition {
    /// Hash-partition the reachable nodes into `k` sites.
    pub fn hash(g: &Graph, k: usize) -> Partition {
        assert!(k > 0, "at least one site");
        let mut site_of = vec![usize::MAX; g.node_count()];
        for n in g.reachable() {
            site_of[n.index()] = n.index() % k;
        }
        Partition { site_of, sites: k }
    }

    /// BFS-order block partition: contiguous regions of the BFS order, so
    /// sites have locality (fewer cross edges than hash partitioning).
    pub fn blocks(g: &Graph, k: usize) -> Partition {
        assert!(k > 0, "at least one site");
        let order = g.reachable();
        let mut site_of = vec![usize::MAX; g.node_count()];
        let per = order.len().div_ceil(k);
        for (i, n) in order.iter().enumerate() {
            site_of[n.index()] = (i / per).min(k - 1);
        }
        Partition { site_of, sites: k }
    }

    /// Contiguous blocks of the raw node-id space. When the generator
    /// allocates logically-related nodes consecutively (as
    /// `ssd_data::webgraph::clustered_graph` does per cluster), this maps
    /// clusters to sites with minimal cross edges.
    pub fn index_blocks(g: &Graph, k: usize) -> Partition {
        assert!(k > 0, "at least one site");
        let mut site_of = vec![usize::MAX; g.node_count()];
        let per = g.node_count().div_ceil(k);
        for n in g.reachable() {
            site_of[n.index()] = (n.index() / per).min(k - 1);
        }
        Partition { site_of, sites: k }
    }

    pub fn site_of(&self, n: NodeId) -> usize {
        self.site_of[n.index()]
    }

    /// Number of edges crossing between different sites.
    pub fn cross_edges(&self, g: &Graph) -> usize {
        g.reachable()
            .into_iter()
            .flat_map(|n| {
                g.edges(n)
                    .iter()
                    .filter(|e| self.site_of(n) != self.site_of(e.to))
                    .collect::<Vec<_>>()
            })
            .count()
    }
}

/// What one site reports back after expanding a wave of entry pairs.
#[derive(Debug, Default)]
struct WaveResult {
    /// Result nodes discovered inside the site.
    accepting: Vec<NodeId>,
    /// Pairs whose node lies in another site (next wave's seeds).
    exits: Vec<(NodeId, StateId)>,
}

/// Evaluate `rpe` from the root using `k`-way decomposition with one
/// worker thread per active site per wave. Returns the same node set as
/// [`crate::rpe::eval_rpe`].
// lint: allow(guard) — decomposition experiment evaluator (E13); the governed production path is eval_rpe_guarded
pub fn eval_decomposed(g: &Graph, rpe: &Rpe, partition: &Partition) -> Vec<NodeId> {
    let nfa = Nfa::compile(rpe);
    eval_decomposed_nfa(g, &nfa, partition)
}

/// As [`eval_decomposed`] with a precompiled automaton.
// lint: allow(guard) — decomposition experiment evaluator (E13); the governed production path is eval_nfa_guarded
pub fn eval_decomposed_nfa(g: &Graph, nfa: &Nfa, partition: &Partition) -> Vec<NodeId> {
    let mut result: BTreeSet<NodeId> = BTreeSet::new();
    // Each site owns a persistent visited set; exactly one worker per
    // wave borrows it mutably (sites are disjoint), so no cross-thread
    // merging is ever needed — the only serial step per wave is exit
    // bucketing.
    let mut site_visited: Vec<HashSet<(NodeId, StateId)>> =
        (0..partition.sites).map(|_| HashSet::new()).collect();
    // Seed: the root under the start closure.
    let mut frontier: Vec<(NodeId, StateId)> = nfa
        .closure(nfa.start())
        .iter()
        .map(|&q| (g.root(), q))
        .collect();
    while !frontier.is_empty() {
        // Bucket the wave's pairs by site, deduplicating against each
        // site's history (the main thread owns all sets between waves).
        let mut per_site: Vec<Vec<(NodeId, StateId)>> = vec![Vec::new(); partition.sites];
        for (n, q) in frontier.drain(..) {
            let site = partition.site_of(n);
            if site_visited[site].insert((n, q)) {
                if q == nfa.accept() {
                    result.insert(n);
                }
                per_site[site].push((n, q));
            }
        }
        // Expand every active site in parallel; each worker gets its own
        // site's visited set by mutable borrow.
        let wave: Vec<WaveResult> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = site_visited
                .iter_mut()
                .zip(per_site.iter())
                .enumerate()
                .filter(|(_, (_, seeds))| !seeds.is_empty())
                .map(|(site, (visited, seeds))| {
                    scope.spawn(move |_| expand_site(g, nfa, partition, site, seeds, visited))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("site worker"))
                .collect()
        })
        .expect("crossbeam scope");
        // Communication round ([35]): exits seed the next wave.
        for w in wave {
            result.extend(w.accepting);
            frontier.extend(w.exits);
        }
    }
    result.into_iter().collect()
}

/// Work profile of a decomposed evaluation, for reasoning about
/// parallelism independently of the host's core count: per wave, each
/// active site expands some number of product pairs; the wall-clock lower
/// bound on any machine is the *critical path* (sum over waves of the
/// busiest site), while a single core pays the *total*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkProfile {
    /// Product pairs expanded per wave per active site.
    pub waves: Vec<Vec<usize>>,
    /// Sum of all site work.
    pub total_pairs: usize,
    /// Sum over waves of the maximum site work.
    pub critical_path_pairs: usize,
}

impl WorkProfile {
    /// The speedup an ideal machine with ≥ sites cores could reach.
    pub fn ideal_speedup(&self) -> f64 {
        self.total_pairs as f64 / self.critical_path_pairs.max(1) as f64
    }
}

/// Replay the decomposed evaluation sequentially, recording the work
/// profile (used by experiment E11's parallelism analysis).
pub fn decomposition_work_profile(g: &Graph, nfa: &Nfa, partition: &Partition) -> WorkProfile {
    let mut site_visited: Vec<HashSet<(NodeId, StateId)>> =
        (0..partition.sites).map(|_| HashSet::new()).collect();
    let mut frontier: Vec<(NodeId, StateId)> = nfa
        .closure(nfa.start())
        .iter()
        .map(|&q| (g.root(), q))
        .collect();
    let mut waves: Vec<Vec<usize>> = Vec::new();
    while !frontier.is_empty() {
        let mut per_site: Vec<Vec<(NodeId, StateId)>> = vec![Vec::new(); partition.sites];
        for (n, q) in frontier.drain(..) {
            let site = partition.site_of(n);
            if site_visited[site].insert((n, q)) {
                per_site[site].push((n, q));
            }
        }
        let mut wave_work = Vec::new();
        for (site, seeds) in per_site.iter().enumerate() {
            if seeds.is_empty() {
                continue;
            }
            let before = site_visited[site].len();
            let w = expand_site(g, nfa, partition, site, seeds, &mut site_visited[site]);
            wave_work.push(site_visited[site].len() - before + seeds.len());
            frontier.extend(w.exits);
        }
        if !wave_work.is_empty() {
            waves.push(wave_work);
        }
    }
    let total_pairs = waves.iter().flatten().sum();
    let critical_path_pairs = waves
        .iter()
        .map(|w| w.iter().max().copied().unwrap_or(0))
        .sum();
    WorkProfile {
        waves,
        total_pairs,
        critical_path_pairs,
    }
}

/// Expand one site's wave seeds through its local edges, updating the
/// site's persistent visited set in place.
fn expand_site(
    g: &Graph,
    nfa: &Nfa,
    partition: &Partition,
    site: usize,
    seeds: &[(NodeId, StateId)],
    visited: &mut HashSet<(NodeId, StateId)>,
) -> WaveResult {
    let symbols = g.symbols();
    let mut out = WaveResult::default();
    let mut queue: VecDeque<(NodeId, StateId)> = seeds.iter().copied().collect();
    while let Some((n, q)) = queue.pop_front() {
        for e in g.edges(n) {
            for (pred, t) in nfa.transitions_from(q) {
                if pred.matches(&e.label, symbols) {
                    for &ct in nfa.closure(*t) {
                        let pair = (e.to, ct);
                        if partition.site_of(e.to) == site {
                            if visited.insert(pair) {
                                if ct == nfa.accept() {
                                    out.accepting.push(e.to);
                                }
                                queue.push_back(pair);
                            }
                        } else {
                            out.exits.push(pair);
                        }
                    }
                }
            }
        }
    }
    out.exits.sort_unstable();
    out.exits.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpe::{eval_rpe, Step};
    use ssd_graph::literal::parse_graph;

    fn big_graph() -> Graph {
        // A few hundred nodes with shared structure and a cycle.
        let mut src = String::from("{");
        for i in 0..40 {
            src.push_str(&format!(
                "Entry: {{Movie: {{Title: \"m{i}\", Cast: {{Actors: \"a{}\", Actors: \"a{}\"}}}}}},",
                i % 7,
                (i + 3) % 7
            ));
        }
        src.push_str("Loop: @x = {next: {next: @x}, stop: 1}}");
        parse_graph(&src).unwrap()
    }

    fn queries() -> Vec<Rpe> {
        vec![
            Rpe::seq(vec![
                Rpe::symbol("Entry"),
                Rpe::symbol("Movie"),
                Rpe::symbol("Title"),
            ]),
            Rpe::step(Step::wildcard()).star(),
            Rpe::seq(vec![
                Rpe::symbol("Loop"),
                Rpe::symbol("next").star(),
                Rpe::symbol("stop"),
            ]),
            Rpe::seq(vec![
                Rpe::step(Step::wildcard()).star(),
                Rpe::symbol("Actors"),
            ]),
        ]
    }

    #[test]
    fn decomposed_matches_sequential_hash_partition() {
        let g = big_graph();
        for k in [1, 2, 4, 7] {
            let part = Partition::hash(&g, k);
            for rpe in queries() {
                let seq = eval_rpe(&g, g.root(), &rpe);
                let par = eval_decomposed(&g, &rpe, &part);
                assert_eq!(seq, par, "mismatch for {rpe} with k={k}");
            }
        }
    }

    #[test]
    fn decomposed_matches_sequential_block_partition() {
        let g = big_graph();
        for k in [2, 3, 8] {
            let part = Partition::blocks(&g, k);
            for rpe in queries() {
                let seq = eval_rpe(&g, g.root(), &rpe);
                let par = eval_decomposed(&g, &rpe, &part);
                assert_eq!(seq, par, "mismatch for {rpe} with k={k}");
            }
        }
    }

    #[test]
    fn single_site_is_sequential() {
        let g = parse_graph("{a: {b: 1}}").unwrap();
        let part = Partition::hash(&g, 1);
        assert_eq!(part.cross_edges(&g), 0);
        let rpe = Rpe::seq(vec![Rpe::symbol("a"), Rpe::symbol("b")]);
        assert_eq!(
            eval_decomposed(&g, &rpe, &part),
            eval_rpe(&g, g.root(), &rpe)
        );
    }

    #[test]
    fn block_partition_has_fewer_cross_edges_than_hash() {
        let g = big_graph();
        let hash = Partition::hash(&g, 4);
        let blocks = Partition::blocks(&g, 4);
        assert!(
            blocks.cross_edges(&g) <= hash.cross_edges(&g),
            "blocks {} vs hash {}",
            blocks.cross_edges(&g),
            hash.cross_edges(&g)
        );
    }

    #[test]
    fn partition_covers_reachable_nodes() {
        let g = big_graph();
        let part = Partition::hash(&g, 3);
        for n in g.reachable() {
            assert!(part.site_of(n) < 3);
        }
    }

    #[test]
    fn empty_rpe_on_partitioned_graph() {
        let g = big_graph();
        let part = Partition::hash(&g, 4);
        assert_eq!(eval_decomposed(&g, &Rpe::Epsilon, &part), vec![g.root()]);
    }
}

#[cfg(test)]
mod work_profile_tests {
    use super::*;
    use crate::rpe::Step;
    use ssd_data_free_helpers::*;

    mod ssd_data_free_helpers {
        use ssd_graph::Graph;

        /// Fan of `k` chains off the root (no external data dep).
        pub fn fan(k: usize, len: usize) -> Graph {
            let mut g = Graph::new();
            let root = g.root();
            for _ in 0..k {
                let mut cur = g.add_node();
                g.add_sym_edge(root, "enter", cur);
                for _ in 0..len {
                    let next = g.add_node();
                    g.add_sym_edge(cur, "step", next);
                    cur = next;
                }
                let leaf = g.add_node();
                g.add_sym_edge(cur, "stop", leaf);
            }
            g
        }
    }

    #[test]
    fn profile_totals_are_consistent() {
        let g = fan(4, 30);
        let rpe = Rpe::seq(vec![
            Rpe::step(Step::wildcard()).star(),
            Rpe::symbol("stop"),
        ]);
        let nfa = Nfa::compile(&rpe);
        let part = Partition::index_blocks(&g, 4);
        let profile = decomposition_work_profile(&g, &nfa, &part);
        assert_eq!(
            profile.total_pairs,
            profile.waves.iter().flatten().sum::<usize>()
        );
        assert!(profile.critical_path_pairs <= profile.total_pairs);
        assert!(profile.ideal_speedup() >= 1.0);
    }

    #[test]
    fn balanced_fan_has_parallelism() {
        // Four equal chains behind the root: with a per-chain partition,
        // ideal speedup approaches 4.
        let g = fan(4, 100);
        let rpe = Rpe::seq(vec![
            Rpe::step(Step::wildcard()).star(),
            Rpe::symbol("stop"),
        ]);
        let nfa = Nfa::compile(&rpe);
        let part = Partition::index_blocks(&g, 4);
        // Correctness first.
        let seq = crate::rpe::eval::eval_nfa(&g, g.root(), &nfa);
        assert_eq!(seq, eval_decomposed_nfa(&g, &nfa, &part));
        let profile = decomposition_work_profile(&g, &nfa, &part);
        // Index blocks put the root and the whole first chain in site 0,
        // so the first wave is serial; the remaining chains run in
        // parallel in wave 2 — the profile must still show net
        // parallelism (> 1x), just not the full 4x a chain-exact
        // partition would give.
        assert!(
            profile.ideal_speedup() > 1.2,
            "expected parallel work profile, got {:.2}x over {} waves",
            profile.ideal_speedup(),
            profile.waves.len()
        );
    }

    #[test]
    fn single_site_profile_is_serial() {
        let g = fan(3, 10);
        let nfa = Nfa::compile(&Rpe::step(Step::wildcard()).star());
        let part = Partition::hash(&g, 1);
        let profile = decomposition_work_profile(&g, &nfa, &part);
        assert_eq!(profile.critical_path_pairs, profile.total_pairs);
        assert!((profile.ideal_speedup() - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Select-query decomposition: [35] decomposes *queries*, not just path
// reachability. For a select-from-where query the natural unit is the
// first binding: each of its matches seeds an independent residual
// sub-query; chunks of matches run on worker threads and their result
// trees union at the end.

use crate::lang::eval::{analyzer_gate, evaluate_select_seeded};
use crate::lang::{evaluate_select, EvalOptions, SelectQuery};
use ssd_graph::ops;

/// Evaluate `query` with the matches of its first binding fanned out over
/// `workers` threads. The result is bisimilar to [`evaluate_select`]'s
/// (tests verify it); worthwhile when the residual per-match work
/// dominates.
// lint: allow(guard) — parallelism experiment (E11); per-worker governance lands with ROADMAP item 4
pub fn evaluate_select_parallel(
    g: &Graph,
    query: &SelectQuery,
    workers: usize,
) -> Result<Graph, String> {
    analyzer_gate(query, None, &ssd_guard::Guard::unlimited())?;
    assert!(workers > 0, "at least one worker");
    if query.bindings.is_empty() {
        let (r, _) = evaluate_select(g, query, &EvalOptions::default())?;
        return Ok(r);
    }
    // Binding 0 is necessarily db-rooted (no earlier variables exist).
    let first = &query.bindings[0];
    let matches: Vec<(Option<ssd_graph::Label>, NodeId)> =
        match first.path.split_trailing_label_var() {
            Some((prefix, step)) => {
                let mids = crate::rpe::eval_rpe(g, g.root(), &prefix);
                let mut out = Vec::new();
                for mid in mids {
                    for e in g.edges(mid) {
                        if step.matches(&e.label, g.symbols()) {
                            out.push((Some(e.label.clone()), e.to));
                        }
                    }
                }
                out.sort();
                out.dedup();
                out
            }
            None => crate::rpe::eval_rpe(g, g.root(), &first.path)
                .into_iter()
                .map(|n| (None, n))
                .collect(),
        };
    // Round-robin the matches into chunks.
    let k = workers.min(matches.len()).max(1);
    let mut chunks: Vec<Vec<(Option<ssd_graph::Label>, NodeId)>> = vec![Vec::new(); k];
    for (i, m) in matches.into_iter().enumerate() {
        chunks[i % k].push(m);
    }
    let partials: Vec<Result<Graph, String>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|chunk| {
                scope.spawn(move |_| -> Result<Graph, String> {
                    let mut acc = Graph::with_symbols(g.symbols_handle());
                    for (label, node) in chunk {
                        let (r, _) = evaluate_select_seeded(
                            g,
                            query,
                            *node,
                            label.clone(),
                            &EvalOptions::default(),
                        )?;
                        let img = ops::copy_subgraph(&r, r.root(), &mut acc);
                        let root = acc.root();
                        let u = ops::union(&mut acc, root, img);
                        acc.set_root(u);
                    }
                    Ok(acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("select worker"))
            .collect()
    })
    .expect("crossbeam scope");
    let mut out = Graph::with_symbols(g.symbols_handle());
    for p in partials {
        let p = p?;
        let img = ops::copy_subgraph(&p, p.root(), &mut out);
        let root = out.root();
        let u = ops::union(&mut out, root, img);
        out.set_root(u);
    }
    out.gc();
    Ok(out)
}

#[cfg(test)]
mod select_parallel_tests {
    use super::*;
    use crate::lang::parse_query;
    use ssd_graph::bisim::graphs_bisimilar;
    use ssd_graph::literal::parse_graph;

    fn db() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "A", Year: 1942, Cast: {Actors: "x"}}},
                Entry: {Movie: {Title: "B", Year: 1972, Cast: {Actors: "y"}}},
                Entry: {Movie: {Title: "C", Year: 1977, Cast: {Actors: "x", Actors: "z"}}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = db();
        let queries = [
            "select T from db.Entry.Movie M, M.Title T",
            r#"select {p: {t: T}} from db.Entry.Movie M, M.Title T, M.Year Y where Y > 1950"#,
            r#"select {a: A} from db.Entry.Movie M, M.Cast.Actors A where A = "x""#,
            "select L from db.Entry.Movie.^L X",
        ];
        for src in queries {
            let q = parse_query(src).unwrap();
            let (seq, _) = evaluate_select(&g, &q, &EvalOptions::default()).unwrap();
            for workers in [1, 2, 4] {
                let par = evaluate_select_parallel(&g, &q, workers).unwrap();
                assert!(
                    graphs_bisimilar(&seq, &par),
                    "parallel({workers}) diverged on {src}"
                );
            }
        }
    }

    #[test]
    fn parallel_on_empty_matches() {
        let g = db();
        let q = parse_query("select T from db.Nothing.Title T").unwrap();
        let par = evaluate_select_parallel(&g, &q, 4).unwrap();
        assert!(par.is_leaf(par.root()));
    }

    #[test]
    fn seeded_skips_first_binding() {
        use crate::lang::eval::evaluate_select_seeded;
        let g = db();
        let q = parse_query("select T from db.Entry.Movie M, M.Title T").unwrap();
        // Seed with one specific movie node.
        let movies = crate::rpe::eval_rpe(
            &g,
            g.root(),
            &crate::rpe::Rpe::seq(vec![
                crate::rpe::Rpe::symbol("Entry"),
                crate::rpe::Rpe::symbol("Movie"),
            ]),
        );
        let (r, _) =
            evaluate_select_seeded(&g, &q, movies[0], None, &EvalOptions::default()).unwrap();
        assert_eq!(r.out_degree(r.root()), 1); // one title only
    }
}
