//! Expected answers from a direct walk over the graph's edges. Nothing
//! here calls the engine: paths are followed edge by edge and closures
//! are breadth-first searches, so a reply that matches was computed two
//! independent ways.

use std::collections::{HashMap, HashSet, VecDeque};

use ssd_graph::{Graph, Label, NodeId};
use ssd_workload::gen::GenConfig;

use crate::input::{Class, Op};

/// What a reply must add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expect {
    /// Assignments a select constructs, or tuples a datalog job derives.
    pub results: u64,
    /// String atoms in the reply's chunks, as a count and an
    /// order-independent hash (the sum of their FNV-1a hashes).
    pub strings: u64,
    pub str_hash: u64,
}

impl Expect {
    pub fn add_string(&mut self, s: &str) {
        self.strings += 1;
        self.str_hash = self.str_hash.wrapping_add(hash_str(s));
    }
}

pub fn hash_str(s: &str) -> u64 {
    ssd_workload::gen::fnv1a(0xcbf2_9ce4_8422_2325, s.as_bytes())
}

struct Movie {
    years: u64,
    /// The strings under each `Director` node.
    directors: Vec<Vec<String>>,
}

pub struct Oracle {
    movies: Vec<Movie>,
    /// title → `(movie, leaf under the title edge)`.
    by_title: HashMap<String, Vec<(usize, NodeId)>>,
    join: Expect,
    rpe3: Expect,
    wild: Expect,
    star: Expect,
    closure_pairs: u64,
    reachable: u64,
}

fn sorted_dedup(mut v: Vec<NodeId>) -> Vec<NodeId> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Distinct nodes one edge away from `from` over edges `keep` accepts.
fn step(g: &Graph, from: &[NodeId], keep: impl Fn(&Label) -> bool) -> Vec<NodeId> {
    sorted_dedup(
        from.iter()
            .flat_map(|&n| g.edges(n))
            .filter(|e| keep(&e.label))
            .map(|e| e.to)
            .collect(),
    )
}

/// String labels on the edges out of `n`: what a title or director node
/// renders as in a result.
fn strings_at(g: &Graph, n: NodeId) -> impl Iterator<Item = &str> {
    g.edges(n).iter().filter_map(|e| label_str(&e.label))
}

fn label_str(label: &Label) -> Option<&str> {
    match label {
        Label::Value(v) => v.as_str(),
        Label::Symbol(_) => None,
    }
}

/// The union of the out-edges of `nodes`, as a select of one path
/// variable renders them.
fn union_of(g: &Graph, nodes: &[NodeId]) -> Expect {
    let mut e = Expect {
        results: nodes.len() as u64,
        ..Expect::default()
    };
    for &n in nodes {
        strings_at(g, n).for_each(|s| e.add_string(s));
    }
    e
}

impl Oracle {
    pub fn build(g: &Graph) -> Oracle {
        let sym = |name: &str| g.symbols().get(name).map(Label::Symbol);
        let is = |want: &Option<Label>| {
            let want = want.clone();
            move |l: &Label| Some(l) == want.as_ref()
        };
        let (entry, movie, title, year, director, cast, refs) = (
            sym("Entry"),
            sym("Movie"),
            sym("Title"),
            sym("Year"),
            sym("Director"),
            sym("Cast"),
            sym("References"),
        );

        let entries = step(g, &[g.root()], is(&entry));
        let movie_nodes = step(g, &entries, is(&movie));
        let mut movies = Vec::with_capacity(movie_nodes.len());
        let mut by_title: HashMap<String, Vec<(usize, NodeId)>> = HashMap::new();
        let mut join = Expect::default();
        for (i, &m) in movie_nodes.iter().enumerate() {
            let title_nodes = step(g, &[m], is(&title));
            let director_nodes = step(g, &[m], is(&director));
            for &t in &title_nodes {
                for e in g.edges(t) {
                    if let Some(s) = label_str(&e.label) {
                        by_title.entry(s.to_string()).or_default().push((i, e.to));
                    }
                }
            }
            if !step(g, &[m], is(&cast)).is_empty() {
                for &t in &title_nodes {
                    for &d in &director_nodes {
                        join.results += 1;
                        strings_at(g, t).for_each(|s| join.add_string(s));
                        strings_at(g, d).for_each(|s| join.add_string(s));
                    }
                }
            }
            movies.push(Movie {
                years: step(g, &[m], is(&year)).len() as u64,
                directors: director_nodes
                    .iter()
                    .map(|&d| strings_at(g, d).map(str::to_string).collect())
                    .collect(),
            });
        }

        let rpe3 = union_of(g, &step(g, &movie_nodes, is(&title)));
        let wild = union_of(g, &step(g, &step(g, &entries, |_| true), is(&title)));
        // `References*` from the entries: a breadth-first closure.
        let mut seen: HashSet<NodeId> = entries.iter().copied().collect();
        let mut queue: VecDeque<NodeId> = entries.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for to in step(g, &[n], is(&refs)) {
                if seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        let starred = sorted_dedup(seen.into_iter().collect());
        let star = union_of(g, &step(g, &step(g, &starred, is(&movie)), is(&title)));

        // Root reachability, and for every reachable node the nodes one
        // or more `References` edges away.
        let mut reach: HashSet<NodeId> = HashSet::from([g.root()]);
        let mut queue = VecDeque::from([g.root()]);
        while let Some(n) = queue.pop_front() {
            for e in g.edges(n) {
                if reach.insert(e.to) {
                    queue.push_back(e.to);
                }
            }
        }
        let mut closure_pairs = 0u64;
        for &x in &reach {
            let first = step(g, &[x], is(&refs));
            if first.is_empty() {
                continue;
            }
            let mut seen: HashSet<NodeId> = first.iter().copied().collect();
            let mut queue: VecDeque<NodeId> = first.into();
            while let Some(n) = queue.pop_front() {
                for to in step(g, &[n], is(&refs)) {
                    if seen.insert(to) {
                        queue.push_back(to);
                    }
                }
            }
            closure_pairs += seen.len() as u64;
        }

        Oracle {
            movies,
            by_title,
            join,
            rpe3,
            wild,
            star,
            closure_pairs,
            reachable: reach.len() as u64,
        }
    }

    /// The expected reply to `op` on the base graph. `Recent` and
    /// `Commit` replies depend on what was committed before them and are
    /// checked structurally by the caller instead.
    pub fn expect(&self, op: &Op, cfg: &GenConfig) -> Option<Expect> {
        // Only σ and fetch name a title; `op.key` is their movie.
        let hits = || {
            let found = self.by_title.get(&cfg.title_of(op.key));
            found.map_or(&[][..], Vec::as_slice)
        };
        Some(match op.class {
            Class::Sigma => Expect {
                // The matched leaves have no edges, so nothing renders.
                results: sorted_dedup(hits().iter().map(|&(_, leaf)| leaf).collect()).len() as u64,
                ..Expect::default()
            },
            Class::Fetch => {
                let mut e = Expect::default();
                for &(m, _) in hits() {
                    let m = &self.movies[m];
                    for d in &m.directors {
                        for _ in 0..m.years {
                            e.results += 1;
                            d.iter().for_each(|s| e.add_string(s));
                        }
                    }
                }
                e
            }
            Class::Join => self.join,
            Class::Rpe3 => self.rpe3,
            Class::Wild => self.wild,
            Class::Star => self.star,
            Class::Closure => Expect {
                results: self.closure_pairs,
                ..Expect::default()
            },
            Class::Reach => Expect {
                results: self.reachable,
                ..Expect::default()
            },
            Class::Recent | Class::Commit => return None,
        })
    }
}
