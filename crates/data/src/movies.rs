//! The movie database: Figure 1 exactly, and at scale.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssd_graph::{Graph, Label, NodeId};

/// The movie database of Figure 1, edge for edge.
///
/// Three entries — two movies and a TV show. The first movie
/// ("Casablanca") has a `Cast` with direct `Actors` edges; note the
/// paper's deliberate ("egregious") error: Bacall's actor edge is labeled
/// `"Play it again, Sam"` instead of `"Bacall"`. The second movie
/// ("Play it again, Sam") represents its cast through `Credit.Actors`,
/// has a `1.2E6` box-office real value, and `Director: "Allen"`. The TV
/// show has `Special_Guests` with integer-indexed episodes and a
/// `References` edge back into the second movie's entry, which carries an
/// `Is_referenced_in` edge back — the cycle.
pub fn figure1() -> Graph {
    let mut g = Graph::new();
    let root = g.root();

    // Entry 1: Casablanca.
    let e1 = g.add_node();
    g.add_sym_edge(root, "Entry", e1);
    let m1 = g.add_node();
    g.add_sym_edge(e1, "Movie", m1);
    g.add_attr(m1, "Title", "Casablanca");
    let cast1 = g.add_node();
    g.add_sym_edge(m1, "Cast", cast1);
    g.add_attr(cast1, "Actors", "Bogart");
    // The egregious error of Figure 1: this actor edge carries the wrong
    // label (the *other* movie's title) instead of "Bacall".
    g.add_attr(cast1, "Actors", "Play it again, Sam");
    g.add_attr(m1, "Director", "Curtiz");

    // Entry 2: Play it again, Sam.
    let e2 = g.add_node();
    g.add_sym_edge(root, "Entry", e2);
    let m2 = g.add_node();
    g.add_sym_edge(e2, "Movie", m2);
    g.add_attr(m2, "Title", "Play it again, Sam");
    let cast2 = g.add_node();
    g.add_sym_edge(m2, "Cast", cast2);
    let credit = g.add_node();
    g.add_sym_edge(cast2, "Credit", credit);
    g.add_attr(credit, "Actors", "Allen");
    g.add_attr(m2, "Director", "Allen");
    let box_office = g.add_node();
    g.add_sym_edge(m2, "BoxOffice", box_office);
    g.add_value_edge(box_office, 1.2e6);

    // Entry 3: the TV show with integer-indexed special guests.
    let e3 = g.add_node();
    g.add_sym_edge(root, "Entry", e3);
    let tv = g.add_node();
    g.add_sym_edge(e3, "TV_Show", tv);
    g.add_attr(tv, "Title", "The Tonight Show");
    let cast3 = g.add_node();
    g.add_sym_edge(tv, "Cast", cast3);
    g.add_attr(cast3, "Actors", "Carson");
    let episode = g.add_node();
    g.add_sym_edge(tv, "Episode", episode);
    let guests = g.add_node();
    g.add_sym_edge(episode, "Special_Guests", guests);
    let g1 = g.add_node();
    g.add_edge(guests, Label::int(1), g1);
    g.add_value_edge(g1, "Allen");
    let g2 = g.add_node();
    g.add_edge(guests, Label::int(2), g2);
    g.add_value_edge(g2, "Bogart");

    // The References / Is_referenced_in cycle between the TV show and the
    // second movie's entry.
    g.add_sym_edge(tv, "References", e2);
    g.add_sym_edge(e2, "Is_referenced_in", e3);

    g
}

/// Configuration for the scalable IMDB-like generator.
#[derive(Debug, Clone)]
pub struct MovieDbConfig {
    pub movies: usize,
    pub tv_shows: usize,
    /// Distinct actor pool size (shared across productions — creates
    /// joinable values).
    pub actors: usize,
    /// Probability that a movie uses the `Credit.Actors` representation
    /// instead of direct `Actors` (the Figure 1 heterogeneity).
    pub credit_cast_prob: f64,
    /// Probability that an entry gets a `References` edge to another
    /// entry (with the reciprocal `Is_referenced_in`), creating cycles.
    pub reference_prob: f64,
    pub seed: u64,
}

impl Default for MovieDbConfig {
    fn default() -> Self {
        MovieDbConfig {
            movies: 100,
            tv_shows: 20,
            actors: 50,
            credit_cast_prob: 0.3,
            reference_prob: 0.1,
            seed: 42,
        }
    }
}

impl MovieDbConfig {
    /// Scale the default shape to roughly `n` entries.
    pub fn sized(n: usize) -> MovieDbConfig {
        MovieDbConfig {
            movies: n * 5 / 6,
            tv_shows: n / 6,
            actors: (n / 2).max(10),
            ..MovieDbConfig::default()
        }
    }
}

/// Generate a scalable movie database with the structure of Figure 1:
/// heterogeneous casts, mixed value types, and reference cycles.
pub fn movie_database(cfg: &MovieDbConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let root = g.root();
    let mut entries: Vec<NodeId> = Vec::new();

    for i in 0..cfg.movies {
        let e = g.add_node();
        g.add_sym_edge(root, "Entry", e);
        entries.push(e);
        let m = g.add_node();
        g.add_sym_edge(e, "Movie", m);
        g.add_attr(m, "Title", format!("Movie {i}"));
        g.add_attr(m, "Year", 1930 + (rng.gen_range(0..70)) as i64);
        let cast = g.add_node();
        g.add_sym_edge(m, "Cast", cast);
        let holder = if rng.gen_bool(cfg.credit_cast_prob) {
            let credit = g.add_node();
            g.add_sym_edge(cast, "Credit", credit);
            credit
        } else {
            cast
        };
        for _ in 0..rng.gen_range(1..=4usize) {
            let a = rng.gen_range(0..cfg.actors);
            g.add_attr(holder, "Actors", format!("Actor {a}"));
        }
        let d = rng.gen_range(0..cfg.actors);
        g.add_attr(m, "Director", format!("Actor {d}"));
        if rng.gen_bool(0.5) {
            let bo = g.add_node();
            g.add_sym_edge(m, "BoxOffice", bo);
            g.add_value_edge(bo, rng.gen_range(10_000..5_000_000) as i64);
        }
    }
    for i in 0..cfg.tv_shows {
        let e = g.add_node();
        g.add_sym_edge(root, "Entry", e);
        entries.push(e);
        let tv = g.add_node();
        g.add_sym_edge(e, "TV_Show", tv);
        g.add_attr(tv, "Title", format!("Show {i}"));
        g.add_attr(tv, "Episode", rng.gen_range(1..500) as i64);
        let cast = g.add_node();
        g.add_sym_edge(tv, "Cast", cast);
        let guests = g.add_node();
        g.add_sym_edge(cast, "Special_Guests", guests);
        for k in 0..rng.gen_range(1..=3usize) {
            let a = rng.gen_range(0..cfg.actors);
            let gn = g.add_node();
            g.add_edge(guests, Label::int(k as i64 + 1), gn);
            g.add_value_edge(gn, format!("Actor {a}"));
        }
    }
    // Reference cycles between entries.
    let n = entries.len();
    if n > 1 {
        for &e in &entries {
            if rng.gen_bool(cfg.reference_prob) {
                let target = entries[rng.gen_range(0..n)];
                if target != e {
                    g.add_sym_edge(e, "References", target);
                    g.add_sym_edge(target, "Is_referenced_in", e);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::bisim::graphs_bisimilar;
    use ssd_graph::Value;

    /// The labels of every edge reachable from the root.
    fn reachable_labels(g: &Graph) -> Vec<&Label> {
        g.reachable()
            .into_iter()
            .flat_map(|n| g.edges(n))
            .map(|e| &e.label)
            .collect()
    }

    #[test]
    fn figure1_has_three_entries() {
        let g = figure1();
        assert_eq!(g.successors_by_name(g.root(), "Entry").len(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn figure1_is_cyclic_through_references() {
        let g = figure1();
        assert!(g.has_cycle());
    }

    #[test]
    fn figure1_has_heterogeneous_casts() {
        let g = figure1();
        // One cast uses Actors directly, another goes through Credit.
        let entries = g.successors_by_name(g.root(), "Entry");
        let mut direct = 0;
        let mut via_credit = 0;
        for e in entries {
            for kind in ["Movie", "TV_Show"] {
                for m in g.successors_by_name(e, kind) {
                    for c in g.successors_by_name(m, "Cast") {
                        if !g.successors_by_name(c, "Actors").is_empty() {
                            direct += 1;
                        }
                        if !g.successors_by_name(c, "Credit").is_empty() {
                            via_credit += 1;
                        }
                    }
                }
            }
        }
        assert!(direct >= 2);
        assert_eq!(via_credit, 1);
    }

    #[test]
    fn figure1_contains_the_egregious_error() {
        // Bacall's edge is labeled with the other movie's title.
        let g = figure1();
        let wrong = Label::str("Play it again, Sam");
        // Once as the mislabeled actor, once as the actual title.
        let count = reachable_labels(&g)
            .into_iter()
            .filter(|l| **l == wrong)
            .count();
        assert_eq!(count, 2);
    }

    #[test]
    fn figure1_has_real_and_int_values() {
        let g = figure1();
        let values: Vec<&Value> = reachable_labels(&g)
            .into_iter()
            .filter_map(Label::as_value)
            .collect();
        assert!(values
            .iter()
            .any(|v| matches!(v, Value::Real(r) if (*r - 1.2e6).abs() < 1.0)));
        assert!(values.iter().any(|v| matches!(v, Value::Int(_))));
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = MovieDbConfig::default();
        let a = movie_database(&cfg);
        let b = movie_database(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(graphs_bisimilar(&a, &b));
    }

    #[test]
    fn generator_scales() {
        let small = movie_database(&MovieDbConfig::sized(20));
        let large = movie_database(&MovieDbConfig::sized(200));
        assert!(large.edge_count() > 5 * small.edge_count());
        assert_eq!(
            small.successors_by_name(small.root(), "Entry").len(),
            20 * 5 / 6 + 20 / 6
        );
    }

    #[test]
    fn generator_produces_both_cast_shapes() {
        let g = movie_database(&MovieDbConfig {
            movies: 100,
            credit_cast_prob: 0.5,
            ..MovieDbConfig::default()
        });
        let labels = reachable_labels(&g);
        let credit_sym = g.symbols().get("Credit").unwrap();
        assert!(labels.contains(&&Label::Symbol(credit_sym)));
        let actors_sym = g.symbols().get("Actors").unwrap();
        assert!(labels.contains(&&Label::Symbol(actors_sym)));
    }

    #[test]
    fn generator_cycles_controlled_by_probability() {
        let none = movie_database(&MovieDbConfig {
            reference_prob: 0.0,
            ..MovieDbConfig::default()
        });
        assert!(!none.has_cycle());
        let many = movie_database(&MovieDbConfig {
            reference_prob: 0.9,
            ..MovieDbConfig::default()
        });
        assert!(many.has_cycle());
    }
}
