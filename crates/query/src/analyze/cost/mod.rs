//! `ssd-cost` — static cost-and-cardinality analysis.
//!
//! §4 frames optimization of path queries as reasoning against schemas
//! and DataGuides; Goldman–Widom add *statistics* so the optimizer can
//! estimate how much a path touches. This pass is the estimating layer:
//! an abstract interpreter that maps select-from-where queries ([`select`]),
//! regular path expressions ([`rpe`]), and graph-datalog programs
//! ([`datalog`]) to a [`CostEnvelope`] — lower/upper interval bounds on
//! result cardinality, guard fuel, and guard-accounted memory, in exactly
//! the units [`ssd_guard::Guard`] charges at run time.
//!
//! Three consumers sit on top:
//!
//! * admission control — [`ssd_guard::Budget::admit`] rejects a query
//!   whose *lower* bound already exceeds the budget (SSD030) before the
//!   engine consumes any fuel;
//! * `ssd explain`, which prints each binding's estimated matches next to
//!   its access path;
//! * diagnostics — SSD031 (unbounded cost), SSD032 (cross-product join),
//!   SSD033 (imprecise estimate), rendered by `ssd check --estimate`.
//!
//! The bounds are *sound*, not tight: the estimator models the
//! guide-free engines `Database` dispatches to (and the all-off reference
//! interpreter), and a proptest harness (`tests/cost_soundness.rs`)
//! checks measured guard fuel/memory against the envelope on random
//! datasets and programs. These
//! diagnostics are deliberately *not* part of
//! [`analyze_query`](crate::analyze::analyze_query): estimation is
//! opt-in, so existing warning-exact consumers are unaffected.

pub mod datalog;
pub mod rpe;
pub mod select;

pub use datalog::analyze_datalog_cost;
pub use rpe::{rpe_cost, RpeCost};
pub use select::analyze_query_cost;

use ssd_diag::Diagnostic;
use ssd_guard::{Bound, CostEnvelope, Interval};
use ssd_schema::{DataStats, Schema};

/// What the estimator knows about the database. Every field is optional:
/// missing information widens bounds (recorded as SSD033 notes) instead
/// of failing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostContext<'a> {
    /// Statistics of the snapshot the estimate is for: a generation's
    /// index counts (`Database::index_stats`, what admission reads), a
    /// graph walk ([`DataStats::collect`]), or either refined by a
    /// schema ([`DataStats::refine`]).
    pub stats: Option<&'a DataStats>,
    /// A schema the data conforms to. Per-schema-node extents are used
    /// only when `stats` was collected *with* this schema and reports
    /// conformance.
    pub schema: Option<&'a Schema>,
}

impl<'a> CostContext<'a> {
    /// Context carrying statistics only.
    pub fn with_stats(stats: &'a DataStats) -> CostContext<'a> {
        CostContext {
            stats: Some(stats),
            schema: None,
        }
    }

    /// Do the statistics carry usable per-schema-node extents for
    /// `schema` (collected with it, and the data conforms)?
    pub(crate) fn schema_extents_usable(&self) -> bool {
        match (self.stats, self.schema) {
            (Some(st), Some(sc)) => st.conforms && st.per_schema_node.len() == sc.node_count(),
            _ => false,
        }
    }
}

/// One cost analysis: the envelope plus cost-band diagnostics
/// (SSD031–SSD033; SSD030 is admission's, see
/// [`ssd_guard::Budget::admit`]).
#[derive(Debug, Clone, Default)]
pub struct CostAnalysis {
    /// Interval bounds on cardinality, fuel, and memory.
    pub envelope: CostEnvelope,
    /// SSD03x findings (unbounded cost, cross products, widenings).
    pub diagnostics: Vec<Diagnostic>,
    /// For queries: the per-binding match-cardinality intervals, parallel
    /// to `SelectQuery::bindings` (empty for datalog programs).
    pub per_binding: Vec<Interval>,
}

/// `base^exp` over [`Bound`]s, saturating; `Unbounded` absorbs (and
/// `b^0 = 1`).
pub(crate) fn bound_pow(base: Bound, exp: usize) -> Bound {
    let mut out = Bound::Finite(1);
    for _ in 0..exp {
        out = out.mul(base);
    }
    out
}

/// Record a widening reason once (SSD033 payload).
pub(crate) fn widen(reasons: &mut Vec<String>, reason: &str) {
    if !reasons.iter().any(|r| r == reason) {
        reasons.push(reason.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_pow_saturates_and_absorbs() {
        assert_eq!(bound_pow(Bound::Finite(3), 2), Bound::Finite(9));
        assert_eq!(bound_pow(Bound::Finite(10), 0), Bound::Finite(1));
        assert_eq!(bound_pow(Bound::Unbounded, 0), Bound::Finite(1));
        assert_eq!(bound_pow(Bound::Unbounded, 1), Bound::Unbounded);
        assert_eq!(
            bound_pow(Bound::Finite(u64::MAX), 3),
            Bound::Finite(u64::MAX)
        );
    }

    #[test]
    fn widen_deduplicates() {
        let mut r = Vec::new();
        widen(&mut r, "a");
        widen(&mut r, "b");
        widen(&mut r, "a");
        assert_eq!(r, vec!["a".to_owned(), "b".to_owned()]);
    }
}
