//! `ssd-analyze` — static analysis & diagnostics over UnQL/Lorel queries,
//! regular path expressions, and graph-datalog programs.
//!
//! Four passes share the [`ssd_diag::Diagnostic`] vocabulary:
//!
//! * [`vars`] — name resolution over select-from-where queries
//!   (SSD001–SSD005): unbound/use-before-bind references, duplicate
//!   bindings, unused bindings, label-variable placement.
//! * [`typing`] — schema-aware path typing (SSD010): the product of each
//!   binding's RPE automaton with a [`Schema`] infers the schema-node and
//!   label sets the binding can produce, certifying emptiness.
//! * [`datalog`] — graph-datalog programs (SSD020–SSD026): the errors
//!   are [`ssd_triples::datalog::check_program`]'s, the same function the
//!   evaluator's [`admit`](ssd_triples::datalog::admit) refuses on, so
//!   analyzer and engine never disagree; the rest are lints.
//! * [`cost`] — `ssd-cost`, the static cost-and-cardinality estimator
//!   (SSD030–SSD033): interval bounds on result cardinality, guard fuel,
//!   and guard-accounted memory, which admission control compares with
//!   a budget. Opt-in — not part of [`analyze_query`].
//!
//! Entry points: [`analyze_query`] / [`analyze_query_src`] for the query
//! language, [`analyze_datalog_src`] for datalog; the CLI's `ssd check`
//! sits on top of these. The errors of [`vars`] are the only static check
//! of a select: [`crate::lang::parse_query`], the server's admission and
//! every select engine refuse on them.

pub mod cost;
pub mod datalog;
pub mod typing;
pub mod vars;

pub use cost::{analyze_datalog_cost, analyze_query_cost, CostAnalysis, CostContext};
pub use datalog::{check_datalog, EDB_PREDICATES};
pub use typing::{infer, reach, BindingType, PathTypes};
pub use vars::check_query_vars;

use crate::lang::{parse_query_spanned, QueryParseError, QuerySpans, SelectQuery};
use ssd_diag::{Diagnostic, DiagnosticSink};
use ssd_graph::SymbolTable;
use ssd_schema::Schema;
use ssd_triples::datalog::parse_program_spanned;

/// Everything one analysis run produced.
#[derive(Debug, Clone, Default)]
pub struct QueryAnalysis {
    /// All findings, sorted by source position.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-binding schema inference; `None` when no schema was supplied.
    pub types: Option<PathTypes>,
}

impl QueryAnalysis {
    /// Does any finding refuse evaluation?
    pub fn has_errors(&self) -> bool {
        self.diagnostics.has_errors()
    }
}

/// Analyze a parsed query: variable checks always, path typing when a
/// schema is available. `spans` attaches precise source locations;
/// programmatically built queries pass `None` and get span-less findings.
pub fn analyze_query(
    query: &SelectQuery,
    spans: Option<&QuerySpans>,
    schema: Option<&Schema>,
) -> QueryAnalysis {
    let mut diagnostics = check_query_vars(query, spans);
    let types = schema.map(|s| {
        let (types, mut more) = typing::infer(query, s, spans);
        diagnostics.append(&mut more);
        types
    });
    QueryAnalysis {
        diagnostics: diagnostics.sorted_by_span(),
        types,
    }
}

/// Parse and analyze query source text in one step.
pub fn analyze_query_src(
    src: &str,
    schema: Option<&Schema>,
) -> Result<(SelectQuery, QuerySpans, QueryAnalysis), QueryParseError> {
    let (query, spans) = parse_query_spanned(src)?;
    let analysis = analyze_query(&query, Some(&spans), schema);
    Ok((query, spans, analysis))
}

/// Parse and analyze datalog source text in one step. `result` overrides
/// the result-predicate convention (head of the last rule) for the
/// unreachable-rule lint.
pub fn analyze_datalog_src(
    src: &str,
    symbols: &SymbolTable,
    result: Option<&str>,
) -> Result<Vec<Diagnostic>, String> {
    let (program, spans) = parse_program_spanned(src, symbols)?;
    Ok(check_datalog(&program, Some(&spans), result).sorted_by_span())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_diag::Code;
    use ssd_graph::new_symbols;
    use ssd_schema::figure1_schema;

    #[test]
    fn analyze_query_src_combines_passes() {
        // `Bogus` is schema-impossible AND `X` is unused: one warning from
        // each pass, sorted by span.
        let (_, _, a) =
            analyze_query_src("select 1 from db.Bogus X", Some(&figure1_schema())).unwrap();
        let codes: Vec<_> = a.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::EmptyPath), "{:?}", a.diagnostics);
        assert!(codes.contains(&Code::UnusedBinding), "{:?}", a.diagnostics);
        assert!(!a.has_errors());
        assert!(a.types.is_some());
    }

    #[test]
    fn analyze_without_schema_skips_typing() {
        let (_, _, a) = analyze_query_src("select X from db.Entry X", None).unwrap();
        assert!(a.types.is_none());
        assert!(a.diagnostics.is_empty(), "{:?}", a.diagnostics);
    }

    #[test]
    fn analyze_datalog_src_reports_sorted() {
        let syms = new_symbols();
        let d = analyze_datalog_src(
            "q(X) :- nodes(X).\nr(Y) :- q(Y), not missing(Y).",
            &syms,
            None,
        )
        .unwrap();
        assert!(!d.is_empty());
        let starts: Vec<_> = d
            .iter()
            .map(|x| x.span.map_or(usize::MAX, |s| s.start))
            .collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
