//! # ssd-query — querying and transforming semistructured data (§3, §4)
//!
//! The query-language layer of the PODS '97 reproduction:
//!
//! * [`rpe`] — regular path expressions: AST, Thompson NFA, subset DFA,
//!   and product-reachability evaluation over data graphs.
//! * [`lang`] — the UnQL/Lorel-flavoured select-from-where surface
//!   language: parser, evaluator with optimizer knobs.
//! * [`recursion`] — structural recursion (UnQL's computational core):
//!   the horizontal `ext` and vertical `gext` operators, evaluated with
//!   the ε-edge graph-transformation technique of \[10\] so they are total
//!   on cyclic data.
//! * [`restructure`] — deep restructuring built on `gext`: relabel,
//!   delete, collapse, short-circuit.
//! * [`browse`] — the §1.3 browsing queries, scan-based and index-based.
//! * [`optimizer`] — query rewrites and the DataGuide/schema pruning hook.
//! * [`decompose`] — parallel query decomposition over graph "sites"
//!   (\[35\]).
//! * [`relational_fragment`] — the SPJRU fragment compiled onto the graph
//!   engine, cross-checked against a native relational evaluator (the
//!   "UnQL restricted to relational data = relational algebra" claim).
//! * [`views`] — named queries materialised in definition order, with
//!   view-of-view composition (\[4\]).
//! * [`analyze`] — the `ssd-analyze` static-analysis pass: rustc-style
//!   diagnostics (SSD0xx codes with source spans) over queries, RPEs, and
//!   graph-datalog programs; backs `ssd check` and gates evaluation.

pub mod analyze;
pub mod batch;
pub mod browse;
pub mod decompose;
pub mod lang;
pub mod optimizer;
pub mod recursion;
pub mod relational_fragment;
pub mod restructure;
pub mod rpe;
pub mod views;

pub use analyze::{analyze_query, analyze_query_src, PathTypes, QueryAnalysis};
pub use batch::{evaluate_batched, plan_access, AccessPlan, BindingPlan, StepStrategy};
pub use lang::{
    evaluate_select, parse_query, parse_query_spanned, BindingProfile, EvalOptions, EvalStats,
    SelectQuery,
};
pub use rpe::{eval_rpe, Nfa, Rpe, Step};
