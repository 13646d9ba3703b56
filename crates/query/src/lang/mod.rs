//! The surface query language — an UnQL/Lorel-flavoured
//! select-from-where with path patterns.
//!
//! §3 motivates the design: a bare SQL-ish `select Entry.Movie.Title`
//! "does not make clear how much of the two paths ... are to be taken as
//! the same. The solution is to introduce variables to indicate how paths
//! or edges are to be tied together." So bindings name their targets, and
//! later bindings may start from earlier variables:
//!
//! ```text
//! select {Title: T}
//! from   db.Entry.Movie M,
//!        M.Title T,
//!        M.(!Movie)*.^L X
//! where  L like "act%" and exists M.Director
//! ```
//!
//! * tree variables (`M`, `T`, `X`) bind nodes;
//! * label variables (`^L`) bind the label of the final edge of a path;
//! * paths are full regular path expressions (`%` wildcard, `!l` negated
//!   step, `(a|b)`, `*`, `+`, `?`, `[int]`-style type tests);
//! * the `where` clause has comparisons (overloaded existentially over the
//!   values at a node, the Lorel-style coercion §3 mentions), `like`
//!   prefix/suffix patterns, type predicates, `exists`, and boolean
//!   connectives.

pub mod ast;
pub mod eval;
pub mod parser;
pub mod rewrite;
pub mod spans;

pub use ast::{Binding, CmpOp, Cond, Construct, Expr, LabelExpr, SelectQuery, Source};
pub use eval::{evaluate_select, BindingProfile, EvalOptions, EvalStats};
pub use parser::{check_query, parse_query, parse_query_spanned, parse_rpe, QueryParseError};
pub use rewrite::parse_rewrite;
pub use spans::{BindingSpans, OccSite, QuerySpans, VarOcc};
