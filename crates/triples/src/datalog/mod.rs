//! "Graph datalog" — recursive queries over the edge relation.
//!
//! §3: "Some forms of unbounded search will require recursive queries,
//! i.e., a 'graph datalog', and such languages are proposed in \[26, 16\] for
//! the web and for hypertext."
//!
//! * [`ast`] — rules, atoms, terms, plus a Prolog-ish text syntax.
//! * [`edb`] — how rule bodies read `edge(Src, Label, Dst)`, `node(N)`
//!   and `root(R)`: one access interface, answered in place by a
//!   snapshot's triple index, never a per-query copy.
//! * [`eval`] — the static checks every entry point refuses on
//!   ([`check_program`]), and stratified evaluation over encoded tuples,
//!   both naive and semi-naive (the semi-naive/naive gap is experiment
//!   E6).

pub mod ast;
pub mod edb;
pub mod eval;
mod rel;

pub use ast::{
    is_builtin, parse_program, parse_program_spanned, Atom, Literal, Program, ProgramSpans, Rule,
    RuleSpans, Term, EDB_PREDICATES,
};
pub use edb::{Edb, Key};
pub use eval::{
    access_paths, admit, check_program, evaluate, evaluate_naive, evaluate_traced, evaluate_with,
    DatalogError, Evaluation, FP_DATALOG_ROUND,
};
