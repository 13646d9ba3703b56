//! Query abstract syntax.

use crate::rpe::Rpe;
use ssd_graph::{LabelKind, Value};
use std::collections::HashSet;
use std::fmt;

/// A select-from-where query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub construct: Construct,
    pub bindings: Vec<Binding>,
    pub condition: Option<Cond>,
}

/// One `from` binding: `source.path Var`.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    pub source: Source,
    pub path: Rpe,
    /// The tree variable bound to each path target.
    pub var: String,
}

/// Where a binding's path starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// The database root.
    Db,
    /// A previously bound tree variable.
    Var(String),
}

/// The select clause: a tree constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum Construct {
    /// `{l1: e1, ..., ln: en}`
    Node(Vec<(LabelExpr, Construct)>),
    /// A variable: a bound tree (copied) or a bound label (as an atom).
    Var(String),
    /// A constant atom.
    Atom(Value),
}

/// A label position in a constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum LabelExpr {
    Symbol(String),
    Value(Value),
    /// `^L` — a bound label variable used as the edge label.
    LabelVar(String),
}

/// Conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    Cmp(Expr, CmpOp, Expr),
    /// `expr like "pat"` with `%` wildcards at either end.
    Like(Expr, String),
    /// Type predicate: `isint(X)`, `isstring(L)`, ...
    TypeIs(Expr, LabelKind),
    /// `exists Var.path`
    Exists(String, Rpe),
    Not(Box<Cond>),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
}

/// Scalar expressions in conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A tree or label variable.
    Var(String),
    Const(Value),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        })
    }
}

impl Cond {
    /// The variables a condition reads — used by the optimizer to decide
    /// how early a condition can be evaluated (selection pushdown, §4).
    pub fn vars(&self) -> HashSet<&str> {
        let mut out = HashSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars<'a>(&'a self, out: &mut HashSet<&'a str>) {
        let expr = |e: &'a Expr, out: &mut HashSet<&'a str>| {
            if let Expr::Var(v) = e {
                out.insert(v.as_str());
            }
        };
        match self {
            Cond::Cmp(a, _, b) => {
                expr(a, out);
                expr(b, out);
            }
            Cond::Like(e, _) | Cond::TypeIs(e, _) => expr(e, out),
            Cond::Exists(v, _) => {
                out.insert(v.as_str());
            }
            Cond::Not(c) => c.collect_vars(out),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Cond> {
        match self {
            Cond::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::check_query_vars;
    use crate::rpe::{Rpe, Step};
    use ssd_diag::DiagnosticSink;

    /// Does the select language's static check refuse `q`? Hand-built
    /// ASTs carry no spans, like an `RPE` job's query or an engine's.
    fn refused(q: &SelectQuery) -> bool {
        check_query_vars(q, None).has_errors()
    }

    fn simple_query() -> SelectQuery {
        SelectQuery {
            construct: Construct::Var("T".into()),
            bindings: vec![
                Binding {
                    source: Source::Db,
                    path: Rpe::symbol("Movie"),
                    var: "M".into(),
                },
                Binding {
                    source: Source::Var("M".into()),
                    path: Rpe::symbol("Title"),
                    var: "T".into(),
                },
            ],
            condition: None,
        }
    }

    #[test]
    fn valid_query_passes() {
        let q = simple_query();
        assert_eq!(check_query_vars(&q, None), vec![]);
    }

    #[test]
    fn forward_reference_rejected() {
        let mut q = simple_query();
        q.bindings.swap(0, 1);
        assert!(refused(&q));
    }

    #[test]
    fn duplicate_variable_rejected() {
        let mut q = simple_query();
        q.bindings[1].var = "M".into();
        assert!(refused(&q));
    }

    #[test]
    fn unbound_construct_var_rejected() {
        let mut q = simple_query();
        q.construct = Construct::Var("Z".into());
        assert!(refused(&q));
    }

    #[test]
    fn unbound_condition_var_rejected() {
        let mut q = simple_query();
        q.condition = Some(Cond::Cmp(
            Expr::Var("Z".into()),
            CmpOp::Eq,
            Expr::Const(Value::Int(1)),
        ));
        assert!(refused(&q));
    }

    #[test]
    fn label_var_binds_and_is_usable() {
        let mut q = simple_query();
        q.bindings.push(Binding {
            source: Source::Var("M".into()),
            path: Rpe::step(Step::label_var("L")),
            var: "X".into(),
        });
        q.condition = Some(Cond::Like(Expr::Var("L".into()), "act%".into()));
        assert!(!refused(&q));
    }

    #[test]
    fn misplaced_label_var_rejected() {
        let mut q = simple_query();
        q.bindings.push(Binding {
            source: Source::Var("M".into()),
            path: Rpe::step(Step::label_var("L")).star(),
            var: "X".into(),
        });
        assert!(refused(&q));
    }

    #[test]
    fn cond_vars_and_conjuncts() {
        let c = Cond::And(
            Box::new(Cond::Cmp(
                Expr::Var("A".into()),
                CmpOp::Lt,
                Expr::Var("B".into()),
            )),
            Box::new(Cond::And(
                Box::new(Cond::TypeIs(Expr::Var("C".into()), LabelKind::Int)),
                Box::new(Cond::Exists("D".into(), Rpe::symbol("x"))),
            )),
        );
        let vars = c.vars();
        assert_eq!(vars.len(), 4);
        assert_eq!(c.conjuncts().len(), 3);
    }

    #[test]
    fn exists_with_label_var_rejected() {
        let mut q = simple_query();
        q.condition = Some(Cond::Exists("M".into(), Rpe::step(Step::label_var("L"))));
        assert!(refused(&q));
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing: `Display` emits the concrete syntax, so `parse ∘ print`
// is the identity on ASTs (tested here and in the property suite).

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select {} from ", self.construct)?;
        for (i, b) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        if let Some(c) = &self.condition {
            write!(f, " where {c}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.source {
            Source::Db => write!(f, "db")?,
            Source::Var(v) => write!(f, "{v}")?,
        }
        write!(f, ".{} {}", self.path, self.var)
    }
}

impl fmt::Display for Construct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Construct::Node(entries) => {
                write!(f, "{{")?;
                for (i, (l, c)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{l}: {c}")?;
                }
                write!(f, "}}")
            }
            Construct::Var(v) => write!(f, "{v}"),
            Construct::Atom(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for LabelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelExpr::Symbol(s) => write!(f, "{s}"),
            LabelExpr::Value(v) => write!(f, "{v}"),
            LabelExpr::LabelVar(v) => write!(f, "^{v}"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Cmp(a, op, b) => write!(f, "{a} {op} {b}"),
            Cond::Like(e, pat) => write!(f, "{e} like {pat:?}"),
            Cond::TypeIs(e, kind) => {
                let name = match kind {
                    LabelKind::Int => "isint",
                    LabelKind::Real => "isreal",
                    LabelKind::Str => "isstring",
                    LabelKind::Bool => "isbool",
                    LabelKind::Symbol => "issymbol",
                };
                write!(f, "{name}({e})")
            }
            Cond::Exists(v, path) => write!(f, "exists {v}.{path}"),
            Cond::Not(c) => write!(f, "not ({c})"),
            Cond::And(a, b) => write!(f, "({a} and {b})"),
            Cond::Or(a, b) => write!(f, "({a} or {b})"),
        }
    }
}

#[cfg(test)]
mod display_tests {
    use crate::lang::parser::parse_query;

    /// print ∘ parse ∘ print = print (stability), and reparsing the
    /// printed form gives back an equal AST.
    fn round_trip(src: &str) {
        let q1 = parse_query(src).unwrap();
        let shown = q1.to_string();
        let q2 = parse_query(&shown).unwrap_or_else(|e| panic!("reparse of {shown:?} failed: {e}"));
        assert_eq!(q1, q2, "AST changed through printing: {shown}");
        assert_eq!(shown, q2.to_string());
    }

    #[test]
    fn simple_queries_round_trip() {
        round_trip("select T from db.Entry.Movie.Title T");
        round_trip("select {t: T} from db.Entry.Movie M, M.Title T");
        round_trip("select X from db.%*.Cast.(Actors | Credit.Actors) X");
        round_trip(r#"select {^L: X} from db.Movie.^L X where L like "act%""#);
        round_trip(
            r#"select M from db.Movie M, M.Year Y
               where (Y >= 1940 and Y <= 1950) or not isint(Y) and exists M.Cast.Actors"#,
        );
        round_trip(r#"select X from db.Year.1942 X where X != "x""#);
        round_trip("select X from db.a?.b+.c* X");
        round_trip("select X from db.(!Movie)*.[int] X");
        round_trip(r#"select {n: 5, s: "str", b: true} from db.a X"#);
    }
}
