//! RPE syntax trees.
//!
//! A step matches one edge by a predicate on its label; an RPE is a regular
//! expression over steps. Step predicates reuse [`ssd_schema::Pred`] so the
//! same machinery drives schema-based pruning (\[20\], §5).

use ssd_graph::{Label, SymbolTable, Value};
use ssd_schema::Pred;
use std::fmt;

/// One step of a path: a predicate an edge label must satisfy.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub pred: Pred,
    /// If set, matching this step binds the edge label to the named label
    /// variable. Only legal as the final step of a binding path (SSD005,
    /// checked by `analyze::vars`).
    pub label_var: Option<String>,
}

impl Step {
    pub fn symbol(name: &str) -> Step {
        Step {
            pred: Pred::Symbol(name.to_owned()),
            label_var: None,
        }
    }

    pub fn value(v: impl Into<Value>) -> Step {
        Step {
            pred: Pred::ValueEq(v.into()),
            label_var: None,
        }
    }

    pub fn wildcard() -> Step {
        Step {
            pred: Pred::Any,
            label_var: None,
        }
    }

    pub fn not_symbol(name: &str) -> Step {
        Step {
            pred: Pred::Not(Box::new(Pred::Symbol(name.to_owned()))),
            label_var: None,
        }
    }

    pub fn pred(pred: Pred) -> Step {
        Step {
            pred,
            label_var: None,
        }
    }

    pub fn label_var(name: &str) -> Step {
        Step {
            pred: Pred::Any,
            label_var: Some(name.to_owned()),
        }
    }

    pub fn matches(&self, label: &Label, symbols: &SymbolTable) -> bool {
        self.pred.matches(label, symbols)
    }
}

/// A regular path expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Rpe {
    /// The empty path (matches without consuming an edge).
    Epsilon,
    /// A single edge.
    Step(Step),
    /// Concatenation.
    Seq(Box<Rpe>, Box<Rpe>),
    /// Alternation.
    Alt(Box<Rpe>, Box<Rpe>),
    /// Kleene star.
    Star(Box<Rpe>),
    /// One-or-more.
    Plus(Box<Rpe>),
    /// Zero-or-one.
    Opt(Box<Rpe>),
}

impl Rpe {
    pub fn step(s: Step) -> Rpe {
        Rpe::Step(s)
    }

    pub fn symbol(name: &str) -> Rpe {
        Rpe::Step(Step::symbol(name))
    }

    /// `a.b` — sequence of path components.
    pub fn seq(parts: Vec<Rpe>) -> Rpe {
        parts
            .into_iter()
            .reduce(|a, b| Rpe::Seq(Box::new(a), Box::new(b)))
            .unwrap_or(Rpe::Epsilon)
    }

    /// `a | b | ...`
    pub fn alt(parts: Vec<Rpe>) -> Rpe {
        parts
            .into_iter()
            .reduce(|a, b| Rpe::Alt(Box::new(a), Box::new(b)))
            .unwrap_or(Rpe::Epsilon)
    }

    pub fn star(self) -> Rpe {
        Rpe::Star(Box::new(self))
    }

    pub fn plus(self) -> Rpe {
        Rpe::Plus(Box::new(self))
    }

    pub fn opt(self) -> Rpe {
        Rpe::Opt(Box::new(self))
    }

    /// Can this RPE match the empty path?
    pub fn nullable(&self) -> bool {
        match self {
            Rpe::Epsilon => true,
            Rpe::Step(_) => false,
            Rpe::Seq(a, b) => a.nullable() && b.nullable(),
            Rpe::Alt(a, b) => a.nullable() || b.nullable(),
            Rpe::Star(_) | Rpe::Opt(_) => true,
            Rpe::Plus(a) => a.nullable(),
        }
    }

    /// All label variables bound by this RPE, with a flag for whether each
    /// occurs in final position only (the supported placement).
    pub fn label_vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_label_vars(&mut out);
        out
    }

    fn collect_label_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Rpe::Epsilon => {}
            Rpe::Step(s) => {
                if let Some(v) = &s.label_var {
                    out.push(v);
                }
            }
            Rpe::Seq(a, b) | Rpe::Alt(a, b) => {
                a.collect_label_vars(out);
                b.collect_label_vars(out);
            }
            Rpe::Star(a) | Rpe::Plus(a) | Rpe::Opt(a) => a.collect_label_vars(out),
        }
    }

    /// Validate the label-variable placement rule: a label variable may
    /// only occur as the final step of the expression, outside any
    /// repetition or alternation.
    pub fn check_label_vars(&self) -> Result<(), String> {
        match self {
            Rpe::Epsilon => Ok(()),
            Rpe::Step(_) => Ok(()),
            Rpe::Seq(a, b) => {
                if a.label_vars().is_empty() {
                    b.check_label_vars()
                } else {
                    Err("label variable must be the final step of a path".to_owned())
                }
            }
            Rpe::Alt(a, b) => {
                if a.label_vars().is_empty() && b.label_vars().is_empty() {
                    Ok(())
                } else {
                    Err("label variable not allowed inside alternation".to_owned())
                }
            }
            Rpe::Star(a) | Rpe::Plus(a) | Rpe::Opt(a) => {
                if a.label_vars().is_empty() {
                    Ok(())
                } else {
                    Err("label variable not allowed inside repetition".to_owned())
                }
            }
        }
    }

    /// Split off a trailing label-variable step, returning the prefix RPE
    /// and the step. `None` if the RPE does not end with one.
    pub fn split_trailing_label_var(&self) -> Option<(Rpe, Step)> {
        match self {
            Rpe::Step(s) if s.label_var.is_some() => Some((Rpe::Epsilon, s.clone())),
            Rpe::Seq(a, b) => {
                let (prefix, step) = b.split_trailing_label_var()?;
                Some((
                    match prefix {
                        Rpe::Epsilon => (**a).clone(),
                        p => Rpe::Seq(a.clone(), Box::new(p)),
                    },
                    step,
                ))
            }
            _ => None,
        }
    }

    /// Algebraic simplification (used by the optimizer):
    /// `(e*)* → e*`, `ε.e → e`, `e.ε → e`, `e|e → e`, `(e?)? → e?`,
    /// `(e+)+ → e+`, `(e*)? → e*`, `(e?)* → e*`.
    pub fn simplify(&self) -> Rpe {
        match self {
            Rpe::Epsilon | Rpe::Step(_) => self.clone(),
            Rpe::Seq(a, b) => {
                let a = a.simplify();
                let b = b.simplify();
                match (a, b) {
                    (Rpe::Epsilon, b) => b,
                    (a, Rpe::Epsilon) => a,
                    (a, b) => Rpe::Seq(Box::new(a), Box::new(b)),
                }
            }
            Rpe::Alt(a, b) => {
                let a = a.simplify();
                let b = b.simplify();
                if a == b {
                    a
                } else {
                    Rpe::Alt(Box::new(a), Box::new(b))
                }
            }
            Rpe::Star(a) => match a.simplify() {
                Rpe::Star(inner) => Rpe::Star(inner),
                Rpe::Plus(inner) | Rpe::Opt(inner) => Rpe::Star(inner),
                Rpe::Epsilon => Rpe::Epsilon,
                s => Rpe::Star(Box::new(s)),
            },
            Rpe::Plus(a) => match a.simplify() {
                Rpe::Plus(inner) => Rpe::Plus(inner),
                Rpe::Star(inner) => Rpe::Star(inner),
                Rpe::Epsilon => Rpe::Epsilon,
                s => Rpe::Plus(Box::new(s)),
            },
            Rpe::Opt(a) => match a.simplify() {
                Rpe::Opt(inner) => Rpe::Opt(inner),
                Rpe::Star(inner) => Rpe::Star(inner),
                Rpe::Epsilon => Rpe::Epsilon,
                s => Rpe::Opt(Box::new(s)),
            },
        }
    }
}

impl fmt::Display for Rpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rpe::Epsilon => write!(f, "()"),
            Rpe::Step(s) => {
                if let Some(v) = &s.label_var {
                    write!(f, "^{v}")
                } else {
                    write!(f, "{}", s.pred)
                }
            }
            Rpe::Seq(a, b) => write!(f, "{a}.{b}"),
            Rpe::Alt(a, b) => write!(f, "({a}|{b})"),
            Rpe::Star(a) => write!(f, "({a})*"),
            Rpe::Plus(a) => write!(f, "({a})+"),
            Rpe::Opt(a) => write!(f, "({a})?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_nullability() {
        assert!(Rpe::Epsilon.nullable());
        assert!(!Rpe::symbol("a").nullable());
        assert!(Rpe::symbol("a").star().nullable());
        assert!(!Rpe::symbol("a").plus().nullable());
        assert!(Rpe::symbol("a").opt().nullable());
        assert!(!Rpe::seq(vec![Rpe::symbol("a"), Rpe::symbol("b")]).nullable());
        assert!(Rpe::alt(vec![Rpe::symbol("a"), Rpe::Epsilon]).nullable());
        assert_eq!(Rpe::seq(vec![]), Rpe::Epsilon);
    }

    #[test]
    fn simplify_collapses_redundancy() {
        let a = Rpe::symbol("a");
        assert_eq!(a.clone().star().star().simplify(), a.clone().star());
        assert_eq!(a.clone().plus().star().simplify(), a.clone().star());
        assert_eq!(a.clone().opt().star().simplify(), a.clone().star());
        assert_eq!(a.clone().plus().plus().simplify(), a.clone().plus());
        assert_eq!(
            Rpe::seq(vec![Rpe::Epsilon, a.clone()]).simplify(),
            a.clone()
        );
        assert_eq!(Rpe::alt(vec![a.clone(), a.clone()]).simplify(), a.clone());
        assert_eq!(Rpe::Epsilon.star().simplify(), Rpe::Epsilon);
    }

    #[test]
    fn simplify_preserves_structure_otherwise() {
        let e = Rpe::seq(vec![
            Rpe::symbol("a"),
            Rpe::alt(vec![Rpe::symbol("b"), Rpe::symbol("c")]).star(),
        ]);
        assert_eq!(e.simplify(), e);
    }

    #[test]
    fn label_var_placement_rules() {
        let ok = Rpe::seq(vec![Rpe::symbol("a"), Rpe::step(Step::label_var("L"))]);
        assert!(ok.check_label_vars().is_ok());
        let bad_mid = Rpe::seq(vec![Rpe::step(Step::label_var("L")), Rpe::symbol("a")]);
        assert!(bad_mid.check_label_vars().is_err());
        let bad_star = Rpe::step(Step::label_var("L")).star();
        assert!(bad_star.check_label_vars().is_err());
        let bad_alt = Rpe::alt(vec![Rpe::step(Step::label_var("L")), Rpe::symbol("a")]);
        assert!(bad_alt.check_label_vars().is_err());
    }

    #[test]
    fn split_trailing_label_var() {
        let e = Rpe::seq(vec![
            Rpe::symbol("a"),
            Rpe::symbol("b"),
            Rpe::step(Step::label_var("L")),
        ]);
        let (prefix, step) = e.split_trailing_label_var().unwrap();
        assert_eq!(prefix, Rpe::seq(vec![Rpe::symbol("a"), Rpe::symbol("b")]));
        assert_eq!(step.label_var.as_deref(), Some("L"));
        assert!(Rpe::symbol("a").split_trailing_label_var().is_none());
    }

    #[test]
    fn split_single_label_var() {
        let e = Rpe::step(Step::label_var("L"));
        let (prefix, step) = e.split_trailing_label_var().unwrap();
        assert_eq!(prefix, Rpe::Epsilon);
        assert_eq!(step.label_var.as_deref(), Some("L"));
    }

    #[test]
    fn display_round_readable() {
        let e = Rpe::seq(vec![
            Rpe::symbol("Entry"),
            Rpe::step(Step::not_symbol("Movie")).star(),
        ]);
        let shown = e.to_string();
        assert!(shown.contains("Entry"));
        assert!(shown.contains("!(Movie)"));
    }
}
