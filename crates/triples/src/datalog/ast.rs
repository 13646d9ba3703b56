//! Datalog abstract syntax and a Prolog-style concrete syntax.
//!
//! ```text
//! path(X, Y) :- edge(X, _L, Y).
//! path(X, Y) :- edge(X, _L, Z), path(Z, Y).
//! unreached(X) :- node(X), not reach(X).
//! ```
//!
//! Terms: variables start with an uppercase letter or `_`; bare lowercase
//! identifiers are *symbol* constants (edge labels); single-quoted
//! symbols (`'Title'`) are symbol constants regardless of case;
//! double-quoted strings and numbers are value constants; `&N` is a
//! node-id constant. The tokens are [`ssd_graph::lex`]'s in its
//! [`DATALOG`] syntax: `%` and `#` comments, the path-safe number rule,
//! and the literal syntax's escapes inside both kinds of quotes.

use crate::algebra::Datum;
use ssd_diag::Span;
use ssd_graph::lex::{Lexer, ParseError, DATALOG};
use ssd_graph::{Label, NodeId, SymbolTable, Value};
use std::fmt;

/// A term in an atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    Var(String),
    Const(Datum),
}

impl Term {
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_owned())
    }

    pub fn node(n: NodeId) -> Term {
        Term::Const(Datum::Node(n))
    }

    pub fn symbol(symbols: &SymbolTable, name: &str) -> Term {
        Term::Const(Datum::Label(Label::symbol(symbols, name)))
    }

    pub fn value(v: impl Into<Value>) -> Term {
        Term::Const(Datum::Label(Label::Value(v.into())))
    }

    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }
}

/// A predicate applied to terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    pub pred: String,
    pub terms: Vec<Term>,
}

impl Atom {
    pub fn new(pred: &str, terms: Vec<Term>) -> Atom {
        Atom {
            pred: pred.to_owned(),
            terms,
        }
    }

    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(|t| match t {
            Term::Var(v) => Some(v.as_str()),
            Term::Const(_) => None,
        })
    }
}

/// A possibly negated body atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Literal {
    pub atom: Atom,
    pub positive: bool,
}

impl Literal {
    pub fn pos(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: true,
        }
    }

    pub fn neg(atom: Atom) -> Literal {
        Literal {
            atom,
            positive: false,
        }
    }
}

/// `head :- body.`
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub head: Atom,
    pub body: Vec<Literal>,
}

/// Built-in comparison predicates: `lt/2, le/2, gt/2, ge/2, eq/2, neq/2`.
/// They filter bound values instead of matching stored facts, so (like
/// negated literals) every variable they mention must be bound by an
/// ordinary positive literal.
pub fn is_builtin(pred: &str) -> bool {
    matches!(pred, "lt" | "le" | "gt" | "ge" | "eq" | "neq")
}

/// The EDB relations with their arities: `edge(Src, Label, Dst)`,
/// `node(N)`, `root(R)`. They are read from the graph snapshot, never
/// copied, so a program may use them in bodies but not define them.
pub const EDB_PREDICATES: &[(&str, usize)] = &[("edge", 3), ("node", 1), ("root", 1)];

/// A datalog program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    pub rules: Vec<Rule>,
}

impl Program {
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules }
    }

    /// All predicates defined by rule heads (the IDB).
    pub fn idb_predicates(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.rules.iter().map(|r| r.head.pred.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Datum::Node(n)) => write!(f, "{n}"),
            Term::Const(Datum::Label(l)) => write!(f, "{l:?}"),
        }
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if !l.positive {
                write!(f, "not ")?;
            }
            write!(f, "{}", l.atom)?;
        }
        write!(f, ".")
    }
}

/// Byte spans of one rule's pieces in the program source, for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpans {
    /// The whole rule, head through the closing `.`.
    pub full: Span,
    /// The head atom.
    pub head: Span,
    /// One span per body literal's atom (excluding any `not`).
    pub body: Vec<Span>,
}

/// Side table of source spans recorded while parsing a program. Indexed
/// like [`Program::rules`]; the AST itself stays span-free so structural
/// equality and round-trip tests are unaffected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramSpans {
    pub rules: Vec<RuleSpans>,
}

impl ProgramSpans {
    /// Span of rule `i`'s head, if recorded.
    pub fn head(&self, i: usize) -> Option<Span> {
        self.rules.get(i).map(|r| r.head)
    }

    /// Span of body literal `j` of rule `i`, if recorded.
    pub fn body(&self, i: usize, j: usize) -> Option<Span> {
        self.rules.get(i).and_then(|r| r.body.get(j)).copied()
    }

    /// Span of the whole rule `i`, if recorded.
    pub fn rule(&self, i: usize) -> Option<Span> {
        self.rules.get(i).map(|r| r.full)
    }
}

/// Parse a datalog program in the Prolog-ish syntax described in the module
/// docs. `symbols` is used to intern symbol constants so they are
/// comparable with graph labels.
pub fn parse_program(src: &str, symbols: &SymbolTable) -> Result<Program, String> {
    parse_program_spanned(src, symbols).map(|(p, _)| p)
}

/// Like [`parse_program`], additionally returning the span side table the
/// static analyzer uses to point diagnostics at the offending source.
pub fn parse_program_spanned(
    src: &str,
    symbols: &SymbolTable,
) -> Result<(Program, ProgramSpans), String> {
    let mut rules = Vec::new();
    let mut spans = ProgramSpans::default();
    let mut p = P {
        lx: Lexer::new(src, DATALOG),
        symbols,
    };
    while !p.lx.at_end() {
        let (rule, rule_spans) = p.rule().map_err(|e| {
            // Quote by characters, not bytes: a byte index can split a
            // multi-byte character and panic.
            let near: String = src.get(e.at..).unwrap_or("").chars().take(20).collect();
            format!("{} at byte {} (near {near:?})", e.message, e.at)
        })?;
        rules.push(rule);
        spans.rules.push(rule_spans);
    }
    Ok((Program::new(rules), spans))
}

struct P<'a> {
    lx: Lexer<'a>,
    symbols: &'a SymbolTable,
}

impl P<'_> {
    fn rule(&mut self) -> Result<(Rule, RuleSpans), ParseError> {
        self.lx.skip_ws();
        let rule_start = self.lx.pos();
        let (head, head_span) = self.spanned_atom()?;
        let mut body = Vec::new();
        let mut body_spans = Vec::new();
        if self.lx.eat(":-") {
            loop {
                let positive = !self.lx.keyword("not");
                let (atom, span) = self.spanned_atom()?;
                body.push(Literal { atom, positive });
                body_spans.push(span);
                if !self.lx.eat(",") {
                    break;
                }
            }
        }
        self.lx.require(".")?;
        let spans = RuleSpans {
            full: Span::new(rule_start, self.lx.pos()),
            head: head_span,
            body: body_spans,
        };
        Ok((Rule { head, body }, spans))
    }

    fn spanned_atom(&mut self) -> Result<(Atom, Span), ParseError> {
        self.lx.skip_ws();
        let start = self.lx.pos();
        let atom = self.atom()?;
        Ok((atom, Span::new(start, self.lx.pos())))
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let start = self.lx.pos();
        let pred = match self.lx.ident() {
            Some(p) if p.starts_with(char::is_uppercase) => {
                return Err(ParseError {
                    at: start,
                    message: format!("predicate '{p}' must start lowercase"),
                })
            }
            Some(p) => p.to_owned(),
            None => return Err(self.lx.err("expected predicate name")),
        };
        self.lx.require("(")?;
        let mut terms = Vec::new();
        if !self.lx.eat(")") {
            loop {
                terms.push(self.term()?);
                if !self.lx.eat(",") {
                    self.lx.require(")")?;
                    break;
                }
            }
        }
        Ok(Atom { pred, terms })
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.lx.peek() {
            Some('&') => {
                self.lx.require("&")?;
                let at = self.lx.pos();
                match self.lx.path_number()? {
                    Value::Int(n) if (0..=i64::from(u32::MAX)).contains(&n) => {
                        Ok(Term::node(NodeId::from_index(n as usize)))
                    }
                    _ => Err(ParseError {
                        at,
                        message: "expected node id".into(),
                    }),
                }
            }
            Some('"') => Ok(Term::value(self.lx.quoted('"')?)),
            Some('\'') => {
                let name = self.lx.quoted('\'')?;
                Ok(Term::symbol(self.symbols, &name))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => Ok(Term::value(self.lx.path_number()?)),
            _ => match self.lx.ident() {
                Some(id) if id.starts_with(|c: char| c.is_uppercase() || c == '_') => {
                    Ok(Term::var(id))
                }
                Some("true") => Ok(Term::value(true)),
                Some("false") => Ok(Term::value(false)),
                Some(id) => Ok(Term::symbol(self.symbols, id)),
                None => Err(self.lx.err("expected term")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::check_program;
    use ssd_graph::new_symbols;

    fn codes(p: &Program) -> Vec<&'static str> {
        check_program(p, None)
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    #[test]
    fn parse_transitive_closure() {
        let syms = new_symbols();
        let p = parse_program(
            "path(X, Y) :- edge(X, _L, Y).\n\
             path(X, Y) :- edge(X, _L, Z), path(Z, Y).",
            &syms,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.idb_predicates(), vec!["path"]);
        assert_eq!(check_program(&p, None), vec![]);
    }

    #[test]
    fn parse_constants() {
        let syms = new_symbols();
        let p = parse_program(
            r#"q(X) :- edge(&0, title, X), edge(X, "Casablanca", _Y), edge(X, 42, _Z)."#,
            &syms,
        )
        .unwrap();
        let body = &p.rules[0].body;
        assert_eq!(body[0].atom.terms[0], Term::node(NodeId::from_index(0)));
        assert_eq!(body[0].atom.terms[1], Term::symbol(&syms, "title"));
        assert_eq!(body[1].atom.terms[1], Term::value("Casablanca"));
        assert_eq!(body[2].atom.terms[1], Term::value(42i64));
    }

    #[test]
    fn parse_negation() {
        let syms = new_symbols();
        let p = parse_program("dead(X) :- node(X), not reach(X).", &syms).unwrap();
        assert!(!p.rules[0].body[1].positive);
        assert_eq!(check_program(&p, None), vec![]);
    }

    #[test]
    fn parse_comments_and_facts() {
        let syms = new_symbols();
        let p = parse_program(
            "% a fact\nstart(&0).\n# another comment\nq(X) :- start(X).",
            &syms,
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert!(p.rules[0].body.is_empty());
    }

    #[test]
    fn unsafe_head_var_rejected() {
        let syms = new_symbols();
        let p = parse_program("q(X, Y) :- edge(X, _L, _Z).", &syms).unwrap();
        assert_eq!(codes(&p), vec!["SSD020"]);
    }

    #[test]
    fn unsafe_negated_var_rejected() {
        let syms = new_symbols();
        let p = parse_program("q(X) :- node(X), not edge(X, _L, Y).", &syms).unwrap();
        // Both `_L` and `Y` are unbound.
        assert_eq!(codes(&p), vec!["SSD020", "SSD020"]);
    }

    #[test]
    fn uppercase_predicate_rejected() {
        let syms = new_symbols();
        assert!(parse_program("Q(X) :- edge(X, _L, _Y).", &syms).is_err());
    }

    #[test]
    fn missing_dot_rejected() {
        let syms = new_symbols();
        assert!(parse_program("q(X) :- edge(X, _L, _Y)", &syms).is_err());
    }

    #[test]
    fn display_round_trip() {
        let syms = new_symbols();
        let src = "path(X, Y) :- edge(X, _L, Z), not bad(Z), path(Z, Y).";
        let p = parse_program(src, &syms).unwrap();
        let shown = p.rules[0].to_string();
        let p2 = parse_program(&shown, &syms).unwrap();
        assert_eq!(p.rules[0].head, p2.rules[0].head);
        assert_eq!(p.rules[0].body.len(), p2.rules[0].body.len());
    }

    #[test]
    fn true_false_are_bool_constants() {
        let syms = new_symbols();
        let p = parse_program("q(X) :- edge(X, true, _Y).", &syms).unwrap();
        assert_eq!(p.rules[0].body[0].atom.terms[1], Term::value(true));
    }

    /// The lexical conventions of datalog: inputs that read as the same
    /// program, each escape and its character, and errors with the byte
    /// they are reported at. Rows marked "fixed" read differently than
    /// before the shared lexer.
    #[test]
    fn lexical_table() {
        let syms = new_symbols();
        let parse = |src: &str| parse_program(src, &syms);
        for (src, plain) in [
            // `%` and `#` comments, anywhere whitespace goes.
            ("% c\n# c\nq(X) :- % c\n node(X). # c", "q(X) :- node(X)."),
            // The path rule: a `.` before a digit, no exponent.
            ("q(X) :- edge(X, -1.50, _Y).", "q(X):-edge(X,-1.5,_Y)."),
            // Quoted symbols are symbols whatever their case.
            (
                "q(T) :- edge(_E, 'title', T).",
                "q(T) :- edge(_E, title, T).",
            ),
            (
                "q(X) :- edge(&0, _é1, X), not p(X).",
                "q(X):-edge(& 0,_é1,X),not p(X).",
            ),
        ] {
            let p = parse(src);
            assert!(p.is_ok(), "{src}: {p:?}");
            assert_eq!(p, parse(plain), "{src}");
        }
        // A raw control character stands for itself.
        let p = parse("q(X) :- edge(X, \"\r\", _Y).").unwrap();
        assert_eq!(p.rules[0].body[0].atom.terms[1], Term::value("\r"));
        // Fixed: strings and quoted symbols take the literal's escapes.
        for (esc, want) in [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\n", "\n"),
            (r"\t", "\t"),
            (r"\r", "\r"),
            (r"\0", "\0"),
            (r"\'", "'"),
            (r"\u{1F600}", "\u{1F600}"),
        ] {
            let p = parse(&format!(
                r#"q(X) :- edge(X, "{esc}", _Y), edge(X, '{esc}', _Y)."#
            ))
            .unwrap();
            let body = &p.rules[0].body;
            assert_eq!(body[0].atom.terms[1], Term::value(want), "{esc}");
            assert_eq!(body[1].atom.terms[1], Term::symbol(&syms, want), "{esc}");
        }
        for (src, message) in [
            ("q(X) :- edge(X, _L, _Y)", "expected '.' at byte 23"),
            (
                "q(X) :- node(X). -- c",
                "expected predicate name at byte 17",
            ),
            ("q(X) :- edge(X, 1e5, _Y).", "expected ')' at byte 17"),
            ("Q(X) :- node(X).", "predicate 'Q' must start lowercase"),
            ("q(X) :- edge(X, \"a, _Y).", "unterminated string"),
            // Fixed: a node id out of range is an error, not a panic.
            ("q(X) :- edge(&-1, _L, X).", "expected node id at byte 14"),
            (
                "q(X) :- edge(&4294967296, _L, X).",
                "expected node id at byte 14",
            ),
            // Fixed: a bad escape is an error at its backslash.
            (
                r#"q(X) :- edge(X, "a\q", _Y)."#,
                "bad escape '\\q' at byte 18",
            ),
        ] {
            let e = parse(src).unwrap_err();
            assert!(e.contains(message), "{src}: {e}");
        }
    }

    #[test]
    fn spans_point_at_atoms() {
        let syms = new_symbols();
        let src = "p(X) :- node(X).\nq(Y) :- p(Y), not bad(Y).";
        let (prog, spans) = parse_program_spanned(src, &syms).unwrap();
        assert_eq!(prog.rules.len(), 2);
        assert_eq!(spans.rules.len(), 2);
        let head0 = spans.head(0).unwrap();
        assert_eq!(&src[head0.start..head0.end], "p(X)");
        let body00 = spans.body(0, 0).unwrap();
        assert_eq!(&src[body00.start..body00.end], "node(X)");
        // The negated literal's span excludes the `not` keyword.
        let body11 = spans.body(1, 1).unwrap();
        assert_eq!(&src[body11.start..body11.end], "bad(Y)");
        let full1 = spans.rule(1).unwrap();
        assert_eq!(&src[full1.start..full1.end], "q(Y) :- p(Y), not bad(Y).");
    }
}

#[cfg(test)]
mod quoted_symbol_tests {
    use super::*;
    use ssd_graph::new_symbols;

    #[test]
    fn quoted_symbols_are_constants_not_variables() {
        let syms = new_symbols();
        let p = parse_program("title(T) :- edge(_E, 'Title', T).", &syms).unwrap();
        assert_eq!(
            p.rules[0].body[0].atom.terms[1],
            Term::symbol(&syms, "Title")
        );
    }

    #[test]
    fn unterminated_symbol_quote_rejected() {
        let syms = new_symbols();
        assert!(parse_program("q(X) :- edge(X, 'Oops, _Y).", &syms).is_err());
    }
}
