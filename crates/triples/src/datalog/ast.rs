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
//! identifiers (`'Title'`) are symbol constants regardless of case;
//! double-quoted strings and numbers are value constants; `&N` is a
//! node-id constant.

use crate::algebra::Datum;
use ssd_diag::Span;
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
        src,
        pos: 0,
        symbols,
    };
    loop {
        p.skip_ws();
        if p.pos >= p.src.len() {
            break;
        }
        let (rule, rule_spans) = p.rule()?;
        rules.push(rule);
        spans.rules.push(rule_spans);
    }
    Ok((Program::new(rules), spans))
}

struct P<'a> {
    src: &'a str,
    pos: usize,
    symbols: &'a SymbolTable,
}

impl<'a> P<'a> {
    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
            if self.rest().starts_with('%') || self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), String> {
        if self.eat(tok) {
            Ok(())
        } else {
            // Truncate by characters, not bytes: a byte index can split a
            // multi-byte character and panic.
            let near: String = self.rest().chars().take(20).collect();
            Err(format!(
                "expected '{tok}' at byte {} (near {near:?})",
                self.pos
            ))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        for (i, c) in r.char_indices() {
            let ok = if i == 0 {
                c.is_alphabetic() || c == '_'
            } else {
                c.is_alphanumeric() || c == '_'
            };
            if ok {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            None
        } else {
            let s = r[..end].to_owned();
            self.pos += end;
            Some(s)
        }
    }

    fn rule(&mut self) -> Result<(Rule, RuleSpans), String> {
        self.skip_ws();
        let rule_start = self.pos;
        let (head, head_span) = self.spanned_atom()?;
        let mut body = Vec::new();
        let mut body_spans = Vec::new();
        if self.eat(":-") {
            loop {
                let positive = !self.eat_keyword("not");
                let (atom, span) = self.spanned_atom()?;
                body.push(Literal { atom, positive });
                body_spans.push(span);
                if !self.eat(",") {
                    break;
                }
            }
        }
        self.expect(".")?;
        let spans = RuleSpans {
            full: Span::new(rule_start, self.pos),
            head: head_span,
            body: body_spans,
        };
        Ok((Rule { head, body }, spans))
    }

    fn spanned_atom(&mut self) -> Result<(Atom, Span), String> {
        self.skip_ws();
        let start = self.pos;
        let atom = self.atom()?;
        Ok((atom, Span::new(start, self.pos)))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if let Some(after) = r.strip_prefix(kw) {
            if after
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_')
            {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn atom(&mut self) -> Result<Atom, String> {
        let pred = self
            .ident()
            .ok_or_else(|| format!("expected predicate name at byte {}", self.pos))?;
        if pred.chars().next().is_some_and(|c| c.is_uppercase()) {
            return Err(format!("predicate '{pred}' must start lowercase"));
        }
        self.expect("(")?;
        let mut terms = Vec::new();
        if !self.eat(")") {
            loop {
                terms.push(self.term()?);
                if self.eat(",") {
                    continue;
                }
                self.expect(")")?;
                break;
            }
        }
        Ok(Atom { pred, terms })
    }

    fn term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        let r = self.rest();
        let c = r
            .chars()
            .next()
            .ok_or_else(|| "unexpected end of input in term".to_owned())?;
        match c {
            '&' => {
                self.pos += 1;
                let num = self.number_raw()?;
                Ok(Term::node(NodeId::from_index(num as usize)))
            }
            '"' => {
                self.pos += 1;
                let r = self.rest();
                let end = r
                    .find('"')
                    .ok_or_else(|| "unterminated string".to_owned())?;
                let s = r[..end].to_owned();
                self.pos += end + 1;
                Ok(Term::value(s))
            }
            '\'' => {
                self.pos += 1;
                let r = self.rest();
                let end = r
                    .find('\'')
                    .ok_or_else(|| "unterminated symbol quote".to_owned())?;
                let name = r[..end].to_owned();
                self.pos += end + 1;
                Ok(Term::symbol(self.symbols, &name))
            }
            '0'..='9' | '-' => self.number_term(),
            _ => {
                let id = self
                    .ident()
                    .ok_or_else(|| format!("expected term at byte {}", self.pos))?;
                // ident() never returns an empty string; default keeps the
                // symbol branch if that ever changes.
                let first = id.chars().next().unwrap_or('a');
                if first.is_uppercase() || first == '_' {
                    Ok(Term::var(&id))
                } else if id == "true" {
                    Ok(Term::value(true))
                } else if id == "false" {
                    Ok(Term::value(false))
                } else {
                    Ok(Term::symbol(self.symbols, &id))
                }
            }
        }
    }

    /// A numeric term: integer or real.
    fn number_term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        let mut real = false;
        for (i, c) in r.char_indices() {
            match c {
                '0'..='9' => end = i + 1,
                '-' if i == 0 => end = i + 1,
                '.' if r[i + 1..]
                    .chars()
                    .next()
                    .is_some_and(|d| d.is_ascii_digit()) =>
                {
                    real = true;
                    end = i + 1;
                }
                _ => break,
            }
        }
        if end == 0 {
            return Err(format!("expected number at byte {}", self.pos));
        }
        let text = &r[..end];
        self.pos += end;
        if real {
            text.parse::<f64>()
                .map(Term::value)
                .map_err(|e| format!("bad real: {e}"))
        } else {
            text.parse::<i64>()
                .map(Term::value)
                .map_err(|e| format!("bad number: {e}"))
        }
    }

    fn number_raw(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        for (i, c) in r.char_indices() {
            if c.is_ascii_digit() || (i == 0 && c == '-') {
                end = i + c.len_utf8();
            } else {
                break;
            }
        }
        if end == 0 {
            return Err(format!("expected number at byte {}", self.pos));
        }
        let n = r[..end]
            .parse::<i64>()
            .map_err(|e| format!("bad number: {e}"))?;
        self.pos += end;
        Ok(n)
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
