//! Parser for the surface language.
//!
//! ```text
//! query     := "select" construct "from" binding ("," binding)* ("where" cond)?
//! binding   := source "." path WS var
//!            | source WS var                      -- bind the source itself? no: path required
//! source    := "db" | VAR
//! path      := seq
//! seq       := postfix ("." postfix)*
//! postfix   := primary ("*" | "+" | "?")*
//! primary   := IDENT | STRING | INT | "%" | "^" IDENT
//!            | "!" primary | "[" kind "]" | "(" alt ")"
//! alt       := seq ("|" seq)*
//! construct := "{" (labelexpr ":" construct) ("," ...)* "}" | VAR | literal
//! labelexpr := IDENT | STRING | INT | "^" IDENT
//! cond      := or ; or := and ("or" and)* ; and := unary ("and" unary)*
//! unary     := "not" unary | "(" cond ")" | atom-cond
//! atom-cond := expr op expr | expr "like" STRING
//!            | ("isint"|"isreal"|"isstring"|"isbool"|"issymbol") "(" VAR ")"
//!            | "exists" VAR "." path
//! ```
//!
//! Identifiers are case-sensitive; `db`, keywords are reserved. Variables
//! and symbols share the identifier syntax — occurrence position
//! disambiguates, exactly as in Lorel. The tokens are [`ssd_graph::lex`]'s
//! in its [`QUERY`] syntax: `--` comments and the path-safe number rule.

use super::ast::{Binding, CmpOp, Cond, Construct, Expr, LabelExpr, SelectQuery, Source};
use super::spans::{BindingSpans, OccSite, QuerySpans, VarOcc};
use crate::analyze::check_query_vars;
use crate::rpe::{Rpe, Step};
use ssd_diag::{Diagnostic, DiagnosticSink, Span};
use ssd_graph::lex::{Lexer, ParseError, QUERY};
use ssd_graph::{LabelKind, Value};
use ssd_schema::Pred;

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for QueryParseError {}

impl From<ParseError> for QueryParseError {
    fn from(e: ParseError) -> Self {
        QueryParseError {
            at: e.at,
            message: e.message,
        }
    }
}

const KEYWORDS: &[&str] = &[
    "select", "from", "where", "and", "or", "not", "like", "exists", "db", "true", "false",
    "isint", "isreal", "isstring", "isbool", "issymbol",
];

/// Parse a select-from-where query and [`check_query`] it.
pub fn parse_query(src: &str) -> Result<SelectQuery, QueryParseError> {
    let (q, spans) = parse_query_spanned(src)?;
    check_query(&q, Some(&spans))?;
    Ok(q)
}

/// The select language's static check, as every entry point applies it:
/// the first error (in source order) of [`check_query_vars`], as a
/// [`QueryParseError`] at that error's span (byte 0 without `spans`).
pub fn check_query(q: &SelectQuery, spans: Option<&QuerySpans>) -> Result<(), QueryParseError> {
    match check_query_vars(q, spans)
        .sorted_by_span()
        .into_iter()
        .find(Diagnostic::is_error)
    {
        Some(d) => Err(QueryParseError {
            at: d.span.map_or(0, |s| s.start),
            message: d.headline(),
        }),
        None => Ok(()),
    }
}

/// Parse without checking, additionally returning the span side table.
/// This is the static analyzer's entry point: it wants the raw AST even
/// when name resolution would fail, so it can report *all* problems with
/// precise source locations instead of the first one.
pub fn parse_query_spanned(src: &str) -> Result<(SelectQuery, QuerySpans), QueryParseError> {
    let mut p = P::new(src);
    let q = p.query()?;
    if !p.lx.at_end() {
        return p.err("trailing input after query");
    }
    Ok((q, p.spans))
}

/// Parse one regular path expression — the `path` production a binding
/// uses — as the whole of `src` (the wire's `RPE` verb).
pub fn parse_rpe(src: &str) -> Result<Rpe, QueryParseError> {
    let mut p = P::new(src);
    let path = p.path_seq()?;
    if !p.lx.at_end() {
        return p.err("trailing input after path expression");
    }
    Ok(path)
}

struct P<'a> {
    lx: Lexer<'a>,
    spans: QuerySpans,
    /// Label variables seen while parsing the current path, drained into
    /// the enclosing binding's (or exists condition's) span record.
    pending_label_vars: Vec<(String, Span)>,
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> P<'a> {
        P {
            lx: Lexer::new(src, QUERY),
            spans: QuerySpans::default(),
            pending_label_vars: Vec::new(),
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, QueryParseError> {
        Err(self.lx.err(message).into())
    }

    /// An identifier, with its span.
    fn spanned_ident(&mut self) -> Option<(String, Span)> {
        let id = self.lx.ident()?;
        Some((
            id.to_owned(),
            Span::new(self.lx.last_end() - id.len(), self.lx.last_end()),
        ))
    }

    fn query(&mut self) -> Result<SelectQuery, QueryParseError> {
        self.lx.require_keyword("select")?;
        self.lx.skip_ws();
        let cstart = self.lx.pos();
        let construct = self.construct()?;
        self.spans.construct = Some(Span::new(cstart, self.lx.last_end()));
        self.lx.require_keyword("from")?;
        let mut bindings = vec![self.binding()?];
        while self.lx.eat(",") {
            bindings.push(self.binding()?);
        }
        let condition = if self.lx.keyword("where") {
            self.lx.skip_ws();
            let wstart = self.lx.pos();
            let c = self.cond()?;
            self.spans.condition = Some(Span::new(wstart, self.lx.last_end()));
            Some(c)
        } else {
            None
        };
        Ok(SelectQuery {
            construct,
            bindings,
            condition,
        })
    }

    fn binding(&mut self) -> Result<Binding, QueryParseError> {
        self.lx.skip_ws();
        let bstart = self.lx.pos();
        let Some((src_ident, source_span)) = self.spanned_ident() else {
            return self.err("expected binding source (db or a variable)");
        };
        let source = if src_ident == "db" {
            Source::Db
        } else {
            Source::Var(src_ident)
        };
        self.lx.require(".")?;
        self.lx.skip_ws();
        let pstart = self.lx.pos();
        self.pending_label_vars.clear();
        let path = self.path_seq()?;
        let path_span = Span::new(pstart, self.lx.last_end());
        let label_vars = std::mem::take(&mut self.pending_label_vars);
        let (var, var_span) = match self.spanned_ident() {
            Some((id, span)) if !KEYWORDS.contains(&id.as_str()) => (id, span),
            Some((kw, _)) => {
                return self.err(format!("expected variable name, found keyword '{kw}'"))
            }
            None => return self.err("expected variable name after path"),
        };
        self.spans.bindings.push(BindingSpans {
            full: Span::new(bstart, self.lx.last_end()),
            source: source_span,
            path: path_span,
            var: var_span,
            label_vars,
        });
        Ok(Binding { source, path, var })
    }

    /// A `.`-separated sequence of postfixed primaries. Steps and the
    /// bound variable are both identifiers, so the sequence ends at the
    /// first identifier not preceded by `.`: the caller's variable.
    fn path_seq(&mut self) -> Result<Rpe, QueryParseError> {
        let mut parts = vec![self.postfix()?];
        while self.lx.eat(".") {
            parts.push(self.postfix()?);
        }
        Ok(Rpe::seq(parts))
    }

    fn postfix(&mut self) -> Result<Rpe, QueryParseError> {
        let mut e = self.primary()?;
        loop {
            e = if self.lx.eat("*") {
                e.star()
            } else if self.lx.eat("+") {
                e.plus()
            } else if self.lx.eat("?") {
                e.opt()
            } else {
                return Ok(e);
            };
        }
    }

    fn primary(&mut self) -> Result<Rpe, QueryParseError> {
        self.lx.enter()?;
        let out = self.primary_inner();
        self.lx.leave();
        out
    }

    fn primary_inner(&mut self) -> Result<Rpe, QueryParseError> {
        // Symbol steps first: they are the common case.
        if let Some(id) = self.lx.ident() {
            if KEYWORDS.contains(&id) {
                return self.err(format!("keyword '{id}' cannot be a path step"));
            }
            return Ok(Rpe::symbol(id));
        }
        if let Some(v) = value(&mut self.lx)? {
            return Ok(Rpe::step(Step::value(v)));
        }
        if self.lx.eat("%") {
            return Ok(Rpe::step(Step::wildcard()));
        }
        if self.lx.eat("^") {
            let Some((name, span)) = self.spanned_ident() else {
                return self.err("expected label variable name after '^'");
            };
            self.pending_label_vars.push((name.clone(), span));
            return Ok(Rpe::step(Step::label_var(&name)));
        }
        if self.lx.eat("!") {
            return match self.primary()? {
                Rpe::Step(s) if s.label_var.is_none() => Ok(Rpe::step(Step {
                    pred: Pred::Not(Box::new(s.pred)),
                    label_var: None,
                })),
                _ => self.err("'!' applies to a single step"),
            };
        }
        if self.lx.eat("[") {
            let Some(kind) = self.lx.ident().and_then(kind_named) else {
                return self.err("expected type name in [...] step");
            };
            self.lx.require("]")?;
            return Ok(Rpe::step(Step::pred(Pred::Kind(kind))));
        }
        if self.lx.eat("(") {
            let mut alts = vec![self.path_seq()?];
            while self.lx.eat("|") {
                alts.push(self.path_seq()?);
            }
            self.lx.require(")")?;
            return Ok(Rpe::alt(alts));
        }
        self.err("expected path step")
    }

    fn construct(&mut self) -> Result<Construct, QueryParseError> {
        self.lx.enter()?;
        let out = self.construct_inner();
        self.lx.leave();
        out
    }

    fn construct_inner(&mut self) -> Result<Construct, QueryParseError> {
        if self.lx.eat("{") {
            let mut entries = Vec::new();
            if !self.lx.eat("}") {
                loop {
                    let label = self.label_expr()?;
                    self.lx.require(":")?;
                    entries.push((label, self.construct()?));
                    if !self.lx.eat(",") {
                        self.lx.require("}")?;
                        break;
                    }
                }
            }
            return Ok(Construct::Node(entries));
        }
        if let Some(v) = value(&mut self.lx)? {
            return Ok(Construct::Atom(v));
        }
        let Some((id, span)) = self.spanned_ident() else {
            return self.err("expected constructor");
        };
        match id.as_str() {
            "true" => Ok(Construct::Atom(Value::Bool(true))),
            "false" => Ok(Construct::Atom(Value::Bool(false))),
            kw if KEYWORDS.contains(&kw) => {
                self.err(format!("keyword '{kw}' cannot be a constructor"))
            }
            _ => {
                self.spans.occurrences.push(VarOcc {
                    span,
                    name: id.clone(),
                    is_label: false,
                    site: OccSite::Construct,
                });
                Ok(Construct::Var(id))
            }
        }
    }

    fn label_expr(&mut self) -> Result<LabelExpr, QueryParseError> {
        if self.lx.eat("^") {
            let Some((name, span)) = self.spanned_ident() else {
                return self.err("expected label variable after '^'");
            };
            self.spans.occurrences.push(VarOcc {
                span,
                name: name.clone(),
                is_label: true,
                site: OccSite::Construct,
            });
            return Ok(LabelExpr::LabelVar(name));
        }
        if let Some(v) = value(&mut self.lx)? {
            return Ok(LabelExpr::Value(v));
        }
        match self.lx.ident() {
            Some(id) => Ok(LabelExpr::Symbol(id.to_owned())),
            None => self.err("expected label"),
        }
    }

    fn cond(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_and()?;
        while self.lx.keyword("or") {
            let right = self.cond_and()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_and(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_unary()?;
        while self.lx.keyword("and") {
            let right = self.cond_unary()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_unary(&mut self) -> Result<Cond, QueryParseError> {
        self.lx.enter()?;
        let out = self.cond_unary_inner();
        self.lx.leave();
        out
    }

    fn cond_unary_inner(&mut self) -> Result<Cond, QueryParseError> {
        if self.lx.keyword("not") {
            return Ok(Cond::Not(Box::new(self.cond_unary()?)));
        }
        if self.lx.keyword("exists") {
            let Some((var, span)) = self.spanned_ident() else {
                return self.err("expected variable after exists");
            };
            self.spans.occurrences.push(VarOcc {
                span,
                name: var.clone(),
                is_label: false,
                site: OccSite::Cond,
            });
            self.lx.require(".")?;
            self.pending_label_vars.clear();
            let path = self.path_seq()?;
            for (name, span) in std::mem::take(&mut self.pending_label_vars) {
                self.spans.occurrences.push(VarOcc {
                    name,
                    span,
                    is_label: true,
                    site: OccSite::Cond,
                });
            }
            return Ok(Cond::Exists(var, path));
        }
        // Type predicates.
        for (kw, kind) in [
            ("isint", LabelKind::Int),
            ("isreal", LabelKind::Real),
            ("isstring", LabelKind::Str),
            ("isbool", LabelKind::Bool),
            ("issymbol", LabelKind::Symbol),
        ] {
            if self.lx.keyword(kw) {
                self.lx.require("(")?;
                let e = self.expr()?;
                self.lx.require(")")?;
                return Ok(Cond::TypeIs(e, kind));
            }
        }
        if self.lx.eat("(") {
            // Parenthesised condition.
            let c = self.cond()?;
            self.lx.require(")")?;
            return Ok(c);
        }
        let left = self.expr()?;
        if self.lx.keyword("like") {
            let pat = self.lx.quoted('"')?;
            return Ok(Cond::Like(left, pat));
        }
        let op = self.cmp_op()?;
        let right = self.expr()?;
        Ok(Cond::Cmp(left, op, right))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, QueryParseError> {
        // Two-character operators first: `<=` is not `<` then `=`.
        let ops = [
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("=", CmpOp::Eq),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ];
        match ops.into_iter().find(|(tok, _)| self.lx.eat(tok)) {
            Some((_, op)) => Ok(op),
            None => self.err("expected comparison operator"),
        }
    }

    fn expr(&mut self) -> Result<Expr, QueryParseError> {
        if let Some(v) = value(&mut self.lx)? {
            return Ok(Expr::Const(v));
        }
        let Some((id, span)) = self.spanned_ident() else {
            return self.err("expected expression");
        };
        match id.as_str() {
            "true" => Ok(Expr::Const(Value::Bool(true))),
            "false" => Ok(Expr::Const(Value::Bool(false))),
            kw if KEYWORDS.contains(&kw) => {
                self.err(format!("keyword '{kw}' cannot be an expression"))
            }
            _ => {
                self.spans.occurrences.push(VarOcc {
                    span,
                    name: id.clone(),
                    is_label: false,
                    site: OccSite::Cond,
                });
                Ok(Expr::Var(id))
            }
        }
    }
}

/// A string or number token, if one comes next (rewrites share it).
pub(super) fn value(lx: &mut Lexer) -> Result<Option<Value>, ParseError> {
    Ok(match lx.peek() {
        Some('"') => Some(Value::Str(lx.quoted('"')?)),
        Some(c) if c.is_ascii_digit() || c == '-' => Some(lx.path_number()?),
        _ => None,
    })
}

/// The type named in a `[...]` step: `int`, `real`, `string` (or `str`),
/// `bool` or `symbol`.
pub(super) fn kind_named(name: &str) -> Option<LabelKind> {
    match name {
        "int" => Some(LabelKind::Int),
        "real" => Some(LabelKind::Real),
        "string" | "str" => Some(LabelKind::Str),
        "bool" => Some(LabelKind::Bool),
        "symbol" => Some(LabelKind::Symbol),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::lex::MAX_PARSE_DEPTH;

    #[test]
    fn parse_rpe_is_the_binding_path_and_nothing_more() {
        for path in [
            "Entry.%.Title",
            "Entry.(Movie|TV_Show).^L",
            "a*.b+.c? -- note",
        ] {
            let q = parse_query(&format!("select X from db.{path}\nX")).unwrap();
            assert_eq!(parse_rpe(path).unwrap(), q.bindings[0].path, "{path}");
        }
        let e = parse_rpe("Entry.Movie M, M.Title").unwrap_err();
        assert_eq!(e.message, "trailing input after path expression");
        assert!(parse_rpe("").is_err());
    }

    #[test]
    fn a_check_error_is_reported_at_its_span() {
        let e = parse_query("select X from db.a Y").unwrap_err();
        assert_eq!(e.at, 7, "{e}");
        assert!(e.message.starts_with("error[SSD001]"), "{e}");
        // The first error in source order: `Z` in the construct before
        // the duplicate `M`.
        let e = parse_query("select Z from db.a M, db.b M").unwrap_err();
        assert_eq!((e.at, &e.message[..13]), (7, "error[SSD001]"), "{e}");
    }

    /// The lexical conventions of the select language: inputs that read
    /// as the same query, each escape and its character, and errors with
    /// the byte they are reported at. Rows marked "fixed" read
    /// differently than before the shared lexer.
    #[test]
    fn lexical_table() {
        for (src, plain) in [
            // `--` comments, anywhere whitespace goes.
            (
                "select X -- c\nfrom db.a -- c\nX -- c",
                "select X from db.a X",
            ),
            // The path rule: a `.` is part of a number only before a
            // digit, and there is no exponent.
            ("select e5 from db.a.1e5", "select e5 from db.a.1 e5"),
            (
                "select X from db.Year.1942.Title X",
                "select X from db.Year . 1942 . Title X",
            ),
            (
                "select X from db.a.-1.5.b X",
                "select X from db.a . -1.5 . b X",
            ),
            (
                "select X from db.a X where X > -2.50",
                "select X from db.a X where X>-2.5",
            ),
            // Identifiers: a letter or `_`, then letters, digits and `_`.
            ("select _é1 from db.Été _é1", "select _é1 from db . Été _é1"),
        ] {
            let q = parse_query(src);
            assert!(q.is_ok(), "{src}: {q:?}");
            assert_eq!(q, parse_query(plain), "{src}");
        }
        for (esc, want) in [
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\n", "\n"),
            (r"\t", "\t"),
            // A raw control character stands for itself.
            ("\r", "\r"),
            // Fixed: the rest of the escapes the literal writer writes.
            (r"\r", "\r"),
            (r"\0", "\0"),
            (r"\'", "'"),
            (r"\u{1F600}", "\u{1F600}"),
        ] {
            let q = parse_query(&format!(r#"select X from db."{esc}" X"#)).unwrap();
            assert_eq!(q.bindings[0].path, Rpe::step(Step::value(want)), "{esc}");
        }
        let deep = format!(
            "select {}1{} from db.a X",
            "{a: ".repeat(MAX_PARSE_DEPTH),
            "}".repeat(MAX_PARSE_DEPTH)
        );
        for (src, at, message) in [
            (
                "select X from db.a X extra",
                21,
                "trailing input after query",
            ),
            ("select X from db.a X # c", 21, "trailing input after query"),
            (
                "select X from db.a-b X",
                18,
                "expected variable name after path",
            ),
            ("select X from db.99999999999999999999 X", 37, "bad int"),
            (r#"select X from db."a X"#, 18, "unterminated string"),
            (
                "select X from db.a X where X ~ 1",
                29,
                "expected comparison operator",
            ),
            ("select X from db.[num] X", 21, "expected type name"),
            // Fixed: a bad escape is reported at its backslash.
            (r#"select X from db."a\q" X"#, 19, "bad escape '\\q'"),
            (&deep, 7 + 4 * MAX_PARSE_DEPTH - 1, "error[SSD110]"),
        ] {
            let e = parse_query(src).unwrap_err();
            assert_eq!(e.at, at, "{src}: {e}");
            assert!(e.message.starts_with(message), "{src}: {e}");
        }
    }

    #[test]
    fn parse_basic_select() {
        let q = parse_query(r#"select {Title: T} from db.Entry.Movie M, M.Title T"#).unwrap();
        assert_eq!(q.bindings.len(), 2);
        assert_eq!(q.bindings[0].var, "M");
        assert_eq!(q.bindings[1].source, Source::Var("M".into()));
        match &q.construct {
            Construct::Node(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].0, LabelExpr::Symbol("Title".into()));
            }
            _ => panic!("expected node construct"),
        }
    }

    #[test]
    fn parse_wildcards_and_repetition() {
        let q = parse_query("select X from db.%*.Title X").unwrap();
        // %* then Title
        assert!(matches!(q.bindings[0].path, Rpe::Seq(_, _)));
    }

    #[test]
    fn parse_alternation_and_negation() {
        let q = parse_query(r#"select A from db.Movie.(!Movie)*.Cast.(Actors | Credit.Actors) A"#)
            .unwrap();
        assert_eq!(q.bindings.len(), 1);
        let shown = q.bindings[0].path.to_string();
        assert!(shown.contains("!(Movie)"));
        assert!(shown.contains('|'));
    }

    #[test]
    fn parse_label_variable_and_like() {
        let q = parse_query(r#"select {^L: X} from db.Movie.^L X where L like "act%""#).unwrap();
        match &q.construct {
            Construct::Node(entries) => {
                assert_eq!(entries[0].0, LabelExpr::LabelVar("L".into()));
            }
            _ => panic!(),
        }
        assert!(matches!(q.condition, Some(Cond::Like(_, _))));
    }

    #[test]
    fn parse_conditions() {
        let q = parse_query(
            r#"select M from db.Movie M, M.Year Y
               where (Y >= 1940 and Y <= 1950) or not isint(Y) and exists M.Director"#,
        )
        .unwrap();
        assert!(q.condition.is_some());
    }

    #[test]
    fn parse_value_steps() {
        let q = parse_query(r#"select X from db.%*."Casablanca" X"#).unwrap();
        let shown = q.bindings[0].path.to_string();
        assert!(shown.contains("Casablanca"));
    }

    #[test]
    fn parse_kind_steps() {
        let q = parse_query("select X from db.%*.[int] X").unwrap();
        assert!(q.bindings[0].path.to_string().contains("[int]"));
        assert!(parse_query("select X from db.[badkind] X").is_err());
    }

    #[test]
    fn parse_comments() {
        let q = parse_query("select T -- titles\nfrom db.Movie.Title T -- the binding").unwrap();
        assert_eq!(q.bindings.len(), 1);
    }

    #[test]
    fn reject_invalid_queries() {
        assert!(parse_query("select X from").is_err());
        assert!(parse_query("select X from db.a Y").is_err()); // X unbound
        assert!(parse_query("select X from db.a X extra").is_err());
        assert!(parse_query("select X from X.a X").is_err()); // source unbound
        assert!(parse_query("select select from db.a X").is_err());
        assert!(parse_query("select X from db.a X where").is_err());
    }

    #[test]
    fn reject_keyword_as_variable() {
        assert!(parse_query("select X from db.a where").is_err());
    }

    #[test]
    fn numbers_vs_path_dots() {
        // `db.1942 X` — an integer step; the dot before X's binding var.
        let q = parse_query("select X from db.Year.1942 X").unwrap();
        assert!(q.bindings[0].path.to_string().contains("1942"));
        // Real literal in a condition.
        let q2 = parse_query("select X from db.a X where X > 1.5").unwrap();
        match q2.condition {
            Some(Cond::Cmp(_, CmpOp::Gt, Expr::Const(Value::Real(r)))) => {
                assert!((r - 1.5).abs() < 1e-9);
            }
            other => panic!("unexpected condition {other:?}"),
        }
    }

    #[test]
    fn exists_parses_path() {
        let q = parse_query("select M from db.Movie M where exists M.Cast.Actors").unwrap();
        match q.condition {
            Some(Cond::Exists(v, path)) => {
                assert_eq!(v, "M");
                assert_eq!(path.to_string(), "Cast.Actors");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optional_step() {
        let q = parse_query("select X from db.Cast.Credit?.Actors X").unwrap();
        assert!(q.bindings[0].path.to_string().contains('?'));
    }

    #[test]
    fn spans_point_at_tokens() {
        let src = r#"select {^L: T} from db.Entry.Movie M, M.^L T where T != "x""#;
        let (q, spans) = parse_query_spanned(src).unwrap();
        assert_eq!(q.bindings.len(), 2);
        let slice = |s: Span| &src[s.start..s.end];

        assert_eq!(slice(spans.construct.unwrap()), "{^L: T}");
        assert_eq!(slice(spans.bindings[0].source), "db");
        assert_eq!(slice(spans.bindings[0].path), "Entry.Movie");
        assert_eq!(slice(spans.bindings[0].var), "M");
        assert_eq!(slice(spans.bindings[0].full), "db.Entry.Movie M");
        assert_eq!(slice(spans.bindings[1].source), "M");
        assert_eq!(spans.bindings[1].label_vars.len(), 1);
        assert_eq!(spans.bindings[1].label_vars[0].0, "L");
        assert_eq!(slice(spans.bindings[1].label_vars[0].1), "L");
        assert_eq!(slice(spans.condition.unwrap()), r#"T != "x""#);

        // Occurrences: ^L and T in the head, T in the condition.
        assert_eq!(
            slice(spans.occurrence("L", Some(OccSite::Construct)).unwrap()),
            "L"
        );
        assert_eq!(
            slice(spans.occurrence("T", Some(OccSite::Cond)).unwrap()),
            "T"
        );
        let cond_t = spans.occurrence("T", Some(OccSite::Cond)).unwrap();
        assert!(cond_t.start > spans.bindings[1].full.end);
    }

    #[test]
    fn spans_record_exists_occurrences() {
        let src = "select M from db.Movie M where exists M.Cast.^R";
        let (_, spans) = parse_query_spanned(src).unwrap();
        let m = spans.occurrence("M", Some(OccSite::Cond)).unwrap();
        assert_eq!(&src[m.start..m.end], "M");
        let r = spans
            .occurrences
            .iter()
            .find(|o| o.is_label && o.site == OccSite::Cond)
            .unwrap();
        assert_eq!(r.name, "R");
        assert_eq!(&src[r.span.start..r.span.end], "R");
    }

    #[test]
    fn spanned_parse_skips_validation() {
        // `X` is unbound: parse_query rejects, parse_query_spanned accepts.
        assert!(parse_query("select X from db.a Y").is_err());
        assert!(parse_query_spanned("select X from db.a Y").is_ok());
    }
}
