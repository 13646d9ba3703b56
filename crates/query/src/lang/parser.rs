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
//! disambiguates, exactly as in Lorel.

use super::ast::{Binding, CmpOp, Cond, Construct, Expr, LabelExpr, SelectQuery, Source};
use super::spans::{BindingSpans, OccSite, QuerySpans, VarOcc};
use crate::analyze::check_query_vars;
use crate::rpe::{Rpe, Step};
use ssd_diag::{Diagnostic, DiagnosticSink, Span};
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
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after query");
    }
    Ok((q, p.spans))
}

/// Parse one regular path expression — the `path` production a binding
/// uses — as the whole of `src` (the wire's `RPE` verb).
pub fn parse_rpe(src: &str) -> Result<Rpe, QueryParseError> {
    let mut p = P::new(src);
    let path = p.path_seq()?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after path expression");
    }
    Ok(path)
}

struct P<'a> {
    src: &'a str,
    pos: usize,
    /// End position of the last consumed token (excludes trailing
    /// whitespace/comments skipped by lookahead).
    last_end: usize,
    spans: QuerySpans,
    /// Label variables seen while parsing the current path, drained into
    /// the enclosing binding's (or exists condition's) span record.
    pending_label_vars: Vec<(String, Span)>,
    /// Current recursive-descent depth, bounded by
    /// [`ssd_graph::literal::MAX_PARSE_DEPTH`].
    depth: usize,
}

/// RAII-free depth bump shared by the recursive productions: call at the
/// top of each recursion point, pair with `depth -= 1` on exit.
macro_rules! bounded {
    ($self:ident, $body:expr) => {{
        $self.depth += 1;
        if $self.depth > ssd_graph::literal::MAX_PARSE_DEPTH {
            return Err(QueryParseError {
                at: $self.pos,
                message: ssd_diag::Diagnostic::new(
                    ssd_diag::Code::ParseDepthExceeded,
                    format!(
                        "query nests deeper than {} levels",
                        ssd_graph::literal::MAX_PARSE_DEPTH
                    ),
                )
                .headline(),
            });
        }
        let out = $body;
        $self.depth -= 1;
        out
    }};
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> P<'a> {
        P {
            src,
            pos: 0,
            last_end: 0,
            spans: QuerySpans::default(),
            pending_label_vars: Vec::new(),
            depth: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, QueryParseError> {
        Err(QueryParseError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
            if self.rest().starts_with("--") {
                match self.rest().find('\n') {
                    Some(i) => self.pos += i + 1,
                    None => self.pos = self.src.len(),
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            self.last_end = self.pos;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), QueryParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected '{c}'"))
        }
    }

    /// Peek an identifier without consuming.
    fn peek_ident(&mut self) -> Option<String> {
        let save = self.pos;
        let id = self.ident();
        self.pos = save;
        id
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
            self.last_end = self.pos;
            Some(s)
        }
    }

    /// Span of the identifier just consumed by [`P::ident`].
    fn prev_ident_span(&self, name: &str) -> Span {
        Span::new(self.last_end - name.len(), self.last_end)
    }

    fn keyword(&mut self, kw: &str) -> bool {
        let save = self.pos;
        match self.ident() {
            Some(id) if id == kw => true,
            _ => {
                self.pos = save;
                false
            }
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryParseError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword '{kw}'"))
        }
    }

    fn string_lit(&mut self) -> Result<String, QueryParseError> {
        self.expect('"')?;
        let r = self.rest();
        let mut out = String::new();
        let mut chars = r.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    self.last_end = self.pos;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    _ => return self.err("bad escape in string"),
                },
                _ => out.push(c),
            }
        }
        self.err("unterminated string")
    }

    fn number(&mut self) -> Result<Value, QueryParseError> {
        self.skip_ws();
        let r = self.rest();
        let mut end = 0;
        let mut real = false;
        for (i, c) in r.char_indices() {
            match c {
                '0'..='9' => end = i + 1,
                '-' if i == 0 => end = i + 1,
                '.' => {
                    // A dot is a path separator unless followed by a digit.
                    if r[i + 1..]
                        .chars()
                        .next()
                        .is_some_and(|d| d.is_ascii_digit())
                    {
                        real = true;
                        end = i + 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        if end == 0 {
            return self.err("expected number");
        }
        let text = &r[..end];
        self.pos += end;
        self.last_end = self.pos;
        if real {
            text.parse::<f64>()
                .map(Value::Real)
                .or_else(|_| self.err("bad real"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .or_else(|_| self.err("bad int"))
        }
    }

    fn query(&mut self) -> Result<SelectQuery, QueryParseError> {
        self.expect_keyword("select")?;
        self.skip_ws();
        let cstart = self.pos;
        let construct = self.construct()?;
        self.spans.construct = Some(Span::new(cstart, self.last_end));
        self.expect_keyword("from")?;
        let mut bindings = vec![self.binding()?];
        while self.eat(',') {
            bindings.push(self.binding()?);
        }
        let condition = if self.keyword("where") {
            self.skip_ws();
            let wstart = self.pos;
            let c = self.cond()?;
            self.spans.condition = Some(Span::new(wstart, self.last_end));
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
        self.skip_ws();
        let bstart = self.pos;
        let src_ident = match self.ident() {
            Some(id) => id,
            None => return self.err("expected binding source (db or a variable)"),
        };
        let source_span = self.prev_ident_span(&src_ident);
        let source = if src_ident == "db" {
            Source::Db
        } else {
            Source::Var(src_ident)
        };
        self.expect('.')?;
        self.skip_ws();
        let pstart = self.pos;
        self.pending_label_vars.clear();
        let path = self.path_seq()?;
        let path_span = Span::new(pstart, self.last_end);
        let label_vars = std::mem::take(&mut self.pending_label_vars);
        let var = match self.ident() {
            Some(id) if !KEYWORDS.contains(&id.as_str()) => id,
            Some(kw) => return self.err(format!("expected variable name, found keyword '{kw}'")),
            None => return self.err("expected variable name after path"),
        };
        self.spans.bindings.push(BindingSpans {
            full: Span::new(bstart, self.last_end),
            source: source_span,
            path: path_span,
            var: self.prev_ident_span(&var),
            label_vars,
        });
        Ok(Binding { source, path, var })
    }

    /// A `.`-separated sequence of postfixed primaries. Stops before a
    /// trailing identifier that is not followed by `.` — but since steps
    /// and the bound variable are both identifiers, we parse greedily and
    /// rely on the caller: the *last* identifier in a binding is the
    /// variable, so here we stop when the upcoming identifier is not
    /// followed by `.`, `*`, `+`, `?`, `(`, or another step constituent.
    fn path_seq(&mut self) -> Result<Rpe, QueryParseError> {
        let mut parts = vec![self.postfix()?];
        while self.peek() == Some('.') {
            // Lookahead: `.` then a step.
            self.expect('.')?;
            parts.push(self.postfix()?);
        }
        Ok(Rpe::seq(parts))
    }

    fn postfix(&mut self) -> Result<Rpe, QueryParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.expect('*')?;
                    e = e.star();
                }
                Some('+') => {
                    self.expect('+')?;
                    e = e.plus();
                }
                Some('?') => {
                    self.expect('?')?;
                    e = e.opt();
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Rpe, QueryParseError> {
        bounded!(self, self.primary_inner())
    }

    fn primary_inner(&mut self) -> Result<Rpe, QueryParseError> {
        match self.peek() {
            Some('%') => {
                self.expect('%')?;
                Ok(Rpe::step(Step::wildcard()))
            }
            Some('^') => {
                self.expect('^')?;
                let name = match self.ident() {
                    Some(n) => n,
                    None => return self.err("expected label variable name after '^'"),
                };
                let span = self.prev_ident_span(&name);
                self.pending_label_vars.push((name.clone(), span));
                Ok(Rpe::step(Step::label_var(&name)))
            }
            Some('!') => {
                self.expect('!')?;
                let inner = self.primary()?;
                match inner {
                    Rpe::Step(s) if s.label_var.is_none() => Ok(Rpe::step(Step {
                        pred: Pred::Not(Box::new(s.pred)),
                        label_var: None,
                    })),
                    _ => self.err("'!' applies to a single step"),
                }
            }
            Some('[') => {
                self.expect('[')?;
                let kind = match self.ident().as_deref() {
                    Some("int") => LabelKind::Int,
                    Some("real") => LabelKind::Real,
                    Some("string") | Some("str") => LabelKind::Str,
                    Some("bool") => LabelKind::Bool,
                    Some("symbol") => LabelKind::Symbol,
                    _ => return self.err("expected type name in [...] step"),
                };
                self.expect(']')?;
                Ok(Rpe::step(Step::pred(Pred::Kind(kind))))
            }
            Some('(') => {
                self.expect('(')?;
                let mut alts = vec![self.path_seq()?];
                while self.eat('|') {
                    alts.push(self.path_seq()?);
                }
                self.expect(')')?;
                Ok(Rpe::alt(alts))
            }
            Some('"') => {
                let s = self.string_lit()?;
                Ok(Rpe::step(Step::value(s)))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let v = self.number()?;
                Ok(Rpe::step(Step {
                    pred: Pred::ValueEq(v),
                    label_var: None,
                }))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let Some(id) = self.ident() else {
                    return self.err("expected identifier");
                };
                if KEYWORDS.contains(&id.as_str()) {
                    return self.err(format!("keyword '{id}' cannot be a path step"));
                }
                Ok(Rpe::symbol(&id))
            }
            _ => self.err("expected path step"),
        }
    }

    fn construct(&mut self) -> Result<Construct, QueryParseError> {
        bounded!(self, self.construct_inner())
    }

    fn construct_inner(&mut self) -> Result<Construct, QueryParseError> {
        match self.peek() {
            Some('{') => {
                self.expect('{')?;
                let mut entries = Vec::new();
                if self.eat('}') {
                    return Ok(Construct::Node(entries));
                }
                loop {
                    let label = self.label_expr()?;
                    self.expect(':')?;
                    let sub = self.construct()?;
                    entries.push((label, sub));
                    if self.eat(',') {
                        continue;
                    }
                    self.expect('}')?;
                    break;
                }
                Ok(Construct::Node(entries))
            }
            Some('"') => Ok(Construct::Atom(Value::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == '-' => Ok(Construct::Atom(self.number()?)),
            Some(c) if c.is_alphabetic() || c == '_' => {
                let Some(id) = self.ident() else {
                    return self.err("expected identifier");
                };
                match id.as_str() {
                    "true" => Ok(Construct::Atom(Value::Bool(true))),
                    "false" => Ok(Construct::Atom(Value::Bool(false))),
                    kw if KEYWORDS.contains(&kw) => {
                        self.err(format!("keyword '{kw}' cannot be a constructor"))
                    }
                    _ => {
                        self.spans.occurrences.push(VarOcc {
                            span: self.prev_ident_span(&id),
                            name: id.clone(),
                            is_label: false,
                            site: OccSite::Construct,
                        });
                        Ok(Construct::Var(id))
                    }
                }
            }
            _ => self.err("expected constructor"),
        }
    }

    fn label_expr(&mut self) -> Result<LabelExpr, QueryParseError> {
        match self.peek() {
            Some('^') => {
                self.expect('^')?;
                let name = match self.ident() {
                    Some(n) => n,
                    None => return self.err("expected label variable after '^'"),
                };
                self.spans.occurrences.push(VarOcc {
                    span: self.prev_ident_span(&name),
                    name: name.clone(),
                    is_label: true,
                    site: OccSite::Construct,
                });
                Ok(LabelExpr::LabelVar(name))
            }
            Some('"') => Ok(LabelExpr::Value(Value::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == '-' => Ok(LabelExpr::Value(self.number()?)),
            Some(c) if c.is_alphabetic() || c == '_' => {
                let Some(id) = self.ident() else {
                    return self.err("expected identifier");
                };
                Ok(LabelExpr::Symbol(id))
            }
            _ => self.err("expected label"),
        }
    }

    fn cond(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_and()?;
        while self.keyword("or") {
            let right = self.cond_and()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_and(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_unary()?;
        while self.keyword("and") {
            let right = self.cond_unary()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_unary(&mut self) -> Result<Cond, QueryParseError> {
        bounded!(self, self.cond_unary_inner())
    }

    fn cond_unary_inner(&mut self) -> Result<Cond, QueryParseError> {
        if self.keyword("not") {
            return Ok(Cond::Not(Box::new(self.cond_unary()?)));
        }
        if self.keyword("exists") {
            let var = match self.ident() {
                Some(v) => v,
                None => return self.err("expected variable after exists"),
            };
            self.spans.occurrences.push(VarOcc {
                span: self.prev_ident_span(&var),
                name: var.clone(),
                is_label: false,
                site: OccSite::Cond,
            });
            self.expect('.')?;
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
            if self.peek_ident().as_deref() == Some(kw) {
                self.ident();
                self.expect('(')?;
                let e = self.expr()?;
                self.expect(')')?;
                return Ok(Cond::TypeIs(e, kind));
            }
        }
        if self.peek() == Some('(') {
            // Parenthesised condition.
            self.expect('(')?;
            let c = self.cond()?;
            self.expect(')')?;
            return Ok(c);
        }
        let left = self.expr()?;
        if self.keyword("like") {
            let pat = self.string_lit()?;
            return Ok(Cond::Like(left, pat));
        }
        let op = self.cmp_op()?;
        let right = self.expr()?;
        Ok(Cond::Cmp(left, op, right))
    }

    fn cmp_op(&mut self) -> Result<CmpOp, QueryParseError> {
        self.skip_ws();
        let r = self.rest();
        let (op, len) = if r.starts_with("!=") {
            (CmpOp::Ne, 2)
        } else if r.starts_with("<=") {
            (CmpOp::Le, 2)
        } else if r.starts_with(">=") {
            (CmpOp::Ge, 2)
        } else if r.starts_with('=') {
            (CmpOp::Eq, 1)
        } else if r.starts_with('<') {
            (CmpOp::Lt, 1)
        } else if r.starts_with('>') {
            (CmpOp::Gt, 1)
        } else {
            return self.err("expected comparison operator");
        };
        self.pos += len;
        self.last_end = self.pos;
        Ok(op)
    }

    fn expr(&mut self) -> Result<Expr, QueryParseError> {
        match self.peek() {
            Some('"') => Ok(Expr::Const(Value::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == '-' => Ok(Expr::Const(self.number()?)),
            Some(c) if c.is_alphabetic() || c == '_' => {
                let Some(id) = self.ident() else {
                    return self.err("expected identifier");
                };
                match id.as_str() {
                    "true" => Ok(Expr::Const(Value::Bool(true))),
                    "false" => Ok(Expr::Const(Value::Bool(false))),
                    kw if KEYWORDS.contains(&kw) => {
                        self.err(format!("keyword '{kw}' cannot be an expression"))
                    }
                    _ => {
                        self.spans.occurrences.push(VarOcc {
                            span: self.prev_ident_span(&id),
                            name: id.clone(),
                            is_label: false,
                            site: OccSite::Cond,
                        });
                        Ok(Expr::Var(id))
                    }
                }
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
