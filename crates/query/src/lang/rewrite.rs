//! Surface syntax for structural recursion — the "query language for
//! transformation" side of §3 ("building a sufficiently expressive
//! language for querying *and transformation*", abstract).
//!
//! ```text
//! rewrite
//!   case Credit            => collapse
//!   case "Play it again, Sam" => { "Bacall": recur }
//!   case secret            => delete
//!   case [int]             => { _: keep }
//!   otherwise              => { _: recur }
//! ```
//!
//! Each `case` pairs a label predicate (same step syntax as query paths:
//! identifiers, literals, `%`, `[int]`-style type tests, `!p`, `(p|q)`)
//! with a template:
//!
//! * `delete` — drop the edge (and anything only reachable through it);
//! * `collapse` — splice the target's transformed children into the source;
//! * `{ l1: t1, ... }` — constructed children, where a label position may
//!   be `_` (the original label), an identifier, or a literal, and a tree
//!   position may be `recur` (the recursive result), `keep` (the original
//!   subtree verbatim), a literal atom, or a nested `{...}`.
//!
//! The optional `otherwise` clause replaces the default (which is the
//! identity `{_: recur}`). The tokens are the select language's
//! ([`ssd_graph::lex::QUERY`]). Parsed rewrites compile to
//! [`Transducer`]s and run under [`gext`](crate::recursion::gext).

use super::parser::{kind_named, value};
use crate::recursion::{EdgeTemplate, TLabel, TTree, Transducer};
use ssd_graph::lex::{Lexer, ParseError, QUERY};
use ssd_graph::Value;
use ssd_schema::Pred;

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteParseError {
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for RewriteParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rewrite parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for RewriteParseError {}

impl From<ParseError> for RewriteParseError {
    fn from(e: ParseError) -> Self {
        RewriteParseError {
            at: e.at,
            message: e.message,
        }
    }
}

fn fail<T>(lx: &Lexer, message: impl Into<String>) -> Result<T, RewriteParseError> {
    Err(lx.err(message).into())
}

/// Parse the `rewrite` surface syntax into a transducer.
pub fn parse_rewrite(src: &str) -> Result<Transducer, RewriteParseError> {
    let lx = &mut Lexer::new(src, QUERY);
    lx.require_keyword("rewrite")?;
    let mut t = Transducer::new();
    while lx.keyword("case") {
        let pred = pred(lx)?;
        lx.require("=>")?;
        t = t.case(pred, template(lx)?);
    }
    if lx.keyword("otherwise") {
        lx.require("=>")?;
        t = t.otherwise(template(lx)?);
    }
    if !lx.at_end() {
        return fail(lx, "trailing input after rewrite");
    }
    Ok(t)
}

/// Label predicates, with `|` alternation and `!` negation.
fn pred(lx: &mut Lexer) -> Result<Pred, RewriteParseError> {
    let mut alts = vec![pred_atom(lx)?];
    while lx.eat("|") {
        alts.push(pred_atom(lx)?);
    }
    Ok(if alts.len() == 1 {
        alts.swap_remove(0)
    } else {
        Pred::Or(alts)
    })
}

fn pred_atom(lx: &mut Lexer) -> Result<Pred, RewriteParseError> {
    lx.enter()?;
    let out = pred_atom_inner(lx);
    lx.leave();
    out
}

fn pred_atom_inner(lx: &mut Lexer) -> Result<Pred, RewriteParseError> {
    if lx.eat("%") {
        return Ok(Pred::Any);
    }
    if lx.eat("!") {
        return Ok(Pred::Not(Box::new(pred_atom(lx)?)));
    }
    if lx.eat("(") {
        let p = pred(lx)?;
        lx.require(")")?;
        return Ok(p);
    }
    if lx.eat("[") {
        let Some(kind) = lx.ident().and_then(kind_named) else {
            return fail(lx, "expected type name in [...]");
        };
        lx.require("]")?;
        return Ok(Pred::Kind(kind));
    }
    if let Some(v) = value(lx)? {
        return Ok(Pred::ValueEq(v));
    }
    match lx.ident() {
        Some("true") => Ok(Pred::ValueEq(Value::Bool(true))),
        Some("false") => Ok(Pred::ValueEq(Value::Bool(false))),
        Some(id) => Ok(Pred::Symbol(id.to_owned())),
        None => fail(lx, "expected label predicate"),
    }
}

fn template(lx: &mut Lexer) -> Result<EdgeTemplate, RewriteParseError> {
    if lx.keyword("delete") {
        Ok(EdgeTemplate::Delete)
    } else if lx.keyword("collapse") {
        Ok(EdgeTemplate::Collapse)
    } else if lx.peek() == Some('{') {
        Ok(EdgeTemplate::Edges(tentries(lx)?))
    } else {
        fail(lx, "expected 'delete', 'collapse', or '{...}' template")
    }
}

fn tentries(lx: &mut Lexer) -> Result<Vec<(TLabel, TTree)>, RewriteParseError> {
    lx.require("{")?;
    let mut entries = Vec::new();
    if lx.eat("}") {
        return Ok(entries);
    }
    loop {
        let label = tlabel(lx)?;
        lx.require(":")?;
        entries.push((label, ttree(lx)?));
        if !lx.eat(",") {
            lx.require("}")?;
            return Ok(entries);
        }
    }
}

fn tlabel(lx: &mut Lexer) -> Result<TLabel, RewriteParseError> {
    if lx.eat("_") {
        return Ok(TLabel::Orig);
    }
    if let Some(v) = value(lx)? {
        return Ok(TLabel::Value(v));
    }
    match lx.ident() {
        Some("true") => Ok(TLabel::Value(Value::Bool(true))),
        Some("false") => Ok(TLabel::Value(Value::Bool(false))),
        Some(id) => Ok(TLabel::Symbol(id.to_owned())),
        None => fail(lx, "expected template label"),
    }
}

fn ttree(lx: &mut Lexer) -> Result<TTree, RewriteParseError> {
    lx.enter()?;
    let out = ttree_inner(lx);
    lx.leave();
    out
}

fn ttree_inner(lx: &mut Lexer) -> Result<TTree, RewriteParseError> {
    if lx.peek() == Some('{') {
        let entries = tentries(lx)?;
        return Ok(if entries.is_empty() {
            TTree::Empty
        } else {
            TTree::Node(entries)
        });
    }
    if let Some(v) = value(lx)? {
        return Ok(TTree::Atom(v));
    }
    match lx.ident() {
        Some("recur") => Ok(TTree::Recur),
        Some("keep") => Ok(TTree::Keep),
        Some("true") => Ok(TTree::Atom(Value::Bool(true))),
        Some("false") => Ok(TTree::Atom(Value::Bool(false))),
        Some(other) => fail(
            lx,
            format!("expected recur/keep/literal/{{...}} in tree position, found '{other}'"),
        ),
        None => fail(lx, "expected template tree"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recursion::gext;
    use ssd_graph::bisim::graphs_bisimilar;
    use ssd_graph::lex::MAX_PARSE_DEPTH;
    use ssd_graph::literal::parse_graph;
    use ssd_schema::Pred;

    fn run(data: &str, rewrite: &str) -> ssd_graph::Graph {
        let g = parse_graph(data).unwrap();
        let t = parse_rewrite(rewrite).unwrap();
        gext(&g, g.root(), &t)
    }

    #[test]
    fn bare_rewrite_is_identity() {
        let g = parse_graph("{a: {b: 1}}").unwrap();
        let t = parse_rewrite("rewrite").unwrap();
        assert!(graphs_bisimilar(&g, &gext(&g, g.root(), &t)));
    }

    #[test]
    fn relabel_case() {
        let out = run("{a: {a: 1}}", "rewrite case a => {b: recur}");
        let expect = parse_graph("{b: {b: 1}}").unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn delete_and_collapse_cases() {
        let out = run(
            r#"{Movie: {Cast: {Credit: {Actors: "Allen"}}, junk: 1}}"#,
            "rewrite case Credit => collapse case junk => delete",
        );
        let expect = parse_graph(r#"{Movie: {Cast: {Actors: "Allen"}}}"#).unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn bacall_fix_in_surface_syntax() {
        let out = run(
            r#"{Cast: {Actors: "Bogart", Actors: "Play it again, Sam"}}"#,
            r#"rewrite case "Play it again, Sam" => {"Bacall": recur}"#,
        );
        let expect = parse_graph(r#"{Cast: {Actors: "Bogart", Actors: "Bacall"}}"#).unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn type_predicate_case() {
        let out = run(
            r#"{name: "x", age: 42}"#,
            r#"rewrite case [int] => {0: recur}"#,
        );
        let expect = parse_graph(r#"{name: "x", age: {0: {}}}"#).unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn alternation_predicate() {
        let out = run("{a: 1, b: 2, c: 3}", "rewrite case a | b => delete");
        let expect = parse_graph("{c: 3}").unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn negated_predicate_with_otherwise() {
        // Keep only x edges; delete everything else.
        let out = run(
            "{x: {y: 1}, z: 2}",
            "rewrite case !x => delete otherwise => {_: recur}",
        );
        // !x matches y and z and the value edges below x... so x survives,
        // but its subtree loses y.
        let expect = parse_graph("{x: {}}").unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn keep_and_nested_templates() {
        let out = run(
            "{wrap: {a: 1}}",
            r#"rewrite case wrap => {found: {inner: keep, tag: "w"}}"#,
        );
        let expect = parse_graph(r#"{found: {inner: {a: 1}, tag: "w"}}"#).unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn orig_label_underscore() {
        let out = run("{a: 1, b: 2}", "rewrite case % => {_: {}}");
        // Every edge keeps its label but loses its subtree.
        let expect = parse_graph("{a: {}, b: {}}").unwrap();
        assert!(graphs_bisimilar(&out, &expect));
    }

    #[test]
    fn works_on_cycles() {
        let out = run("@x = {next: @x}", "rewrite case next => {hop: recur}");
        let expect = parse_graph("@x = {hop: @x}").unwrap();
        assert!(graphs_bisimilar(&out, &expect));
        assert!(out.has_cycle());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_rewrite("").is_err());
        assert!(parse_rewrite("rewrite case").is_err());
        assert!(parse_rewrite("rewrite case a => bogus").is_err());
        assert!(parse_rewrite("rewrite case a => {b: nonsense}").is_err());
        assert!(parse_rewrite("rewrite extra").is_err());
        assert!(parse_rewrite("rewrite case a => delete trailing").is_err());
        assert!(parse_rewrite("rewrite otherwise => delete case a => delete").is_err());
    }

    /// The lexical conventions of rewrites: inputs that read as the same
    /// transducer, each escape and its character, and errors with the
    /// byte they are reported at. Rows marked "fixed" read differently
    /// than before the shared lexer.
    #[test]
    fn lexical_table() {
        let shown = |src: &str| parse_rewrite(src).map(|t| format!("{t:?}"));
        for (src, plain) in [
            // `--` comments, anywhere whitespace goes.
            (
                "rewrite -- c\ncase a -- c\n=> delete -- c",
                "rewrite case a => delete",
            ),
            // The path rule: a `.` before a digit, no exponent.
            (
                "rewrite case -1.50 => {2: 1.0}",
                "rewrite case -1.5 => {2: 1.00}",
            ),
            (
                "rewrite case _é1 => {_: recur}",
                "rewrite case _é1=>{_:recur}",
            ),
        ] {
            let t = shown(src);
            assert!(t.is_ok(), "{src}: {t:?}");
            assert_eq!(t, shown(plain), "{src}");
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
            let t = parse_rewrite(&format!(r#"rewrite case "{esc}" => delete"#)).unwrap();
            assert_eq!(t.cases[0].pred, Pred::ValueEq(Value::from(want)), "{esc}");
        }
        // The template's own braces are not a tree: one level more.
        let deep = format!(
            "rewrite case a => {}1{}",
            "{a: ".repeat(MAX_PARSE_DEPTH + 1),
            "}".repeat(MAX_PARSE_DEPTH + 1)
        );
        for (src, at, message) in [
            (
                "rewrite case a => delete trailing",
                25,
                "trailing input after rewrite",
            ),
            (
                "rewrite case a => delete # c",
                25,
                "trailing input after rewrite",
            ),
            ("rewrite case 1e5 => delete", 14, "expected '=>'"),
            ("rewrite case a => {b: nonsense}", 30, "expected recur/keep"),
            (r#"rewrite case "a => delete"#, 14, "unterminated string"),
            ("rewrite case [num] => delete", 17, "expected type name"),
            // Fixed: a bad escape is reported at its backslash.
            (r#"rewrite case "a\q" => delete"#, 15, "bad escape '\\q'"),
            (&deep, 18 + 4 * MAX_PARSE_DEPTH + 3, "error[SSD110]"),
        ] {
            let e = parse_rewrite(src).unwrap_err();
            assert_eq!(e.at, at, "{src}: {e}");
            assert!(e.message.starts_with(message), "{src}: {e}");
        }
    }

    #[test]
    fn comments_allowed() {
        let t =
            parse_rewrite("rewrite -- fix casts\n case Credit => collapse -- flatten\n").unwrap();
        assert_eq!(t.cases.len(), 1);
    }
}
