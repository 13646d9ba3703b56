//! Textual data syntax for semistructured values.
//!
//! The tutorial (and UnQL) write data as nested set braces:
//!
//! ```text
//! { Entry: { Movie: { Title: "Casablanca",
//!                     Cast:  { Actors: "Bogart", Actors: "Bacall" },
//!                     Director: "Curtiz" } } }
//! ```
//!
//! Grammar:
//!
//! ```text
//! tree   := node | value | '@' IDENT | '@' IDENT '=' tree
//! node   := '{' [entry (',' entry)*] '}'
//! entry  := label ':' tree
//!         | label                     -- sugar for `label: {}`
//! label  := IDENT | QSYMBOL | STRING | INT | REAL | 'true' | 'false'
//! value  := STRING | INT | REAL | 'true' | 'false'
//! ```
//!
//! The tokens are [`crate::lex`]'s in its [`LITERAL`] syntax: `#`
//! comments, `-` inside identifiers, numbers with a sign, `.` and
//! exponent, and `'…'` quoted symbols for names that are not
//! identifiers. The writer emits only what the reader reads: such names
//! quoted, strings with the reader's escapes, integral reals with a `.`
//! or an exponent.
//!
//! A bare value in tree position desugars to `{value: {}}` (an atom).
//! `@name = tree` defines a shared node; `@name` references it — this is the
//! textual form of OEM object identities used as "place-holders to define
//! trees" (§2), and is how cyclic instances like Figure 1's
//! `References`/`Is referenced in` loop are written.

use crate::builder::{LabelSpec, TreeBuilder, TreeSpec};
use crate::graph::{Graph, NodeId};
use crate::label::Label;
use crate::lex::{self, Lexer, LITERAL};
use crate::value::Value;
use std::fmt::Write as _;

pub use crate::lex::ParseError;

/// A label: identifier or quoted symbol, string/number/bool (value).
fn label(lx: &mut Lexer) -> Result<LabelSpec, ParseError> {
    match lx.peek() {
        Some('\'') => Ok(LabelSpec::Symbol(lx.quoted('\'')?)),
        Some('"') => Ok(LabelSpec::Value(Value::Str(lx.quoted('"')?))),
        Some(c) if starts_number(c) => Ok(LabelSpec::Value(lx.number()?)),
        _ => match lx.ident() {
            Some("true") => Ok(LabelSpec::Value(Value::Bool(true))),
            Some("false") => Ok(LabelSpec::Value(Value::Bool(false))),
            Some(id) => Ok(LabelSpec::Symbol(id.to_owned())),
            None => Err(lx.err("expected label")),
        },
    }
}

/// Whether `c` starts a number by [`Lexer::number`].
fn starts_number(c: char) -> bool {
    c.is_ascii_digit() || c == '-' || c == '+'
}

fn tree(lx: &mut Lexer) -> Result<TreeSpec, ParseError> {
    lx.enter()?;
    let out = tree_inner(lx);
    lx.leave();
    out
}

fn tree_inner(lx: &mut Lexer) -> Result<TreeSpec, ParseError> {
    match lx.peek() {
        Some('{') => node(lx),
        Some('@') => {
            lx.require("@")?;
            let Some(name) = lx.ident() else {
                return Err(lx.err("expected name after '@'"));
            };
            if lx.eat("=") {
                Ok(TreeSpec::Def(name.to_owned(), Box::new(tree(lx)?)))
            } else {
                Ok(TreeSpec::Ref(name.to_owned()))
            }
        }
        Some('"') => Ok(TreeSpec::Atom(Value::Str(lx.quoted('"')?))),
        Some(c) if starts_number(c) => Ok(TreeSpec::Atom(lx.number()?)),
        _ => {
            // A bare identifier in tree position: true/false are atoms,
            // anything else is an error (labels go on edges).
            let at = lx.pos();
            match lx.ident() {
                Some("true") => Ok(TreeSpec::Atom(Value::Bool(true))),
                Some("false") => Ok(TreeSpec::Atom(Value::Bool(false))),
                Some(id) => Err(ParseError {
                    at,
                    message: format!("unexpected identifier '{id}' in tree position"),
                }),
                None => Err(lx.err("expected tree")),
            }
        }
    }
}

fn node(lx: &mut Lexer) -> Result<TreeSpec, ParseError> {
    lx.require("{")?;
    let mut entries = Vec::new();
    while !lx.eat("}") {
        let label = label(lx)?;
        let sub = if lx.eat(":") {
            tree(lx)?
        } else {
            TreeSpec::empty()
        };
        entries.push((label, sub));
        // A trailing comma is allowed.
        if !lx.eat(",") {
            lx.require("}")?;
            break;
        }
    }
    Ok(TreeSpec::Node(entries))
}

/// Parse the textual data syntax into a [`TreeSpec`].
pub fn parse_tree(src: &str) -> Result<TreeSpec, ParseError> {
    let mut lx = Lexer::new(src, LITERAL);
    let t = tree(&mut lx)?;
    if !lx.at_end() {
        return Err(lx.err("trailing input after tree"));
    }
    Ok(t)
}

/// Parse the textual data syntax directly into a fresh rooted [`Graph`].
pub fn parse_graph(src: &str) -> Result<Graph, ParseError> {
    let spec = parse_tree(src)?;
    if let Err(msg) = crate::builder::check_refs(&spec) {
        return Err(ParseError {
            at: src.len(),
            message: msg,
        });
    }
    let mut g = Graph::new();
    let root = {
        let mut b = TreeBuilder::new(&mut g);
        b.build(&spec)
    };
    g.set_root(root);
    g.gc();
    Ok(g)
}

/// Serialize the subgraph reachable from `node` back to the textual syntax.
///
/// Nodes with in-degree > 1 (shared) or re-entered on a cycle are emitted
/// once with an `@nK = ...` definition and referenced as `@nK` thereafter,
/// `K` counting definitions in output order, so the text depends on the
/// graph alone. It round-trips through [`parse_graph`] up to bisimulation
/// (in fact up to isomorphism of the reachable subgraph).
pub fn write_tree(g: &Graph, node: NodeId) -> String {
    let mut names = vec![Name::Unreached; g.node_count()];
    for n in g.reachable_from(node) {
        for e in g.edges(n) {
            let name = &mut names[e.to.index()];
            *name = match name {
                Name::Unreached => Name::Once,
                _ => Name::Due,
            };
        }
    }
    mark_cycle_entries(g, node, &mut vec![Visit::New; g.node_count()], &mut names);
    let mut w = Writer {
        g,
        names,
        defined: 0,
        out: String::new(),
    };
    w.node(node);
    w.out
}

/// Whether a node is written with an `@nK` name, and which.
#[derive(Clone, Copy, PartialEq)]
enum Name {
    /// Not reached by any edge (yet).
    Unreached,
    /// Reached by one edge and on no cycle: written inline.
    Once,
    /// Shared or a cycle entry, not written yet.
    Due,
    /// Defined as `@nK`.
    Defined(usize),
}

#[derive(Clone, Copy, PartialEq)]
enum Visit {
    New,
    OnStack,
    Done,
}

/// Mark every node a depth-first walk re-enters while still printing it.
fn mark_cycle_entries(g: &Graph, n: NodeId, visit: &mut [Visit], names: &mut [Name]) {
    visit[n.index()] = Visit::OnStack;
    for e in g.edges(n) {
        match visit[e.to.index()] {
            Visit::OnStack => names[e.to.index()] = Name::Due,
            Visit::Done => {}
            Visit::New => mark_cycle_entries(g, e.to, visit, names),
        }
    }
    visit[n.index()] = Visit::Done;
}

struct Writer<'g> {
    g: &'g Graph,
    names: Vec<Name>,
    defined: usize,
    out: String,
}

impl Writer<'_> {
    fn named(&self, n: NodeId) -> bool {
        matches!(self.names[n.index()], Name::Due | Name::Defined(_))
    }

    fn node(&mut self, n: NodeId) {
        match self.names[n.index()] {
            Name::Defined(k) => {
                let _ = write!(self.out, "@n{k}");
                return;
            }
            Name::Due => {
                let k = self.defined;
                self.defined += 1;
                self.names[n.index()] = Name::Defined(k);
                let _ = write!(self.out, "@n{k} = ");
            }
            Name::Unreached | Name::Once => {}
        }
        let g = self.g;
        // Atom shorthand.
        if let Some(v) = g.atomic_value(n) {
            if !self.named(g.edges(n)[0].to) {
                let _ = write!(self.out, "{v}");
                return;
            }
        }
        self.out.push('{');
        for (i, e) in g.edges(n).iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.label(&e.label);
            if !g.is_leaf(e.to) || self.named(e.to) {
                self.out.push_str(": ");
                self.node(e.to);
            }
        }
        self.out.push('}');
    }

    /// A symbol the reader would not read back as that symbol — not an
    /// identifier, or `true`/`false` — is written as a quoted symbol.
    fn label(&mut self, label: &Label) {
        let _ = match label {
            Label::Symbol(s) => {
                let name = self.g.symbols().resolve(*s);
                if LITERAL.is_ident(&name) && !matches!(&*name, "true" | "false") {
                    self.out.push_str(&name);
                    Ok(())
                } else {
                    lex::write_quoted(&mut self.out, &name, '\'')
                }
            }
            Label::Value(v) => write!(self.out, "{v}"),
        };
    }
}

/// Serialize the whole graph (from its root).
pub fn write_graph(g: &Graph) -> String {
    write_tree(g, g.root())
}

/// Re-serialize after a parse for a canonical form (used by tests).
pub fn roundtrip(src: &str) -> Result<String, ParseError> {
    let g = parse_graph(src)?;
    Ok(write_graph(&g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim;
    use crate::lex::MAX_PARSE_DEPTH;

    #[test]
    fn parse_empty() {
        let g = parse_graph("{}").unwrap();
        assert!(g.is_leaf(g.root()));
    }

    #[test]
    fn parse_flat_record() {
        let g = parse_graph(r#"{Title: "Casablanca", Year: 1942}"#).unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let t = g.successors_by_name(g.root(), "Title")[0];
        assert_eq!(g.atomic_value(t), Some(&Value::Str("Casablanca".into())));
        let y = g.successors_by_name(g.root(), "Year")[0];
        assert_eq!(g.atomic_value(y), Some(&Value::Int(1942)));
    }

    #[test]
    fn parse_nested_and_duplicate_labels() {
        let g = parse_graph(r#"{Cast: {Actors: "Bogart", Actors: "Bacall"}}"#).unwrap();
        let cast = g.successors_by_name(g.root(), "Cast")[0];
        assert_eq!(g.successors_by_name(cast, "Actors").len(), 2);
    }

    #[test]
    fn parse_bare_label_is_empty_subtree() {
        let g = parse_graph("{flag, other: {}}").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let f = g.successors_by_name(g.root(), "flag")[0];
        assert!(g.is_leaf(f));
    }

    #[test]
    fn parse_value_labels_and_types() {
        let g = parse_graph(r#"{1: "a", 2.5: "b", true: "c", "key": "d"}"#).unwrap();
        assert_eq!(g.out_degree(g.root()), 4);
    }

    #[test]
    fn parse_cycle() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        assert!(g.has_cycle());
        assert_eq!(g.successors_by_name(g.root(), "next")[0], g.root());
    }

    #[test]
    fn parse_shared_node() {
        let g = parse_graph("{a: @s = {leaf}, b: @s}").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(a, b);
    }

    #[test]
    fn parse_comments_and_whitespace() {
        let g = parse_graph("# header\n{ a : 1 , # inline\n  b : 2 }\n# trailer").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
    }

    #[test]
    fn parse_trailing_comma() {
        let g = parse_graph("{a: 1, b: 2,}").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_graph("{a: }").is_err());
        assert!(parse_graph("{a: 1} extra").is_err());
        assert!(parse_graph("{a: @undef}").is_err());
        // Forward references (other than self-reference via `@x = ...`) are
        // rejected, mirroring the builder's define-before-use scoping.
        assert!(parse_graph("{a: @x, b: @x = {}}").is_err());
        assert!(parse_graph(r#"{"unterminated}"#).is_err());
        assert!(parse_graph("{a: bogus}").is_err());
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let g = parse_graph("{a: -5, b: 1.5e3, c: -2.5E-1}").unwrap();
        let a = g.successors_by_name(g.root(), "a")[0];
        assert_eq!(g.atomic_value(a), Some(&Value::Int(-5)));
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(g.atomic_value(b), Some(&Value::Real(1500.0)));
        let c = g.successors_by_name(g.root(), "c")[0];
        assert_eq!(g.atomic_value(c), Some(&Value::Real(-0.25)));
    }

    #[test]
    fn string_escapes() {
        let g = parse_graph(r#"{s: "a\"b\n\\t"}"#).unwrap();
        let s = g.successors_by_name(g.root(), "s")[0];
        assert_eq!(g.atomic_value(s), Some(&Value::Str("a\"b\n\\t".into())));
    }

    #[test]
    fn write_and_reparse_acyclic() {
        let src = r#"{Movie: {Title: "Casablanca", Year: 1942, Cast: {Actors: "Bogart"}}}"#;
        let g = parse_graph(src).unwrap();
        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert!(bisim::graphs_bisimilar(&g, &g2));
    }

    #[test]
    fn write_and_reparse_cyclic() {
        let src = "{a: @x = {next: @x, v: 1}, b: @x}";
        let g = parse_graph(src).unwrap();
        let text = write_graph(&g);
        let g2 = parse_graph(&text).unwrap();
        assert!(bisim::graphs_bisimilar(&g, &g2));
    }

    /// The lexical conventions of the literal syntax, one row per rule:
    /// an input and its canonical form, or an input and the byte its
    /// error is reported at. Rows marked "fixed" read or write
    /// differently than before the shared lexer.
    #[test]
    fn lexical_table() {
        let ok = [
            // `#` comments, anywhere whitespace goes.
            ("# c\n{a # c\n: 1 # c\n} # c", "{a: 1}"),
            ("{a: 1}#", "{a: 1}"),
            // Identifiers: a letter or `_`, then letters, digits, `_`, `-`.
            ("{_x-1_y, Été: 1}", "{_x-1_y, Été: 1}"),
            ("{true: false}", "{true: false}"),
            // Strings, raw control characters included.
            (r#"{s: "\"\\\n\t"}"#, r#"{s: "\"\\\n\t"}"#),
            ("{s: \"a\rb\u{1}\"}", r#"{s: "a\rb\u{1}"}"#),
            // Fixed: the escapes the writer writes read back.
            (r#"{s: "\r\0\'\u{1}\u{48}"}"#, r#"{s: "\r\0'\u{1}H"}"#),
            // Numbers: sign, `.` and exponent.
            (
                "{a: -5, b: +5, c: 1.5e3, d: -2.5E-1, e: 2.}",
                "{a: -5, b: 5, c: 1500.0, d: -0.25, e: 2.0}",
            ),
            (
                "{a: 9223372036854775807, b: -9223372036854775808}",
                "{a: 9223372036854775807, b: -9223372036854775808}",
            ),
            (
                "{1: 1.0, 999999999999999.0: 0.5}",
                "{1: 1.0, 999999999999999.0: 0.5}",
            ),
            // Fixed: integral reals from 1e15 on keep their exponent.
            (
                "{a: 1e15, b: -2.5e20, 1e300: 9223372036854775808.0}",
                "{a: 1e15, b: -2.5e20, 1e300: 9.223372036854776e18}",
            ),
            // Fixed: quoted symbols.
            (
                r#"{'first name': 1, '2nd', 'true': {'a\'b'}, 'plain'}"#,
                r#"{'first name': 1, '2nd', 'true': {'a\'b'}, plain}"#,
            ),
            // Trailing comma, bare labels.
            ("{a, b,}", "{a, b}"),
        ];
        for (src, want) in ok {
            assert_eq!(roundtrip(src).as_deref(), Ok(want), "{src}");
        }
        let deep = format!(
            "{}{}",
            "{a: ".repeat(MAX_PARSE_DEPTH),
            "}".repeat(MAX_PARSE_DEPTH)
        );
        let err = [
            ("{a: 1} extra", 7, "trailing input after tree"),
            (
                "{a: bogus}",
                4,
                "unexpected identifier 'bogus' in tree position",
            ),
            ("{a 1}", 3, "expected '}'"),
            ("{:}", 1, "expected label"),
            (r#"{a: "x\q"}"#, 6, "bad escape '\\q'"),
            (r#"{a: "x"#, 5, "unterminated string literal"),
            (
                "{a: 99999999999999999999}",
                24,
                "bad int literal '99999999999999999999'",
            ),
            ("{a: 1.2.3}", 9, "bad real literal '1.2.3'"),
            ("{a: -}", 5, "bad int literal '-'"),
            ("@", 1, "expected name after '@'"),
            (&deep, 4 * MAX_PARSE_DEPTH - 1, "error[SSD110]"),
        ];
        for (src, at, message) in err {
            let e = parse_graph(src).unwrap_err();
            assert_eq!(e.at, at, "{src}: {e}");
            assert!(e.message.starts_with(message), "{src}: {e}");
        }
    }

    #[test]
    fn shared_nodes_are_named_in_output_order() {
        let src = "{a: @x = {v: 1}, b: @x, c: @y = {w: 2}, d: @y, e: @z = {u: 3}, f: @z, \
                   g: @p = {t: 4}, h: @p, i: @q = {s: 5}, j: @q, k: @r = {next: @r}}";
        let want = "{a: @n0 = {v: 1}, b: @n0, c: @n1 = {w: 2}, d: @n1, e: @n2 = {u: 3}, \
                    f: @n2, g: @n3 = {t: 4}, h: @n3, i: @n4 = {s: 5}, j: @n4, k: @n5 = {next: @n5}}";
        assert_eq!(roundtrip(src).unwrap(), want);
    }

    #[test]
    fn canonical_roundtrip_is_stable() {
        let once = roundtrip("{b: 2, a: {c: 3}}").unwrap();
        let twice = roundtrip(&once).unwrap();
        assert_eq!(once, twice);
    }
}
