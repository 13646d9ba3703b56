//! JSON interchange.
//!
//! The tutorial's data model is, in hindsight, proto-JSON: nested,
//! self-describing, schema-optional. This module converts between the two
//! — the "extremely flexible format for data exchange between disparate
//! databases" motivation of §1.2, aimed at today's actual exchange format.
//!
//! Mapping (JSON → graph):
//!
//! * an object `{"k": v}` becomes a node with a symbol edge `k` per member;
//! * an array `[a, b]` becomes a node with integer-labeled edges `1`, `2`
//!   (§2: "arrays may be represented by labeling internal edges with
//!   integers");
//! * scalars become atoms (`{v: {}}`); `null` becomes the empty node `{}`.
//!
//! The reverse direction ([`to_json`]) inverts this exactly on graphs in
//! the image of [`from_json`]; on general graphs it (a) groups
//! duplicate-label edges into arrays, and (b) refuses cycles with
//! [`JsonError::Cyclic`] — JSON has no reference syntax, so cyclic
//! databases must be exported in the literal syntax instead.

use crate::graph::{Graph, NodeId};
use crate::label::Label;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from JSON conversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Parse error at a byte offset.
    Parse { at: usize, message: String },
    /// The graph contains a cycle; JSON cannot express it.
    Cyclic,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Parse { at, message } => {
                write!(f, "JSON parse error at byte {at}: {message}")
            }
            JsonError::Cyclic => write!(f, "graph is cyclic; JSON cannot express cycles"),
        }
    }
}

impl std::error::Error for JsonError {}

// --------------------------------------------------------------------------
// Parsing (a small, strict JSON subset parser: no surrogate-pair escapes).

struct P<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError::Parse {
            at: self.pos,
            message: message.into(),
        })
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        let r = self.rest();
        let t = r.trim_start();
        self.pos += r.len() - t.len();
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), JsonError> {
        if self.eat(c) {
            Ok(())
        } else {
            self.err(format!("expected '{c}'"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.rest().char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            match chars.next().and_then(|(_, h)| h.to_digit(16)) {
                                Some(d) => code = code * 16 + d,
                                None => return self.err("bad \\u escape"),
                            }
                        }
                        match char::from_u32(code) {
                            Some(ch) => out.push(ch),
                            None => return self.err("bad unicode escape"),
                        }
                    }
                    _ => return self.err("bad escape"),
                },
                _ => out.push(c),
            }
        }
        self.err("unterminated string")
    }

    fn value(&mut self, g: &mut Graph) -> Result<NodeId, JsonError> {
        self.depth += 1;
        if self.depth > crate::lex::MAX_PARSE_DEPTH {
            return Err(JsonError::Parse {
                at: self.pos,
                message: crate::lex::depth_message(),
            });
        }
        let out = self.value_inner(g);
        self.depth -= 1;
        out
    }

    fn value_inner(&mut self, g: &mut Graph) -> Result<NodeId, JsonError> {
        match self.peek() {
            Some('{') => {
                self.expect('{')?;
                let node = g.add_node();
                if self.eat('}') {
                    return Ok(node);
                }
                loop {
                    let key = self.string()?;
                    self.expect(':')?;
                    let child = self.value(g)?;
                    g.add_sym_edge(node, &key, child);
                    if self.eat(',') {
                        continue;
                    }
                    self.expect('}')?;
                    break;
                }
                Ok(node)
            }
            Some('[') => {
                self.expect('[')?;
                let node = g.add_node();
                if self.eat(']') {
                    return Ok(node);
                }
                let mut i = 1i64;
                loop {
                    let child = self.value(g)?;
                    g.add_edge(node, Label::int(i), child);
                    i += 1;
                    if self.eat(',') {
                        continue;
                    }
                    self.expect(']')?;
                    break;
                }
                Ok(node)
            }
            Some('"') => {
                let s = self.string()?;
                let node = g.add_node();
                g.add_value_edge(node, s);
                Ok(node)
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let v = self.number()?;
                let node = g.add_node();
                g.add_value_edge(node, v);
                Ok(node)
            }
            Some('t') if self.rest().starts_with("true") => {
                self.pos += 4;
                let node = g.add_node();
                g.add_value_edge(node, true);
                Ok(node)
            }
            Some('f') if self.rest().starts_with("false") => {
                self.pos += 5;
                let node = g.add_node();
                g.add_value_edge(node, false);
                Ok(node)
            }
            Some('n') if self.rest().starts_with("null") => {
                self.pos += 4;
                Ok(g.add_node()) // null → the empty node
            }
            _ => self.err("expected a JSON value"),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let r = self.rest();
        let mut end = 0;
        let mut real = false;
        for (i, c) in r.char_indices() {
            match c {
                '0'..='9' => end = i + 1,
                '-' if i == 0 => end = i + 1,
                '.' | 'e' | 'E' => {
                    real = true;
                    end = i + 1;
                }
                '+' | '-' if real => end = i + 1,
                _ => break,
            }
        }
        if end == 0 {
            return self.err("expected number");
        }
        let text = &r[..end];
        self.pos += end;
        if real {
            text.parse()
                .map(Value::Real)
                .or_else(|_| self.err("bad number"))
        } else {
            text.parse()
                .map(Value::Int)
                .or_else(|_| self.err("bad number"))
        }
    }
}

/// Parse a JSON document into a fresh rooted graph.
pub fn from_json(src: &str) -> Result<Graph, JsonError> {
    let mut g = Graph::new();
    let mut p = P {
        src,
        pos: 0,
        depth: 0,
    };
    let root = p.value(&mut g)?;
    p.skip_ws();
    if p.pos != src.len() {
        return p.err("trailing input after JSON value");
    }
    g.set_root(root);
    g.gc();
    Ok(g)
}

// --------------------------------------------------------------------------
// Serialization.

/// Serialize the subgraph under `node` as JSON. Fails on cycles. Shared
/// subtrees are duplicated (JSON has no references).
pub fn to_json(g: &Graph, node: NodeId) -> Result<String, JsonError> {
    if g.has_cycle() {
        return Err(JsonError::Cyclic);
    }
    let mut out = String::new();
    write_node(g, node, &mut out);
    Ok(out)
}

/// Serialize the whole graph from its root.
pub fn graph_to_json(g: &Graph) -> Result<String, JsonError> {
    to_json(g, g.root())
}

fn write_node(g: &Graph, n: NodeId, out: &mut String) {
    // Atom?
    if let Some(v) = g.atomic_value(n) {
        write_scalar(v, out);
        return;
    }
    let edges = g.edges(n);
    if edges.is_empty() {
        out.push_str("null");
        return;
    }
    // Pure array? (all labels are ints — emit positionally, sorted).
    let all_ints = edges
        .iter()
        .all(|e| matches!(e.label.as_value(), Some(Value::Int(_))));
    if all_ints {
        let mut items: Vec<(i64, NodeId)> = edges
            .iter()
            .map(|e| match e.label.as_value() {
                Some(Value::Int(i)) => (*i, e.to),
                _ => unreachable!("checked all_ints"),
            })
            .collect();
        items.sort_by_key(|(i, _)| *i);
        out.push('[');
        for (k, (_, to)) in items.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_node(g, *to, out);
        }
        out.push(']');
        return;
    }
    // Object: group edges by label text; duplicate labels become arrays.
    let mut groups: Vec<(String, Vec<NodeId>)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for e in edges {
        let key = match &e.label {
            Label::Symbol(s) => g.symbols().resolve(*s).to_string(),
            Label::Value(v) => match v {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            },
        };
        match index.get(&key) {
            Some(&i) => groups[i].1.push(e.to),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push((key, vec![e.to]));
            }
        }
    }
    out.push('{');
    for (k, (key, targets)) in groups.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        write_string(key, out);
        out.push(':');
        if targets.len() == 1 {
            write_node(g, targets[0], out);
        } else {
            out.push('[');
            for (j, t) in targets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_node(g, *t, out);
            }
            out.push(']');
        }
    }
    out.push('}');
}

fn write_scalar(v: &Value, out: &mut String) {
    match v {
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Real(r) => {
            if !r.is_finite() {
                out.push_str("null"); // JSON has no NaN/inf
            } else if r.fract() == 0.0 && r.abs() < 1e15 {
                // Keep reals distinguishable from ints on re-import.
                let _ = write!(out, "{r:.1}");
            } else {
                let _ = write!(out, "{r}");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bisim::graphs_bisimilar;
    use crate::literal::parse_graph;

    #[test]
    fn import_object() {
        let g = from_json(r#"{"Movie": {"Title": "Casablanca", "Year": 1942}}"#).unwrap();
        let m = g.successors_by_name(g.root(), "Movie")[0];
        let t = g.successors_by_name(m, "Title")[0];
        assert_eq!(g.atomic_value(t), Some(&Value::Str("Casablanca".into())));
        let y = g.successors_by_name(m, "Year")[0];
        assert_eq!(g.atomic_value(y), Some(&Value::Int(1942)));
    }

    #[test]
    fn import_array_uses_int_labels() {
        let g = from_json(r#"{"cast": ["Bogart", "Bacall"]}"#).unwrap();
        let cast = g.successors_by_name(g.root(), "cast")[0];
        assert_eq!(g.out_degree(cast), 2);
        assert!(g.edges(cast).iter().all(|e| e.label.is_value()));
    }

    #[test]
    fn import_scalars_and_null() {
        let g = from_json(r#"{"i": 1, "r": 2.5, "s": "x", "b": true, "n": null}"#).unwrap();
        let n = g.successors_by_name(g.root(), "n")[0];
        assert!(g.is_leaf(n));
        let r = g.successors_by_name(g.root(), "r")[0];
        assert_eq!(g.atomic_value(r), Some(&Value::Real(2.5)));
        let b = g.successors_by_name(g.root(), "b")[0];
        assert_eq!(g.atomic_value(b), Some(&Value::Bool(true)));
    }

    #[test]
    fn import_escapes() {
        let g = from_json(r#"{"s": "a\"b\nA"}"#).unwrap();
        let s = g.successors_by_name(g.root(), "s")[0];
        assert_eq!(g.atomic_value(s), Some(&Value::Str("a\"b\nA".into())));
    }

    #[test]
    fn import_errors() {
        assert!(from_json("{").is_err());
        assert!(from_json("{}extra").is_err());
        assert!(from_json(r#"{"a" 1}"#).is_err());
        assert!(from_json("[1,]").is_err());
        assert!(from_json("nul").is_err());
    }

    #[test]
    fn json_round_trip() {
        let src = r#"{"Movie":{"Title":"Casablanca","Cast":["Bogart","Bacall"],"Year":1942,"Rating":8.5,"Color":false,"Notes":null}}"#;
        let g = from_json(src).unwrap();
        let out = graph_to_json(&g).unwrap();
        let g2 = from_json(&out).unwrap();
        assert!(graphs_bisimilar(&g, &g2), "round trip broke:\n{out}");
    }

    #[test]
    fn duplicate_labels_export_as_arrays() {
        let g = parse_graph(r#"{Cast: {Actors: "Bogart", Actors: "Bacall"}}"#).unwrap();
        let json = graph_to_json(&g).unwrap();
        assert!(json.contains(r#""Actors":["Bogart","Bacall"]"#), "{json}");
        // And re-imports to a bisimilar graph (array indices replace the
        // duplicate labels — shape differs, so compare via the Actors
        // count after a collapse of index edges... here we just re-import
        // and check the values survive).
        let g2 = from_json(&json).unwrap();
        let cast = g2.successors_by_name(g2.root(), "Cast")[0];
        let actors = g2.successors_by_name(cast, "Actors")[0];
        assert_eq!(g2.out_degree(actors), 2);
    }

    #[test]
    fn cycles_are_refused() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        assert_eq!(graph_to_json(&g), Err(JsonError::Cyclic));
    }

    #[test]
    fn reals_stay_reals_through_round_trip() {
        let g = from_json(r#"{"x": 2.0}"#).unwrap();
        let json = graph_to_json(&g).unwrap();
        let g2 = from_json(&json).unwrap();
        let x = g2.successors_by_name(g2.root(), "x")[0];
        assert_eq!(g2.atomic_value(x), Some(&Value::Real(2.0)));
    }

    #[test]
    fn literal_and_json_agree_on_tree_data() {
        let lit = parse_graph(r#"{a: {b: 1, c: "x"}, d: true}"#).unwrap();
        let json = graph_to_json(&lit).unwrap();
        let back = from_json(&json).unwrap();
        assert!(graphs_bisimilar(&lit, &back));
    }

    #[test]
    fn shared_subtrees_are_duplicated() {
        let g = parse_graph("{a: @s = {v: 1}, b: @s}").unwrap();
        let json = graph_to_json(&g).unwrap();
        let back = from_json(&json).unwrap();
        // Bisimilar (extensional equality) even though sharing was lost.
        assert!(graphs_bisimilar(&g, &back));
        let a = back.successors_by_name(back.root(), "a")[0];
        let b = back.successors_by_name(back.root(), "b")[0];
        assert_ne!(a, b, "JSON cannot express sharing");
    }

    #[test]
    fn nested_arrays() {
        let g = from_json("[[1,2],[3]]").unwrap();
        assert_eq!(g.out_degree(g.root()), 2);
        let json = graph_to_json(&g).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
    }
}
