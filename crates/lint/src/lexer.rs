//! A small token-level Rust lexer — just enough surface syntax to run
//! workspace lints without `syn` (the build is hermetic/offline).
//!
//! It produces identifier, literal, and punctuation tokens with byte
//! spans into the original source, records comments separately (the
//! allow-annotation escape hatch lives in comments), and can elide
//! `#[cfg(test)]` / `#[test]` items so lints see only the code that
//! ships. It is deliberately *not* a parser: brace matching and a few
//! token-pattern scans are all the structure the lints need.

/// What a token is. Punctuation is one byte per token (`=>` is `=`
/// then `>`); the lints match multi-byte operators as sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Lifetime (`'a`) — kept distinct so `'a` is never a char literal.
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Single punctuation byte.
    Punct(u8),
}

/// One token, spanning `start..end` bytes of the source.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    pub kind: TokKind,
    pub start: usize,
    pub end: usize,
}

impl Tok {
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }

    pub fn is(&self, src: &str, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == word
    }

    pub fn is_punct(&self, b: u8) -> bool {
        self.kind == TokKind::Punct(b)
    }
}

/// A comment with its byte span (text includes the `//` / `/* */`).
#[derive(Debug, Clone, Copy)]
pub struct Comment {
    pub start: usize,
    pub end: usize,
}

/// Lexed file: tokens (comments stripped) plus the comments themselves.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<Comment>,
}

/// Lex `src`. Unterminated constructs consume to end of file rather
/// than erroring: a lint must never panic on the code it inspects.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == b'/' && i + 1 < b.len() {
            if b[i + 1] == b'/' {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment { start, end: i });
                continue;
            }
            if b[i + 1] == b'*' {
                let start = i;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if i + 1 < b.len() && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < b.len() && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                out.comments.push(Comment { start, end: i });
                continue;
            }
        }
        // Raw / byte string prefixes: r"", r#""#, br"", b"", b''.
        if (c == b'r' || c == b'b') && i + 1 < b.len() {
            let (raw_at, is_raw) = if c == b'r' {
                (i + 1, true)
            } else if b[i + 1] == b'r' {
                (i + 2, i + 2 < b.len())
            } else {
                (i + 1, false)
            };
            if is_raw && raw_at < b.len() && (b[raw_at] == b'#' || b[raw_at] == b'"') {
                let start = i;
                let mut j = raw_at;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    j += 1;
                    'raw: while j < b.len() {
                        if b[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < b.len() && b[j + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Str,
                        start,
                        end: j,
                    });
                    i = j;
                    continue;
                }
            }
            if c == b'b' && (b[i + 1] == b'"' || b[i + 1] == b'\'') {
                let quote = b[i + 1];
                let start = i;
                let mut j = i + 2;
                while j < b.len() {
                    if b[j] == b'\\' {
                        j += 2;
                    } else if b[j] == quote {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                out.toks.push(Tok {
                    kind: if quote == b'"' {
                        TokKind::Str
                    } else {
                        TokKind::Char
                    },
                    start,
                    end: j.min(b.len()),
                });
                i = j.min(b.len());
                continue;
            }
        }
        if c == b'"' {
            let start = i;
            let mut j = i + 1;
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'"' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Str,
                start,
                end: j.min(b.len()),
            });
            i = j.min(b.len());
            continue;
        }
        if c == b'\'' {
            // Lifetime (`'a`, `'static`) vs char literal (`'x'`, `'\n'`).
            let mut j = i + 1;
            let is_lifetime = j < b.len()
                && (b[j].is_ascii_alphabetic() || b[j] == b'_')
                && b[j] != b'\\'
                && !(j + 1 < b.len() && b[j + 1] == b'\'');
            if is_lifetime {
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    start: i,
                    end: j,
                });
                i = j;
                continue;
            }
            while j < b.len() {
                if b[j] == b'\\' {
                    j += 2;
                } else if b[j] == b'\'' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Char,
                start: i,
                end: j.min(b.len()),
            });
            i = j.min(b.len());
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                start,
                end: i,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            // Fractional part only when a digit follows the dot, so
            // `1.max(2)` stays three tokens.
            if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Num,
                start,
                end: i,
            });
            continue;
        }
        out.toks.push(Tok {
            kind: TokKind::Punct(c),
            start: i,
            end: i + 1,
        });
        i += 1;
    }
    out
}

/// Index of the token matching the opener at `open` (`{`→`}`, `(`→`)`,
/// `[`→`]`), or `toks.len() - 1` if unbalanced.
pub fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].kind {
        TokKind::Punct(b'{') => (b'{', b'}'),
        TokKind::Punct(b'(') => (b'(', b')'),
        TokKind::Punct(b'[') => (b'[', b']'),
        _ => return open,
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Drop every token belonging to a `#[cfg(test)]`- or `#[test]`-
/// annotated item (attribute included). The item is the attribute's
/// target: everything up to the end of the next brace-matched block,
/// or the next top-level `;` for block-less items. A match arm
/// (`#[cfg(test)] pat => body,`) ends with its body: a block, or the
/// expression up to the arm's `,` or the match's closing `}`.
pub fn elide_tests(src: &str, toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct(b'#') && i + 1 < toks.len() && toks[i + 1].is_punct(b'[') {
            let close = matching(toks, i + 1);
            let attr = &toks[i + 2..close];
            let is_test_attr = attr.first().is_some_and(|t| t.is(src, "test"))
                || (attr.len() >= 4
                    && attr[0].is(src, "cfg")
                    && attr[1].is_punct(b'(')
                    && attr.iter().any(|t| t.is(src, "test")));
            if is_test_attr {
                // Skip this attribute, any further attributes, then the
                // annotated item itself.
                let mut j = close + 1;
                while j + 1 < toks.len() && toks[j].is_punct(b'#') && toks[j + 1].is_punct(b'[') {
                    j = matching(toks, j + 1) + 1;
                }
                let mut depth_pa = 0i32;
                while j < toks.len() {
                    match toks[j].kind {
                        TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth_pa += 1,
                        TokKind::Punct(b')') | TokKind::Punct(b']') => depth_pa -= 1,
                        TokKind::Punct(b'{') if depth_pa == 0 => {
                            j = matching(toks, j);
                            break;
                        }
                        TokKind::Punct(b';') if depth_pa == 0 => break,
                        TokKind::Punct(b'=')
                            if depth_pa == 0
                                && toks.get(j + 1).is_some_and(|t| t.is_punct(b'>')) =>
                        {
                            j = arm_end(toks, j + 2);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
        }
        out.push(toks[i]);
        i += 1;
    }
    out
}

/// Last token of the match-arm body starting at `body`: its block (and
/// a trailing `,`), or everything up to the `,` that ends the arm,
/// stopping short of the `}` that closes the match.
fn arm_end(toks: &[Tok], body: usize) -> usize {
    if toks.get(body).is_some_and(|t| t.is_punct(b'{')) {
        let close = matching(toks, body);
        let comma = toks.get(close + 1).is_some_and(|t| t.is_punct(b','));
        return close + usize::from(comma);
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(body) {
        match t.kind {
            TokKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokKind::Punct(b')' | b']' | b'}') if depth == 0 => return j - 1,
            TokKind::Punct(b')' | b']' | b'}') => depth -= 1,
            TokKind::Punct(b',') if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// How many lines of `src` hold at least one of `toks`; a token that
/// spans lines (a multi-line string) holds each line it touches.
pub fn lines_holding(src: &str, toks: &[Tok]) -> usize {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(src.match_indices('\n').map(|(i, _)| i + 1))
        .collect();
    let line = |pos: usize| starts.partition_point(|&s| s <= pos) - 1;
    let mut held = vec![false; starts.len()];
    for t in toks {
        let last = line(t.end.saturating_sub(1).max(t.start));
        held[line(t.start)..=last].fill(true);
    }
    held.into_iter().filter(|&h| h).count()
}

/// 1-based line number of byte offset `pos`.
pub fn line_of(src: &str, pos: usize) -> usize {
    src.as_bytes()[..pos.min(src.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .iter()
            .map(|t| format!("{:?}:{}", t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn strings_comments_and_lifetimes() {
        let src = r##"fn f<'a>(x: &'a str) { // panic!(
            let _s = "has .unwrap() inside";
            let _r = r#"raw "panic!" text"#;
            let _c = 'x'; /* unreachable!( */
        }"##;
        let lx = lex(src);
        assert_eq!(lx.comments.len(), 2);
        let text: Vec<&str> = lx.toks.iter().map(|t| t.text(src)).collect();
        assert!(text.contains(&"'a"));
        assert!(text.contains(&"'x'"));
        // Nothing inside strings or comments surfaced as tokens.
        assert!(!text.contains(&"unwrap"));
        assert!(!text.contains(&"panic"));
        assert!(!text.contains(&"unreachable"));
    }

    #[test]
    fn numbers_do_not_swallow_method_calls() {
        let k = kinds("1.max(2) + 1.5");
        assert!(k[0].starts_with("Num:1"), "{k:?}");
        assert!(k.iter().any(|t| t == "Ident:max"), "{k:?}");
        assert!(k.iter().any(|t| t == "Num:1.5"), "{k:?}");
    }

    #[test]
    fn elides_cfg_test_modules_and_test_fns() {
        let src = "fn keep() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn gone() { b.unwrap(); } }\n\
                   #[test]\nfn also_gone() { c.unwrap(); }\n\
                   fn keep2() {}";
        let lx = lex(src);
        let kept = elide_tests(src, &lx.toks);
        let names: Vec<&str> = kept
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert!(names.contains(&"keep"));
        assert!(names.contains(&"keep2"));
        assert!(!names.contains(&"gone"));
        assert!(!names.contains(&"also_gone"));
        assert_eq!(names.iter().filter(|n| **n == "unwrap").count(), 1);
    }

    #[test]
    fn elides_an_inner_cfg_test_match_arm_and_nothing_after_it() {
        let src = "fn run(c: &str) -> u8 {\n\
                   match c {\n\
                   \"a\" => 1,\n\
                   #[cfg(test)]\n\
                   \"boom\" => panic!(\"x\"),\n\
                   #[cfg(test)]\n\
                   \"blk\" => { gone() }\n\
                   _ => 2,\n\
                   }\n\
                   }\n\
                   fn after() { kept(); }\n\
                   fn last(c: u8) -> u8 { match c { 0 => 1, #[cfg(test)] _ => tail() } }";
        let lx = lex(src);
        let kept = elide_tests(src, &lx.toks);
        let names: Vec<&str> = kept
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert!(!names.contains(&"panic") && !names.contains(&"gone"));
        assert!(!names.contains(&"tail"));
        assert!(names.contains(&"after") && names.contains(&"kept"));
        // Braces stay balanced: the arms' match and function still close.
        let opens = kept.iter().filter(|t| t.is_punct(b'{')).count();
        let closes = kept.iter().filter(|t| t.is_punct(b'}')).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn lines_holding_counts_token_lines_only() {
        let src = "// comment\n\nfn f() {\n    let s = \"a\n b\";\n}\n/* c */\n";
        let lx = lex(src);
        // `fn f() {`, the two lines of the string, and `}`.
        assert_eq!(lines_holding(src, &lx.toks), 4);
        assert_eq!(lines_holding("", &[]), 0);
    }

    #[test]
    fn matching_braces() {
        let src = "fn f(a: (u8, u8)) { if x { y(); } }";
        let lx = lex(src);
        let open = lx.toks.iter().position(|t| t.is_punct(b'{')).unwrap();
        let close = matching(&lx.toks, open);
        assert_eq!(lx.toks[close].kind, TokKind::Punct(b'}'));
        assert_eq!(close, lx.toks.len() - 1);
    }
}
