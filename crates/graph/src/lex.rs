//! The one lexer behind the four surface syntaxes: the literal data
//! syntax ([`crate::literal`]), select queries, rewrites and datalog.
//!
//! A [`Lexer`] is a cursor over `&str` that tracks its byte position, the
//! end of the last token it consumed (for source spans) and the nesting
//! depth of the grammar driving it. Each parser keeps only its grammar
//! productions and its own error type, converted from [`ParseError`].
//!
//! Where the languages differ only by data — their line-comment openers
//! and the literal's `-` inside identifiers — the difference is a
//! [`Syntax`] constant, and no function here asks which language it lexes.
//! Where they differ by rule there are two functions: [`Lexer::number`]
//! (the literal's sign, `.` and exponent) and [`Lexer::path_number`] (the
//! path-safe rule of the other three). Strings and quoted symbols share
//! one rule, [`Lexer::quoted`], and [`write_quoted`] writes exactly the
//! escapes it reads.

use crate::value::Value;
use std::fmt;

/// Maximum nesting depth accepted by the recursive-descent parsers (the
/// four surface syntaxes, JSON and XML). Deeper inputs get an SSD110
/// parse error instead of overflowing the stack.
pub const MAX_PARSE_DEPTH: usize = 256;

/// The SSD110 message every parser reports when input nests too deep.
pub(crate) fn depth_message() -> String {
    ssd_diag::Diagnostic::new(
        ssd_diag::Code::ParseDepthExceeded,
        format!("input nests deeper than {MAX_PARSE_DEPTH} levels"),
    )
    .headline()
}

/// A lexical or syntax error at a byte offset of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The lexical data that tells one surface syntax from another.
#[derive(Debug, Clone, Copy)]
pub struct Syntax {
    /// Line-comment openers; each comment runs to the end of its line.
    comments: &'static [&'static str],
    /// Characters an identifier may hold after its first, besides `_` and
    /// alphanumerics.
    ident_extra: &'static [char],
}

/// The literal data syntax: `#` comments, `-` inside identifiers.
pub const LITERAL: Syntax = Syntax {
    comments: &["#"],
    ident_extra: &['-'],
};

/// Select queries and rewrites: `--` comments.
pub const QUERY: Syntax = Syntax {
    comments: &["--"],
    ident_extra: &[],
};

/// Datalog: `%` and `#` comments.
pub const DATALOG: Syntax = Syntax {
    comments: &["%", "#"],
    ident_extra: &[],
};

impl Syntax {
    /// Byte length of the identifier `s` starts with (0 if none): a letter
    /// or `_`, then letters, digits, `_` and [`Syntax::ident_extra`].
    #[inline]
    fn ident_len(&self, s: &str) -> usize {
        let mut chars = s.char_indices();
        match chars.next() {
            Some((_, c)) if c.is_alphabetic() || c == '_' => {}
            _ => return 0,
        }
        chars
            .find(|&(_, c)| !(c.is_alphanumeric() || c == '_' || self.ident_extra.contains(&c)))
            .map_or(s.len(), |(i, _)| i)
    }

    /// Whether all of `s` is one identifier.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        let n = self.ident_len(s);
        n > 0 && n == s.len()
    }
}

/// A cursor over one input in one [`Syntax`]. Every token reader skips
/// whitespace and comments first.
pub struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    last_end: usize,
    depth: usize,
    syntax: Syntax,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str, syntax: Syntax) -> Self {
        Lexer {
            src,
            pos: 0,
            last_end: 0,
            depth: 0,
            syntax,
        }
    }

    /// Byte offset of the cursor.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// End of the last token consumed, before any whitespace skipped since.
    #[inline]
    pub fn last_end(&self) -> usize {
        self.last_end
    }

    #[inline]
    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// An error at the cursor.
    pub fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn bump(&mut self, len: usize) {
        self.pos += len;
        self.last_end = self.pos;
    }

    /// Skip whitespace and line comments.
    #[inline]
    pub fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let t = r.trim_start();
            self.pos += r.len() - t.len();
            if !self.syntax.comments.iter().any(|c| starts_with(t, c)) {
                break;
            }
            self.pos = t.find('\n').map_or(self.src.len(), |i| self.pos + i + 1);
        }
    }

    /// Whether only whitespace and comments are left.
    #[inline]
    pub fn at_end(&mut self) -> bool {
        self.skip_ws();
        self.pos == self.src.len()
    }

    /// The next character, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    /// Consume `tok` if the input continues with it.
    #[inline]
    pub fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        let hit = starts_with(self.rest(), tok);
        if hit {
            self.bump(tok.len());
        }
        hit
    }

    /// Consume `tok`, or fail with "expected 'tok'".
    pub fn require(&mut self, tok: &str) -> Result<(), ParseError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{tok}'")))
        }
    }

    /// Consume an identifier, if one comes next.
    #[inline]
    pub fn ident(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let r = self.rest();
        let len = self.syntax.ident_len(r);
        if len == 0 {
            return None;
        }
        self.bump(len);
        Some(&r[..len])
    }

    /// Consume the identifier `kw` if it comes next; otherwise consume
    /// nothing.
    #[inline]
    pub fn keyword(&mut self, kw: &str) -> bool {
        let saved = (self.pos, self.last_end);
        if self.ident() == Some(kw) {
            return true;
        }
        (self.pos, self.last_end) = saved;
        false
    }

    /// Consume the identifier `kw`, or fail with "expected keyword 'kw'".
    pub fn require_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    /// A token between two `quote`s — `"…"` is a string, `'…'` a quoted
    /// symbol — with the escapes `\n \t \r \0 \\ \" \'` and `\u{HEX}`.
    /// Any other character, raw control characters included, stands for
    /// itself. `quote` is `"` or `'`.
    pub fn quoted(&mut self, quote: char) -> Result<String, ParseError> {
        self.skip_ws();
        if !self.rest().starts_with(quote) {
            return Err(self.err(format!("expected '{quote}'")));
        }
        self.pos += 1;
        let body = self.rest();
        // The quote and `\` are ASCII, and no byte of a multi-byte
        // character is, so the scan goes by bytes.
        let stops = [quote as u8, b'\\'];
        let mut out = String::new();
        let mut i = 0;
        loop {
            let Some(k) = body.as_bytes()[i..].iter().position(|b| stops.contains(b)) else {
                let what = if quote == '"' {
                    "string literal"
                } else {
                    "quoted symbol"
                };
                return Err(self.err(format!("unterminated {what}")));
            };
            out.push_str(&body[i..i + k]);
            i += k;
            if body[i..].starts_with(quote) {
                self.bump(i + 1);
                return Ok(out);
            }
            match unescape(&body[i + 1..]) {
                Ok((c, len)) => {
                    out.push(c);
                    i += 1 + len;
                }
                Err(message) => {
                    return Err(ParseError {
                        at: self.pos + i,
                        message,
                    })
                }
            }
        }
    }

    /// The literal's number rule: an optional sign, then digits; a `.` or
    /// an exponent (`e`/`E`, itself optionally signed) makes it a real.
    pub fn number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let b = self.rest().as_bytes();
        let mut end = 0;
        let mut real = false;
        while let Some(&c) = b.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'-' | b'+' if end == 0 => {}
                b'.' | b'e' | b'E' => real = true,
                b'-' | b'+' if real && (b[end - 1] | 0x20) == b'e' => {}
                _ => break,
            }
            end += 1;
        }
        self.number_token(end, real)
    }

    /// The path-safe number rule of queries, rewrites and datalog: an
    /// optional `-`, then digits, where a `.` belongs to the number only
    /// before a digit (`db.Year.1942 X` keeps the dot before `X` a path
    /// separator). There is no exponent: `db.a.1e5 X` is the step `1`
    /// followed by the step `e5`.
    pub fn path_number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let b = self.rest().as_bytes();
        let mut end = usize::from(b.first() == Some(&b'-'));
        let mut real = false;
        while let Some(&c) = b.get(end) {
            match c {
                b'0'..=b'9' => {}
                b'.' if b.get(end + 1).is_some_and(u8::is_ascii_digit) => real = true,
                _ => break,
            }
            end += 1;
        }
        self.number_token(end, real)
    }

    /// Consume the `len`-byte number token at the cursor.
    fn number_token(&mut self, len: usize, real: bool) -> Result<Value, ParseError> {
        if len == 0 {
            return Err(self.err("expected number"));
        }
        let text = &self.rest()[..len];
        self.bump(len);
        if real {
            text.parse()
                .map(Value::Real)
                .map_err(|_| self.err(format!("bad real literal '{text}'")))
        } else {
            text.parse()
                .map(Value::Int)
                .map_err(|_| self.err(format!("bad int literal '{text}'")))
        }
    }

    /// Enter one level of grammar nesting, failing with SSD110 beyond
    /// [`MAX_PARSE_DEPTH`]. Pair with [`Lexer::leave`].
    pub fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err(depth_message()));
        }
        Ok(())
    }

    /// Leave the level [`Lexer::enter`] entered.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }
}

/// `s.starts_with(tok)`, with the first byte compared inline: most tokens
/// are one byte long, and a byte compare is cheaper than the call.
#[inline]
fn starts_with(s: &str, tok: &str) -> bool {
    match tok.as_bytes() {
        [b] => s.as_bytes().first() == Some(b),
        _ => s.starts_with(tok),
    }
}

/// Decode the escape after a `\`: the character and the bytes it spans.
fn unescape(s: &str) -> Result<(char, usize), String> {
    let Some(c) = s.chars().next() else {
        return Err("unterminated escape".into());
    };
    let decoded = match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        '\\' | '"' | '\'' => c,
        'u' => {
            let hex = s[1..]
                .strip_prefix('{')
                .and_then(|h| h.split_once('}'))
                .map(|(h, _)| h)
                .filter(|h| (1..=6).contains(&h.len()) && h.bytes().all(|b| b.is_ascii_hexdigit()));
            return match hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)) {
                Some(u) => Ok((u, hex.map_or(0, str::len) + 3)),
                None => Err("bad unicode escape".into()),
            };
        }
        other => return Err(format!("bad escape '\\{other}'")),
    };
    Ok((decoded, 1))
}

/// Write `s` between `quote`s so that [`Lexer::quoted`] reads it back:
/// printable ASCII stands for itself, and every other character as
/// [`char::escape_debug`] writes it (the other quote character stays raw).
/// With `"` this is exactly Rust's `{:?}` of a `str`.
pub fn write_quoted(out: &mut impl fmt::Write, s: &str, quote: char) -> fmt::Result {
    out.write_char(quote)?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        if (' '..='~').contains(&c) && c != quote && c != '\\' {
            continue;
        }
        out.write_str(&s[plain..i])?;
        write!(out, "{}", c.escape_debug())?;
        plain = i + c.len_utf8();
    }
    out.write_str(&s[plain..])?;
    out.write_char(quote)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted_back(text: &str, quote: char) -> String {
        Lexer::new(text, LITERAL).quoted(quote).unwrap()
    }

    #[test]
    fn every_escape_reads_back() {
        let s = "q\"s'b\\n\nt\tr\r0\0c\u{1}d\u{7f}e\u{200b}é\u{301}";
        for quote in ['"', '\''] {
            let mut text = String::new();
            write_quoted(&mut text, s, quote).unwrap();
            assert_eq!(quoted_back(&text, quote), s, "{text}");
        }
        assert_eq!(quoted_back(r#""\u{48}\u{10FFFF}\'""#, '"'), "H\u{10FFFF}'");
    }

    #[test]
    fn the_double_quoted_form_is_the_debug_form() {
        for s in [
            "plain",
            "a\"b'c\\",
            "\r\n\t\0\u{1b}",
            "é\u{301}\u{200b}\u{fffe}",
        ] {
            let mut text = String::new();
            write_quoted(&mut text, s, '"').unwrap();
            assert_eq!(text, format!("{s:?}"));
        }
    }

    #[test]
    fn bad_escapes_point_at_the_backslash() {
        for (text, at, message) in [
            (r#""ab\q""#, 3, "bad escape '\\q'"),
            ("\"ab\\", 3, "unterminated escape"),
            (r#""\u{110000}""#, 1, "bad unicode escape"),
            (r#""\u{+41}""#, 1, "bad unicode escape"),
            (r#""\u{}""#, 1, "bad unicode escape"),
            (r#""\u41""#, 1, "bad unicode escape"),
            ("\"abc", 1, "unterminated string literal"),
        ] {
            let e = Lexer::new(text, LITERAL).quoted('"').unwrap_err();
            assert_eq!((e.at, e.message.as_str()), (at, message), "{text}");
        }
    }

    #[test]
    fn identifiers_follow_the_syntax() {
        assert!(LITERAL.is_ident("first-name"));
        assert!(!QUERY.is_ident("first-name"));
        for s in ["", "2nd", "first name", "-x", "a.b"] {
            assert!(!LITERAL.is_ident(s), "{s}");
        }
        assert!(LITERAL.is_ident("_été"));
    }

    #[test]
    fn the_two_number_rules() {
        let lit = |s| Lexer::new(s, LITERAL).number().unwrap();
        let path = |s| Lexer::new(s, QUERY).path_number().unwrap();
        assert_eq!(lit("1e15"), Value::Real(1e15));
        assert_eq!(lit("-2.5E-1"), Value::Real(-0.25));
        assert_eq!(lit("+7"), Value::Int(7));
        assert_eq!(path("1e5"), Value::Int(1));
        assert_eq!(path("1942.X"), Value::Int(1942));
        assert_eq!(path("-1.5.x"), Value::Real(-1.5));
    }

    #[test]
    fn comments_are_data() {
        let mut lx = Lexer::new("% a\n# b\n-- c", DATALOG);
        assert_eq!(lx.peek(), Some('-'));
        let mut lx = Lexer::new("-- c\n # d", QUERY);
        assert_eq!(lx.peek(), Some('#'));
        assert!(Lexer::new("# x\n  # y", LITERAL).at_end());
    }

    #[test]
    fn depth_is_bounded() {
        let mut lx = Lexer::new("", QUERY);
        for _ in 0..MAX_PARSE_DEPTH {
            lx.enter().unwrap();
        }
        assert!(lx.enter().unwrap_err().message.contains("SSD110"));
    }
}
