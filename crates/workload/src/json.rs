//! A minimal JSON reader — just enough for the repo benchmark to check
//! `BENCHMARK.json` against what it reports. No serializer dependency,
//! no writer.

/// A parsed JSON value. Numbers keep their source text so integer
/// comparisons are exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// Navigate object keys; `Null` for anything missing.
    pub fn path(&self, keys: &[&str]) -> &Json {
        let mut cur = self;
        for k in keys {
            let Json::Obj(fields) = cur else {
                return &Json::Null;
            };
            match fields.iter().find(|(name, _)| name == k) {
                Some((_, v)) => cur = v,
                None => return &Json::Null,
            }
        }
        cur
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'x' | b'a'..=b'f' | b'A'..=b'F')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected byte at offset {pos}"));
            }
            Ok(Json::Num(
                std::str::from_utf8(&b[start..*pos])
                    .map_err(|e| e.to_string())?
                    .to_string(),
            ))
        }
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(s);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through untouched.
                let ch_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or_else(|| "truncated UTF-8".to_string())?;
                s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_shapes() {
        let j = Json::parse(
            r#"{"experiment": "E21", "schema_version": 1,
                "scenarios": [{"name": "rpe3", "p99_us": 1200}],
                "ok": true, "none": null, "f": "0x00ff"}"#,
        )
        .unwrap();
        assert_eq!(j.path(&["experiment"]).as_str(), Some("E21"));
        assert_eq!(j.path(&["schema_version"]).as_u64(), Some(1));
        let rows = j.path(&["scenarios"]).as_array();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].path(&["p99_us"]).as_u64(), Some(1200));
        assert_eq!(*j.path(&["missing", "deep"]), Json::Null);
        assert_eq!(*j.path(&["ok"]), Json::Bool(true));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let j = Json::parse(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(j.path(&["s"]).as_str(), Some("a\"b\\c\ndA"));
    }
}
