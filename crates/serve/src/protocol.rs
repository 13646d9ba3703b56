//! The wire protocol: length-prefixed UTF-8 frames carrying one command
//! or one response each.
//!
//! A frame is `SSD <len>\n` followed by exactly `len` payload bytes.
//! The header is ASCII so the protocol is easy to speak from `nc` or a
//! test script; the length prefix (rather than line termination) lets
//! payloads — query texts, literal chunks — contain newlines freely.
//! Frames are capped at [`MAX_FRAME`]; an oversized header is a hard
//! error so a malicious length can never cause an allocation.
//!
//! Command payloads are a verb, then arguments:
//!
//! ```text
//! HELLO fuel=10000 memory=1048576 jobs=2 job-fuel=5000 job-memory=65536
//! QUERY select T from db.Entry.%.Title T
//! DATALOG reach(X) :- ...
//! RPE Entry.%.Title        (one path expression, run as `select X from db.<rpe> X`)
//! INSERT {Movie: {Title: "Z"}}   (stage: union this literal at the root)
//! DELETE Movie                   (stage: drop edges labeled `Movie`)
//! COMMIT                         (submit the staged batch as one txn)
//! CANCEL 3
//! STATS
//! BYE
//! SHUTDOWN
//! ```
//!
//! `INSERT`/`DELETE` stage operations on the *connection*; nothing is
//! scheduled or written until `COMMIT` submits the batch as one job,
//! which goes through the same admission control as queries and — when
//! the server has a data directory — commits atomically through the
//! write-ahead log. On a server without a store every mutation verb is
//! rejected with SSD403.
//!
//! All parse failures are SSD210 diagnostics, never panics — the fuzz
//! suite in `tests/fuzz_parsers.rs` holds the parser to that.

use ssd_diag::{Code, Diagnostic};

use crate::quota::SessionQuota;

/// Hard cap on a frame payload (1 MiB).
pub const MAX_FRAME: usize = 1024 * 1024;

/// Why a byte sequence is not a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes up to the first newline are not `SSD <decimal>`.
    BadHeader,
    /// The declared length exceeds [`MAX_FRAME`].
    Oversized(usize),
    /// The payload is not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeader => write!(f, "malformed frame header (want `SSD <len>\\n`)"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} byte(s) exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::BadUtf8 => write!(f, "frame payload is not UTF-8"),
        }
    }
}

impl FrameError {
    /// As an SSD210 protocol diagnostic.
    pub fn diagnostic(&self) -> Diagnostic {
        Diagnostic::new(Code::ProtocolError, self.to_string())
    }
}

/// Encode one payload as a frame.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let mut out = format!("SSD {}\n", payload.len()).into_bytes();
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Try to decode one frame from the front of `buf`.
///
/// `Ok(Some((payload, consumed)))` on a complete frame, `Ok(None)` when
/// more bytes are needed (truncated header or payload), `Err` on a
/// malformed or oversized header or non-UTF-8 payload.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(String, usize)>, FrameError> {
    // Header: `SSD <decimal>\n`, at most "SSD 1048576\n" = 12 bytes.
    const MAX_HEADER: usize = 16;
    let Some(nl) = buf.iter().take(MAX_HEADER).position(|&b| b == b'\n') else {
        if buf.len() >= MAX_HEADER {
            return Err(FrameError::BadHeader);
        }
        return Ok(None);
    };
    let header = &buf[..nl];
    let digits = header.strip_prefix(b"SSD ").ok_or(FrameError::BadHeader)?;
    if digits.is_empty() || !digits.iter().all(|b| b.is_ascii_digit()) {
        return Err(FrameError::BadHeader);
    }
    let len: usize = std::str::from_utf8(digits)
        .expect("ascii digits")
        .parse()
        .map_err(|_| FrameError::BadHeader)?;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let start = nl + 1;
    if buf.len() < start + len {
        return Ok(None);
    }
    let payload = std::str::from_utf8(&buf[start..start + len])
        .map_err(|_| FrameError::BadUtf8)?
        .to_string();
    Ok(Some((payload, start + len)))
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Open the session, optionally overriding quota fields.
    Hello(SessionQuota),
    /// Submit a select query.
    Query(String),
    /// Submit a graph-datalog program.
    Datalog(String),
    /// Submit a bare regular path expression.
    Rpe(String),
    /// Stage an INSERT of a graph literal on this connection.
    Insert(String),
    /// Stage a DELETE of a symbol label on this connection.
    Delete(String),
    /// Commit the connection's staged mutations as one transaction.
    Commit,
    /// Cancel a job by id.
    Cancel(u64),
    /// Ask for the metrics block.
    Stats,
    /// Close the session.
    Bye,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Parse one command payload. Errors are SSD210.
pub fn parse_command(payload: &str) -> Result<Command, Diagnostic> {
    parse_command_with(payload, &SessionQuota::default())
}

/// [`parse_command`], but `HELLO` fields override `base` instead of the
/// built-in quota defaults — the seam through which `ssd serve`'s
/// `--session-fuel`/`--job-fuel`/... flags reach new sessions.
pub fn parse_command_with(payload: &str, base: &SessionQuota) -> Result<Command, Diagnostic> {
    let err = |msg: String| Err(Diagnostic::new(Code::ProtocolError, msg));
    let payload = payload.trim();
    let (verb, rest) = match payload.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (payload, ""),
    };
    match verb {
        "HELLO" => parse_hello(rest, base),
        "QUERY" => {
            if rest.is_empty() {
                return err("QUERY needs a query text".to_string());
            }
            Ok(Command::Query(rest.to_string()))
        }
        "DATALOG" => {
            if rest.is_empty() {
                return err("DATALOG needs a program".to_string());
            }
            Ok(Command::Datalog(rest.to_string()))
        }
        "RPE" => {
            if rest.is_empty() {
                return err("RPE needs a path expression".to_string());
            }
            Ok(Command::Rpe(rest.to_string()))
        }
        "INSERT" => {
            if rest.is_empty() {
                return err("INSERT needs a graph literal".to_string());
            }
            Ok(Command::Insert(rest.to_string()))
        }
        "DELETE" => {
            if rest.is_empty() {
                return err("DELETE needs a label name".to_string());
            }
            Ok(Command::Delete(rest.to_string()))
        }
        "COMMIT" => {
            if !rest.is_empty() {
                return err(format!("COMMIT takes no arguments, got `{rest}`"));
            }
            Ok(Command::Commit)
        }
        "CANCEL" => match rest.parse::<u64>() {
            Ok(id) => Ok(Command::Cancel(id)),
            Err(_) => err(format!("CANCEL needs a numeric job id, got `{rest}`")),
        },
        "STATS" => Ok(Command::Stats),
        "BYE" => Ok(Command::Bye),
        "SHUTDOWN" => Ok(Command::Shutdown),
        "" => err("empty command".to_string()),
        other => err(format!("unknown verb `{other}`")),
    }
}

/// `HELLO [fuel=N] [memory=N] [jobs=N] [job-fuel=N] [job-memory=N]`.
fn parse_hello(rest: &str, base: &SessionQuota) -> Result<Command, Diagnostic> {
    let mut quota = base.clone();
    for field in rest.split_whitespace() {
        let Some((key, value)) = field.split_once('=') else {
            return Err(Diagnostic::new(
                Code::ProtocolError,
                format!("HELLO field `{field}` is not key=value"),
            ));
        };
        let n: u64 = value.parse().map_err(|_| {
            Diagnostic::new(
                Code::ProtocolError,
                format!("HELLO field `{key}` needs a number, got `{value}`"),
            )
        })?;
        match key {
            "fuel" => quota.fuel = Some(n),
            "memory" => quota.memory = Some(n),
            "jobs" => quota.max_concurrent = (n as usize).max(1),
            "job-fuel" => quota.job_fuel = n,
            "job-memory" => quota.job_memory = n,
            other => {
                return Err(Diagnostic::new(
                    Code::ProtocolError,
                    format!("unknown HELLO field `{other}`"),
                ))
            }
        }
    }
    Ok(Command::Hello(quota))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let f = encode_frame("QUERY select T from db.T T\nwith a newline");
        let (payload, consumed) = decode_frame(&f).unwrap().unwrap();
        assert_eq!(consumed, f.len());
        assert!(payload.contains("newline"));
        // Trailing bytes of the next frame are not consumed.
        let mut two = f.clone();
        two.extend_from_slice(&encode_frame("STATS"));
        let (_, consumed) = decode_frame(&two).unwrap().unwrap();
        assert_eq!(consumed, f.len());
    }

    #[test]
    fn truncated_frames_want_more_bytes() {
        assert_eq!(decode_frame(b"SS"), Ok(None));
        assert_eq!(decode_frame(b"SSD 10\nabc"), Ok(None));
    }

    #[test]
    fn bad_and_oversized_headers_are_errors() {
        assert_eq!(
            decode_frame(b"GET / HTTP/1.0\n"),
            Err(FrameError::BadHeader)
        );
        assert_eq!(decode_frame(b"SSD x\n"), Err(FrameError::BadHeader));
        assert_eq!(decode_frame(b"SSD \n"), Err(FrameError::BadHeader));
        assert_eq!(
            decode_frame(b"SSD 99999999\n"),
            Err(FrameError::Oversized(99_999_999))
        );
        // A header that never terminates is rejected, not buffered forever.
        assert_eq!(decode_frame(&[b'A'; 32]), Err(FrameError::BadHeader));
        assert_eq!(decode_frame(b"SSD 2\n\xff\xfe"), Err(FrameError::BadUtf8));
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_command("QUERY select T from db.T T"),
            Ok(Command::Query("select T from db.T T".to_string()))
        );
        assert!(matches!(parse_command("STATS"), Ok(Command::Stats)));
        assert!(matches!(parse_command("CANCEL 7"), Ok(Command::Cancel(7))));
        assert_eq!(
            parse_command("INSERT {Movie: {Title: \"Z\"}}"),
            Ok(Command::Insert("{Movie: {Title: \"Z\"}}".to_string()))
        );
        assert_eq!(
            parse_command("DELETE Movie"),
            Ok(Command::Delete("Movie".to_string()))
        );
        assert!(matches!(parse_command("COMMIT"), Ok(Command::Commit)));
        let Ok(Command::Hello(q)) = parse_command("HELLO fuel=100 jobs=3") else {
            panic!("HELLO should parse");
        };
        assert_eq!(q.fuel, Some(100));
        assert_eq!(q.max_concurrent, 3);
    }

    #[test]
    fn queryopt_is_an_unknown_verb() {
        // The engine picks the plan; no verb asks for one.
        let retired = parse_command("QUERYOPT select T from db.T T").unwrap_err();
        let unknown = parse_command("FROB select T from db.T T").unwrap_err();
        assert_eq!(retired.code, Code::ProtocolError);
        assert_eq!(retired.message, unknown.message.replace("FROB", "QUERYOPT"));
    }

    #[test]
    fn bad_commands_are_ssd210() {
        for bad in [
            "",
            "FROB x",
            "CANCEL x",
            "HELLO fuel",
            "HELLO fuel=abc",
            "QUERY",
            "INSERT",
            "DELETE",
            "COMMIT now",
        ] {
            let d = parse_command(bad).unwrap_err();
            assert_eq!(d.code, Code::ProtocolError, "{bad}");
        }
    }
}
