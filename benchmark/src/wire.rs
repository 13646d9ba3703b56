//! The client side of the wire protocol: frames in and out with
//! `ssd_serve::protocol::{encode_frame, decode_frame}`, replies gathered
//! per job, and every reply checked against the oracle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use ssd_serve::protocol::{decode_frame, encode_frame};

use crate::input::{Class, Inputs, Op};
use crate::oracle::{hash_str, Oracle};

/// A hung server turns into a failed op, not a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// Buffered frame reader over one connection's read half.
pub struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Start of the bytes not yet decoded.
    pos: usize,
}

impl FrameReader {
    /// Block for the next frame's payload.
    pub fn next(&mut self) -> Result<String, String> {
        loop {
            match decode_frame(&self.buf[self.pos..]) {
                Ok(Some((payload, used))) => {
                    self.pos += used;
                    return Ok(payload);
                }
                Ok(None) => {}
                Err(e) => return Err(format!("bad frame from server: {e}")),
            }
            // Compact before reading more, so the buffer stays bounded
            // without shifting it once per frame.
            self.buf.drain(..self.pos);
            self.pos = 0;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read from server: {e}")),
            }
        }
    }
}

pub fn send(stream: &mut TcpStream, payload: &str) -> Result<(), String> {
    stream
        .write_all(&encode_frame(payload))
        .map_err(|e| format!("write to server: {e}"))
}

/// Open a connection and its session. Returns the write half and the
/// frame reader over the read half.
pub fn connect(addr: SocketAddr) -> Result<(TcpStream, FrameReader), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = FrameReader {
        stream,
        buf: Vec::with_capacity(128 * 1024),
        pos: 0,
    };
    send(&mut writer, "HELLO")?;
    let hello = reader.next()?;
    if !hello.starts_with("OK session") {
        return Err(format!("HELLO answered `{hello}`"));
    }
    Ok((writer, reader))
}

/// One server frame, by what the driver must do with it.
pub enum Frame<'a> {
    /// A job-starting command was admitted as this job.
    Admitted(u64),
    /// A staging command (`INSERT`/`DELETE`) was accepted.
    Staged,
    /// A command was refused or rejected; the op it belongs to is over.
    Refused(&'a str),
    Chunk(u64, &'a str),
    Done(u64, &'a str),
    Failed(u64, &'a str),
}

pub fn classify(payload: &str) -> Result<Frame<'_>, String> {
    let bad = || {
        format!(
            "unexpected frame `{}`",
            payload.lines().next().unwrap_or("")
        )
    };
    if let Some(rest) = payload.strip_prefix("OK job=") {
        let id = rest.split(' ').next().and_then(|n| n.parse().ok());
        return id.map(Frame::Admitted).ok_or_else(bad);
    }
    if payload.starts_with("OK staged") {
        return Ok(Frame::Staged);
    }
    if let Some(rest) = payload.strip_prefix("ERR ") {
        return Ok(Frame::Refused(rest));
    }
    let rest = payload.strip_prefix("JOB ").ok_or_else(bad)?;
    let (id, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let id: u64 = id.parse().map_err(|_| bad())?;
    if let Some(body) = rest.strip_prefix("CHUNK\n") {
        Ok(Frame::Chunk(id, body))
    } else if let Some(summary) = rest.strip_prefix("DONE ") {
        Ok(Frame::Done(id, summary))
    } else if let Some(error) = rest.strip_prefix("ERR ") {
        Ok(Frame::Failed(id, error))
    } else {
        Err(bad())
    }
}

/// Everything one job sent back.
#[derive(Debug, Default, Clone)]
pub struct Reply {
    pub chunks: u64,
    /// Payload bytes over all the job's frames.
    pub bytes: u64,
    /// String atoms in the chunks: count and order-independent hash.
    pub strings: u64,
    pub str_hash: u64,
    /// `pred: N tuple(s)` lines of a datalog job, summed.
    pub tuples: u64,
    /// Chunk bodies, kept only for the classes checked structurally.
    pub bodies: Vec<String>,
    pub summary: String,
    pub error: Option<String>,
}

impl Reply {
    pub fn refused(reason: &str) -> Reply {
        Reply {
            error: Some(reason.to_string()),
            ..Reply::default()
        }
    }

    pub fn chunk(&mut self, class: Class, body: &str) {
        self.chunks += 1;
        match class {
            Class::Closure | Class::Reach => {
                for line in body.lines() {
                    let n = line
                        .split_once(": ")
                        .and_then(|(_, rest)| rest.split(' ').next())
                        .and_then(|n| n.parse::<u64>().ok());
                    self.tuples += n.unwrap_or(0);
                }
            }
            Class::Recent => self.bodies.push(body.to_string()),
            _ => {
                // The generated strings hold no quotes or escapes, so
                // atoms are exactly the spans between quote pairs.
                let mut parts = body.split('"');
                parts.next();
                while let (Some(atom), Some(_)) = (parts.next(), parts.next()) {
                    self.strings += 1;
                    self.str_hash = self.str_hash.wrapping_add(hash_str(atom));
                }
            }
        }
    }

    fn summary_field(&self, key: &str) -> Option<u64> {
        self.summary
            .split(' ')
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
            .and_then(|v| v.parse().ok())
    }

    /// Assignments a select reports having constructed.
    pub fn results(&self) -> Option<u64> {
        self.summary_field("results")
    }

    /// The generation a commit reply acknowledges.
    pub fn generation(&self) -> Option<u64> {
        self.summary
            .strip_prefix("committed ")
            .and_then(|_| self.summary_field("generation"))
    }
}

/// The context replies are checked in.
pub struct Checker<'a> {
    pub inputs: &'a Inputs,
    pub oracle: &'a Oracle,
}

impl Checker<'_> {
    /// `Err` says what was wrong with the reply to `op`.
    pub fn check(&self, op: &Op, reply: &Reply) -> Result<(), String> {
        if let Some(e) = &reply.error {
            return Err(format!("{} failed: {e}", op.class.name()));
        }
        if reply.summary.ends_with(" truncated") {
            return Err(format!("{} was truncated", op.class.name()));
        }
        if let Some(want) = self.oracle.expect(op, &self.inputs.cfg) {
            let got_results = if op.class.is_select() {
                reply.results()
            } else {
                Some(reply.tuples)
            };
            if got_results != Some(want.results)
                || reply.strings != want.strings
                || reply.str_hash != want.str_hash
            {
                return Err(format!(
                    "{} answered results={got_results:?} strings={} hash={:#x}, \
                     the graph walk says results={} strings={} hash={:#x}",
                    op.class.name(),
                    reply.strings,
                    reply.str_hash,
                    want.results,
                    want.strings,
                    want.str_hash
                ));
            }
            return Ok(());
        }
        match op.class {
            Class::Commit => reply
                .generation()
                .map(|_| ())
                .ok_or_else(|| format!("commit answered `{}`", reply.summary)),
            _ => self.check_recent(reply),
        }
    }

    /// A txn inserts `Seq` and `Tag` together, so a reader that sees a
    /// `Run` subtree with one but not the other saw a partial txn.
    fn check_recent(&self, reply: &Reply) -> Result<(), String> {
        let tag = self.inputs.tag();
        let mut runs = 0u64;
        for body in &reply.bodies {
            let g = ssd_graph::literal::parse_graph(body)
                .map_err(|e| format!("recent-keys chunk does not parse: {e}"))?;
            for run in g.edges(g.root()) {
                runs += 1;
                let seqs = g.successors_by_name(run.to, "Seq");
                let tags = g.successors_by_name(run.to, "Tag");
                let tag_ok = tags.len() == 1
                    && g.atomic_value(tags[0]).and_then(|v| v.as_str()) == Some(tag.as_str());
                if seqs.len() != 1 || !tag_ok {
                    return Err(format!("partial txn visible: a Run subtree in `{body}`"));
                }
            }
        }
        if reply.results() != Some(runs) {
            return Err(format!(
                "recent-keys read says `{}` but its chunks hold {runs} Run subtree(s)",
                reply.summary
            ));
        }
        Ok(())
    }
}

/// A closed-loop client: one connection, one op in flight.
pub struct Client {
    writer: TcpStream,
    reader: FrameReader,
    /// When set, every payload received is also kept here (the traced
    /// run times the codec on them).
    pub keep_frames: Option<Vec<String>>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let (writer, reader) = connect(addr)?;
        Ok(Client {
            writer,
            reader,
            keep_frames: None,
        })
    }

    /// Issue `op` and gather its reply. `Err` is a broken connection or
    /// protocol; a refused or failed job is an `Ok` reply with `error`.
    pub fn call(&mut self, op: &Op) -> Result<Reply, String> {
        let frames = op.frames();
        for f in &frames {
            send(&mut self.writer, f)?;
        }
        let mut refused: Option<String> = None;
        let mut job = None;
        for _ in &frames {
            let payload = self.reader.next()?;
            match classify(&payload)? {
                Frame::Staged => {}
                Frame::Admitted(id) => job = Some(id),
                Frame::Refused(why) => refused = Some(why.to_string()),
                _ => return Err(format!("expected an acknowledgement, got `{payload}`")),
            }
        }
        let Some(job) = job else {
            return Ok(Reply::refused(
                refused.as_deref().unwrap_or("no job was started"),
            ));
        };
        let mut reply = Reply::default();
        loop {
            let payload = self.reader.next()?;
            reply.bytes += payload.len() as u64;
            let done = match classify(&payload)? {
                Frame::Chunk(id, body) if id == job => {
                    reply.chunk(op.class, body);
                    false
                }
                Frame::Done(id, summary) if id == job => {
                    reply.summary = summary.to_string();
                    true
                }
                Frame::Failed(id, error) if id == job => {
                    reply.error = Some(error.to_string());
                    true
                }
                _ => return Err(format!("frame for another job: `{payload}`")),
            };
            if let Some(kept) = &mut self.keep_frames {
                kept.push(payload);
            }
            if done {
                return Ok(reply);
            }
        }
    }
}
