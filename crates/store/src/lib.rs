//! Crash-safe durable mutations for a semistructured [`Database`].
//!
//! The paper's model (Buneman, PODS '97 §2) treats a database as an
//! edge-labeled rooted graph; queries never mutate it. This crate adds the
//! missing half — durable INSERT/DELETE transactions — without giving up
//! the read side's immutability:
//!
//! * **Write-ahead log.** Every transaction is appended to `wal.log` as
//!   length-prefixed, CRC-32-checksummed, strictly-sequenced frames (see
//!   [`wal`]), terminated by a COMMIT frame, and fsynced before the commit
//!   is acknowledged. A commit that returns `Ok` is durable; a commit that
//!   returns `Err` leaves the on-disk log equivalent to some prefix of
//!   acknowledged commits.
//! * **Snapshot isolation via generation swap.** The current database is
//!   an `Arc<Database>` behind a mutex. [`Store::snapshot`] clones the
//!   `Arc` — readers pin a *generation* and are never blocked or mutated
//!   under them; a commit clones the pinned generation's graph once,
//!   applies every op of the txn to that copy in place, and swaps the
//!   `Arc` at the end. [`Database::generation`] names the generation
//!   (the committed-transaction count).
//! * **Recovery.** [`Store::open`] replays the log over `base.ssd` in
//!   place, on the one graph it parses from it, with no copy per op. It
//!   verifies every checksum and sequence number, truncates any torn or
//!   uncommitted tail, and reports what it did as SSD4xx diagnostics
//!   (SSD400 tail truncated, SSD401 checksum/sequence corruption, SSD402
//!   replay summary). After any I/O failure the store poisons itself
//!   read-only (SSD403) — the only safe way forward is to reopen and
//!   recover, exactly as a crashed process would.
//! * **Fault injection.** The same one-shot/N:M fail-point machinery the
//!   evaluator [`Guard`](ssd_guard) uses (`SSD_FAILPOINTS`-style specs,
//!   [`ssd_guard::FailPoint`]) drives deterministic I/O faults at the
//!   seams `wal.write`, `wal.torn`, `wal.short`, `wal.fsync`, and
//!   `wal.read`, so recovery is provable under a seeded crash matrix
//!   rather than hoped-for.

mod crc32;
pub mod wal;

pub use crc32::crc32;

use semistructured::graph::literal::parse_graph;
use semistructured::{delete_edges_in_place, Database, Graph, Pred};
use ssd_diag::{Code, Diagnostic};
use ssd_guard::{fail_point_fires, Budget, FailPoint};
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The immutable base image: a graph literal the log replays over.
pub const BASE_FILE: &str = "base.ssd";
/// The write-ahead log of committed transactions.
pub const WAL_FILE: &str = "wal.log";

/// One mutation inside a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Union a graph literal at the root.
    Insert(String),
    /// Delete every edge whose label is this symbol.
    Delete(String),
}

impl Op {
    /// The WAL frame kind for this op.
    pub fn kind(&self) -> u8 {
        match self {
            Op::Insert(_) => wal::KIND_INSERT,
            Op::Delete(_) => wal::KIND_DELETE,
        }
    }

    /// The WAL frame body for this op.
    pub fn body(&self) -> &str {
        match self {
            Op::Insert(s) | Op::Delete(s) => s,
        }
    }
}

/// An ordered batch of mutations applied atomically by [`Store::commit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Txn {
    ops: Vec<Op>,
}

impl Txn {
    pub fn new() -> Txn {
        Txn::default()
    }

    /// Stage an INSERT of a graph literal.
    #[must_use]
    pub fn insert(mut self, literal: &str) -> Txn {
        self.ops.push(Op::Insert(literal.to_string()));
        self
    }

    /// Stage a DELETE of all edges labeled with the symbol.
    #[must_use]
    pub fn delete(mut self, label: &str) -> Txn {
        self.ops.push(Op::Delete(label.to_string()));
        self
    }

    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Total body bytes across the ops — the input to write cost models.
    pub fn body_bytes(&self) -> u64 {
        self.ops.iter().map(|op| op.body().len() as u64).sum()
    }

    /// Serialize as a length-prefixed script: one `VERB <len>\n<body>\n`
    /// record per op. Length-prefixing (rather than line-splitting) lets
    /// INSERT bodies contain newlines, which multi-line graph literals do.
    pub fn to_script(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let verb = match op {
                Op::Insert(_) => "INSERT",
                Op::Delete(_) => "DELETE",
            };
            let body = op.body();
            out.push_str(verb);
            out.push(' ');
            out.push_str(&body.len().to_string());
            out.push('\n');
            out.push_str(body);
            out.push('\n');
        }
        out
    }

    /// Parse the [`Txn::to_script`] format.
    pub fn parse_script(text: &str) -> Result<Txn, String> {
        let mut txn = Txn::new();
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let line_end = bytes[pos..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| pos + i)
                .ok_or_else(|| "truncated op header: missing newline".to_string())?;
            let header = text
                .get(pos..line_end)
                .ok_or_else(|| "op header is not valid UTF-8".to_string())?;
            let (verb, len_text) = header
                .split_once(' ')
                .ok_or_else(|| format!("bad op header `{header}`: want `VERB <len>`"))?;
            let len: usize = len_text
                .trim()
                .parse()
                .map_err(|_| format!("bad op length `{len_text}`"))?;
            let body_start = line_end + 1;
            let left = bytes.len() - body_start;
            if len > left {
                return Err(format!(
                    "truncated op body: header declares {len} byte(s), {left} left in the script"
                ));
            }
            let body = text
                .get(body_start..body_start + len)
                .ok_or_else(|| "op body splits a UTF-8 character".to_string())?;
            match verb {
                "INSERT" => txn.ops.push(Op::Insert(body.to_string())),
                "DELETE" => txn.ops.push(Op::Delete(body.to_string())),
                _ => return Err(format!("unknown verb `{verb}`: want INSERT or DELETE")),
            }
            pos = body_start + len;
            if bytes.get(pos) == Some(&b'\n') {
                pos += 1;
            } else if pos < bytes.len() {
                return Err("op body not followed by a newline".to_string());
            }
        }
        Ok(txn)
    }
}

/// Validate an INSERT body without applying it.
pub fn validate_insert(literal: &str) -> Result<(), String> {
    Database::from_literal(literal).map(|_| ())
}

/// Validate a DELETE body without applying it.
pub fn validate_delete(label: &str) -> Result<(), String> {
    if label.trim().is_empty() {
        return Err("DELETE needs a non-empty label name".to_string());
    }
    Ok(())
}

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure; the store is now read-only.
    Io(String),
    /// The store was poisoned by an earlier failure (SSD403); the payload
    /// is the original reason.
    ReadOnly(String),
    /// The transaction itself is malformed (bad literal, empty batch).
    Invalid(String),
    /// An injected fault fired at this site; the store is now read-only.
    Fault(String),
    /// `dir` has no `base.ssd`; call [`Store::init`] first.
    NotInitialized(String),
}

impl StoreError {
    /// The SSD diagnostic for errors that carry one (SSD403 for
    /// read-only rejection, SSD106 for an injected fault).
    pub fn diagnostic(&self) -> Option<Diagnostic> {
        match self {
            StoreError::ReadOnly(reason) => Some(Diagnostic::new(
                Code::ReadOnlyStore,
                format!("store is read-only: {reason}"),
            )),
            StoreError::Fault(site) => Some(Diagnostic::new(
                Code::FaultInjected,
                format!("injected fault at '{site}' (testing only)"),
            )),
            _ => None,
        }
    }

    /// A one-line rendering: the diagnostic headline when there is a
    /// code, a plain `error: ...` otherwise.
    pub fn headline(&self) -> String {
        match self.diagnostic() {
            Some(d) => d.headline(),
            None => format!("error: {self}"),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "wal I/O failure: {m}"),
            StoreError::ReadOnly(r) => write!(f, "store is read-only: {r}"),
            StoreError::Invalid(m) => f.write_str(m),
            StoreError::Fault(site) => write!(f, "injected fault at '{site}'"),
            StoreError::NotInitialized(dir) => {
                write!(f, "no store at {dir}: missing {BASE_FILE}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`Store::open`] found and did. `diagnostics` holds the SSD4xx
/// band: SSD400 when a tail was truncated, SSD401 when the cause was
/// checksum/sequence corruption, and always one SSD402 replay note.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Committed transactions replayed over the base image.
    pub txns_replayed: u64,
    /// Valid frames inside the committed prefix.
    pub frames: u64,
    /// Bytes discarded from the tail (0 on a clean log).
    pub truncated_bytes: u64,
    /// Generation of the recovered database (== `txns_replayed`).
    pub generation: u64,
    pub diagnostics: Vec<Diagnostic>,
}

/// What a successful [`Store::commit`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitInfo {
    /// Generation now visible to new snapshots.
    pub generation: u64,
    /// Sequence number of the COMMIT frame.
    pub seq: u64,
    /// Ops in the transaction.
    pub ops: usize,
    /// WAL bytes appended (ops + commit frame, framing included).
    pub bytes: u64,
}

/// Thread-safe wrapper over the guard's fail-point countdown so the
/// store's I/O seams and [`ssd_guard::Guard::fail_point`] count hits
/// identically from any thread.
#[derive(Debug, Default)]
struct Faults {
    points: Mutex<Vec<FailPoint>>,
}

impl Faults {
    fn from_budget(budget: &Budget) -> Faults {
        Faults {
            points: Mutex::new(budget.fail_points.clone()),
        }
    }

    fn hit(&self, site: &str) -> bool {
        let mut points = self.points.lock().unwrap_or_else(PoisonError::into_inner);
        fail_point_fires(&mut points, site)
    }
}

#[derive(Debug)]
struct WalWriter {
    file: std::fs::File,
    /// Logical end of the file as we have written it.
    len: u64,
    /// File length at the last successful fsync. On a write or fsync
    /// failure the file is rolled back here — modeling a crash that
    /// loses everything the page cache had not yet made durable.
    durable_len: u64,
    /// Next frame sequence number.
    next_seq: u64,
    /// Set when the store is poisoned; the reason is reported via SSD403.
    read_only: Option<String>,
}

/// A durable database: WAL + copy-on-write snapshot generations.
///
/// All methods take `&self`; the store is `Sync` and meant to be shared
/// behind an `Arc`. Writers serialize on the WAL mutex; readers only
/// touch the generation mutex for the instant it takes to clone an `Arc`.
pub struct Store {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    current: Mutex<Arc<Database>>,
    faults: Faults,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn io_err(context: &str, e: &std::io::Error) -> StoreError {
    StoreError::Io(format!("{context}: {e}"))
}

/// Apply one WAL op in place to a graph the caller owns (a commit's one
/// copy of its snapshot, or the graph recovery replays on). Both verbs
/// are *id-stable*: surviving nodes keep their ids across the op, so
/// replay, running the same ops on the graph it parses from the base
/// image, rebuilds the very arena the commits published.
fn apply_op(g: &mut Graph, kind: u8, body: &str) -> Result<(), StoreError> {
    match kind {
        wal::KIND_INSERT => {
            let literal = parse_graph(body)
                .map_err(|e| StoreError::Invalid(format!("INSERT literal does not parse: {e}")))?;
            semistructured::graph::ops::union_into_root(g, &literal);
        }
        wal::KIND_DELETE => delete_edges_in_place(g, &Pred::Symbol(body.to_string())),
        other => return Err(StoreError::Invalid(format!("unknown op kind {other}"))),
    }
    Ok(())
}

impl Store {
    /// Create a store layout in `dir`: write the base image and an empty
    /// log, fsyncing both. Fails if `dir` already holds a base image.
    // lint: allow(durability) — init runs before any WAL exists; a crash here loses nothing committed, the caller just re-runs init
    pub fn init(dir: &Path, base: &Database) -> Result<(), StoreError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create data dir", &e))?;
        let base_path = dir.join(BASE_FILE);
        if base_path.exists() {
            return Err(StoreError::Invalid(format!(
                "refusing to overwrite existing store at {}",
                dir.display()
            )));
        }
        let mut f = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&base_path)
            .map_err(|e| io_err("create base image", &e))?;
        f.write_all(base.to_literal().as_bytes())
            .map_err(|e| io_err("write base image", &e))?;
        f.sync_data().map_err(|e| io_err("sync base image", &e))?;
        let wal = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(WAL_FILE))
            .map_err(|e| io_err("create wal", &e))?;
        wal.sync_data().map_err(|e| io_err("sync wal", &e))?;
        Ok(())
    }

    /// Does `dir` hold a store layout?
    pub fn is_initialized(dir: &Path) -> bool {
        dir.join(BASE_FILE).exists()
    }

    /// Open the store in `dir`: parse the base image, scan and replay the
    /// WAL's committed prefix, truncate any torn/corrupt/uncommitted
    /// tail, and position the writer after the last commit. `budget`
    /// supplies fail points (site `wal.read` corrupts the log image as
    /// read, for exercising SSD401).
    pub fn open(dir: &Path, budget: &Budget) -> Result<(Store, RecoveryReport), StoreError> {
        let base_text = match fs::read_to_string(dir.join(BASE_FILE)) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotInitialized(dir.display().to_string()));
            }
            Err(e) => return Err(io_err("read base image", &e)),
        };
        let mut graph = parse_graph(&base_text)
            .map_err(|e| StoreError::Invalid(format!("base image does not parse: {e}")))?;

        let faults = Faults::from_budget(budget);
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = match fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read wal", &e)),
        };
        if faults.hit("wal.read") {
            // Model media corruption surfacing at read time: flip the last
            // byte (the final frame's CRC trailer), which recovery must
            // detect as SSD401 and truncate.
            if let Some(b) = bytes.last_mut() {
                *b ^= 0xFF;
            }
        }

        let scan = wal::scan(&bytes);
        let file_len = bytes.len() as u64;
        let truncated = file_len - scan.committed_len;
        let mut diagnostics = Vec::new();
        if let Some(issue) = &scan.tail {
            match issue {
                wal::TailIssue::Corrupt {
                    at,
                    kind: wal::CorruptKind::Checksum,
                } => diagnostics.push(Diagnostic::new(
                    Code::WalChecksumMismatch,
                    format!("wal frame checksum mismatch at byte {at}"),
                )),
                wal::TailIssue::SeqBreak { at, expected, got } => {
                    diagnostics.push(Diagnostic::new(
                        Code::WalChecksumMismatch,
                        format!(
                            "wal sequence break at byte {at}: expected seq {expected}, found {got}"
                        ),
                    ));
                }
                _ => {}
            }
            let detail = match issue {
                wal::TailIssue::Torn { at } => format!("torn frame at byte {at}"),
                wal::TailIssue::Corrupt { at, kind } => format!("{kind} at byte {at}"),
                wal::TailIssue::SeqBreak { at, .. } => format!("sequence break at byte {at}"),
                wal::TailIssue::Uncommitted { ops } => {
                    format!("{ops} op frame(s) with no COMMIT")
                }
            };
            diagnostics.push(Diagnostic::new(
                Code::WalTornTail,
                format!("wal tail truncated: {truncated} byte(s) discarded ({detail})"),
            ));
        }

        for op in scan.txns.iter().flat_map(|txn| &txn.ops) {
            apply_op(&mut graph, op.kind, &op.body)?;
        }
        let generation = scan.txns.len() as u64;
        let db = Database::new(graph).with_generation(generation);

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err("open wal for append", &e))?;
        let disk_len = file.metadata().map_err(|e| io_err("stat wal", &e))?.len();
        if disk_len > scan.committed_len {
            file.set_len(scan.committed_len)
                .map_err(|e| io_err("truncate wal tail", &e))?;
            file.sync_data().map_err(|e| io_err("sync wal", &e))?;
        }
        file.seek(SeekFrom::Start(scan.committed_len))
            .map_err(|e| io_err("seek wal", &e))?;

        diagnostics.push(Diagnostic::new(
            Code::RecoveryReplayed,
            format!(
                "recovery replayed {} committed transaction(s) ({} frame(s)); generation {}",
                scan.txns.len(),
                scan.frames,
                generation
            ),
        ));
        let report = RecoveryReport {
            txns_replayed: generation,
            frames: scan.frames,
            truncated_bytes: truncated,
            generation,
            diagnostics,
        };
        let store = Store {
            dir: dir.to_path_buf(),
            wal: Mutex::new(WalWriter {
                file,
                len: scan.committed_len,
                durable_len: scan.committed_len,
                next_seq: scan.last_seq + 1,
                read_only: None,
            }),
            current: Mutex::new(Arc::new(db)),
            faults,
        };
        Ok((store, report))
    }

    /// The data directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Pin the current generation. The returned `Arc` stays valid and
    /// unchanged for as long as the caller holds it, no matter how many
    /// commits happen meanwhile — that is the snapshot-isolation
    /// guarantee readers rely on.
    pub fn snapshot(&self) -> Arc<Database> {
        lock(&self.current).clone()
    }

    /// The generation new snapshots would pin (== committed txn count).
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// When poisoned, the reason writes are being rejected (SSD403).
    pub fn read_only(&self) -> Option<String> {
        lock(&self.wal).read_only.clone()
    }

    /// Current logical WAL length in bytes (for tests and smoke checks).
    pub fn wal_len(&self) -> u64 {
        lock(&self.wal).len
    }

    /// Atomically apply and persist `txn`: build the next generation on
    /// one owned copy of the pinned snapshot's graph, every op applied to
    /// it in place (validating every op *before* any byte is written), append op frames + a COMMIT frame to the WAL, fsync,
    /// then swap the shared generation. Concurrent readers holding
    /// snapshots are never blocked and never observe a partial
    /// transaction. On any I/O failure (real or injected) the store
    /// rolls the file back to its last durable length where possible and
    /// poisons itself read-only — after a failed commit the in-memory
    /// generation still matches the durable prefix, and the only way to
    /// resume writing is to reopen (crash semantics, made explicit).
    pub fn commit(&self, txn: &Txn) -> Result<CommitInfo, StoreError> {
        if txn.is_empty() {
            return Err(StoreError::Invalid(
                "empty transaction: nothing to commit".to_string(),
            ));
        }
        let mut w = lock(&self.wal);
        if let Some(reason) = &w.read_only {
            return Err(StoreError::ReadOnly(reason.clone()));
        }

        // Validate and apply on one copy, before any byte is written.
        let snap = self.snapshot();
        let mut graph = snap.graph().clone();
        for op in &txn.ops {
            apply_op(&mut graph, op.kind(), op.body())?;
        }

        // Append op frames, then the COMMIT frame, then fsync.
        let first_seq = w.next_seq;
        let mut bytes_written = 0u64;
        for (i, op) in txn.ops.iter().enumerate() {
            let frame = wal::encode_frame(first_seq + i as u64, op.kind(), op.body().as_bytes());
            self.write_frame(&mut w, &frame)?;
            bytes_written += frame.len() as u64;
        }
        let commit_seq = first_seq + txn.ops.len() as u64;
        let commit_frame = wal::encode_frame(commit_seq, wal::KIND_COMMIT, b"");
        self.write_frame(&mut w, &commit_frame)?;
        bytes_written += commit_frame.len() as u64;

        if self.faults.hit("wal.fsync") {
            Self::rollback(&mut w, "injected fsync failure at 'wal.fsync'");
            return Err(StoreError::Fault("wal.fsync".to_string()));
        }
        if let Err(e) = w.file.sync_data() {
            let msg = format!("fsync failed: {e}");
            Self::rollback(&mut w, &msg);
            return Err(StoreError::Io(msg));
        }
        w.durable_len = w.len;
        w.next_seq = commit_seq + 1;

        // Durable: publish the new generation. If the previous
        // generation's triple index was ever built, build this one's now,
        // so no reader after the commit pays for it; a store nobody
        // index-queried pays nothing here.
        let generation = snap.generation() + 1;
        let db = Arc::new(Database::new(graph).with_generation(generation));
        if snap.existing_index().is_some() {
            db.triple_index();
        }
        *lock(&self.current) = db;
        Ok(CommitInfo {
            generation,
            seq: commit_seq,
            ops: txn.ops.len(),
            bytes: bytes_written,
        })
    }

    /// Write one frame, honoring the injected-fault seams. `wal.write`
    /// models a write that never reaches the file (rolled back to the
    /// durable prefix, like a crash before the page cache flushed);
    /// `wal.torn` and `wal.short` flush a *partial* frame to disk — the
    /// torn tails recovery must detect and truncate.
    fn write_frame(&self, w: &mut WalWriter, frame: &[u8]) -> Result<(), StoreError> {
        if self.faults.hit("wal.write") {
            Self::rollback(w, "injected write failure at 'wal.write'");
            return Err(StoreError::Fault("wal.write".to_string()));
        }
        let cut = if self.faults.hit("wal.torn") {
            Some(("wal.torn", frame.len() / 2))
        } else if self.faults.hit("wal.short") {
            // Everything but the CRC trailer: a maximally plausible
            // almost-complete frame.
            Some(("wal.short", frame.len().saturating_sub(4)))
        } else {
            None
        };
        if let Some((site, cut)) = cut {
            let _ = w.file.write_all(&frame[..cut]);
            let _ = w.file.sync_data();
            w.len += cut as u64;
            w.durable_len = w.len;
            w.read_only = Some(format!("injected {site} left a partial frame on disk"));
            return Err(StoreError::Fault(site.to_string()));
        }
        match w.file.write_all(frame) {
            Ok(()) => {
                w.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                let msg = format!("frame write failed: {e}");
                Self::rollback(w, &msg);
                Err(StoreError::Io(msg))
            }
        }
    }

    /// Roll the file back to the last durable length and poison the
    /// store read-only. Models a crash: unsynced bytes are gone, and the
    /// process must reopen (recover) before writing again.
    fn rollback(w: &mut WalWriter, reason: &str) {
        let _ = w.file.set_len(w.durable_len);
        let _ = w.file.seek(SeekFrom::Start(w.durable_len));
        let _ = w.file.sync_data();
        w.len = w.durable_len;
        w.read_only = Some(reason.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIRS: AtomicU64 = AtomicU64::new(0);

    fn tmpdir(tag: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ssd-store-unit-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn db(src: &str) -> Database {
        Database::from_literal(src).unwrap()
    }

    #[test]
    fn txn_script_round_trips_multiline_literals() {
        let txn = Txn::new()
            .insert("{Movie: {Title: \"Z\",\n Year: 1969}}")
            .delete("Year")
            .insert("{A: {}}");
        let script = txn.to_script();
        assert_eq!(Txn::parse_script(&script).unwrap(), txn);
        assert_eq!(Txn::parse_script("").unwrap(), Txn::new());
        assert!(Txn::parse_script("INSERT nope\nx").is_err());
        assert!(Txn::parse_script("FROB 1\nx\n").is_err());
        assert!(Txn::parse_script("INSERT 99\nshort\n").is_err());
    }

    #[test]
    fn truncated_script_names_the_declared_length_and_what_is_left() {
        let script = Txn::new().insert("{A: 1}").to_script();
        let cut = &script[..script.len() - 4];
        assert_eq!(
            Txn::parse_script(cut).unwrap_err(),
            "truncated op body: header declares 6 byte(s), 3 left in the script"
        );
    }

    #[test]
    fn init_commit_reopen_preserves_committed_state() {
        let dir = tmpdir("roundtrip");
        Store::init(&dir, &db("{Seed: {}}")).unwrap();
        let (store, report) = Store::open(&dir, &Budget::unlimited()).unwrap();
        assert_eq!(report.txns_replayed, 0);
        assert_eq!(store.generation(), 0);

        let info = store
            .commit(&Txn::new().insert("{Movie: {Title: \"Casablanca\"}}"))
            .unwrap();
        assert_eq!(info.generation, 1);
        store.commit(&Txn::new().delete("Seed")).unwrap();
        assert_eq!(store.generation(), 2);
        let literal = store.snapshot().to_literal();
        drop(store);

        let (again, report) = Store::open(&dir, &Budget::unlimited()).unwrap();
        assert_eq!(report.txns_replayed, 2);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(again.generation(), 2);
        assert_eq!(again.snapshot().to_literal(), literal);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::RecoveryReplayed));
    }

    #[test]
    fn snapshots_pin_their_generation_across_commits() {
        let dir = tmpdir("pin");
        Store::init(&dir, &db("{Seed: {}}")).unwrap();
        let (store, _) = Store::open(&dir, &Budget::unlimited()).unwrap();
        let pinned = store.snapshot();
        let before = pinned.to_literal();
        store.commit(&Txn::new().insert("{New: {}}")).unwrap();
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.to_literal(), before);
        assert_eq!(store.snapshot().generation(), 1);
    }

    #[test]
    fn injected_fsync_failure_poisons_and_loses_nothing_committed() {
        let dir = tmpdir("fsync");
        Store::init(&dir, &db("{Seed: {}}")).unwrap();
        let budget = Budget::unlimited().fail_at("wal.fsync", 1);
        let (store, _) = Store::open(&dir, &budget).unwrap();
        store.commit(&Txn::new().insert("{A: {}}")).unwrap_err();
        assert!(store.read_only().is_some());
        let err = store.commit(&Txn::new().insert("{B: {}}")).unwrap_err();
        assert!(matches!(err, StoreError::ReadOnly(_)));
        assert!(err.headline().contains("SSD403"));
        drop(store);
        let (again, report) = Store::open(&dir, &Budget::unlimited()).unwrap();
        assert_eq!(report.txns_replayed, 0);
        assert_eq!(again.generation(), 0);
    }

    #[test]
    fn torn_write_is_truncated_on_reopen() {
        let dir = tmpdir("torn");
        Store::init(&dir, &db("{Seed: {}}")).unwrap();
        let (store, _) = Store::open(&dir, &Budget::unlimited()).unwrap();
        store.commit(&Txn::new().insert("{A: {}}")).unwrap();
        drop(store);

        let budget = Budget::unlimited().fail_at("wal.torn", 1);
        let (store, _) = Store::open(&dir, &budget).unwrap();
        let err = store.commit(&Txn::new().insert("{B: {}}")).unwrap_err();
        assert_eq!(err, StoreError::Fault("wal.torn".to_string()));
        drop(store);

        let (again, report) = Store::open(&dir, &Budget::unlimited()).unwrap();
        assert_eq!(report.txns_replayed, 1);
        assert!(report.truncated_bytes > 0);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::WalTornTail));
        assert_eq!(again.generation(), 1);
    }

    #[test]
    fn commit_builds_the_triple_index_of_each_generation() {
        let dir = tmpdir("index");
        Store::init(&dir, &db("{Seed: {Movie: {Title: \"Z\"}}}")).unwrap();
        let (store, _) = Store::open(&dir, &Budget::unlimited()).unwrap();
        // Build the base index so every commit builds its generation's.
        assert!(store.snapshot().triple_index().is_some());
        store
            .commit(&Txn::new().insert("{Entry: {Movie: {Title: \"A\"}}}"))
            .unwrap();
        store.commit(&Txn::new().delete("Seed")).unwrap();

        let snap = store.snapshot();
        let built = snap.existing_index().expect("the commit built the index");
        let rebuilt = semistructured::TripleIndex::build(snap.graph());
        assert_eq!(built.decoded(), rebuilt.decoded());
        assert_eq!(built.root(), rebuilt.root());
    }

    #[test]
    fn read_corruption_reports_checksum_mismatch() {
        let dir = tmpdir("readfault");
        Store::init(&dir, &db("{Seed: {}}")).unwrap();
        let (store, _) = Store::open(&dir, &Budget::unlimited()).unwrap();
        store.commit(&Txn::new().insert("{A: {}}")).unwrap();
        store.commit(&Txn::new().insert("{B: {}}")).unwrap();
        drop(store);

        let budget = Budget::unlimited().fail_at("wal.read", 1);
        let (store, report) = Store::open(&dir, &budget).unwrap();
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::WalChecksumMismatch));
        // The corrupt final frame (the last txn's COMMIT) is gone; the
        // prefix survives.
        assert_eq!(store.generation(), 1);
    }
}
