//! # ssd-trace — deterministic structured tracing
//!
//! A zero-dependency (workspace-internal only) event layer threaded through
//! the whole stack: parser, analyzer, cost estimator, the three
//! evaluators (select, RPE, datalog), the resource guard, and the query
//! server. Everything observable is *deterministic* — span ids are
//! monotonic, fuel/memory deltas come from the [`Guard`]'s deterministic
//! accounting, and no wall-clock value ever enters an event — so traces can
//! be golden-tested and diffed across runs.
//!
//! ## Model
//!
//! A [`Tracer`] hands out [`Span`]s (open/close pairs with parent links
//! maintained by an internal stack) and [`Event`]s flow into [`Sink`]s:
//!
//! * [`RingSink`] — bounded in-memory buffer with deterministic batch
//!   truncation (the scheduler-trace idiom: grow to 2× capacity, then drop
//!   the oldest half-capacity in one step).
//! * [`JsonlSink`] — one JSON object per line, for `--trace-out FILE`.
//! * [`SharedRing`] — a cloneable handle around a [`RingSink`] so a caller
//!   can both register the sink and read the events back after the run.
//!
//! Span `Close` events carry the fuel/memory *consumed during* the span
//! (sampled from the guard at open and close); `Open` and `Instant` events
//! carry the absolute counters at emission. Dropping a span closes it, so
//! early exits via `?`, budget exhaustion, cancellation, and panics all
//! still produce balanced traces ([`validate`] checks this invariant).

use ssd_guard::Guard;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Default capacity of a [`RingSink`] (events kept after truncation).
pub const DEFAULT_RING_CAP: usize = 65_536;

/// Which layer of the stack emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Source-text parsing (query, datalog, rewrite, data literal).
    Parse,
    /// Static analysis (variables, schema-aware typing).
    Analyze,
    /// Static cost estimation (the estimated-vs-actual envelope).
    Estimate,
    /// Select-from-where evaluation.
    Eval,
    /// Regular-path-expression product BFS.
    Rpe,
    /// Datalog fixpoint rounds.
    Datalog,
    /// Resource-guard exhaustion and cancellation.
    Guard,
    /// Query-serving: admission, queueing, dispatch, job lifecycle.
    Serve,
    /// Durable storage: WAL commits, recovery replay, generation swaps.
    Store,
    /// Columnar triple index: batched operators, fallback notes.
    Index,
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Analyze => "analyze",
            Phase::Estimate => "estimate",
            Phase::Eval => "eval",
            Phase::Rpe => "rpe",
            Phase::Datalog => "datalog",
            Phase::Guard => "guard",
            Phase::Serve => "serve",
            Phase::Store => "store",
            Phase::Index => "index",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        FieldValue::I64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// Open a span, close a span, or record a point-in-time fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Open,
    Close,
    Instant,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Instant => "instant",
        }
    }
}

/// One structured trace event. `seq` is the global emission order, `id` a
/// monotonic span/event id (never 0), `parent` the enclosing span's id (0
/// for roots). `fuel`/`memory` hold the guard's absolute counters on
/// `Open`/`Instant` events and the *delta consumed during the span* on
/// `Close` events.
#[derive(Debug, Clone)]
pub struct Event {
    pub seq: u64,
    pub id: u64,
    pub parent: u64,
    pub kind: EventKind,
    pub phase: Phase,
    pub name: &'static str,
    pub fuel: u64,
    pub memory: u64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// Where events go. Sinks must be `Send` so a server can own a tracer
/// behind a mutex; they are driven under the tracer's interior borrow, so
/// they never need their own locking for single-threaded use.
pub trait Sink: Send {
    fn record(&mut self, event: &Event);
    fn flush(&mut self) {}
}

/// Bounded in-memory event buffer with deterministic batch truncation:
/// the buffer grows to 2× capacity, then the oldest `capacity` events are
/// dropped in one step (same idiom as the scheduler's decision trace, so
/// truncation points do not depend on allocation behavior).
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    dropped: u64,
    events: Vec<Event>,
}

impl RingSink {
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            dropped: 0,
            events: Vec::new(),
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drain and return all retained events.
    pub fn take(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// How many events truncation has discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Sink for RingSink {
    fn record(&mut self, event: &Event) {
        self.events.push(event.clone());
        if self.events.len() >= self.cap * 2 {
            let excess = self.events.len() - self.cap;
            self.events.drain(..excess);
            self.dropped += excess as u64;
        }
    }
}

/// A cloneable handle over a [`RingSink`]: register one clone as a sink,
/// keep the other to read events back after the run.
#[derive(Clone)]
pub struct SharedRing(Arc<Mutex<RingSink>>);

impl SharedRing {
    pub fn new(cap: usize) -> SharedRing {
        SharedRing(Arc::new(Mutex::new(RingSink::new(cap))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingSink> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().events().to_vec()
    }

    /// Drain and return all retained events.
    pub fn take(&self) -> Vec<Event> {
        self.lock().take()
    }

    pub fn dropped(&self) -> u64 {
        self.lock().dropped()
    }
}

impl Sink for SharedRing {
    fn record(&mut self, event: &Event) {
        self.lock().record(event);
    }
}

/// One JSON object per line (`--trace-out FILE`). The encoding is
/// hand-rolled (no serde in the workspace): stable key order, `\u{...}`
/// escapes for control characters.
pub struct JsonlSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink { out }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let _ = writeln!(self.out, "{}", event_to_json(event));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render one event as a single-line JSON object (the `--trace-out`
/// format). Keys, in order: `seq`, `id`, `parent`, `kind`, `phase`,
/// `name`, `fuel`, `mem`, `fields`.
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"seq\":");
    out.push_str(&e.seq.to_string());
    out.push_str(",\"id\":");
    out.push_str(&e.id.to_string());
    out.push_str(",\"parent\":");
    out.push_str(&e.parent.to_string());
    out.push_str(",\"kind\":\"");
    out.push_str(e.kind.as_str());
    out.push_str("\",\"phase\":\"");
    out.push_str(e.phase.as_str());
    out.push_str("\",\"name\":\"");
    escape_json_into(e.name, &mut out);
    out.push_str("\",\"fuel\":");
    out.push_str(&e.fuel.to_string());
    out.push_str(",\"mem\":");
    out.push_str(&e.memory.to_string());
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in e.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(k, &mut out);
        out.push_str("\":");
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::Str(s) => {
                out.push('"');
                escape_json_into(s, &mut out);
                out.push('"');
            }
        }
    }
    out.push_str("}}");
    out
}

/// Minimal structural check of one `--trace-out` line: used by the trace
/// smoke gate in `ci.sh` and the JSONL schema unit test. Verifies the
/// required keys are present, in order, and that `kind` is one of the
/// three event kinds.
pub fn jsonl_line_ok(line: &str) -> bool {
    let t = line.trim();
    if !t.starts_with('{') || !t.ends_with("}}") {
        return false;
    }
    let keys = [
        "{\"seq\":",
        "\"id\":",
        "\"parent\":",
        "\"kind\":\"",
        "\"phase\":\"",
        "\"name\":\"",
        "\"fuel\":",
        "\"mem\":",
        "\"fields\":{",
    ];
    let mut pos = 0;
    for k in keys {
        match t[pos..].find(k) {
            Some(i) => pos += i + k.len(),
            None => return false,
        }
    }
    [
        "\"kind\":\"open\"",
        "\"kind\":\"close\"",
        "\"kind\":\"instant\"",
    ]
    .iter()
    .any(|k| t.contains(k))
}

struct Inner {
    next_id: u64,
    seq: u64,
    stack: Vec<u64>,
    sinks: Vec<Box<dyn Sink>>,
}

impl Inner {
    fn emit(&mut self, mut event: Event) {
        event.seq = self.seq;
        self.seq += 1;
        for s in &mut self.sinks {
            s.record(&event);
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

/// The event source: hands out spans, assigns monotonic ids, maintains the
/// parent stack, and fans events out to the registered sinks.
///
/// A `Tracer` is single-threaded (`!Sync`); the server wraps one in a
/// mutex and uses the `*_detached` API (explicit parent ids, no stack) for
/// events emitted from worker threads.
pub struct Tracer {
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with no sinks (events are assigned ids and dropped).
    pub fn new() -> Tracer {
        Tracer {
            inner: RefCell::new(Inner {
                next_id: 1,
                seq: 0,
                stack: Vec::new(),
                sinks: Vec::new(),
            }),
        }
    }

    pub fn with_sink(sink: Box<dyn Sink>) -> Tracer {
        let t = Tracer::new();
        t.add_sink(sink);
        t
    }

    pub fn add_sink(&self, sink: Box<dyn Sink>) {
        self.inner.borrow_mut().sinks.push(sink);
    }

    /// Open a span nested under the current innermost span. If `guard` is
    /// given, the span's `Close` event reports the fuel/memory consumed
    /// while it was open. Dropping the returned [`Span`] closes it.
    pub fn span<'t>(
        &'t self,
        phase: Phase,
        name: &'static str,
        guard: Option<&'t Guard>,
    ) -> Span<'t> {
        let fuel = guard.map_or(0, Guard::steps_used);
        let memory = guard.map_or(0, Guard::memory_used);
        let mut inner = self.inner.borrow_mut();
        let id = inner.fresh_id();
        let parent = inner.stack.last().copied().unwrap_or(0);
        inner.stack.push(id);
        inner.emit(Event {
            seq: 0,
            id,
            parent,
            kind: EventKind::Open,
            phase,
            name,
            fuel,
            memory,
            fields: Vec::new(),
        });
        Span {
            tracer: Some(self),
            guard,
            id,
            parent,
            phase,
            name,
            fuel_at_open: fuel,
            mem_at_open: memory,
            fields: Vec::new(),
            detached: false,
        }
    }

    /// Record a point-in-time event under the current innermost span.
    pub fn instant(
        &self,
        phase: Phase,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.fresh_id();
        let parent = inner.stack.last().copied().unwrap_or(0);
        inner.emit(Event {
            seq: 0,
            id,
            parent,
            kind: EventKind::Instant,
            phase,
            name,
            fuel: 0,
            memory: 0,
            fields,
        });
    }

    /// Open a span with an explicit parent, without touching the nesting
    /// stack — for cross-thread lifecycles (a server job span opened at
    /// dispatch on one thread, closed at completion on another). Returns
    /// the span id to pass to [`Tracer::close_detached`].
    pub fn open_detached(
        &self,
        phase: Phase,
        name: &'static str,
        parent: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.fresh_id();
        inner.emit(Event {
            seq: 0,
            id,
            parent,
            kind: EventKind::Open,
            phase,
            name,
            fuel: 0,
            memory: 0,
            fields,
        });
        id
    }

    /// Close a span opened with [`Tracer::open_detached`]. `fuel`/`memory`
    /// are the amounts consumed during the span (the caller accounts them;
    /// there is no shared guard across threads).
    pub fn close_detached(
        &self,
        id: u64,
        phase: Phase,
        name: &'static str,
        fuel: u64,
        memory: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        inner.emit(Event {
            seq: 0,
            id,
            parent: 0,
            kind: EventKind::Close,
            phase,
            name,
            fuel,
            memory,
            fields,
        });
    }

    /// Flush all sinks.
    pub fn flush(&self) {
        for s in &mut self.inner.borrow_mut().sinks {
            s.flush();
        }
    }

    fn close_span(&self, span: &mut Span<'_>) {
        // `try_borrow_mut` so a drop during unwinding (a panic inside a
        // sink) cannot double-panic.
        let Ok(mut inner) = self.inner.try_borrow_mut() else {
            return;
        };
        if let Some(pos) = inner.stack.iter().rposition(|&x| x == span.id) {
            inner.stack.remove(pos);
        }
        let fuel = span
            .guard
            .map_or(0, Guard::steps_used)
            .saturating_sub(span.fuel_at_open);
        let memory = span
            .guard
            .map_or(0, Guard::memory_used)
            .saturating_sub(span.mem_at_open);
        inner.emit(Event {
            seq: 0,
            id: span.id,
            parent: span.parent,
            kind: EventKind::Close,
            phase: span.phase,
            name: span.name,
            fuel,
            memory,
            fields: std::mem::take(&mut span.fields),
        });
    }
}

/// An open span. Closed exactly once: on [`Span::close`] or on drop
/// (whichever comes first), so early returns, exhaustion, cancellation,
/// and panics still balance the trace.
pub struct Span<'t> {
    tracer: Option<&'t Tracer>,
    guard: Option<&'t Guard>,
    id: u64,
    parent: u64,
    phase: Phase,
    name: &'static str,
    fuel_at_open: u64,
    mem_at_open: u64,
    fields: Vec<(&'static str, FieldValue)>,
    detached: bool,
}

impl Span<'_> {
    /// A span that records nothing — the disabled-tracing fast path.
    pub fn noop() -> Span<'static> {
        Span {
            tracer: None,
            guard: None,
            id: 0,
            parent: 0,
            phase: Phase::Eval,
            name: "",
            fuel_at_open: 0,
            mem_at_open: 0,
            fields: Vec::new(),
            detached: false,
        }
    }

    /// True when this span feeds a real tracer — check before computing
    /// expensive field values.
    pub fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The span id (0 for a no-op span).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a field, reported on the `Close` event.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.tracer.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Close explicitly (equivalent to dropping, but reads better at call
    /// sites that want the close point visible).
    pub fn close(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let detached = self.detached;
        if let Some(t) = self.tracer.take() {
            if !detached {
                t.close_span(self);
            }
        }
    }
}

/// Open a span if tracing is enabled; otherwise a free no-op. The standard
/// instrumentation entry point:
///
/// ```
/// use ssd_trace::{span, Phase, SharedRing, Sink, Tracer};
/// let ring = SharedRing::new(16);
/// let tracer = Tracer::with_sink(Box::new(ring.clone()));
/// {
///     let mut s = span(Some(&tracer), Phase::Eval, "select", None);
///     s.field("results", 3u64);
/// }
/// assert_eq!(ring.snapshot().len(), 2); // open + close
/// ```
pub fn span<'t>(
    tracer: Option<&'t Tracer>,
    phase: Phase,
    name: &'static str,
    guard: Option<&'t Guard>,
) -> Span<'t> {
    match tracer {
        Some(t) => t.span(phase, name, guard),
        None => Span::noop(),
    }
}

/// Record an instant event if tracing is enabled. Call sites that must
/// build costly fields should check `tracer.is_some()` first.
pub fn instant(
    tracer: Option<&Tracer>,
    phase: Phase,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
) {
    if let Some(t) = tracer {
        t.instant(phase, name, fields);
    }
}

/// Check trace well-formedness: strictly increasing `seq`, unique span
/// ids, every `Open` closed exactly once, no `Close` without an `Open`,
/// and acyclic parent links (a parent id is 0 or a previously opened span
/// with a smaller id). Returns the first violation found.
pub fn validate(events: &[Event]) -> Result<(), String> {
    let mut last_seq: Option<u64> = None;
    let mut state: HashMap<u64, bool> = HashMap::new(); // id -> still open
    for e in events {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                return Err(format!("seq not strictly increasing at {}", e.seq));
            }
        }
        last_seq = Some(e.seq);
        match e.kind {
            EventKind::Open => {
                if e.id == 0 {
                    return Err("open event with id 0".to_owned());
                }
                if e.parent != 0 {
                    if e.parent >= e.id {
                        return Err(format!("span {} has parent {} >= its id", e.id, e.parent));
                    }
                    if !state.contains_key(&e.parent) {
                        return Err(format!("span {} has unknown parent {}", e.id, e.parent));
                    }
                }
                if state.insert(e.id, true).is_some() {
                    return Err(format!("span id {} opened twice", e.id));
                }
            }
            EventKind::Close => match state.get_mut(&e.id) {
                Some(open @ true) => *open = false,
                Some(false) => return Err(format!("span {} closed twice", e.id)),
                None => return Err(format!("span {} closed but never opened", e.id)),
            },
            EventKind::Instant => {
                if e.parent != 0 && !state.contains_key(&e.parent) {
                    return Err(format!("instant {} has unknown parent {}", e.id, e.parent));
                }
            }
        }
    }
    if let Some((id, _)) = state.iter().find(|(_, open)| **open) {
        return Err(format!("span {id} opened but never closed"));
    }
    Ok(())
}

/// Collapse a trace into folded-stack lines (`a;b;c weight`), the input
/// format of flamegraph tools. The weight of a frame is its *self* fuel:
/// the span's close-event fuel delta minus its direct children's. Spans
/// with zero self-fuel are omitted.
pub fn folded_stacks(events: &[Event]) -> String {
    // id -> (name, parent)
    let mut meta: HashMap<u64, (&'static str, u64)> = HashMap::new();
    // id -> fuel delta at close
    let mut closed: HashMap<u64, u64> = HashMap::new();
    // parent id -> sum of direct children's close fuel
    let mut child_fuel: HashMap<u64, u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Open => {
                meta.insert(e.id, (e.name, e.parent));
            }
            EventKind::Close => {
                closed.insert(e.id, e.fuel);
                if let Some((_, parent)) = meta.get(&e.id) {
                    if *parent != 0 {
                        *child_fuel.entry(*parent).or_insert(0) += e.fuel;
                    }
                }
            }
            EventKind::Instant => {}
        }
    }
    let frames = |mut id: u64| -> String {
        let mut names = Vec::new();
        while id != 0 {
            match meta.get(&id) {
                Some((name, parent)) => {
                    names.push(*name);
                    id = *parent;
                }
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    };
    let mut weights: HashMap<String, u64> = HashMap::new();
    let mut ids: Vec<u64> = closed.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        let total = closed[&id];
        let self_fuel = total.saturating_sub(child_fuel.get(&id).copied().unwrap_or(0));
        if self_fuel > 0 {
            *weights.entry(frames(id)).or_insert(0) += self_fuel;
        }
    }
    let mut lines: Vec<String> = weights
        .into_iter()
        .map(|(stack, w)| format!("{stack} {w}"))
        .collect();
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Human-readable rendering (the `--trace` flag): one line per event,
/// indented by nesting depth, close events annotated with their fuel and
/// memory deltas and their fields.
pub fn render_events(events: &[Event]) -> String {
    let mut depth: HashMap<u64, usize> = HashMap::new();
    let mut out = String::new();
    for e in events {
        let d = if e.parent == 0 {
            0
        } else {
            depth.get(&e.parent).copied().map_or(0, |p| p + 1)
        };
        if e.kind == EventKind::Open {
            depth.insert(e.id, d);
        }
        let indent = "  ".repeat(match e.kind {
            EventKind::Close => depth.get(&e.id).copied().unwrap_or(d),
            _ => d,
        });
        let marker = match e.kind {
            EventKind::Open => '>',
            EventKind::Close => '<',
            EventKind::Instant => '.',
        };
        out.push_str(&format!("{indent}{marker} {}:{}", e.phase, e.name));
        if e.kind == EventKind::Close {
            out.push_str(&format!(" fuel={} mem={}", e.fuel, e.memory));
        }
        for (k, v) in &e.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Aggregate per-phase fuel and event counts (the plain `--profile`
/// output): stable `phase spans fuel` lines, one per phase seen.
pub fn phase_totals(events: &[Event]) -> String {
    let mut totals: HashMap<Phase, (u64, u64)> = HashMap::new();
    for e in events {
        if e.kind == EventKind::Close {
            let t = totals.entry(e.phase).or_insert((0, 0));
            t.0 += 1;
            t.1 += e.fuel;
        }
    }
    let mut phases: Vec<Phase> = totals.keys().copied().collect();
    phases.sort();
    let mut out = String::new();
    for p in phases {
        let (spans, fuel) = totals[&p];
        out.push_str(&format!("{p} spans={spans} fuel={fuel}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_guard::Budget;

    fn ring_tracer(cap: usize) -> (Tracer, SharedRing) {
        let ring = SharedRing::new(cap);
        let tracer = Tracer::with_sink(Box::new(ring.clone()));
        (tracer, ring)
    }

    #[test]
    fn spans_nest_and_balance() {
        let (tracer, ring) = ring_tracer(64);
        {
            let mut a = tracer.span(Phase::Eval, "select", None);
            a.field("results", 2u64);
            {
                let b = tracer.span(Phase::Rpe, "rpe", None);
                b.close();
            }
            tracer.instant(Phase::Guard, "exhausted", vec![("cause", "fuel".into())]);
        }
        let events = ring.snapshot();
        validate(&events).unwrap();
        assert_eq!(events.len(), 5);
        // rpe nests under select; the instant too.
        let select_id = events[0].id;
        assert_eq!(events[1].parent, select_id);
        assert_eq!(events[3].parent, select_id);
        // Fields ride on the close event.
        let close = events.last().unwrap();
        assert_eq!(close.kind, EventKind::Close);
        assert_eq!(close.fields, vec![("results", FieldValue::U64(2))]);
    }

    #[test]
    fn guard_deltas_are_recorded() {
        let (tracer, ring) = ring_tracer(64);
        let guard = Budget::metered().guard();
        assert!(guard.tick(5).unwrap());
        {
            let _s = tracer.span(Phase::Eval, "work", Some(&guard));
            assert!(guard.tick(7).unwrap());
            assert!(guard.alloc(100).unwrap());
        }
        let events = ring.snapshot();
        let close = events.last().unwrap();
        assert_eq!(close.kind, EventKind::Close);
        assert_eq!(close.fuel, 7);
        assert_eq!(close.memory, 100);
        // The open event carries the absolute counter.
        assert_eq!(events[0].fuel, 5);
    }

    #[test]
    fn drop_closes_on_panic() {
        let (tracer, ring) = ring_tracer(64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = tracer.span(Phase::Datalog, "round", None);
            panic!("boom");
        }));
        assert!(r.is_err());
        let events = ring.snapshot();
        validate(&events).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].kind, EventKind::Close);
    }

    #[test]
    fn noop_span_records_nothing() {
        let mut s = span(None, Phase::Eval, "select", None);
        s.field("ignored", 1u64);
        assert!(!s.enabled());
        drop(s);
        instant(None, Phase::Guard, "exhausted", Vec::new());
    }

    #[test]
    fn ring_truncates_in_batches() {
        let mut ring = RingSink::new(4);
        let mk = |i: u64| Event {
            seq: i,
            id: i + 1,
            parent: 0,
            kind: EventKind::Instant,
            phase: Phase::Serve,
            name: "e",
            fuel: 0,
            memory: 0,
            fields: Vec::new(),
        };
        for i in 0..7 {
            ring.record(&mk(i));
        }
        assert_eq!(ring.events().len(), 7);
        assert_eq!(ring.dropped(), 0);
        ring.record(&mk(7)); // hits 2*cap: drop oldest 4
        assert_eq!(ring.events().len(), 4);
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.events()[0].seq, 4);
    }

    #[test]
    fn jsonl_round_trip_shape() {
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            let e = Event {
                seq: 0,
                id: 1,
                parent: 0,
                kind: EventKind::Open,
                phase: Phase::Parse,
                name: "parse",
                fuel: 3,
                memory: 9,
                fields: vec![
                    ("src", FieldValue::Str("a\"b\nc".into())),
                    ("n", 4u64.into()),
                ],
            };
            sink.record(&e);
            sink.flush();
        }
        let line = String::from_utf8(buf).unwrap();
        assert!(jsonl_line_ok(&line), "{line}");
        assert!(line.contains("\"phase\":\"parse\""));
        assert!(line.contains("\\\"b\\nc"));
        assert!(line.contains("\"n\":4"));
        assert!(!jsonl_line_ok("{\"seq\":1}"));
        assert!(!jsonl_line_ok("not json"));
    }

    #[test]
    fn detached_spans_for_cross_thread_lifecycles() {
        let (tracer, ring) = ring_tracer(64);
        let job = tracer.open_detached(Phase::Serve, "job", 0, vec![("job", 1u64.into())]);
        tracer.close_detached(
            job,
            Phase::Serve,
            "job",
            42,
            0,
            vec![("outcome", "done".into())],
        );
        let events = ring.snapshot();
        validate(&events).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].id, job);
        assert_eq!(events[1].fuel, 42);
    }

    #[test]
    fn validate_rejects_malformed() {
        let base = Event {
            seq: 0,
            id: 1,
            parent: 0,
            kind: EventKind::Open,
            phase: Phase::Eval,
            name: "x",
            fuel: 0,
            memory: 0,
            fields: Vec::new(),
        };
        // Unclosed span.
        assert!(validate(std::slice::from_ref(&base)).is_err());
        // Close without open.
        let close = Event {
            kind: EventKind::Close,
            seq: 1,
            id: 2,
            ..base.clone()
        };
        assert!(validate(&[close]).is_err());
        // Parent cycle (parent >= id).
        let cyc = Event {
            parent: 1,
            ..base.clone()
        };
        assert!(validate(&[cyc]).is_err());
        // Balanced pair passes.
        let ok = [
            base.clone(),
            Event {
                kind: EventKind::Close,
                seq: 1,
                ..base
            },
        ];
        validate(&ok).unwrap();
    }

    #[test]
    fn folded_stacks_self_fuel() {
        let (tracer, ring) = ring_tracer(64);
        let guard = Budget::metered().guard();
        {
            let _outer = tracer.span(Phase::Eval, "select", Some(&guard));
            assert!(guard.tick(10).unwrap());
            {
                let _inner = tracer.span(Phase::Rpe, "rpe", Some(&guard));
                assert!(guard.tick(30).unwrap());
            }
        }
        let folded = folded_stacks(&ring.snapshot());
        assert!(folded.contains("select 10\n"), "{folded}");
        assert!(folded.contains("select;rpe 30\n"), "{folded}");
    }

    #[test]
    fn render_and_phase_totals() {
        let (tracer, ring) = ring_tracer(64);
        let guard = Budget::metered().guard();
        {
            let mut s = tracer.span(Phase::Datalog, "datalog", Some(&guard));
            assert!(guard.tick(4).unwrap());
            s.field("rounds", 2u64);
        }
        let events = ring.snapshot();
        let text = render_events(&events);
        assert!(text.contains("> datalog:datalog"), "{text}");
        assert!(
            text.contains("< datalog:datalog fuel=4 mem=0 rounds=2"),
            "{text}"
        );
        let totals = phase_totals(&events);
        assert_eq!(totals, "datalog spans=1 fuel=4\n");
    }
}
