//! The traced run: per-layer numbers, taken from outside the program.
//!
//! The first ops of the workload are issued, single-threaded, at
//! successively deeper public entry points — a TCP frame round trip,
//! then `SessionHandle::submit` + `JobHandle::wait`, then
//! `Database::{query_with, datalog_with}` / `Store::commit`, then the
//! calls those are made of — with a span around every call. The layers
//! of one op share its `op_id` and name their parent, so a layer's self
//! time is its span minus the spans that name it as parent, and the self
//! times of an op add up to its outermost (wire) span by construction.
//! Nothing under `crates/` records anything: tracing off is the only
//! mode the program has.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use semistructured::{AccessDecision, DataStats, Database, Pred};
use ssd_graph::{Label, NodeId};
use ssd_guard::{Budget, Guard};
use ssd_index::TripleIndex;
use ssd_query::analyze::{analyze_datalog_cost, analyze_query_cost, CostContext};
use ssd_query::EvalOptions;
use ssd_schema::{DataGuide, Schema};
use ssd_serve::protocol::{decode_frame, encode_frame, parse_command_with};
use ssd_serve::JobKind;
use ssd_store::{Op as TxnOp, Store};
use ssd_triples::datalog;

use crate::drive::{closed_loop, ClosedPhase};
use crate::host::{open, quota, Host, OUT_DIR};
use crate::input::{check_fingerprint, Class, Inputs, Op, Workload, CLASSES};
use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::stats::{median_f64, nproc};
use crate::wire::{Checker, Client};

/// Ops traced per workload for each 20 s of `--seconds`, as whole
/// cycles of the op sequence: enough for a median per class, few enough
/// that six executions of each fit beside the end-to-end runs. Other
/// `--seconds` scale the count, never below one cycle.
fn traced_ops(w: Workload, seconds: f64) -> u64 {
    let (cycle, cycles) = match w {
        Workload::PointRead => (4, 25),
        Workload::ScanJoin => (4, 6),
        Workload::Closure => (3, 4),
        Workload::WriteMix => (7, 15),
    };
    cycle * ((cycles as f64 * seconds / 20.0) as u64).max(1)
}

/// Share of `--seconds` each half of the overhead comparison runs for.
const OVERHEAD_SHARE: f64 = 0.15;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub class: Class,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// `(op_id, class)` of the op a span belongs to.
type OpId = (u32, Class);

struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    /// Bytes a span handled, for the per-byte metrics.
    bytes: HashMap<&'static str, u64>,
}

impl Recorder {
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        (op_id, class): OpId,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op_id,
            class,
            parent,
            start_ns,
            end_ns,
        });
        out
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-op self times, by span name.
struct SelfTimes {
    /// `(name, op_id)` → self ns (own duration minus children's).
    by_op: HashMap<(&'static str, u32), f64>,
    class_of: HashMap<u32, Class>,
}

impl SelfTimes {
    fn from(spans: &[Span]) -> SelfTimes {
        let mut by_op: HashMap<(&'static str, u32), f64> = HashMap::new();
        let mut class_of = HashMap::new();
        for s in spans {
            *by_op.entry((s.name, s.op_id)).or_default() += s.ns();
            class_of.insert(s.op_id, s.class);
        }
        for s in spans {
            if let Some(parent) = by_op.get_mut(&(s.parent, s.op_id)) {
                *parent -= s.ns();
            }
        }
        SelfTimes { by_op, class_of }
    }

    /// Self times of `name` over the ops of `class` (all ops for `None`).
    fn of(&self, name: &str, class: Option<Class>) -> Vec<f64> {
        self.by_op
            .iter()
            .filter(|((n, op), _)| *n == name && class.is_none_or(|c| c == self.class_of[op]))
            .map(|(_, &ns)| ns)
            .collect()
    }

    /// Median self time in ns; 0 when no such op ran.
    fn median(&self, name: &str, class: Option<Class>) -> f64 {
        median_f64(&mut self.of(name, class))
    }

    fn total(&self, name: &str) -> f64 {
        self.of(name, None).iter().sum()
    }
}

/// What the passes learn besides timings.
#[derive(Default)]
struct Counts {
    select_ops: u64,
    batched_ops: u64,
    tried: u64,
    constructed: u64,
    datalog_fuel: u64,
    datalog_tuples: u64,
    iterations: u64,
    rule_evaluations: u64,
    wal_bytes: u64,
    commits: u64,
    fuel: HashMap<Class, Vec<f64>>,
    results: HashMap<Class, u64>,
    metered_s: f64,
    unlimited_s: f64,
    failed: u64,
    attempted: u64,
    errors: Vec<String>,
}

impl Counts {
    /// One more sample for `guard.overhead_frac`: the same warm call
    /// under a metered guard and under `Guard::unlimited()`.
    fn guard_pair(&mut self, metered: impl FnOnce(), unlimited: impl FnOnce()) {
        self.metered_s += timed(metered).1;
        self.unlimited_s += timed(unlimited).1;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// The op as pass `pass` issues it. Reads are the same text every pass;
/// a commit gets its own `Seq` range (a multiple of 8 away, so the same
/// txns carry the `DELETE`), so no pass inserts a subtree twice.
fn repass(inputs: &Inputs, op: &Op, pass: u64) -> Op {
    match op.class {
        Class::Commit => inputs.make(Class::Commit, op.key + pass * (1 << 20)),
        _ => op.clone(),
    }
}

/// The traced ops as pass `pass` issues them, with their span ids.
fn each_op<'a>(
    inputs: &'a Inputs,
    ops: &'a [Op],
    pass: u64,
) -> impl Iterator<Item = (OpId, Op)> + 'a {
    let numbered = ops.iter().enumerate();
    numbered.map(move |(i, op)| ((i as u32, op.class), repass(inputs, op, pass)))
}

/// The passes over the traced ops and what they accumulate.
struct Onion<'a> {
    host: &'a Host,
    inputs: &'a Inputs,
    checker: &'a Checker<'a>,
    ops: &'a [Op],
    rec: Recorder,
    counts: Counts,
    /// Estimator inputs, computed once as the server does.
    stats: DataStats,
    schema: Schema,
    plain_stats: DataStats,
    /// A store whose graph is empty; see [`Onion::commit_layers`].
    wal_probe: Store,
    wal_commit_s: Vec<f64>,
}

impl Onion<'_> {
    /// Pass 0: the ops over the wire with no spans, one client. Returns
    /// the round-trip seconds per class.
    fn wire_untraced(&mut self) -> Result<HashMap<Class, Vec<f64>>, String> {
        let mut client = Client::connect(self.host.addr)?;
        let mut seconds: HashMap<Class, Vec<f64>> = HashMap::new();
        for (id, op) in each_op(self.inputs, self.ops, 0) {
            let (reply, s) = timed(|| client.call(&op));
            seconds.entry(op.class).or_default().push(s);
            self.counts.attempted += 1;
            if let Err(e) = self.checker.check(&op, &reply?) {
                self.counts.fail(format!("untraced op {}: {e}", id.0));
            }
        }
        Ok(seconds)
    }

    /// Pass 1: the wire round trip, traced, with the codec and command
    /// parsing it contains timed on the same bytes.
    fn wire_traced(&mut self) -> Result<(), String> {
        let mut client = Client::connect(self.host.addr)?;
        client.keep_frames = Some(Vec::new());
        let quota = quota();
        for (id, op) in each_op(self.inputs, self.ops, 1) {
            let reply = self.rec.time("wire", "", id, || client.call(&op))?;
            self.counts.attempted += 1;
            match self.checker.check(&op, &reply) {
                Ok(()) if op.class.is_select() => {
                    *self.counts.results.entry(op.class).or_default() +=
                        reply.results().unwrap_or(0);
                }
                Ok(()) => *self.counts.results.entry(op.class).or_default() += reply.tuples,
                Err(e) => self.counts.fail(format!("traced op {}: {e}", id.0)),
            }
            let frames = op.frames();
            self.rec.time("parse_command", "wire", id, || {
                for f in &frames {
                    let _ = std::hint::black_box(parse_command_with(f, &quota));
                }
            });
            let mut payloads = client.keep_frames.replace(Vec::new()).unwrap_or_default();
            payloads.extend(frames);
            self.rec.time("frame_codec", "wire", id, || {
                for p in &payloads {
                    let _ = std::hint::black_box(decode_frame(&encode_frame(p)));
                }
            });
            *self.rec.bytes.entry("frame_codec").or_default() +=
                payloads.iter().map(|p| p.len() as u64).sum::<u64>();
        }
        Ok(())
    }

    /// Pass 2: `submit` + `wait`, in process.
    fn submit(&mut self) {
        let session = self.host.server.open_session(quota());
        for (id, op) in each_op(self.inputs, self.ops, 2) {
            let outcome = self.rec.time("submit", "wire", id, || {
                session.submit(op.class.kind(), &op.text).map(|h| h.wait())
            });
            match outcome {
                Ok(o) if o.error.is_none() => {
                    // A commit runs under no guard the caller can read;
                    // its fuel is what the summary reports.
                    let fuel = o.summary.as_deref().and_then(|s| s.rsplit_once("fuel="));
                    if let (Class::Commit, Some((_, fuel))) = (op.class, fuel) {
                        let spent = self.counts.fuel.entry(op.class).or_default();
                        spent.extend(fuel.parse::<f64>().ok());
                    }
                }
                Ok(o) => self
                    .counts
                    .fail(format!("submit op {}: {:?}", id.0, o.error)),
                Err(e) => self.counts.fail(format!("submit op {}: {e}", id.0)),
            }
        }
        session.close();
    }

    /// Passes 3 and 4: the engine call the worker makes, then the calls
    /// that one is made of, on the snapshot a job would pin.
    fn engine(&mut self) -> Result<(), String> {
        for (id, op) in each_op(self.inputs, self.ops, 3) {
            let db = self.host.store.snapshot();
            match op.class.kind() {
                JobKind::Commit => self.commit_layers(id, &op, &db)?,
                JobKind::Datalog => self.datalog_layers(id, &op, &db)?,
                _ => self.select_layers(id, &op, &db)?,
            }
        }
        Ok(())
    }

    fn commit_layers(&mut self, id: OpId, op: &Op, db: &Database) -> Result<(), String> {
        let txn = op.txn();
        let store = &self.host.store;
        let info = self
            .rec
            .time("engine", "submit", id, || store.commit(&txn))
            .map_err(|e| format!("commit: {e}"))?;
        self.counts.wal_bytes += info.bytes;
        self.counts.commits += 1;
        // The same txn against a store whose graph is empty: what is left
        // of a commit without the O(graph) copy, that is the WAL append
        // and its fsync. As a residual of the spans below it would be the
        // difference of two 50 ms numbers.
        let (probed, s) = timed(|| self.wal_probe.commit(&txn));
        probed.map_err(|e| format!("commit on the empty store: {e}"))?;
        self.wal_commit_s.push(s);
        // The pieces, on the snapshot the commit started from.
        let mut cur: Option<Database> = None;
        for step in txn.ops() {
            let from = cur.as_ref().unwrap_or(db);
            cur = Some(match step {
                TxnOp::Insert(body) => {
                    let parse = || Database::from_literal(body);
                    let lit = self.rec.time("parse_literal", "engine", id, parse)?;
                    let union = || from.union_id_stable(&lit);
                    self.rec.time("apply_insert", "engine", id, union)
                }
                TxnOp::Delete(label) => {
                    let delete = || from.delete_edges_id_stable(&Pred::Symbol(label.clone()));
                    self.rec.time("apply_delete", "engine", id, delete)
                }
            });
        }
        if let (Some(old), Some(new)) = (db.existing_index(), &cur) {
            let merge = || old.merge_delta(new.graph());
            self.rec
                .time("merge_delta", "engine", id, merge)
                .map_err(|d| d.headline())?;
        }
        Ok(())
    }

    fn datalog_layers(&mut self, id: OpId, op: &Op, db: &Database) -> Result<(), String> {
        let guard = Budget::metered().guard();
        let eval = self
            .rec
            .time("engine", "submit", id, || db.datalog_with(&op.text, &guard))
            .map_err(|e| format!("datalog: {e}"))?;
        let spent = guard.steps_used();
        self.counts
            .fuel
            .entry(op.class)
            .or_default()
            .push(spent as f64);
        self.counts.datalog_fuel += spent;
        self.counts.datalog_tuples += eval.count("reach") as u64;
        self.counts.iterations += eval.iterations as u64;
        self.counts.rule_evaluations += eval.rule_evaluations as u64;
        drop(eval);

        let symbols = db.graph().symbols();
        let stats = &self.plain_stats;
        self.rec.time("estimate", "submit", id, || {
            let (p, spans) = datalog::parse_program_spanned(&op.text, symbols)?;
            let ctx = CostContext {
                stats: Some(stats),
                schema: None,
            };
            Ok::<_, String>(analyze_datalog_cost(&p, Some(&spans), None, &ctx))
        })?;
        let parse = || datalog::parse_program(&op.text, symbols);
        let program = self.rec.time("datalog_parse", "engine", id, parse)?;
        let shredded = self.rec.time("shred", "engine", id, || db.triples());
        let inner = Budget::metered().guard();
        let evaluate = || datalog::evaluate_with(&program, &shredded, &inner);
        self.rec
            .time("datalog_eval", "engine", id, evaluate)
            .map_err(|e| e.to_string())?;
        if id.0.is_multiple_of(2) {
            self.counts.guard_pair(
                || drop(db.datalog_with(&op.text, &Budget::metered().guard())),
                || drop(db.datalog_with(&op.text, &Guard::unlimited())),
            );
        }
        Ok(())
    }

    fn select_layers(&mut self, id: OpId, op: &Op, db: &Database) -> Result<(), String> {
        // What `submit` makes of an RPE job.
        let text = match op.class.kind() {
            JobKind::Rpe => format!("select X from db.{} X", op.text),
            _ => op.text.clone(),
        };
        let guard = Budget::metered().guard();
        let result = self
            .rec
            .time("engine", "submit", id, || db.query_with(&text, &guard))
            .map_err(|e| format!("query: {e}"))?;
        let spent = guard.steps_used();
        self.counts
            .fuel
            .entry(op.class)
            .or_default()
            .push(spent as f64);
        self.counts.tried += result.stats().assignments_tried as u64;
        self.counts.constructed += result.stats().results_constructed as u64;
        let render = || result.chunks(8).collect::<Vec<String>>();
        let chunks = self.rec.time("render", "submit", id, render);
        *self.rec.bytes.entry("render").or_default() +=
            chunks.iter().map(|c| c.len() as u64).sum::<u64>();
        drop((chunks, result));

        let (stats, schema) = (&self.stats, &self.schema);
        self.rec.time("estimate", "submit", id, || {
            let (q, spans) = ssd_query::parse_query_spanned(&text).map_err(|e| e.to_string())?;
            let ctx = CostContext {
                stats: Some(stats),
                schema: Some(schema),
            };
            Ok::<_, String>(analyze_query_cost(&q, Some(&spans), &ctx))
        })?;
        let q = self
            .rec
            .time("parse", "engine", id, || ssd_query::parse_query(&text))
            .map_err(|e| e.to_string())?;
        let access = self
            .rec
            .time("plan_access", "engine", id, || db.select_access(&q));
        self.counts.select_ops += 1;
        self.counts.batched_ops += u64::from(matches!(access, AccessDecision::Batched(_)));
        let inner = Budget::metered().guard();
        let opts = EvalOptions::default().with_guard(&inner);
        let evaluate = || match (&access, db.triple_index()) {
            (AccessDecision::Batched(plan), Some(index)) => {
                ssd_query::evaluate_batched(db.graph(), index, &q, plan, &opts)
            }
            _ => ssd_query::evaluate_select(db.graph(), &q, &opts),
        };
        self.rec.time("eval", "engine", id, evaluate)?;
        let analyze = || ssd_query::analyze_query(&q, None, None);
        self.rec.time("analyze", "eval", id, analyze);
        if id.0.is_multiple_of(2) {
            self.counts.guard_pair(
                || drop(db.query_with(&text, &Budget::metered().guard())),
                || drop(db.query_with(&text, &Guard::unlimited())),
            );
        }
        Ok(())
    }
}

/// The layers every workload's set-up goes through, timed on the base
/// graph: index build and probes, statistics, DataGuide, literal I/O,
/// snapshot pinning.
fn base_layers(
    host: &Host,
    inputs: &Inputs,
    base: &Database,
    out: &mut Outcome,
) -> Result<(), String> {
    let g = base.graph();
    let median_ms = |f: &dyn Fn()| median_f64(&mut [timed(f).1, timed(f).1, timed(f).1]) * 1e3;
    out.push(
        "index.build_ms",
        median_ms(&|| drop(TripleIndex::build(g))),
        "ms",
        Some(3),
    );
    out.push(
        "schema.stats_collect_ms",
        median_ms(&|| drop(DataStats::collect(g))),
        "ms",
        Some(3),
    );
    let (_, guide_s) = timed(|| DataGuide::build(g));
    out.push("schema.dataguide_build_ms", guide_s * 1e3, "ms", Some(1));
    let (literal, write_s) = timed(|| ssd_graph::literal::write_graph(g));
    let (_, parse_s) = timed(|| ssd_graph::literal::parse_graph(&literal));
    let kb = literal.len() as f64 / 1024.0;
    out.push(
        "graph.write_literal_us_per_kb",
        write_s * 1e6 / kb,
        "us/KB",
        None,
    );
    out.push(
        "graph.parse_literal_us_per_kb",
        parse_s * 1e6 / kb,
        "us/KB",
        None,
    );

    let snapshots = 10_000;
    let (_, snapshot_s) = timed(|| {
        for _ in 0..snapshots {
            std::hint::black_box(host.store.snapshot());
        }
    });
    out.push(
        "store.snapshot_ns",
        snapshot_s * 1e9 / snapshots as f64,
        "ns",
        Some(snapshots),
    );

    let index = base
        .triple_index()
        .ok_or("no triple index on the base graph")?;
    out.push(
        "index.bytes_per_edge",
        index.encoded_bytes() as f64 / index.len().max(1) as f64,
        "B",
        None,
    );
    // `edges_from_labeled` on the σ keys: the title node and the title's
    // value label, as the last step of the lookup probes them.
    let title_label = g.symbols().get("Title").map(Label::Symbol);
    let title_id = title_label
        .and_then(|l| index.label_id(&l))
        .ok_or("no Title label")?;
    let mut node_of_title: HashMap<&str, u32> = HashMap::new();
    for key in index.by_label(title_id) {
        // POS order: `[label, target, source]`; the target is the title node.
        for e in g.edges(NodeId::from_index(key[1] as usize)) {
            if let Label::Value(v) = &e.label {
                node_of_title.extend(v.as_str().map(|t| (t, key[1])));
            }
        }
    }
    let probes: Vec<(u32, u32)> = (0..200)
        .filter_map(|i| {
            let title = inputs.cfg.title_of(inputs.zipf_movie(i));
            let label = index.label_id(&Label::value(title.as_str()))?;
            Some((*node_of_title.get(title.as_str())?, label))
        })
        .collect();
    let rounds = 50;
    let lookups = rounds * probes.len();
    let (hits, range2_s) = timed(|| {
        let mut hits = 0usize;
        for _ in 0..rounds {
            for &(s, p) in &probes {
                hits += std::hint::black_box(index.edges_from_labeled(s, p)).len();
            }
        }
        hits
    });
    if hits != lookups {
        out.invalid.push(format!(
            "index probes found {hits} edges for {lookups} title keys"
        ));
    }
    out.push(
        "index.range2_ns",
        range2_s * 1e9 / lookups.max(1) as f64,
        "ns",
        Some(lookups as u64),
    );
    let (keys, by_label_s) = timed(|| {
        let mut keys = 0usize;
        for _ in 0..rounds {
            let run = index.by_label(title_id);
            keys += run.len();
            std::hint::black_box(run.iter().fold(0u64, |a, k| a + u64::from(k[2])));
        }
        keys
    });
    out.push(
        "index.by_label_ns_per_key",
        by_label_s * 1e9 / keys.max(1) as f64,
        "ns",
        Some(keys as u64),
    );
    Ok(())
}

/// Tracing overhead: per class (so that the two phases' op mixes need
/// not match), the median latency with span recording on over the median
/// with it off, weighted by how many ops of the class ran; minus 1.
fn overhead_frac(workload: Workload, on: &ClosedPhase, off: &ClosedPhase) -> f64 {
    let (mut weighted, mut weight) = (0.0, 0.0);
    for &class in workload.classes() {
        let median = |p: &ClosedPhase| {
            let mut v: Vec<f64> = p
                .tally
                .samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.latency_ns as f64)
                .collect();
            (median_f64(&mut v), v.len() as f64)
        };
        let ((on_ns, n_on), (off_ns, n_off)) = (median(on), median(off));
        if on_ns > 0.0 && off_ns > 0.0 {
            weighted += (n_on + n_off) * on_ns / off_ns;
            weight += n_on + n_off;
        }
    }
    ratio(weighted, weight) - 1.0
}

pub fn run(workload: Workload, scale: u64, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(workload, scale, seed);
    let fingerprint = check_fingerprint(&inputs.cfg)?;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "traced run: scale {scale} seed {seed} graph_fingerprint {fingerprint:#018x} cores {}",
        nproc()
    ));
    let (host, setup) = Host::start(&inputs)?;
    out.push("store.init_ms", setup.init_s * 1e3, "ms", None);
    out.push("store.open_ms", setup.open_s * 1e3, "ms", None);
    let base: Arc<Database> = host.store.snapshot();
    base_layers(&host, &inputs, &base, &mut out)?;

    let oracle = Oracle::build(base.graph());
    let checker = Checker {
        inputs: &inputs,
        oracle: &oracle,
    };
    let ops: Vec<Op> = (0..traced_ops(workload, seconds))
        .map(|i| inputs.op(i))
        .collect();
    let probe_dir = host.dir.with_extension("walprobe");
    let _ = std::fs::remove_dir_all(&probe_dir);
    Store::init(&probe_dir, &Database::new(ssd_graph::Graph::new()))
        .map_err(|e| format!("store init: {e}"))?;
    let (stats, schema) = base.data_stats();
    let mut onion = Onion {
        host: &host,
        inputs: &inputs,
        checker: &checker,
        ops: &ops,
        rec: Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            bytes: HashMap::new(),
        },
        counts: Counts::default(),
        stats,
        schema,
        plain_stats: DataStats::collect(base.graph()),
        wal_probe: open(&probe_dir)?.0,
        wal_commit_s: Vec::new(),
    };
    drop(base);
    let untraced = onion.wire_untraced()?;
    onion.wire_traced()?;
    onion.submit();
    onion.engine()?;
    let Onion {
        mut rec,
        mut counts,
        wal_probe,
        mut wal_commit_s,
        ..
    } = onion;
    drop(wal_probe);
    std::fs::remove_dir_all(&probe_dir)
        .map_err(|e| format!("remove {}: {e}", probe_dir.display()))?;

    // The closed-loop wire phase keeping one span per op, against the
    // same phase keeping none.
    let next = AtomicU64::new(ops.len() as u64 * 8);
    let half = seconds * OVERHEAD_SHARE;
    let clients = nproc();
    let off = closed_loop(host.addr, &inputs, &checker, &next, clients, half, None)?;
    let t0 = Some(rec.t0);
    let on = closed_loop(host.addr, &inputs, &checker, &next, clients, half, t0)?;
    for p in [&off, &on] {
        counts.attempted += p.tally.attempted();
        counts.failed += p.tally.failed;
        counts.errors.extend(p.tally.errors.iter().cloned());
    }
    for (i, &(class, start_ns, end_ns)) in on.spans.iter().enumerate() {
        rec.spans.push(Span {
            name: "wire.closed",
            op_id: 1_000_000 + i as u32,
            class,
            parent: "",
            start_ns,
            end_ns,
        });
    }

    let served = host.server.metrics();
    let (store, dir) = host.stop()?;
    drop(store);
    let (reopened, reopen_s) = timed(|| open(&dir));
    let recovery = reopened?.1;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    write_trace(workload, &rec.spans)?;

    let times = SelfTimes::from(&rec.spans);
    let us = |name: &str| times.median(name, None) / 1e3;
    let ms = |name: &str| times.median(name, None) / 1e6;
    let bytes = |name: &str| rec.bytes.get(name).copied().unwrap_or(0) as f64;
    let n_ops = Some(ops.len() as u64);
    let selects = Some(counts.select_ops);
    let commits = Some(counts.commits);

    out.push("serve.wire_self_us", us("wire"), "us", n_ops);
    out.push("serve.submit_self_us", us("submit"), "us", n_ops);
    out.push("serve.parse_command_us", us("parse_command"), "us", n_ops);
    let codec = ratio(times.total("frame_codec"), bytes("frame_codec"));
    out.push("serve.frame_codec_ns_per_byte", codec, "ns/B", n_ops);
    let c = &served.counters;
    let submitted = (c.admitted + c.rejected) as f64;
    out.push(
        "serve.queued_frac",
        ratio(c.queued as f64, submitted),
        "ratio",
        None,
    );
    out.push(
        "serve.rejected_frac",
        ratio(c.rejected as f64, submitted),
        "ratio",
        None,
    );
    out.push("serve.queue_peak", served.queue_peak as f64, "count", None);

    out.push("query.parse_us", us("parse"), "us", selects);
    out.push("query.analyze_us", us("analyze"), "us", selects);
    out.push("query.estimate_us", us("estimate"), "us", None);
    out.push("query.plan_access_us", us("plan_access"), "us", selects);
    for class in CLASSES {
        if class.is_select() && class != Class::Recent {
            let name = format!("query.eval_us.{}", class.name());
            out.push(&name, times.median("eval", Some(class)) / 1e3, "us", None);
        }
    }
    let render = ratio(times.total("render") / 1e3, bytes("render") / 1024.0);
    out.push("query.render_us_per_kb", render, "us/KB", selects);
    let batched = ratio(counts.batched_ops as f64, counts.select_ops as f64);
    out.push("query.batched_frac", batched, "ratio", selects);
    let tried = ratio(counts.tried as f64, counts.constructed as f64);
    out.push("query.tried_per_result", tried, "ratio", selects);

    out.push("index.merge_delta_ms", ms("merge_delta"), "ms", commits);
    out.push("triples.shred_ms", ms("shred"), "ms", None);
    out.push("triples.datalog_parse_us", us("datalog_parse"), "us", None);
    out.push("triples.datalog_eval_ms", ms("datalog_eval"), "ms", None);
    out.push(
        "triples.iterations",
        counts.iterations as f64,
        "count",
        None,
    );
    out.push(
        "triples.rule_evaluations",
        counts.rule_evaluations as f64,
        "count",
        None,
    );
    let per_tuple = ratio(counts.datalog_fuel as f64, counts.datalog_tuples as f64);
    out.push("triples.fuel_per_tuple", per_tuple, "ratio", None);

    let replay_us = (reopen_s - setup.open_s).max(0.0) * 1e6;
    let replayed = recovery.txns_replayed;
    let per_txn = ratio(replay_us, replayed as f64);
    out.push("store.replay_us_per_txn", per_txn, "us", Some(replayed));
    let wal_ms = median_f64(&mut wal_commit_s) * 1e3;
    out.push("store.commit_self_ms", wal_ms, "ms", commits);
    let per_commit = ratio(counts.wal_bytes as f64, counts.commits as f64);
    out.push("store.wal_bytes_per_commit", per_commit, "B", commits);
    out.push("core.apply_insert_ms", ms("apply_insert"), "ms", commits);
    out.push("core.apply_delete_ms", ms("apply_delete"), "ms", None);

    for class in CLASSES {
        if class != Class::Recent {
            let mut fuel = counts.fuel.remove(&class).unwrap_or_default();
            let name = format!("guard.fuel_per_op.{}", class.name());
            let value = median_f64(&mut fuel);
            out.push(&name, value, "count", Some(fuel.len() as u64));
            out.counts.push((name, value as u64));
        }
    }
    let guarded = ratio(counts.metered_s - counts.unlimited_s, counts.unlimited_s);
    out.push("guard.overhead_frac", guarded, "ratio", None);
    let overhead = overhead_frac(workload, &on, &off);
    out.push(
        "trace_overhead_frac",
        overhead,
        "ratio",
        Some(on.tally.attempted()),
    );

    // Does the traced run stand for the untraced one? Per class, the
    // traced wire span against the same ops untraced.
    for (class, mut plain) in untraced {
        let mut traced: Vec<f64> = rec
            .spans
            .iter()
            .filter(|s| s.name == "wire" && s.class == class)
            .map(Span::ns)
            .collect();
        let (traced_ms, plain_ms) = (median_f64(&mut traced) / 1e6, median_f64(&mut plain) * 1e3);
        let name = format!("trace_fidelity.{}", class.name());
        let r = ratio(traced_ms, plain_ms);
        out.push(&name, r, "ratio", Some(plain.len() as u64));
        if !(0.85..=1.15).contains(&r) {
            out.notes.push(format!(
                "{name}: the traced wire median {traced_ms} ms is not within 15% of the untraced {plain_ms} ms"
            ));
        }
    }

    for (name, n) in [
        ("triples.iterations", counts.iterations),
        ("triples.rule_evaluations", counts.rule_evaluations),
        ("store.wal_bytes", counts.wal_bytes),
    ] {
        out.counts.push((name.to_string(), n));
    }
    let mut results: Vec<_> = counts.results.into_iter().collect();
    results.sort();
    for (class, n) in results {
        out.counts.push((format!("results.{}", class.name()), n));
    }
    out.notes.push(format!(
        "spans: {OUT_DIR}/trace.{}.jsonl ({} spans)",
        workload.name(),
        rec.spans.len()
    ));
    out.attempted = counts.attempted;
    out.failed = counts.failed;
    for e in counts.errors.iter().take(5) {
        out.notes.push(format!("failure: {e}"));
    }
    Ok(out)
}

fn write_trace(workload: Workload, spans: &[Span]) -> Result<(), String> {
    let path = format!("{OUT_DIR}/trace.{}.jsonl", workload.name());
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        writeln!(
            w,
            "{{\"name\": \"{}\", \"op_id\": {}, \"class\": \"{}\", \"parent\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.name,
            s.op_id,
            s.class.name(),
            s.parent,
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    w.flush().map_err(|e| format!("{path}: {e}"))
}
