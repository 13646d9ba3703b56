//! Metric names, units, directions and bounds, and the output formats.
//!
//! The tables here are the benchmark's own record of what it measures;
//! `BENCHMARK.json` repeats the part of them the driver gates on, and
//! [`check_manifest`] fails when the two disagree.

use ssd_workload::json::Json;

use crate::input::{Class, Workload, CLASSES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move between two runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse by at most this share of the first run's value.
    Share(f64),
    /// Worse by at most this much, in the metric's own unit.
    Absolute(f64),
    /// Must repeat exactly.
    Exact,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Listed in `BENCHMARK.json`: defined and never 0 on every
    /// workload, so the driver can gate on it.
    pub gated: bool,
    pub workloads: &'static [Workload],
}

const ALL: &[Workload] = &[
    Workload::PointRead,
    Workload::ScanJoin,
    Workload::Closure,
    Workload::WriteMix,
];
const OPEN: &[Workload] = &[Workload::PointRead, Workload::WriteMix];
const WRITE: &[Workload] = &[Workload::WriteMix];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    gated: bool,
    workloads: &'static [Workload],
) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        gated,
        workloads,
    }
}

/// The twelve end-to-end metrics. The gated five apply to every
/// workload; the rest exist on some workloads only (or are 0 when all
/// is well), which the driver's contract does not allow, so they are
/// printed and held to their bounds by `--repeat-check` alone.
pub const END_TO_END: [Def; 12] = {
    use Better::{Higher, Lower};
    use Bound::{Absolute, Exact, Share};
    [
        e2e("setup_s", "s", Lower, Share(0.25), true, ALL),
        e2e("throughput_ops_s", "ops/s", Higher, Share(0.25), true, ALL),
        e2e("latency_p50_ms", "ms", Lower, Share(0.25), true, ALL),
        e2e("latency_p90_ms", "ms", Lower, Share(0.25), true, ALL),
        e2e("latency_p95_ms", "ms", Lower, Share(0.25), false, OPEN),
        e2e(
            "within_limit_frac",
            "ratio",
            Higher,
            Absolute(0.02),
            false,
            OPEN,
        ),
        e2e("failed_frac", "ratio", Lower, Absolute(0.0), false, ALL),
        e2e("commit_p50_ms", "ms", Lower, Share(0.20), false, WRITE),
        e2e("commit_p90_ms", "ms", Lower, Share(0.25), false, WRITE),
        e2e("recovery_s", "s", Lower, Share(0.20), false, WRITE),
        e2e(
            "wal_bytes_per_user_byte",
            "ratio",
            Lower,
            Exact,
            false,
            WRITE,
        ),
        e2e("peak_rss_mb", "MB", Lower, Share(0.25), true, ALL),
    ]
};

/// One per-layer metric: `(name, unit, better)`.
pub type LayerDef = (&'static str, &'static str, Better);

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
/// Names ending in `.` are families with one member per op class.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    const FIXED: &[LayerDef] = &[
        ("serve.wire_self_us", "us", Lower),
        ("serve.submit_self_us", "us", Lower),
        ("serve.parse_command_us", "us", Lower),
        ("serve.frame_codec_ns_per_byte", "ns/B", Lower),
        ("serve.queued_frac", "ratio", Lower),
        ("serve.rejected_frac", "ratio", Lower),
        ("serve.queue_peak", "count", Lower),
        ("query.parse_us", "us", Lower),
        ("query.analyze_us", "us", Lower),
        ("query.estimate_us", "us", Lower),
        ("query.plan_access_us", "us", Lower),
        ("query.eval_us.", "us", Lower),
        ("query.render_us_per_kb", "us/KB", Lower),
        ("query.batched_frac", "ratio", Higher),
        ("query.tried_per_result", "ratio", Lower),
        ("index.build_ms", "ms", Lower),
        ("index.bytes_per_edge", "B", Lower),
        ("index.range2_ns", "ns", Lower),
        ("index.by_label_ns_per_key", "ns", Lower),
        ("index.merge_delta_ms", "ms", Lower),
        ("triples.shred_ms", "ms", Lower),
        ("triples.datalog_parse_us", "us", Lower),
        ("triples.datalog_eval_ms", "ms", Lower),
        ("triples.iterations", "count", Lower),
        ("triples.rule_evaluations", "count", Lower),
        ("triples.fuel_per_tuple", "ratio", Lower),
        ("store.init_ms", "ms", Lower),
        ("store.open_ms", "ms", Lower),
        ("store.replay_us_per_txn", "us", Lower),
        ("store.commit_self_ms", "ms", Lower),
        ("store.wal_bytes_per_commit", "B", Lower),
        ("store.snapshot_ns", "ns", Lower),
        ("core.apply_insert_ms", "ms", Lower),
        ("core.apply_delete_ms", "ms", Lower),
        ("schema.stats_collect_ms", "ms", Lower),
        ("schema.dataguide_build_ms", "ms", Lower),
        ("graph.parse_literal_us_per_kb", "us/KB", Lower),
        ("graph.write_literal_us_per_kb", "us/KB", Lower),
        ("guard.fuel_per_op.", "count", Lower),
        ("guard.overhead_frac", "ratio", Lower),
        ("trace_overhead_frac", "ratio", Lower),
    ];
    let mut out = Vec::new();
    for &(name, unit, better) in FIXED {
        if !name.ends_with('.') {
            out.push((name.to_string(), unit, better));
            continue;
        }
        for class in CLASSES {
            let wanted = class != Class::Recent && (name != "query.eval_us." || class.is_select());
            if wanted {
                out.push((format!("{name}{}", class.name()), unit, better));
            }
        }
    }
    out
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing.
    pub n: Option<u64>,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Counts that must repeat exactly between runs of the same code.
    pub counts: Vec<(String, u64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run does not count (non-zero exit).
    pub invalid: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, n: Option<u64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// The human-readable block: one `metric`/`count`/`note` line each.
    /// `--repeat-check` and `--quick` read these lines back.
    pub fn print(&self, workload: Workload) {
        let w = workload.name();
        for m in &self.metrics {
            let n = m.n.map_or(String::new(), |n| format!(" n={n}"));
            println!("metric {w} {} {} {}{n}", m.name, m.value, m.unit);
        }
        for (name, v) in &self.counts {
            println!("count {w} {name} {v}");
        }
        for note in &self.notes {
            println!("note {w} {note}");
        }
        for why in &self.invalid {
            println!("invalid {w} {why}");
        }
    }

    /// The driver's result line: the named metrics only, as JSON.
    pub fn json_line(&self, names: &[String]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let m = self.metrics.iter().find(|m| &m.name == name);
                let (value, unit) = m.map_or((0.0, ""), |m| (m.value, m.unit));
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.invalid.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn gated_names() -> Vec<String> {
    END_TO_END
        .iter()
        .filter(|d| d.gated)
        .map(|d| d.name.to_string())
        .collect()
}

pub fn layer_names() -> Vec<String> {
    per_layer().into_iter().map(|(n, _, _)| n).collect()
}

/// `BENCHMARK.json`, as far as the harness reads it.
pub struct Manifest {
    pub run_seconds: u64,
}

/// Read `BENCHMARK.json` from the working directory and check that what
/// it lists is what this harness reports: workload names, the gated
/// end-to-end metrics with unit, direction and bound, and every
/// per-layer metric.
pub fn check_manifest() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let str_of = |j: &Json, key: &str| j.path(&[key]).as_str().unwrap_or("").to_string();

    let listed: Vec<String> = json
        .path(&["workloads"])
        .as_array()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<String> = crate::input::WORKLOADS
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    if listed != ours {
        return Err(format!(
            "BENCHMARK.json workloads {listed:?}, harness {ours:?}"
        ));
    }

    let row = |j: &Json| -> String {
        let bound = match j.path(&["bound"]) {
            Json::Num(n) => format!(" {}", n.parse::<f64>().unwrap_or(f64::NAN)),
            _ => String::new(),
        };
        format!(
            "{} {} {}{bound}",
            str_of(j, "name"),
            str_of(j, "unit"),
            str_of(j, "better")
        )
    };
    let listed: Vec<String> = json
        .path(&["end_to_end"])
        .as_array()
        .iter()
        .map(row)
        .collect();
    let ours: Vec<String> = END_TO_END
        .iter()
        .filter(|d| d.gated)
        .map(|d| {
            let Bound::Share(b) = d.bound else {
                unreachable!("gated metrics have share bounds");
            };
            format!("{} {} {} {b}", d.name, d.unit, d.better.name())
        })
        .collect();
    if listed != ours {
        return Err(format!(
            "BENCHMARK.json end_to_end {listed:?} differs from the harness table {ours:?}"
        ));
    }
    let listed: Vec<String> = json
        .path(&["per_layer"])
        .as_array()
        .iter()
        .map(row)
        .collect();
    let ours: Vec<String> = per_layer()
        .into_iter()
        .map(|(n, unit, better)| format!("{n} {unit} {}", better.name()))
        .collect();
    if listed != ours {
        let missing: Vec<&String> = ours.iter().filter(|o| !listed.contains(o)).collect();
        let extra: Vec<&String> = listed.iter().filter(|l| !ours.contains(l)).collect();
        return Err(format!(
            "BENCHMARK.json per_layer differs from the harness table: \
             missing {missing:?}, unknown {extra:?} (or the order differs)"
        ));
    }
    let run_seconds = json
        .path(&["run_seconds"])
        .as_u64()
        .ok_or("BENCHMARK.json has no run_seconds")?;
    Ok(Manifest { run_seconds })
}
