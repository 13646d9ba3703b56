//! Running the whole set: each workload in a process of its own (so
//! `peak_rss_mb` is that workload's), and the two checks built on it.
//!
//! * `--repeat-check`: the full set twice (end to end and traced) on the
//!   given seed and once end to end on seed 7; every end-to-end metric
//!   of the second run must be within its bound of the first, and every
//!   exact count equal.
//! * `--quick`: scale 10^4 and 3 s phases; checks that every metric
//!   named in the tables is present with its unit.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::input::{Workload, QUICK_SCALE, WORKLOADS};
use crate::report::{per_layer, Better, Bound, Manifest, END_TO_END};
use crate::Args;

const QUICK_SECONDS: f64 = 3.0;
const OTHER_SEED: u64 = 7;

/// What one child run printed: `name → (value, unit)` and `name → count`.
#[derive(Default)]
struct Run {
    metrics: BTreeMap<String, (f64, String)>,
    counts: BTreeMap<String, u64>,
    ok: bool,
}

fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: u64,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", workload.name()))?;
    let mut run = Run {
        ok: output.status.success(),
        ..Run::default()
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["metric", _, name, value, unit, ..] => {
                let value = value.parse().map_err(|e| format!("`{line}`: {e}"))?;
                run.metrics
                    .insert(name.to_string(), (value, unit.to_string()));
            }
            ["count", _, name, value] => {
                let value = value.parse().map_err(|e| format!("`{line}`: {e}"))?;
                run.counts.insert(name.to_string(), value);
            }
            _ => {}
        }
        // The JSON result line is for the driver; everything else is
        // passed through.
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    Ok(run)
}

pub fn run_all(args: &Args, manifest: &Manifest) -> Result<bool, String> {
    if args.quick {
        return quick();
    }
    let seconds = args.seconds.unwrap_or(manifest.run_seconds as f64);
    if args.repeat_check {
        return repeat_check(args.seed, seconds, args.scale);
    }
    let mut ok = true;
    for w in WORKLOADS {
        ok &= run_child(w, args.seed, seconds, args.traced, args.scale)?.ok;
    }
    Ok(ok)
}

fn quick() -> Result<bool, String> {
    let mut problems = Vec::new();
    for w in WORKLOADS {
        let e2e = run_child(w, 42, QUICK_SECONDS, false, QUICK_SCALE)?;
        let traced = run_child(w, 42, QUICK_SECONDS, true, QUICK_SCALE)?;
        if !e2e.ok || !traced.ok {
            problems.push(format!("{}: a run failed", w.name()));
        }
        let mut expect = |run: &Run, name: &str, unit: &str| match run.metrics.get(name) {
            Some((_, got)) if got == unit => {}
            Some((_, got)) => {
                problems.push(format!("{} {name}: unit `{got}`, want `{unit}`", w.name()))
            }
            None => problems.push(format!("{} {name}: missing", w.name())),
        };
        for d in END_TO_END.iter().filter(|d| d.workloads.contains(&w)) {
            expect(&e2e, d.name, d.unit);
        }
        for (name, unit, _) in per_layer() {
            expect(&traced, &name, unit);
        }
    }
    for p in &problems {
        println!("quick-check FAIL {p}");
    }
    if problems.is_empty() {
        println!(
            "quick-check ok: every named metric is present with its unit on all four workloads"
        );
    }
    Ok(problems.is_empty())
}

/// Is `second` worse than `first` by more than the bound allows?
fn regressed(first: f64, second: f64, better: Better, bound: Bound) -> bool {
    let worse_by = match better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    match bound {
        Bound::Share(share) => worse_by > share * first.abs(),
        Bound::Absolute(by) => worse_by > by,
        Bound::Exact => first != second,
    }
}

fn repeat_check(seed: u64, seconds: f64, scale: u64) -> Result<bool, String> {
    let mut problems = Vec::new();
    for w in WORKLOADS {
        let mut e2e = Vec::new();
        let mut traced = Vec::new();
        for _ in 0..2 {
            e2e.push(run_child(w, seed, seconds, false, scale)?);
            traced.push(run_child(w, seed, seconds, true, scale)?);
        }
        let other = run_child(w, OTHER_SEED, seconds, false, scale)?;
        for (what, run) in [
            ("run 1", &e2e[0]),
            ("run 2", &e2e[1]),
            ("traced 1", &traced[0]),
            ("traced 2", &traced[1]),
            ("seed 7", &other),
        ] {
            if !run.ok {
                problems.push(format!("{} {what}: failed or invalid", w.name()));
            }
        }
        for d in END_TO_END.iter().filter(|d| d.workloads.contains(&w)) {
            let (Some((a, _)), Some((b, _))) =
                (e2e[0].metrics.get(d.name), e2e[1].metrics.get(d.name))
            else {
                problems.push(format!("{} {}: missing", w.name(), d.name));
                continue;
            };
            let verdict = if regressed(*a, *b, d.better, d.bound) {
                problems.push(format!(
                    "{} {}: {a} then {b}, outside {:?}",
                    w.name(),
                    d.name,
                    d.bound
                ));
                "FAIL"
            } else {
                "ok"
            };
            println!(
                "repeat {} {} {a} -> {b} {} ({:?}) {verdict}",
                w.name(),
                d.name,
                d.unit,
                d.bound
            );
        }
        for (first, second) in [(&e2e[0], &e2e[1]), (&traced[0], &traced[1])] {
            for (name, a) in &first.counts {
                let b = second.counts.get(name);
                let verdict = if b == Some(a) { "ok" } else { "FAIL" };
                println!("repeat {} count {name} {a} -> {b:?} {verdict}", w.name());
                if b != Some(a) {
                    problems.push(format!("{} count {name}: {a} then {b:?}", w.name()));
                }
            }
        }
    }
    for p in &problems {
        println!("repeat-check FAIL {p}");
    }
    if problems.is_empty() {
        println!("repeat-check ok: two runs agree within every bound and on every count; seed {OTHER_SEED} ran clean");
    }
    Ok(problems.is_empty())
}
