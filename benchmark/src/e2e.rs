//! One workload, end to end, over the wire, with tracing off.

use std::sync::atomic::AtomicU64;
use std::time::Instant;

use crate::drive::{closed_loop, open_loop, ClosedPhase, OpenPhase, Sample, Tally};
use crate::host::{open, Host};
use crate::input::{
    check_fingerprint, Class, Inputs, Workload, CLOSED_COMMIT_EVERY, OPEN_COMMIT_EVERY,
};
use crate::oracle::Oracle;
use crate::report::Outcome;
use crate::stats::{median_f64, nproc, ns_to_ms, peak_rss_mb, quantile};
use crate::wire::{Checker, Client};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of the measured time an open-loop workload spends in its open
/// loop (the issue's 25 s of 35 s); the rest is its closed loop.
const OPEN_SHARE: f64 = 25.0 / 35.0;
/// Generator lateness above these invalidates the run. The generator
/// shares two cores with the server it drives, and there a wake-up behind
/// a busy worker costs up to a scheduler slice (p90 ≤ 1.1 ms and p99 ≈ 4 ms
/// measured, 0.2 ms on an idle machine), and now and then a stall of the
/// shared host makes a handful of ops 30–50 ms late. Latencies are timed
/// from the due time, so lateness is in them; what the limits protect is
/// the median and the p90 the driver gates on, so they are set at those
/// quantiles. The tail (`driver.lag_p99_ms`, `driver.lag_max_ms`) is
/// reported, not gated: a p99 limit of 25 ms failed one run in ten on
/// host stalls alone.
const MAX_LAG_P50_MS: f64 = 1.0;
const MAX_LAG_P90_MS: f64 = 5.0;
/// In-flight ops the last quarter of an open loop may exceed the quarter
/// before by, on average, before the backlog counts as growing.
const BACKLOG_SLACK: f64 = 8.0;

fn sorted_latencies(samples: &[Sample], keep: impl Fn(Class) -> bool) -> Vec<u64> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| keep(s.class))
        .map(|s| s.latency_ns)
        .collect();
    v.sort_unstable();
    v
}

pub fn run(workload: Workload, scale: u64, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let inputs = Inputs::new(workload, scale, seed);
    let fingerprint = check_fingerprint(&inputs.cfg)?;
    let mut out = Outcome::default();
    out.notes.push(format!(
        "scale {scale} seed {seed} graph_fingerprint {fingerprint:#018x} cores {}",
        nproc()
    ));

    let (host, first_setup) = Host::start(&inputs)?;

    let oracle = Oracle::build(host.store.snapshot().graph());
    let checker = Checker {
        inputs: &inputs,
        oracle: &oracle,
    };
    let wal_before = host.store.wal_len();
    let generation_before = host.store.generation();

    let open_phase: Option<(OpenPhase, crate::input::OpenLoop)> = match workload.open_loop() {
        Some(spec) => {
            let due = inputs.schedule(spec.rate, seconds * OPEN_SHARE);
            let mut open_inputs = Inputs::new(workload, scale, seed);
            open_inputs.commit_every = OPEN_COMMIT_EVERY;
            Some((
                open_loop(host.addr, &open_inputs, &checker, &due, 0, nproc())?,
                spec,
            ))
        }
        None => None,
    };
    // The open loop's txns are fixed by the schedule, so WAL growth over
    // it repeats exactly; the closed loop's count depends on timing.
    let wal_open = host.store.wal_len() - wal_before;
    let first_closed = open_phase.as_ref().map_or(0, |(p, _)| p.tally.attempted());
    let closed_secs = match open_phase {
        Some(_) => seconds * (1.0 - OPEN_SHARE),
        None => seconds,
    };
    let next = AtomicU64::new(first_closed);
    let closed: ClosedPhase = closed_loop(
        host.addr,
        &inputs,
        &checker,
        &next,
        nproc(),
        closed_secs,
        None,
    )?;

    // Latency comes from the open loop where there is one: that is where
    // waiting behind a stall is counted.
    let latency_of: &Tally = open_phase.as_ref().map_or(&closed.tally, |(p, _)| &p.tally);
    let reads = sorted_latencies(&latency_of.samples, |c| c != Class::Commit);
    let n = Some(reads.len() as u64);
    let ok_closed = closed.tally.samples.iter().filter(|s| s.ok).count();
    out.push(
        "throughput_ops_s",
        ok_closed as f64 / closed.elapsed_s,
        "ops/s",
        Some(ok_closed as u64),
    );
    out.push("latency_p50_ms", ns_to_ms(quantile(&reads, 0.50)), "ms", n);
    out.push("latency_p90_ms", ns_to_ms(quantile(&reads, 0.90)), "ms", n);

    let mut attempted = closed.tally.attempted();
    let mut failed = closed.tally.failed;
    let mut errors = closed.tally.errors.clone();
    let mut commits_acked = closed.tally.commits_acked;
    if closed.clients > nproc() {
        out.invalid.push(format!(
            "{} closed-loop clients on {} cores",
            closed.clients,
            nproc()
        ));
    }

    if let Some((phase, spec)) = &open_phase {
        out.push("latency_p95_ms", ns_to_ms(quantile(&reads, 0.95)), "ms", n);
        let within = phase
            .tally
            .samples
            .iter()
            .filter(|s| {
                let limit = if s.class == Class::Commit {
                    spec.commit_limit_ms
                } else {
                    spec.read_limit_ms
                };
                s.ok && ns_to_ms(s.latency_ns) <= limit
            })
            .count();
        let due = phase.tally.attempted();
        out.push(
            "within_limit_frac",
            within as f64 / due.max(1) as f64,
            "ratio",
            Some(due),
        );
        let lag_p50 = ns_to_ms(quantile(&phase.lag_ns, 0.50));
        let lag_p90 = ns_to_ms(quantile(&phase.lag_ns, 0.90));
        let lag_p99 = ns_to_ms(quantile(&phase.lag_ns, 0.99));
        out.push(
            "driver.lag_p50_ms",
            lag_p50,
            "ms",
            Some(phase.lag_ns.len() as u64),
        );
        out.push(
            "driver.lag_p90_ms",
            lag_p90,
            "ms",
            Some(phase.lag_ns.len() as u64),
        );
        out.push(
            "driver.lag_max_ms",
            ns_to_ms(phase.lag_ns.last().copied().unwrap_or(0)),
            "ms",
            None,
        );
        out.push(
            "driver.lag_p99_ms",
            lag_p99,
            "ms",
            Some(phase.lag_ns.len() as u64),
        );
        out.push("driver.inflight_q3", phase.inflight_q3, "count", None);
        out.push("driver.inflight_q4", phase.inflight_q4, "count", None);
        // How close the run came to an SSD201 refusal: the run queue
        // holds `queue_cap` (16) jobs beyond the ones the workers run.
        out.push(
            "driver.queue_peak",
            host.server.metrics().queue_peak as f64,
            "count",
            None,
        );
        out.push("driver.drain_s", phase.drain_s, "s", None);
        if lag_p50 > MAX_LAG_P50_MS || lag_p90 > MAX_LAG_P90_MS {
            out.invalid.push(format!(
                "generator lateness p50 {lag_p50} ms, p90 {lag_p90} ms exceeds {MAX_LAG_P50_MS} / {MAX_LAG_P90_MS} ms"
            ));
        }
        if phase.inflight_q4 > phase.inflight_q3 + BACKLOG_SLACK {
            out.invalid.push(format!(
                "backlog still growing at phase end: {} ops in flight over the last quarter, {} over the one before",
                phase.inflight_q4, phase.inflight_q3
            ));
        }
        if phase.generators > nproc() || phase.connections > nproc() {
            out.invalid.push(format!(
                "{} generator threads and {} connections on {} cores",
                phase.generators,
                phase.connections,
                nproc()
            ));
        }
        attempted += phase.tally.attempted();
        failed += phase.tally.failed;
        errors.extend(phase.tally.errors.iter().cloned());
        commits_acked += phase.tally.commits_acked;
        out.counts.push(("open_loop_ops_due".to_string(), due));

        if workload == Workload::WriteMix {
            out.push(
                "wal_bytes_per_user_byte",
                wal_open as f64 / phase.tally.user_bytes.max(1) as f64,
                "ratio",
                Some(phase.tally.commits_acked),
            );
            out.counts
                .push(("open_loop_wal_bytes".to_string(), wal_open));
            let commits = sorted_latencies(&phase.tally.samples, |c| c == Class::Commit);
            let n = Some(commits.len() as u64);
            out.push("commit_p50_ms", ns_to_ms(quantile(&commits, 0.50)), "ms", n);
            out.push("commit_p90_ms", ns_to_ms(quantile(&commits, 0.90)), "ms", n);
        }
    }

    if workload == Workload::WriteMix {
        // One last txn after everything has drained: its `Seq` is the
        // last acknowledged one, and must be readable after recovery.
        let last_seq =
            next.load(std::sync::atomic::Ordering::Relaxed) / CLOSED_COMMIT_EVERY * 8 + 8;
        let sentinel = inputs.make(Class::Commit, last_seq);
        let mut client = Client::connect(host.addr)?;
        let reply = client.call(&sentinel)?;
        drop(client);
        attempted += 1;
        match reply.generation() {
            Some(_) => commits_acked += 1,
            None => {
                failed += 1;
                errors.push(format!(
                    "last commit answered `{}` {:?}",
                    reply.summary, reply.error
                ));
            }
        }
        // Drop the server and the store, then recover the directory.
        let want_txns = generation_before + commits_acked;
        let (store, dir) = host.stop()?;
        drop(store);
        let t = Instant::now();
        let (recovered, report) = open(&dir)?;
        out.push(
            "recovery_s",
            t.elapsed().as_secs_f64(),
            "s",
            Some(report.txns_replayed),
        );
        if report.txns_replayed != want_txns || report.truncated_bytes != 0 {
            out.invalid.push(format!(
                "recovery replayed {} txn(s) and dropped {} byte(s); {want_txns} commits were acknowledged",
                report.txns_replayed, report.truncated_bytes
            ));
        }
        let seqs = recovered
            .snapshot()
            .query("select S from db.BenchW.Run.Seq S")
            .map_err(|e| format!("query after recovery: {e}"))?
            .to_literal();
        let last = last_seq.to_string();
        let readable = seqs
            .split(|c: char| !c.is_ascii_digit())
            .any(|token| token == last);
        if !readable {
            out.invalid.push(format!(
                "the last acknowledged Seq {last_seq} is not readable after recovery (found {seqs})"
            ));
        }
        out.notes.push(format!(
            "durability: recovery replayed {} of {want_txns} acknowledged txn(s); the last acknowledged Seq \
             {last_seq} is {}readable. This proves replay completeness, not fsync honesty: the sandbox cannot \
             drop the OS cache, so unflushed bytes would have survived too. Flush policy: the shipped one, \
             sync_data on every commit.",
            report.txns_replayed,
            if readable { "" } else { "NOT " }
        ));
        drop(recovered);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    } else {
        host.discard()?;
    }

    out.push(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        Some(attempted),
    );
    out.push("peak_rss_mb", peak_rss_mb(), "MB", None);

    // `setup_s` is the median of several set-ups. The others are made
    // here, after the peak RSS is read: each starts fresh worker threads
    // whose allocator arenas may or may not be reused ones, and made
    // before the run they moved `peak_rss_mb` by ±10% between runs of
    // one seed (62–79 MB against 61.2–61.9 MB on `scan_join`).
    let mut setups = vec![first_setup];
    for _ in 1..SETUPS {
        let (extra, times) = Host::start(&inputs)?;
        extra.discard()?;
        setups.push(times);
    }
    let mut totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    out.push("setup_s", median_f64(&mut totals), "s", Some(SETUPS as u64));
    out.notes.push(format!(
        "first set-up: generate {:.3} s, Store::init {:.3} s, Store::open {:.3} s, warm-up {:.3} s",
        first_setup.generate_s, first_setup.init_s, first_setup.open_s, first_setup.warmup_s
    ));
    out.attempted = attempted;
    out.failed = failed;
    for e in errors.iter().take(5) {
        out.notes.push(format!("failure: {e}"));
    }
    Ok(out)
}
