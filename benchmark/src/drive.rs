//! The two load shapes. An open loop sends on a precomputed schedule
//! whatever the server does, and times each op from when it was *due*;
//! a closed loop sends a client's next op when its previous one is
//! answered, and times from the send. Both use at most one connection
//! and one generator thread per core.

use std::collections::HashMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ssd_serve::protocol::encode_frame;

use crate::input::{Class, Inputs, Op};
use crate::wire::{classify, connect, Checker, Client, Frame, Reply};

#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    pub latency_ns: u64,
    pub ok: bool,
}

/// What a phase did, summed over its connections.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    pub commits_acked: u64,
    /// Bytes of txn bodies sent.
    pub user_bytes: u64,
}

impl Tally {
    fn record(&mut self, checker: &Checker, op: &Op, reply: &Reply, latency_ns: u64) {
        let verdict = checker.check(op, reply);
        if op.class == Class::Commit {
            self.user_bytes += op.txn().body_bytes();
            self.commits_acked += u64::from(reply.generation().is_some());
        }
        self.samples.push(Sample {
            class: op.class,
            latency_ns,
            ok: verdict.is_ok(),
        });
        if let Err(e) = verdict {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.commits_acked += other.commits_acked;
        self.user_bytes += other.user_bytes;
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }
}

#[derive(Debug, Default)]
pub struct OpenPhase {
    pub tally: Tally,
    /// How late each op left the generator, in ns after its due time.
    pub lag_ns: Vec<u64>,
    /// Mean ops in flight over the third and the last quarter of the
    /// schedule: a backlog that grows shows as the last exceeding the
    /// third.
    pub inflight_q3: f64,
    pub inflight_q4: f64,
    /// Time from the last due op to the last reply.
    pub drain_s: f64,
    pub generators: usize,
    pub connections: usize,
}

/// An op the sender has put on the wire and the reader has not yet seen
/// fully acknowledged.
struct Pending {
    op: Op,
    due: Instant,
    acks: usize,
}

struct InFlight {
    op: Op,
    due: Instant,
    reply: Reply,
}

/// Ops an open loop keeps in flight at most: what the server's default
/// run queue (16) holds, so that with any number of workers none is
/// refused. The rates are chosen so that a run does not come near it.
const MAX_IN_FLIGHT: i64 = 16;

fn sleep_until(t: Instant) {
    // `sleep` overshoots by the timer slack; stop short and spin the rest.
    const SPIN: Duration = Duration::from_micros(150);
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        if d > SPIN {
            std::thread::sleep(d - SPIN);
        }
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// Issue ops `first..first + due.len()` of the workload's sequence at the
/// given due times (ns from phase start), spread round-robin over
/// `conns` connections.
pub fn open_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    checker: &Checker,
    due: &[u64],
    first: u64,
    conns: usize,
) -> Result<OpenPhase, String> {
    let inflight = AtomicI64::new(0);
    let mut links = Vec::new();
    for _ in 0..conns {
        links.push(connect(addr)?);
    }
    // Leave the threads a moment to start before the first op is due.
    let start = Instant::now() + Duration::from_millis(20);
    let mut phase = OpenPhase {
        generators: conns,
        connections: conns,
        ..OpenPhase::default()
    };
    let mut inflight_at: Vec<(usize, i64)> = Vec::with_capacity(due.len());
    let mut last_reply = start;

    std::thread::scope(|scope| -> Result<(), String> {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (c, (mut writer, mut reader)) in links.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Pending>();
            let inflight = &inflight;
            senders.push(scope.spawn(move || -> Result<_, String> {
                let mut lag = Vec::new();
                let mut seen = Vec::new();
                for j in (c..due.len()).step_by(conns) {
                    // Everything that can be done before the op is due
                    // is, so the generator is late by the send alone.
                    let op = inputs.op(first + j as u64);
                    let frames = op.frames();
                    let bytes: Vec<u8> = frames.iter().flat_map(|f| encode_frame(f)).collect();
                    let due_at = start + Duration::from_nanos(due[j]);
                    sleep_until(due_at);
                    // The server refuses (SSD201) what its workers and run
                    // queue cannot hold. After a stall of the host a burst
                    // of due ops would run into that, so they are held
                    // back instead; the wait counts as lateness and, like
                    // all lateness, in the op's latency.
                    while inflight.load(Ordering::Relaxed) >= MAX_IN_FLIGHT {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    lag.push(due_at.elapsed().as_nanos() as u64);
                    seen.push((j, inflight.fetch_add(1, Ordering::Relaxed) + 1));
                    tx.send(Pending {
                        op,
                        due: due_at,
                        acks: frames.len(),
                    })
                    .map_err(|_| "reader thread ended early".to_string())?;
                    writer
                        .write_all(&bytes)
                        .map_err(|e| format!("write to server: {e}"))?;
                }
                Ok((lag, seen))
            }));
            readers.push(scope.spawn(move || -> Result<_, String> {
                let mut tally = Tally::default();
                let mut jobs: HashMap<u64, InFlight> = HashMap::new();
                // The command whose acknowledgements are arriving, and
                // the job id or refusal they have carried so far.
                let mut acking: Option<(Pending, Option<u64>, Option<String>)> = None;
                let mut last = Instant::now();
                loop {
                    if acking.is_none() && jobs.is_empty() {
                        match rx.recv() {
                            Ok(p) => acking = Some((p, None, None)),
                            Err(_) => return Ok((tally, last)),
                        }
                    }
                    let payload = reader.next()?;
                    let mut finished: Option<InFlight> = None;
                    match classify(&payload)? {
                        Frame::Chunk(id, body) => {
                            let job = jobs.get_mut(&id).ok_or("chunk for an unknown job")?;
                            job.reply.bytes += payload.len() as u64;
                            job.reply.chunk(job.op.class, body);
                        }
                        Frame::Done(id, summary) => {
                            let mut job = jobs.remove(&id).ok_or("DONE for an unknown job")?;
                            job.reply.summary = summary.to_string();
                            finished = Some(job);
                        }
                        Frame::Failed(id, error) => {
                            let mut job = jobs.remove(&id).ok_or("ERR for an unknown job")?;
                            job.reply.error = Some(error.to_string());
                            finished = Some(job);
                        }
                        ack => {
                            // Acknowledgements come back in command
                            // order, so this one is for the oldest
                            // command still waiting.
                            let (mut p, mut job, mut refused) = match acking.take() {
                                Some(a) => a,
                                None => (
                                    rx.recv().map_err(|_| "acknowledgement for nothing sent")?,
                                    None,
                                    None,
                                ),
                            };
                            match ack {
                                Frame::Admitted(id) => job = Some(id),
                                Frame::Refused(why) => refused = Some(why.to_string()),
                                _ => {}
                            }
                            p.acks -= 1;
                            if p.acks > 0 {
                                acking = Some((p, job, refused));
                            } else if let Some(id) = job {
                                jobs.insert(
                                    id,
                                    InFlight {
                                        op: p.op,
                                        due: p.due,
                                        reply: Reply::default(),
                                    },
                                );
                            } else {
                                finished = Some(InFlight {
                                    op: p.op,
                                    due: p.due,
                                    reply: Reply::refused(
                                        refused.as_deref().unwrap_or("no job was started"),
                                    ),
                                });
                            }
                        }
                    }
                    if let Some(job) = finished {
                        last = Instant::now();
                        let latency = last.duration_since(job.due).as_nanos() as u64;
                        inflight.fetch_sub(1, Ordering::Relaxed);
                        tally.record(checker, &job.op, &job.reply, latency);
                    }
                }
            }));
        }
        for s in senders {
            let (lag, seen) = s.join().map_err(|_| "generator thread panicked")??;
            phase.lag_ns.extend(lag);
            inflight_at.extend(seen);
        }
        for r in readers {
            let (tally, last) = r.join().map_err(|_| "reader thread panicked")??;
            phase.tally.merge(tally);
            last_reply = last_reply.max(last);
        }
        Ok(())
    })?;

    phase.lag_ns.sort_unstable();
    inflight_at.sort_unstable();
    let mean = |part: &[(usize, i64)]| {
        part.iter().map(|&(_, n)| n as f64).sum::<f64>() / part.len().max(1) as f64
    };
    let n = inflight_at.len();
    phase.inflight_q3 = mean(&inflight_at[n / 2..n * 3 / 4]);
    phase.inflight_q4 = mean(&inflight_at[n * 3 / 4..]);
    let last_due = start + Duration::from_nanos(due.last().copied().unwrap_or(0));
    phase.drain_s = last_reply.saturating_duration_since(last_due).as_secs_f64();
    Ok(phase)
}

#[derive(Debug, Default)]
pub struct ClosedPhase {
    pub tally: Tally,
    /// Phase start to the last reply.
    pub elapsed_s: f64,
    pub clients: usize,
    /// With span recording on: `(class, start_ns, end_ns)` per op.
    pub spans: Vec<(Class, u64, u64)>,
}

/// `clients` connections, each issuing the next op of the shared sequence
/// (`next` hands out indices) as soon as its previous one is answered,
/// for `secs` seconds. `record_from` turns span recording on: one span per
/// op, in ns since that instant.
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    checker: &Checker,
    next: &AtomicU64,
    clients: usize,
    secs: f64,
    record_from: Option<Instant>,
) -> Result<ClosedPhase, String> {
    let mut links = Vec::new();
    for _ in 0..clients {
        links.push(Client::connect(addr)?);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let mut phase = ClosedPhase {
        clients,
        ..ClosedPhase::default()
    };
    std::thread::scope(|scope| -> Result<(), String> {
        let threads: Vec<_> = links
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || -> Result<_, String> {
                    let mut tally = Tally::default();
                    let mut spans = Vec::new();
                    let mut last = Instant::now();
                    while last < deadline {
                        let op = inputs.op(next.fetch_add(1, Ordering::Relaxed));
                        let sent = Instant::now();
                        let reply = client.call(&op)?;
                        last = Instant::now();
                        let latency = last.duration_since(sent).as_nanos() as u64;
                        tally.record(checker, &op, &reply, latency);
                        if let Some(t0) = record_from {
                            let start = sent.duration_since(t0).as_nanos() as u64;
                            spans.push((op.class, start, start + latency));
                        }
                    }
                    Ok((tally, spans, last))
                })
            })
            .collect();
        let mut end = start;
        for t in threads {
            let (tally, spans, last) = t.join().map_err(|_| "client thread panicked")??;
            phase.tally.merge(tally);
            phase.spans.extend(spans);
            end = end.max(last);
        }
        phase.elapsed_s = end.duration_since(start).as_secs_f64();
        Ok(())
    })?;
    Ok(phase)
}
