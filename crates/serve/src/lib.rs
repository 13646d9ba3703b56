//! # ssd-serve — concurrent, admission-controlled query serving
//!
//! The system layer Buneman's tutorial presumes around the model: a
//! *database* serving ad-hoc queries over a shared graph, not a
//! one-shot evaluator. A [`Server`] owns an immutable, `Arc`-shared
//! [`Database`](semistructured::Database) and runs sessions against it:
//!
//! - **Sessions & quotas** ([`quota`]): every session carries a
//!   [`SessionQuota`] — total fuel/memory for its lifetime plus a
//!   per-job ceiling and a concurrency cap. The quota is a
//!   [`Budget`](ssd_guard::Budget); jobs receive checked
//!   `Budget::split` grants and refund what they do not spend.
//! - **Admission before execution** ([`sched`]): each submitted job is
//!   parsed and checked once — what an engine refuses statically never
//!   reaches the scheduler — then statically costed (ssd-cost) and
//!   admitted against the per-job ceiling and the session balance
//!   *before* a single engine step runs; over-budget work is rejected
//!   (SSD030/SSD200) for free, surplus admitted work waits in a bounded
//!   queue (SSD201/SSD202).
//! - **Governed, isolated execution** ([`server`]): a fixed worker pool
//!   runs jobs under PR 2 guards — deterministic fuel, byte-accounted
//!   memory, cancellation tokens (`CANCEL <job>` works mid-fixpoint),
//!   panics confined to the offending job (SSD111).
//! - **Streaming results**: chunks of the result literal flow back at
//!   guard tick boundaries through bounded channels (backpressure, and
//!   the seam where mid-stream cancellation lands).
//! - **Observability** ([`metrics`]): per-session and global counters,
//!   fuel spent vs. estimated, queue depth, p50/p99 latency — via the
//!   `STATS` verb and `ssd serve --metrics-dump`.
//! - **Wire protocol** ([`protocol`], [`net`]): length-prefixed UTF-8
//!   frames over TCP; `ssd client` speaks it from a script.
//!
//! Determinism is a design constraint, not an accident: the scheduler
//! is a pure state machine behind one mutex, timestamped by an
//! injectable [`Clock`](clock::Clock), and every decision lands in a
//! [`TraceEvent`](sched::TraceEvent) log the tests replay and compare.

/// The crate-wide mutex hierarchy, outermost first. Any function that
/// holds two locks at once must acquire them in this order, and no
/// blocking operation (worker `join()`, channel send/recv) may run
/// while one is held; `ssd lint` (SSD904) checks both statically,
/// resolving each `x.lock()` receiver against these names:
///
/// - `state` — [`server`]'s scheduler state + ready queue (the one hot
///   mutex; its `Condvar` partner `work` wakes idle workers).
/// - `workers` — the worker `JoinHandle`s, touched only at shutdown.
/// - `writer` — the per-connection TCP write half in [`net`].
pub const LOCK_ORDER: &[&str] = &["state", "workers", "writer"];

pub mod clock;
pub mod metrics;
pub mod net;
pub mod protocol;
pub mod quota;
pub mod sched;
pub mod server;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{Counters, Histogram, Metrics};
pub use protocol::{
    decode_frame, encode_frame, parse_command, parse_command_with, Command, FrameError, MAX_FRAME,
};
pub use quota::SessionQuota;
pub use sched::{
    Decision, Dequeued, FinishKind, JobId, JobKind, Scheduler, SessionId, Ticket, TraceEvent,
};
pub use server::{
    JobEvent, JobHandle, JobOutcome, ServeConfig, Server, SessionHandle, SubmitError, PANIC_PROBE,
};
