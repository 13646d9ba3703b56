//! The session quota the repo benchmark runs under. The module keeps
//! its name only because `benchmark/` imports [`bench_quota`] and
//! [`DriveConfig`] from here.

use ssd_serve::SessionQuota;

/// The server shape [`bench_quota`] sizes a quota for.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// Server worker threads.
    pub workers: usize,
    /// Server run-queue bound.
    pub queue_cap: usize,
}

impl Default for DriveConfig {
    fn default() -> DriveConfig {
        DriveConfig {
            workers: 2,
            queue_cap: 32,
        }
    }
}

/// The quota bench sessions run under: unmetered session totals with a
/// per-job ceiling far above any op's envelope, and enough concurrency
/// headroom that admission outcomes reflect the shared run queue rather
/// than a per-session cap.
pub fn bench_quota(cfg: &DriveConfig) -> SessionQuota {
    SessionQuota {
        fuel: None,
        memory: None,
        max_concurrent: cfg.workers + cfg.queue_cap,
        job_fuel: 4_000_000_000,
        job_memory: 1 << 30,
    }
}
