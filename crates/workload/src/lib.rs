//! # ssd-workload — the seeded graph generator the benchmark loads
//!
//! What is left of the retired `ssd bench` harness (E21): the pieces
//! the repo benchmark under `benchmark/` imports, at the paths it
//! imports them from.
//!
//! | piece | module | role |
//! |---|---|---|
//! | seeded IMDB-shaped graph generator | [`gen`] | byte-identical streams at 10^4–10^7 edges, plus their FNV-1a fingerprint |
//! | JSON reader | [`json`] | parses `BENCHMARK.json` for the benchmark's manifest check |
//! | session quota | [`driver`] | [`bench_quota`](driver::bench_quota), the quota benchmark sessions run under |
//!
//! `driver` keeps its name only because `benchmark/` imports it from
//! there; the open-loop driver it was named for is gone.

pub mod driver;
pub mod gen;
pub mod json;
