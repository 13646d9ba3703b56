//! E16 — serving: the per-job cost of going through the
//! admission-controlled server (estimate → admit → dispatch → stream →
//! refund) versus calling the engine directly, and the cost of a
//! rejection (which must not touch the engine at all).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semistructured::query::{evaluate_select, parse_query};
use semistructured::{Database, EvalOptions};
use ssd_bench::movies;
use ssd_serve::{JobKind, ServeConfig, Server, SessionQuota};
use std::sync::Arc;

const PATH3: &str = "select T from db.Entry.Movie.Title T";

fn roomy() -> SessionQuota {
    SessionQuota {
        fuel: None,
        memory: None,
        max_concurrent: 4,
        job_fuel: 1 << 40,
        job_memory: 1 << 32,
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_serve");
    let db = Arc::new(Database::new(movies(100)));

    // Bare-engine baseline for the same workload.
    let q = parse_query(PATH3).unwrap();
    group.bench_with_input(BenchmarkId::new("engine_path3", 100), &db, |b, db| {
        b.iter(|| evaluate_select(db.graph(), &q, &EvalOptions::default()).unwrap())
    });

    // Through the server: submit → admit → dispatch → stream → wait.
    let server = Server::start(Arc::clone(&db), ServeConfig::default());
    let sess = server.open_session(roomy());
    group.bench_with_input(BenchmarkId::new("served_path3", 100), &(), |b, ()| {
        b.iter(|| {
            let outcome = sess.submit(JobKind::Query, PATH3).unwrap().wait();
            assert!(outcome.error.is_none(), "{:?}", outcome.error);
            outcome.chunks.len()
        })
    });

    // Rejection path: a 1-fuel per-job ceiling fails admission before
    // any engine work — this is the "rejection is free" half of E16. Only
    // an interpreter shape has a fuel lower bound to reject on.
    const WILD: &str = "select T from db.Entry.%.Title T";
    let tight = server.open_session(SessionQuota {
        job_fuel: 1,
        ..roomy()
    });
    group.bench_with_input(BenchmarkId::new("rejected_submit", 100), &(), |b, ()| {
        b.iter(|| tight.submit(JobKind::Query, WILD).is_err())
    });
    let tight_books = tight.counters().expect("session counters");
    assert_eq!(tight_books.fuel_spent, 0, "rejections must cost no fuel");
    tight.close();
    sess.close();

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
