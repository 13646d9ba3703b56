//! Crash-safety integration tests for `ssd-store`: a seeded
//! crash-schedule matrix over every WAL fault site, a property test
//! interleaving random transactions with injected crashes, snapshot
//! isolation under a concurrent writer, and the SSD4xx diagnostics —
//! SSD400 (torn tail truncated), SSD401 (checksum mismatch), SSD402
//! (recovery replay note), SSD403 (write on a read-only store) — and the
//! statistics each generation carries, checked against a graph walk.
//!
//! The contract under test is the one `docs/ROBUSTNESS.md` states:
//! after any injected crash, reopening the store yields *exactly* the
//! committed-transaction prefix — no committed transaction is lost, no
//! uncommitted operation is visible.

use proptest::prelude::*;
use semistructured::graph::bisim::graphs_bisimilar;
use semistructured::{Budget, DataStats, Database, Graph, Label};
use ssd_store::{Op, Store, StoreError, Txn};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const SEED: &str = "{Seed: {Tag: \"origin\"}}";

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ssd-store-it-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

fn seed_db() -> Database {
    Database::from_literal(SEED).expect("seed literal")
}

fn open_clean(dir: &Path) -> (Store, ssd_store::RecoveryReport) {
    Store::open(dir, &Budget::unlimited()).expect("clean open")
}

/// The transaction the matrix and the proptest replay: insert a
/// distinctly-labeled node so every committed txn is visible in the
/// canonical literal.
fn txn_for(i: u64) -> Txn {
    let mut t = Txn::new();
    t.push(Op::Insert(format!("{{T{i}: {{N: {i}}}}}")));
    t
}

/// Apply the same transactions to a mirror database — the oracle for
/// "reopened state equals exactly the committed prefix".
fn mirror(committed: u64) -> String {
    let mut db = seed_db();
    for i in 0..committed {
        let add = Database::from_literal(&format!("{{T{i}: {{N: {i}}}}}")).unwrap();
        db = db.union(&add);
    }
    db.to_literal()
}

// ------------------------------------------------------------- matrix

/// Every fault site × every schedule position: commit until the
/// injected crash poisons the store, then reopen and check the
/// committed prefix survived bit-exactly.
#[test]
fn crash_schedule_matrix_preserves_committed_prefix() {
    for site in ["wal.write", "wal.torn", "wal.short", "wal.fsync"] {
        for nth in 1u64..=3 {
            let dir = tmpdir("matrix");
            Store::init(&dir, &seed_db()).unwrap();
            let budget = Budget::unlimited().fail_at(site, nth);
            let (store, _) = Store::open(&dir, &budget).unwrap();

            let mut committed = 0u64;
            let mut crashed = false;
            for i in 0..8u64 {
                match store.commit(&txn_for(i)) {
                    Ok(info) => {
                        assert!(!crashed, "{site}@{nth}: commit after poison");
                        committed += 1;
                        assert_eq!(info.generation, committed, "{site}@{nth}");
                    }
                    Err(e) => {
                        // First failure is the injected fault; the store
                        // is now read-only (simulated crash) and every
                        // later write is SSD403.
                        if crashed {
                            assert!(matches!(e, StoreError::ReadOnly(_)), "{site}@{nth}: {e}");
                            assert!(e.diagnostic().unwrap().headline().contains("SSD403"));
                        }
                        crashed = true;
                    }
                }
            }
            assert!(crashed, "{site}@{nth}: fault never fired");
            assert!(store.read_only().is_some());

            let (reopened, report) = open_clean(&dir);
            assert_eq!(reopened.generation(), committed, "{site}@{nth}");
            assert_eq!(report.txns_replayed, committed, "{site}@{nth}");
            assert_eq!(
                reopened.snapshot().to_literal(),
                mirror(committed),
                "{site}@{nth}: reopened state is not the committed prefix"
            );
            // Torn and short writes flush partial frames, so recovery
            // must truncate (SSD400); write/fsync faults roll back to
            // the durable length before anything hits the file.
            let torn = site == "wal.torn" || site == "wal.short";
            assert_eq!(report.truncated_bytes > 0, torn, "{site}@{nth}");
            let headlines: Vec<String> = report.diagnostics.iter().map(|d| d.headline()).collect();
            assert_eq!(
                headlines.iter().any(|h| h.contains("SSD400")),
                torn,
                "{site}@{nth}: {headlines:?}"
            );
            // The replay note is always present.
            assert!(headlines.iter().any(|h| h.contains("SSD402")));
        }
    }
}

/// The `SSD_FAILPOINTS` spec form reaches the store's I/O sites, the
/// `N` position is honored (`wal.fsync=2` crashes the second commit,
/// not the first), and every `Store::open` re-arms the schedule from
/// the budget — faults are deterministic per incarnation, not global
/// state.
#[test]
fn fault_spec_is_positional_and_rearms_per_open() {
    let dir = tmpdir("nm");
    Store::init(&dir, &seed_db()).unwrap();
    let budget = Budget::unlimited()
        .fail_points_from_spec("wal.fsync=2")
        .unwrap();
    let (store, _) = Store::open(&dir, &budget).unwrap();
    store.commit(&txn_for(0)).unwrap();
    assert!(matches!(
        store.commit(&txn_for(1)),
        Err(StoreError::Fault(_))
    ));
    assert!(store.read_only().is_some());

    // Reopened with the same budget: its own second commit crashes.
    let (store2, _) = Store::open(&dir, &budget).unwrap();
    store2.commit(&txn_for(1)).unwrap();
    assert!(store2.commit(&txn_for(2)).is_err());

    // A clean budget sees both surviving commits and writes freely.
    let (store3, report) = open_clean(&dir);
    assert_eq!(report.txns_replayed, 2);
    store3.commit(&txn_for(2)).unwrap();
    assert_eq!(store3.generation(), 3);
}

// ----------------------------------------------------------- proptest

/// One step of the generated schedule: how many ops in the txn, and
/// whether the crash fires during this commit.
#[derive(Debug, Clone)]
struct Step {
    ops: u8,
    site: Option<usize>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Site indexes 0..4 inject a crash during this commit; 4..8 commit
    // cleanly (an even mix, without `proptest::option` which the
    // vendored polyfill lacks).
    (1u8..4, 0usize..8).prop_map(|(ops, s)| Step {
        ops,
        site: if s < 4 { Some(s) } else { None },
    })
}

const SITES: [&str; 4] = ["wal.write", "wal.torn", "wal.short", "wal.fsync"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every random interleaving of transactions and injected
    /// crashes, reopening yields exactly the committed prefix. The
    /// `wal.read` site is deliberately excluded: corrupting a committed
    /// frame on read legitimately loses that transaction, and is tested
    /// deterministically below.
    #[test]
    fn recovery_replays_exactly_the_committed_prefix(
        steps in proptest::collection::vec(step_strategy(), 1..10)
    ) {
        let dir = tmpdir("prop");
        Store::init(&dir, &seed_db()).unwrap();
        let mut committed = 0u64;
        let mut label = 0u64;
        let mut expect = seed_db();

        let mut idx = 0;
        while idx < steps.len() {
            // Each open gets the fault schedule for the next crash only,
            // so exactly one commit per "incarnation" can fail.
            let crash_at = steps[idx..].iter().position(|s| s.site.is_some());
            let budget = match crash_at {
                Some(k) => {
                    let site = SITES[steps[idx + k].site.unwrap()];
                    // Fault sites count *hits*: wal.fsync is hit once
                    // per commit, the frame-level sites once per frame
                    // (ops + 1 per clean commit before the crash).
                    let nth = if site == "wal.fsync" {
                        (k + 1) as u64
                    } else {
                        steps[idx..idx + k]
                            .iter()
                            .map(|s| u64::from(s.ops) + 1)
                            .sum::<u64>()
                            + 1
                    };
                    Budget::unlimited().fail_at(site, nth)
                }
                None => Budget::unlimited(),
            };
            let (store, report) = Store::open(&dir, &budget).unwrap();
            prop_assert_eq!(report.txns_replayed, committed);
            prop_assert_eq!(store.generation(), committed);

            loop {
                if idx >= steps.len() {
                    break;
                }
                let step = &steps[idx];
                let mut txn = Txn::new();
                for _ in 0..step.ops {
                    txn.push(Op::Insert(format!("{{T{label}: {{N: {label}}}}}")));
                    label += 1;
                }
                let crashing = step.site.is_some();
                idx += 1;
                match store.commit(&txn) {
                    Ok(_) => {
                        prop_assert!(!crashing);
                        committed += 1;
                        for op in txn.ops() {
                            let add = Database::from_literal(op.body()).unwrap();
                            expect = expect.union(&add);
                        }
                    }
                    Err(e) => {
                        prop_assert!(crashing, "unexpected commit failure: {e}");
                        break; // crashed: reopen in the outer loop
                    }
                }
            }
        }

        let (reopened, report) = open_clean(&dir);
        prop_assert_eq!(report.txns_replayed, committed);
        prop_assert_eq!(reopened.generation(), committed);
        prop_assert_eq!(reopened.snapshot().to_literal(), expect.to_literal());
    }
}

// ------------------------------------------------- snapshot isolation

/// Readers pin a generation: a snapshot taken before a storm of
/// concurrent commits is bit-identical afterwards, and every snapshot
/// the readers observe is internally consistent (generation g contains
/// exactly the first g transactions).
#[test]
fn concurrent_readers_observe_consistent_generations() {
    let dir = tmpdir("iso");
    Store::init(&dir, &seed_db()).unwrap();
    let (store, _) = open_clean(&dir);
    let store = std::sync::Arc::new(store);

    let pinned = store.snapshot();
    let pinned_literal = pinned.to_literal();
    assert_eq!(pinned.generation(), 0);

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let store = std::sync::Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let snap = store.snapshot();
                    let g = snap.generation();
                    // A consistent snapshot of generation g is exactly
                    // the mirror of g committed transactions — never a
                    // half-applied one.
                    assert_eq!(snap.to_literal(), mirror(g), "generation {g}");
                }
            })
        })
        .collect();

    for i in 0..10u64 {
        store.commit(&txn_for(i)).unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }

    // The pre-storm snapshot never moved.
    assert_eq!(pinned.generation(), 0);
    assert_eq!(pinned.to_literal(), pinned_literal);
    assert_eq!(store.generation(), 10);
}

// ------------------------------------------------------- diagnostics

/// Corrupting a committed frame on read is detected (SSD401), the
/// corrupt tail is discarded (SSD400), and recovery reports what it
/// replayed (SSD402) — the full diagnostic band in one open.
#[test]
fn read_corruption_reports_the_full_diagnostic_band() {
    let dir = tmpdir("ssd401");
    Store::init(&dir, &seed_db()).unwrap();
    let (store, _) = open_clean(&dir);
    store.commit(&txn_for(0)).unwrap();
    store.commit(&txn_for(1)).unwrap();
    drop(store);

    let budget = Budget::unlimited().fail_at("wal.read", 1);
    let (reopened, report) = Store::open(&dir, &budget).unwrap();
    // The flipped byte lands in the last frame: the second commit is
    // gone, the first survives.
    assert_eq!(reopened.generation(), 1);
    let headlines: Vec<String> = report.diagnostics.iter().map(|d| d.headline()).collect();
    for code in ["SSD400", "SSD401", "SSD402"] {
        assert!(
            headlines.iter().any(|h| h.contains(code)),
            "{code} missing from {headlines:?}"
        );
    }
}

/// Writes against a poisoned (crashed) store and a store-less server
/// share one refusal: SSD403.
#[test]
fn poisoned_store_rejects_writes_with_ssd403() {
    let dir = tmpdir("ssd403");
    Store::init(&dir, &seed_db()).unwrap();
    let budget = Budget::unlimited().fail_at("wal.fsync", 1);
    let (store, _) = Store::open(&dir, &budget).unwrap();
    assert!(store.commit(&txn_for(0)).is_err());

    let err = store.commit(&txn_for(1)).unwrap_err();
    let diag = err.diagnostic().expect("SSD403 carries a diagnostic");
    assert!(diag.headline().contains("SSD403"), "{}", diag.headline());

    // Reopening clears the poison: the fault schedule is spent and the
    // store accepts writes again, having lost nothing committed.
    let (fresh, report) = open_clean(&dir);
    assert_eq!(report.txns_replayed, 0);
    fresh.commit(&txn_for(0)).unwrap();
    assert_eq!(fresh.generation(), 1);
}

/// Double-init refuses to clobber an existing store.
#[test]
fn init_refuses_to_overwrite() {
    let dir = tmpdir("reinit");
    Store::init(&dir, &seed_db()).unwrap();
    assert!(Store::init(&dir, &seed_db()).is_err());
    assert!(Store::is_initialized(&dir));
}

// ------------------------------------------------ statistics per generation

/// Symbol and integer labels, self-loops, cycles and edgeless roots.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..6,
        proptest::collection::vec((0usize..6, 0usize..6, 0usize..5), 0..12),
    )
        .prop_map(|(n, edges)| {
            let mut g = Graph::new();
            let mut ids = vec![g.root()];
            ids.extend((1..n).map(|_| g.add_node()));
            for (from, to, label) in edges {
                let label = match label {
                    k @ 0..=2 => Label::symbol(g.symbols(), ["a", "b", "c"][k]),
                    k => Label::int(k as i64),
                };
                g.add_edge(ids[from % n], label, ids[to % n]);
            }
            g
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_graph().prop_map(|g| Op::Insert(Database::new(g).to_literal())),
        (0usize..3).prop_map(|k| Op::Delete(["a", "b", "c"][k].to_string())),
    ]
}

/// A generation's statistics read off its triple index equal a walk of
/// its graph (which shares no code with the index) on every field but
/// `cyclic`, and refining them by a schema equals walking with it.
fn assert_stats_agree(db: &Database) -> Result<(), TestCaseError> {
    let walked = DataStats::collect(db.graph());
    let read = DataStats {
        cyclic: walked.cyclic,
        ..db.index_stats().clone()
    };
    prop_assert_eq!(read, walked);
    let (refined, schema) = db.data_stats();
    let reference = DataStats::collect_with_schema(db.graph(), &schema);
    prop_assert_eq!(refined.per_schema_node, reference.per_schema_node);
    prop_assert_eq!(refined.conforms, reference.conforms);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On a generated graph, on the store opened over it, and after every
    /// generated commit — with the index carried across the commit by
    /// `merge_delta` (`carry`) or built afresh for the new generation.
    #[test]
    fn index_stats_equal_a_graph_walk_in_every_generation(
        g in arb_graph(),
        ops in proptest::collection::vec(arb_op(), 1..6),
        carry in any::<bool>(),
    ) {
        let db = Database::new(g);
        assert_stats_agree(&db)?;
        let dir = tmpdir("stats");
        Store::init(&dir, &db).unwrap();
        let (store, _) = open_clean(&dir);
        for op in ops {
            let snapshot = store.snapshot();
            if carry {
                assert_stats_agree(&snapshot)?;
            } else {
                assert_stats_agree(&Database::new(snapshot.graph().clone()))?;
            }
            let mut txn = Txn::new();
            txn.push(op);
            store.commit(&txn).unwrap();
        }
        assert_stats_agree(&store.snapshot())?;
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ------------------------------------------- commit memory and replay

/// A base of `B`/`V` labels only (no txn label, so no generated DELETE
/// cuts a base node off) whose root has fan-out 40, with an in-edge to
/// the root through `Up` when `back_edge` is set.
fn wide_base(back_edge: bool) -> Database {
    let mut entries: Vec<String> = (0..40).map(|i| format!("B{}: {{V: {i}}}", i % 5)).collect();
    if back_edge {
        entries.push("B9: {Up: @r}".to_string());
        return Database::from_literal(&format!("@r = {{{}}}", entries.join(", "))).unwrap();
    }
    Database::from_literal(&format!("{{{}}}", entries.join(", "))).unwrap()
}

/// Nodes and edges of the arena that the root does not reach.
fn stranded(g: &Graph) -> (usize, usize) {
    let reachable = g.reachable();
    let edges: usize = reachable.iter().map(|&n| g.out_degree(n)).sum();
    (g.node_count() - reachable.len(), g.edge_count() - edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After generated INSERT/DELETE commits, what the arena holds
    /// beyond the reachable fragment is bounded by the txns' own
    /// literals, whatever the root's fan-out: no commit strands a copy
    /// of the root's edges. Reopening replays the WAL to the very arena
    /// the commits built: same root, node and edge counts, bisimilar.
    #[test]
    fn arena_grows_with_the_txns_and_replay_equals_commit(
        first in arb_graph(),
        txns in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..3), 0..5),
        back_edge in any::<bool>(),
    ) {
        let base = wide_base(back_edge);
        let dir = tmpdir("arena");
        Store::init(&dir, &base).unwrap();
        let (store, _) = open_clean(&dir);
        let first = vec![Op::Insert(Database::new(first).to_literal())];
        let (mut literal_nodes, mut literal_edges) = (0, 0);
        for ops in std::iter::once(first).chain(txns) {
            let mut txn = Txn::new();
            for op in ops {
                if let Op::Insert(body) = &op {
                    let literal = Database::from_literal(body).unwrap();
                    literal_nodes += literal.graph().node_count();
                    literal_edges += literal.graph().edge_count();
                }
                txn.push(op);
            }
            store.commit(&txn).unwrap();
        }
        let live = store.snapshot();
        let (nodes, edges) = stranded(live.graph());
        prop_assert!(nodes <= literal_nodes, "{} stranded node(s), literals {}", nodes, literal_nodes);
        prop_assert!(edges <= literal_edges, "{} stranded edge(s), literals {}", edges, literal_edges);
        drop(store);

        let (again, _) = open_clean(&dir);
        let recovered = again.snapshot();
        prop_assert_eq!(recovered.graph().root(), live.graph().root());
        prop_assert_eq!(recovered.graph().node_count(), live.graph().node_count());
        prop_assert_eq!(recovered.graph().edge_count(), live.graph().edge_count());
        prop_assert!(graphs_bisimilar(recovered.graph(), live.graph()));
        drop(again);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
