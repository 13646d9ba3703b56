//! Tests for the `ssd-workload` graph generator the repo benchmark
//! loads: the seeded stream is a pure function of its config — the same
//! seed yields a byte-identical op stream however it is consumed, and
//! the fingerprint witnesses exactly that stream — and the stream is
//! well formed (ids allocated before use, edge count on the scale
//! target, `References` chains that close into cycles).

use proptest::prelude::*;
use ssd_workload::gen::{self, GenConfig, GenOp, Generator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ identical op stream, whether drained in one pass or
    /// in arbitrary chunk sizes; different seed ⇒ different fingerprint.
    #[test]
    fn generator_is_deterministic(
        scale in 500u64..6_000,
        seed in 0u64..1_000,
        chunk in 1usize..97,
    ) {
        let cfg = GenConfig::new(scale, seed);
        let all: Vec<GenOp> = Generator::new(cfg.clone()).collect();

        // Chunked consumption: pull `chunk` ops at a time through a
        // persistent iterator; the stream must not depend on pull shape.
        let mut chunked = Vec::with_capacity(all.len());
        let mut it = Generator::new(cfg.clone());
        loop {
            let batch: Vec<GenOp> = it.by_ref().take(chunk).collect();
            if batch.is_empty() {
                break;
            }
            chunked.extend(batch);
        }
        prop_assert_eq!(&all, &chunked);

        // The fingerprint is a function of exactly that stream.
        let fp = gen::fingerprint(&cfg);
        prop_assert_eq!(fp, gen::fingerprint(&cfg));
        let other = GenConfig::new(scale, seed ^ 0x5bd1_e995);
        prop_assert_ne!(fp, gen::fingerprint(&other));
    }

    /// Structural invariants of the stream: node ids are emitted
    /// sequentially before use, edge count tracks the scale target, and
    /// a positive cycle density produces backward `References` edges.
    #[test]
    fn generator_stream_is_well_formed(scale in 500u64..6_000, seed in 0u64..1_000) {
        let cfg = GenConfig::new(scale, seed);
        // `Graph::new()` allocates the root (id 0) itself; the stream's
        // first Node op is id 1.
        let mut next_id = 1u64;
        let mut edges = 0u64;
        let mut backward = 0u64;
        for op in Generator::new(cfg.clone()) {
            match op {
                GenOp::Node { id } => {
                    prop_assert_eq!(id, next_id);
                    next_id += 1;
                }
                GenOp::SymEdge { from, name, to } => {
                    prop_assert!(from < next_id && to < next_id);
                    edges += 1;
                    if name == "References" && to < from {
                        backward += 1;
                    }
                }
                GenOp::ValEdge { from, to, .. } => {
                    prop_assert!(from < next_id && to < next_id);
                    edges += 1;
                }
            }
        }
        prop_assert_eq!(edges, gen::edge_count(&cfg));
        // The stream lands within one movie's worth of the scale target.
        let slack = 2 * cfg.fanout + 12;
        prop_assert!(edges + slack >= scale, "{} edges for scale {}", edges, scale);
        // cycle_density defaults > 0: the References chains must bend back.
        prop_assert!(backward > 0);
    }
}
