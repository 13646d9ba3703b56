//! `ssd-index` — columnar triple permutations for batched query execution.
//!
//! An ssd-graph is, shredded, a set of triples `(src, label, dst)` (see
//! `ssd-triples`). This crate stores that set *three times*, dictionary
//! encoded and sorted in different key orders — SPO, POS, OSP — so that
//! every access pattern a select-query binding needs is one contiguous
//! range of a sorted `Vec<[u32; 3]>`:
//!
//! - **dictionary encoding** ([`Dictionary`]): labels interned to dense
//!   `u32` ids in arrival order, one fresh dictionary per build;
//! - **sorted runs** ([`SortedRun`]): strictly-sorted duplicate-free key
//!   vectors with galloping range lookups, resumable from a cursor so a
//!   sorted probe column turns lookups into a merge join;
//! - **the index proper** ([`TripleIndex`]): the three permutations plus
//!   the dictionary, built once per `Database` generation from that
//!   generation's graph ([`TripleIndex::build`]) — lazily on first use,
//!   or by the store commit that publishes the generation when its
//!   parent's index was built.
//!
//! The batched executor in `ssd-query` plans against this structure and
//! leaves to the one-binding-at-a-time interpreter (note `SSD050`) only
//! the query shapes it cannot batch; `ssd-query`'s `browse` answers the
//! §1.3 browsing queries from its dictionary and POS run.

pub mod dict;
mod index;
pub mod run;

pub use dict::Dictionary;
pub use index::TripleIndex;
pub use run::{Key, SortedRun, KEY_BYTES};
