//! # ssd-triples — the relational substrate for semistructured data
//!
//! §3 of Buneman's PODS '97 tutorial describes two computational strategies
//! for querying semistructured data. This crate is the first one: "model
//! the graph as a relational database and then exploit a relational query
//! language. ... We can take the database as a large relation of type
//! (node-id, label, node-id)".
//!
//! That relation is a snapshot's triple index (`ssd-index`): every
//! root-reachable edge, dictionary-encoded and sorted three ways (SPO,
//! POS, OSP), read in place through the [`datalog::Edb`] interface
//! (`semistructured::Database::triples`). This crate reads it two ways:
//!
//! * [`algebra`] — relational algebra (σ π ⋈ ρ ∪ −) over relations whose
//!   fields are node ids and labels, starting from
//!   [`Relation::edge_relation`].
//! * [`datalog`] — "graph datalog": stratified recursive rules, naive and
//!   semi-naive evaluation, with the relation as its EDB.
//!
//! §3 lists four complications of the "graph as one big relation"
//! approach; here is how each is handled:
//!
//! 1. *"Our labels are drawn from a heterogeneous collection of types, so it
//!    may be appropriate to use more than one relation."* — there is one
//!    physical relation; labels of every type share the index's
//!    dictionary, and a typed view is a POS range per label id.
//! 2. *"If information also is held at nodes, one needs additional
//!    relations to express this."* — our model holds no node information
//!    (node-labeled variants are converted first; see
//!    `ssd_graph::variants::node_labeled`).
//! 3. *"The node identifiers may only be used as temporary node labels"* —
//!    node ids appear in results only as opaque `NodeId`s; the algebra
//!    ([`Datum`]) can project them away.
//! 4. *"We are concerned with what is accessible from a given root by
//!    forward traversal"* — the index covers the root-reachable fragment
//!    only, and records the root.

pub mod algebra;
pub mod datalog;

pub use algebra::{AlgebraError, Datum, Relation, RowView};
