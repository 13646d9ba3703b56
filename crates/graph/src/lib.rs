//! # ssd-graph — the semistructured data model
//!
//! An implementation of the edge-labeled graph model of Peter Buneman's
//! PODS '97 tutorial *Semistructured Data*:
//!
//! ```text
//! type label = int | string | ... | symbol
//! type tree  = set(label × tree)
//! ```
//!
//! Data is a rooted, possibly-cyclic graph whose edges carry either
//! *symbols* (attribute-like names) or *base values* — the data is
//! self-describing. This crate provides:
//!
//! * the arena-based [`Graph`] with cheap node ids that double as OEM-style
//!   object identities,
//! * the textual [`literal`] syntax (`{Movie: {Title: "Casablanca"}}`,
//!   with `@x = ...` markers for sharing and cycles), read straight into a
//!   [`Graph`],
//! * the one [`lex`]er of the four surface syntaxes (literal, select,
//!   rewrite, datalog),
//! * extensional equality by [`bisim`]ulation, plus quotienting,
//! * whole-graph [`ops`] (union, cross-database copy),
//! * the model [`variants`] surveyed in §2 (leaf-value trees, node-labeled
//!   graphs) with mappings in both directions,
//! * [`encode`]ings of relational and object-oriented databases,
//! * an [`oem`] view (Object Exchange Model, the Tsimmis interchange
//!   format),
//! * the shared [`symbol`] table, whose prefix search starts the §1.3
//!   attribute-name browse (the edge indexes that answer the §1.3
//!   browsing queries are `ssd-index`'s triple permutations),
//! * [`dot`] export for visualisation.

pub mod bisim;
pub mod dot;
pub mod encode;
pub mod graph;
pub mod json;
pub mod label;
pub mod lex;
pub mod literal;
pub mod oem;
pub mod ops;
pub mod stats;
pub mod symbol;
pub mod value;
pub mod variants;
pub mod xml;

pub use graph::{Edge, Graph, NodeId};
pub use label::{Label, LabelKind};
pub use symbol::{new_symbols, SymbolId, SymbolTable, Symbols};
pub use value::{Value, ValueKind};
