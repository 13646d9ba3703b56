//! Dictionary encoding: edge labels interned to dense `u32` ids.
//!
//! The triple permutations store `[u32; 3]` keys, so every [`Label`] —
//! symbol or value — must map to a dense integer first. Every
//! generation's index interns its own graph's labels into a fresh
//! dictionary, so it holds exactly the labels that generation's
//! reachable edges carry, numbered in arrival order within that build.

use ssd_graph::Label;
use std::collections::HashMap;

/// Append-only `Label` ↔ dense-`u32` interner.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    labels: Vec<Label>,
    ids: HashMap<Label, u32>,
}

impl Dictionary {
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Intern `label`, returning its dense id. Ids are assigned in first
    /// arrival order; re-interning is a lookup.
    pub fn intern(&mut self, label: &Label) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        // lint: allow(panic) — the 2³²-th distinct label, the same programming error as NodeId::from_index's
        let id = u32::try_from(self.labels.len()).expect("more than u32::MAX distinct labels");
        self.labels.push(label.clone());
        self.ids.insert(label.clone(), id);
        id
    }

    /// The id of an already-interned label, if any.
    pub fn lookup(&self, label: &Label) -> Option<u32> {
        self.ids.get(label).copied()
    }

    /// The label behind an id handed out by [`Dictionary::intern`].
    pub fn resolve(&self, id: u32) -> Option<&Label> {
        self.labels.get(id as usize)
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Deterministic size estimate used for guard memory accounting:
    /// one id plus one (small) label per entry.
    pub fn encoded_bytes(&self) -> u64 {
        self.labels.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_graph::{SymbolTable, Value};

    #[test]
    fn intern_is_idempotent_and_dense() {
        let syms = SymbolTable::new();
        let mut d = Dictionary::new();
        let a = Label::symbol(&syms, "Title");
        let b = Label::Value(Value::Int(7));
        assert_eq!(d.intern(&a), 0);
        assert_eq!(d.intern(&b), 1);
        assert_eq!(d.intern(&a), 0, "re-intern returns the same id");
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(0), Some(&a));
        assert_eq!(d.resolve(1), Some(&b));
        assert_eq!(d.resolve(2), None);
        assert_eq!(d.lookup(&b), Some(1));
        assert_eq!(d.lookup(&Label::Value(Value::Int(8))), None);
    }
}
