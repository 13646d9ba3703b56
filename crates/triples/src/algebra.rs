//! Relational algebra over the shredded edge relation.
//!
//! §3: "model the graph as a relational database and then exploit a
//! relational query language ... consider the expressive power of
//! relational languages on this structure". This module gives the classical
//! named-column algebra (select / project / natural join / rename / union /
//! difference) over relations whose fields are node ids or labels, so
//! graph queries can be phrased as relational plans and compared against
//! native traversal (experiment E5).

use crate::datalog::Edb;
use ssd_graph::{Label, NodeId, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A field of a relational tuple: an (opaque) node id or a label.
///
/// §3 complication 3: node ids "may only be used as temporary node labels,
/// and one may want to limit the way they can appear in the output" —
/// [`Relation::project`] away `Node` columns before surfacing results.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Datum {
    Node(NodeId),
    Label(Label),
}

impl Datum {
    pub fn as_node(&self) -> Option<NodeId> {
        match self {
            Datum::Node(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_label(&self) -> Option<&Label> {
        match self {
            Datum::Label(l) => Some(l),
            _ => None,
        }
    }

    pub fn as_value(&self) -> Option<&Value> {
        self.as_label().and_then(Label::as_value)
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Node(n) => write!(f, "{n}"),
            Datum::Label(l) => write!(f, "{l:?}"),
        }
    }
}

/// A relation: named columns and a *set* of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    columns: Vec<String>,
    rows: BTreeSet<Vec<Datum>>,
}

/// Errors from malformed algebra expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    UnknownColumn(String),
    SchemaMismatch {
        left: Vec<String>,
        right: Vec<String>,
    },
    ArityMismatch {
        expected: usize,
        got: usize,
    },
    DuplicateColumn(String),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            AlgebraError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: {left:?} vs {right:?}")
            }
            AlgebraError::ArityMismatch { expected, got } => {
                write!(f, "arity mismatch: expected {expected}, got {got}")
            }
            AlgebraError::DuplicateColumn(c) => write!(f, "duplicate column {c}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl Relation {
    /// An empty relation with the given header.
    pub fn empty(columns: &[&str]) -> Relation {
        Relation {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: BTreeSet::new(),
        }
    }

    /// Build from rows; every row must match the header arity.
    pub fn from_rows(columns: &[&str], rows: Vec<Vec<Datum>>) -> Result<Relation, AlgebraError> {
        let mut rel = Relation::empty(columns);
        for row in rows {
            rel.insert(row)?;
        }
        Ok(rel)
    }

    /// The edge relation `E(src, label, dst)` of an EDB (a snapshot's
    /// triple index), decoded.
    pub fn edge_relation(edb: &dyn Edb) -> Relation {
        let node = |n: u32| Datum::Node(NodeId::from_index(n as usize));
        let mut rows = BTreeSet::new();
        edb.scan(None, None, None, &mut |[s, p, o]| {
            if let Some(l) = edb.label(p) {
                rows.insert(vec![node(s), Datum::Label(l.clone()), node(o)]);
            }
            true
        });
        Relation {
            columns: vec!["src".into(), "label".into(), "dst".into()],
            rows,
        }
    }

    pub fn insert(&mut self, row: Vec<Datum>) -> Result<(), AlgebraError> {
        if row.len() != self.columns.len() {
            return Err(AlgebraError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        self.rows.insert(row);
        Ok(())
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn rows(&self) -> impl Iterator<Item = &Vec<Datum>> {
        self.rows.iter()
    }

    pub fn contains(&self, row: &[Datum]) -> bool {
        self.rows.contains(row)
    }

    fn col_index(&self, name: &str) -> Result<usize, AlgebraError> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| AlgebraError::UnknownColumn(name.to_owned()))
    }

    /// σ — keep rows satisfying `pred` (receives the row and a
    /// column-lookup helper).
    pub fn select(&self, pred: impl Fn(&RowView<'_>) -> bool) -> Relation {
        let rows = self
            .rows
            .iter()
            .filter(|r| {
                pred(&RowView {
                    columns: &self.columns,
                    row: r,
                })
            })
            .cloned()
            .collect();
        Relation {
            columns: self.columns.clone(),
            rows,
        }
    }

    /// σ with column = constant.
    pub fn select_eq(&self, column: &str, value: &Datum) -> Result<Relation, AlgebraError> {
        let i = self.col_index(column)?;
        Ok(Relation {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|r| &r[i] == value)
                .cloned()
                .collect(),
        })
    }

    /// π — keep (and reorder to) the named columns.
    pub fn project(&self, keep: &[&str]) -> Result<Relation, AlgebraError> {
        let indices: Vec<usize> = keep
            .iter()
            .map(|c| self.col_index(c))
            .collect::<Result<_, _>>()?;
        let rows = self
            .rows
            .iter()
            .map(|r| indices.iter().map(|&i| r[i].clone()).collect())
            .collect();
        Ok(Relation {
            columns: keep.iter().map(|c| (*c).to_owned()).collect(),
            rows,
        })
    }

    /// ρ — rename a column.
    pub fn rename(&self, from: &str, to: &str) -> Result<Relation, AlgebraError> {
        let i = self.col_index(from)?;
        if self.columns.iter().any(|c| c == to) {
            return Err(AlgebraError::DuplicateColumn(to.to_owned()));
        }
        let mut columns = self.columns.clone();
        columns[i] = to.to_owned();
        Ok(Relation {
            columns,
            rows: self.rows.clone(),
        })
    }

    /// ∪ — set union; schemas must agree.
    pub fn union(&self, other: &Relation) -> Result<Relation, AlgebraError> {
        self.check_schema(other)?;
        let rows = self.rows.union(&other.rows).cloned().collect();
        Ok(Relation {
            columns: self.columns.clone(),
            rows,
        })
    }

    /// − — set difference; schemas must agree.
    pub fn difference(&self, other: &Relation) -> Result<Relation, AlgebraError> {
        self.check_schema(other)?;
        let rows = self.rows.difference(&other.rows).cloned().collect();
        Ok(Relation {
            columns: self.columns.clone(),
            rows,
        })
    }

    /// ∩ — set intersection; schemas must agree.
    pub fn intersect(&self, other: &Relation) -> Result<Relation, AlgebraError> {
        self.check_schema(other)?;
        let rows = self.rows.intersection(&other.rows).cloned().collect();
        Ok(Relation {
            columns: self.columns.clone(),
            rows,
        })
    }

    /// ⋈ — natural join on all shared column names (hash join on the
    /// shared-key projection).
    pub fn natural_join(&self, other: &Relation) -> Relation {
        let shared: Vec<String> = self
            .columns
            .iter()
            .filter(|c| other.columns.contains(c))
            .cloned()
            .collect();
        // `shared` was computed from both column lists, so the lookups
        // always succeed; filter rather than panic if that ever changes.
        let my_key: Vec<usize> = shared
            .iter()
            .filter_map(|c| self.col_index(c).ok())
            .collect();
        let their_key: Vec<usize> = shared
            .iter()
            .filter_map(|c| other.col_index(c).ok())
            .collect();
        let their_extra: Vec<usize> = (0..other.columns.len())
            .filter(|i| !shared.contains(&other.columns[*i]))
            .collect();

        // Build hash table on the smaller side.
        use std::collections::HashMap;
        let mut table: HashMap<Vec<&Datum>, Vec<&Vec<Datum>>> = HashMap::new();
        for row in &other.rows {
            let key: Vec<&Datum> = their_key.iter().map(|&i| &row[i]).collect();
            table.entry(key).or_default().push(row);
        }

        let mut columns = self.columns.clone();
        for &i in &their_extra {
            columns.push(other.columns[i].clone());
        }
        let mut rows = BTreeSet::new();
        for row in &self.rows {
            let key: Vec<&Datum> = my_key.iter().map(|&i| &row[i]).collect();
            if let Some(matches) = table.get(&key) {
                for m in matches {
                    let mut out = row.clone();
                    for &i in &their_extra {
                        out.push(m[i].clone());
                    }
                    rows.insert(out);
                }
            }
        }
        Relation { columns, rows }
    }

    /// × — cartesian product (disjoint column names required).
    pub fn product(&self, other: &Relation) -> Result<Relation, AlgebraError> {
        for c in &other.columns {
            if self.columns.contains(c) {
                return Err(AlgebraError::DuplicateColumn(c.clone()));
            }
        }
        Ok(self.natural_join(other))
    }

    fn check_schema(&self, other: &Relation) -> Result<(), AlgebraError> {
        if self.columns != other.columns {
            return Err(AlgebraError::SchemaMismatch {
                left: self.columns.clone(),
                right: other.columns.clone(),
            });
        }
        Ok(())
    }
}

/// Read-only view of one row with by-name access.
pub struct RowView<'a> {
    columns: &'a [String],
    row: &'a [Datum],
}

impl<'a> RowView<'a> {
    pub fn get(&self, column: &str) -> Option<&'a Datum> {
        let i = self.columns.iter().position(|c| c == column)?;
        self.row.get(i)
    }

    pub fn value(&self, column: &str) -> Option<&'a Value> {
        self.get(column).and_then(Datum::as_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::edb::walked::Walked;
    use ssd_graph::literal::parse_graph;

    fn node(i: usize) -> Datum {
        Datum::Node(NodeId::from_index(i))
    }

    fn val(v: i64) -> Datum {
        Datum::Label(Label::int(v))
    }

    #[test]
    fn edge_relation_covers_store() {
        let g = parse_graph(r#"{a: {b: 1}}"#).unwrap();
        let e = Relation::edge_relation(&Walked::new(&g));
        assert_eq!(e.len(), g.edge_count());
        assert_eq!(e.columns(), &["src", "label", "dst"]);
        let a = &g.edges(g.root())[0];
        let root_a = [
            Datum::Node(g.root()),
            Datum::Label(a.label.clone()),
            Datum::Node(a.to),
        ];
        assert!(e.contains(&root_a));
    }

    #[test]
    fn select_eq_and_closure_agree() {
        let r = Relation::from_rows(
            &["x", "y"],
            vec![vec![node(0), val(1)], vec![node(1), val(2)]],
        )
        .unwrap();
        let a = r.select_eq("y", &val(2)).unwrap();
        let b = r.select(|row| row.get("y") == Some(&val(2)));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn select_unknown_column_errors() {
        let r = Relation::empty(&["x"]);
        assert!(matches!(
            r.select_eq("zzz", &val(0)),
            Err(AlgebraError::UnknownColumn(_))
        ));
    }

    #[test]
    fn project_reorders_and_dedupes() {
        let r = Relation::from_rows(
            &["x", "y"],
            vec![vec![node(0), val(1)], vec![node(1), val(1)]],
        )
        .unwrap();
        let p = r.project(&["y"]).unwrap();
        assert_eq!(p.len(), 1);
        let p2 = r.project(&["y", "x"]).unwrap();
        assert_eq!(p2.columns(), &["y", "x"]);
        assert_eq!(p2.len(), 2);
    }

    #[test]
    fn rename_then_join() {
        // E ⋈ ρ(E) computes paths of length two.
        let g = parse_graph("{a: {b: {c: {}}}}").unwrap();
        let e = Relation::edge_relation(&Walked::new(&g));
        let e2 = e
            .rename("src", "mid")
            .unwrap()
            .rename("dst", "end")
            .unwrap()
            .rename("label", "label2")
            .unwrap()
            .rename("mid", "dst")
            .unwrap();
        let paths2 = e.natural_join(&e2);
        // a.b and b.c
        assert_eq!(paths2.len(), 2);
        assert_eq!(paths2.columns().len(), 5);
    }

    #[test]
    fn rename_duplicate_errors() {
        let r = Relation::empty(&["x", "y"]);
        assert!(matches!(
            r.rename("x", "y"),
            Err(AlgebraError::DuplicateColumn(_))
        ));
    }

    #[test]
    fn union_difference_intersect() {
        let a = Relation::from_rows(&["x"], vec![vec![val(1)], vec![val(2)]]).unwrap();
        let b = Relation::from_rows(&["x"], vec![vec![val(2)], vec![val(3)]]).unwrap();
        assert_eq!(a.union(&b).unwrap().len(), 3);
        assert_eq!(a.difference(&b).unwrap().len(), 1);
        assert_eq!(a.intersect(&b).unwrap().len(), 1);
        let c = Relation::empty(&["y"]);
        assert!(a.union(&c).is_err());
    }

    #[test]
    fn natural_join_without_shared_columns_is_product() {
        let a = Relation::from_rows(&["x"], vec![vec![val(1)], vec![val(2)]]).unwrap();
        let b = Relation::from_rows(&["y"], vec![vec![val(10)], vec![val(20)]]).unwrap();
        let p = a.product(&b).unwrap();
        assert_eq!(p.len(), 4);
        assert!(a.product(&a).is_err());
    }

    #[test]
    fn join_is_commutative_up_to_column_order() {
        let a = Relation::from_rows(
            &["k", "x"],
            vec![vec![val(1), val(10)], vec![val(2), val(20)]],
        )
        .unwrap();
        let b = Relation::from_rows(
            &["k", "y"],
            vec![vec![val(1), val(100)], vec![val(3), val(300)]],
        )
        .unwrap();
        let ab = a.natural_join(&b);
        let ba = b.natural_join(&a);
        assert_eq!(ab.len(), ba.len());
        assert_eq!(ab.len(), 1);
        let ab_norm = ab.project(&["k", "x", "y"]).unwrap();
        let ba_norm = ba.project(&["k", "x", "y"]).unwrap();
        assert_eq!(ab_norm, ba_norm);
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut r = Relation::empty(&["x", "y"]);
        assert!(r.insert(vec![val(1)]).is_err());
        assert!(r.insert(vec![val(1), val(2)]).is_ok());
    }

    #[test]
    fn rowview_value_accessor() {
        let r = Relation::from_rows(&["x"], vec![vec![val(5)]]).unwrap();
        let hit = r.select(|row| row.value("x").and_then(Value::as_int) == Some(5));
        assert_eq!(hit.len(), 1);
    }
}
