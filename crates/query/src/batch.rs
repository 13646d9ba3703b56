//! Batched (columnar) execution of select queries over the triple index.
//!
//! The interpreter in [`crate::lang::eval`] enumerates assignments one at
//! a time, re-walking each binding's path with an NFA product-BFS per
//! enclosing prefix. This module executes the same queries as a pipeline
//! of operators exchanging *columnar binding batches* — each batch is a
//! set of partial assignments, one `u32`-encoded node column per bound
//! variable:
//!
//! ```text
//! Scan(binding 0) → MergeJoin(binding 1) → ... → Filter → Project
//! ```
//!
//! * **Scan** walks binding 0's label path from the root through the
//!   [`TripleIndex`], one sorted frontier per step.
//! * **MergeJoin** extends each batch with binding *i*'s column: the
//!   distinct source nodes are probed in ascending order against the SPO
//!   run with a resumable galloping cursor (a merge join of frontier and
//!   run), and match lists are memoised per source node.
//! * **Filter** evaluates the full `where` clause per surviving row with
//!   the interpreter's own [`eval_cond`] — semantically the
//!   no-pushdown interpreter, so *any* condition is batchable.
//! * **Project** feeds each surviving assignment through the
//!   interpreter's constructor ([`construct_edges`]), so result graphs
//!   are built by exactly the same code in both paths.
//!
//! Query *shape* alone decides whether this path applies ([`batchable`]:
//! pure label-sequence binding paths, no label variables); every
//! batchable query runs here. The planner ([`plan_access`]) then picks,
//! per *step*, which permutation to use: an SPO gallop driven by the
//! current frontier, or a POS scan of the label's run when the index's
//! exact label counts say the label is rarer than the frontier is wide.
//! Anything else falls back to the interpreter, noted as `SSD050`.
//!
//! Resource accounting mirrors the interpreter: the guard is ticked per
//! key touched and per row processed, batch memory is charged by encoded
//! bytes, and each constructed result costs [`CONSTRUCT_COST`].

use crate::lang::ast::{Cond, SelectQuery, Source};
use crate::lang::eval::{
    analyzer_gate, construct_edges, eval_cond, exh, finish_select, BindVal, EvalOptions, EvalStats,
    CONSTRUCT_COST,
};
use crate::rpe::Rpe;
use ssd_diag::{Code, Diagnostic};
use ssd_graph::{Graph, Label, NodeId};
use ssd_guard::Guard;
use ssd_index::TripleIndex;
use ssd_schema::Pred;
use ssd_trace::{Phase, Tracer};
use std::collections::HashMap;

/// Rows per exchanged batch.
pub const BATCH_ROWS: usize = 1024;

/// Bytes one batch cell (an encoded node id) is charged at.
pub const CELL_BYTES: u64 = 4;

/// Which permutation answers one path step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStrategy {
    /// Gallop `spo.range2(s, p)` per frontier node, cursor-resumed in
    /// ascending `s` order (merge join of frontier × SPO).
    SpoGallop,
    /// Scan the label's whole POS run and keep keys whose source is in
    /// the frontier — cheaper when the label is rarer than the frontier
    /// is wide.
    PosScan,
}

/// One planned path step: the dictionary id of its label (`None` when the
/// label does not occur in the data — the step matches nothing) and the
/// permutation chosen for it.
#[derive(Debug, Clone)]
pub struct StepPlan {
    pub label: Option<u32>,
    pub strategy: StepStrategy,
}

/// Where a planned binding's walk starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindingSource {
    /// The database root.
    Root,
    /// The column of an earlier binding.
    Col(usize),
}

/// Access plan for one binding: start point plus one [`StepPlan`] per
/// path step.
#[derive(Debug, Clone)]
pub struct BindingPlan {
    pub source: BindingSource,
    pub steps: Vec<StepPlan>,
}

impl BindingPlan {
    /// Short access-path name for `ssd explain`: which permutations this
    /// binding reads.
    pub fn access(&self) -> String {
        let spo = self
            .steps
            .iter()
            .any(|s| s.strategy == StepStrategy::SpoGallop);
        let pos = self
            .steps
            .iter()
            .any(|s| s.strategy == StepStrategy::PosScan);
        match (spo, pos) {
            (true, true) => "index(spo+pos)".to_owned(),
            (false, true) => "index(pos)".to_owned(),
            _ => "index(spo)".to_owned(),
        }
    }
}

/// A full query access plan: one [`BindingPlan`] per query binding.
#[derive(Debug, Clone)]
pub struct AccessPlan {
    pub bindings: Vec<BindingPlan>,
}

/// The SSD050 note recorded when a query falls back to the interpreter.
pub fn fallback_note(reason: &str) -> Diagnostic {
    Diagnostic::new(
        Code::IndexFallback,
        format!("batched index execution unavailable: {reason}"),
    )
}

/// Flatten an RPE into a label sequence, or say why it is not batchable.
fn flatten_steps<'q>(path: &'q Rpe, out: &mut Vec<&'q Pred>) -> Result<(), String> {
    match path {
        Rpe::Epsilon => Ok(()),
        Rpe::Step(s) => {
            if s.label_var.is_some() {
                return Err("binds a label variable".to_owned());
            }
            match &s.pred {
                Pred::Symbol(_) | Pred::ValueEq(_) => {
                    out.push(&s.pred);
                    Ok(())
                }
                other => Err(format!("uses predicate `{other}`")),
            }
        }
        Rpe::Seq(a, b) => {
            flatten_steps(a, out)?;
            flatten_steps(b, out)
        }
        Rpe::Alt(..) => Err("uses alternation".to_owned()),
        Rpe::Star(..) => Err("uses Kleene star".to_owned()),
        Rpe::Plus(..) => Err("uses one-or-more repetition".to_owned()),
        Rpe::Opt(..) => Err("uses an optional step".to_owned()),
    }
}

/// The batchable shape of `query`: per binding, where its walk starts and
/// the label sequence it follows. `Err` carries the reason the shape is
/// not batchable (the SSD050 note body).
fn shape(query: &SelectQuery) -> Result<Vec<(BindingSource, Vec<&Pred>)>, String> {
    if query.bindings.is_empty() {
        return Err("query has no bindings".to_owned());
    }
    let mut out = Vec::with_capacity(query.bindings.len());
    for (i, b) in query.bindings.iter().enumerate() {
        let mut preds = Vec::new();
        flatten_steps(&b.path, &mut preds)
            .map_err(|why| format!("path for binding {} {why}", b.var))?;
        let source = match &b.source {
            Source::Db if i == 0 => BindingSource::Root,
            Source::Db => {
                return Err(format!(
                    "binding {} is db-rooted but not first; interpreter required",
                    b.var
                ));
            }
            Source::Var(v) => {
                let col = query
                    .bindings
                    .iter()
                    .position(|e| &e.var == v)
                    .ok_or_else(|| format!("binding {} starts from unbound {v}", b.var))?;
                BindingSource::Col(col)
            }
        };
        out.push((source, preds));
    }
    Ok(out)
}

/// Does `query`'s shape run on the batched path? Needs no index, so
/// callers check this before building one. `Err` is the SSD050 reason.
pub fn batchable(query: &SelectQuery) -> Result<(), String> {
    shape(query).map(drop)
}

/// Plan index access for `query`, choosing a permutation per step from
/// the index's exact label counts. `Err` carries the reason the query's
/// shape is not batchable (the SSD050 note body).
pub fn plan_access(
    g: &Graph,
    index: &TripleIndex,
    query: &SelectQuery,
) -> Result<AccessPlan, String> {
    let bindings = shape(query)?
        .into_iter()
        .map(|(source, preds)| {
            // Bound on the frontier entering each step: the single start
            // node, then at most one node per edge carrying the label
            // just walked.
            let mut frontier = 1usize;
            let steps = preds
                .into_iter()
                .map(|p| {
                    let label = pred_label(g, p).and_then(|l| index.label_id(&l));
                    let count = label.map_or(0, |id| index.label_count(id));
                    let strategy = if count < frontier {
                        StepStrategy::PosScan
                    } else {
                        StepStrategy::SpoGallop
                    };
                    frontier = count.max(1);
                    StepPlan { label, strategy }
                })
                .collect();
            BindingPlan { source, steps }
        })
        .collect();
    Ok(AccessPlan { bindings })
}

/// The single concrete label a batchable step predicate matches.
fn pred_label(g: &Graph, p: &Pred) -> Option<Label> {
    match p {
        Pred::Symbol(name) => Some(Label::symbol(g.symbols(), name)),
        Pred::ValueEq(v) => Some(Label::Value(v.clone())),
        _ => None,
    }
}

/// A columnar batch of partial assignments: one node column per bound
/// binding, all columns the same length.
#[derive(Debug, Default)]
struct Batch {
    cols: Vec<Vec<u32>>,
}

impl Batch {
    fn rows(&self) -> usize {
        self.cols.first().map(|c| c.len()).unwrap_or(0)
    }
}

/// Tick the guard, downgrading partial-mode stops to a dead pipeline
/// (mirrors the interpreter's quiet `Ok(false)` handling).
fn gtick(guard: &Guard, n: u64, live: &mut bool) -> Result<(), String> {
    if *live && !guard.tick(n).map_err(exh)? {
        *live = false;
    }
    Ok(())
}

fn galloc(guard: &Guard, bytes: u64, live: &mut bool) -> Result<(), String> {
    if *live && !guard.alloc(bytes).map_err(exh)? {
        *live = false;
    }
    Ok(())
}

/// Charge binding nesting depth: operator `i` of the pipeline sits where
/// the interpreter's enumerator would recurse to depth `i`, so depth
/// budgets bound both execution paths identically.
fn gdepth(guard: &Guard, depth: usize, live: &mut bool) -> Result<(), String> {
    if *live && !guard.enter_depth(depth).map_err(exh)? {
        *live = false;
    }
    Ok(())
}

/// Walk a label path from `sources` (sorted ascending) through the index,
/// one frontier per step, returning the sorted, deduplicated match set.
fn walk(
    index: &TripleIndex,
    plan: &BindingPlan,
    sources: &[u32],
    guard: &Guard,
    live: &mut bool,
) -> Result<Vec<u32>, String> {
    let mut frontier: Vec<u32> = sources.to_vec();
    frontier.sort_unstable();
    frontier.dedup();
    for step in &plan.steps {
        if !*live || frontier.is_empty() {
            return Ok(Vec::new());
        }
        let Some(p) = step.label else {
            // Label absent from the data: the step matches nothing.
            return Ok(Vec::new());
        };
        let mut next: Vec<u32> = Vec::new();
        match step.strategy {
            StepStrategy::SpoGallop => {
                let run = index.spo();
                let mut cursor = 0usize;
                for &s in &frontier {
                    let (start, end) = run.range2_from(cursor, s, p);
                    cursor = end;
                    gtick(guard, (end - start) as u64 + 1, live)?;
                    if !*live {
                        return Ok(Vec::new());
                    }
                    next.extend(run.as_slice()[start..end].iter().map(|k| k[2]));
                }
            }
            StepStrategy::PosScan => {
                let keys = index.by_label(p);
                gtick(guard, keys.len() as u64 + 1, live)?;
                if !*live {
                    return Ok(Vec::new());
                }
                next.extend(
                    keys.iter()
                        .filter(|k| frontier.binary_search(&k[2]).is_ok())
                        .map(|k| k[1]),
                );
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    Ok(frontier)
}

/// Chunk a joined column set into batches of at most [`BATCH_ROWS`] rows,
/// charging the guard for the encoded bytes of each.
fn emit_batches(
    cols: Vec<Vec<u32>>,
    guard: &Guard,
    live: &mut bool,
    out: &mut Vec<Batch>,
) -> Result<(), String> {
    let rows = cols.first().map(|c| c.len()).unwrap_or(0);
    let width = cols.len();
    let mut start = 0usize;
    while start < rows && *live {
        let end = (start + BATCH_ROWS).min(rows);
        let batch = Batch {
            cols: cols.iter().map(|c| c[start..end].to_vec()).collect(),
        };
        galloc(
            guard,
            (end - start) as u64 * width as u64 * CELL_BYTES,
            live,
        )?;
        out.push(batch);
        start = end;
    }
    Ok(())
}

/// Evaluate `query` over `g` through the batched operator pipeline,
/// following `plan`. Produces the same result graph as
/// [`crate::lang::evaluate_select`] (the equivalence the golden tests
/// pin): identical assignment sets, identical condition semantics,
/// identical construction code.
pub fn evaluate_batched(
    g: &Graph,
    index: &TripleIndex,
    query: &SelectQuery,
    plan: &AccessPlan,
    opts: &EvalOptions<'_>,
) -> Result<(Graph, EvalStats), String> {
    let unlimited = Guard::unlimited();
    let guard = opts.guard.unwrap_or(&unlimited);
    let mut sp = ssd_trace::span(opts.tracer, Phase::Eval, "select.batched", Some(guard));
    let mut stats = analyzer_gate(query, opts.tracer, guard)?;
    if plan.bindings.len() != query.bindings.len() {
        return Err("access plan does not match query bindings".to_owned());
    }
    let outcome = run_pipeline(g, index, query, plan, opts.tracer, guard, &mut stats);
    finish_select(outcome, opts.tracer, guard, &mut sp, stats)
}

/// The Scan → MergeJoin → Filter → Project pipeline behind
/// [`evaluate_batched`]: builds the result graph, filling `stats`.
fn run_pipeline(
    g: &Graph,
    index: &TripleIndex,
    query: &SelectQuery,
    plan: &AccessPlan,
    tracer: Option<&Tracer>,
    guard: &Guard,
    stats: &mut EvalStats,
) -> Result<Graph, String> {
    let mut result = Graph::with_symbols(g.symbols_handle());
    let mut live = true;

    // Scan: binding 0 walked once from the root.
    let mut batches: Vec<Batch> = Vec::new();
    {
        let mut op = ssd_trace::span(tracer, Phase::Index, "scan", Some(guard));
        let fuel_before = guard.steps_used();
        gdepth(guard, 1, &mut live)?;
        stats.rpe_evals += 1;
        let matches = walk(index, &plan.bindings[0], &[index.root()], guard, &mut live)?;
        if let Some(bp) = stats.per_binding.get_mut(0) {
            bp.tried += 1;
            bp.matched += matches.len() as u64;
            bp.fuel += guard.steps_used().saturating_sub(fuel_before);
        }
        op.field("var", query.bindings[0].var.as_str());
        op.field("access", plan.bindings[0].access().as_str());
        op.field("rows", matches.len());
        emit_batches(vec![matches], guard, &mut live, &mut batches)?;
        op.field("batches", batches.len());
    }

    // MergeJoin: one operator per remaining binding, match lists memoised
    // per distinct source node.
    for (i, bplan) in plan.bindings.iter().enumerate().skip(1) {
        let mut op = ssd_trace::span(tracer, Phase::Index, "merge-join", Some(guard));
        let BindingSource::Col(src_col) = bplan.source else {
            return Err(format!(
                "binding {} is db-rooted but not first; interpreter required",
                query.bindings[i].var
            ));
        };
        let fuel_before = guard.steps_used();
        gdepth(guard, i + 1, &mut live)?;
        let mut memo: HashMap<u32, Vec<u32>> = HashMap::new();
        let (mut rows_in, mut rows_out, mut batches_in) = (0u64, 0u64, 0u64);
        let mut joined: Vec<Batch> = Vec::new();
        for batch in &batches {
            if !live {
                break;
            }
            batches_in += 1;
            rows_in += batch.rows() as u64;
            // Probe distinct sources in ascending order so SPO cursors
            // only ever move forward (the merge-join order).
            let mut fresh: Vec<u32> = batch.cols[src_col]
                .iter()
                .copied()
                .filter(|s| !memo.contains_key(s))
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            for s in fresh {
                stats.rpe_evals += 1;
                let matches = walk(index, bplan, &[s], guard, &mut live)?;
                if let Some(bp) = stats.per_binding.get_mut(i) {
                    bp.tried += 1;
                    bp.matched += matches.len() as u64;
                }
                memo.insert(s, matches);
                if !live {
                    break;
                }
            }
            if !live {
                break;
            }
            // Expand rows by their match lists, columnar.
            let width = batch.cols.len();
            let mut cols: Vec<Vec<u32>> = vec![Vec::new(); width + 1];
            for r in 0..batch.rows() {
                let matches = &memo[&batch.cols[src_col][r]];
                for m in matches {
                    for (col, src) in cols.iter_mut().zip(&batch.cols) {
                        col.push(src[r]);
                    }
                    cols[width].push(*m);
                }
            }
            rows_out += cols[width].len() as u64;
            emit_batches(cols, guard, &mut live, &mut joined)?;
        }
        if let Some(bp) = stats.per_binding.get_mut(i) {
            bp.fuel += guard.steps_used().saturating_sub(fuel_before);
        }
        op.field("var", query.bindings[i].var.as_str());
        op.field("access", bplan.access().as_str());
        op.field("batches", batches_in);
        op.field("rows_in", rows_in);
        op.field("rows_out", rows_out);
        batches = joined;
    }

    // Filter: the whole where-clause per row, interpreter semantics.
    let conjuncts: Vec<&Cond> = query
        .condition
        .as_ref()
        .map(|c| c.conjuncts())
        .unwrap_or_default();
    let mut env: HashMap<String, BindVal> = HashMap::new();
    if !conjuncts.is_empty() {
        let mut op = ssd_trace::span(tracer, Phase::Index, "filter", Some(guard));
        let (mut rows_in, mut rows_out) = (0u64, 0u64);
        let mut filtered: Vec<Batch> = Vec::new();
        for batch in &batches {
            if !live {
                break;
            }
            rows_in += batch.rows() as u64;
            gtick(guard, batch.rows() as u64, &mut live)?;
            let mut keep: Vec<usize> = Vec::new();
            for r in 0..batch.rows() {
                if !live {
                    break;
                }
                env.clear();
                for (c, b) in query.bindings.iter().enumerate() {
                    env.insert(
                        b.var.clone(),
                        BindVal::Tree(NodeId::from_index(batch.cols[c][r] as usize)),
                    );
                }
                let mut ok = true;
                for c in &conjuncts {
                    if !eval_cond(g, c, &env, guard, stats)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    keep.push(r);
                }
            }
            rows_out += keep.len() as u64;
            let cols: Vec<Vec<u32>> = batch
                .cols
                .iter()
                .map(|col| keep.iter().map(|&r| col[r]).collect())
                .collect();
            emit_batches(cols, guard, &mut live, &mut filtered)?;
        }
        op.field("rows_in", rows_in);
        op.field("rows_out", rows_out);
        // Every row that reached the filter was a complete assignment.
        stats.assignments_tried += rows_in as usize;
        batches = filtered;
    } else {
        stats.assignments_tried += batches.iter().map(Batch::rows).sum::<usize>();
    }

    // Project: construct one result tree per surviving assignment.
    {
        let mut op = ssd_trace::span(tracer, Phase::Index, "project", Some(guard));
        let atom_leaf = result.add_node();
        let mut copy_memo: HashMap<NodeId, NodeId> = HashMap::new();
        let mut rows = 0u64;
        for batch in &batches {
            if !live {
                break;
            }
            gtick(guard, batch.rows() as u64, &mut live)?;
            for r in 0..batch.rows() {
                if !live {
                    break;
                }
                galloc(guard, CONSTRUCT_COST, &mut live)?;
                if !live {
                    break;
                }
                env.clear();
                for (c, b) in query.bindings.iter().enumerate() {
                    env.insert(
                        b.var.clone(),
                        BindVal::Tree(NodeId::from_index(batch.cols[c][r] as usize)),
                    );
                }
                stats.results_constructed += 1;
                rows += 1;
                let edges = construct_edges(
                    g,
                    &query.construct,
                    &env,
                    &mut result,
                    atom_leaf,
                    &mut copy_memo,
                )?;
                let root = result.root();
                for (label, to) in edges {
                    result.add_edge(root, label, to);
                }
            }
        }
        op.field("rows", rows);
        op.field("root_edges", result.out_degree(result.root()));
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::eval::evaluate_select;
    use crate::lang::parser::parse_query;
    use ssd_graph::bisim::graphs_bisimilar;
    use ssd_graph::literal::parse_graph;

    fn movie_db() -> Graph {
        parse_graph(
            r#"{Entry: {Movie: {Title: "Casablanca",
                                Cast: {Actors: "Bogart", Actors: "Bacall"},
                                Director: "Curtiz",
                                Year: 1942}},
                Entry: {Movie: {Title: "Play it again, Sam",
                                Cast: {Credit: {Actors: "Allen"}},
                                Director: "Allen",
                                Year: 1972}},
                Entry: {TV_Show: {Title: "Annie Hall Special",
                                  Episode: 3}}}"#,
        )
        .unwrap()
    }

    fn both_ways(g: &Graph, src: &str) -> (Graph, Graph) {
        let q = parse_query(src).unwrap();
        let index = TripleIndex::build(g);
        let plan = plan_access(g, &index, &q).unwrap();
        let opts = EvalOptions::default();
        let (batched, _) = evaluate_batched(g, &index, &q, &plan, &opts).unwrap();
        let (interp, _) = evaluate_select(g, &q, &opts).unwrap();
        (batched, interp)
    }

    #[test]
    fn batched_matches_interpreter_on_scans_joins_and_filters() {
        let g = movie_db();
        for q in [
            "select T from db.Entry.Movie.Title T",
            "select {Title: T} from db.Entry.Movie M, M.Title T",
            r#"select {Pair: {T: T, D: D}} from db.Entry.Movie M, M.Title T, M.Director D"#,
            r#"select T from db.Entry.Movie M, M.Title T, M.Year Y where Y < 1950"#,
            r#"select {Found: M} from db.Entry.Movie M, M.Title T where T = "Casablanca""#,
            r#"select T from db.Entry.Movie M, M.Title T where exists M.Cast.Actors"#,
            r#"select {hit: 1} from db.Entry.Movie M"#,
            "select T from db.Nope.Title T",
        ] {
            let (batched, interp) = both_ways(&g, q);
            assert!(graphs_bisimilar(&batched, &interp), "diverged on {q}");
        }
    }

    #[test]
    fn planner_rejects_unbatchable_shapes() {
        let g = movie_db();
        let index = TripleIndex::build(&g);
        for (q, why) in [
            ("select T from db.Entry.%.Title T", "predicate"),
            ("select T from db.%*.Title T", "Kleene star"),
            (r#"select L from db.Entry.Movie.^L X"#, "label variable"),
            ("select T from db.(Movie|TV_Show).Title T", "alternation"),
        ] {
            let q = parse_query(q).unwrap();
            let err = plan_access(&g, &index, &q).unwrap_err();
            assert!(err.contains(why), "{err:?} should mention {why}");
        }
    }

    #[test]
    fn planner_chooses_pos_for_rare_labels() {
        // 40 wide entries but only one Rare edge: after the Entry step the
        // frontier is wide, so the Rare step should scan POS instead of
        // galloping SPO per frontier node.
        let mut src = String::from("{");
        for i in 0..40 {
            src.push_str(&format!("Entry: {{N: {i}}}, "));
        }
        src.push_str("Entry: {Rare: 1}}");
        let g = parse_graph(&src).unwrap();
        let index = TripleIndex::build(&g);
        let q = parse_query("select X from db.Entry.Rare X").unwrap();
        let plan = plan_access(&g, &index, &q).unwrap();
        assert_eq!(plan.bindings[0].steps[0].strategy, StepStrategy::SpoGallop);
        assert_eq!(plan.bindings[0].steps[1].strategy, StepStrategy::PosScan);
        let (batched, interp) = {
            let opts = EvalOptions::default();
            let (b, _) = evaluate_batched(&g, &index, &q, &plan, &opts).unwrap();
            let (i, _) = evaluate_select(&g, &q, &opts).unwrap();
            (b, i)
        };
        assert!(graphs_bisimilar(&batched, &interp));
    }

    #[test]
    fn fallback_note_is_ssd050() {
        let d = fallback_note("path for binding T uses Kleene star");
        assert_eq!(d.code, Code::IndexFallback);
        assert_eq!(d.code.as_str(), "SSD050");
        assert!(!d.is_error(), "SSD050 is a note, not an error");
    }

    #[test]
    fn guard_fuel_is_charged_and_exhaustion_reported() {
        let g = movie_db();
        let q = parse_query("select T from db.Entry.Movie.Title T").unwrap();
        let index = TripleIndex::build(&g);
        let plan = plan_access(&g, &index, &q).unwrap();
        let guard = ssd_guard::Budget::unlimited().max_steps(3).guard();
        let opts = EvalOptions::default().with_guard(&guard);
        let err = evaluate_batched(&g, &index, &q, &plan, &opts).unwrap_err();
        assert!(err.contains("SSD1"), "exhaustion headline expected: {err}");
    }
}
