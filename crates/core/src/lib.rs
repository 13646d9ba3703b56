//! # semistructured — a reproduction of Buneman, *Semistructured Data* (PODS '97)
//!
//! One-stop facade over the reproduction stack:
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | edge-labeled graph model | [`graph`] (`ssd-graph`) | §2 |
//! | relational substrate + graph datalog | [`triples`] (`ssd-triples`) | §3 |
//! | query language, structural recursion, optimizer | [`query`] (`ssd-query`) | §3, §4 |
//! | schemas, simulation, DataGuides | [`schema`] (`ssd-schema`) | §5 |
//! | workload generators | [`data`] (`ssd-data`) | §1 |
//!
//! The [`Database`] type bundles a data graph with lazily built auxiliary
//! structures (edge index, DataGuide, triple index) and exposes the whole
//! feature set behind a compact API:
//!
//! ```
//! use semistructured::Database;
//!
//! let db = Database::from_literal(
//!     r#"{Entry: {Movie: {Title: "Casablanca", Director: "Curtiz"}}}"#,
//! ).unwrap();
//! let titles = db.query("select T from db.Entry.Movie.Title T").unwrap();
//! assert_eq!(titles.graph().values_at(titles.graph().root()).len(), 1);
//! ```

pub use ssd_data as data;
pub use ssd_diag as diag;
pub use ssd_graph as graph;
pub use ssd_guard as guard;
pub use ssd_query as query;
pub use ssd_schema as schema;
pub use ssd_trace as trace;
pub use ssd_triples as triples;

pub use ssd_graph::{Graph, Label, LabelKind, NodeId, SymbolId, Value};
pub use ssd_guard::{Bound, Budget, CancelToken, CostEnvelope, Exhausted, Guard, Interval};
pub use ssd_index::TripleIndex;
pub use ssd_query::analyze::{CostAnalysis, CostContext};
pub use ssd_query::{AccessPlan, EvalOptions, Rpe, SelectQuery};
pub use ssd_schema::{DataGuide, DataStats, Pred, Schema};

use ssd_graph::index::GraphIndex;
use ssd_triples::datalog::{Edb, Key, Program, ProgramSpans};
use std::sync::OnceLock;

/// A semistructured database: a rooted data graph plus lazily constructed
/// auxiliary structures.
pub struct Database {
    graph: Graph,
    index: OnceLock<GraphIndex>,
    guide: OnceLock<DataGuide>,
    /// The columnar triple index (SPO/POS/OSP): built on first use, or
    /// seeded by the commit that made this generation.
    triple_index: OnceLock<TripleIndex>,
    /// This generation's statistics; see [`Database::index_stats`].
    index_stats: OnceLock<DataStats>,
    /// Storage generation this snapshot belongs to: 0 for a freestanding
    /// database, and the committed-transaction count when the database
    /// is a snapshot handed out by `ssd-store` (each commit swaps in a
    /// new generation; readers that pinned an older `Arc<Database>` keep
    /// seeing their generation unchanged).
    generation: u64,
}

/// The result of a query: a fresh rooted graph.
pub struct QueryResult {
    graph: Graph,
    stats: ssd_query::EvalStats,
}

impl QueryResult {
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    pub fn stats(&self) -> &ssd_query::EvalStats {
        &self.stats
    }

    /// Serialize the result in the literal data syntax.
    pub fn to_literal(&self) -> String {
        ssd_graph::literal::write_graph(&self.graph)
    }

    /// Extensional equality with another result.
    pub fn bisimilar_to(&self, other: &QueryResult) -> bool {
        ssd_graph::bisim::graphs_bisimilar(&self.graph, &other.graph)
    }

    /// Lazily serialize the result in chunks of at most `n` root
    /// subtrees, each a standalone literal document.
    ///
    /// This is the streaming seam `ssd-serve` uses to ship large result
    /// sets frame by frame instead of buffering one giant literal:
    /// chunk *k* covers root edges `[k·n, (k+1)·n)`, and the union of
    /// all chunks' root edge sets is exactly the full result's.
    /// Substructure shared between chunks is duplicated into each (a
    /// chunk must stand alone); sharing *within* a chunk is preserved by
    /// the literal writer's `@` markers.
    pub fn chunks(&self, n: usize) -> ResultChunks<'_> {
        ResultChunks {
            graph: &self.graph,
            pos: 0,
            n: n.max(1),
        }
    }
}

/// Iterator over standalone literal chunks of a [`QueryResult`]; see
/// [`QueryResult::chunks`].
pub struct ResultChunks<'a> {
    graph: &'a Graph,
    pos: usize,
    n: usize,
}

impl Iterator for ResultChunks<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let edges = self.graph.edges(self.graph.root());
        if self.pos >= edges.len() {
            return None;
        }
        let end = (self.pos + self.n).min(edges.len());
        let mut out = Graph::with_symbols(self.graph.symbols_handle());
        for e in &edges[self.pos..end] {
            let sub = ssd_graph::ops::copy_subgraph(self.graph, e.to, &mut out);
            out.add_edge(out.root(), e.label.clone(), sub);
        }
        self.pos = end;
        Some(ssd_graph::literal::write_graph(&out))
    }
}

impl Database {
    /// Wrap an existing graph.
    pub fn new(graph: Graph) -> Database {
        Database {
            graph,
            index: OnceLock::new(),
            guide: OnceLock::new(),
            triple_index: OnceLock::new(),
            index_stats: OnceLock::new(),
            generation: 0,
        }
    }

    /// Stamp the storage generation this snapshot represents (used by
    /// `ssd-store` when swapping in the post-commit database).
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Database {
        self.generation = generation;
        self
    }

    /// The storage generation of this snapshot; see [`Database::with_generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Parse the literal data syntax (`{Movie: {Title: "C"}}`, with
    /// `@x = ...` sharing/cycle markers).
    pub fn from_literal(src: &str) -> Result<Database, String> {
        ssd_graph::literal::parse_graph(src)
            .map(Database::new)
            .map_err(|e| e.to_string())
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The edge-level index (built on first use).
    pub fn index(&self) -> &GraphIndex {
        self.index.get_or_init(|| GraphIndex::build(&self.graph))
    }

    /// The columnar triple index (built on first use). Always `Some`; the
    /// `Option` is kept for callers written against the fallible build.
    pub fn triple_index(&self) -> Option<&TripleIndex> {
        Some(self.built_index())
    }

    /// The triple index, built on first use.
    fn built_index(&self) -> &TripleIndex {
        self.triple_index
            .get_or_init(|| TripleIndex::build(&self.graph))
    }

    /// The triple index only if it has already been built — never forces
    /// a build. `ssd-store` commits use this so that only a store whose
    /// generations are index-queried builds each new generation's index
    /// at commit time.
    pub fn existing_index(&self) -> Option<&TripleIndex> {
        self.triple_index.get()
    }

    /// The batched plan for `query` with the index it runs on, or the
    /// SSD050 reason the interpreter runs instead. Shape is checked first,
    /// so an unbatchable query never builds the triple index.
    fn plan_select(&self, query: &SelectQuery) -> Result<(&TripleIndex, AccessPlan), String> {
        ssd_query::batch::batchable(query)?;
        let index = self.built_index();
        let plan = ssd_query::plan_access(&self.graph, index, query)?;
        Ok((index, plan))
    }

    /// Decide how a select query will be executed on this snapshot: the
    /// batched columnar pipeline whenever the shape is batchable, the
    /// interpreter otherwise (with the SSD050 reason: what in the shape
    /// does not batch).
    pub fn select_access(&self, query: &SelectQuery) -> AccessDecision {
        match self.plan_select(query) {
            Ok((_, plan)) => AccessDecision::Batched(plan),
            Err(reason) => AccessDecision::Interpreter { reason },
        }
    }

    /// Evaluate a parsed, validated query through whichever access path
    /// [`Database::select_access`] picks. The interpreter always runs
    /// with condition pushdown and RPE simplification — the rewrites
    /// that need no auxiliary structure. Fallbacks emit the SSD050 note
    /// as a `Phase::Index` trace instant when a tracer is attached.
    fn evaluate(
        &self,
        query: &SelectQuery,
        guard: &Guard,
        tracer: Option<&trace::Tracer>,
    ) -> Result<QueryResult, String> {
        let opts = EvalOptions {
            pushdown: true,
            simplify_rpe: true,
            guide: None,
            guard: Some(guard),
            tracer,
        };
        let (graph, stats) = match self.plan_select(query) {
            Ok((index, plan)) => {
                ssd_query::evaluate_batched(&self.graph, index, query, &plan, &opts)
            }
            Err(reason) => {
                let note = ssd_query::batch::fallback_note(&reason);
                trace::instant(
                    tracer,
                    trace::Phase::Index,
                    "fallback",
                    vec![
                        ("code", note.code.as_str().into()),
                        ("reason", reason.as_str().into()),
                    ],
                );
                ssd_query::evaluate_select(&self.graph, query, &opts)
            }
        }?;
        Ok(QueryResult { graph, stats })
    }

    /// The strong DataGuide (built on first use).
    pub fn dataguide(&self) -> &DataGuide {
        self.guide.get_or_init(|| DataGuide::build(&self.graph))
    }

    /// The edge relation datalog reads on this snapshot: its triple
    /// index, in place (built on first use).
    pub fn triples(&self) -> Triples<'_> {
        Triples(self.built_index())
    }

    /// Parse and evaluate a select-from-where query.
    pub fn query(&self, text: &str) -> Result<QueryResult, String> {
        self.query_with(text, &Guard::unlimited())
    }

    /// Parse and evaluate under a resource [`Guard`] (budget-governed:
    /// fuel, memory, deadline, depth, cancellation, fault injection).
    /// In partial mode exhaustion yields a truncated-but-well-formed
    /// result with `stats().truncated` set; otherwise an SSD1xx headline.
    pub fn query_with(&self, text: &str, guard: &Guard) -> Result<QueryResult, String> {
        let q = ssd_query::parse_query(text).map_err(|e| e.to_string())?;
        self.select_with(&q, guard)
    }

    /// [`Database::query_with`] for a query already parsed and validated
    /// (by [`ssd_query::parse_query`] or an equivalent check) — what a
    /// server that parsed the query at admission runs. The plan is a
    /// function of the query and this snapshot alone.
    pub fn select_with(&self, query: &SelectQuery, guard: &Guard) -> Result<QueryResult, String> {
        self.evaluate(query, guard, None)
    }

    /// As [`Database::query_with`], with full structured tracing: spans
    /// for parse, estimate, and evaluation (with per-binding actuals),
    /// plus a final `cost.actual` instant comparing the static
    /// [`CostEnvelope`] against the fuel/memory/cardinality the run
    /// actually consumed — the data behind `ssd explain --analyze`. The
    /// tracer only observes: the plan, and so the guard-measured cost, is
    /// the one [`Database::query_with`] runs.
    ///
    /// When `guard` is `None` a *metered* guard
    /// ([`ssd_guard::Budget::metered`]) is used instead of an unlimited
    /// one, so fuel and memory counters are live and the trace carries
    /// real actuals.
    pub fn query_traced(
        &self,
        text: &str,
        guard: Option<&Guard>,
        tracer: Option<&trace::Tracer>,
    ) -> Result<QueryResult, String> {
        let metered = Budget::metered().guard();
        let guard = guard.unwrap_or(&metered);
        let q = {
            let _sp = trace::span(tracer, trace::Phase::Parse, "parse", Some(guard));
            ssd_query::parse_query(text).map_err(|e| e.to_string())?
        };
        let estimate = tracer.map(|_| {
            let _sp = trace::span(tracer, trace::Phase::Estimate, "estimate", Some(guard));
            self.select_cost(&q, None)
        });
        let result = self.evaluate(&q, guard, tracer)?;
        if let Some(t) = tracer {
            t.instant(
                trace::Phase::Estimate,
                "cost.actual",
                cost_actual_fields(
                    estimate.as_ref(),
                    guard,
                    result.stats.results_constructed as u64,
                ),
            );
        }
        Ok(result)
    }

    /// Evaluate a regular path expression from the root.
    pub fn eval_path(&self, rpe: &Rpe) -> Vec<NodeId> {
        ssd_query::eval_rpe(&self.graph, self.graph.root(), rpe)
    }

    /// §1.3 browse: where is this string? (index-backed)
    pub fn find_string(&self, text: &str) -> Vec<ssd_query::browse::Hit> {
        ssd_query::browse::find_string_indexed(&self.graph, self.index(), text)
    }

    /// §1.3 browse: integers greater than a threshold (index-backed).
    pub fn ints_greater(&self, threshold: i64) -> Vec<(i64, ssd_query::browse::Hit)> {
        ssd_query::browse::ints_greater_indexed(&self.graph, self.index(), threshold)
    }

    /// §1.3 browse: attribute names starting with a prefix (index-backed).
    pub fn attrs_with_prefix(&self, prefix: &str) -> Vec<ssd_query::browse::Hit> {
        ssd_query::browse::attrs_with_prefix_indexed(&self.graph, self.index(), prefix)
    }

    /// Run a graph-datalog program over the edge relation.
    pub fn datalog(&self, program: &str) -> Result<ssd_triples::datalog::Evaluation, String> {
        self.datalog_with(program, &Guard::unlimited())
    }

    /// Run a graph-datalog program under a resource [`Guard`].
    pub fn datalog_with(
        &self,
        program: &str,
        guard: &Guard,
    ) -> Result<ssd_triples::datalog::Evaluation, String> {
        let p = ssd_triples::datalog::parse_program(program, self.graph.symbols())?;
        self.program_with(&p, guard)
    }

    /// [`Database::datalog_with`] for a program already parsed against
    /// this database's symbol table (which every generation of a store
    /// shares). The EDB is [`Database::triples`].
    pub fn program_with(
        &self,
        program: &Program,
        guard: &Guard,
    ) -> Result<ssd_triples::datalog::Evaluation, String> {
        ssd_triples::datalog::evaluate_with(program, &self.triples(), guard)
            .map_err(|e| e.to_string())
    }

    /// As [`Database::datalog_with`], with structured tracing: parse and
    /// estimate spans, per-fixpoint-round spans, and the final
    /// `cost.actual` instant. A `None` guard gets a metered fallback, as
    /// in [`Database::query_traced`].
    pub fn datalog_traced(
        &self,
        program: &str,
        guard: Option<&Guard>,
        tracer: Option<&trace::Tracer>,
    ) -> Result<ssd_triples::datalog::Evaluation, String> {
        let metered = Budget::metered().guard();
        let guard = guard.unwrap_or(&metered);
        let p = {
            let _sp = trace::span(tracer, trace::Phase::Parse, "parse", Some(guard));
            ssd_triples::datalog::parse_program(program, self.graph.symbols())?
        };
        let estimate = tracer.map(|_| {
            let _sp = trace::span(tracer, trace::Phase::Estimate, "estimate", Some(guard));
            self.program_cost(&p, None)
        });
        let eval = ssd_triples::datalog::evaluate_traced(&p, &self.triples(), guard, tracer)
            .map_err(|e| e.to_string())?;
        if let Some(t) = tracer {
            t.instant(
                trace::Phase::Estimate,
                "cost.actual",
                cost_actual_fields(estimate.as_ref(), guard, eval.derived() as u64),
            );
        }
        Ok(eval)
    }

    /// How a datalog program will read this snapshot: per rule and body
    /// literal, the access path ([`ssd_triples::datalog::access_paths`])
    /// — the datalog counterpart of [`Database::select_access`].
    pub fn datalog_access(&self, program: &str) -> Result<Vec<Vec<String>>, String> {
        let p = ssd_triples::datalog::parse_program(program, self.graph.symbols())?;
        ssd_triples::datalog::access_paths(&p).map_err(|e| e.to_string())
    }

    /// Statically analyze a query against this database's extracted
    /// schema (`ssd check`): variable diagnostics plus schema-aware path
    /// typing that certifies provably empty bindings.
    pub fn check_query(&self, text: &str) -> Result<ssd_query::QueryAnalysis, String> {
        let schema = self.extract_schema();
        ssd_query::analyze_query_src(text, Some(&schema))
            .map(|(_, _, analysis)| analysis)
            .map_err(|e| e.to_string())
    }

    /// Statically analyze a graph-datalog program (`ssd check`): safety,
    /// arity, stratification, and reachability lints with source spans.
    pub fn check_datalog(&self, program: &str) -> Result<Vec<ssd_diag::Diagnostic>, String> {
        ssd_query::analyze::analyze_datalog_src(program, self.graph.symbols(), None)
    }

    /// The statistics every estimate on this snapshot starts from, read
    /// once off its triple index (built on first use) in one linear pass
    /// over the runs. `cyclic` is `true` whatever the data: the index
    /// does not say, and `true` only loosens bounds.
    pub fn index_stats(&self) -> &DataStats {
        self.index_stats
            .get_or_init(|| index_stats(self.built_index()))
    }

    /// [`Database::index_stats`] refined by the extracted schema — what
    /// `ssd check` and `ssd explain` estimate selects with. The extracted
    /// schema conforms by construction, so the per-schema-node extents
    /// are usable as cardinality bounds.
    pub fn data_stats(&self) -> (DataStats, Schema) {
        let schema = self.extract_schema();
        let stats = self.index_stats().clone().refine(&self.graph, &schema);
        (stats, schema)
    }

    /// Statically estimate a query's cost envelope (ssd-cost): interval
    /// bounds on cardinality, guard fuel, and guard-accounted memory,
    /// plus the SSD03x diagnostics. Pass the envelope to
    /// [`Budget::admit`] for admission control.
    pub fn estimate_query(&self, text: &str) -> Result<CostAnalysis, String> {
        let (q, spans) = ssd_query::lang::parse_query_spanned(text).map_err(|e| e.to_string())?;
        Ok(self.select_cost(&q, Some(&spans)))
    }

    /// Statically estimate a graph-datalog program's cost envelope.
    pub fn estimate_datalog(&self, program: &str) -> Result<CostAnalysis, String> {
        let (p, spans) =
            ssd_triples::datalog::parse_program_spanned(program, self.graph.symbols())?;
        Ok(self.program_cost(&p, Some(&spans)))
    }

    /// The cost analysis behind [`Database::estimate_query`], over
    /// [`Database::data_stats`]. Spans only position the diagnostics.
    fn select_cost(
        &self,
        q: &SelectQuery,
        spans: Option<&ssd_query::lang::QuerySpans>,
    ) -> CostAnalysis {
        let (stats, schema) = self.data_stats();
        let ctx = CostContext {
            stats: Some(&stats),
            schema: Some(&schema),
        };
        ssd_query::analyze::analyze_query_cost(q, spans, &ctx)
    }

    /// The cost analysis behind [`Database::estimate_datalog`], over
    /// [`Database::index_stats`] (no datalog bound reads a schema).
    fn program_cost(&self, p: &Program, spans: Option<&ProgramSpans>) -> CostAnalysis {
        let ctx = CostContext::with_stats(self.index_stats());
        ssd_query::analyze::analyze_datalog_cost(p, spans, None, &ctx)
    }

    /// Run a `rewrite` program (the surface syntax for structural
    /// recursion) over the whole database, returning the transformed
    /// database:
    ///
    /// ```
    /// # use semistructured::Database;
    /// let db = Database::from_literal(r#"{Cast: {Credit: {Actors: "Allen"}}}"#).unwrap();
    /// let flat = db.rewrite("rewrite case Credit => collapse").unwrap();
    /// assert_eq!(flat.to_literal(), r#"{Cast: {Actors: "Allen"}}"#);
    /// ```
    pub fn rewrite(&self, program: &str) -> Result<Database, String> {
        let t = ssd_query::lang::parse_rewrite(program).map_err(|e| e.to_string())?;
        Ok(Database::new(ssd_query::recursion::gext(
            &self.graph,
            self.graph.root(),
            &t,
        )))
    }

    /// As [`Database::rewrite`], under a resource [`Guard`].
    pub fn rewrite_with(&self, program: &str, guard: &Guard) -> Result<Database, String> {
        let t = ssd_query::lang::parse_rewrite(program).map_err(|e| e.to_string())?;
        ssd_query::recursion::gext_guarded(&self.graph, self.graph.root(), &t, guard)
            .map(Database::new)
            .map_err(|e| e.headline())
    }

    /// Deep restructuring: relabel edges matching a predicate (returns a
    /// new database; the original is untouched).
    pub fn relabel(&self, pred: Pred, new_name: &str) -> Database {
        Database::new(ssd_query::restructure::relabel_edges(
            &self.graph,
            pred,
            new_name,
        ))
    }

    /// Deep restructuring: delete matching edges.
    pub fn delete_edges(&self, pred: Pred) -> Database {
        Database::new(ssd_query::restructure::delete_edges(&self.graph, pred))
    }

    /// Deep restructuring: collapse matching edges.
    pub fn collapse_edges(&self, pred: Pred) -> Database {
        Database::new(ssd_query::restructure::collapse_edges(&self.graph, pred))
    }

    /// Does this database conform to the schema (simulation, §5)?
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        ssd_schema::conforms(&self.graph, schema)
    }

    /// Extract a schema describing this database (§5).
    pub fn extract_schema(&self) -> Schema {
        ssd_schema::extract_schema_default(&self.graph)
    }

    /// As [`Database::extract_schema`], under a resource [`Guard`].
    pub fn extract_schema_with(&self, guard: &Guard) -> Result<Schema, String> {
        ssd_schema::try_extract_schema(&self.graph, &ssd_schema::ExtractOptions::default(), guard)
            .map_err(|e| e.headline())
    }

    /// Serialize in the literal data syntax.
    pub fn to_literal(&self) -> String {
        ssd_graph::literal::write_graph(&self.graph)
    }

    /// Import a JSON document (§1.2 data exchange: objects → symbol
    /// edges, arrays → integer-labeled edges, scalars → atoms).
    pub fn from_json(src: &str) -> Result<Database, String> {
        ssd_graph::json::from_json(src)
            .map(Database::new)
            .map_err(|e| e.to_string())
    }

    /// Export as JSON. Fails on cyclic databases (JSON has no references;
    /// use [`Database::to_literal`] for those).
    pub fn to_json(&self) -> Result<String, String> {
        ssd_graph::json::graph_to_json(&self.graph).map_err(|e| e.to_string())
    }

    /// Import an XML document (elements → symbol edges, attributes →
    /// `@name` edges, text → string atoms).
    pub fn from_xml(src: &str) -> Result<Database, String> {
        ssd_graph::xml::from_xml(src)
            .map(Database::new)
            .map_err(|e| e.to_string())
    }

    /// Export as XML. Fails on cyclic databases and on labels XML cannot
    /// name.
    pub fn to_xml(&self) -> Result<String, String> {
        ssd_graph::xml::to_xml(&self.graph).map_err(|e| e.to_string())
    }

    /// Graphviz DOT rendering.
    pub fn to_dot(&self) -> String {
        ssd_graph::dot::to_dot_default(&self.graph)
    }

    /// Union with another database: a new database whose root edge set is
    /// the union of both roots' (the edge-labeled model's "party trick",
    /// §2 — trivial here, awkward in node-labeled models).
    pub fn union(&self, other: &Database) -> Database {
        Database::new(ssd_graph::ops::graph_union(&self.graph, &other.graph))
    }

    /// Union with another database, *preserving this database's node
    /// ids*: one owned copy of this graph, then [`ops::union_into_root`]
    /// on it. Surviving nodes keep their ids, `other`'s fragment is
    /// appended after them, and no gc runs; the root keeps its id too
    /// unless an edge targets it. The result is bisimilar to
    /// [`Database::union`]'s. Its in-place core is the `INSERT` a store
    /// commit and WAL replay both run, so replay rebuilds the very arena
    /// (ids included) the commit published.
    ///
    /// [`ops::union_into_root`]: ssd_graph::ops::union_into_root
    pub fn union_id_stable(&self, other: &Database) -> Database {
        let mut g = self.graph.clone();
        ssd_graph::ops::union_into_root(&mut g, &other.graph);
        Database::new(g)
    }

    /// Delete matching edges on one owned copy of this graph with
    /// [`delete_edges_in_place`], preserving node ids (no gc, no
    /// rebuild) — the id-stable counterpart of
    /// [`Database::delete_edges`], bisimilar on the reachable fragment.
    pub fn delete_edges_id_stable(&self, pred: &Pred) -> Database {
        let mut g = self.graph.clone();
        delete_edges_in_place(&mut g, pred);
        Database::new(g)
    }
}

/// Delete every reachable edge whose label matches `pred`, in place:
/// node ids are untouched and only the nodes that lose an edge are
/// rewritten. The in-place core of [`Database::delete_edges_id_stable`].
pub fn delete_edges_in_place(g: &mut Graph, pred: &Pred) {
    for n in g.reachable() {
        let doomed = |e: &ssd_graph::Edge| pred.matches(&e.label, g.symbols());
        if g.edges(n).iter().any(doomed) {
            let kept = g.edges(n).iter().filter(|e| !doomed(e)).cloned().collect();
            g.set_edges(n, kept);
        }
    }
}

/// How a select query will execute on a [`Database`] snapshot; see
/// [`Database::select_access`].
#[derive(Debug, Clone)]
pub enum AccessDecision {
    /// The batched columnar pipeline over the triple index, with the
    /// chosen per-binding access plan.
    Batched(AccessPlan),
    /// The one-binding-at-a-time interpreter, with the reason batched
    /// execution was declined (the body of the SSD050 note).
    Interpreter { reason: String },
}

impl AccessDecision {
    /// Per-binding access-path names for `ssd explain`: one entry per
    /// query binding, `index(spo)`/`index(pos)`/`index(spo+pos)` for the
    /// batched path, `interpreter(nfa-scan)` otherwise.
    pub fn binding_access(&self, bindings: usize) -> Vec<String> {
        match self {
            AccessDecision::Batched(plan) => plan.bindings.iter().map(|b| b.access()).collect(),
            AccessDecision::Interpreter { .. } => {
                vec!["interpreter(nfa-scan)".to_owned(); bindings]
            }
        }
    }

    /// The SSD050 fallback reason, when the interpreter was kept.
    pub fn fallback_reason(&self) -> Option<&str> {
        match self {
            AccessDecision::Batched(_) => None,
            AccessDecision::Interpreter { reason } => Some(reason),
        }
    }
}

/// The edge relation datalog reads on a [`Database`] snapshot: its triple
/// index, read in place; see [`Database::triples`]. Each bound-argument
/// pattern of `edge` is one contiguous range of the permutation sorted
/// for it.
pub struct Triples<'a>(&'a TripleIndex);

impl Edb for Triples<'_> {
    fn root(&self) -> u32 {
        self.0.root()
    }

    fn max_node(&self) -> u32 {
        // Both runs are sorted on their first component.
        let last = |run: &ssd_index::SortedRun| run.as_slice().last().map_or(0, |k| k[0]);
        let ix = self.0;
        ix.root().max(last(ix.spo())).max(last(ix.osp()))
    }

    fn label_count(&self) -> usize {
        self.0.dict().len()
    }

    fn label_id(&self, label: &Label) -> Option<u32> {
        self.0.label_id(label)
    }

    fn label(&self, id: u32) -> Option<&Label> {
        self.0.dict().resolve(id)
    }

    fn scan(
        &self,
        s: Option<u32>,
        p: Option<u32>,
        o: Option<u32>,
        visit: &mut dyn FnMut(Key) -> bool,
    ) {
        // (the matching range, where s, p, o sit in its keys)
        let (keys, [si, pi, oi]) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                if self.0.spo().contains(&[s, p, o]) {
                    visit([s, p, o]);
                }
                return;
            }
            (Some(s), Some(p), None) => (self.0.edges_from_labeled(s, p), [0, 1, 2]),
            (Some(s), None, None) => (self.0.edges_from(s), [0, 1, 2]),
            (None, None, None) => (self.0.spo().as_slice(), [0, 1, 2]),
            (None, Some(p), None) => (self.0.by_label(p), [2, 0, 1]),
            (None, Some(p), Some(o)) => (self.0.pos().range2(p, o), [2, 0, 1]),
            (None, None, Some(o)) => (self.0.edges_into(o), [1, 2, 0]),
            (Some(s), None, Some(o)) => (self.0.osp().range2(o, s), [1, 2, 0]),
        };
        for k in keys {
            if !visit([k[si], k[pi], k[oi]]) {
                return;
            }
        }
    }

    fn nodes(&self) -> Vec<u32> {
        let firsts = |run: &ssd_index::SortedRun| run.iter().map(|k| k[0]).collect::<Vec<u32>>();
        let mut out = firsts(self.0.spo());
        out.extend(firsts(self.0.osp()));
        out.push(self.0.root());
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The global statistics of the graph `index` was built for, read off
/// its runs: SPO's length and the root's SPO range, the `node/1`
/// relation's size, and one pass over POS's per-label ranges. Equal to
/// a walk of the graph on every field but `cyclic`, which is `true`
/// (`tests/store.rs` checks this against the walk).
fn index_stats(index: &TripleIndex) -> DataStats {
    // Node ids are dense: mark the root and every first component of
    // SPO and OSP.
    let mut seen = vec![false; Triples(index).max_node() as usize + 1];
    seen[index.root() as usize] = true;
    for k in index.spo().iter().chain(index.osp().iter()) {
        seen[k[0] as usize] = true;
    }
    let nodes = seen.iter().filter(|&&s| s).count() as u64;
    let mut stats = DataStats {
        nodes_reachable: nodes,
        edges_reachable: index.len() as u64,
        root_fanout: index.edges_from(index.root()).len() as u64,
        edb_nodes: nodes,
        cyclic: true,
        ..DataStats::default()
    };
    for run in index.pos().as_slice().chunk_by(|a, b| a[0] == b[0]) {
        stats.distinct_labels += 1;
        if let Some(Label::Symbol(s)) = index.dict().resolve(run[0][0]) {
            stats.symbol_counts.insert(*s, run.len() as u64);
        }
    }
    stats
}

/// Fields of the `cost.actual` instant: the run's actual fuel, memory,
/// and result cardinality, with the static estimate's interval bounds
/// alongside when an estimate is available — so one event shows whether
/// the envelope bracketed reality.
fn cost_actual_fields(
    estimate: Option<&CostAnalysis>,
    guard: &Guard,
    cardinality: u64,
) -> Vec<(&'static str, trace::FieldValue)> {
    let mut fields: Vec<(&'static str, trace::FieldValue)> = vec![
        ("fuel_actual", guard.steps_used().into()),
        ("mem_actual", guard.memory_used().into()),
        ("cardinality_actual", cardinality.into()),
    ];
    if let Some(est) = estimate {
        fields.push(("fuel_lo", est.envelope.fuel.lo.into()));
        fields.push(("fuel_hi", est.envelope.fuel.hi.to_string().into()));
        fields.push(("mem_lo", est.envelope.memory.lo.into()));
        fields.push(("mem_hi", est.envelope.memory.hi.to_string().into()));
        fields.push(("cardinality_lo", est.envelope.cardinality.lo.into()));
        fields.push((
            "cardinality_hi",
            est.envelope.cardinality.hi.to_string().into(),
        ));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database::new(ssd_data::movies::figure1())
    }

    #[test]
    fn facade_query() {
        let db = db();
        let r = db.query("select T from db.Entry.%.Title T").unwrap();
        assert_eq!(r.graph().out_degree(r.graph().root()), 3);
    }

    #[test]
    fn facade_query_agrees_with_the_all_off_reference() {
        let db = db();
        // An interpreter shape with a `where`: pushdown is live.
        let text = r#"select T from db.Entry.% M, M.Title T where exists M.Director"#;
        let q = ssd_query::parse_query(text).unwrap();
        let (reference, _) =
            ssd_query::evaluate_select(db.graph(), &q, &EvalOptions::default()).unwrap();
        let facade = db.query(text).unwrap();
        assert!(ssd_graph::bisim::graphs_bisimilar(
            facade.graph(),
            &reference
        ));
    }

    #[test]
    fn browse_queries() {
        let db = db();
        assert_eq!(db.find_string("Casablanca").len(), 1);
        // figure1's only ints are the guest indices 1 and 2.
        assert_eq!(db.ints_greater(0).len(), 2);
        assert_eq!(db.ints_greater(2).len(), 0);
        assert!(!db.attrs_with_prefix("Act").is_empty());
    }

    #[test]
    fn datalog_reachability() {
        let db = db();
        let eval = db
            .datalog(
                "reach(X) :- root(X).\n\
                 reach(Y) :- reach(X), edge(X, _L, Y).",
            )
            .unwrap();
        assert_eq!(eval.count("reach"), db.graph().reachable().len());
    }

    #[test]
    fn estimate_and_admit() {
        let db = db();
        // An interpreter shape: its root scan gives a fuel lower bound.
        let a = db
            .estimate_query("select T from db.Entry.%.Title T")
            .unwrap();
        assert!(a.envelope.fuel.is_bounded(), "{:?}", a.envelope);
        // A generous budget admits it; a one-step budget cannot.
        assert!(Budget::unlimited()
            .max_steps(1_000_000_000)
            .admit(&a.envelope)
            .is_ok());
        let rejected = Budget::unlimited().max_steps(1).admit(&a.envelope);
        assert_eq!(rejected.unwrap_err().code, diag::Code::CostExceedsBudget);

        let d = db
            .estimate_datalog(
                "reach(X) :- root(X).\n\
                 reach(Y) :- reach(X), edge(X, _L, Y).",
            )
            .unwrap();
        assert!(d.envelope.fuel.is_bounded(), "{:?}", d.envelope);
        assert!(d
            .diagnostics
            .iter()
            .any(|x| x.code == diag::Code::UnboundedCost));
    }

    #[test]
    fn chunked_results_cover_the_full_literal() {
        let db = db();
        let r = db.query("select T from db.Entry.%.Title T").unwrap();
        let chunks: Vec<String> = r.chunks(2).collect();
        // 3 titles in chunks of 2 -> sizes [2, 1].
        assert_eq!(chunks.len(), 2);
        // Each chunk is a standalone literal, and re-assembling every
        // chunk's roots reproduces the full result extensionally.
        let mut merged = ssd_graph::Graph::new();
        for c in &chunks {
            let part = Database::from_literal(c).unwrap();
            let root = merged.root();
            for e in part.graph().edges(part.graph().root()).to_vec() {
                let sub = ssd_graph::ops::copy_subgraph(part.graph(), e.to, &mut merged);
                let lbl = ssd_graph::ops::translate_label(part.graph(), &e.label, &merged);
                merged.add_edge(root, lbl, sub);
            }
        }
        assert!(ssd_graph::bisim::graphs_bisimilar(r.graph(), &merged));
        // Empty results produce zero chunks.
        let empty = db.query("select T from db.Nope T").unwrap();
        assert_eq!(empty.chunks(4).count(), 0);
    }

    #[test]
    fn restructure_and_schema() {
        let db = db();
        let fixed = db.relabel(Pred::Symbol("TV_Show".into()), "Show");
        assert!(fixed.to_literal().contains("Show"));
        let schema = db.extract_schema();
        assert!(db.conforms_to(&schema));
    }

    #[test]
    fn stats_and_dot() {
        let db = db();
        let profile = ssd_graph::stats::profile(db.graph());
        assert!(profile.cyclic);
        assert_eq!(profile.nodes, db.graph().reachable().len());
        assert!(db.to_dot().starts_with("digraph"));
    }

    #[test]
    fn literal_round_trip() {
        let db = db();
        let text = db.to_literal();
        let db2 = Database::from_literal(&text).unwrap();
        assert!(ssd_graph::bisim::graphs_bisimilar(db.graph(), db2.graph()));
    }

    #[test]
    fn from_literal_error() {
        assert!(Database::from_literal("{oops").is_err());
    }
}
