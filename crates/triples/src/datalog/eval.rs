//! Stratified datalog evaluation: naive and semi-naive, over encoded
//! tuples.
//!
//! The EDB — `edge(Src, Label, Dst)`, `root(R)` and `node(N)` (every node
//! occurring in a triple or as root) — is never copied: rule bodies read
//! it through an [`Edb`] — a snapshot's triple index — asking for the
//! triples that match whatever arguments are already resolved.
//!
//! Everything inside the fixpoint is a `u32`: a node is its index, a
//! label is its EDB id with the top bit set, and a constant the EDB does
//! not know gets an id past the label ids from a per-evaluation side
//! table. Rules are compiled once (variables numbered into a slot row,
//! constants encoded); IDB relations are flat row arenas
//! ([`super::rel`]); [`Datum`]s are only rebuilt when a caller asks an
//! [`Evaluation`] for tuples.
//!
//! Programs are stratified on negation; within a stratum, recursion is
//! evaluated either naively (recompute everything each round) or
//! semi-naively (join only against the last round's delta). Experiment E6
//! measures the gap between the two, which §3's pointer to "graph datalog"
//! implicitly relies on being large.

use super::ast::{is_builtin, Atom, Literal, Program, ProgramSpans, Rule, Term, EDB_PREDICATES};
use super::edb::Edb;
use super::rel::Relation;
use crate::algebra::Datum;
use ssd_diag::{Code, Diagnostic, Span};
use ssd_graph::{Label, NodeId};
use ssd_guard::{Exhausted, Guard};
use ssd_trace::{Phase, Tracer};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Fault-injection seam: hit once per fixpoint round.
pub const FP_DATALOG_ROUND: &str = "datalog.round";

/// Approximate bytes one derived tuple costs in the fact database.
/// Public so the static cost analysis charges the same unit it measures.
pub const TUPLE_COST: u64 = 96;

/// Tag bit of an encoded value: clear for a node index, set for a label
/// id (EDB ids first, side-table constants after them).
const LABEL: u32 = 1 << 31;

/// A variable slot no literal has bound yet. Never a valid value: the
/// capacity check keeps label ids below `LABEL - 1`.
const UNBOUND: u32 = u32::MAX;

/// Errors from evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatalogError {
    /// The program breaks a static rule: the first finding of
    /// [`check_program`] (SSD020, SSD021 or SSD022).
    Invalid(Diagnostic),
    /// The snapshot's node or label ids do not fit the evaluator's
    /// 31-bit id spaces.
    Capacity(String),
    /// A resource budget (fuel, memory, deadline, cancellation, fault
    /// injection) tripped mid-fixpoint.
    Exhausted(Exhausted),
}

impl std::fmt::Display for DatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatalogError::Invalid(d) => f.write_str(&d.headline()),
            DatalogError::Capacity(m) => write!(f, "snapshot too large for datalog: {m}"),
            DatalogError::Exhausted(e) => write!(f, "{}", e.headline()),
        }
    }
}

impl std::error::Error for DatalogError {}

/// The encoded rows of one derived predicate.
#[derive(Debug)]
struct Rows {
    arity: usize,
    len: usize,
    data: Vec<u32>,
}

/// Result of evaluating a program: the derived (IDB) relations plus
/// iteration statistics. Tuples stay encoded until asked for.
#[derive(Debug)]
pub struct Evaluation {
    relations: BTreeMap<String, Rows>,
    /// Decoded form of every label-tagged value the rows mention.
    labels: HashMap<u32, Datum>,
    /// Total fixpoint iterations across strata.
    pub iterations: usize,
    /// Total number of rule-body join evaluations performed (work measure
    /// for the naive vs semi-naive comparison).
    pub rule_evaluations: usize,
    /// Set when a guard in partial mode stopped evaluation early: the
    /// headline of the exhaustion cause. The relations hold everything
    /// derived up to that point (a sound under-approximation of the
    /// fixpoint).
    pub truncated: Option<String>,
}

impl Evaluation {
    /// The derived predicates (every rule head, even if empty), sorted.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Tuples derived for `pred`, decoded and in sorted order (none for
    /// an unknown predicate).
    pub fn tuples(&self, pred: &str) -> impl Iterator<Item = Vec<Datum>> {
        let mut out: Vec<Vec<Datum>> = self.relations.get(pred).map_or_else(Vec::new, |r| {
            (0..r.len)
                .map(|i| {
                    let row = &r.data[i * r.arity..(i + 1) * r.arity];
                    row.iter().map(|&v| self.decode(v)).collect()
                })
                .collect()
        });
        out.sort_unstable();
        out.into_iter()
    }

    pub fn count(&self, pred: &str) -> usize {
        self.relations.get(pred).map_or(0, |r| r.len)
    }

    /// Tuples derived across all predicates.
    pub fn derived(&self) -> usize {
        self.relations.values().map(|r| r.len).sum()
    }

    fn decode(&self, v: u32) -> Datum {
        match self.labels.get(&v) {
            Some(d) => d.clone(),
            None => Datum::Node(NodeId::from_index(v as usize)),
        }
    }
}

/// Evaluate `program` over `edb`, semi-naively.
pub fn evaluate(program: &Program, edb: &dyn Edb) -> Result<Evaluation, DatalogError> {
    evaluate_with(program, edb, &Guard::unlimited())
}

/// Evaluate naively (for the E6 comparison).
// lint: allow(guard) — naive reference evaluator, kept only as the semi-naive oracle; production paths go through `evaluate_with`
pub fn evaluate_naive(program: &Program, edb: &dyn Edb) -> Result<Evaluation, DatalogError> {
    run(program, edb, Mode::Naive, &Guard::unlimited(), None)
}

/// Evaluate semi-naively under a resource [`Guard`]. Fuel is ticked per
/// fixpoint round and per join candidate the access path offers; memory
/// is accounted per derived tuple; deadline and cancellation are polled
/// at every round boundary. In partial mode exhaustion yields the facts
/// derived so far with [`Evaluation::truncated`] set; otherwise
/// [`DatalogError::Exhausted`].
pub fn evaluate_with(
    program: &Program,
    edb: &dyn Edb,
    guard: &Guard,
) -> Result<Evaluation, DatalogError> {
    evaluate_traced(program, edb, guard, None)
}

/// As [`evaluate_with`], with structured tracing: one [`Phase::Datalog`]
/// span for the whole fixpoint, a child span per round (stratum, round
/// number, delta size, rule evaluations, guard fuel/memory deltas), and a
/// [`Phase::Guard`] instant when the guard stops evaluation.
pub fn evaluate_traced(
    program: &Program,
    edb: &dyn Edb,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    let res = run(program, edb, Mode::SemiNaive, guard, tracer);
    if let Err(e) = &res {
        ssd_trace::instant(
            tracer,
            Phase::Guard,
            "exhausted",
            vec![("cause", e.to_string().into())],
        );
    }
    res
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Naive,
    SemiNaive,
}

/// Assign each IDB predicate a stratum such that positive dependencies stay
/// within or below, and negative dependencies come from strictly below.
/// Fails with a predicate on a cycle through negation.
fn stratify(program: &Program) -> Result<Vec<Vec<&Rule>>, &str> {
    let idb: Vec<&str> = program.idb_predicates();
    let mut stratum: HashMap<&str, usize> = idb.iter().map(|p| (*p, 0)).collect();
    let max_strata = idb.len() + 1;
    // Fixpoint: raise strata until stable (Ullman's algorithm).
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        if rounds > max_strata * program.rules.len().max(1) + 1 {
            // A stratum exceeded the number of predicates: negative cycle.
            return Err(idb.first().copied().unwrap_or("?"));
        }
        for rule in &program.rules {
            let head_pred = rule.head.pred.as_str();
            let head_stratum = stratum[head_pred];
            for lit in &rule.body {
                let p = lit.atom.pred.as_str();
                let Some(&body_stratum) = stratum.get(p) else {
                    continue; // EDB predicate
                };
                let required = if lit.positive {
                    body_stratum
                } else {
                    body_stratum + 1
                };
                if required > head_stratum {
                    if required >= max_strata {
                        return Err(head_pred);
                    }
                    stratum.insert(head_pred, required);
                    changed = true;
                }
            }
        }
    }
    let top = stratum.values().copied().max().unwrap_or(0);
    let mut strata: Vec<Vec<&Rule>> = vec![Vec::new(); top + 1];
    for rule in &program.rules {
        strata[stratum[rule.head.pred.as_str()]].push(rule);
    }
    Ok(strata)
}

/// The static rules of the language, as diagnostics in source order:
/// range restriction (SSD020: every head variable, and every variable of
/// a negated or builtin literal, occurs in a positive body literal; no
/// rule defines an EDB or builtin predicate; builtins take two
/// arguments), one arity per predicate (SSD021: the EDB's own for
/// `edge`, `node` and `root`, the first use's otherwise) and stratified
/// negation (SSD022, located at the first negated derived literal).
/// [`admit`] refuses a program on the first finding and `ssd check`
/// reports them all; `spans` locates them in the source.
pub fn check_program(program: &Program, spans: Option<&ProgramSpans>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut arity: HashMap<&str, usize> = EDB_PREDICATES.iter().copied().collect();
    let idb: HashSet<&str> = program.idb_predicates().into_iter().collect();
    let mut cycle = stratify(program).err();
    for (i, rule) in program.rules.iter().enumerate() {
        let head = rule.head.pred.as_str();
        let head_span = spans.and_then(|s| s.head(i));
        let edb = EDB_PREDICATES.iter().any(|&(p, _)| p == head);
        if edb || is_builtin(head) {
            diags.push(
                Diagnostic::new(
                    Code::DatalogUnsafe,
                    format!(
                        "rule {i}: cannot define {} predicate `{head}`",
                        if edb { "EDB" } else { "builtin" }
                    ),
                )
                .with_span_opt(head_span),
            );
        }
        let positive_vars: HashSet<&str> = rule
            .body
            .iter()
            .filter(|l| l.positive && !is_builtin(l.atom.pred.as_str()))
            .flat_map(|l| l.atom.vars())
            .collect();
        for v in rule.head.vars().filter(|v| !positive_vars.contains(v)) {
            diags.push(
                Diagnostic::new(
                    Code::DatalogUnsafe,
                    format!("rule {i}: head variable `{v}` not bound by a positive body literal"),
                )
                .with_span_opt(head_span)
                .with_suggestion(format!("add a positive body literal mentioning `{v}`")),
            );
        }
        check_arity(&rule.head, head_span, &mut arity, &mut diags);
        for (j, lit) in rule.body.iter().enumerate() {
            let span = spans.and_then(|s| s.body(i, j));
            let pred = lit.atom.pred.as_str();
            let builtin = is_builtin(pred);
            if builtin && lit.atom.terms.len() != 2 {
                diags.push(
                    Diagnostic::new(
                        Code::DatalogUnsafe,
                        format!("rule {i}: builtin `{pred}` takes exactly two arguments"),
                    )
                    .with_span_opt(span),
                );
            }
            if builtin || !lit.positive {
                for v in lit.atom.vars().filter(|v| !positive_vars.contains(v)) {
                    diags.push(
                        Diagnostic::new(
                            Code::DatalogUnsafe,
                            format!(
                                "rule {i}: variable `{v}` in {} literal not bound positively",
                                if lit.positive { "builtin" } else { "negated" }
                            ),
                        )
                        .with_span_opt(span),
                    );
                }
            }
            check_arity(&lit.atom, span, &mut arity, &mut diags);
            if !lit.positive && idb.contains(pred) {
                if let Some(culprit) = cycle.take() {
                    diags.push(not_stratifiable(culprit).with_span_opt(span));
                }
            }
        }
    }
    diags
}

fn check_arity<'p>(
    atom: &'p Atom,
    span: Option<Span>,
    arity: &mut HashMap<&'p str, usize>,
    diags: &mut Vec<Diagnostic>,
) {
    if is_builtin(atom.pred.as_str()) {
        return; // builtin arity is a safety (SSD020) concern
    }
    let expected = *arity.entry(atom.pred.as_str()).or_insert(atom.terms.len());
    if expected != atom.terms.len() {
        diags.push(
            Diagnostic::new(
                Code::DatalogArityMismatch,
                format!(
                    "predicate `{}` used with arity {}, expected {expected}",
                    atom.pred,
                    atom.terms.len()
                ),
            )
            .with_span_opt(span),
        );
    }
}

fn not_stratifiable(culprit: &str) -> Diagnostic {
    Diagnostic::new(
        Code::DatalogNotStratifiable,
        format!("program is not stratifiable (negative cycle through `{culprit}`)"),
    )
    .with_suggestion(
        "break the cycle of recursion through negation; every negated \
         predicate must be fully computable in a lower stratum",
    )
}

/// What the evaluator refuses before doing any guard work: the first
/// finding of [`check_program`]. Returns the strata otherwise. Public so
/// that the static cost analysis and a server's admission refuse exactly
/// what evaluation refuses, with the same check.
pub fn admit(program: &Program) -> Result<Vec<Vec<&Rule>>, DatalogError> {
    if let Some(d) = check_program(program, None).into_iter().next() {
        return Err(DatalogError::Invalid(d));
    }
    stratify(program).map_err(|p| DatalogError::Invalid(not_stratifiable(p)))
}

/// For each body literal of `rule`, which arguments are resolved before
/// the literal runs: constants, and variables an earlier positive
/// relational literal bound. (Negated literals and builtins bind
/// nothing.) This alone decides the access path of a literal.
fn bound_args(rule: &Rule) -> Vec<Vec<bool>> {
    let mut seen: HashSet<&str> = HashSet::new();
    rule.body
        .iter()
        .map(|lit| {
            let bound = lit
                .atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => seen.contains(v.as_str()),
                })
                .collect();
            if lit.positive && !is_builtin(lit.atom.pred.as_str()) {
                seen.extend(lit.atom.vars());
            }
            bound
        })
        .collect()
}

/// Per rule and body literal, the access path the evaluator will use —
/// the datalog counterpart of a select's per-binding access:
///
/// * `edge`: the permutation sorted for the bound arguments —
///   `SPO(s)`, `SPO(s,p)`, `SPO(s,p,o)`, `POS(p)`, `POS(p,o)`, `OSP(o)`,
///   `OSP(o,s)` — or `scan` when none is bound;
/// * `node(lookup)` / `node(scan)`, `root`;
/// * `idb` for a derived relation, `idb-delta` for a positive literal
///   over the rule's own stratum (read from the last round's delta once
///   the seed round is over), with the hash-probed columns in
///   parentheses when some argument is bound;
/// * `filter` for builtins, `empty` for a predicate nothing defines.
///
/// Fails exactly when evaluation would refuse the program.
pub fn access_paths(program: &Program) -> Result<Vec<Vec<String>>, DatalogError> {
    let strata = admit(program)?;
    let stratum: HashMap<&str, usize> = strata
        .iter()
        .enumerate()
        .flat_map(|(i, rules)| rules.iter().map(move |r| (r.head.pred.as_str(), i)))
        .collect();
    Ok(program
        .rules
        .iter()
        .map(|rule| {
            let own = stratum.get(rule.head.pred.as_str());
            rule.body
                .iter()
                .zip(bound_args(rule))
                .map(|(lit, bound)| {
                    let pred = lit.atom.pred.as_str();
                    let same_stratum = lit.positive && stratum.get(pred) == own;
                    access_name(pred, &bound, stratum.contains_key(pred), same_stratum)
                })
                .collect()
        })
        .collect())
}

fn access_name(pred: &str, bound: &[bool], idb: bool, same_stratum: bool) -> String {
    match (pred, bound) {
        (p, _) if is_builtin(p) => "filter".to_owned(),
        ("edge", &[s, p, o]) => match (s, p, o) {
            (true, true, true) => "SPO(s,p,o)",
            (true, true, false) => "SPO(s,p)",
            (true, false, false) => "SPO(s)",
            (false, true, false) => "POS(p)",
            (false, true, true) => "POS(p,o)",
            (false, false, true) => "OSP(o)",
            (true, false, true) => "OSP(o,s)",
            (false, false, false) => "scan",
        }
        .to_owned(),
        ("node", &[true]) => "node(lookup)".to_owned(),
        ("node", _) => "node(scan)".to_owned(),
        ("root", _) => "root".to_owned(),
        _ if idb => {
            let cols: Vec<String> = (0..bound.len())
                .filter(|&i| bound[i])
                .map(|i| i.to_string())
                .collect();
            let name = if same_stratum { "idb-delta" } else { "idb" };
            if cols.is_empty() {
                name.to_owned()
            } else {
                format!("{name}({})", cols.join(","))
            }
        }
        _ => "empty".to_owned(),
    }
}

/// Encoding of [`Datum`]s for one evaluation: EDB label ids, then the
/// side table of constants the EDB cannot encode (labels no edge carries,
/// node ids past the tag bit).
struct Terms<'e> {
    edb: &'e dyn Edb,
    nlabels: u32,
    extra: Vec<Datum>,
    extra_ids: HashMap<Datum, u32>,
}

impl<'e> Terms<'e> {
    /// Refuses snapshots whose ids (plus the program's constants) do not
    /// fit below the tag bit.
    fn new(edb: &'e dyn Edb, program: &Program) -> Result<Terms<'e>, DatalogError> {
        let constants: usize = program
            .rules
            .iter()
            .map(|r| r.head.terms.len() + r.body.iter().map(|l| l.atom.terms.len()).sum::<usize>())
            .sum();
        let ids = edb.label_count().saturating_add(constants);
        if edb.max_node() >= LABEL || ids >= (LABEL - 1) as usize {
            return Err(DatalogError::Capacity(format!(
                "node ids up to {} and {ids} label/constant ids need more than 31 bits",
                edb.max_node()
            )));
        }
        Ok(Terms {
            edb,
            nlabels: edb.label_count() as u32,
            extra: Vec::new(),
            extra_ids: HashMap::new(),
        })
    }

    fn encode(&mut self, d: &Datum) -> u32 {
        match d {
            Datum::Node(n) if n.index() < LABEL as usize => return n.index() as u32,
            Datum::Label(l) => {
                if let Some(id) = self.edb.label_id(l) {
                    return LABEL | id;
                }
            }
            Datum::Node(_) => {}
        }
        let next = self.nlabels + self.extra.len() as u32;
        let id = *self.extra_ids.entry(d.clone()).or_insert(next);
        if id == next {
            self.extra.push(d.clone());
        }
        LABEL | id
    }

    /// The label behind a tagged value (`None` for nodes).
    fn label(&self, v: u32) -> Option<&Label> {
        let id = v.checked_sub(LABEL)?;
        match id.checked_sub(self.nlabels) {
            None => self.edb.label(id),
            Some(k) => self.extra.get(k as usize).and_then(Datum::as_label),
        }
    }

    /// Decode a tagged value (label or side-table constant).
    fn decode(&self, v: u32) -> Option<Datum> {
        let id = v.checked_sub(LABEL)?;
        match id.checked_sub(self.nlabels) {
            None => self.edb.label(id).cloned().map(Datum::Label),
            Some(k) => self.extra.get(k as usize).cloned(),
        }
    }
}

#[derive(Clone, Copy)]
enum Arg {
    Const(u32),
    Var(usize),
}

enum Source {
    Edge,
    Node,
    Root,
    /// A derived relation, probed through hash index `index` when some
    /// argument arrives bound, scanned otherwise.
    Idb {
        rel: usize,
        index: Option<usize>,
    },
    Builtin,
    /// A predicate no rule defines: always empty.
    Undefined,
}

struct Lit<'p> {
    source: Source,
    pred: &'p str,
    positive: bool,
    args: Vec<Arg>,
    /// Parallel to `args`; see [`bound_args`].
    bound: Vec<bool>,
}

/// A rule compiled against one evaluation's relations and encoding.
struct Compiled<'p> {
    head: usize,
    head_args: Vec<Arg>,
    body: Vec<Lit<'p>>,
    nvars: usize,
}

/// The IDB relations of one evaluation: one per rule-head predicate.
struct Idb<'p> {
    index: HashMap<&'p str, usize>,
    names: Vec<&'p str>,
    rels: Vec<Relation>,
}

impl<'p> Idb<'p> {
    fn new(program: &'p Program) -> Idb<'p> {
        let mut idb = Idb {
            index: HashMap::new(),
            names: Vec::new(),
            rels: Vec::new(),
        };
        for rule in &program.rules {
            let pred = rule.head.pred.as_str();
            if !idb.index.contains_key(pred) {
                idb.index.insert(pred, idb.rels.len());
                idb.names.push(pred);
                idb.rels.push(Relation::new(rule.head.terms.len()));
            }
        }
        idb
    }
}

fn compile<'p>(rule: &'p Rule, terms: &mut Terms<'_>, idb: &mut Idb<'p>) -> Compiled<'p> {
    let mut vars: HashMap<&str, usize> = HashMap::new();
    let mut args_of = |atom: &'p Atom, terms: &mut Terms<'_>| -> Vec<Arg> {
        atom.terms
            .iter()
            .map(|t| match t {
                Term::Const(d) => Arg::Const(terms.encode(d)),
                Term::Var(v) => {
                    let next = vars.len();
                    Arg::Var(*vars.entry(v.as_str()).or_insert(next))
                }
            })
            .collect()
    };
    let body = rule
        .body
        .iter()
        .zip(bound_args(rule))
        .map(|(lit, bound): (&'p Literal, _)| {
            let pred = lit.atom.pred.as_str();
            let source = match pred {
                "edge" => Source::Edge,
                "node" => Source::Node,
                "root" => Source::Root,
                p if is_builtin(p) => Source::Builtin,
                p => match idb.index.get(p) {
                    Some(&rel) => {
                        let cols: Vec<usize> = (0..bound.len()).filter(|&i| bound[i]).collect();
                        let index = (!cols.is_empty()).then(|| idb.rels[rel].index_on(cols));
                        Source::Idb { rel, index }
                    }
                    None => Source::Undefined,
                },
            };
            Lit {
                source,
                pred,
                positive: lit.positive,
                args: args_of(&lit.atom, terms),
                bound,
            }
        })
        .collect();
    let head_args = args_of(&rule.head, terms);
    Compiled {
        head: idb.index[rule.head.pred.as_str()],
        head_args,
        body,
        nvars: vars.len(),
    }
}

fn run(
    program: &Program,
    edb: &dyn Edb,
    mode: Mode,
    guard: &Guard,
    tracer: Option<&Tracer>,
) -> Result<Evaluation, DatalogError> {
    let mut dsp = ssd_trace::span(tracer, Phase::Datalog, "datalog", Some(guard));
    let exh = DatalogError::Exhausted;
    let strata = admit(program)?;
    let mut terms = Terms::new(edb, program)?;
    let mut idb = Idb::new(program);
    let compiled: Vec<Vec<Compiled<'_>>> = strata
        .iter()
        .map(|rules| {
            rules
                .iter()
                .map(|r| compile(r, &mut terms, &mut idb))
                .collect()
        })
        .collect();
    let reads_node = program
        .rules
        .iter()
        .any(|r| r.body.iter().any(|l| l.atom.pred == "node"));
    let nodes = if reads_node { edb.nodes() } else { Vec::new() };
    let mut rels = idb.rels;
    let mut out: Vec<u32> = Vec::new();
    let mut iterations = 0usize;
    let mut rule_evaluations = 0usize;
    'strata: for (si, rules) in compiled.iter().enumerate() {
        if rules.is_empty() {
            continue;
        }
        let heads: HashSet<usize> = rules.iter().map(|r| r.head).collect();
        // Positive body literals over this stratum's own predicates: the
        // positions semi-naive evaluation restricts to the delta.
        let recursive: Vec<Vec<Option<usize>>> = rules
            .iter()
            .map(|r| {
                (0..r.body.len())
                    .filter(|&i| match r.body[i].source {
                        Source::Idb { rel, .. } => r.body[i].positive && heads.contains(&rel),
                        _ => false,
                    })
                    .map(Some)
                    .collect()
            })
            .collect();
        let mut round = 0usize;
        loop {
            iterations += 1;
            let mut round_sp = ssd_trace::span(tracer, Phase::Datalog, "round", Some(guard));
            let rule_evals_before = rule_evaluations;
            // Round boundary: observe deadline/cancellation promptly even
            // when single rounds burn few ticks.
            guard.poll().map_err(exh)?;
            if !(guard.tick(1).map_err(exh)? && guard.fail_point(FP_DATALOG_ROUND).map_err(exh)?) {
                break 'strata;
            }
            // What the previous round added becomes this round's delta;
            // what this round adds stays invisible until the next.
            for &h in &heads {
                rels[h].prev = rels[h].vis;
                rels[h].vis = rels[h].len();
            }
            let mut added = 0usize;
            for (rule, rec) in rules.iter().zip(&recursive) {
                // Semi-naive: one evaluation per occurrence of a recursive
                // predicate in the body, with that occurrence restricted
                // to the delta. The seed round, and naive mode, run every
                // rule once in full; rules with no recursive body literal
                // run only on the seed round.
                let variants: &[Option<usize>] = match mode {
                    Mode::SemiNaive if round > 0 => rec,
                    _ => &[None],
                };
                for &delta_at in variants {
                    rule_evaluations += 1;
                    out.clear();
                    let cx = Cx {
                        edb,
                        terms: &terms,
                        rels: &rels,
                        nodes: &nodes,
                        guard,
                    };
                    let derived = cx.eval_rule(rule, delta_at, &mut out).map_err(exh)?;
                    let head = &mut rels[rule.head];
                    let k = head.arity();
                    for t in (0..derived).map(|j| &out[j * k..(j + 1) * k]) {
                        if !head.contains(t) {
                            if !guard.alloc(TUPLE_COST).map_err(exh)? {
                                break;
                            }
                            head.insert(t);
                            added += 1;
                        }
                    }
                }
            }
            if round_sp.enabled() {
                round_sp.field("stratum", si);
                round_sp.field("round", round);
                round_sp.field("delta", added);
                round_sp.field("rule_evals", rule_evaluations - rule_evals_before);
            }
            round_sp.close();
            round += 1;
            if added == 0 {
                break;
            }
        }
        for &h in &heads {
            rels[h].vis = rels[h].len();
        }
    }
    let truncated = guard.truncation().map(|e| e.headline());
    if let (Some(t), Some(why)) = (tracer, &truncated) {
        t.instant(
            Phase::Guard,
            "truncated",
            vec![("cause", why.as_str().into())],
        );
    }
    // Every head predicate appears in the output, even if empty — also
    // after a partial-mode stop, so truncated results stay well-formed.
    let mut relations = BTreeMap::new();
    let mut labels: HashMap<u32, Datum> = HashMap::new();
    for (pred, rel) in idb.names.into_iter().zip(rels) {
        let (arity, len) = (rel.arity(), rel.len());
        let data = rel.into_rows();
        for &v in &data {
            if v & LABEL != 0 && !labels.contains_key(&v) {
                if let Some(d) = terms.decode(v) {
                    labels.insert(v, d);
                }
            }
        }
        relations.insert(pred.to_owned(), Rows { arity, len, data });
    }
    let eval = Evaluation {
        relations,
        labels,
        iterations,
        rule_evaluations,
        truncated,
    };
    if dsp.enabled() {
        dsp.field("iterations", iterations);
        dsp.field("rule_evals", rule_evaluations);
        dsp.field("facts", eval.derived());
    }
    dsp.close();
    Ok(eval)
}

/// What one rule evaluation reads.
struct Cx<'a> {
    edb: &'a dyn Edb,
    terms: &'a Terms<'a>,
    rels: &'a [Relation],
    nodes: &'a [u32],
    guard: &'a Guard,
}

impl Cx<'_> {
    /// Evaluate one rule body, optionally restricting the positive
    /// literal at `delta_at` to its relation's delta, and append the
    /// derived head tuples to `out`; returns how many. Bindings are flat
    /// rows of variable slots carried literal by literal. Fuel is ticked
    /// per candidate a positive literal is offered and per binding a
    /// negated literal tests.
    fn eval_rule(
        &self,
        rule: &Compiled<'_>,
        delta_at: Option<usize>,
        out: &mut Vec<u32>,
    ) -> Result<usize, Exhausted> {
        let w = rule.nvars.max(1);
        let mut cur: Vec<u32> = vec![UNBOUND; w];
        let mut next: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = vec![UNBOUND; w];
        for (i, lit) in rule.body.iter().enumerate() {
            next.clear();
            let mut go: Result<bool, Exhausted> = Ok(true);
            for row in cur.chunks_exact(w) {
                if matches!(lit.source, Source::Builtin) {
                    // Builtins filter the current bindings.
                    if self.builtin(lit, row) == lit.positive {
                        next.extend_from_slice(row);
                    }
                } else if lit.positive {
                    self.offer(lit, row, delta_at == Some(i), &mut |tuple| {
                        go = self.guard.tick(1);
                        if !matches!(go, Ok(true)) {
                            return false;
                        }
                        let at = next.len();
                        next.extend_from_slice(row);
                        if !unify(&lit.args, tuple, &mut next[at..]) {
                            next.truncate(at);
                        }
                        true
                    });
                } else {
                    // Negation filters: variables no earlier literal
                    // bound are existential.
                    go = self.guard.tick(1);
                    if matches!(go, Ok(true)) {
                        let mut hit = false;
                        self.offer(lit, row, false, &mut |tuple| {
                            scratch.copy_from_slice(row);
                            hit = unify(&lit.args, tuple, &mut scratch);
                            !hit
                        });
                        if !hit {
                            next.extend_from_slice(row);
                        }
                    }
                }
                if !matches!(go, Ok(true)) {
                    break;
                }
            }
            // A partial-mode stop derives nothing: the guard refuses the
            // tuples' memory from here on anyway.
            if !go? || next.is_empty() {
                return Ok(0);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let mut derived = 0usize;
        'rows: for row in cur.chunks_exact(w) {
            let at = out.len();
            for a in &rule.head_args {
                let v = match *a {
                    Arg::Const(c) => c,
                    Arg::Var(v) => row[v],
                };
                // The safety check guarantees head vars are bound; if that
                // invariant ever breaks, drop the binding rather than panic.
                if v == UNBOUND {
                    out.truncate(at);
                    continue 'rows;
                }
                out.push(v);
            }
            derived += 1;
        }
        Ok(derived)
    }

    /// Offer `visit` the tuples of `lit`'s relation that agree with `row`
    /// on every bound argument — no others, so candidates (and the fuel
    /// ticked per candidate) are what the access path selects, not what
    /// the relation holds. A bound value of the wrong kind (a label where
    /// `edge` wants a node, a constant no edge carries) selects nothing.
    fn offer(
        &self,
        lit: &Lit<'_>,
        row: &[u32],
        delta: bool,
        visit: &mut dyn FnMut(&[u32]) -> bool,
    ) {
        let val = |i: usize| match lit.args[i] {
            Arg::Const(c) => c,
            Arg::Var(v) => row[v],
        };
        let bound = |i: usize| lit.bound[i].then(|| val(i));
        match lit.source {
            Source::Edge => {
                let node = |v: Option<u32>| match v {
                    Some(v) if v & LABEL != 0 => Err(()),
                    v => Ok(v),
                };
                let label = |v: Option<u32>| match v {
                    None => Ok(None),
                    Some(v) if v & LABEL != 0 && (v ^ LABEL) < self.terms.nlabels => {
                        Ok(Some(v ^ LABEL))
                    }
                    Some(_) => Err(()),
                };
                if let (Ok(s), Ok(p), Ok(o)) = (node(bound(0)), label(bound(1)), node(bound(2))) {
                    self.edb
                        .scan(s, p, o, &mut |[s, p, o]| visit(&[s, p | LABEL, o]));
                }
            }
            Source::Node => match bound(0) {
                Some(v) => {
                    if self.nodes.binary_search(&v).is_ok() {
                        visit(&[v]);
                    }
                }
                None => {
                    for &n in self.nodes {
                        if !visit(&[n]) {
                            break;
                        }
                    }
                }
            },
            Source::Root => {
                visit(&[self.edb.root()]);
            }
            Source::Idb { rel, index } => {
                let rel = &self.rels[rel];
                let range = if delta { rel.prev..rel.vis } else { 0..rel.vis };
                match index {
                    Some(ix) => rel.probe(ix, &val, range, visit),
                    None => {
                        for r in range {
                            if !visit(rel.row(r)) {
                                break;
                            }
                        }
                    }
                }
            }
            Source::Builtin | Source::Undefined => {}
        }
    }

    /// Evaluate a builtin comparison. An argument no earlier literal
    /// bound makes the builtin unsatisfied rather than panicking.
    fn builtin(&self, lit: &Lit<'_>, row: &[u32]) -> bool {
        if !(lit.bound[0] && lit.bound[1]) {
            return false;
        }
        let val = |a: Arg| match a {
            Arg::Const(c) => c,
            Arg::Var(v) => row[v],
        };
        let (a, b) = (val(lit.args[0]), val(lit.args[1]));
        match lit.pred {
            // The encoding is one-to-one, so equality is on the codes.
            "eq" => a == b,
            "neq" => a != b,
            op => {
                // Ordered comparisons apply to values only (node ids and
                // symbols have no meaningful order for queries).
                let value = |v: u32| self.terms.label(v).and_then(Label::as_value);
                let (Some(va), Some(vb)) = (value(a), value(b)) else {
                    return false;
                };
                let ord = va.query_cmp(vb);
                match op {
                    "lt" => ord == std::cmp::Ordering::Less,
                    "le" => ord != std::cmp::Ordering::Greater,
                    "gt" => ord == std::cmp::Ordering::Greater,
                    "ge" => ord != std::cmp::Ordering::Less,
                    // is_builtin covers exactly the six above; treat
                    // anything else as unsatisfied.
                    _ => false,
                }
            }
        }
    }
}

/// Match `tuple` against `args` under the bindings in `slots`, binding
/// the variables it meets unbound. On `false`, `slots` is garbage.
fn unify(args: &[Arg], tuple: &[u32], slots: &mut [u32]) -> bool {
    for (a, &t) in args.iter().zip(tuple) {
        match *a {
            Arg::Const(c) => {
                if c != t {
                    return false;
                }
            }
            Arg::Var(v) => {
                if slots[v] == UNBOUND {
                    slots[v] = t;
                } else if slots[v] != t {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::parse_program;
    use crate::datalog::edb::walked::Walked;
    use ssd_graph::literal::parse_graph;
    use ssd_graph::Graph;

    /// Did evaluation refuse the program statically, with `code`?
    pub(super) fn refused(r: Result<Evaluation, DatalogError>, code: Code) -> bool {
        matches!(r, Err(DatalogError::Invalid(d)) if d.code == code)
    }

    fn chain(n: usize) -> Graph {
        // root -a-> n1 -a-> n2 ... linear chain of n edges.
        let mut g = Graph::new();
        let mut cur = g.root();
        for _ in 0..n {
            let next = g.add_node();
            g.add_sym_edge(cur, "a", next);
            cur = next;
        }
        g
    }

    fn tc_program(g: &Graph) -> Program {
        parse_program(
            "path(X, Y) :- edge(X, _L, Y).\n\
             path(X, Y) :- edge(X, _L, Z), path(Z, Y).",
            g.symbols(),
        )
        .unwrap()
    }

    #[test]
    fn transitive_closure_on_chain() {
        let g = chain(5);
        let edb = Walked::new(&g);
        let eval = evaluate(&tc_program(&g), &edb).unwrap();
        // n*(n+1)/2 pairs for a 5-edge chain: 15.
        assert_eq!(eval.count("path"), 15);
    }

    #[test]
    fn naive_and_semi_naive_agree() {
        let g = parse_graph("{a: @x = {f: {g: @x}}, b: {f: {h: 1}}}").unwrap();
        let edb = Walked::new(&g);
        let p = tc_program(&g);
        let semi = evaluate(&p, &edb).unwrap();
        let naive = evaluate_naive(&p, &edb).unwrap();
        assert!(semi.tuples("path").eq(naive.tuples("path")));
        assert!(semi.count("path") > 0);
    }

    #[test]
    fn semi_naive_does_less_work_on_long_chains() {
        let g = chain(30);
        let edb = Walked::new(&g);
        let p = tc_program(&g);
        let semi = evaluate(&p, &edb).unwrap();
        let naive = evaluate_naive(&p, &edb).unwrap();
        assert_eq!(semi.count("path"), naive.count("path"));
        // Work measure: naive re-derives everything each round.
        // Count derived-tuple work via rule_evaluations * average relation
        // size is implicit; here we just require semi-naive to not exceed
        // naive in iterations and to have produced the same result.
        assert!(semi.iterations <= naive.iterations + 1);
    }

    #[test]
    fn cycle_reachability_terminates() {
        let g = parse_graph("@x = {next: @x}").unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&tc_program(&g), &edb).unwrap();
        assert_eq!(eval.count("path"), 1); // (root, root)
    }

    #[test]
    fn label_constants_filter_edges() {
        let g = parse_graph("{a: {x: 1}, b: {x: 2}}").unwrap();
        let p = parse_program("hit(Y) :- edge(_X, a, Y).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("hit"), 1);
    }

    #[test]
    fn stratified_negation() {
        // Nodes not reachable from the root via `a` edges.
        let g = parse_graph("{a: {a: {}}, b: {c: {}}}").unwrap();
        let p = parse_program(
            "reach(X) :- root(X).\n\
             reach(Y) :- reach(X), edge(X, a, Y).\n\
             unreached(X) :- node(X), not reach(X).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        // Reachable via a-edges: root, its a-child, grandchild = 3 nodes.
        assert_eq!(eval.count("reach"), 3);
        assert_eq!(
            eval.count("unreached") + eval.count("reach"),
            edb.nodes().len()
        );
        assert!(eval.count("unreached") > 0);
    }

    #[test]
    fn non_stratifiable_rejected() {
        let g = Graph::new();
        let p = parse_program(
            "p(X) :- node(X), not q(X).\n\
             q(X) :- node(X), not p(X).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogNotStratifiable));
    }

    #[test]
    fn unsafe_program_rejected() {
        let g = Graph::new();
        let p = parse_program("q(X, Y) :- node(X).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogUnsafe));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let g = chain(1);
        let p = parse_program("q(X) :- edge(X, _Y).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogArityMismatch));
    }

    #[test]
    fn defining_an_edb_predicate_is_rejected() {
        let g = chain(1);
        let p = parse_program("edge(X, a, Y) :- edge(Y, a, X).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogUnsafe));
    }

    #[test]
    fn labels_and_nodes_never_unify() {
        // Integer labels 0 and 1 beside node ids 0 and 1: equal as raw
        // numbers, distinct as data. A constant no edge carries matches
        // nothing, but still travels through derived relations.
        let g = parse_graph("{0: {1: {}}}").unwrap();
        let p = parse_program(
            "confused(X) :- edge(_A, X, _B), edge(X, _L, _C).\n\
             confused(X) :- node(X), edge(_A, X, _B).\n\
             absent(X) :- edge(X, 'Nope', _Y).\n\
             seed('Nope').\nseed(0).\n\
             carried(L) :- seed(L), not absent(L).\n\
             used(L) :- seed(L), edge(_X, L, _Y).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("confused"), 0);
        assert_eq!(eval.count("absent"), 0);
        assert_eq!(eval.count("carried"), 2);
        let used: Vec<Vec<Datum>> = eval.tuples("used").collect();
        assert_eq!(used, vec![vec![Datum::Label(Label::int(0))]]);
    }

    #[test]
    fn access_paths_follow_bound_arguments() {
        let g = Graph::new();
        let p = parse_program(
            "reach(X) :- root(X).\n\
             reach(Y) :- reach(X), edge(X, a, Y).\n\
             far(X) :- node(X), not reach(X), edge(_S, _L, X), gone(X).",
            g.symbols(),
        )
        .unwrap();
        let paths = access_paths(&p).unwrap();
        assert_eq!(paths[0], ["root"]);
        assert_eq!(paths[1], ["idb-delta", "SPO(s,p)"]);
        assert_eq!(paths[2], ["node(scan)", "idb(0)", "OSP(o)", "empty"]);
        let refused = parse_program("q(X, Y) :- node(X).", g.symbols()).unwrap();
        assert!(access_paths(&refused).is_err());
    }

    #[test]
    fn facts_in_program_text() {
        let g = Graph::new();
        let p = parse_program(
            "likes(\"ann\", \"bob\").\nlikes(\"bob\", \"cy\").\n\
             knows(X, Y) :- likes(X, Y).\n\
             knows(X, Y) :- likes(X, Z), knows(Z, Y).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("knows"), 3);
    }

    #[test]
    fn same_generation_query() {
        // A small binary tree; same-generation is the classic recursive
        // non-transitive-closure query.
        let g = parse_graph("{l: {l: {}, r: {}}, r: {l: {}, r: {}}}").unwrap();
        let p = parse_program(
            "sg(X, X) :- node(X).\n\
             sg(X, Y) :- edge(P, _L1, X), edge(Q, _L2, Y), sg(P, Q).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        // Generations: 1 root, 2 mid, 4 leaves → 1 + 4 + 16 = 21 pairs.
        assert_eq!(eval.count("sg"), 21);
    }

    #[test]
    fn idb_predicates_present_even_when_empty() {
        let g = Graph::new();
        let p = parse_program("q(X) :- edge(X, _L, _Y).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("q"), 0);
        assert!(eval.predicates().any(|p| p == "q"));
    }
}

#[cfg(test)]
mod builtin_tests {
    use super::tests::refused;
    use super::*;
    use crate::datalog::ast::parse_program;
    use crate::datalog::edb::walked::Walked;
    use ssd_graph::literal::parse_graph;

    #[test]
    fn lt_filters_values() {
        let g = parse_graph("{m: {Year: 1942}, m: {Year: 1972}, m: {Year: 1977}}").unwrap();
        let p = parse_program(
            "old(M) :- edge(_R, m, M), edge(M, 'Year', Y), edge(Y, V, _L), lt(V, 1970).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("old"), 1);
    }

    #[test]
    fn neq_works_on_nodes() {
        // Pairs of distinct movie nodes.
        let g = parse_graph("{m: {}, m: {}}").unwrap();
        let p = parse_program(
            "pair(X, Y) :- edge(_R, m, X), edge(_S, m, Y), neq(X, Y).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("pair"), 2); // (a,b) and (b,a)
    }

    #[test]
    fn ge_with_mixed_numeric_kinds() {
        let g = parse_graph("{x: 2, y: 2.5}").unwrap();
        let p = parse_program("big(V) :- edge(_N, V, _L), ge(V, 2.5).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("big"), 1);
    }

    #[test]
    fn unbound_builtin_var_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("q(X) :- node(X), lt(Y, 5).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogUnsafe));
    }

    #[test]
    fn builtin_head_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("lt(X, X) :- node(X).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogUnsafe));
    }

    #[test]
    fn builtin_wrong_arity_rejected() {
        let g = parse_graph("{}").unwrap();
        let p = parse_program("q(X) :- node(X), lt(X).", g.symbols()).unwrap();
        let edb = Walked::new(&g);
        assert!(refused(evaluate(&p, &edb), Code::DatalogUnsafe));
    }

    #[test]
    fn negated_builtin() {
        let g = parse_graph("{x: 1, y: 3}").unwrap();
        // ge(V, 0) first restricts V to numeric labels (symbols never
        // satisfy ordered builtins), then the negated gt filters.
        let p = parse_program(
            "small(V) :- edge(_N, V, _L), ge(V, 0), not gt(V, 2).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("small"), 1);
    }

    #[test]
    fn recursive_rule_with_builtin_bound() {
        // Bounded reachability: count edges with int labels below a cap —
        // builtins inside recursion still converge.
        let g = parse_graph("@x = {1: {2: {3: @x}}}").unwrap();
        let p = parse_program(
            "r(X) :- root(X).\n\
             r(Y) :- r(X), edge(X, L, Y), lt(L, 3).",
            g.symbols(),
        )
        .unwrap();
        let edb = Walked::new(&g);
        let eval = evaluate(&p, &edb).unwrap();
        assert_eq!(eval.count("r"), 3); // root, after 1, after 2 (not past 3)
    }
}
