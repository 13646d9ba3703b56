//! Lints for graph-datalog programs.
//!
//! The evaluator ([`ssd_triples::datalog`]) already refuses unsafe,
//! non-stratifiable, or arity-inconsistent programs — but it stops at the
//! first problem and reports a bare string. This pass re-runs those checks
//! as [`Diagnostic`]s with source spans, reports *all* findings, and adds
//! the lints evaluation cannot justify refusing over: undefined body
//! predicates (SSD023), rules unreachable from the result predicate
//! (SSD024), wildcard heads (SSD025), and singleton variables (SSD026).

use ssd_diag::{Code, Diagnostic, Span};
use ssd_triples::datalog::{is_builtin, stratify, Atom, Program, ProgramSpans};
use std::collections::{HashMap, HashSet};

pub use ssd_triples::datalog::EDB_PREDICATES;

fn edb_arity(pred: &str) -> Option<usize> {
    EDB_PREDICATES
        .iter()
        .find(|(p, _)| *p == pred)
        .map(|(_, a)| *a)
}

/// Run every datalog lint. `result` names the program's result predicate
/// for reachability (SSD024); `None` uses the head of the last rule, the
/// convention the CLI's `datalog` command evaluates and prints.
pub fn check_datalog(
    program: &Program,
    spans: Option<&ProgramSpans>,
    result: Option<&str>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let head = |i: usize| spans.and_then(|s| s.head(i));
    let body = |i: usize, j: usize| spans.and_then(|s| s.body(i, j));

    check_safety(program, &head, &body, &mut diags);
    check_arities(program, &head, &body, &mut diags);
    check_stratification(program, &body, &mut diags);
    check_defined(program, &body, &mut diags);
    check_reachable(program, result, &head, &mut diags);
    check_head_wildcards(program, &head, &mut diags);
    check_singletons(program, &head, &body, &mut diags);
    diags
}

/// Range restriction (SSD020), mirroring `Program::check_safety` but
/// per-violation and with spans.
fn check_safety(
    program: &Program,
    head: &impl Fn(usize) -> Option<Span>,
    body: &impl Fn(usize, usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, rule) in program.rules.iter().enumerate() {
        let edb = edb_arity(rule.head.pred.as_str()).is_some();
        if edb || is_builtin(rule.head.pred.as_str()) {
            diags.push(
                Diagnostic::new(
                    Code::DatalogUnsafe,
                    format!(
                        "rule {i}: cannot define {} predicate `{}`",
                        if edb { "EDB" } else { "builtin" },
                        rule.head.pred
                    ),
                )
                .with_span_opt(head(i)),
            );
        }
        let positive_vars: HashSet<&str> = rule
            .body
            .iter()
            .filter(|l| l.positive && !is_builtin(l.atom.pred.as_str()))
            .flat_map(|l| l.atom.vars())
            .collect();
        for v in rule.head.vars() {
            if !positive_vars.contains(v) {
                diags.push(
                    Diagnostic::new(
                        Code::DatalogUnsafe,
                        format!(
                            "rule {i}: head variable `{v}` not bound by a positive body literal"
                        ),
                    )
                    .with_span_opt(head(i))
                    .with_suggestion(format!("add a positive body literal mentioning `{v}`")),
                );
            }
        }
        for (j, lit) in rule.body.iter().enumerate() {
            let builtin = is_builtin(lit.atom.pred.as_str());
            if !builtin && lit.positive {
                continue;
            }
            if builtin && lit.atom.terms.len() != 2 {
                diags.push(
                    Diagnostic::new(
                        Code::DatalogUnsafe,
                        format!(
                            "rule {i}: builtin `{}` takes exactly two arguments",
                            lit.atom.pred
                        ),
                    )
                    .with_span_opt(body(i, j)),
                );
            }
            for v in lit.atom.vars() {
                if !positive_vars.contains(v) {
                    diags.push(
                        Diagnostic::new(
                            Code::DatalogUnsafe,
                            format!(
                                "rule {i}: variable `{v}` in {} literal not bound positively",
                                if lit.positive { "builtin" } else { "negated" }
                            ),
                        )
                        .with_span_opt(body(i, j)),
                    );
                }
            }
        }
    }
}

/// Arity consistency (SSD021), seeded with the EDB arities and the
/// two-argument builtins so `edge(X, Y)` is caught even when used
/// consistently — it would silently match nothing at evaluation time.
fn check_arities(
    program: &Program,
    head: &impl Fn(usize) -> Option<Span>,
    body: &impl Fn(usize, usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut arity: HashMap<String, usize> = EDB_PREDICATES
        .iter()
        .map(|&(p, a)| (p.to_owned(), a))
        .collect();
    let atoms = program.rules.iter().enumerate().flat_map(|(i, rule)| {
        std::iter::once((&rule.head, head(i))).chain(
            rule.body
                .iter()
                .enumerate()
                .map(move |(j, lit)| (&lit.atom, body(i, j))),
        )
    });
    for (atom, span) in atoms {
        if is_builtin(atom.pred.as_str()) {
            continue; // builtin arity is a safety (SSD020) concern
        }
        match arity.get(atom.pred.as_str()) {
            Some(&a) if a != atom.terms.len() => diags.push(
                Diagnostic::new(
                    Code::DatalogArityMismatch,
                    format!(
                        "predicate `{}` used with arity {}, expected {a}",
                        atom.pred,
                        atom.terms.len()
                    ),
                )
                .with_span_opt(span),
            ),
            Some(_) => {}
            None => {
                arity.insert(atom.pred.clone(), atom.terms.len());
            }
        }
    }
}

/// Stratifiability (SSD022): delegate to the evaluator's own
/// [`stratify`] so the analyzer and the engine can never disagree, then
/// point the span at the first negated IDB literal (the edge that closes
/// the negative cycle, or at least a member of it).
fn check_stratification(
    program: &Program,
    body: &impl Fn(usize, usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    if let Err(e) = stratify(program) {
        let idb: HashSet<&str> = program.idb_predicates().into_iter().collect();
        let span = program.rules.iter().enumerate().find_map(|(i, rule)| {
            rule.body.iter().enumerate().find_map(|(j, lit)| {
                (!lit.positive && idb.contains(lit.atom.pred.as_str()))
                    .then(|| body(i, j))
                    .flatten()
            })
        });
        diags.push(
            Diagnostic::new(Code::DatalogNotStratifiable, e.to_string())
                .with_span_opt(span)
                .with_suggestion(
                    "break the cycle of recursion through negation; every negated \
                     predicate must be fully computable in a lower stratum",
                ),
        );
    }
}

/// Undefined body predicates (SSD023): not builtin, not EDB, not the head
/// of any rule. Such a literal can never match — the rule is dead.
fn check_defined(
    program: &Program,
    body: &impl Fn(usize, usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    let idb: HashSet<&str> = program.idb_predicates().into_iter().collect();
    for (i, rule) in program.rules.iter().enumerate() {
        for (j, lit) in rule.body.iter().enumerate() {
            let p = lit.atom.pred.as_str();
            if !is_builtin(p) && edb_arity(p).is_none() && !idb.contains(p) {
                diags.push(
                    Diagnostic::new(
                        Code::DatalogUndefinedPredicate,
                        format!("predicate `{p}` is defined by no rule and is not an EDB relation"),
                    )
                    .with_span_opt(body(i, j))
                    .with_suggestion(
                        "the EDB relations are edge(Src, Label, Dst), node(N), and root(R)",
                    ),
                );
            }
        }
    }
}

/// Rules whose head predicate the result predicate never (transitively)
/// depends on (SSD024). The result predicate defaults to the head of the
/// last rule — the convention the CLI evaluates.
fn check_reachable(
    program: &Program,
    result: Option<&str>,
    head: &impl Fn(usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(result) = result
        .map(str::to_owned)
        .or_else(|| program.rules.last().map(|r| r.head.pred.clone()))
    else {
        return;
    };
    // Dependency closure: result pred → body preds of its rules → ...
    let mut reachable: HashSet<&str> = HashSet::new();
    let mut stack = vec![result.as_str()];
    while let Some(p) = stack.pop() {
        if !reachable.insert(p) {
            continue;
        }
        for rule in program.rules.iter().filter(|r| r.head.pred == p) {
            for lit in &rule.body {
                stack.push(lit.atom.pred.as_str());
            }
        }
    }
    for (i, rule) in program.rules.iter().enumerate() {
        let p = rule.head.pred.as_str();
        if !reachable.contains(p) {
            diags.push(
                Diagnostic::new(
                    Code::DatalogUnreachableRule,
                    format!(
                        "rule {i} defines `{p}`, which the result predicate `{result}` \
                         never depends on"
                    ),
                )
                .with_span_opt(head(i))
                .with_suggestion("remove the rule, or reference it from the result"),
            );
        }
    }
}

/// Wildcard-named head variables (SSD025): deriving `p(_)` stores a
/// binding for a variable the author declared uninteresting.
fn check_head_wildcards(
    program: &Program,
    head: &impl Fn(usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, rule) in program.rules.iter().enumerate() {
        for v in rule.head.vars() {
            if v == "_" {
                diags.push(
                    Diagnostic::new(
                        Code::DatalogHeadWildcard,
                        format!("rule {i}: wildcard `_` in rule head"),
                    )
                    .with_span_opt(head(i))
                    .with_suggestion("name the variable; head positions are the derived tuple"),
                );
            }
        }
    }
}

/// Variables occurring exactly once in a rule (SSD026) — in this syntax
/// `_`-prefixed names opt out, everything else is probably a typo.
fn check_singletons(
    program: &Program,
    head: &impl Fn(usize) -> Option<Span>,
    body: &impl Fn(usize, usize) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, rule) in program.rules.iter().enumerate() {
        let mut count: HashMap<&str, usize> = HashMap::new();
        let atoms: Vec<&Atom> = std::iter::once(&rule.head)
            .chain(rule.body.iter().map(|l| &l.atom))
            .collect();
        for atom in &atoms {
            for v in atom.vars() {
                *count.entry(v).or_insert(0) += 1;
            }
        }
        for (v, n) in count {
            if n != 1 || v.starts_with('_') {
                continue;
            }
            // Span: the atom the lone occurrence sits in.
            let span = atoms
                .iter()
                .position(|a| a.vars().any(|x| x == v))
                .and_then(|k| if k == 0 { head(i) } else { body(i, k - 1) });
            diags.push(
                Diagnostic::new(
                    Code::DatalogSingletonVariable,
                    format!("rule {i}: variable `{v}` occurs only once"),
                )
                .with_span_opt(span)
                .with_suggestion(format!(
                    "rename it `_{v}` if the value is intentionally unused"
                )),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_diag::DiagnosticSink;
    use ssd_graph::new_symbols;
    use ssd_triples::datalog::parse_program_spanned;

    fn diags_for(src: &str) -> Vec<Diagnostic> {
        let syms = new_symbols();
        let (p, spans) = parse_program_spanned(src, &syms).unwrap();
        check_datalog(&p, Some(&spans), None)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let d = diags_for(
            "path(X, Y) :- edge(X, _L, Y).\n\
             path(X, Y) :- edge(X, _L, Z), path(Z, Y).",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unsafe_head_variable() {
        let src = "q(X, Y) :- node(X).";
        let d = diags_for(src);
        assert!(codes(&d).contains(&"SSD020"), "{d:?}");
        let span = d[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "q(X, Y)");
    }

    #[test]
    fn arity_mismatch_against_edb() {
        // Consistent use of edge/2 — the evaluator would accept and derive
        // nothing; the analyzer pins it to the real EDB arity.
        let d = diags_for("q(X) :- edge(X, Y), node(Y).");
        assert!(codes(&d).contains(&"SSD021"), "{d:?}");
    }

    #[test]
    fn arity_mismatch_within_program() {
        let d = diags_for("p(X) :- node(X).\nq(X) :- p(X, X), node(X).");
        assert!(codes(&d).contains(&"SSD021"), "{d:?}");
    }

    #[test]
    fn not_stratifiable_flagged_with_span() {
        let src = "win(X) :- edge(X, _L, Y), not win(Y).";
        let d = diags_for(src);
        let strat = d
            .iter()
            .find(|x| x.code == Code::DatalogNotStratifiable)
            .unwrap();
        let span = strat.span.unwrap();
        assert_eq!(&src[span.start..span.end], "win(Y)");
    }

    #[test]
    fn undefined_predicate_warns() {
        let d = diags_for("q(X) :- nodes(X).");
        let c = codes(&d);
        assert!(c.contains(&"SSD023"), "{d:?}");
        assert!(!d.has_errors(), "undefined predicate is a warning: {d:?}");
    }

    #[test]
    fn unreachable_rule_warns() {
        let src = "orphan(X) :- node(X).\nresult(X) :- root(X).";
        let d = diags_for(src);
        let unreach = d
            .iter()
            .find(|x| x.code == Code::DatalogUnreachableRule)
            .expect("orphan should be unreachable");
        let span = unreach.span.unwrap();
        assert_eq!(&src[span.start..span.end], "orphan(X)");
        // Explicit result predicate overrides the last-rule convention.
        let syms = new_symbols();
        let (p, spans) = parse_program_spanned(src, &syms).unwrap();
        let d2 = check_datalog(&p, Some(&spans), Some("orphan"));
        assert!(d2
            .iter()
            .any(|x| x.code == Code::DatalogUnreachableRule && x.message.contains("result")));
    }

    #[test]
    fn head_wildcard_is_error() {
        let d = diags_for("q(_) :- node(_).");
        assert!(codes(&d).contains(&"SSD025"), "{d:?}");
    }

    #[test]
    fn singleton_variable_warns_and_underscore_opts_out() {
        let src = "q(X) :- edge(X, L, Y), node(Y).";
        let d = diags_for(src);
        let single = d
            .iter()
            .find(|x| x.code == Code::DatalogSingletonVariable)
            .unwrap();
        assert!(single.message.contains("`L`"), "{d:?}");
        let span = single.span.unwrap();
        assert_eq!(&src[span.start..span.end], "edge(X, L, Y)");
        let d2 = diags_for("q(X) :- edge(X, _L, Y), node(Y).");
        assert!(
            !d2.iter().any(|x| x.code == Code::DatalogSingletonVariable),
            "{d2:?}"
        );
    }

    #[test]
    fn facts_reachable_through_rules() {
        // Facts feeding the result are not unreachable.
        let d = diags_for(
            "likes(\"ann\", \"bob\").\n\
             knows(X, Y) :- likes(X, Y).",
        );
        assert!(
            !d.iter().any(|x| x.code == Code::DatalogUnreachableRule),
            "{d:?}"
        );
    }
}
