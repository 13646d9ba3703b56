//! `ssd check` for graph-datalog programs.
//!
//! The errors are [`check_program`]'s, the one implementation of the
//! rules evaluation enforces (SSD020 safety, SSD021 arity, SSD022
//! stratification), so `ssd check` reports an error exactly when the
//! evaluator, `ssd datalog` and a server's admission refuse the program.
//! This pass adds the lints evaluation cannot justify refusing over, all
//! warnings: undefined body predicates (SSD023), rules unreachable from
//! the result predicate (SSD024), wildcard heads (SSD025), and singleton
//! variables (SSD026).

use ssd_diag::{Code, Diagnostic, Span};
use ssd_triples::datalog::{check_program, is_builtin, Atom, Program, ProgramSpans};
use std::collections::{HashMap, HashSet};

pub use ssd_triples::datalog::EDB_PREDICATES;

/// Run [`check_program`] and every datalog lint. `result` names the
/// program's result predicate for reachability (SSD024); `None` uses the
/// head of the last rule, the convention the CLI's `datalog` command
/// evaluates and prints.
pub fn check_datalog(
    program: &Program,
    spans: Option<&ProgramSpans>,
    result: Option<&str>,
) -> Vec<Diagnostic> {
    let mut diags = check_program(program, spans);
    let head = |i: usize| spans.and_then(|s| s.head(i));
    let body = |i: usize, j: usize| spans.and_then(|s| s.body(i, j));

    check_defined(program, &body, &mut diags);
    check_reachable(program, result, &head, &mut diags);
    check_head_wildcards(program, &head, &mut diags);
    check_singletons(program, &head, &body, &mut diags);
    diags
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
            let edb = EDB_PREDICATES.iter().any(|&(q, _)| q == p);
            if !is_builtin(p) && !edb && !idb.contains(p) {
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
/// binding for a variable the author declared uninteresting. A warning:
/// the rule is safe and evaluation runs it.
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
    fn head_wildcard_is_a_warning() {
        let d = diags_for("q(_) :- node(_).");
        assert_eq!(codes(&d), vec!["SSD025"]);
        assert!(!d.has_errors(), "{d:?}");
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
