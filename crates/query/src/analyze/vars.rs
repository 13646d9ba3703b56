//! Variable analysis for select-from-where queries: the one static check
//! of the select language.
//!
//! Its errors (SSD001–SSD003, SSD005) are what every entry point refuses:
//! [`parse_query`](crate::lang::parse_query) returns the first as a
//! [`QueryParseError`](crate::lang::QueryParseError) at its span, a
//! server's admission does the same for `QUERY` and `RPE` jobs, and
//! every select engine's gate refuses a query with any. `ssd check`
//! reports all of them with source spans, plus unused-binding warnings
//! (SSD004) that refuse nothing.

use crate::lang::{Cond, Construct, Expr, LabelExpr, OccSite, QuerySpans, SelectQuery, Source};
use ssd_diag::{Code, Diagnostic, Span};
use std::collections::HashSet;

/// Run the variable checks. `spans` (from
/// [`parse_query_spanned`](crate::lang::parse_query_spanned)) is optional:
/// programmatically built queries get span-less diagnostics.
pub fn check_query_vars(query: &SelectQuery, spans: Option<&QuerySpans>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let binder = |i: usize| spans.and_then(|s| s.binder(i));
    let source = |i: usize| spans.and_then(|s| s.source(i));
    let path = |i: usize| spans.and_then(|s| s.path(i));
    let occ = |name: &str, site: OccSite| spans.and_then(|s| s.occurrence(name, Some(site)));

    // Everything any binding binds, for the SSD001/SSD002 distinction.
    let all_bound: HashSet<&str> = query
        .bindings
        .iter()
        .flat_map(|b| {
            b.path
                .label_vars()
                .into_iter()
                .chain(std::iter::once(b.var.as_str()))
        })
        .collect();

    let mut bound: HashSet<&str> = HashSet::new();
    for (i, b) in query.bindings.iter().enumerate() {
        if let Source::Var(v) = &b.source {
            if !bound.contains(v.as_str()) {
                if all_bound.contains(v.as_str()) {
                    diags.push(
                        Diagnostic::new(
                            Code::UseBeforeBind,
                            format!(
                                "source variable `{v}` of binding {i} is \
                                 not bound by an earlier binding"
                            ),
                        )
                        .with_span_opt(source(i))
                        .with_suggestion(format!(
                            "move the binding that introduces `{v}` before this one"
                        )),
                    );
                } else {
                    diags.push(
                        Diagnostic::new(
                            Code::UnboundVariable,
                            format!("unbound variable `{v}` as source of binding {i}"),
                        )
                        .with_span_opt(source(i))
                        .with_suggestion(format!(
                            "bind `{v}` in a from-clause, e.g. `db.path {v}`"
                        )),
                    );
                }
            }
        }
        if let Err(m) = b.path.check_label_vars() {
            diags.push(
                Diagnostic::new(Code::LabelVarMisuse, m)
                    .with_span_opt(path(i))
                    .with_suggestion(
                        "a label variable may only appear as the final step of a binding path",
                    ),
            );
        }
        for lv in b.path.label_vars() {
            if !bound.insert(lv) {
                diags.push(
                    Diagnostic::new(
                        Code::DuplicateBinding,
                        format!("label variable `{lv}` bound twice"),
                    )
                    .with_span_opt(label_var_span(spans, i, lv))
                    .with_suggestion("rename one of the occurrences"),
                );
            }
        }
        if !bound.insert(b.var.as_str()) {
            diags.push(
                Diagnostic::new(
                    Code::DuplicateBinding,
                    format!("variable `{}` bound twice", b.var),
                )
                .with_span_opt(binder(i))
                .with_suggestion("rename one of the bindings; shadowing is not allowed"),
            );
        }
    }

    check_construct(&query.construct, &bound, &occ, &mut diags);
    if let Some(c) = &query.condition {
        check_cond(c, &bound, &occ, &mut diags);
    }

    // Unused bindings (warning): a bound variable never read by the select
    // head, the where clause, or a later binding's source.
    let mut used: HashSet<&str> = HashSet::new();
    collect_construct_uses(&query.construct, &mut used);
    if let Some(c) = &query.condition {
        collect_cond_uses(c, &mut used);
    }
    for b in &query.bindings {
        if let Source::Var(v) = &b.source {
            used.insert(v.as_str());
        }
    }
    for (i, b) in query.bindings.iter().enumerate() {
        if !used.contains(b.var.as_str()) && !b.var.starts_with('_') {
            diags.push(
                Diagnostic::new(
                    Code::UnusedBinding,
                    format!("binding variable `{}` is never used", b.var),
                )
                .with_span_opt(binder(i))
                .with_suggestion(format!(
                    "prefix it as `_{}` to keep the binding for its filtering \
                     effect, or remove it",
                    b.var
                )),
            );
        }
        for lv in b.path.label_vars() {
            if !used.contains(lv) && !lv.starts_with('_') {
                diags.push(
                    Diagnostic::new(
                        Code::UnusedBinding,
                        format!("label variable `^{lv}` is never used"),
                    )
                    .with_span_opt(label_var_span(spans, i, lv))
                    .with_suggestion(format!("prefix it as `^_{lv}`, or use `%` instead")),
                );
            }
        }
    }

    diags
}

fn label_var_span(spans: Option<&QuerySpans>, i: usize, name: &str) -> Option<Span> {
    spans
        .and_then(|s| s.bindings.get(i))
        .and_then(|b| b.label_vars.iter().find(|(n, _)| n == name))
        .map(|(_, s)| *s)
}

fn check_construct(
    c: &Construct,
    bound: &HashSet<&str>,
    occ: &impl Fn(&str, OccSite) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    match c {
        Construct::Node(entries) => {
            for (l, sub) in entries {
                if let LabelExpr::LabelVar(v) = l {
                    if !bound.contains(v.as_str()) {
                        diags.push(
                            Diagnostic::new(
                                Code::UnboundVariable,
                                format!("unbound label variable `^{v}` in construct"),
                            )
                            .with_span_opt(occ(v, OccSite::Construct))
                            .with_suggestion(format!(
                                "bind `^{v}` as the final step of a from-clause path"
                            )),
                        );
                    }
                }
                check_construct(sub, bound, occ, diags);
            }
        }
        Construct::Var(v) => {
            if !bound.contains(v.as_str()) {
                diags.push(
                    Diagnostic::new(
                        Code::UnboundVariable,
                        format!("unbound variable `{v}` in construct"),
                    )
                    .with_span_opt(occ(v, OccSite::Construct))
                    .with_suggestion(format!("bind `{v}` in a from-clause, e.g. `db.path {v}`")),
                );
            }
        }
        Construct::Atom(_) => {}
    }
}

fn check_cond(
    c: &Cond,
    bound: &HashSet<&str>,
    occ: &impl Fn(&str, OccSite) -> Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    let check_expr = |e: &Expr, diags: &mut Vec<Diagnostic>| {
        if let Expr::Var(v) = e {
            if !bound.contains(v.as_str()) {
                diags.push(
                    Diagnostic::new(
                        Code::UnboundVariable,
                        format!("unbound variable `{v}` in condition"),
                    )
                    .with_span_opt(occ(v, OccSite::Cond))
                    .with_suggestion(format!("bind `{v}` in a from-clause, e.g. `db.path {v}`")),
                );
            }
        }
    };
    match c {
        Cond::Cmp(a, _, b) => {
            check_expr(a, diags);
            check_expr(b, diags);
        }
        Cond::Like(e, _) | Cond::TypeIs(e, _) => check_expr(e, diags),
        Cond::Exists(v, path) => {
            if !bound.contains(v.as_str()) {
                diags.push(
                    Diagnostic::new(
                        Code::UnboundVariable,
                        format!("unbound variable `{v}` in exists"),
                    )
                    .with_span_opt(occ(v, OccSite::Cond))
                    .with_suggestion(format!("bind `{v}` in a from-clause, e.g. `db.path {v}`")),
                );
            }
            for lv in path.label_vars() {
                diags.push(
                    Diagnostic::new(
                        Code::LabelVarMisuse,
                        format!("label variables not allowed inside exists (`^{lv}`)"),
                    )
                    .with_span_opt(occ(lv, OccSite::Cond))
                    .with_suggestion("use `%` to match any label without binding it"),
                );
            }
        }
        Cond::Not(c) => check_cond(c, bound, occ, diags),
        Cond::And(a, b) | Cond::Or(a, b) => {
            check_cond(a, bound, occ, diags);
            check_cond(b, bound, occ, diags);
        }
    }
}

fn collect_construct_uses<'a>(c: &'a Construct, used: &mut HashSet<&'a str>) {
    match c {
        Construct::Node(entries) => {
            for (l, sub) in entries {
                if let LabelExpr::LabelVar(v) = l {
                    used.insert(v.as_str());
                }
                collect_construct_uses(sub, used);
            }
        }
        Construct::Var(v) => {
            used.insert(v.as_str());
        }
        Construct::Atom(_) => {}
    }
}

fn collect_cond_uses<'a>(c: &'a Cond, used: &mut HashSet<&'a str>) {
    for v in c.vars() {
        used.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_query_spanned;
    use ssd_diag::DiagnosticSink;

    fn diags_for(src: &str) -> Vec<Diagnostic> {
        let (q, spans) = parse_query_spanned(src).unwrap();
        check_query_vars(&q, Some(&spans))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let d = diags_for("select {t: T} from db.Entry.Movie M, M.Title T where exists M.Cast");
        assert!(d.is_empty(), "{d:?}");
        // A label variable bound in final position may label a construct.
        let d = diags_for("select {^L: X} from db.Movie.^L X");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unbound_variable_in_construct() {
        let src = "select X from db.Entry E";
        let d = diags_for(src);
        assert_eq!(codes(&d), vec!["SSD001", "SSD004"]);
        let span = d[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "X");
    }

    #[test]
    fn use_before_bind_vs_never_bound() {
        // T is bound later: SSD002. Z is never bound: SSD001.
        let d = diags_for("select M from T.a X, db.Entry M, M.b T, Z.c W");
        let c = codes(&d);
        assert!(c.contains(&"SSD002"), "{d:?}");
        assert!(c.contains(&"SSD001"), "{d:?}");
    }

    #[test]
    fn duplicate_binding_flagged() {
        let src = "select M from db.Entry M, db.Movie M";
        let d = diags_for(src);
        assert!(codes(&d).contains(&"SSD003"), "{d:?}");
        let dup = d.iter().find(|x| x.code == Code::DuplicateBinding).unwrap();
        // Span points at the *second* M binder.
        assert!(dup.span.unwrap().start > src.find("Entry M").unwrap());
    }

    #[test]
    fn duplicate_label_var_flagged() {
        let d = diags_for("select L from db.^L X, X.^L Y");
        assert!(codes(&d).contains(&"SSD003"), "{d:?}");
    }

    #[test]
    fn unused_binding_warns_and_underscore_silences() {
        let d = diags_for("select M from db.Entry M, M.Title T");
        assert_eq!(codes(&d), vec!["SSD004"]);
        assert!(!d.has_errors());
        let d2 = diags_for("select M from db.Entry M, M.Title _T");
        assert!(d2.is_empty(), "{d2:?}");
    }

    #[test]
    fn label_var_misuse_flagged() {
        let d = diags_for("select X from db.(^L)* X");
        assert!(codes(&d).contains(&"SSD005"), "{d:?}");
    }

    #[test]
    fn label_var_in_exists_flagged() {
        let d = diags_for("select M from db.Entry M where exists M.^L");
        assert!(codes(&d).contains(&"SSD005"), "{d:?}");
    }

    #[test]
    fn unbound_in_condition_and_exists() {
        let d = diags_for("select M from db.Entry M where Z = 1 or exists W.a");
        let unbound: Vec<_> = d
            .iter()
            .filter(|x| x.code == Code::UnboundVariable)
            .collect();
        assert_eq!(unbound.len(), 2, "{d:?}");
        assert!(unbound.iter().all(|x| x.span.is_some()));
    }
}
