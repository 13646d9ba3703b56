//! # ssd-lint — workspace invariant checker
//!
//! Static analysis over the workspace's *own* Rust sources, applying
//! the same "reject statically what would fail dynamically" discipline
//! the query analyzer applies to user programs. Zero dependencies
//! beyond `ssd-diag` (whose renderer it reuses), built on a token-level
//! lexer rather than `syn` — consistent with the hermetic offline
//! build.
//!
//! Ten lints across two bands. The SSD90x band is intraprocedural:
//!
//! | code   | lint            | invariant |
//! |--------|-----------------|-----------|
//! | SSD901 | registry-sync   | diag registry ⇔ docs tables ⇔ tests |
//! | SSD902 | guard-threading | evaluator entry points have governed variants; no Guard bypass |
//! | SSD903 | panic-sites     | panic sites within per-crate budgets |
//! | SSD904 | lock-order      | `.lock()` nesting follows serve's LOCK_ORDER; no blocking while held |
//! | SSD905 | span-discipline | tracer spans are bound and closed |
//!
//! The SSD91x band is interprocedural, built on a workspace call graph
//! ([`callgraph`]) whose per-function effect summaries (locks acquired,
//! blocking primitives, WAL appends/fsyncs, fault points) are
//! propagated to a fixpoint:
//!
//! | code   | lint               | invariant |
//! |--------|--------------------|-----------|
//! | SSD910 | interproc-locks    | no call chain re-enters the hierarchy at an outer rank |
//! | SSD911 | blocking-under-lock| no blocking primitive reachable while a lock is held |
//! | SSD912 | atomic-ordering    | `Ordering::Relaxed` only with a declared reason |
//! | SSD913 | publish-before-log | store generation swap dominated by WAL append + fsync |
//! | SSD914 | fault-coverage     | raw store I/O reachable from a `wal.*` fault point |
//!
//! Deliberate exceptions are annotated in the source as
//! `// lint: allow(panic|guard|lock|span|atomic|durability) — <reason>`;
//! the reason is mandatory (a reasonless annotation is inert and itself
//! reported). See `docs/LINTS.md`.

mod callgraph;
mod concurrency;
mod durability;
mod guards;
pub mod lexer;
mod locks;
mod panics;
mod registry;
mod scan;
mod spans;

use std::collections::BTreeMap;
use std::path::Path;

use ssd_diag::{Code, Diagnostic};

pub use scan::{functions, FnInfo, SourceFile, Workspace};

/// One lint finding: a diagnostic anchored to a workspace file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path the span indexes.
    pub file: String,
    pub diag: Diagnostic,
}

impl Finding {
    pub fn new(file: impl Into<String>, diag: Diagnostic) -> Finding {
        Finding {
            file: file.into(),
            diag,
        }
    }
}

/// The result of linting one workspace.
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub functions_scanned: usize,
    sources: BTreeMap<String, String>,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.findings.iter().filter(|f| f.diag.is_error()).count()
    }

    pub fn warning_count(&self) -> usize {
        self.findings.len() - self.error_count()
    }

    /// Rustc-style rendering of every finding, followed by a summary
    /// line. `deny_warnings` only changes the summary's advice, not the
    /// findings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let source = self.sources.get(&f.file).map(String::as_str).unwrap_or("");
            out.push_str(&f.diag.render(source, &f.file));
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// Machine-readable rendering: one JSON object per finding, one
    /// per line, no summary — for `ssd lint --json`. Hand-formatted to
    /// keep the crate dependency-free.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let line = f
                .diag
                .span
                .and_then(|s| {
                    self.sources
                        .get(&f.file)
                        .map(|src| lexer::line_of(src, s.start))
                })
                .unwrap_or(0);
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}\n",
                f.diag.code.as_str(),
                if f.diag.is_error() { "error" } else { "warning" },
                json_escape(&f.file),
                line,
                json_escape(&f.diag.message),
            ));
        }
        out
    }

    pub fn summary(&self) -> String {
        if self.findings.is_empty() {
            format!("ssd lint: clean ({} files scanned)", self.files_scanned)
        } else {
            format!(
                "ssd lint: {} error(s), {} warning(s) across {} files",
                self.error_count(),
                self.warning_count(),
                self.files_scanned
            )
        }
    }
}

/// Minimal JSON string escaping for the `--json` rendering.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Run all ten lints over the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let ws = scan::load(root)?;
    let mut findings = Vec::new();
    // Reasonless allow annotations are inert; say so rather than let
    // them look like they worked.
    for f in &ws.files {
        for a in f.allows.values() {
            if !a.has_reason {
                let kind = a.kinds.first().map(String::as_str).unwrap_or("panic");
                findings.push(Finding::new(
                    &f.rel,
                    Diagnostic::new(
                        code_for_kind(kind),
                        format!("allow({kind}) annotation has no reason and is ignored"),
                    )
                    .with_span(ssd_diag::Span::new(a.start, a.end))
                    .with_suggestion("write `// lint: allow(..) — <why this site is exempt>`"),
                ));
            }
            for k in &a.kinds {
                if !["panic", "guard", "lock", "span", "atomic", "durability"].contains(&k.as_str())
                {
                    findings.push(Finding::new(
                        &f.rel,
                        Diagnostic::new(
                            Code::PanicSite,
                            format!("unknown lint kind `{k}` in allow annotation"),
                        )
                        .with_span(ssd_diag::Span::new(a.start, a.end)),
                    ));
                }
            }
        }
    }
    registry::run(&ws, &mut findings);
    guards::run(&ws, &mut findings);
    panics::run(&ws, &mut findings);
    locks::run(&ws, &mut findings);
    spans::run(&ws, &mut findings);
    let order = locks::lock_order_of(&ws);
    let graph = callgraph::build(&ws, order.as_deref());
    concurrency::run(&ws, &graph, &mut findings);
    durability::run(&ws, &graph, &mut findings);
    findings.sort_by(|a, b| {
        let ka = (
            a.file.as_str(),
            a.diag.span.map_or(0, |s| s.start),
            a.diag.code.as_str(),
            a.diag.message.as_str(),
        );
        let kb = (
            b.file.as_str(),
            b.diag.span.map_or(0, |s| s.start),
            b.diag.code.as_str(),
            b.diag.message.as_str(),
        );
        ka.cmp(&kb)
    });
    Ok(Report {
        files_scanned: ws.files.len(),
        functions_scanned: graph.nodes.len(),
        sources: ws.sources(),
        findings,
    })
}

/// Deterministic text rendering of the workspace call graph — nodes,
/// resolved edges, fixpoint effect summaries. Exposed for the
/// determinism/termination property tests and for debugging.
pub fn callgraph_debug(root: &Path) -> Result<String, String> {
    let ws = scan::load(root)?;
    let order = locks::lock_order_of(&ws);
    let graph = callgraph::build(&ws, order.as_deref());
    Ok(graph.render(&ws))
}

fn code_for_kind(kind: &str) -> Code {
    match kind {
        "guard" => Code::GuardBypass,
        "lock" => Code::LockOrderViolation,
        "span" => Code::SpanLeak,
        "atomic" => Code::AtomicOrderingUndeclared,
        "durability" => Code::PublishBeforeLog,
        _ => Code::PanicSite,
    }
}

/// Long-form explanation for `ssd lint --explain SSD9xx`.
pub fn explain(code: &str) -> Option<&'static str> {
    Some(match code {
        "SSD901" => {
            "SSD901 registry-sync: the diagnostic registry in crates/diag is the single source \
             of truth for SSD codes. This lint cross-checks it three ways: every `Code::Variant \
             => \"SSDxxx\"` arm must have exactly one `| SSDxxx |` row in the docs/LANGUAGE.md \
             or docs/SERVING.md band tables; every code must be referenced by at least one test \
             under tests/ (by literal or by variant name); and each band's numbers must be \
             contiguous (a gap usually means a code was deleted without renumbering, or a new \
             one skipped a slot). Doc rows naming codes that no variant defines are phantom \
             documentation and are flagged at the row."
        }
        "SSD902" => {
            "SSD902 guard-threading: evaluation must be governable — every public evaluator \
             entry point (eval*/evaluate*/ext*/gext* in crates/query and crates/triples) either \
             takes a Guard/EvalOptions itself or has a governed sibling (*_guarded, *_with, \
             *_traced). Inside a function that runs under a Guard, calling a bare ungoverned \
             wrapper would evaluate outside the caller's fuel/memory/deadline envelope, so such \
             calls are flagged; thread the guard through the governed sibling instead. \
             Deliberately ungoverned evaluators carry `// lint: allow(guard) — <reason>`."
        }
        "SSD903" => {
            "SSD903 panic-sites: unwrap/expect/panic!/unreachable!/todo!/unimplemented! outside \
             test code, counted token-accurately (string literals, comments and #[cfg(test)] \
             items do not count; the parser's own `self.expect(..)` helper is exempt). Counts \
             are reconciled against crates/lint/panic-budgets.txt in both directions: over \
             budget means a new panic site needs justifying or removing; under budget means the \
             budget should ratchet down so slack cannot be spent silently. A deliberate site is \
             annotated `// lint: allow(panic) — <reason>` and does not charge the budget."
        }
        "SSD904" => {
            "SSD904 lock-order: crates/serve/src/lib.rs declares LOCK_ORDER, the global mutex \
             hierarchy. Per function, every `.lock()` is resolved to its hierarchy rank and the \
             set of currently-held guards is tracked (let-bindings until scope end or drop(x), \
             temporaries until end of statement). Flagged: locking a mutex absent from the \
             hierarchy, acquiring a rank ≤ one already held (deadlock-shaped), and calling \
             blocking operations — JoinHandle::join(), channel .send()/.recv() — while any lock \
             is held. The check is intraprocedural; the hierarchy documents the cross-function \
             contract."
        }
        "SSD905" => {
            "SSD905 span-discipline: tracer spans are RAII values whose Drop records the close \
             event, so a span must be bound for the region it measures. Flagged: spans \
             discarded at the open site (`span(..);` in statement position, or `let _ = \
             span(..)`), open_detached with no close_detached in the same function (detached \
             spans are for cross-thread regions; if another function owns the close, annotate \
             `// lint: allow(span) — <reason>`), and mem::forget in library code. The dynamic \
             counterpart is Tracer::validate, exercised by tests/trace.rs."
        }
        "SSD910" => {
            "SSD910 interproc-locks: lock-order inversion across function boundaries. The \
             workspace call graph resolves every unambiguous call and propagates the set of \
             LOCK_ORDER ranks each function (transitively) acquires to a fixpoint. A call made \
             while holding rank R whose callee summary contains a rank ≤ R is a deadlock shape \
             SSD904 cannot see — the two acquisitions live in different bodies, potentially \
             several hops apart. The finding names the shortest call path to the offending \
             acquisition. Fix by dropping the guard before the call or hoisting the inner \
             acquisition to the caller; annotate `// lint: allow(lock) — <reason>` at the call \
             site only when the path is provably not concurrent."
        }
        "SSD911" => {
            "SSD911 blocking-under-lock: a blocking primitive — channel .send()/.recv(), \
             JoinHandle::join(), fsync (.sync_data()/.sync_all()), or a WAL .write_all() — is \
             reachable through the call graph from a call made while a LOCK_ORDER lock is held. \
             Holding a mutex across I/O or a rendezvous stalls every other thread that needs \
             that rank, which is precisely the contention the serve crate's hierarchy exists to \
             bound. Release the guard first, or annotate the blocking site itself with \
             `// lint: allow(lock) — <reason>` when it cannot actually block (e.g. an unbounded \
             mpsc send, which only enqueues)."
        }
        "SSD912" => {
            "SSD912 atomic-ordering: every atomic access is keyed by (crate, field) and its \
             `Ordering` arguments collected. `Ordering::Relaxed` provides no happens-before \
             edge, so any Relaxed use on a cross-thread flag must carry a declared reason: \
             `// lint: allow(atomic) — <why relaxed is sound here>`. Mixing Relaxed with \
             stronger orderings on the same flag is called out in the message, since the \
             stronger sites usually mark a synchronization contract the Relaxed site is \
             silently opting out of."
        }
        "SSD913" => {
            "SSD913 publish-before-log: the store's crash-safety argument is the WAL protocol \
             log → fsync → apply → swap. Publishing a new store generation (an assignment \
             through the `current` mutex) without a WAL append AND an fsync earlier in the same \
             body — directly or via callees whose effect summaries carry them — would let a \
             crash lose an acknowledged mutation or expose an unlogged state. Durability \
             effects ignore allow() annotations, so an allowed fsync still counts as evidence; \
             a genuinely volatile publish (e.g. first boot before any WAL exists) is annotated \
             `// lint: allow(durability) — <reason>`."
        }
        "SSD914" => {
            "SSD914 fault-coverage: the crash matrix in tests/crash.rs drives recovery through \
             registered `wal.*` fault points. Every store-crate function performing raw file \
             I/O (write_all, sync_data, set_len, seek, rename, ...) must be reachable from one: \
             either its body checks a `\"wal.…\"` point or a (transitive) caller does, \
             propagated along resolved call edges. An unreachable I/O site is a failure path \
             the matrix can never exercise. Register a fault point on the path, or annotate \
             `// lint: allow(durability) — <reason>` when a crash at the site is benign."
        }
        _ => return None,
    })
}

/// Non-test lines per crate: the lines of `crates/<crate>/src/**.rs`
/// that still hold a token once comments and `#[cfg(test)]`/`#[test]`
/// items are elided — the same token stream the lints read.
pub fn non_test_lines(root: &Path) -> Result<BTreeMap<String, usize>, String> {
    let ws = scan::load(root)?;
    let mut per_crate = BTreeMap::new();
    for f in &ws.files {
        *per_crate.entry(f.krate.clone()).or_default() += lexer::lines_holding(&f.src, &f.toks);
    }
    Ok(per_crate)
}

/// The lint codes, for help output.
pub fn lint_codes() -> Vec<Code> {
    Code::all()
        .iter()
        .copied()
        .filter(|c| c.is_lint())
        .collect()
}

/// `--deny-warnings` verdict: true when the report should fail the build.
pub fn should_fail(report: &Report, deny_warnings: bool) -> bool {
    report.error_count() > 0 || (deny_warnings && !report.findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_covers_every_lint_code() {
        for code in lint_codes() {
            assert!(
                explain(code.as_str()).is_some(),
                "no explanation for {code}"
            );
            assert_eq!(
                code.severity() == ssd_diag::Severity::Error,
                code != Code::PanicSite
            );
        }
        assert!(explain("SSD001").is_none());
        assert!(explain("bogus").is_none());
    }
}
