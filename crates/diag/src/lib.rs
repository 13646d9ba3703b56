//! # ssd-diag — shared diagnostics core
//!
//! One `Diagnostic` type used by every front end in the stack (the
//! select-query language, regular path expressions, and graph datalog), so
//! static analysis reports look the same everywhere: a stable `SSD0xx`
//! code, a severity, a message, an optional byte span into the source the
//! user actually typed, and an optional suggestion.
//!
//! Rendering follows the rustc layout:
//!
//! ```text
//! error[SSD001]: unbound variable `X`
//!   --> query:1:8
//!    |
//!  1 | select X from db.Entry E
//!    |        ^
//!    = help: bind `X` in a from-clause, e.g. `db.path X`
//! ```

use std::fmt;

/// Half-open byte range into the analysed source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// Single-position span (caret on one byte).
    pub fn at(pos: usize) -> Span {
        Span::new(pos, pos + 1)
    }

    /// The smallest span covering both.
    #[must_use]
    pub fn to(self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }

    pub fn len(self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// How bad a finding is. `Error` refuses evaluation; `Warning` lets it run
/// (unless `--deny-warnings`); `Note` is informational only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Note,
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. The numeric bands group by front end:
/// `SSD00x` variable analysis, `SSD01x` schema-aware path typing,
/// `SSD02x` datalog, `SSD03x` static cost analysis, `SSD05x` the
/// columnar triple index and its batched access-path planner (see
/// `ssd-index`); the `SSD1xx` band is
/// *runtime* governance (budget exhaustion, cancellation, panic isolation
/// — see `ssd-guard`); the `SSD2xx` band is the query-serving scheduler
/// (session quotas, admission, queueing, wire protocol — see
/// `ssd-serve`); the `SSD4xx` band is the durable storage layer (WAL
/// recovery, torn-tail truncation, read-only rejection — see
/// `ssd-store`); the `SSD9xx` band is the workspace invariant checker
/// over our *own* Rust sources (`ssd lint` — see `ssd-lint` and
/// docs/LINTS.md). Codes are append-only; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Variable referenced but bound by no from-clause binding.
    UnboundVariable,
    /// Variable used as a binding source before the binding that defines it.
    UseBeforeBind,
    /// Same variable bound by two bindings (shadowing is not allowed).
    DuplicateBinding,
    /// Binding variable never used in select head, where clause, or a
    /// later from-clause source.
    UnusedBinding,
    /// Label variable in an illegal path position (under `|`, `*`, `+`,
    /// `?`, or not the final step).
    LabelVarMisuse,
    /// Schema certifies the binding's path matches nothing: the query part
    /// is provably empty before touching data.
    EmptyPath,
    /// Datalog rule violates range restriction (unsafe variable).
    DatalogUnsafe,
    /// Predicate used with conflicting arities.
    DatalogArityMismatch,
    /// Program has recursion through negation (not stratifiable).
    DatalogNotStratifiable,
    /// Body predicate that no rule defines and no EDB relation provides.
    DatalogUndefinedPredicate,
    /// Rule head unreachable from the program's result predicate.
    DatalogUnreachableRule,
    /// Wildcard `_` in a rule head derives nothing meaningful.
    DatalogHeadWildcard,
    /// Variable occurring exactly once in a rule (likely a typo).
    DatalogSingletonVariable,
    /// Static cost analysis proves the query exceeds its budget: even the
    /// *lower* bound of the fuel or memory envelope is above the limit.
    CostExceedsBudget,
    /// Static cost analysis cannot bound the query: Kleene star over a
    /// cyclic schema region, or a recursive datalog stratum.
    UnboundedCost,
    /// Two from-clause bindings share no variable: the enumeration is a
    /// cross product.
    CrossProductJoin,
    /// The cost estimate was widened (imprecise); carries the reason.
    ImpreciseEstimate,
    /// Strict admission rejected the query before evaluation started, so
    /// `--partial` (a run-time degradation mode) was never consulted.
    AdmissionOverridesPartial,
    /// The batched index executor declined the query (unsupported path
    /// shape, or statistics say the interpreter wins) and evaluation
    /// fell back to the one-binding-at-a-time interpreter.
    IndexFallback,
    /// Evaluation ran out of its deterministic step (fuel) budget.
    StepLimitExceeded,
    /// Evaluation exceeded its byte-accounted memory budget.
    MemoryLimitExceeded,
    /// Evaluation exceeded its wall-clock deadline.
    DeadlineExceeded,
    /// Evaluation exceeded its recursion / derivation depth limit.
    DepthLimitExceeded,
    /// Evaluation was cancelled via a cooperative cancellation token.
    Cancelled,
    /// A deterministic fault-injection point fired (testing only).
    FaultInjected,
    /// Partial-results mode stopped early; the result is truncated.
    TruncatedResult,
    /// Recursive-descent parser hit its nesting depth limit.
    ParseDepthExceeded,
    /// An engine bug (panic) was caught at the CLI isolation boundary.
    EnginePanic,
    /// The session's remaining quota cannot cover the job (ssd-serve).
    SessionQuotaExhausted,
    /// The server's run queue is full — backpressure rejection.
    QueueFull,
    /// The job was admitted but is waiting in the run queue.
    JobQueued,
    /// The job was submitted while the server is shutting down.
    ServerShuttingDown,
    /// A job id named by `CANCEL` (or awaited) is not known.
    UnknownJob,
    /// A malformed wire-protocol frame or command.
    ProtocolError,
    /// A budget refund exceeded its outstanding split grant and was
    /// clamped — a scheduler bookkeeping bug worth surfacing.
    RefundExceedsGrant,
    /// WAL recovery found an unterminated or unverifiable tail (a torn
    /// or short write from a crash) and truncated it back to the last
    /// committed transaction boundary.
    WalTornTail,
    /// A WAL frame's CRC32 did not match its payload: on-disk
    /// corruption. Recovery keeps the intact committed prefix and
    /// discards everything from the corrupt frame on.
    WalChecksumMismatch,
    /// Recovery replayed the committed transactions of the WAL; carries
    /// how many were reapplied on top of the base snapshot.
    RecoveryReplayed,
    /// A mutation was rejected because the store is read-only: the
    /// server was started without a data directory, or a prior I/O
    /// failure poisoned the write path.
    ReadOnlyStore,
    /// `ssd lint` L1: the SSD code registry, the docs tables, and the
    /// test suite disagree (undefined, undocumented, duplicated,
    /// untested, or non-contiguous codes).
    RegistryDrift,
    /// `ssd lint` L2: an evaluator entry point has no governed
    /// `*_with`/`*_guarded` variant, or guarded code calls an
    /// ungoverned sibling, bypassing the `Guard`.
    GuardBypass,
    /// `ssd lint` L3: a non-test `unwrap`/`expect`/`panic!`/
    /// `unreachable!` site beyond the crate's audited budget and
    /// without an `// lint: allow(panic)` annotation.
    PanicSite,
    /// `ssd lint` L4: a `.lock()` acquisition out of declared hierarchy
    /// order, an undeclared lock, or a blocking call (`join`/`recv`/
    /// `send`) made while a lock is held.
    LockOrderViolation,
    /// `ssd lint` L5: a tracer span that can leak or close early — an
    /// `open_detached` with no `close_detached` in the same function,
    /// or a span value discarded at the open site.
    SpanLeak,
    /// `ssd lint` L6: an interprocedural lock-order inversion — a
    /// function holds a lock across a call whose transitive callees
    /// acquire an equal or outer rank of `LOCK_ORDER`.
    InterprocLockInversion,
    /// `ssd lint` L7: a blocking operation (channel send/recv, thread
    /// join, fsync, WAL append) is reachable through a call made while
    /// a lock is held.
    BlockingUnderLock,
    /// `ssd lint` L8: a cross-thread atomic is accessed with
    /// `Ordering::Relaxed` without a declared reason (or mixes Relaxed
    /// with stronger orderings on the same flag).
    AtomicOrderingUndeclared,
    /// `ssd lint` L9: a path publishes a new store generation without
    /// being dominated by a WAL append + fsync — apply-before-log
    /// breaks the commit protocol.
    PublishBeforeLog,
    /// `ssd lint` L10: a raw I/O call in the store that no registered
    /// `wal.*` fault point reaches, so the crash matrix cannot
    /// exercise its failure path.
    FaultCoverageGap,
}

impl Code {
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnboundVariable => "SSD001",
            Code::UseBeforeBind => "SSD002",
            Code::DuplicateBinding => "SSD003",
            Code::UnusedBinding => "SSD004",
            Code::LabelVarMisuse => "SSD005",
            Code::EmptyPath => "SSD010",
            Code::DatalogUnsafe => "SSD020",
            Code::DatalogArityMismatch => "SSD021",
            Code::DatalogNotStratifiable => "SSD022",
            Code::DatalogUndefinedPredicate => "SSD023",
            Code::DatalogUnreachableRule => "SSD024",
            Code::DatalogHeadWildcard => "SSD025",
            Code::DatalogSingletonVariable => "SSD026",
            Code::CostExceedsBudget => "SSD030",
            Code::UnboundedCost => "SSD031",
            Code::CrossProductJoin => "SSD032",
            Code::ImpreciseEstimate => "SSD033",
            Code::AdmissionOverridesPartial => "SSD034",
            Code::IndexFallback => "SSD050",
            Code::StepLimitExceeded => "SSD101",
            Code::MemoryLimitExceeded => "SSD102",
            Code::DeadlineExceeded => "SSD103",
            Code::DepthLimitExceeded => "SSD104",
            Code::Cancelled => "SSD105",
            Code::FaultInjected => "SSD106",
            Code::TruncatedResult => "SSD107",
            Code::ParseDepthExceeded => "SSD110",
            Code::EnginePanic => "SSD111",
            Code::SessionQuotaExhausted => "SSD200",
            Code::QueueFull => "SSD201",
            Code::JobQueued => "SSD202",
            Code::ServerShuttingDown => "SSD203",
            Code::UnknownJob => "SSD204",
            Code::ProtocolError => "SSD210",
            Code::RefundExceedsGrant => "SSD211",
            Code::WalTornTail => "SSD400",
            Code::WalChecksumMismatch => "SSD401",
            Code::RecoveryReplayed => "SSD402",
            Code::ReadOnlyStore => "SSD403",
            Code::RegistryDrift => "SSD901",
            Code::GuardBypass => "SSD902",
            Code::PanicSite => "SSD903",
            Code::LockOrderViolation => "SSD904",
            Code::SpanLeak => "SSD905",
            Code::InterprocLockInversion => "SSD910",
            Code::BlockingUnderLock => "SSD911",
            Code::AtomicOrderingUndeclared => "SSD912",
            Code::PublishBeforeLog => "SSD913",
            Code::FaultCoverageGap => "SSD914",
        }
    }

    /// Default severity; individual diagnostics may not override this —
    /// one code, one severity, so `--deny-warnings` is predictable.
    pub fn severity(self) -> Severity {
        match self {
            Code::UnboundVariable
            | Code::UseBeforeBind
            | Code::DuplicateBinding
            | Code::LabelVarMisuse
            | Code::DatalogUnsafe
            | Code::DatalogArityMismatch
            | Code::DatalogNotStratifiable
            | Code::StepLimitExceeded
            | Code::MemoryLimitExceeded
            | Code::DeadlineExceeded
            | Code::DepthLimitExceeded
            | Code::Cancelled
            | Code::FaultInjected
            | Code::ParseDepthExceeded
            | Code::EnginePanic
            | Code::SessionQuotaExhausted
            | Code::QueueFull
            | Code::ServerShuttingDown
            | Code::UnknownJob
            | Code::ProtocolError
            | Code::WalChecksumMismatch
            | Code::ReadOnlyStore
            | Code::RegistryDrift
            | Code::GuardBypass
            | Code::LockOrderViolation
            | Code::SpanLeak
            | Code::InterprocLockInversion
            | Code::BlockingUnderLock
            | Code::AtomicOrderingUndeclared
            | Code::PublishBeforeLog
            | Code::FaultCoverageGap
            | Code::CostExceedsBudget => Severity::Error,
            Code::UnusedBinding
            | Code::EmptyPath
            | Code::DatalogUndefinedPredicate
            | Code::DatalogUnreachableRule
            | Code::DatalogHeadWildcard
            | Code::DatalogSingletonVariable
            | Code::UnboundedCost
            | Code::CrossProductJoin
            | Code::RefundExceedsGrant
            | Code::PanicSite
            | Code::WalTornTail
            | Code::TruncatedResult => Severity::Warning,
            Code::ImpreciseEstimate
            | Code::AdmissionOverridesPartial
            | Code::IndexFallback
            | Code::JobQueued
            | Code::RecoveryReplayed => Severity::Note,
        }
    }

    /// True for the `SSD1xx`/`SSD2xx` bands: runtime codes produced
    /// during evaluation or serving, as opposed to static-analysis
    /// codes (`SSD0xx`) and source lints (`SSD9xx`).
    pub fn is_runtime(self) -> bool {
        self.as_str() >= "SSD100" && !self.is_lint()
    }

    /// True for the `SSD9xx` band: findings of the workspace invariant
    /// checker (`ssd lint`) over our own Rust sources.
    pub fn is_lint(self) -> bool {
        self.as_str() >= "SSD900"
    }

    /// Every code, in rendering order (used by docs and tests).
    pub fn all() -> &'static [Code] {
        &[
            Code::UnboundVariable,
            Code::UseBeforeBind,
            Code::DuplicateBinding,
            Code::UnusedBinding,
            Code::LabelVarMisuse,
            Code::EmptyPath,
            Code::DatalogUnsafe,
            Code::DatalogArityMismatch,
            Code::DatalogNotStratifiable,
            Code::DatalogUndefinedPredicate,
            Code::DatalogUnreachableRule,
            Code::DatalogHeadWildcard,
            Code::DatalogSingletonVariable,
            Code::CostExceedsBudget,
            Code::UnboundedCost,
            Code::CrossProductJoin,
            Code::ImpreciseEstimate,
            Code::AdmissionOverridesPartial,
            Code::IndexFallback,
            Code::StepLimitExceeded,
            Code::MemoryLimitExceeded,
            Code::DeadlineExceeded,
            Code::DepthLimitExceeded,
            Code::Cancelled,
            Code::FaultInjected,
            Code::TruncatedResult,
            Code::ParseDepthExceeded,
            Code::EnginePanic,
            Code::SessionQuotaExhausted,
            Code::QueueFull,
            Code::JobQueued,
            Code::ServerShuttingDown,
            Code::UnknownJob,
            Code::ProtocolError,
            Code::RefundExceedsGrant,
            Code::WalTornTail,
            Code::WalChecksumMismatch,
            Code::RecoveryReplayed,
            Code::ReadOnlyStore,
            Code::RegistryDrift,
            Code::GuardBypass,
            Code::PanicSite,
            Code::LockOrderViolation,
            Code::SpanLeak,
            Code::InterprocLockInversion,
            Code::BlockingUnderLock,
            Code::AtomicOrderingUndeclared,
            Code::PublishBeforeLog,
            Code::FaultCoverageGap,
        ]
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            message: message.into(),
            span: None,
            suggestion: None,
        }
    }

    #[must_use]
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    #[must_use]
    pub fn with_span_opt(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// One-line form: `error[SSD001]: unbound variable `X``.
    pub fn headline(&self) -> String {
        format!("{}[{}]: {}", self.severity, self.code, self.message)
    }

    /// Full rustc-style rendering against the source the span indexes.
    pub fn render(&self, source: &str, origin: &str) -> String {
        let mut out = self.headline();
        out.push('\n');
        if let Some(span) = self.span {
            let (line_no, col, line_text) = locate(source, span.start);
            let gutter = format!("{}", line_no).len().max(2);
            out.push_str(&format!(
                "{:gutter$}--> {}:{}:{}\n",
                "",
                origin,
                line_no,
                col,
                gutter = gutter
            ));
            out.push_str(&format!("{:gutter$} |\n", "", gutter = gutter));
            out.push_str(&format!(
                "{:>gutter$} | {}\n",
                line_no,
                line_text,
                gutter = gutter
            ));
            let in_line = line_text.len().saturating_sub(col - 1);
            let width = span.len().min(in_line.max(1)).max(1);
            out.push_str(&format!(
                "{:gutter$} | {}{}\n",
                "",
                " ".repeat(col - 1),
                "^".repeat(width),
                gutter = gutter
            ));
        }
        if let Some(s) = &self.suggestion {
            out.push_str(&format!("   = help: {s}\n"));
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.headline())
    }
}

/// 1-based line, 1-based column (in bytes), and the text of that line.
fn locate(source: &str, pos: usize) -> (usize, usize, &str) {
    let pos = pos.min(source.len());
    let before = &source[..pos];
    let line_no = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let line_start = before.rfind('\n').map_or(0, |i| i + 1);
    let line_end = source[pos..].find('\n').map_or(source.len(), |i| pos + i);
    (line_no, pos - line_start + 1, &source[line_start..line_end])
}

/// Helpers over a batch of findings.
pub trait DiagnosticSink {
    fn has_errors(&self) -> bool;
    fn error_count(&self) -> usize;
    fn warning_count(&self) -> usize;
    fn render_all(&self, source: &str, origin: &str) -> String;
    fn sorted_by_span(self) -> Self;
}

impl DiagnosticSink for Vec<Diagnostic> {
    fn has_errors(&self) -> bool {
        self.iter().any(Diagnostic::is_error)
    }

    fn error_count(&self) -> usize {
        self.iter().filter(|d| d.is_error()).count()
    }

    fn warning_count(&self) -> usize {
        self.iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    fn render_all(&self, source: &str, origin: &str) -> String {
        self.iter()
            .map(|d| d.render(source, origin))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn sorted_by_span(mut self) -> Self {
        self.sort_by_key(|d| (d.span.map_or(usize::MAX, |s| s.start), d.code));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in Code::all() {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(c.as_str().starts_with("SSD"));
        }
        assert!(Code::all().len() >= 8, "need at least 8 distinct codes");
    }

    #[test]
    fn cost_band_codes_and_severities() {
        assert_eq!(Code::CostExceedsBudget.as_str(), "SSD030");
        assert_eq!(Code::CostExceedsBudget.severity(), Severity::Error);
        assert_eq!(Code::UnboundedCost.as_str(), "SSD031");
        assert_eq!(Code::UnboundedCost.severity(), Severity::Warning);
        assert_eq!(Code::CrossProductJoin.as_str(), "SSD032");
        assert_eq!(Code::CrossProductJoin.severity(), Severity::Warning);
        assert_eq!(Code::ImpreciseEstimate.as_str(), "SSD033");
        assert_eq!(Code::ImpreciseEstimate.severity(), Severity::Note);
        assert!(!Code::CostExceedsBudget.is_runtime());
        assert!(!Code::ImpreciseEstimate.is_runtime());
    }

    #[test]
    fn serve_band_codes_and_severities() {
        assert_eq!(Code::SessionQuotaExhausted.as_str(), "SSD200");
        assert_eq!(Code::QueueFull.as_str(), "SSD201");
        assert_eq!(Code::JobQueued.as_str(), "SSD202");
        assert_eq!(Code::ServerShuttingDown.as_str(), "SSD203");
        assert_eq!(Code::UnknownJob.as_str(), "SSD204");
        assert_eq!(Code::ProtocolError.as_str(), "SSD210");
        assert_eq!(Code::JobQueued.severity(), Severity::Note);
        assert_eq!(Code::SessionQuotaExhausted.severity(), Severity::Error);
        assert!(Code::SessionQuotaExhausted.is_runtime());
        assert_eq!(Code::AdmissionOverridesPartial.as_str(), "SSD034");
        assert_eq!(Code::AdmissionOverridesPartial.severity(), Severity::Note);
        assert!(!Code::AdmissionOverridesPartial.is_runtime());
    }

    #[test]
    fn index_band_codes_and_severities() {
        assert_eq!(Code::IndexFallback.as_str(), "SSD050");
        assert_eq!(Code::IndexFallback.severity(), Severity::Note);
        assert!(!Code::IndexFallback.is_runtime(), "a static-band code");
        assert!(!Code::IndexFallback.is_lint());
    }

    #[test]
    fn store_band_codes_and_severities() {
        assert_eq!(Code::WalTornTail.as_str(), "SSD400");
        assert_eq!(Code::WalChecksumMismatch.as_str(), "SSD401");
        assert_eq!(Code::RecoveryReplayed.as_str(), "SSD402");
        assert_eq!(Code::ReadOnlyStore.as_str(), "SSD403");
        assert_eq!(Code::WalTornTail.severity(), Severity::Warning);
        assert_eq!(Code::WalChecksumMismatch.severity(), Severity::Error);
        assert_eq!(Code::RecoveryReplayed.severity(), Severity::Note);
        assert_eq!(Code::ReadOnlyStore.severity(), Severity::Error);
        for c in [
            Code::WalTornTail,
            Code::WalChecksumMismatch,
            Code::RecoveryReplayed,
            Code::ReadOnlyStore,
        ] {
            assert!(c.is_runtime(), "{c}: store codes are runtime codes");
            assert!(!c.is_lint());
        }
    }

    #[test]
    fn lint_band_codes_and_severities() {
        assert_eq!(Code::RegistryDrift.as_str(), "SSD901");
        assert_eq!(Code::GuardBypass.as_str(), "SSD902");
        assert_eq!(Code::PanicSite.as_str(), "SSD903");
        assert_eq!(Code::LockOrderViolation.as_str(), "SSD904");
        assert_eq!(Code::SpanLeak.as_str(), "SSD905");
        assert_eq!(Code::InterprocLockInversion.as_str(), "SSD910");
        assert_eq!(Code::BlockingUnderLock.as_str(), "SSD911");
        assert_eq!(Code::AtomicOrderingUndeclared.as_str(), "SSD912");
        assert_eq!(Code::PublishBeforeLog.as_str(), "SSD913");
        assert_eq!(Code::FaultCoverageGap.as_str(), "SSD914");
        assert_eq!(Code::PanicSite.severity(), Severity::Warning);
        assert_eq!(Code::RegistryDrift.severity(), Severity::Error);
        for c in [
            Code::RegistryDrift,
            Code::GuardBypass,
            Code::PanicSite,
            Code::LockOrderViolation,
            Code::SpanLeak,
            Code::InterprocLockInversion,
            Code::BlockingUnderLock,
            Code::AtomicOrderingUndeclared,
            Code::PublishBeforeLog,
            Code::FaultCoverageGap,
        ] {
            assert!(c.is_lint());
            assert!(!c.is_runtime(), "{c}: lints are static, not runtime");
        }
        assert!(!Code::StepLimitExceeded.is_lint());
        assert!(Code::StepLimitExceeded.is_runtime());
    }

    #[test]
    fn render_points_at_span() {
        let src = "select X from db.Entry E";
        let d = Diagnostic::new(Code::UnboundVariable, "unbound variable `X`")
            .with_span(Span::new(7, 8))
            .with_suggestion("bind `X` in a from-clause");
        let shown = d.render(src, "query");
        assert!(shown.contains("error[SSD001]"), "{shown}");
        assert!(shown.contains("query:1:8"), "{shown}");
        assert!(shown.contains("select X from db.Entry E"), "{shown}");
        assert!(shown.contains("= help:"), "{shown}");
        let caret_line = shown.lines().find(|l| l.contains('^')).expect("caret line");
        assert_eq!(
            caret_line.find('^'),
            caret_line.find("| ").map(|i| i + 2 + 7)
        );
    }

    #[test]
    fn render_multiline_source() {
        let src = "a(X) :- b(X).\nc(Y) :- d(Y).";
        let d = Diagnostic::new(Code::DatalogUndefinedPredicate, "undefined predicate `d`")
            .with_span(Span::new(22, 26));
        let shown = d.render(src, "program");
        assert!(shown.contains("program:2:9"), "{shown}");
        assert!(shown.contains("c(Y) :- d(Y)."), "{shown}");
    }

    #[test]
    fn sink_counts() {
        let v = vec![
            Diagnostic::new(Code::UnusedBinding, "w"),
            Diagnostic::new(Code::UnboundVariable, "e"),
        ];
        assert!(v.has_errors());
        assert_eq!(v.error_count(), 1);
        assert_eq!(v.warning_count(), 1);
        let sorted = v.sorted_by_span();
        assert_eq!(sorted.len(), 2);
    }
}
