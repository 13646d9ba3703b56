//! Implementation of the `ssd` command line (see `main.rs` for the
//! synopsis). Commands are plain functions from parsed arguments to a
//! printable string, so everything is unit-testable without spawning
//! processes.

use semistructured::diag::DiagnosticSink;
use semistructured::triples::Datum;
use semistructured::{Budget, Database, Guard};
use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};

/// CLI failure modes.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation (wrong arguments) — exit code 2.
    Usage(String),
    /// The command itself failed — exit code 1.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

const HELP: &str = "\
ssd — semistructured data toolkit (Buneman, PODS 1997)

  ssd stats     DATA                       database statistics
  ssd query     DATA QUERY                 run a select-from-where query
  ssd datalog   DATA PROGRAM [PRED]        run a datalog program
  ssd explain   DATA QUERY [--analyze]     query plan with the static cost
                                           envelope; --analyze also runs it
                                           and prints per-operator actuals
  ssd check     DATA (query|datalog) TEXT  static analysis; flags:
                [--deny-warnings]          warnings also fail (exit 1)
                [--explain]                print inferred binding types
                                           (query) or per-literal access
                                           paths (datalog)
                [--estimate]               print the static cost envelope
                                           and SSD03x cost diagnostics
  ssd lint      [ROOT] [--deny-warnings]   workspace source lints (SSD9xx);
                [--json]                   one JSON object per finding line
                [--explain SSD9xx]         ROOT defaults to the current
                                           directory; see docs/LINTS.md
                [--loc]                    per-crate non-test line counts
  ssd browse    DATA string TEXT           where is this string?
  ssd browse    DATA ints THRESHOLD        integers greater than N?
  ssd browse    DATA attrs PREFIX          attribute names with prefix?
  ssd rewrite   DATA PROGRAM               structural-recursion rewrite
  ssd schema    DATA                       extract a schema
  ssd conforms  DATA SCHEMA_DATA           conformance against extracted schema
  ssd diff      LEFT RIGHT [DEPTH]         structural diff of path languages
  ssd dataguide DATA                       strong DataGuide summary
  ssd dot       DATA                       Graphviz rendering
  ssd fmt       DATA                       canonical literal form
  ssd repl      DATA                       run commands from stdin (see 'help')
  ssd serve     DATA [--port N]            serve DATA over TCP (see below)
  ssd client    PORT                       speak the wire protocol from stdin
  ssd recover   DIR                        replay DIR's write-ahead log and
                                           report what recovery found
  ssd json      DATA                       export as JSON (acyclic only)
  ssd xml       DATA                       export as XML (acyclic only)
  ssd import-json JSONFILE                 convert JSON to the literal form
  ssd import-xml  XMLFILE                  convert XML to the literal form

DATA is a literal-syntax file or '-' for stdin; QUERY/PROGRAM are literal
strings, or @FILE to read from a file.

Resource limits (query, datalog, rewrite, schema, dataguide):
  --timeout SECS      wall-clock deadline
  --max-steps N       deterministic work-step (fuel) ceiling
  --max-memory-mb N   accounted result-memory ceiling
  --max-depth N       recursion / derivation depth ceiling
  --partial           on exhaustion keep the partial result and warn
                      (SSD107) instead of failing
Admission control (query, datalog):
  --admission MODE    strict|warn|off (default off). Statically estimate
                      the cost envelope first; if even its lower bound
                      exceeds the budget, strict rejects with SSD030
                      before the engine does any work, warn prints
                      SSD030 as a warning and runs anyway.
Note: under --admission=strict, rejection takes precedence over
--partial (SSD034) — a rejected query never starts, so there is no
partial result to keep.
Tracing (query, datalog, explain — see docs/OBSERVABILITY.md):
  --trace             append the structured event trace to the output
  --trace-out FILE    stream trace events to FILE as JSON Lines
  --profile[=folded]  append per-phase fuel totals, or folded stacks
                      (flamegraph input) with =folded. Tracing upgrades
                      an unlimited budget to a metered one so fuel and
                      memory readings are real.

Serving (see docs/SERVING.md for the protocol):
  ssd serve DATA [--port N]        loopback TCP server (0 = ephemeral;
                                   prints `listening on 127.0.0.1:PORT`)
            [--data-dir DIR]       durable store: DATA seeds DIR on first
                                   run, then DIR's WAL is recovered and
                                   INSERT/DELETE/COMMIT are accepted;
                                   without it the server is read-only
                                   and mutation verbs fail with SSD403
            [--workers N]          worker threads (default 2)
            [--queue N]            run-queue capacity (default 16)
            [--session-fuel N]     default per-session fuel quota
            [--session-memory-mb N]  default per-session memory quota
            [--job-fuel N]         default per-job fuel ceiling
            [--job-memory-mb N]    default per-job memory ceiling
            [--max-jobs N]         default per-session concurrency cap
            [--metrics-dump]       print the metrics block on shutdown
            [--allow-remote-shutdown]  honor the client SHUTDOWN verb
  ssd client PORT                  each stdin line is one command frame
                                   (HELLO, QUERY, DATALOG, RPE, INSERT,
                                   DELETE, COMMIT, CANCEL, STATS, BYE,
                                   SHUTDOWN); waits for submitted jobs
                                   to finish, then BYE.
  ssd recover DIR                  open DIR's store without serving:
                                   replays the WAL, prints SSD400/SSD401
                                   findings and the SSD402 replay note.

Exhaustion renders an SSD1xx diagnostic and exits nonzero. The
SSD_FAILPOINTS environment variable (site=N, comma-separated) injects
deterministic faults at engine seams for testing.";

thread_local! {
    /// True while `run` is inside its `catch_unwind` boundary, so the
    /// process-wide panic hook knows to stay quiet: the panic is about
    /// to be rendered as an SSD111 diagnostic, not a raw backtrace.
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for panics caught by [`run`]'s isolation boundary and
/// delegates everything else to the previous hook.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_DISPATCH.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Write a command's output and its final newline to `out`. A reader
/// that stops early (`ssd … | head -1`) is not a failure: a
/// `BrokenPipe` ends the output quietly.
pub fn write_output(out: &mut impl Write, output: &str) -> std::io::Result<()> {
    match writeln!(out, "{output}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        done => done,
    }
}

/// Entry point shared by `main` and the tests. `stdin` backs the `-`
/// data argument.
///
/// Dispatch runs inside a `catch_unwind` boundary: an engine bug that
/// panics is reported as a rendered SSD111 diagnostic through the normal
/// [`CliError::Failed`] channel (nonzero exit) instead of aborting with a
/// raw backtrace.
pub fn run(args: &[String], stdin: &mut impl Read) -> Result<String, CliError> {
    install_quiet_panic_hook();
    IN_DISPATCH.with(|f| f.set(true));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(args, stdin)));
    IN_DISPATCH.with(|f| f.set(false));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic payload".to_owned());
            Err(CliError::Failed(
                semistructured::diag::Diagnostic::new(
                    semistructured::diag::Code::EnginePanic,
                    format!("internal engine error: {msg}; please report this as a bug"),
                )
                .headline(),
            ))
        }
    }
}

fn dispatch(args: &[String], stdin: &mut impl Read) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    let cmd = it.next().unwrap_or("help");
    let rest: Vec<&str> = it.collect();
    match cmd {
        "help" | "--help" | "-h" => Ok(HELP.to_owned()),
        "stats" => {
            let db = load_db(one(&rest, "stats DATA")?, stdin)?;
            Ok(cmd_stats(&db))
        }
        "query" => {
            let (data, mut tail) = split_first(&rest, "query DATA QUERY")?;
            let mut budget = pop_budget(&mut tail)?;
            let admission = pop_admission(&mut tail)?;
            let trace = pop_trace(&mut tail)?;
            let text = arg_or_file(one(&tail, "query DATA QUERY")?)?;
            let db = load_db(data, stdin)?;
            let pre = admission_gate(&db, "query", &text, admission, &budget)?;
            if trace.active() {
                budget = ensure_metered(budget);
            }
            let setup = trace.build()?;
            let tracer = setup.as_ref().map(|(t, _)| t);
            let mut result = with_preamble(pre, cmd_query(&db, &text, &budget.guard(), tracer));
            if let Some((t, ring)) = &setup {
                t.flush();
                if let Ok(out) = &mut result {
                    trace.append(ring, out);
                }
            }
            result
        }
        "datalog" => {
            let mut tail: Vec<&str> = rest.to_vec();
            let mut budget = pop_budget(&mut tail)?;
            let admission = pop_admission(&mut tail)?;
            let trace = pop_trace(&mut tail)?;
            if tail.len() < 2 || tail.len() > 3 {
                return Err(CliError::Usage("datalog DATA PROGRAM [PRED]".into()));
            }
            let db = load_db(tail[0], stdin)?;
            let program = arg_or_file(tail[1])?;
            let pre = admission_gate(&db, "datalog", &program, admission, &budget)?;
            if trace.active() {
                budget = ensure_metered(budget);
            }
            let setup = trace.build()?;
            let tracer = setup.as_ref().map(|(t, _)| t);
            let mut result = with_preamble(
                pre,
                cmd_datalog(&db, &program, tail.get(2).copied(), &budget.guard(), tracer),
            );
            if let Some((t, ring)) = &setup {
                t.flush();
                if let Ok(out) = &mut result {
                    trace.append(ring, out);
                }
            }
            result
        }
        "explain" => {
            let (data, mut tail) = split_first(&rest, EXPLAIN_USAGE)?;
            let budget = pop_budget(&mut tail)?;
            let trace = pop_trace(&mut tail)?;
            let analyze = take_flag(&mut tail, "--analyze");
            let text = arg_or_file(one(&tail, EXPLAIN_USAGE)?)?;
            let db = load_db(data, stdin)?;
            cmd_explain(&db, &text, analyze, budget, &trace)
        }
        "check" => {
            let mut tail: Vec<&str> = rest.to_vec();
            let deny_warnings = tail.contains(&"--deny-warnings");
            let explain = tail.contains(&"--explain");
            let estimate = tail.contains(&"--estimate");
            tail.retain(|a| *a != "--deny-warnings" && *a != "--explain" && *a != "--estimate");
            if tail.len() != 3 {
                return Err(CliError::Usage(
                    "check DATA (query|datalog) TEXT [--deny-warnings] [--explain] [--estimate]"
                        .into(),
                ));
            }
            let db = load_db(tail[0], stdin)?;
            let text = arg_or_file(tail[2])?;
            cmd_check(&db, tail[1], &text, deny_warnings, explain, estimate)
        }
        "lint" => cmd_lint(&rest),
        "browse" => {
            if rest.len() != 3 {
                return Err(CliError::Usage(
                    "browse DATA (string|ints|attrs) ARG".into(),
                ));
            }
            let db = load_db(rest[0], stdin)?;
            cmd_browse(&db, rest[1], rest[2])
        }
        "rewrite" => {
            let (data, mut tail) = split_first(&rest, "rewrite DATA PROGRAM")?;
            let budget = pop_budget(&mut tail)?;
            let program = arg_or_file(one(&tail, "rewrite DATA PROGRAM")?)?;
            let db = load_db(data, stdin)?;
            let guard = budget.guard();
            let out = db
                .rewrite_with(&program, &guard)
                .map_err(CliError::Failed)?;
            Ok(prepend_truncation(&guard, out.to_literal()))
        }
        "schema" => {
            let mut tail: Vec<&str> = rest.to_vec();
            let budget = pop_budget(&mut tail)?;
            let db = load_db(one(&tail, "schema DATA")?, stdin)?;
            let guard = budget.guard();
            let schema = db.extract_schema_with(&guard).map_err(CliError::Failed)?;
            Ok(prepend_truncation(&guard, schema.to_string()))
        }
        "diff" => {
            if rest.len() < 2 || rest.len() > 3 {
                return Err(CliError::Usage("diff LEFT RIGHT [DEPTH]".into()));
            }
            let left = load_db(rest[0], stdin)?;
            let right = load_db(rest[1], stdin)?;
            let depth: usize = rest
                .get(2)
                .map(|d| {
                    d.parse()
                        .map_err(|_| CliError::Usage(format!("bad depth '{d}'")))
                })
                .transpose()?
                .unwrap_or(6);
            let d = semistructured::schema::diff_paths(left.graph(), right.graph(), depth);
            if d.is_empty() {
                return Ok(format!(
                    "identical path languages to depth {depth} ({} shared paths)",
                    d.shared
                ));
            }
            let mut out = String::new();
            let render = |g: &semistructured::Graph, p: &[semistructured::Label]| {
                p.iter()
                    .map(|l| l.display(g.symbols()).to_string())
                    .collect::<Vec<_>>()
                    .join(".")
            };
            for p in &d.only_left {
                out.push_str(&format!("- {}\n", render(left.graph(), p)));
            }
            for p in &d.only_right {
                out.push_str(&format!("+ {}\n", render(right.graph(), p)));
            }
            out.push_str(&format!("({} shared paths to depth {depth})", d.shared));
            Ok(out)
        }
        "conforms" => {
            if rest.len() != 2 {
                return Err(CliError::Usage("conforms DATA SCHEMA_DATA".into()));
            }
            let db = load_db(rest[0], stdin)?;
            let schema_src = load_db(rest[1], stdin)?;
            let schema = schema_src.extract_schema();
            Ok(format!("{}", db.conforms_to(&schema)))
        }
        "dataguide" => {
            let mut tail: Vec<&str> = rest.to_vec();
            let budget = pop_budget(&mut tail)?;
            let db = load_db(one(&tail, "dataguide DATA")?, stdin)?;
            let guard = budget.guard();
            let guide = semistructured::DataGuide::try_build(db.graph(), &guard)
                .map_err(|e| CliError::Failed(e.headline()))?;
            Ok(prepend_truncation(&guard, cmd_dataguide(&db, &guide)))
        }
        "dot" => {
            let db = load_db(one(&rest, "dot DATA")?, stdin)?;
            Ok(db.to_dot())
        }
        "repl" => {
            let path = one(&rest, "repl DATA (data from a file; commands from stdin)")?;
            if path == "-" {
                return Err(CliError::Usage(
                    "repl needs a data file; stdin carries the commands".into(),
                ));
            }
            let db = load_db(path, stdin)?;
            let mut input = String::new();
            stdin
                .read_to_string(&mut input)
                .map_err(|e| CliError::Failed(format!("reading stdin: {e}")))?;
            Ok(run_repl(&db, &input))
        }
        "fmt" => {
            let db = load_db(one(&rest, "fmt DATA")?, stdin)?;
            Ok(db.to_literal())
        }
        "json" => {
            let db = load_db(one(&rest, "json DATA")?, stdin)?;
            db.to_json().map_err(CliError::Failed)
        }
        "xml" => {
            let db = load_db(one(&rest, "xml DATA")?, stdin)?;
            db.to_xml().map_err(CliError::Failed)
        }
        "import-xml" => {
            let path = one(&rest, "import-xml XMLFILE")?;
            let text = read_path_or_stdin(path, stdin)?;
            let db = Database::from_xml(&text).map_err(CliError::Failed)?;
            Ok(db.to_literal())
        }
        "import-json" => {
            let path = one(&rest, "import-json JSONFILE")?;
            let text = read_path_or_stdin(path, stdin)?;
            let db = Database::from_json(&text).map_err(CliError::Failed)?;
            Ok(db.to_literal())
        }
        "serve" => cmd_serve(&rest, stdin),
        "client" => cmd_client(&rest, stdin),
        "recover" => cmd_recover(&rest),
        // Hidden trigger for exercising the panic-isolation boundary.
        #[cfg(test)]
        "__panic" => panic!("deliberate test panic"),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    }
}

/// Remove the shared resource-limit flags from `tail` and fold them into a
/// [`Budget`]. Fault-injection points are picked up from the
/// `SSD_FAILPOINTS` environment variable (`site=N`, comma-separated).
fn pop_budget(tail: &mut Vec<&str>) -> Result<Budget, CliError> {
    let mut budget = Budget::unlimited();
    let mut i = 0;
    while i < tail.len() {
        match tail[i] {
            "--timeout" => {
                let secs = take_value(tail, i, "--timeout")?;
                budget = budget.timeout(std::time::Duration::from_secs(secs));
                tail.remove(i);
            }
            "--max-steps" => {
                let n = take_value(tail, i, "--max-steps")?;
                budget = budget.max_steps(n);
                tail.remove(i);
            }
            "--max-memory-mb" => {
                let n = take_value(tail, i, "--max-memory-mb")?;
                budget = budget.max_memory_mb(n);
                tail.remove(i);
            }
            "--max-depth" => {
                let n = take_value(tail, i, "--max-depth")?;
                budget = budget.max_depth(n as usize);
                tail.remove(i);
            }
            "--partial" => {
                budget = budget.partial(true);
                tail.remove(i);
            }
            _ => i += 1,
        }
    }
    with_failpoints(budget)
}

/// Remove the value after the flag at `tail[i]`, as a non-negative integer.
fn take_value(tail: &mut Vec<&str>, i: usize, flag: &str) -> Result<u64, CliError> {
    if i + 1 >= tail.len() {
        return Err(CliError::Usage(format!("{flag} needs a value")));
    }
    let v = tail.remove(i + 1);
    v.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: '{v}' is not a non-negative integer")))
}

/// `budget` with the fault-injection points of the `SSD_FAILPOINTS`
/// environment variable (`site=N`, comma-separated), if it is set.
fn with_failpoints(budget: Budget) -> Result<Budget, CliError> {
    match std::env::var("SSD_FAILPOINTS") {
        Ok(spec) => budget
            .fail_points_from_spec(&spec)
            .map_err(|e| CliError::Usage(format!("SSD_FAILPOINTS: {e}"))),
        Err(_) => Ok(budget),
    }
}

/// Which profile rendering `--profile` asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileKind {
    /// Per-phase span counts and fuel totals.
    Phases,
    /// `name;name;... fuel` folded stacks for flamegraph tooling.
    Folded,
}

/// Parsed `--trace` / `--trace-out FILE` / `--profile[=folded]` flags.
#[derive(Debug, Default)]
struct TraceOpts {
    trace: bool,
    out: Option<String>,
    profile: Option<ProfileKind>,
}

/// Remove the tracing flags from `tail`.
fn pop_trace(tail: &mut Vec<&str>) -> Result<TraceOpts, CliError> {
    let mut opts = TraceOpts::default();
    let mut i = 0;
    while i < tail.len() {
        let arg = tail[i];
        if arg == "--trace" {
            opts.trace = true;
            tail.remove(i);
        } else if let Some(v) = arg.strip_prefix("--trace-out=") {
            opts.out = Some(v.to_owned());
            tail.remove(i);
        } else if arg == "--trace-out" {
            if i + 1 >= tail.len() {
                return Err(CliError::Usage("--trace-out needs a file path".into()));
            }
            opts.out = Some(tail.remove(i + 1).to_owned());
            tail.remove(i);
        } else if arg == "--profile" {
            opts.profile = Some(ProfileKind::Phases);
            tail.remove(i);
        } else if let Some(v) = arg.strip_prefix("--profile=") {
            match v {
                "folded" => opts.profile = Some(ProfileKind::Folded),
                "phases" => opts.profile = Some(ProfileKind::Phases),
                other => {
                    return Err(CliError::Usage(format!(
                        "--profile must be 'folded' or 'phases', got '{other}'"
                    )))
                }
            }
            tail.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(opts)
}

impl TraceOpts {
    fn active(&self) -> bool {
        self.trace || self.out.is_some() || self.profile.is_some()
    }

    /// A tracer with a ring for in-process rendering, plus a JSONL file
    /// sink when `--trace-out` was given. `None` when tracing is off.
    fn build(
        &self,
    ) -> Result<
        Option<(
            semistructured::trace::Tracer,
            semistructured::trace::SharedRing,
        )>,
        CliError,
    > {
        if !self.active() {
            return Ok(None);
        }
        self.build_always().map(Some)
    }

    /// As [`TraceOpts::build`], unconditionally — `explain --analyze`
    /// always collects events (it renders phase totals itself).
    fn build_always(
        &self,
    ) -> Result<
        (
            semistructured::trace::Tracer,
            semistructured::trace::SharedRing,
        ),
        CliError,
    > {
        let tracer = semistructured::trace::Tracer::new();
        let ring = semistructured::trace::SharedRing::new(semistructured::trace::DEFAULT_RING_CAP);
        tracer.add_sink(Box::new(ring.clone()));
        if let Some(path) = &self.out {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Failed(format!("creating {path}: {e}")))?;
            tracer.add_sink(Box::new(semistructured::trace::JsonlSink::new(file)));
        }
        Ok((tracer, ring))
    }

    /// Append the requested renderings of the collected events to `out`.
    fn append(&self, ring: &semistructured::trace::SharedRing, out: &mut String) {
        let events = ring.snapshot();
        if self.trace {
            out.push_str(&format!("\n-- trace ({} event(s)):\n", events.len()));
            out.push_str(semistructured::trace::render_events(&events).trim_end());
        }
        match self.profile {
            Some(ProfileKind::Phases) => {
                out.push_str("\n-- profile (phase spans fuel):\n");
                out.push_str(semistructured::trace::phase_totals(&events).trim_end());
            }
            Some(ProfileKind::Folded) => {
                out.push_str("\n-- profile (folded stacks):\n");
                out.push_str(semistructured::trace::folded_stacks(&events).trim_end());
            }
            None => {}
        }
    }
}

/// Traced runs need an *active* guard or every fuel/memory reading would
/// be zero; when the user set no explicit ceilings, upgrade to the
/// practically-unlimited [`Budget::metered`] limits (never trip, full
/// accounting), preserving every other budget setting.
fn ensure_metered(mut budget: Budget) -> Budget {
    if budget.max_steps.is_none() && budget.max_memory_bytes.is_none() {
        let m = Budget::metered();
        budget.max_steps = m.max_steps;
        budget.max_memory_bytes = m.max_memory_bytes;
    }
    budget
}

/// Remove a boolean flag from `tail`, reporting whether it was present.
fn take_flag(tail: &mut Vec<&str>, flag: &str) -> bool {
    let before = tail.len();
    tail.retain(|a| *a != flag);
    tail.len() != before
}

/// How `--admission` treats a query whose static cost envelope cannot
/// fit the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// No admission check (the default; the guard still enforces limits
    /// at run time).
    Off,
    /// Print SSD030 as a warning and run anyway.
    Warn,
    /// Reject with SSD030 before the engine consumes any fuel.
    Strict,
}

/// Remove `--admission MODE` / `--admission=MODE` from `tail`.
fn pop_admission(tail: &mut Vec<&str>) -> Result<Admission, CliError> {
    let mut mode = Admission::Off;
    let mut i = 0;
    while i < tail.len() {
        let arg = tail[i];
        let value = if let Some(v) = arg.strip_prefix("--admission=") {
            tail.remove(i);
            Some(v)
        } else if arg == "--admission" {
            if i + 1 >= tail.len() {
                return Err(CliError::Usage(
                    "--admission needs a value (strict|warn|off)".into(),
                ));
            }
            let v = tail.remove(i + 1);
            tail.remove(i);
            Some(v)
        } else {
            None
        };
        match value {
            Some("strict") => mode = Admission::Strict,
            Some("warn") => mode = Admission::Warn,
            Some("off") => mode = Admission::Off,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "--admission must be strict|warn|off, got '{other}'"
                )))
            }
            None => i += 1,
        }
    }
    Ok(mode)
}

/// Run the admission check: estimate the cost envelope and ask the budget
/// whether the evaluation can possibly fit. Returns preamble text to
/// print above the result (the SSD030 warning in warn mode), or fails
/// outright in strict mode — before any evaluation guard exists, so a
/// rejected query costs zero engine fuel.
fn admission_gate(
    db: &Database,
    kind: &str,
    text: &str,
    mode: Admission,
    budget: &Budget,
) -> Result<String, CliError> {
    if mode == Admission::Off {
        return Ok(String::new());
    }
    let analysis = match kind {
        "query" => db.estimate_query(text),
        _ => db.estimate_datalog(text),
    }
    .map_err(CliError::Failed)?;
    match budget.admit(&analysis.envelope) {
        Ok(()) => Ok(String::new()),
        Err(d) if mode == Admission::Strict => {
            let mut msg = d.headline();
            // Precedence is explicit: strict admission rejects before the
            // engine starts, so there is never a partial result for
            // `--partial` to keep. Say so instead of silently ignoring
            // the flag.
            if budget.partial {
                msg.push('\n');
                msg.push_str(
                    &semistructured::diag::Diagnostic::new(
                        semistructured::diag::Code::AdmissionOverridesPartial,
                        "--partial has no effect under --admission=strict: \
                         rejection happens before evaluation, so no partial \
                         result exists to keep",
                    )
                    .headline(),
                );
            }
            Err(CliError::Failed(msg))
        }
        Err(mut d) => {
            d.severity = semistructured::diag::Severity::Warning;
            Ok(format!("{}\n", d.headline()))
        }
    }
}

/// Prefix a command's output — or its failure message — with the
/// admission preamble, so a warn-mode SSD030 is visible either way.
fn with_preamble(pre: String, result: Result<String, CliError>) -> Result<String, CliError> {
    if pre.is_empty() {
        return result;
    }
    match result {
        Ok(out) => Ok(format!("{pre}{out}")),
        Err(CliError::Failed(m)) => Err(CliError::Failed(format!("{pre}{m}"))),
        other => other,
    }
}

/// For commands whose output type carries no statistics, surface a
/// partial-mode truncation recorded on `guard` as an SSD107 warning line
/// above the normal output.
fn prepend_truncation(guard: &Guard, out: String) -> String {
    match guard.truncation() {
        Some(why) => format!(
            "{}\n{out}",
            semistructured::diag::Diagnostic::new(
                semistructured::diag::Code::TruncatedResult,
                format!("result truncated: {}", why.message()),
            )
            .headline()
        ),
        None => out,
    }
}

/// `ssd lint`: run the SSD9xx workspace source lints (see docs/LINTS.md).
/// Errors always fail; `--deny-warnings` makes warnings (panic-budget
/// drift) fail too, which is how ci.sh runs it.
fn cmd_lint(rest: &[&str]) -> Result<String, CliError> {
    const USAGE: &str = "lint [ROOT] [--deny-warnings] [--json] [--explain SSD9xx] [--loc]";
    let mut tail: Vec<&str> = rest.to_vec();
    let deny_warnings = take_flag(&mut tail, "--deny-warnings");
    let json = take_flag(&mut tail, "--json");
    let loc = take_flag(&mut tail, "--loc");
    let mut explain_code: Option<String> = None;
    let mut i = 0;
    while i < tail.len() {
        if let Some(v) = tail[i].strip_prefix("--explain=") {
            explain_code = Some(v.to_owned());
            tail.remove(i);
        } else if tail[i] == "--explain" {
            if i + 1 >= tail.len() {
                return Err(CliError::Usage("--explain needs a code (SSD9xx)".into()));
            }
            explain_code = Some(tail.remove(i + 1).to_owned());
            tail.remove(i);
        } else {
            i += 1;
        }
    }
    if let Some(code) = explain_code {
        return match ssd_lint::explain(&code) {
            Some(text) => Ok(text.to_owned()),
            None => Err(CliError::Usage(format!(
                "'{code}' is not a lint code; known: {}",
                ssd_lint::lint_codes()
                    .iter()
                    .map(|c| c.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))),
        };
    }
    let root = match tail.as_slice() {
        [] => std::path::PathBuf::from("."),
        [r] => std::path::PathBuf::from(r),
        _ => return Err(CliError::Usage(USAGE.into())),
    };
    if loc {
        let per_crate = ssd_lint::non_test_lines(&root).map_err(CliError::Failed)?;
        let mut out = format!("{:<10} {:>7}\n", "crate", "lines");
        for (krate, n) in &per_crate {
            out.push_str(&format!("{krate:<10} {n:>7}\n"));
        }
        let total: usize = per_crate.values().sum();
        out.push_str(&format!("{:<10} {total:>7}", "total"));
        return Ok(out);
    }
    let report = ssd_lint::lint_workspace(&root).map_err(CliError::Failed)?;
    let out = if json {
        // println!/eprintln! append the final newline.
        report.render_json().trim_end().to_owned()
    } else {
        report.render()
    };
    if ssd_lint::should_fail(&report, deny_warnings) {
        Err(CliError::Failed(out))
    } else {
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Serving: `ssd serve` / `ssd client` over the ssd-serve wire protocol
// ---------------------------------------------------------------------------

const SERVE_USAGE: &str = "serve DATA [--port N] [--data-dir DIR] [--workers N] \
[--queue N] [--session-fuel N] [--session-memory-mb N] [--job-fuel N] \
[--job-memory-mb N] [--max-jobs N] [--metrics-dump] [--allow-remote-shutdown]";

fn cmd_serve(rest: &[&str], stdin: &mut impl Read) -> Result<String, CliError> {
    fn take_str<'a>(tail: &mut Vec<&'a str>, i: usize, flag: &str) -> Result<&'a str, CliError> {
        if i + 1 >= tail.len() {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        Ok(tail.remove(i + 1))
    }
    let mut tail: Vec<&str> = rest.to_vec();
    let mut port: u16 = 0;
    let mut data_dir: Option<&str> = None;
    let mut cfg = ssd_serve::ServeConfig::default();
    let mut quota = ssd_serve::SessionQuota::default();
    let mut metrics_dump = false;
    let mut allow_shutdown = false;
    let mut i = 0;
    while i < tail.len() {
        match tail[i] {
            "--data-dir" => {
                data_dir = Some(take_str(&mut tail, i, "--data-dir")?);
                tail.remove(i);
            }
            "--port" => {
                let n = take_value(&mut tail, i, "--port")?;
                port = u16::try_from(n)
                    .map_err(|_| CliError::Usage(format!("--port: {n} is not a TCP port")))?;
                tail.remove(i);
            }
            "--workers" => {
                cfg.workers = (take_value(&mut tail, i, "--workers")? as usize).max(1);
                tail.remove(i);
            }
            "--queue" => {
                cfg.queue_cap = take_value(&mut tail, i, "--queue")? as usize;
                tail.remove(i);
            }
            "--session-fuel" => {
                quota.fuel = Some(take_value(&mut tail, i, "--session-fuel")?);
                tail.remove(i);
            }
            "--session-memory-mb" => {
                quota.memory = Some(take_value(&mut tail, i, "--session-memory-mb")? << 20);
                tail.remove(i);
            }
            "--job-fuel" => {
                quota.job_fuel = take_value(&mut tail, i, "--job-fuel")?;
                tail.remove(i);
            }
            "--job-memory-mb" => {
                quota.job_memory = take_value(&mut tail, i, "--job-memory-mb")? << 20;
                tail.remove(i);
            }
            "--max-jobs" => {
                quota.max_concurrent = (take_value(&mut tail, i, "--max-jobs")? as usize).max(1);
                tail.remove(i);
            }
            "--metrics-dump" => {
                metrics_dump = true;
                tail.remove(i);
            }
            "--allow-remote-shutdown" => {
                allow_shutdown = true;
                tail.remove(i);
            }
            _ => i += 1,
        }
    }
    let db = load_db(one(&tail, SERVE_USAGE)?, stdin)?;
    let store = match data_dir {
        Some(dir) => Some(std::sync::Arc::new(open_store(
            std::path::Path::new(dir),
            &db,
        )?)),
        None => None,
    };
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| CliError::Failed(format!("bind 127.0.0.1:{port}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Failed(format!("local_addr: {e}")))?;
    // Printed eagerly (not via the returned string) so a script that
    // backgrounded us can read the ephemeral port while we serve.
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve_on_store(
        db,
        store,
        cfg,
        quota,
        listener,
        metrics_dump,
        allow_shutdown,
    )
}

/// Open (initialising on first run) the durable store behind
/// `serve --data-dir`, printing recovery findings eagerly so a
/// supervising script sees SSD400/SSD401/SSD402 before `listening on`.
/// Fault injection reaches the store's I/O sites through the same
/// `SSD_FAILPOINTS` variable the engine seams use.
fn open_store(dir: &std::path::Path, seed: &Database) -> Result<ssd_store::Store, CliError> {
    if !ssd_store::Store::is_initialized(dir) {
        ssd_store::Store::init(dir, seed)
            .map_err(|e| CliError::Failed(format!("init {}: {}", dir.display(), e)))?;
    }
    let budget = with_failpoints(Budget::unlimited())?;
    let (store, report) = ssd_store::Store::open(dir, &budget)
        .map_err(|e| CliError::Failed(format!("open {}: {}", dir.display(), e)))?;
    for d in &report.diagnostics {
        println!("{}", d.headline());
    }
    Ok(store)
}

const RECOVER_USAGE: &str = "recover DIR";

/// `ssd recover DIR`: open the store (replaying and truncating the WAL
/// exactly as `serve --data-dir` would) and report what recovery found,
/// without serving anything.
fn cmd_recover(rest: &[&str]) -> Result<String, CliError> {
    let dir = std::path::Path::new(one(rest, RECOVER_USAGE)?);
    let budget = with_failpoints(Budget::unlimited())?;
    let (store, report) = ssd_store::Store::open(dir, &budget)
        .map_err(|e| CliError::Failed(format!("open {}: {}", dir.display(), e)))?;
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.headline());
        out.push('\n');
    }
    out.push_str(&format!(
        "recovered: generation={} txns={} frames={} truncated_bytes={} wal_bytes={}\n",
        report.generation,
        report.txns_replayed,
        report.frames,
        report.truncated_bytes,
        store.wal_len(),
    ));
    Ok(out)
}

/// Run the accept loop on an already-bound listener until a client sends
/// `SHUTDOWN` (honored only with `allow_shutdown` — the CLI's
/// `--allow-remote-shutdown`), then drain and return the final report.
/// Public so integration tests can bind their own ephemeral port first.
pub fn serve_on(
    db: Database,
    cfg: ssd_serve::ServeConfig,
    default_quota: ssd_serve::SessionQuota,
    listener: std::net::TcpListener,
    metrics_dump: bool,
    allow_shutdown: bool,
) -> Result<String, CliError> {
    serve_on_store(
        db,
        None,
        cfg,
        default_quota,
        listener,
        metrics_dump,
        allow_shutdown,
    )
}

/// [`serve_on`], with an optional durable store: when present, the
/// server starts from the store's recovered snapshot (the `db` argument
/// only seeds `Store::init` on first run) and accepts mutation verbs.
#[allow(clippy::too_many_arguments)]
pub fn serve_on_store(
    db: Database,
    store: Option<std::sync::Arc<ssd_store::Store>>,
    cfg: ssd_serve::ServeConfig,
    default_quota: ssd_serve::SessionQuota,
    listener: std::net::TcpListener,
    metrics_dump: bool,
    allow_shutdown: bool,
) -> Result<String, CliError> {
    let server = match store {
        Some(store) => std::sync::Arc::new(ssd_serve::Server::start_with_store(store, cfg)),
        None => std::sync::Arc::new(ssd_serve::Server::start(std::sync::Arc::new(db), cfg)),
    };
    ssd_serve::net::serve_tcp(
        std::sync::Arc::clone(&server),
        listener,
        default_quota,
        allow_shutdown,
    )
    .map_err(|e| CliError::Failed(format!("serve: {e}")))?;
    let metrics = server.shutdown();
    if metrics_dump {
        Ok(format!(
            "{}{}",
            metrics.render(),
            metrics.render_prometheus()
        ))
    } else {
        Ok("server stopped".to_owned())
    }
}

fn cmd_client(rest: &[&str], stdin: &mut impl Read) -> Result<String, CliError> {
    let port: u16 = one(rest, "client PORT (commands on stdin)")?
        .parse()
        .map_err(|_| CliError::Usage("client PORT (commands on stdin)".into()))?;
    let mut script = String::new();
    stdin
        .read_to_string(&mut script)
        .map_err(|e| CliError::Failed(format!("reading stdin: {e}")))?;
    client_script(port, &script)
}

/// Drive one connection: each non-blank, non-`#` line of `script` is one
/// command frame. After the script, wait for every submitted job to
/// finish (`JOB n DONE`/`JOB n ERR`), close with `BYE` if the script did
/// not, and return everything the server said, one frame per block.
pub fn client_script(port: u16, script: &str) -> Result<String, CliError> {
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| CliError::Failed(format!("connect 127.0.0.1:{port}: {e}")))?;
    let fail = |what: &str, e: std::io::Error| CliError::Failed(format!("{what}: {e}"));

    // Commands pipeline freely: the server's reader drains frames in
    // order, and job output is tagged with its job id.
    let mut owed = 0usize; // command responses not yet seen
    let mut closing = false; // sent BYE or SHUTDOWN
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        stream
            .write_all(&ssd_serve::encode_frame(line))
            .map_err(|e| fail("send", e))?;
        owed += 1;
        closing |= line == "BYE" || line == "SHUTDOWN";
    }

    let mut out = String::new();
    let mut pending: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        loop {
            match ssd_serve::decode_frame(&buf) {
                Ok(None) => break,
                Ok(Some((payload, used))) => {
                    buf.drain(..used);
                    note_frame(&payload, &mut owed, &mut pending);
                    out.push_str(&payload);
                    out.push('\n');
                }
                Err(e) => return Err(CliError::Failed(format!("server sent a bad frame: {e}"))),
            }
        }
        if owed == 0 && pending.is_empty() {
            if closing {
                break;
            }
            stream
                .write_all(&ssd_serve::encode_frame("BYE"))
                .map_err(|e| fail("send BYE", e))?;
            owed += 1;
            closing = true;
        }
        match std::io::Read::read(&mut stream, &mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    Ok(out)
}

/// Bookkeeping for [`client_script`]: which frames answer a command
/// (`OK`/`ERR`/`STATS`), and which open or settle a job stream.
fn note_frame(payload: &str, owed: &mut usize, pending: &mut std::collections::HashSet<u64>) {
    let head = payload.lines().next().unwrap_or("");
    if head.starts_with("OK") || head.starts_with("ERR") || head.starts_with("STATS") {
        *owed = owed.saturating_sub(1);
        if let Some(rest) = head.strip_prefix("OK job=") {
            if let Ok(id) = rest.split_whitespace().next().unwrap_or("").parse::<u64>() {
                pending.insert(id);
            }
        }
    } else if let Some(rest) = head.strip_prefix("JOB ") {
        let mut it = rest.split_whitespace();
        if let (Some(id), Some(kind)) = (it.next(), it.next()) {
            if kind != "CHUNK" {
                if let Ok(id) = id.parse::<u64>() {
                    pending.remove(&id);
                }
            }
        }
    }
}

fn one<'a>(rest: &[&'a str], usage: &str) -> Result<&'a str, CliError> {
    match rest {
        [only] => Ok(only),
        _ => Err(CliError::Usage(usage.to_owned())),
    }
}

fn split_first<'a>(rest: &[&'a str], usage: &str) -> Result<(&'a str, Vec<&'a str>), CliError> {
    match rest.split_first() {
        Some((first, tail)) if !tail.is_empty() => Ok((first, tail.to_vec())),
        _ => Err(CliError::Usage(usage.to_owned())),
    }
}

/// Read a file path or stdin (`-`) into a string.
fn read_path_or_stdin(path: &str, stdin: &mut impl Read) -> Result<String, CliError> {
    if path == "-" {
        let mut buf = String::new();
        stdin
            .read_to_string(&mut buf)
            .map_err(|e| CliError::Failed(format!("reading stdin: {e}")))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("reading {path}: {e}")))
    }
}

/// Load a database from a path or stdin (`-`).
fn load_db(path: &str, stdin: &mut impl Read) -> Result<Database, CliError> {
    Database::from_literal(&read_path_or_stdin(path, stdin)?).map_err(CliError::Failed)
}

/// An argument that is either literal text or `@file`.
fn arg_or_file(arg: &str) -> Result<String, CliError> {
    if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("reading {path}: {e}")))
    } else {
        Ok(arg.to_owned())
    }
}

/// Run REPL commands (one per line) against a loaded database. Used by
/// `ssd repl` with stdin as the script; errors are reported inline so a
/// bad line never aborts the session.
pub fn run_repl(db: &Database, script: &str) -> String {
    let mut out = String::new();
    for (lineno, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (cmd, arg) = match line.split_once(' ') {
            Some((c, a)) => (c, a.trim()),
            None => (line, ""),
        };
        let result: Result<String, CliError> = match cmd {
            "quit" | "exit" => break,
            "stats" => Ok(cmd_stats(db)),
            "query" => cmd_query(db, arg, &Guard::unlimited(), None),
            "datalog" => cmd_datalog(db, arg, None, &Guard::unlimited(), None),
            "browse" => match arg.split_once(' ') {
                Some((mode, rest)) => cmd_browse(db, mode, rest.trim()),
                None => Err(CliError::Usage("browse (string|ints|attrs) ARG".into())),
            },
            "rewrite" => db
                .rewrite(&format!("rewrite {arg}"))
                .map(|d| d.to_literal())
                .map_err(CliError::Failed),
            "schema" => Ok(db.extract_schema().to_string()),
            "dataguide" => Ok(cmd_dataguide(db, db.dataguide())),
            "fmt" => Ok(db.to_literal()),
            "json" => db.to_json().map_err(CliError::Failed),
            "help" => Ok(
                "commands: stats | query Q | datalog RULES | browse MODE ARG | \
                 rewrite CASES | schema | dataguide | fmt | json | quit"
                    .to_owned(),
            ),
            other => Err(CliError::Usage(format!("unknown repl command '{other}'"))),
        };
        match result {
            Ok(text) => writeln_str(&mut out, &text.to_string()),
            Err(e) => writeln_str(&mut out, &format!("! line {}: {e}", lineno + 1)),
        };
    }
    out.trim_end().to_owned()
}

fn writeln_str(buf: &mut String, s: &str) {
    buf.push_str(s);
    buf.push('\n');
}

fn cmd_stats(db: &Database) -> String {
    let profile = semistructured::graph::stats::profile(db.graph());
    let guide = db.dataguide();
    format!(
        "{profile}\ndataguide states: {}\nextracted schema nodes: {}",
        guide.node_count(),
        db.extract_schema().node_count()
    )
}

fn cmd_query(
    db: &Database,
    text: &str,
    guard: &Guard,
    tracer: Option<&semistructured::trace::Tracer>,
) -> Result<String, CliError> {
    let result = db
        .query_traced(text, Some(guard), tracer)
        .map_err(CliError::Failed)?;
    let stats = result.stats();
    let mut out = String::new();
    for w in &stats.warnings {
        out.push_str(&format!("{w}\n"));
    }
    out.push_str(&format!(
        "{}\n-- {} result(s), {} assignment(s) tried, {} RPE evaluation(s)",
        result.to_literal(),
        result.graph().out_degree(result.graph().root()),
        stats.assignments_tried,
        stats.rpe_evals
    ));
    Ok(out)
}

/// `ssd check`: run the static analyzer over a query or datalog program
/// without evaluating it. Errors (and, under `--deny-warnings`, any
/// diagnostic at all) make the command fail so CI can gate on it.
fn cmd_check(
    db: &Database,
    kind: &str,
    text: &str,
    deny_warnings: bool,
    explain: bool,
    estimate: bool,
) -> Result<String, CliError> {
    let (mut diags, types) = match kind {
        "query" => {
            let schema = db.extract_schema();
            let (query, _spans, analysis) =
                semistructured::query::analyze_query_src(text, Some(&schema))
                    .map_err(|e| CliError::Failed(e.to_string()))?;
            let types = analysis
                .types
                .as_ref()
                .filter(|_| explain)
                .map(|t| t.explain(&query));
            (analysis.diagnostics, types)
        }
        "datalog" => {
            let diags = db.check_datalog(text).map_err(CliError::Failed)?;
            // Refused programs have no access paths; the diagnostics say why.
            (diags, explain.then(|| explain_datalog(db, text)).flatten())
        }
        other => {
            return Err(CliError::Usage(format!(
                "check kind must be query|datalog, got '{other}'"
            )))
        }
    };
    let mut envelope = None;
    if estimate {
        let cost = match kind {
            "query" => db.estimate_query(text),
            _ => db.estimate_datalog(text),
        }
        .map_err(CliError::Failed)?;
        diags.extend(cost.diagnostics);
        diags = diags.sorted_by_span();
        envelope = Some(cost.envelope);
    }
    let errors = diags.error_count();
    // Severity-exact: SSD033 notes are informational and must not trip
    // `--deny-warnings`.
    let warnings = diags.warning_count();
    let mut out = String::new();
    if diags.is_empty() {
        out.push_str("no diagnostics");
    } else {
        out.push_str(diags.render_all(text, kind).trim_end());
        out.push_str(&format!("\n-- {errors} error(s), {warnings} warning(s)"));
    }
    if let Some(env) = envelope {
        out.push_str(&format!("\n-- estimated cost: {env}"));
    }
    if let Some(t) = types {
        out.push_str(&format!("\n{}", t.trim_end()));
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err(CliError::Failed(out));
    }
    Ok(out)
}

/// `ssd check DATA datalog PROGRAM --explain`: per body literal, the
/// access path the evaluator will use — the datalog counterpart of
/// `ssd explain`'s per-binding `access=`.
fn explain_datalog(db: &Database, text: &str) -> Option<String> {
    let paths = db.datalog_access(text).ok()?;
    let (program, spans) =
        semistructured::triples::datalog::parse_program_spanned(text, db.graph().symbols()).ok()?;
    let src = |span: Option<semistructured::diag::Span>| {
        span.and_then(|s| text.get(s.start..s.end)).unwrap_or("?")
    };
    let mut out = "access:\n".to_owned();
    for (i, (rule, access)) in program.rules.iter().zip(&paths).enumerate() {
        out.push_str(&format!("  rule {i}: {}\n", src(spans.head(i))));
        for (j, (lit, path)) in rule.body.iter().zip(access).enumerate() {
            let not = if lit.positive { "" } else { "not " };
            out.push_str(&format!(
                "    {not}{}  access={path}\n",
                src(spans.body(i, j))
            ));
        }
    }
    Some(out)
}

const EXPLAIN_USAGE: &str =
    "explain DATA QUERY [--analyze] (resource-limit and tracing flags accepted)";

/// `ssd explain`: print the query plan with its static cost envelope;
/// with `--analyze`, also run the query and print per-operator actual
/// counters beside the estimate (the envelope should bracket them —
/// `tests/cost_soundness.rs` asserts exactly that property).
fn cmd_explain(
    db: &Database,
    text: &str,
    analyze: bool,
    budget: Budget,
    trace: &TraceOpts,
) -> Result<String, CliError> {
    let query =
        semistructured::query::parse_query(text).map_err(|e| CliError::Failed(e.to_string()))?;
    let est = db.estimate_query(text).map_err(CliError::Failed)?;
    let mut out = format!("plan ({} binding(s)):\n", query.bindings.len());
    let access = db.select_access(&query);
    let paths = access.binding_access(query.bindings.len());
    for (i, b) in query.bindings.iter().enumerate() {
        let matches = est
            .per_binding
            .get(i)
            .map(|iv| format!("  est-matches {iv}"))
            .unwrap_or_default();
        let path = paths
            .get(i)
            .map(|a| format!("  access={a}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  binding {i}: {} <- {}{matches}{path}\n",
            b.var, b.path
        ));
    }
    if let Some(reason) = access.fallback_reason() {
        out.push_str(&format!("-- SSD050: interpreter retained: {reason}\n"));
    }
    out.push_str(&format!("-- estimated cost: {}", est.envelope));
    if !analyze {
        return Ok(out);
    }
    let budget = ensure_metered(budget);
    let (tracer, ring) = trace.build_always()?;
    let guard = budget.guard();
    let result = db
        .query_traced(text, Some(&guard), Some(&tracer))
        .map_err(CliError::Failed)?;
    tracer.flush();
    let stats = result.stats();
    out.push_str(&format!(
        "\n-- actual cost: fuel={} memory={} results={} root_edges={}\n",
        guard.steps_used(),
        guard.memory_used(),
        stats.results_constructed,
        result.graph().out_degree(result.graph().root())
    ));
    out.push_str("per-operator (actuals):\n");
    for bp in &stats.per_binding {
        out.push_str(&format!(
            "  {} <- {}: tried={} matched={} fuel={}\n",
            bp.var, bp.path, bp.tried, bp.matched, bp.fuel
        ));
    }
    out.push_str("phase totals (spans fuel):\n");
    for line in semistructured::trace::phase_totals(&ring.snapshot()).lines() {
        out.push_str(&format!("  {line}\n"));
    }
    let mut out = out.trim_end().to_owned();
    trace.append(&ring, &mut out);
    Ok(out)
}

fn cmd_datalog(
    db: &Database,
    program: &str,
    pred: Option<&str>,
    guard: &Guard,
    tracer: Option<&semistructured::trace::Tracer>,
) -> Result<String, CliError> {
    let eval = db
        .datalog_traced(program, Some(guard), tracer)
        .map_err(CliError::Failed)?;
    let mut out = String::new();
    if eval.truncated.is_some() {
        out = prepend_truncation(guard, out);
    }
    let symbols = db.graph().symbols();
    for p in eval.predicates() {
        if pred.is_some_and(|want| want != p) {
            continue;
        }
        out.push_str(&format!("{p}: {} tuple(s)\n", eval.count(p)));
        for t in eval.tuples(p).take(20) {
            let row: Vec<String> = t
                .iter()
                .map(|d| match d {
                    Datum::Node(n) => n.to_string(),
                    Datum::Label(l) => l.display(symbols).to_string(),
                })
                .collect();
            out.push_str(&format!("  ({})\n", row.join(", ")));
        }
        if eval.count(p) > 20 {
            out.push_str("  ...\n");
        }
    }
    out.push_str(&format!(
        "-- {} iteration(s), {} rule evaluation(s)",
        eval.iterations, eval.rule_evaluations
    ));
    Ok(out)
}

fn cmd_browse(db: &Database, mode: &str, arg: &str) -> Result<String, CliError> {
    let (hits, mut out) = match mode {
        "string" => {
            let hits = db.find_string(arg);
            let head = format!("{} occurrence(s) of {arg:?}", hits.len());
            (hits, head)
        }
        "ints" => {
            let threshold: i64 = arg
                .parse()
                .map_err(|_| CliError::Usage(format!("'{arg}' is not an integer")))?;
            let hits = db.ints_greater(threshold);
            let head = format!("{} integer(s) greater than {threshold}", hits.len());
            (hits, head)
        }
        "attrs" => {
            let hits = db.attrs_with_prefix(arg);
            let head = format!("{} attribute edge(s) with prefix {arg:?}", hits.len());
            (hits, head)
        }
        other => {
            return Err(CliError::Usage(format!(
                "browse mode must be string|ints|attrs, got '{other}'"
            )))
        }
    };
    let symbols = db.graph().symbols();
    for hit in &hits {
        let path: Vec<String> = hit
            .path
            .iter()
            .map(|l| l.display(symbols).to_string())
            .collect();
        out.push_str(&format!(
            "\n  {} at root.{}",
            hit.label.display(symbols),
            path.join(".")
        ));
    }
    Ok(out)
}

fn cmd_dataguide(db: &Database, guide: &semistructured::DataGuide) -> String {
    let mut out = format!(
        "DataGuide: {} state(s) summarising {} data node(s)\n",
        guide.node_count(),
        db.graph().reachable().len()
    );
    out.push_str("paths up to length 3:\n");
    let mut paths = guide.paths_up_to(3);
    paths.sort_by_key(|p| {
        p.iter()
            .map(|l| l.display(db.graph().symbols()).to_string())
            .collect::<Vec<_>>()
            .join(".")
    });
    for p in paths.iter().take(40) {
        let shown: Vec<String> = p
            .iter()
            .map(|l| l.display(db.graph().symbols()).to_string())
            .collect();
        let targets = guide.path_targets(p).len();
        out.push_str(&format!("  {} -> {} node(s)\n", shown.join("."), targets));
    }
    if paths.len() > 40 {
        out.push_str(&format!("  ... and {} more\n", paths.len() - 40));
    }
    out.trim_end().to_owned()
}

// Re-export the pieces `main.rs` uses.
pub use CliError as Error;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn run_str(args: &[&str], stdin: &str) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        run(&owned, &mut Cursor::new(stdin.as_bytes()))
    }

    const DATA: &str = r#"{Entry: {Movie: {Title: "Casablanca",
                                      Cast: {Actors: "Bogart"},
                                      Year: 1942}}}"#;

    #[test]
    fn output_ends_quietly_on_a_broken_pipe() {
        struct Failing(ErrorKind);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(self.0.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(write_output(&mut Failing(ErrorKind::BrokenPipe), "x").is_ok());
        let err = write_output(&mut Failing(ErrorKind::PermissionDenied), "x").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::PermissionDenied);
        let mut buf = Vec::new();
        write_output(&mut buf, "a\nb").unwrap();
        assert_eq!(buf, b"a\nb\n");
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_str(&["help"], "").unwrap().contains("ssd stats"));
        assert!(run_str(&[], "").unwrap().contains("ssd stats"));
        assert!(matches!(
            run_str(&["frobnicate"], ""),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn stats_from_stdin() {
        let out = run_str(&["stats", "-"], DATA).unwrap();
        assert!(out.contains("nodes"));
        assert!(out.contains("dataguide states"));
    }

    #[test]
    fn query_from_stdin() {
        let out = run_str(
            &["query", "-", "select T from db.Entry.Movie.Title T"],
            DATA,
        )
        .unwrap();
        assert!(out.contains("Casablanca"));
        assert!(out.contains("1 result(s)"));
    }

    #[test]
    fn optimized_flag_is_a_usage_error() {
        // The engine picks the plan; no flag asks for one.
        for cmd in ["query", "explain"] {
            let err = run_str(
                &[
                    cmd,
                    "-",
                    "select T from db.Entry.Movie.Title T",
                    "--optimized",
                ],
                DATA,
            )
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{cmd}: {err}");
        }
    }

    #[test]
    fn query_error_is_failure_not_usage() {
        let err = run_str(&["query", "-", "select banana"], DATA).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }

    #[test]
    fn datalog_from_stdin() {
        let out = run_str(
            &[
                "datalog",
                "-",
                "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("reach:"));
        assert!(out.contains("iteration"));
    }

    #[test]
    fn datalog_tuples_render_labels_by_name() {
        let out = run_str(&["datalog", "-", "e(X, L, Y) :- edge(X, L, Y)."], DATA).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.contains(&"  (&0, Entry, &1)"), "{out}");
        assert!(lines.contains(&"  (&3, \"Casablanca\", &6)"), "{out}");
    }

    #[test]
    fn datalog_pred_filter() {
        let out = run_str(
            &["datalog", "-", "a(X) :- root(X).\nb(X) :- root(X).", "a"],
            DATA,
        )
        .unwrap();
        assert!(out.contains("a: 1"));
        assert!(!out.contains("b: 1"));
    }

    #[test]
    fn check_clean_query_has_no_diagnostics() {
        let out = run_str(
            &[
                "check",
                "-",
                "query",
                "select T from db.Entry.Movie.Title T",
            ],
            DATA,
        )
        .unwrap();
        assert_eq!(out, "no diagnostics");
    }

    #[test]
    fn check_warnings_render_but_pass() {
        let out = run_str(
            &["check", "-", "query", "select M from db.Entry M, M.Movie N"],
            DATA,
        )
        .unwrap();
        assert!(out.contains("warning[SSD004]"), "{out}");
        assert!(out.contains("0 error(s), 1 warning(s)"), "{out}");
    }

    #[test]
    fn check_deny_warnings_fails() {
        let err = run_str(
            &[
                "check",
                "-",
                "query",
                "select M from db.Entry M, M.Movie N",
                "--deny-warnings",
            ],
            DATA,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD004")),
            "{err}"
        );
    }

    #[test]
    fn check_errors_fail_with_spans() {
        let err = run_str(&["check", "-", "query", "select X from db.Entry _E"], DATA).unwrap_err();
        match err {
            CliError::Failed(m) => {
                assert!(m.contains("error[SSD001]"), "{m}");
                assert!(m.contains('^'), "{m}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn check_explain_prints_binding_types() {
        let out = run_str(
            &[
                "check",
                "-",
                "query",
                "select T from db.Entry.Movie.Title T",
                "--explain",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("binding 0"), "{out}");
        assert!(out.contains("`T`"), "{out}");
    }

    #[test]
    fn check_schema_impossible_path_warns() {
        let out = run_str(
            &["check", "-", "query", "select X from db.Bogus.Nowhere X"],
            DATA,
        )
        .unwrap();
        assert!(out.contains("warning[SSD010]"), "{out}");
    }

    #[test]
    fn check_datalog_diagnostics() {
        let err = run_str(
            &["check", "-", "datalog", "q(X, Y, Z) :- edge(X, Y)."],
            DATA,
        )
        .unwrap_err();
        match err {
            CliError::Failed(m) => {
                assert!(m.contains("SSD020"), "{m}");
                assert!(m.contains("SSD021"), "{m}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        let clean = run_str(&["check", "-", "datalog", "reach(X) :- root(X)."], DATA).unwrap();
        assert_eq!(clean, "no diagnostics");
    }

    #[test]
    fn check_usage_errors() {
        assert!(matches!(
            run_str(&["check", "-", "query"], DATA),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["check", "-", "sparql", "x"], DATA),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_explain_knows_lint_codes_only() {
        let out = run_str(&["lint", "--explain", "SSD903"], "").unwrap();
        assert!(out.starts_with("SSD903"), "{out}");
        assert!(matches!(
            run_str(&["lint", "--explain", "SSD001"], ""),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["lint", "--explain"], ""),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_loc_prints_per_crate_lines_and_a_total() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let fixture = format!("{root}/tests/fixtures/lint-loc");
        let out = run_str(&["lint", &fixture, "--loc"], "").unwrap();
        assert_eq!(
            out,
            "crate        lines\ndemo            12\nother            1\ntotal           13"
        );
    }

    #[test]
    fn lint_passes_on_the_workspace_and_fails_on_the_fixture() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let out = run_str(&["lint", root, "--deny-warnings"], "").unwrap();
        assert!(out.contains("clean"), "{out}");
        let bad = format!("{root}/tests/fixtures/lint-bad");
        let err = run_str(&["lint", &bad], "").unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD901") && m.contains("SSD905")),
            "{err}"
        );
        // The interprocedural band fires through the CLI too.
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD910") && m.contains("SSD914")),
            "{err}"
        );
    }

    #[test]
    fn lint_json_renders_one_object_per_line() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let bad = format!("{root}/tests/fixtures/lint-bad");
        let CliError::Failed(json) = run_str(&["lint", &bad, "--json"], "").unwrap_err() else {
            panic!("fixture lint should fail");
        };
        assert!(!json.is_empty());
        for line in json.lines() {
            assert!(
                line.starts_with("{\"code\":\"SSD9") && line.ends_with('}'),
                "malformed JSON line: {line}"
            );
            for key in ["\"severity\":", "\"file\":", "\"line\":", "\"message\":"] {
                assert!(line.contains(key), "missing {key}: {line}");
            }
        }
        // A clean workspace renders an empty JSON stream.
        let out = run_str(&["lint", root, "--json"], "").unwrap();
        assert_eq!(out, "");
    }

    #[test]
    fn query_surfaces_analyzer_warnings() {
        let out = run_str(&["query", "-", "select M from db.Entry M, M.Movie N"], DATA).unwrap();
        assert!(out.contains("warning[SSD004]"), "{out}");
    }

    #[test]
    fn browse_modes() {
        let s = run_str(&["browse", "-", "string", "Casablanca"], DATA).unwrap();
        assert!(s.contains("1 occurrence"));
        assert!(s.contains("Entry.Movie.Title"));
        let i = run_str(&["browse", "-", "ints", "1900"], DATA).unwrap();
        assert_eq!(
            i,
            "1 integer(s) greater than 1900\n  1942 at root.Entry.Movie.Year"
        );
        let none = run_str(&["browse", "-", "ints", &i64::MAX.to_string()], DATA).unwrap();
        assert_eq!(none, format!("0 integer(s) greater than {}", i64::MAX));
        let all = run_str(&["browse", "-", "ints", &i64::MIN.to_string()], DATA).unwrap();
        assert!(all.starts_with("1 integer(s)"), "{all}");
        let movies = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/movies.ssd");
        let m = run_str(&["browse", movies, "ints", "1900"], "").unwrap();
        assert!(
            m.lines().any(|l| l == "  1941 at root.Entry.Movie.Year"),
            "{m}"
        );
        let a = run_str(&["browse", "-", "attrs", "Act"], DATA).unwrap();
        assert!(a.contains("1 attribute"));
        assert!(matches!(
            run_str(&["browse", "-", "bogus", "x"], DATA),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["browse", "-", "ints", "NaN"], DATA),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn rewrite_from_stdin() {
        let out = run_str(&["rewrite", "-", "rewrite case Cast => collapse"], DATA).unwrap();
        assert!(out.contains("Actors"));
        assert!(!out.contains("Cast"));
    }

    #[test]
    fn schema_and_dataguide() {
        let s = run_str(&["schema", "-"], DATA).unwrap();
        assert!(s.contains("schema (root"));
        let g = run_str(&["dataguide", "-"], DATA).unwrap();
        assert!(g.contains("DataGuide:"));
        assert!(g.contains("Entry.Movie.Title"));
    }

    #[test]
    fn dot_and_fmt() {
        let d = run_str(&["dot", "-"], DATA).unwrap();
        assert!(d.starts_with("digraph"));
        let f = run_str(&["fmt", "-"], DATA).unwrap();
        // Round trips.
        let again = run_str(&["fmt", "-"], &f).unwrap();
        assert_eq!(f, again);
    }

    #[test]
    fn file_arguments() {
        let dir = std::env::temp_dir().join("ssd-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.ssd");
        std::fs::write(&data_path, DATA).unwrap();
        let query_path = dir.join("q.ssdq");
        std::fs::write(&query_path, "select T from db.Entry.Movie.Title T").unwrap();
        let out = run_str(
            &[
                "query",
                data_path.to_str().unwrap(),
                &format!("@{}", query_path.display()),
            ],
            "",
        )
        .unwrap();
        assert!(out.contains("Casablanca"));
        let missing = run_str(&["stats", "/nonexistent/nope.ssd"], "");
        assert!(matches!(missing, Err(CliError::Failed(_))));
    }

    #[test]
    fn query_step_limit_renders_diagnostic() {
        let err = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.Movie.Title T",
                "--max-steps",
                "1",
            ],
            DATA,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD101")),
            "{err}"
        );
    }

    #[test]
    fn admission_strict_rejects_before_evaluation() {
        let err = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.%.Title T",
                "--max-steps",
                "1",
                "--admission=strict",
            ],
            DATA,
        )
        .unwrap_err();
        match err {
            CliError::Failed(m) => {
                assert!(m.contains("error[SSD030]"), "{m}");
                // Rejected statically — no runtime-exhaustion diagnostic.
                assert!(!m.contains("SSD101"), "{m}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // A budget the envelope fits sails through.
        let ok = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.Movie.Title T",
                "--max-steps",
                "1000000",
                "--admission=strict",
            ],
            DATA,
        )
        .unwrap();
        assert!(ok.contains("Casablanca"), "{ok}");
    }

    #[test]
    fn strict_admission_takes_precedence_over_partial() {
        // --partial cannot soften a strict rejection: the job never
        // starts, and the SSD034 note says so explicitly.
        let err = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.%.Title T",
                "--max-steps",
                "1",
                "--partial",
                "--admission=strict",
            ],
            DATA,
        )
        .unwrap_err();
        match err {
            CliError::Failed(m) => {
                assert!(m.contains("error[SSD030]"), "{m}");
                assert!(m.contains("note[SSD034]"), "{m}");
                assert!(!m.contains("SSD107"), "no truncation ran: {m}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // Without --partial the note would be noise; it is absent.
        let err = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.%.Title T",
                "--max-steps",
                "1",
                "--admission=strict",
            ],
            DATA,
        )
        .unwrap_err();
        match err {
            CliError::Failed(m) => assert!(!m.contains("SSD034"), "{m}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn serve_and_client_round_trip() {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let db = Database::from_literal(DATA).unwrap();
        let server = std::thread::spawn(move || {
            serve_on(
                db,
                ssd_serve::ServeConfig::default(),
                ssd_serve::SessionQuota::default(),
                listener,
                true,
                true,
            )
        });

        // Session 1: query + stats; client waits for the job, then BYE.
        let out = client_script(
            port,
            "HELLO fuel=1000000\nQUERY select T from db.Entry.Movie.Title T\nSTATS\n",
        )
        .unwrap();
        assert!(out.contains("OK session s1"), "{out}");
        assert!(out.contains("OK job=1"), "{out}");
        assert!(out.contains("Casablanca"), "{out}");
        assert!(out.contains("JOB 1 DONE"), "{out}");
        assert!(out.contains("admitted"), "{out}");
        assert!(out.contains("OK bye"), "{out}");

        // Session 2: a per-job ceiling the envelope cannot fit → SSD030,
        // rejected before any engine work.
        let out = client_script(
            port,
            "HELLO job-fuel=1\nQUERY select T from db.Entry.%.Title T\n",
        )
        .unwrap();
        assert!(out.contains("ERR error[SSD030]"), "{out}");

        let out = client_script(port, "SHUTDOWN\n").unwrap();
        assert!(out.contains("OK shutting down"), "{out}");
        let dump = server.join().unwrap().unwrap();
        assert!(dump.contains("admitted 1"), "{dump}");
        assert!(dump.contains("rejected 1"), "{dump}");
        assert!(dump.contains("completed 1"), "{dump}");
    }

    #[test]
    fn admission_warn_runs_anyway() {
        let out = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.%.Title T",
                "--max-steps",
                "1",
                "--partial",
                "--admission",
                "warn",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("warning[SSD030]"), "{out}");
        assert!(out.contains("result(s)"), "{out}");
    }

    #[test]
    fn admission_strict_gates_datalog_too() {
        let err = run_str(
            &[
                "datalog",
                "-",
                "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
                "--max-steps",
                "1",
                "--admission=strict",
            ],
            DATA,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD030")),
            "{err}"
        );
    }

    #[test]
    fn admission_usage_errors() {
        assert!(matches!(
            run_str(
                &["query", "-", "select T from db.T T", "--admission=later"],
                DATA
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(&["query", "-", "select T from db.T T", "--admission"], DATA),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_estimate_prints_envelope_and_passes_deny_warnings() {
        let out = run_str(
            &[
                "check",
                "-",
                "query",
                "select T from db.Entry.Movie.Title T",
                "--estimate",
                "--deny-warnings",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("estimated cost:"), "{out}");
        assert!(out.contains("fuel ["), "{out}");
    }

    #[test]
    fn check_estimate_surfaces_cost_diagnostics() {
        // A cross product: SSD032 appears only with --estimate.
        let plain = run_str(
            &[
                "check",
                "-",
                "query",
                "select {a: M, b: N} from db.Entry M, db.Entry N",
            ],
            DATA,
        )
        .unwrap();
        assert!(!plain.contains("SSD032"), "{plain}");
        let est = run_str(
            &[
                "check",
                "-",
                "query",
                "select {a: M, b: N} from db.Entry M, db.Entry N",
                "--estimate",
            ],
            DATA,
        )
        .unwrap();
        assert!(est.contains("warning[SSD032]"), "{est}");
        assert!(est.contains("`M`") && est.contains("`N`"), "{est}");
        // Datalog recursion: SSD031 under --estimate.
        let dl = run_str(
            &[
                "check",
                "-",
                "datalog",
                "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
                "--estimate",
            ],
            DATA,
        )
        .unwrap();
        assert!(dl.contains("warning[SSD031]"), "{dl}");
        assert!(dl.contains("estimated cost:"), "{dl}");
    }

    #[test]
    fn query_partial_keeps_result_and_warns() {
        let out = run_str(
            &[
                "query",
                "-",
                "select T from db.Entry.Movie.Title T",
                "--max-steps",
                "1",
                "--partial",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("SSD107"), "{out}");
        assert!(out.contains("result(s)"), "{out}");
    }

    #[test]
    fn datalog_deadline_renders_diagnostic() {
        let err = run_str(
            &[
                "datalog",
                "-",
                "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
                "--timeout",
                "0",
            ],
            DATA,
        )
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD103")),
            "{err}"
        );
    }

    #[test]
    fn datalog_partial_is_well_formed() {
        let out = run_str(
            &[
                "datalog",
                "-",
                "reach(X) :- root(X).\nreach(Y) :- reach(X), edge(X, _L, Y).",
                "--max-steps",
                "2",
                "--partial",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("SSD107"), "{out}");
        assert!(out.contains("iteration"), "{out}");
    }

    #[test]
    fn schema_and_dataguide_accept_limits() {
        let s = run_str(&["schema", "-", "--max-steps", "100000"], DATA).unwrap();
        assert!(s.contains("schema (root"), "{s}");
        let g = run_str(&["dataguide", "-", "--max-steps", "100000"], DATA).unwrap();
        assert!(g.contains("DataGuide:"), "{g}");
        let err = run_str(&["dataguide", "-", "--max-steps", "1"], DATA).unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(m) if m.contains("SSD101")),
            "{err}"
        );
    }

    #[test]
    fn rewrite_accepts_limits() {
        let out = run_str(
            &[
                "rewrite",
                "-",
                "rewrite case Cast => collapse",
                "--max-steps",
                "100000",
            ],
            DATA,
        )
        .unwrap();
        assert!(out.contains("Actors"), "{out}");
    }

    #[test]
    fn budget_flag_usage_errors() {
        assert!(matches!(
            run_str(&["query", "-", "select T from db.T T", "--max-steps"], DATA),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_str(
                &["query", "-", "select T from db.T T", "--timeout", "soon"],
                DATA
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn engine_panic_is_isolated_as_ssd111() {
        let err = run_str(&["__panic"], "").unwrap_err();
        match err {
            CliError::Failed(m) => {
                assert!(m.contains("SSD111"), "{m}");
                assert!(m.contains("deliberate test panic"), "{m}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn conforms_between_files() {
        let dir = std::env::temp_dir().join("ssd-cli-test2");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.ssd");
        std::fs::write(&a, DATA).unwrap();
        let b = dir.join("b.ssd");
        std::fs::write(
            &b,
            r#"{Entry: {Movie: {Title: "Other", Cast: {Actors: "X"}, Year: 2000}}}"#,
        )
        .unwrap();
        let out = run_str(&["conforms", a.to_str().unwrap(), b.to_str().unwrap()], "").unwrap();
        assert_eq!(out, "true");
        let c = dir.join("c.ssd");
        std::fs::write(&c, r#"{Ship: {Name: "Nostromo"}}"#).unwrap();
        let out2 = run_str(&["conforms", c.to_str().unwrap(), a.to_str().unwrap()], "").unwrap();
        assert_eq!(out2, "false");
    }
}

#[cfg(test)]
mod json_cli_tests {
    use super::*;
    use std::io::Cursor;

    fn run_str(args: &[&str], stdin: &str) -> Result<String, CliError> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        run(&owned, &mut Cursor::new(stdin.as_bytes()))
    }

    #[test]
    fn json_export_and_import() {
        let out = run_str(&["json", "-"], r#"{Movie: {Title: "C", Year: 1942}}"#).unwrap();
        assert!(out.contains(r#""Title":"C""#));
        let lit = run_str(&["import-json", "-"], &out).unwrap();
        assert!(lit.contains("Title"));
    }

    #[test]
    fn json_refuses_cycles() {
        let err = run_str(&["json", "-"], "@x = {next: @x}").unwrap_err();
        assert!(matches!(err, CliError::Failed(_)));
    }
}

#[cfg(test)]
mod diff_cli_tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn diff_between_files() {
        let dir = std::env::temp_dir().join("ssd-cli-diff");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.ssd");
        std::fs::write(&a, r#"{Movie: {Title: "C"}}"#).unwrap();
        let b = dir.join("b.ssd");
        std::fs::write(&b, r#"{Movie: {Title: "C", Year: 1942}}"#).unwrap();
        let args: Vec<String> = ["diff", a.to_str().unwrap(), b.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&args, &mut Cursor::new(b"")).unwrap();
        assert!(out.contains("+ Movie.Year"), "{out}");
        let args2: Vec<String> = ["diff", a.to_str().unwrap(), a.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let same = run(&args2, &mut Cursor::new(b"")).unwrap();
        assert!(same.contains("identical"));
    }
}

#[cfg(test)]
mod xml_cli_tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn xml_export_import() {
        let args: Vec<String> = vec!["xml".into(), "-".into()];
        let out = run(
            &args,
            &mut Cursor::new(br#"{movie: {title: "C", year: 1942}}"#.as_slice()),
        )
        .unwrap();
        assert!(out.contains("<title>C</title>"), "{out}");
        let args2: Vec<String> = vec!["import-xml".into(), "-".into()];
        let lit = run(&args2, &mut Cursor::new(out.as_bytes())).unwrap();
        assert!(lit.contains("title"));
    }
}

#[cfg(test)]
mod repl_tests {
    use super::*;

    fn db() -> Database {
        Database::from_literal(r#"{Entry: {Movie: {Title: "Casablanca", Year: 1942}}}"#).unwrap()
    }

    #[test]
    fn repl_runs_commands_in_order() {
        let script = "\
# a comment\n\
stats\n\
query select T from db.Entry.Movie.Title T\n\
browse string Casablanca\n\
quit\n\
query never-reached\n";
        let out = run_repl(&db(), script);
        assert!(out.contains("nodes"));
        assert!(out.contains("Casablanca"));
        assert!(!out.contains("never-reached"));
    }

    #[test]
    fn repl_reports_errors_inline_and_continues() {
        let script = "query select banana\nstats\n";
        let out = run_repl(&db(), script);
        assert!(out.contains("! line 1"));
        assert!(out.contains("nodes"), "session must continue after error");
    }

    #[test]
    fn repl_rewrite_and_json() {
        let script = "rewrite case Year => delete\njson\n";
        let out = run_repl(&db(), script);
        assert!(!out.lines().next().unwrap().contains("Year"));
        assert!(out.contains("\"Title\":\"Casablanca\""));
    }

    #[test]
    fn repl_datalog_and_help() {
        let script = "datalog reach(X) :- root(X).\nhelp\nunknowncmd\n";
        let out = run_repl(&db(), script);
        assert!(out.contains("reach: 1"));
        assert!(out.contains("commands:"));
        assert!(out.contains("unknown repl command"));
    }

    #[test]
    fn repl_via_run_requires_file() {
        let args: Vec<String> = vec!["repl".into(), "-".into()];
        assert!(matches!(
            run(&args, &mut std::io::Cursor::new(b"")),
            Err(CliError::Usage(_))
        ));
    }
}
