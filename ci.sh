#!/bin/sh
# Offline CI gate: formatting, lints, release build, tests.
# Run from the repository root. Everything works without network access
# (registry access is satisfied by the committed Cargo.lock + vendor/).
set -eu

export CARGO_NET_OFFLINE=true

# Every server this script starts must be gone when it ends, and the
# worktree must be as it was found (both checked at the bottom against
# what was already there).
ssd_before=$(pgrep -x ssd | sort | tr '\n' ' ' || true)
tree_before=$(git status --porcelain)

echo "== cargo fmt --check" >&2
cargo fmt --all --check

echo "== cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release" >&2
# --locked: a build that would rewrite a Cargo.lock fails here, by name,
# instead of at the worktree check at the bottom.
cargo build --release --offline --locked

echo "== benchmark harness builds" >&2
# benchmark/ is a package of its own that the driver builds from source.
# Build it (only) so that API drift against what it calls fails here.
# --locked also pins benchmark/Cargo.lock: a new dependency edge between
# workspace crates would otherwise rewrite it.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
# Then run the driver's own command path, small: all four workloads at
# scale 10^4, once end to end (with its correctness check against a
# direct graph walk) and once traced. The traced onion is the only
# caller outside tests of its datalog layers (`datalog::evaluate_with`
# on `Database::triples()`) and of its commit layers (the id-stable
# mutators, `existing_index` and the `merge_delta` shim), and each
# `write_mix` run ends by reopening the store, which replays its WAL.
# Output goes to the git-ignored benchmark/out/.
bash benchmark/run.sh --quick >/dev/null

echo "== cargo test" >&2
cargo test -q --offline

echo "== ssd lint (workspace invariants, docs/LINTS.md)" >&2
# Replaces the old awk/grep panic-site gate: SSD903 enforces the
# token-accurate per-crate panic budgets in crates/lint/panic-budgets.txt
# (a two-way ratchet), and SSD901/902/904/905 gate registry sync, guard
# threading, lock order, and span discipline. The SSD91x band gates the
# interprocedural concurrency/durability invariants (lock inversion and
# blocking across call chains, atomic orderings, WAL publish protocol,
# fault-point coverage). --deny-warnings makes budget drift fail,
# matching the old hard gate.
./target/release/ssd lint --deny-warnings

echo "== ssd lint --loc (non-test lines per crate)" >&2
# The one line counter: lines under crates/*/src that hold a token once
# comments and #[cfg(test)]/#[test] items are elided.
./target/release/ssd lint --loc

echo "== ssd lint --json (machine-readable rendering)" >&2
# The seeded fixture must render as exactly one JSON object per line:
# findings with code/severity/file/line/message and nothing else. The
# fixture fails the lint (that is its job), so findings arrive on
# stderr behind the CLI's `error: ` prefix; strip it before checking.
lint_json=$(mktemp)
./target/release/ssd lint tests/fixtures/lint-bad --json 2>&1 | sed 's/^error: //' >"$lint_json"
[ -s "$lint_json" ] || { echo "ci: --json emitted nothing for the fixture" >&2; exit 1; }
if grep -vE '^\{"code":"SSD9[0-9]{2}","severity":"(error|warning)","file":"[^"]+","line":[0-9]+,"message":".*"\}$' "$lint_json"; then
    echo "ci: ssd lint --json emitted a malformed line (above)" >&2
    exit 1
fi
rm -f "$lint_json"

echo "== fault injection" >&2
cargo test -q --offline -p semistructured --test guard
if SSD_FAILPOINTS="datalog.round=1" ./target/release/ssd datalog examples/movies.ssd \
    'reach(X) :- root(X). reach(Y) :- reach(X), edge(X, _L, Y).' >/dev/null 2>&1; then
    echo "ci: SSD_FAILPOINTS fault did not surface as a failure" >&2
    exit 1
fi
# Closure smoke, CLI half: the serve smoke below must report the same
# `reach: N tuple(s)` line for the same program over the wire.
reach_prog='reach(X) :- root(X). reach(Y) :- reach(X), edge(X, _L, Y).'
reach_cli=$(timeout 60 ./target/release/ssd datalog examples/movies.ssd "$reach_prog" \
    | grep '^reach: [1-9][0-9]* tuple(s)$')

echo "== broken pipe smoke run" >&2
# A reader that stops early must not make `ssd` panic: output ends
# quietly. One run reaches the closed pipe most of the time; five make
# a regression all but certain to show.
pipe_err=$(mktemp)
for _ in 1 2 3 4 5; do
    ./target/release/ssd datalog examples/movies.ssd 'q(X) :- node(X).' \
        2>>"$pipe_err" | head -1 >/dev/null
done
if grep -q panicked "$pipe_err"; then
    echo "ci: ssd panicked writing to a closed pipe:" >&2
    cat "$pipe_err" >&2
    exit 1
fi
rm -f "$pipe_err"

echo "== literal writer round trip" >&2
# `ssd fmt` output depends on the graph alone: two runs print the same
# bytes, and formatting that output reproduces it exactly (escapes,
# quoted symbols, large reals and @nK names all read back as written).
fmt_a=$(mktemp); fmt_b=$(mktemp); fmt_c=$(mktemp)
./target/release/ssd fmt tests/fixtures/lexical.ssd >"$fmt_a"
./target/release/ssd fmt tests/fixtures/lexical.ssd >"$fmt_b"
./target/release/ssd fmt "$fmt_a" >"$fmt_c"
if ! cmp -s "$fmt_a" "$fmt_b" || ! cmp -s "$fmt_a" "$fmt_c"; then
    echo "ci: ssd fmt of tests/fixtures/lexical.ssd is not a fixed point:" >&2
    diff "$fmt_a" "$fmt_b" >&2 || true
    diff "$fmt_a" "$fmt_c" >&2 || true
    exit 1
fi
rm -f "$fmt_a" "$fmt_b" "$fmt_c"

echo "== governed query smoke run" >&2
smoke=$(timeout 60 ./target/release/ssd query examples/movies.ssd \
    'select T from db.Entry.Movie.Title T' --timeout 5 --max-steps 1000000)
echo "$smoke" | grep -q Casablanca

echo "== cost-estimator soundness" >&2
cargo test -q --offline -p semistructured --test cost_soundness

echo "== admission control smoke run" >&2
# Star-free join query: a finite envelope with no SSD03x warnings, so
# --deny-warnings is a real gate on the estimate path.
est=$(timeout 60 ./target/release/ssd check examples/movies.ssd query \
    'select T from db.Entry.Movie M, M.Title T' --estimate --deny-warnings)
echo "$est" | grep -q "estimated cost"
# Strict admission must refuse an over-budget query with SSD030, nonzero.
if ./target/release/ssd query examples/movies.ssd \
    'select T from db.Entry.Movie.Title T' \
    --max-steps 1 --admission strict >/dev/null 2>&1; then
    echo "ci: strict admission did not reject an over-budget query" >&2
    exit 1
fi

echo "== serve smoke run (3 concurrent sessions)" >&2
serve_log=$(mktemp)
timeout 120 ./target/release/ssd serve examples/movies.ssd --port 0 \
    --workers 1 --queue 8 --metrics-dump --allow-remote-shutdown \
    > "$serve_log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$serve_log")
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "ci: ssd serve did not print its listening port" >&2
    cat "$serve_log" >&2
    exit 1
fi
# Three sessions at once: one admitted, one forced to queue, one rejected.
a_out=$(mktemp); b_out=$(mktemp); c_out=$(mktemp)
# A's per-job ceiling keeps its first job from taking the whole session
# balance as its grant: without it, the DATALOG pipelined behind is
# refused (SSD200) unless the QUERY has already finished and refunded.
# The unbound-variable QUERY and the two-binding RPE are refused at
# submit (`ERR`), so only the first QUERY and the DATALOG get a job.
printf 'HELLO fuel=1000000 job-fuel=100000\nQUERY select T from db.Entry.%%.Title T\nQUERY select X from db.Entry.Movie Y\nRPE Entry.Movie M, M.Title\nQUERYOPT select T from db.Entry.%%.Title T\nDATALOG %s\nSTATS\n' "$reach_prog" \
    | timeout 60 ./target/release/ssd client "$port" > "$a_out" &
a_pid=$!
printf 'HELLO job-fuel=1\nQUERY select T from db.Entry.%%.Title T\n' \
    | timeout 60 ./target/release/ssd client "$port" > "$b_out" &
b_pid=$!
# C's first job is a deliberately slow cross-product so the two cheap
# queries pipelined right behind it are guaranteed to hit the jobs=1 cap
# while it is still running (and thus be queued, not dispatched).
printf 'HELLO jobs=1\nQUERY select {a: X, b: Y, c: Z} from db.%%* X, db.%%* Y, db.%%* Z\nQUERY select T from db.Entry.%%.Title T\nQUERY select T from db.Entry.%%.Title T\n' \
    | timeout 60 ./target/release/ssd client "$port" > "$c_out" &
c_pid=$!
wait "$a_pid" "$b_pid" "$c_pid"
grep -q "OK session" "$a_out"          # session opened
grep -q "Casablanca" "$a_out"          # results streamed back
grep -q " DONE " "$a_out"              # job settled
grep -q "admitted" "$a_out"            # STATS block present
grep -q "ERR error\[SSD210\]" "$a_out" # the retired plan-choosing verb is unknown
grep -q "ERR .*SSD001" "$a_out"        # the unbound-variable QUERY is refused with its code
grep -qxF "$reach_cli" "$a_out"        # DATALOG over the wire = `ssd datalog`
[ "$(grep -c '^OK job=' "$a_out")" -eq 2 ] # statically refused jobs are never scheduled
grep -q "SSD030" "$b_out"              # over-ceiling job rejected statically
grep -q "queued" "$c_out"              # concurrency cap 1 forces queueing
grep -q " DONE " "$c_out"              # ...and the queue drains
printf 'SHUTDOWN\n' | timeout 60 ./target/release/ssd client "$port" >/dev/null
wait "$serve_pid"                      # clean exit after graceful drain
grep -q "^admitted " "$serve_log"      # non-empty metrics dump
grep -q "^rejected 1$" "$serve_log"    # session B's rejection is in the books
grep -q "^ssd_serve_jobs_total" "$serve_log"  # Prometheus text in the dump
rm -f "$serve_log" "$a_out" "$b_out" "$c_out"

echo "== trace smoke run" >&2
# A governed, traced query must stream well-formed JSONL (the schema
# itself is pinned by the jsonl unit tests in crates/trace and the
# validate() proptests in tests/trace.rs) and render the inline trace.
trace_out=$(mktemp)
traced=$(timeout 60 ./target/release/ssd query examples/movies.ssd \
    'select T from db.Entry.Movie.Title T' \
    --max-steps 1000000 --trace --trace-out "$trace_out")
echo "$traced" | grep -q Casablanca
echo "$traced" | grep -q -- "-- trace ("
grep -q '"kind":"open"' "$trace_out"
grep -q '"kind":"close"' "$trace_out"
grep -q '"phase":"eval"' "$trace_out"
# Every line is a JSON object with the mandatory keys, no partial writes.
if grep -vE '^\{"seq":[0-9]+,"id":[0-9]+,"parent":[0-9]+,"kind":"(open|close|instant)","phase":"[a-z]+","name":"[^"]+","fuel":[0-9]+,"mem":[0-9]+,"fields":\{.*\}\}$' "$trace_out"; then
    echo "ci: malformed JSONL trace line(s) above" >&2
    exit 1
fi
rm -f "$trace_out"
# explain --analyze: estimate and actuals side by side on the example db.
expl=$(timeout 60 ./target/release/ssd explain examples/movies.ssd \
    'select T from db.Entry.Movie.Title T' --analyze)
echo "$expl" | grep -q "estimated cost"
echo "$expl" | grep -q "actual cost"
# Shape picks the engine: a label sequence runs on the index at any size,
# a Kleene-star path keeps the interpreter and says why (SSD050).
echo "$expl" | grep -q "access=index("
timeout 60 ./target/release/ssd explain examples/movies.ssd \
    'select T from db.Entry.Movie.References*.Title T' | grep -q "SSD050"
# The engine picks the plan: asking for one is a usage error (exit 2).
status=0
./target/release/ssd query examples/movies.ssd \
    'select T from db.Entry.Movie.Title T' --optimized >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "ci: --optimized exited $status, want usage error 2" >&2; exit 1; }

echo "== durable store recovery smoke run" >&2
# Crash-safety, end to end through the real binary. Phase 1: commit one
# transaction, then kill -9 the server — no graceful drain, the WAL is
# all that survives.
store_dir=$(mktemp -d)
serve2_log=$(mktemp)
# No `timeout` wrapper here: the kill -9 below must hit the server
# itself, not a wrapper that would leave it running.
./target/release/ssd serve examples/movies.ssd --port 0 \
    --data-dir "$store_dir" --allow-remote-shutdown > "$serve2_log" 2>&1 &
serve2_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$serve2_log")
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { echo "ci: store serve did not start" >&2; cat "$serve2_log" >&2; exit 1; }
w_out=$(mktemp)
printf 'HELLO\nINSERT {Entry: {Movie: {Title: "Durable"}}}\nCOMMIT\n' \
    | timeout 60 ./target/release/ssd client "$port" > "$w_out"
grep -q "OK staged ops=1" "$w_out"
grep -q "committed generation=1" "$w_out"   # client waits for DONE: fsynced
kill -9 "$serve2_pid" 2>/dev/null || true
wait "$serve2_pid" 2>/dev/null || true
# Phase 2: restart with a torn write injected into the next commit —
# the deterministic stand-in for a crash mid-commit: a partial frame
# reaches the disk, the COMMIT never does.
serve3_log=$(mktemp)
SSD_FAILPOINTS="wal.torn=1" timeout 120 ./target/release/ssd serve \
    examples/movies.ssd --port 0 --data-dir "$store_dir" \
    --allow-remote-shutdown > "$serve3_log" 2>&1 &
serve3_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$serve3_log")
    [ -n "$port" ] && break
    sleep 0.1
done
[ -n "$port" ] || { echo "ci: store serve restart failed" >&2; cat "$serve3_log" >&2; exit 1; }
grep -q "SSD402" "$serve3_log"              # recovery replayed phase 1's txn
t_out=$(mktemp)
# SHUTDOWN goes on its own connection, after the client has waited for
# the job: pipelined behind it, it can cancel the job first (SSD105).
printf 'HELLO\nINSERT {Entry: {Movie: {Title: "Lost"}}}\nCOMMIT\n' \
    | timeout 60 ./target/release/ssd client "$port" > "$t_out"
grep -q "SSD106" "$t_out"                   # the commit hit the injected fault
printf 'SHUTDOWN\n' | timeout 60 ./target/release/ssd client "$port" >/dev/null
wait "$serve3_pid" 2>/dev/null || true
# Phase 3: recovery truncates the torn tail and keeps the committed prefix.
rec=$(timeout 60 ./target/release/ssd recover "$store_dir")
echo "$rec" | grep -q "SSD400"              # torn tail discarded
echo "$rec" | grep -q "SSD402"              # replay note
echo "$rec" | grep -q "generation=1 txns=1" # exactly the committed prefix
q_out=$(timeout 60 ./target/release/ssd serve examples/movies.ssd --port 0 \
    --data-dir "$store_dir" --allow-remote-shutdown > "$serve2_log" 2>&1 &
    serve4_pid=$!
    port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' "$serve2_log")
        [ -n "$port" ] && break
        sleep 0.1
    done
    printf 'HELLO\nQUERY select T from db.Entry.Movie.Title T\n' \
        | timeout 60 ./target/release/ssd client "$port"
    # Admission costs the generation a job runs on: with its 6 Title
    # edges the recovered store puts this job's floor at 7 steps, over a
    # 4-step ceiling; once a commit deletes them it fits.
    printf 'HELLO\nDELETE Title\nCOMMIT\n' \
        | timeout 60 ./target/release/ssd client "$port" >/dev/null
    printf "HELLO job-fuel=4\nDATALOG t(X) :- edge(X, 'Title', _Y).\n" \
        | timeout 60 ./target/release/ssd client "$port"
    printf 'SHUTDOWN\n' | timeout 60 ./target/release/ssd client "$port" >/dev/null
    wait "$serve4_pid" 2>/dev/null || true)
echo "$q_out" | grep -q "Durable"           # the committed txn survived
if echo "$q_out" | grep -q "Lost"; then
    echo "ci: uncommitted mutation visible after recovery" >&2
    exit 1
fi
echo "$q_out" | grep -qxF "t: 0 tuple(s)"   # admitted on the post-commit generation
if echo "$q_out" | grep -q "SSD030"; then
    echo "ci: admission costed a job against a generation it does not run on" >&2
    exit 1
fi
rm -rf "$store_dir"; rm -f "$serve2_log" "$serve3_log" "$w_out" "$t_out"

ssd_after=$(pgrep -x ssd | sort | tr '\n' ' ' || true)
if [ "$ssd_after" != "$ssd_before" ]; then
    echo "ci: an ssd process outlived the script: [$ssd_after] (before: [$ssd_before])" >&2
    exit 1
fi
tree_after=$(git status --porcelain)
if [ "$tree_after" != "$tree_before" ]; then
    echo "ci: the worktree changed under the script:" >&2
    echo "$tree_after" >&2
    exit 1
fi

echo "ci: all gates passed" >&2
