#!/usr/bin/env bash
# Tier-1 gate: everything here must pass before merge. The workspace
# depends on std alone, so every cargo call runs offline against the
# committed Cargo.lock.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
# -D warnings also promotes the `clippy::unwrap_used` /
# `clippy::expect_used` gates in lcda-core and lcda-optim (see
# crates/core/src/lib.rs and crates/optim/src/lib.rs) to hard errors:
# production code must surface typed errors, not panic.
cargo clippy --workspace --all-targets --offline --locked -- -D warnings
cargo build --workspace --release --offline --locked
# Docs gate: every intra-doc link must resolve to a public item, so a
# deleted or private item still named in a doc comment fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
cargo test --workspace -q --offline --locked
journal_dir="$(mktemp -d)"
# Every server started below, so the EXIT trap can stop the ones a
# failed step left running before it deletes their directories.
server_pids=""
cleanup() {
    for pid in $server_pids; do
        kill -9 "$pid" 2> /dev/null || true
        wait "$pid" 2> /dev/null || true
    done
    rm -rf "$journal_dir"
}
trap cleanup EXIT

# start_serve <log> <serve flags...>: starts `lcda serve` on an
# ephemeral port and waits for it to print its address. Sets $serve_pid
# and $addr. The log is created before the server forks, so the first
# poll never reads a file that does not exist yet.
start_serve() {
    local log="$1"
    shift
    : > "$log"
    ./target/release/lcda serve --addr 127.0.0.1:0 "$@" > "$log" &
    serve_pid=$!
    server_pids="$server_pids $serve_pid"
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#.*listening on http://##p' "$log")
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    echo "ci: serve logging to $(basename "$log") never printed its address" >&2
    exit 1
}

# wait_done <job>: polls the server at $addr until the job is `done`;
# fails on any other end state or after a minute.
wait_done() {
    local state=""
    for _ in $(seq 1 600); do
        state=$(curl -sf "http://$addr/jobs/$1" \
            | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
        case "$state" in
            done) return 0 ;;
            failed | cancelled) break ;;
        esac
        sleep 0.1
    done
    echo "ci: $1 ended '$state', not done" >&2
    exit 1
}

# Example smoke: every example under examples/ must run to exit 0, not
# just compile. explainable_nas is the LLM transcript's only user-facing
# reader (token statistics, and the last prompt rendered again from its
# exchange), so its output is checked too.
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --release --offline --locked --example "$name" \
        > "$journal_dir/example_$name.txt"
done
grep -q "prompt tokens" "$journal_dir/example_explainable_nas.txt"

# Figure gate: every lcda-bench binary, run at its recorded default
# seed, must print exactly its committed artifact. A change that moves
# seeded paper output fails here; regenerating artifacts/ is then a
# deliberate, reviewed step (re-check EXPERIMENTS.md against it).
for bin in crates/bench/src/bin/*.rs; do
    id="$(basename "$bin" .rs)"
    ./target/release/"$id" > "$journal_dir/figure_$id.txt"
    cmp "$journal_dir/figure_$id.txt" "artifacts/$id.txt" \
        || { echo "ci: $id output differs from artifacts/$id.txt" >&2; exit 1; }
done
# An artifact no binary prints would go stale unnoticed.
for artifact in artifacts/*.txt; do
    id="$(basename "$artifact" .txt)"
    [ -f "crates/bench/src/bin/$id.rs" ] \
        || { echo "ci: no lcda-bench binary prints $artifact" >&2; exit 1; }
done

# Trained-evaluator gate at CLI scale: noise-injection training and
# Monte-Carlo accuracy on the full CIFAR-10-sized space must print
# exactly the recorded result (about 10 s).
trained_design="[[16,1],[16,1],[16,1],[16,1],[16,1],[16,1]] | hw: [64,4,2,rram]"
./target/release/lcda evaluate --evaluator trained --json \
    --design "$trained_design" > "$journal_dir/trained_f32.json"
cmp "$journal_dir/trained_f32.json" tests/fixtures/trained_eval/f32.json \
    || { echo "ci: trained f32 evaluation differs from its fixture" >&2; exit 1; }
# Int8 inference was removed: --precision is refused by name before any
# training starts.
if ./target/release/lcda evaluate --evaluator trained --precision int8 \
    --design "$trained_design" > /dev/null 2> "$journal_dir/precision.err"; then
    echo "ci: evaluate accepted the removed --precision flag" >&2
    exit 1
fi
grep -q -- "--precision is not accepted" "$journal_dir/precision.err" \
    || { echo "ci: --precision was not refused by name" >&2; exit 1; }
# The design above is all 1x1, so no two patches overlap. This one's
# 3x3 and 5x5 kernels check the padded, overlapping im2col/col2im of
# training and inference against recorded bytes (f32, about 30 s).
kernels_design="[[16,3],[16,5],[16,3],[16,1],[16,1],[16,1]] | hw: [64,4,2,rram]"
./target/release/lcda evaluate --evaluator trained --json \
    --design "$kernels_design" > "$journal_dir/trained_f32_kernels.json"
cmp "$journal_dir/trained_f32_kernels.json" tests/fixtures/trained_eval/f32_kernels.json \
    || { echo "ci: trained 3x3/5x5 evaluation differs from its fixture" >&2; exit 1; }

# GEMM equivalence smoke: the blocked microkernel must stay bit-identical
# to the scalar reference (unit tests + seeded properties, all named gemm_*).
cargo test -p lcda-tensor --release -q --offline --locked gemm_

# Benchmark smoke: every lcda-perf workload and output check at its
# minimum size (see perf/README.md). Timings are not gated here.
python3 perf/run.py --smoke

# Journal smoke: a short search must stream a JSONL journal that
# `lcda report` parses back, and identically seeded runs must write
# byte-identical journals (the determinism contract).
./target/release/lcda search --episodes 3 --seed 7 \
    --journal "$journal_dir/run_a.jsonl" > /dev/null
./target/release/lcda search --episodes 3 --seed 7 \
    --journal "$journal_dir/run_b.jsonl" > /dev/null
cmp "$journal_dir/run_a.jsonl" "$journal_dir/run_b.jsonl"
./target/release/lcda report "$journal_dir/run_a.jsonl" | grep -q "episodes"
# A journal written before records lost their simulated-clock stamp
# still reports in full.
./target/release/lcda report tests/fixtures/parent_era/run.jsonl \
    | grep "episodes         3" > /dev/null
# A fleet journal from the build before the sharded search was removed
# holds events this build no longer knows: the report skips them, exits
# 0, is not truncated and shows the run's best reward.
./target/release/lcda report tests/fixtures/parent_era/fleet.jsonl \
    > "$journal_dir/fleet_report.txt"
grep -q "best reward      0.575201" "$journal_dir/fleet_report.txt"
if grep -q truncated "$journal_dir/fleet_report.txt"; then
    echo "ci: the parent-era fleet journal reported as truncated" >&2
    exit 1
fi

# Chaos smoke: kill -9 a checkpointed search mid-run, tear the tails of
# the journal and the checkpoint log like interrupted writes, and require
# both the resume and the report to come back clean, and the resumed
# `--json` to be byte-identical to an uninterrupted run's. Checkpoints
# carry no LLM transcript, so this also gates that replay rebuilds it.
# The kill is racy by design — a fast run may finish first, which is
# also a pass (the resume then just replays).
./target/release/lcda search --episodes 8 --seed 7 --no-cache --json \
    > "$journal_dir/chaos_clean.json"
./target/release/lcda search --episodes 8 --seed 7 --no-cache \
    --checkpoint "$journal_dir/chaos.json" --keep-checkpoints 2 \
    --journal "$journal_dir/chaos.jsonl" > /dev/null &
chaos_pid=$!
sleep 0.2
kill -9 "$chaos_pid" 2> /dev/null || true
wait "$chaos_pid" 2> /dev/null || true
for torn in "$journal_dir/chaos.jsonl" "$journal_dir/chaos.json"; do
    if [ -s "$torn" ]; then
        # Drop the last 5 bytes so the final record is torn mid-line.
        size=$(wc -c < "$torn")
        truncate -s $((size > 5 ? size - 5 : 0)) "$torn"
    fi
done
./target/release/lcda search --episodes 8 --seed 7 --no-cache --json \
    --checkpoint "$journal_dir/chaos.json" --keep-checkpoints 2 --resume \
    --journal "$journal_dir/chaos.jsonl" > "$journal_dir/chaos_resumed.json"
cmp "$journal_dir/chaos_clean.json" "$journal_dir/chaos_resumed.json"
./target/release/lcda report "$journal_dir/chaos.jsonl" | grep -q "episodes"
# Damage before the final line is not a torn tail: resume must refuse
# it and leave the journal byte-identical instead of cutting it short.
cp "$journal_dir/chaos.jsonl" "$journal_dir/damaged.jsonl"
sed -i '2s/^{/#/' "$journal_dir/damaged.jsonl"
cp "$journal_dir/damaged.jsonl" "$journal_dir/damaged.saved.jsonl"
if ./target/release/lcda search --episodes 8 --seed 7 --no-cache \
    --checkpoint "$journal_dir/chaos.json" --keep-checkpoints 2 --resume \
    --journal "$journal_dir/damaged.jsonl" > /dev/null 2>&1; then
    echo "ci: resume accepted a journal damaged before its final line" >&2
    exit 1
fi
cmp "$journal_dir/damaged.jsonl" "$journal_dir/damaged.saved.jsonl"
# The same for the checkpoint log: a line damaged before the final one
# is never resumed from. With an older log on disk (a shorter run's,
# rotated to generation 1) resume falls back to it and replays to the
# identical bytes; with none it fails with a typed error.
./target/release/lcda search --episodes 5 --seed 7 --no-cache \
    --checkpoint "$journal_dir/mid.json" --keep-checkpoints 2 > /dev/null
./target/release/lcda search --episodes 8 --seed 7 --no-cache \
    --checkpoint "$journal_dir/mid.json" --keep-checkpoints 2 > /dev/null
[ -s "$journal_dir/mid.json.1" ] \
    || { echo "ci: a new run's log did not rotate the older one" >&2; exit 1; }
sed -i '3s/"history"/"hIstory"/' "$journal_dir/mid.json"
cp "$journal_dir/mid.json" "$journal_dir/mid.saved.json"
./target/release/lcda search --episodes 8 --seed 7 --no-cache --json \
    --checkpoint "$journal_dir/mid.json" --keep-checkpoints 2 --resume \
    > "$journal_dir/mid_resumed.json" 2> "$journal_dir/mid.err"
grep -q "resuming from generation 1" "$journal_dir/mid.err"
cmp "$journal_dir/chaos_clean.json" "$journal_dir/mid_resumed.json"
cp "$journal_dir/mid.saved.json" "$journal_dir/mid.json"
rm "$journal_dir/mid.json.1"
if ./target/release/lcda search --episodes 8 --seed 7 --no-cache \
    --checkpoint "$journal_dir/mid.json" --keep-checkpoints 2 --resume \
    > /dev/null 2> "$journal_dir/mid.err"; then
    echo "ci: resume accepted a checkpoint log damaged before its final line" >&2
    exit 1
fi
grep -q "corrupted record before the final line" "$journal_dir/mid.err"
cmp "$journal_dir/mid.json" "$journal_dir/mid.saved.json"

# The default-backend run the hardware-preset smoke below compares against.
./target/release/lcda search --episodes 4 --seed 9 --json \
    > "$journal_dir/clean.json"

# Hardware-as-data smoke: a search lowered from the shipped ISAAC
# hierarchy preset must be byte-identical to the default backend's run
# (the preset is golden-equivalent to the builtin).
./target/release/lcda search --episodes 4 --seed 9 --json \
    --hw-config configs/hw/isaac.json > "$journal_dir/hw_preset.json"
cmp "$journal_dir/hw_preset.json" "$journal_dir/clean.json"
./target/release/lcda reference --hw-config configs/hw/isaac.json --json \
    > "$journal_dir/hw_reference.json"
./target/release/lcda reference --json > "$journal_dir/reference.json"
cmp "$journal_dir/hw_reference.json" "$journal_dir/reference.json"

# `--hw-config` is the one CLI spelling of a hierarchy: `--backend` is
# refused by name, whatever it names, pointing at it.
if ./target/release/lcda search --backend cim > /dev/null 2> "$journal_dir/backend.err"; then
    echo "ci: search accepted the removed --backend flag" >&2
    exit 1
fi
grep -q -- "--backend is not accepted" "$journal_dir/backend.err"
grep -q -- "--hw-config" "$journal_dir/backend.err"
# Retired serve flags are refused by name too. `timeout` keeps a build
# that accepts one from serving forever; its empty stderr then fails
# grep.
for flag in --cache-flush-secs --job-deadline; do
    if timeout 10 ./target/release/lcda serve "$flag" 5 \
        > /dev/null 2> "$journal_dir/retired.err"; then
        echo "ci: serve accepted the retired $flag" >&2
        exit 1
    fi
    grep -q -- "$flag is not accepted" "$journal_dir/retired.err" \
        || { echo "ci: serve $flag was not refused by name" >&2; exit 1; }
done

# Hardware drill: edit the hierarchy file under a checkpointed search.
# The resume must be refused on the hierarchy digest instead of
# extending an old-hardware history on the new hardware.
cp configs/hw/isaac.json "$journal_dir/drill_hw.json"
./target/release/lcda search --episodes 4 --seed 11 --json \
    --hw-config "$journal_dir/drill_hw.json" \
    --checkpoint "$journal_dir/hwdrill.json" > /dev/null
sed -i -e 's/"feature_nm": 32.0/"feature_nm": 22.0/' \
    -e 's/"bus_gb_s": 12.8/"bus_gb_s": 6.4/' \
    -e 's/"global_buffer_kb": 64/"global_buffer_kb": 16/' "$journal_dir/drill_hw.json"
if ./target/release/lcda search --episodes 8 --seed 11 --json \
    --hw-config "$journal_dir/drill_hw.json" \
    --checkpoint "$journal_dir/hwdrill.json" --resume \
    > /dev/null 2> "$journal_dir/hwdrill.err"; then
    echo "ci: resume mixed hardware hierarchies" >&2
    exit 1
fi
grep digest "$journal_dir/hwdrill.err" > /dev/null

# Salvage must be loud: a torn journal fails `lcda report` by default
# and passes only with the explicit escape hatch.
printf '%s' '{"event":"run_sta' > "$journal_dir/torn.jsonl"
if ./target/release/lcda report "$journal_dir/torn.jsonl" > /dev/null 2>&1; then
    echo "ci: report accepted a salvaged journal without --allow-truncated" >&2
    exit 1
fi
./target/release/lcda report "$journal_dir/torn.jsonl" --allow-truncated > /dev/null

# Persisted-bytes gate: the memo store shares one key per design in
# memory, and none of that may reach the disk. The checkpoint logs of an
# expert and an RL search, and the cache store a server saves after two
# jobs, must equal the files recorded under tests/fixtures/memo/. The
# searches are private runs on the analytic evaluators, so their logs
# hold no memo entries; the served store does.
./target/release/lcda search --episodes 30 --seed 5 \
    --checkpoint "$journal_dir/memo_expert.jsonl" > /dev/null
./target/release/lcda search --optimizer rl --episodes 40 --seed 5 \
    --checkpoint "$journal_dir/memo_rl.jsonl" > /dev/null
start_serve "$journal_dir/memo_serve.log" --workers 1 \
    --cache "$journal_dir/memo_store.json" --journal-dir "$journal_dir/memo_jobs"
# job-2 is submitted only once job-1 is done, so the WAL holds job-1's
# `done` before job-2's `admitted`: the order its fixture records.
curl -sf -X POST -d '{"episodes": 3, "seed": 21}' "http://$addr/jobs" > /dev/null
wait_done job-1
curl -sf -X POST -d '{"episodes": 4, "seed": 22}' "http://$addr/jobs" > /dev/null
wait_done job-2
curl -sf -X POST "http://$addr/shutdown" > /dev/null
wait "$serve_pid"
for pair in memo_expert.jsonl:expert.ckpt.jsonl memo_rl.jsonl:rl.ckpt.jsonl \
    memo_store.json:serve_store.json; do
    cmp "$journal_dir/${pair%%:*}" "tests/fixtures/memo/${pair##*:}" \
        || { echo "ci: ${pair%%:*} differs from tests/fixtures/memo/${pair##*:}" >&2; exit 1; }
done
# A private search on the analytic evaluators keeps no memo: with caching
# on it writes the checkpoint log and journal that --no-cache writes.
for mode in cached nocache; do
    flag=""
    [ "$mode" = nocache ] && flag="--no-cache"
    ./target/release/lcda search --episodes 30 --seed 5 $flag \
        --checkpoint "$journal_dir/private_$mode.ckpt.jsonl" \
        --journal "$journal_dir/private_$mode.journal.jsonl" > /dev/null
done
for kind in ckpt journal; do
    cmp "$journal_dir/private_cached.$kind.jsonl" "$journal_dir/private_nocache.$kind.jsonl" \
        || { echo "ci: a private search's $kind differs from its --no-cache $kind" >&2; exit 1; }
done

# JSON-writer gate: every text the JSON writer streams must keep the
# bytes recorded under tests/fixtures/json_writer/: `--json` of an
# expert and an RL search, the expert run's journal, an `evaluate
# --json`, and the WAL, job journals, job checkpoint logs and result
# files the memo-gate server above kept in its --journal-dir.
# (tests/json_writer.rs pins values.txt, the text of single values.)
./target/release/lcda search --episodes 20 --seed 5 --json \
    --journal "$journal_dir/writer_expert.journal.jsonl" > "$journal_dir/writer_expert.json"
./target/release/lcda search --optimizer rl --episodes 60 --seed 5 --json \
    > "$journal_dir/writer_rl.json"
./target/release/lcda evaluate --json \
    --design "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] | hw: [128,8,2,rram]" \
    > "$journal_dir/writer_evaluate.json"
for name in expert.json rl.json expert.journal.jsonl evaluate.json; do
    cmp "$journal_dir/writer_$name" "tests/fixtures/json_writer/$name" \
        || { echo "ci: $name differs from tests/fixtures/json_writer/$name" >&2; exit 1; }
done
for name in jobs.wal.jsonl job-1.jsonl job-2.jsonl job-1.ckpt.json job-2.ckpt.json \
    job-1.result.json job-2.result.json; do
    cmp "$journal_dir/memo_jobs/$name" "tests/fixtures/json_writer/serve.$name" \
        || { echo "ci: served $name differs from tests/fixtures/json_writer/serve.$name" >&2; exit 1; }
done

# Broken-pipe smoke: a reader that stops early closes lcda's stdout
# mid-JSON; lcda must end quietly with exit 0 (pipefail checks it), not
# panic.
./target/release/lcda search --optimizer rl --episodes 500 --json \
    2> "$journal_dir/pipe.err" | head -c 64 > /dev/null
if grep -q panicked "$journal_dir/pipe.err"; then
    echo "ci: lcda panicked on a closed stdout pipe" >&2
    exit 1
fi

# Serve smoke: start the job server with one worker (jobs run strictly
# in admission order), submit two identical-seed jobs, and require
#   (a) the second job to report nonzero cross-run hits from the shared
#       cache seeded by the first, and
#   (b) both served results to be byte-identical to the offline
#       `lcda search --json` output for the same seed.
start_serve "$journal_dir/serve.log" --workers 1 \
    --journal-dir "$journal_dir/serve-journals"
serve_spec='{"episodes": 3, "seed": 21}'
curl -sf -X POST -d "$serve_spec" "http://$addr/jobs" > /dev/null
curl -sf -X POST -d "$serve_spec" "http://$addr/jobs" > /dev/null
wait_done job-1
wait_done job-2
# Finished jobs hold no open files: five more jobs run to `done` must
# leave the server's descriptor count where it was. The pauses let
# the connection threads of the last requests close their sockets.
sleep 0.2
fds_before=$(ls "/proc/$serve_pid/fd" | wc -l)
for seed in 31 32 33 34 35; do
    curl -sf -X POST -d "{\"episodes\": 1, \"seed\": $seed}" "http://$addr/jobs" > /dev/null
done
for job in job-3 job-4 job-5 job-6 job-7; do
    wait_done "$job"
done
sleep 0.2
fds_after=$(ls "/proc/$serve_pid/fd" | wc -l)
[ "$fds_after" -le "$fds_before" ] \
    || { echo "ci: serve fds grew from $fds_before to $fds_after over 5 jobs" >&2; exit 1; }
cross=$(curl -sf "http://$addr/jobs/job-2" \
    | sed -n 's/.*"cross_run_hits":\([0-9]*\).*/\1/p')
[ -n "$cross" ] && [ "$cross" -gt 0 ] \
    || { echo "ci: job-2 saw no cross-run cache hits (got '$cross')" >&2; exit 1; }
curl -sf "http://$addr/jobs/job-1/result" > "$journal_dir/serve_1.json"
curl -sf "http://$addr/jobs/job-2/result" > "$journal_dir/serve_2.json"
./target/release/lcda search --episodes 3 --seed 21 --json \
    > "$journal_dir/serve_offline.json"
cmp "$journal_dir/serve_1.json" "$journal_dir/serve_offline.json"
cmp "$journal_dir/serve_2.json" "$journal_dir/serve_offline.json"
# Per-job journals exist, are job-isolated, and parse with `lcda report`.
./target/release/lcda report "$journal_dir/serve-journals/job-1.jsonl" \
    | grep -q "serve jobs"
./target/release/lcda report "$journal_dir/serve-journals/job-2.jsonl" \
    | grep -q "shared cache"
curl -sf -X POST "http://$addr/shutdown" > /dev/null
wait "$serve_pid"

# Serve crash smoke: kill -9 the server mid-job, restart it on the same
# --journal-dir, and require the recovered job's result to be
# byte-identical to the uninterrupted offline run. The kill is racy by
# design — a fast job that finishes first is restored terminally from
# the ledger instead of re-run, and must compare equal all the same.
start_serve "$journal_dir/serve_crash_a.log" --workers 1 \
    --journal-dir "$journal_dir/serve-crash"
curl -sf -X POST -d '{"episodes": 3, "seed": 21}' "http://$addr/jobs" > /dev/null
sleep 0.5
kill -9 "$serve_pid" 2> /dev/null || true
wait "$serve_pid" 2> /dev/null || true
# Restart on the crashed ledger — with a one-slot queue for the
# backpressure check below.
start_serve "$journal_dir/serve_crash_b.log" --workers 1 --queue-capacity 1 \
    --journal-dir "$journal_dir/serve-crash"
wait_done job-1
curl -sf "http://$addr/jobs/job-1/result" > "$journal_dir/serve_recovered.json"
cmp "$journal_dir/serve_recovered.json" "$journal_dir/serve_offline.json"

# Backpressure smoke: with a one-slot queue and one worker, a burst of
# long jobs must hit a typed 429 — not a hang, not a dropped socket.
code=""
for _ in $(seq 1 6); do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        -d '{"episodes": 40, "seed": 99}' "http://$addr/jobs")
    [ "$code" = "429" ] && break
done
[ "$code" = "429" ] || { echo "ci: full queue never returned 429 (last '$code')" >&2; exit 1; }
# Liveness after overload, then drain the long jobs so shutdown does not
# wait out 40 episodes (workers finish their current job at shutdown).
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'
for job in job-2 job-3 job-4 job-5 job-6 job-7; do
    curl -s -X POST "http://$addr/jobs/$job/cancel" > /dev/null || true
done
for _ in $(seq 1 600); do
    busy=$(curl -sf "http://$addr/healthz" \
        | sed -n 's/.*"jobs_running":\([0-9]*\).*/\1/p')
    [ "$busy" = "0" ] && break
    sleep 0.1
done
curl -sf -X POST "http://$addr/shutdown" > /dev/null
wait "$serve_pid"

# Store-survival smoke: the shared store is saved when a job ends, so a
# server killed with kill -9 right after a job reports `done` (with no
# shutdown save) must leave a store that the restarted server serves
# the same spec from, as cross-run hits.
store_spec='{"episodes": 3, "seed": 23}'
for run in a b; do
    start_serve "$journal_dir/survive_$run.log" --workers 1 \
        --cache "$journal_dir/survive_store.json" --journal-dir "$journal_dir/survive_$run"
    curl -sf -X POST -d "$store_spec" "http://$addr/jobs" > /dev/null
    wait_done job-1
    if [ "$run" = b ]; then
        cross=$(curl -sf "http://$addr/jobs/job-1" \
            | sed -n 's/.*"cross_run_hits":\([0-9]*\).*/\1/p')
    fi
    kill -9 "$serve_pid" 2> /dev/null || true
    wait "$serve_pid" 2> /dev/null || true
done
[ -n "$cross" ] && [ "$cross" -gt 0 ] \
    || { echo "ci: the store did not survive kill -9 (cross_run_hits '$cross')" >&2; exit 1; }

# Prompt-shutdown smoke: one worker runs a job its one-second deadline
# ends while a second job waits in the queue. After POST /shutdown the
# server must finish the running job, claim nothing else and exit within
# five seconds; the queued job keeps only its `admitted` WAL line, and a
# restart on the same --journal-dir runs it to a result `cmp`-equal to
# the offline run.
drain_dir="$journal_dir/serve-drain"
for run in a b; do
    start_serve "$journal_dir/drain_$run.log" --workers 1 --journal-dir "$drain_dir"
    if [ "$run" = a ]; then
        curl -sf -X POST -d '{"optimizer": "rl", "episodes": 1000000, "deadline_secs": 1}' \
            "http://$addr/jobs" > /dev/null
        curl -sf -X POST -d '{"episodes": 3, "seed": 21}' "http://$addr/jobs" > /dev/null
        state=""
        for _ in $(seq 1 100); do
            state=$(curl -sf "http://$addr/jobs/job-1" \
                | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
            [ "$state" = "running" ] && break
            sleep 0.05
        done
        [ "$state" = "running" ] || { echo "ci: drain job-1 is '$state', not running" >&2; exit 1; }
        curl -sf -X POST "http://$addr/shutdown" > /dev/null
        for _ in $(seq 1 50); do
            kill -0 "$serve_pid" 2> /dev/null || break
            sleep 0.1
        done
        if kill -0 "$serve_pid" 2> /dev/null; then
            kill -9 "$serve_pid" 2> /dev/null || true
            echo "ci: serve was still running 5 s after POST /shutdown" >&2
            exit 1
        fi
        wait "$serve_pid"
        if [ -e "$drain_dir/job-2.result.json" ] \
            || grep -q '"job":2,"state":"running"' "$drain_dir/jobs.wal.jsonl"; then
            echo "ci: serve claimed queued job-2 after POST /shutdown" >&2
            exit 1
        fi
    else
        wait_done job-2
        curl -sf "http://$addr/jobs/job-2/result" > "$journal_dir/drain_2.json"
        cmp "$journal_dir/drain_2.json" "$journal_dir/serve_offline.json"
        curl -sf -X POST "http://$addr/shutdown" > /dev/null
        wait "$serve_pid"
    fi
done
