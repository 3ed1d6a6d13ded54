#!/usr/bin/env sh
# Tier-1 verification gate: release build + full test suite, forced
# offline. The workspace has zero external dependencies, so this must
# succeed against an empty cargo registry; a network fetch here is a
# regression in itself.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo build --release --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace

# The benchmark is its own package outside the workspace: build and
# unit-test it here so a public-API change in crates/* that breaks it
# fails this gate, not only the benchmark pipeline.
cargo build --release --manifest-path sintbench/Cargo.toml
cargo test -q --manifest-path sintbench/Cargo.toml

# Rustdoc gate: every intra-doc link must resolve, so docs cannot keep
# pointing at renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Unwrap hygiene: every library crate under the fault-injection and
# loader paths (jtag, runtime, fleet, core, interconnect, logic) must
# stay free of .unwrap() so injected faults and bad input surface as
# typed errors, never as harness panics.
cargo clippy -p sint-jtag -p sint-runtime -p sint-fleet \
    -p sint-core -p sint-interconnect -p sint-logic \
    --lib -- -D warnings -D clippy::unwrap_used

# The gate bin that drives the checks below must report a broken
# apparatus as exit 2, never as a panic: keep it unwrap-free too.
cargo clippy -p sint-bench --bin gate -- -D warnings -D clippy::unwrap_used

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Smoke runs: the figure bins and examples that call the transient
# solver directly must run to completion (exit 0), not only compile.
target/release/fig_detectors > /dev/null
target/release/fig_waveforms "$tmp/waveforms" > /dev/null
cargo run --release -q --example waveform_dump > /dev/null
cargo run --release -q --example crosstalk_sweep > /dev/null
# The one non-test caller of FleetEngine::stream: the floor scheduler
# at 4 threads behind an 8-record bounded channel.
cargo run --release -q --example fleet_floor > /dev/null
echo "figure bins and examples: all run to completion"

# expect_exit CODE CMD...: run CMD and fail unless it exits with CODE
# (a halted or killed run exits 3).
expect_exit() {
    want=$1
    shift
    status=0
    "$@" || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "verify: FAIL — $* exited $status, expected $want" >&2
        exit 1
    fi
}

# same A B WHAT: fail unless files A and B are byte-identical.
same() {
    if ! cmp "$1" "$2"; then
        echo "verify: FAIL — $3" >&2
        exit 1
    fi
}

# Campaign kill/resume determinism: run the checkpointed campaign to
# completion, run it again but kill it halfway, resume from the
# snapshot, and require the two summaries to be byte-identical — across
# different thread counts, with 10% of trials deliberately broken.
SINT_THREADS=1 target/release/gate campaign \
    "$tmp/ref_ckpt.json" "$tmp/ref_summary.json"

expect_exit 3 env SINT_THREADS=4 target/release/gate campaign \
    "$tmp/ckpt.json" "$tmp/summary.json" --halt-after 10

SINT_THREADS=4 target/release/gate campaign \
    "$tmp/ckpt.json" "$tmp/summary.json"

same "$tmp/ref_summary.json" "$tmp/summary.json" "resumed summary differs from uninterrupted run"
echo "campaign resume: summaries byte-identical"

# Degraded-mode matrix: every ScanFault variant under both ChainPolicy
# arms — Strict must refuse any damaged chain, Degrade must accept
# exactly the localizable boundary break (with a CoverageReport and
# concession trail) and refuse the rest with typed errors. The matrix
# runs on the worker pool, so the summary JSON must be byte-identical
# across thread counts.
SINT_THREADS=1 target/release/gate degraded "$tmp/matrix_t1.json"
SINT_THREADS=8 target/release/gate degraded "$tmp/matrix_t8.json"
same "$tmp/matrix_t1.json" "$tmp/matrix_t8.json" \
    "degraded-session JSON differs across thread counts"
echo "degraded matrix: contract holds, byte-identical at 1 and 8 threads"

# Kill-under-deadline resume determinism: with a zero per-trial
# deadline every solver-bound trial (including the wedged one) sheds at
# the first cancellation poll, so the shed records are deterministic —
# kill the run halfway, resume from the snapshot, and require the
# summary (shed steps and all) to match the uninterrupted run byte for
# byte across thread counts.
SINT_THREADS=1 target/release/gate campaign \
    "$tmp/shed_ref_ckpt.json" "$tmp/shed_ref_summary.json" --deadline-ms 0

expect_exit 3 env SINT_THREADS=4 target/release/gate campaign \
    "$tmp/shed_ckpt.json" "$tmp/shed_summary.json" \
    --deadline-ms 0 --halt-after 10

SINT_THREADS=4 target/release/gate campaign \
    "$tmp/shed_ckpt.json" "$tmp/shed_summary.json" --deadline-ms 0

same "$tmp/shed_ref_summary.json" "$tmp/shed_summary.json" \
    "resumed deadline summary differs from uninterrupted run"
echo "deadline shed resume: summaries byte-identical"

# Fleet determinism: a 1000-board floor (three clients, one
# with a blown admission budget shedding every trial) must fold to a
# merged summary byte-identical between a serial run and an 8-thread
# run.
SINT_THREADS=1 target/release/gate fleet \
    "$tmp/fleet_ref_ckpt.json" "$tmp/fleet_ref_summary.json"
SINT_THREADS=8 target/release/gate fleet \
    "$tmp/fleet_t8_ckpt.json" "$tmp/fleet_t8_summary.json"
same "$tmp/fleet_ref_summary.json" "$tmp/fleet_t8_summary.json" \
    "fleet summary differs between 1 and 8 threads"
echo "fleet determinism: merged summary byte-identical at 1 and 8 threads"

# Fleet kill/resume: kill the floor after 300 boards are checkpointed,
# resume from the snapshot on a different thread count, and require the
# merged summary to match the uninterrupted serial reference byte for
# byte — board-granular resume must re-run only unfinished boards.
expect_exit 3 env SINT_THREADS=4 target/release/gate fleet \
    "$tmp/fleet_ckpt.json" "$tmp/fleet_summary.json" --halt-after 300

SINT_THREADS=8 target/release/gate fleet \
    "$tmp/fleet_ckpt.json" "$tmp/fleet_summary.json"

same "$tmp/fleet_ref_summary.json" "$tmp/fleet_summary.json" \
    "resumed fleet summary differs from uninterrupted run"
echo "fleet resume: summaries byte-identical"

# Chaos matrix: the fleet resilience layer under an ACTIVE deterministic
# fault schedule (chain scan faults, wedged solvers, harness panics,
# sink write failures, torn/short/ENOSPC disk faults; flaky boards
# recovered by backoff-paced retry, dead boards quarantined by circuit
# breakers). The merged summary —
# verdict counts, quarantine roster and resilience totals included —
# must be byte-identical serial vs 8 threads, and across a kill at 300
# boards plus resume. The binary itself exits 4 if any injected
# infrastructure fault is attributed to the interconnect.
SINT_THREADS=1 target/release/gate chaos \
    "$tmp/chaos_ref_ckpt.json" "$tmp/chaos_ref_summary.json"
SINT_THREADS=8 target/release/gate chaos \
    "$tmp/chaos_t8_ckpt.json" "$tmp/chaos_t8_summary.json"
same "$tmp/chaos_ref_summary.json" "$tmp/chaos_t8_summary.json" \
    "chaotic fleet summary differs between 1 and 8 threads"

expect_exit 3 env SINT_THREADS=4 target/release/gate chaos \
    "$tmp/chaos_ckpt.json" "$tmp/chaos_summary.json" --halt-after 300

SINT_THREADS=8 target/release/gate chaos \
    "$tmp/chaos_ckpt.json" "$tmp/chaos_summary.json"

same "$tmp/chaos_ref_summary.json" "$tmp/chaos_summary.json" \
    "resumed chaos summary differs from uninterrupted run"
echo "chaos matrix: summaries byte-identical under active fault injection"

# Batched-solve determinism: plan-first solving (each half's predicted
# transitions solved ahead in multi-RHS panels, then latched from the
# memo at Update-DR) is contractually bitwise-identical to the scalar
# path, so a fixed defect campaign (including a solver blow-up whose
# plan is dropped, leaving each pattern to a scalar solve) must produce
# byte-identical summaries batched (panel width 8) vs unbatched (width
# 1, which never plans) and across thread counts. A die fans its plan
# solve's panels out over the host's cores unless it runs on a pool
# worker (DESIGN.md §6j): at SINT_THREADS=1 the campaign runs inline and
# every die fans out, at SINT_THREADS=8 every die runs inline on a
# campaign worker, so that comparison is die-parallel against
# die-serial. Pinned to one core, the host's width is 1 and nothing fans
# out at all.
SINT_THREADS=1 target/release/gate batch 8 "$tmp/batch_w8.json"
SINT_THREADS=1 target/release/gate batch 1 "$tmp/batch_w1.json"
same "$tmp/batch_w8.json" "$tmp/batch_w1.json" "batched summary differs from unbatched"
SINT_THREADS=8 target/release/gate batch 8 "$tmp/batch_w8_t8.json"
same "$tmp/batch_w8.json" "$tmp/batch_w8_t8.json" "die-parallel summary differs from die-serial"
SINT_THREADS=1 taskset -c 0 target/release/gate batch 8 "$tmp/batch_w8_c1.json"
same "$tmp/batch_w8.json" "$tmp/batch_w8_c1.json" "die-parallel summary differs from one core"
echo "batched solves: byte-identical vs unbatched, die-serial and one core"

# Torn-write storm: kill the streaming fleet run mid-write at several
# byte offsets (fixed and seeded-random), let the resume recover the
# CRC-framed records stream and the generation-paired checkpoint, and
# require the merged summary — and its records-replay self-check — to
# match the uninterrupted reference byte for byte. 4097 and rand:11
# (12,509 B) land before the first 100-board checkpoint of the ~1.04 MB
# stream, so they resume from generation 0; the kill at 600000 must
# resume from a real checkpoint (generation >= 1) plus a torn stream.
for kill in rand:11 rand:22 4097 600000; do
    rm -f "$tmp/tw_ckpt.json.a" "$tmp/tw_ckpt.json.b" \
        "$tmp/tw_records.jsonl" "$tmp/tw_summary.json"
    expect_exit 3 env SINT_THREADS=4 target/release/gate fleet \
        "$tmp/tw_ckpt.json" "$tmp/tw_summary.json" \
        --records "$tmp/tw_records.jsonl" --kill-at-byte "$kill"
    SINT_THREADS=8 target/release/gate fleet \
        "$tmp/tw_ckpt.json" "$tmp/tw_summary.json" \
        --records "$tmp/tw_records.jsonl" 2> "$tmp/tw_resume.err" ||
        { cat "$tmp/tw_resume.err" >&2; exit 1; }
    cat "$tmp/tw_resume.err" >&2
    same "$tmp/fleet_ref_summary.json" "$tmp/tw_summary.json" \
        "summary after kill at $kill differs from reference"
    if [ "$kill" = 600000 ]; then
        generation=$(sed -n 's/.*resumed from checkpoint generation \([0-9][0-9]*\)).*/\1/p' \
            "$tmp/tw_resume.err")
        if [ "${generation:-0}" -lt 1 ]; then
            echo "verify: FAIL — resume after kill at $kill started from checkpoint" \
                "generation ${generation:-unknown}, expected >= 1" >&2
            exit 1
        fi
    fi
done
echo "torn-write storm: recovered summaries byte-identical at 4 kill offsets"

# Torn checkpoint: tear the second generation image itself mid-write;
# the loader must fall back to the surviving generation and the resumed
# summary must still match the reference.
rm -f "$tmp/tc_ckpt.json.a" "$tmp/tc_ckpt.json.b" "$tmp/tc_summary.json"
expect_exit 3 env SINT_THREADS=4 target/release/gate fleet \
    "$tmp/tc_ckpt.json" "$tmp/tc_summary.json" --torn-ckpt 120
SINT_THREADS=8 target/release/gate fleet \
    "$tmp/tc_ckpt.json" "$tmp/tc_summary.json"
same "$tmp/fleet_ref_summary.json" "$tmp/tc_summary.json" \
    "summary after torn checkpoint differs from reference"
echo "torn checkpoint: resume fell back a generation, summary byte-identical"

# The same crash storm under active chaos: injected disk faults in the
# schedule, a seeded kill mid-stream, then recovery + resume with the
# replay self-check armed (the binary exits 5 if the recovered stream
# does not fold back to the summary it wrote).
rm -f "$tmp/ctw_ckpt.json.a" "$tmp/ctw_ckpt.json.b" \
    "$tmp/ctw_records.jsonl" "$tmp/ctw_summary.json"
expect_exit 3 env SINT_THREADS=4 target/release/gate chaos \
    "$tmp/ctw_ckpt.json" "$tmp/ctw_summary.json" \
    --records "$tmp/ctw_records.jsonl" --kill-at-byte rand:33
SINT_THREADS=8 target/release/gate chaos \
    "$tmp/ctw_ckpt.json" "$tmp/ctw_summary.json" \
    --records "$tmp/ctw_records.jsonl"
same "$tmp/chaos_ref_summary.json" "$tmp/ctw_summary.json" \
    "chaotic summary after mid-stream kill differs"
echo "chaos crash storm: recovery + replay self-check byte-identical"

# Adaptive equivalence: the adaptive campaign engine (ledger-driven
# fault dropping, escalating read-out localization, reordered halves)
# must detect exactly what the attributed-exhaustive oracle detects —
# the binary itself exits 2 on any divergence. The summary must be
# byte-identical serial vs 8 threads, and across a kill at a round
# boundary plus resume (the checkpoint carries the coverage ledger, so
# the continuation drops exactly what the uninterrupted run would).
SINT_THREADS=1 target/release/gate adaptive \
    "$tmp/ad_ref_ckpt.json" "$tmp/ad_ref_summary.json"
SINT_THREADS=8 target/release/gate adaptive \
    "$tmp/ad_t8_ckpt.json" "$tmp/ad_t8_summary.json"
same "$tmp/ad_ref_summary.json" "$tmp/ad_t8_summary.json" \
    "adaptive summary differs between 1 and 8 threads"

expect_exit 3 env SINT_THREADS=4 target/release/gate adaptive \
    "$tmp/ad_ckpt.json" "$tmp/ad_summary.json" --halt-after 12

# A well-formed checkpoint that does not fit the batch (here the halted
# run's, with its ledger narrowed to two wires) is refused with exit 2
# before anything runs, and the file is left as it was.
sed 's/"ledger":{[^}]*}/"ledger":{"wires":2,"masks":[0,0]}/' \
    "$tmp/ad_ckpt.json" > "$tmp/ad_narrow_ckpt.json"
cp "$tmp/ad_narrow_ckpt.json" "$tmp/ad_narrow_before.json"
expect_exit 2 env SINT_THREADS=4 target/release/gate adaptive \
    "$tmp/ad_narrow_ckpt.json" "$tmp/ad_narrow_summary.json"
same "$tmp/ad_narrow_before.json" "$tmp/ad_narrow_ckpt.json" \
    "a refused adaptive checkpoint was modified"

SINT_THREADS=8 target/release/gate adaptive \
    "$tmp/ad_ckpt.json" "$tmp/ad_summary.json"

same "$tmp/ad_ref_summary.json" "$tmp/ad_summary.json" \
    "resumed adaptive summary differs from uninterrupted run"
echo "adaptive equivalence: oracle match, summaries byte-identical"

echo "verify: OK"
