#!/usr/bin/env sh
# Performance trajectory: runs the solver / session / mafm / robustness
# / fleet / adaptive / jtag benchmark bins and records their JSON artifacts as
# BENCH_*.json at the repo root, so successive commits accumulate
# comparable timing data. The uppercase BENCH_*.json names are the only
# artifact paths this script writes at the repo root.
#
# Usage: scripts/bench.sh [SUITE...] — every suite by default, or only
# the named ones (e.g. `scripts/bench.sh session` regenerates
# BENCH_session.json alone).
#
# Knobs:
#   SINT_THREADS   worker-pool width for campaign-style bins
#                  (default: host parallelism)
#
# The bins also honour SINT_ARTIFACT_DIR directly; this script points
# it at a scratch directory and renames the results into place.
set -eu

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

cargo build --release -p sint-bench

suites="${*:-solver session mafm robustness fleet adaptive jtag}"

for name in $suites; do
    SINT_ARTIFACT_DIR="$dir" cargo run --release -p sint-bench --bin "bench_$name"
    mv "$dir/bench_$name.json" "BENCH_$name.json"
    echo "wrote BENCH_$name.json"
done
