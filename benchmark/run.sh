#!/usr/bin/env bash
# The benchmark's one command (recorded in BENCHMARK.json).
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       builds hyperqd and the harness, runs one workload once; the last
#       line of stdout is the result object.
#   benchmark/run.sh [--seed N] [--seconds S]
#       no --workload: runs all five workloads end to end, then the traced
#       pass of each.
#
# Exits non-zero if the build fails, a run cannot finish, or any request
# was answered wrongly.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac

cd "$root"
# Build output goes to stderr so stdout holds only results.
cargo build --release --offline -p hyperqd --target-dir "$target" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$target/benchmark" >&2

harness=("$target/benchmark/release/hyperqd-benchmark"
    --hyperqd "$target/release/hyperqd" --out "$root/benchmark/out")

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "${harness[@]}" "$@"
    fi
done

status=0
for trace in 0 1; do
    for workload in tiny-pipelined chain6-selective chain6-wide ring8-cyclic scale-cold; do
        "${harness[@]}" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
exit "$status"
