#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark on one workload.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD N [FIRST_SEED [SECONDS]]
#
# PARENT and CHANGE are git revisions of this repository, or paths to
# checkouts (a working tree with uncommitted changes, say).  A revision is
# exported with `git archive` into a work directory under ${TMPDIR:-/tmp};
# each side is built once, into a target directory of its own, then
# `benchmark/run.sh --workload WORKLOAD` runs N times per side for SECONDS
# each (default 15, BENCHMARK.json's run_seconds), pair i on seed
# FIRST_SEED + i (default 1000), with the side that runs first alternating
# from pair to pair.
#
# Prints, for each end-to-end metric BENCHMARK.json declares, both sides'
# median and quartiles and the number of pairs the change won.  Each run's
# result line also goes to stderr and to pairs.jsonl in the work directory,
# whose path is printed before the summary.  Exits non-zero
# if a build fails, a run cannot finish, or a reply was answered wrongly.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4
first_seed=${5:-1000} seconds=${6:-15}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"

# The source tree of one side: a checkout as given, or a revision exported.
source_of() {
    local side=$1 rev=$2
    if [ -d "$rev" ]; then
        (cd "$rev" && pwd)
    else
        mkdir -p "$work/$side"
        git -C "$root" archive "$rev" | tar -x -C "$work/$side"
        echo "$work/$side"
    fi
}

declare -A src
src[parent]=$(source_of parent "$parent")
src[change]=$(source_of change "$change")
for side in parent change; do
    echo "building $side from ${src[$side]}" >&2
    target="$work/target-$side"
    (cd "${src[$side]}" \
        && cargo build --release --offline -p hyperqd --target-dir "$target" >&2 \
        && cargo build --release --offline --manifest-path benchmark/Cargo.toml \
            --target-dir "$target/benchmark" >&2)
done

run() {
    local side=$1 seed=$2 line
    line=$(cd "${src[$side]}" && CARGO_TARGET_DIR="$work/target-$side" bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    printf '{"side":"%s","seed":%s,"result":%s}\n' "$side" "$seed" "$line" >> "$work/pairs.jsonl"
    echo "pair seed $seed $side: $line" >&2
}

for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then
        run parent "$seed"
        run change "$seed"
    else
        run change "$seed"
        run parent "$seed"
    fi
done

echo "runs: $work/pairs.jsonl" >&2
python3 - "$root/BENCHMARK.json" "$work/pairs.jsonl" "$workload" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
bad = [r for r in runs if not r["result"].get("correct") or r["result"].get("failed")]
for r in bad:
    print(f"seed {r['seed']} {r['side']}: answered wrongly or failed: {r['result']}")

def values(side, name):
    by_seed = {r["seed"]: r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side}
    return [by_seed[s] for s in sorted(by_seed)]

print(f"workload {sys.argv[3]}, {len(runs) // 2} pairs")
for metric in spec["end_to_end"]:
    name, lower = metric["name"], metric["better"] == "lower"
    parent, change = values("parent", name), values("change", name)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    def summary(xs):
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        return f"median {q[1]:.4g} (quartiles {q[0]:.4g}-{q[2]:.4g})"
    print(f"{name} [{metric['unit']}, {metric['better']} is better]")
    print(f"  parent {summary(parent)}")
    print(f"  change {summary(change)}")
    print(f"  change won {wins}/{len(parent)} pairs")
sys.exit(1 if bad else 0)
EOF
