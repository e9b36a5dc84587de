#!/usr/bin/env python3
"""Per-PR bench trajectory: diff two `hyperq bench` JSON documents.

    python3 scripts/bench_delta.py PREVIOUS.json CURRENT.json

Prints a GitHub-flavored markdown table of ns/iter deltas keyed by
(op, engine, workload, size), sorted worst-regression first, ready to
append to $GITHUB_STEP_SUMMARY.  The previous document comes from the
last run's `bench-results` artifact; when it is missing (first run on a
branch, expired artifact) or unparsable, a note is printed and the exit
code stays 0 — the delta table is a trajectory report, not a gate (the
gate is `hyperq bench --check` against the padded baseline).

Old-format documents whose rows lack the metrics fields (probed/kept/
join_ops/semijoin_ops) diff fine: rows are keyed and compared on the
timing fields both formats share.
"""

import json
import signal
import sys

# Dying quietly on a closed pipe (`... | head`) beats a traceback.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def load_rows(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_delta: cannot load {path}: {e}", file=sys.stderr)
        return None
    rows = {}
    for r in doc.get("results", []):
        rows[(r["op"], r["engine"], r["workload"], r["size"])] = r
    return rows


def fmt_ns(ns: float) -> str:
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f} µs"
    return f"{ns:.0f} ns"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    prev_path, cur_path = sys.argv[1], sys.argv[2]
    cur = load_rows(cur_path)
    if cur is None:
        # No current results means the bench itself failed — that is the
        # perf job's problem, not the delta report's.
        print("bench_delta: no current results to diff")
        return 0
    prev = load_rows(prev_path)
    if prev is None:
        print("No previous `bench-results` artifact — delta table starts next run.")
        return 0

    deltas = []
    for key, row in sorted(cur.items()):
        before = prev.get(key)
        if before is None:
            deltas.append((key, None, row["ns_per_iter"]))
        else:
            deltas.append((key, before["ns_per_iter"], row["ns_per_iter"]))
    dropped = sorted(set(prev) - set(cur))

    # Worst regression first; new rows (no previous timing) sink to the end.
    deltas.sort(key=lambda d: d[2] / d[1] if d[1] else -1.0, reverse=True)

    print("### Bench trajectory vs previous run")
    print()
    print("| op | engine | workload | size | previous | current | delta |")
    print("|---|---|---|---|---:|---:|---:|")
    for (op, engine, workload, size), before, now in deltas:
        if before is None:
            delta = "new"
            before_s = "—"
        else:
            pct = (now / before - 1.0) * 100.0
            delta = f"{pct:+.1f}%"
            before_s = fmt_ns(before)
        print(f"| {op} | {engine} | {workload} | {size} | {before_s} | {fmt_ns(now)} | {delta} |")
    for key in dropped:
        print(f"| {key[0]} | {key[1]} | {key[2]} | {key[3]} | {fmt_ns(prev[key]['ns_per_iter'])} | — | dropped |")
    print()
    print(f"{len(deltas)} rows diffed, {len(dropped)} dropped "
          "(positive delta = slower than the previous run; runner noise "
          "routinely reaches ±30%, so read trends, not single rows).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
