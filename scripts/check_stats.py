#!/usr/bin/env python3
"""Schema/invariant checker for `hyperqd`'s `{"op":"stats"}` snapshots.

Reads one stats response frame (or a bare snapshot object) from stdin and
exits non-zero with a list of violations if the document is malformed or
a registry invariant is broken.  The CI `server` job pipes a live scrape
through this; run locally with:

    hyperq client 127.0.0.1:7411 stats --raw | python3 scripts/check_stats.py

Checked invariants:

  * every counter field is present with the right type and non-negative;
  * requests_total == sum(requests_by_op) over the fixed op labels;
  * queries_total  == sum(queries_by_outcome) — each executed query
    records exactly one outcome;
  * sum(queries_by_engine) <= queries_total (refused queries never reach
    an engine);
  * the latency histogram is internally consistent: count equals the sum
    of its sparse bucket counts and the quantiles are monotone
    (p50 <= p90 <= p99 <= max);
  * unless --allow-empty is given, at least one query has been recorded
    (non-empty histogram) — a scrape of an idle server is almost always a
    broken CI wiring, not a healthy result.
"""

import json
import sys

OPS = ["ping", "list", "query", "prepare", "run", "stats", "shutdown", "invalid"]
ENGINES = ["yannakakis", "connection", "naive"]
OUTCOMES = [
    "ok", "proto", "unknown-db", "unknown-query", "schema", "parse",
    "io", "deadline", "cancelled", "budget", "panic", "shutdown",
]


def check(doc: dict, allow_empty: bool) -> list[str]:
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(msg)

    def counter(obj: dict, key: str, what: str) -> int:
        v = obj.get(key)
        if not isinstance(v, int) or v < 0:
            err(f"{what}.{key}: expected non-negative integer, got {v!r}")
            return 0
        return v

    for key in ("uptime_ms", "requests_total", "queries_total", "bytes_in",
                "bytes_out", "in_flight", "slow_queries"):
        counter(doc, key, "stats")

    def labelled(key: str, labels: list[str]) -> int:
        obj = doc.get(key)
        if not isinstance(obj, dict):
            err(f"{key}: missing or not an object")
            return 0
        if sorted(obj) != sorted(labels):
            err(f"{key}: labels {sorted(obj)} != expected {sorted(labels)}")
            return 0
        return sum(counter(obj, label, key) for label in labels)

    by_op = labelled("requests_by_op", OPS)
    by_engine = labelled("queries_by_engine", ENGINES)
    by_outcome = labelled("queries_by_outcome", OUTCOMES)

    if not errors:
        if doc["requests_total"] != by_op:
            err(f"requests_total {doc['requests_total']} != sum(by_op) {by_op}")
        if doc["queries_total"] != by_outcome:
            err(f"queries_total {doc['queries_total']} != sum(by_outcome) {by_outcome}")
        if by_engine > doc["queries_total"]:
            err(f"sum(by_engine) {by_engine} > queries_total {doc['queries_total']}")

    lat = doc.get("latency_us")
    if not isinstance(lat, dict):
        err("latency_us: missing or not an object")
    else:
        count = counter(lat, "count", "latency_us")
        quantiles = [counter(lat, q, "latency_us") for q in ("p50", "p90", "p99", "max")]
        buckets = lat.get("buckets")
        if not isinstance(buckets, list) or not all(
            isinstance(b, list) and len(b) == 2
            and all(isinstance(x, int) and x >= 0 for x in b)
            for b in buckets
        ):
            err(f"latency_us.buckets: expected [[index, count], ...], got {buckets!r}")
        else:
            total = sum(c for _, c in buckets)
            if total != count:
                err(f"latency_us: count {count} != sum of bucket counts {total}")
            if any(c == 0 for _, c in buckets):
                err("latency_us.buckets: sparse form must omit empty buckets")
        if not errors and quantiles != sorted(quantiles):
            err(f"latency_us: quantiles not monotone: p50/p90/p99/max = {quantiles}")
        if not allow_empty and count == 0:
            err("latency_us: histogram is empty — no query was recorded "
                "before the scrape (pass --allow-empty if intentional)")

    return errors


def main() -> int:
    args = sys.argv[1:]
    allow_empty = "--allow-empty" in args
    if [a for a in args if a != "--allow-empty"]:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        doc = json.load(sys.stdin)
    except json.JSONDecodeError as e:
        print(f"check_stats: stdin is not valid JSON: {e}", file=sys.stderr)
        return 1
    # Accept the full response frame (`{"ok":true,"op":"stats","stats":{...}}`)
    # or the bare snapshot object.
    if isinstance(doc, dict) and isinstance(doc.get("stats"), dict):
        doc = doc["stats"]
    if not isinstance(doc, dict):
        print(f"check_stats: expected an object, got {type(doc).__name__}", file=sys.stderr)
        return 1
    errors = check(doc, allow_empty)
    if errors:
        for e in errors:
            print(f"check_stats: {e}", file=sys.stderr)
        return 1
    lat = doc["latency_us"]
    print(f"check_stats: ok — {doc['queries_total']} queries "
          f"({doc['requests_total']} requests), latency p50/p90/p99/max = "
          f"{lat['p50']}/{lat['p90']}/{lat['p99']}/{lat['max']} us, "
          f"{doc['slow_queries']} slow")
    return 0


if __name__ == "__main__":
    sys.exit(main())
