#!/usr/bin/env python3
"""Schema/invariant checker for `hyperq query --metrics-json` documents.

Reads one metrics document from stdin and exits non-zero with a list of
violations if the document is malformed or an execution invariant is
broken.  CI pipes the Fig. 1 (acyclic) and 4-ring (cyclic) scenarios, a
served `"metrics":true` answer and the `metrics` member of a `hyperqd
--slow-ms` log line through this; run locally with:

    hyperq query fixtures/fig1.hg fixtures/fig1.data \
        --select A,D --engine yannakakis --metrics-json \
        | python3 scripts/check_metrics.py

Pass --cyclic when the query's plan decomposes; for `connection`, when
`CC(X)`'s objects are cyclic.  The document must then carry a
decomposition report (both heuristic widths and the chosen one) and at
least one materialized bag.  Without the flag the decomposition field
must be null — a join tree never pays for one.
"""

import json
import sys

PHASES = {"parse", "decompose", "materialize", "reduce-up", "reduce-down", "join", "serialize"}
# Every member of a join or semijoin counter object, and nothing else: no
# sampled ratio decides a kernel, so none is reported.
COUNTERS = ("ops", "hash_ops", "sortmerge_ops", "dense_ops", "probed", "kept", "built", "build_rows")
# Every top-level member, and nothing else.  Retired members fail the
# document: each database builds its plan once, so there is no decomposition
# cache to report hits of, and only insertion builds a relation's dedup
# index, so no query pays for one and none is counted.
MEMBERS = ("join", "semijoin", "levels", "bags", "decomposition")


def check(doc: dict, cyclic: bool) -> list[str]:
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(msg)

    for key in sorted(set(doc) - set(MEMBERS)):
        err(f"{key}: retired or unknown member, expected only {', '.join(MEMBERS)}")

    for op in ("join", "semijoin"):
        agg = doc.get(op)
        if not isinstance(agg, dict):
            err(f"{op}: missing or not an object")
            continue
        for key in sorted(set(agg) - set(COUNTERS)):
            err(f"{op}.{key}: unexpected member (expected only {', '.join(COUNTERS)})")
        for key in COUNTERS:
            v = agg.get(key)
            if not isinstance(v, int) or v < 0:
                err(f"{op}.{key}: expected non-negative integer, got {v!r}")
        if errors:
            continue
        if agg["hash_ops"] + agg["sortmerge_ops"] + agg["dense_ops"] != agg["ops"]:
            err(f"{op}: hash_ops + sortmerge_ops + dense_ops != ops ({agg})")
        # A semijoin can only keep rows it probed.  A join's output is not
        # bounded by its probe side: one probe row can match many.
        if op == "semijoin" and agg["kept"] > agg["probed"]:
            err(f"{op}: kept {agg['kept']} > probed {agg['probed']}")
        # A semijoin's key space picks its kernel: dense where it fits,
        # else sort-merge, so none hashes.  Every join hashes.
        if op == "semijoin" and agg["hash_ops"] != 0:
            err(f"{op}.hash_ops: expected 0 (dense or sort-merge only), got {agg['hash_ops']}")
        if op == "join":
            for key in ("sortmerge_ops", "dense_ops"):
                if agg[key] != 0:
                    err(f"{op}.{key}: expected 0 (every join hashes), got {agg[key]}")

    levels = doc.get("levels")
    if not isinstance(levels, list) or not levels:
        err("levels: expected a non-empty list of level timings")
    else:
        for i, lvl in enumerate(levels):
            if lvl.get("phase") not in PHASES:
                err(f"levels[{i}].phase: unknown phase {lvl.get('phase')!r}")
            for key in ("level", "nanos"):
                v = lvl.get(key)
                if not isinstance(v, int) or v < 0:
                    err(f"levels[{i}].{key}: expected non-negative integer, got {v!r}")
        if not any(lvl.get("nanos", 0) > 0 for lvl in levels):
            err("levels: every timing is zero nanos — the clock did not run")

    decomp = doc.get("decomposition", "absent")
    bags = doc.get("bags")
    if cyclic:
        if not isinstance(decomp, dict):
            err(f"decomposition: cyclic query must report one, got {decomp!r}")
        else:
            for key in ("min_fill_width", "min_degree_width"):
                v = decomp.get(key)
                if not isinstance(v, int) or v < 1:
                    err(f"decomposition.{key}: expected positive width, got {v!r}")
            if decomp.get("chosen") not in ("min-fill", "min-degree"):
                err(f"decomposition.chosen: got {decomp.get('chosen')!r}")
            if (
                isinstance(decomp.get("min_fill_width"), int)
                and isinstance(decomp.get("min_degree_width"), int)
                and decomp["chosen"] == "min-fill"
                and decomp["min_fill_width"] > decomp["min_degree_width"]
            ):
                err(f"decomposition: chose min-fill at larger width: {decomp}")
        if not isinstance(bags, list) or not bags:
            err("bags: cyclic query must materialize at least one bag")
        elif any(not isinstance(b.get("rows"), int) or b["rows"] < 0 for b in bags):
            err(f"bags: malformed bag record: {bags}")
    else:
        if decomp is not None:
            err(f"decomposition: acyclic query must report null, got {decomp!r}")
        if bags != []:
            err(f"bags: acyclic query materializes no bags, got {bags!r}")

    return errors


def main() -> int:
    args = sys.argv[1:]
    cyclic = "--cyclic" in args
    if [a for a in args if a != "--cyclic"]:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        doc = json.load(sys.stdin)
    except json.JSONDecodeError as e:
        print(f"check_metrics: stdin is not valid JSON: {e}", file=sys.stderr)
        return 1
    errors = check(doc, cyclic)
    if errors:
        for e in errors:
            print(f"check_metrics: {e}", file=sys.stderr)
        return 1
    kind = "cyclic" if cyclic else "acyclic"
    joins = doc["join"]["ops"]
    semis = doc["semijoin"]["ops"]
    print(f"check_metrics: {kind} document ok ({joins} joins, {semis} semijoins, "
          f"{len(doc['levels'])} level timings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
