#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs every workload of BENCHMARK.json ten times (seeds 1..10) for its
`run_seconds`, twice over on the same build, and prints per workload and
end-to-end metric: the median and the spread (interquartile range over
median, from statistics.quantiles(values, n=4)) of each set, how much worse
the second median is than the first, and the metric's bound.

Exits 1 if a spread (setup_s excepted) or a worsening exceeds its bound,
or if any run fails; marks with `~` a spread above a third of its bound.
Every run's values are kept in benchmark/out/aa-runs.json.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of "
                 f"{result['attempted']} requests failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    ok = True
    every_run = {}
    print(f"{'workload':17} {'metric':20} {'median A':>11} {'spread A':>9} "
          f"{'median B':>11} {'spread B':>9} {'B worse by':>10} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run_once(spec["command"], workload, seed, spec["run_seconds"])
                 for seed in range(1, RUNS + 1)] for _ in "AB"]
        every_run[workload] = dict(zip("AB", sets))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(a), spread(b)]
            gated = spreads if name != "setup_s" else []
            bad = worse > bound or any(s > bound for s in gated)
            wide = any(s > bound / 3 for s in spreads)
            ok &= not bad
            print(f"{workload:17} {name:20} {med_a:11.4f} {spreads[0]:9.2%} "
                  f"{med_b:11.4f} {spreads[1]:9.2%} {worse:+10.2%} {bound:6.0%}"
                  f"{' FAIL' if bad else ' ~' if wide else ''}", flush=True)
    out = ROOT / "benchmark" / "out"
    out.mkdir(exist_ok=True)
    (out / "aa-runs.json").write_text(json.dumps(every_run, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
