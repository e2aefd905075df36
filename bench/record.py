"""Repeat the benchmark and summarise the runs as one BENCH_<n>.json record.

    python3 bench/record.py --runs 10 [--workload NAME ...] [--traced]
                            [--out bench/BENCH_<n>.json]

A set runs every chosen workload --runs times, one fresh interpreter after
another, with seeds 1..runs and the run_seconds of BENCHMARK.json.  Two
sets run, one after the other, because a comparison accepts the benchmark
only when two sets of the same code agree.  For every metric of a set the
record gives the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.  A
spread above a third of the metric's bound in BENCHMARK.json is flagged.
Each end-to-end metric also gets the relative difference of the second
set's median from the first's, flagged when it is worse by more than the
bound.  --traced adds two traced runs per workload with
seed 1: the per-layer metrics and the report-line detail of the first, and
the names of the exact counts (.calls, ratios, pairs, ...) that differ in
the second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, machine, run_child, src_lines
from workloads import WHY, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower"
                   for m in SPEC["end_to_end"]}
SETS = 2


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def one_set(name: str, runs: int) -> dict:
    metrics: dict[str, list] = {}
    named: dict[str, list] = {}
    failed = attempted = 0
    for seed in range(1, runs + 1):
        rc, lines = run_child(name, seed, SECONDS, 0)
        if rc != 0:
            raise SystemExit(f"{name} seed {seed} exited {rc}")
        report = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        for k, v in result["metrics"].items():
            metrics.setdefault(k, []).append(v["value"])
        for k, v in report["named"].items():
            named.setdefault(k, []).append(v["value"])
        print(f"{name} seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr, flush=True)
    out = {"failed": failed, "attempted": attempted,
           "end_to_end": {k: summary(v) for k, v in metrics.items()},
           "named": {k: summary(v) for k, v in named.items()}}
    for k, s in out["end_to_end"].items():
        if s["spread"] > BOUNDS[k] / 3:
            s["flag"] = f"spread above a third of the bound {BOUNDS[k]}"
    return out


def agreement(first: dict, second: dict) -> dict:
    """Relative difference of the second set's medians from the first's."""
    out = {}
    for k, s in first["end_to_end"].items():
        m1, m2 = s["median"], second["end_to_end"][k]["median"]
        diff = (m2 - m1) / m1
        worse = diff if LOWER_IS_BETTER[k] else -diff
        out[k] = {"medians": [m1, m2], "rel_diff": diff}
        if worse > BOUNDS[k]:
            out[k]["flag"] = f"second median worse by more than {BOUNDS[k]}"
    return out


def traced(name: str) -> dict:
    runs = []
    for _ in range(2):
        rc, lines = run_child(name, 1, SECONDS, 1)
        if rc != 0:
            raise SystemExit(f"{name} traced run exited {rc}")
        runs.append(json.loads(lines[-1])["metrics"])
        if len(runs) == 1:
            report = json.loads(lines[-2].split(" ", 1)[1])
    exact = [k for k, v in runs[0].items()
             if v["unit"] in ("count", "ratio")
             and k != "trace.overhead_ratio"]
    return {"per_layer": {k: v["value"] for k, v in runs[0].items()},
            "traced_named": {k: v["value"]
                             for k, v in report["named"].items()},
            "exact_counts_differing": [
                k for k in exact
                if runs[0][k]["value"] != runs[1][k]["value"]]}


def record(workloads, runs, with_trace) -> dict:
    out = {"machine": machine(), "src_lines": src_lines(),
           "run_seconds": SECONDS, "runs": runs, "sets": SETS,
           "workloads": {name: {"why": WHY[name], "sets": []}
                         for name in workloads}}
    # one whole set after the other, as two separate comparisons would run
    for _ in range(SETS):
        for name in workloads:
            out["workloads"][name]["sets"].append(one_set(name, runs))
    for name, entry in out["workloads"].items():
        entry["agreement"] = agreement(*entry["sets"])
        if with_trace:
            entry.update(traced(name))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path)
    ns = ap.parse_args(argv)
    rec = record(ns.workload or [w["name"] for w in SPEC["workloads"]],
                 ns.runs, ns.traced)
    text = json.dumps(rec, indent=1)
    if ns.out:
        ns.out.write_text(text + "\n")
    for name, entry in rec["workloads"].items():
        for n, s_ in enumerate(entry["sets"], 1):
            for k, s in s_["end_to_end"].items():
                print(f"{name:<16} set {n} {k:<12} median "
                      f"{s['median']:<10.4g} spread {s['spread']:.3f} "
                      f"{s.get('flag', '')}")
        for k, a in entry["agreement"].items():
            print(f"{name:<16} {k:<12} second/first {a['rel_diff']:+.3f} "
                  f"{a.get('flag', '')}")
        if entry.get("exact_counts_differing"):
            print(f"{name:<16} traced counts differ: "
                  + ", ".join(entry["exact_counts_differing"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
