"""Benchmark of the superplane engine, driven through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is verify-cold, reduce-mix, confluence-scan, or all (each workload in
turn, each in a fresh interpreter).  The program is imported from src/ next
to this directory.  One process, no threads; the only child processes are
the per-workload interpreters of `all`, which run one at a time and are
waited for.

The next-to-last line of standard output is a report with every detail
metric, the machine and the src/ line count; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from the traced
run.  Exit status: 0 when every output checked out, 1 when a check failed
(the result says correct: false), 2 when nothing could be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 900
# catalog builds per untraced run; setup_s takes their median
SETUPS = 2

sys.path.insert(0, str(BENCH))

from workloads import WHY, WORKLOADS, Phases  # noqa: E402


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seconds < 1:
        ap.error("--seconds must be at least 1")
    return ns


def machine() -> dict:
    return {
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def run_child(workload, seed, seconds, trace) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def _import_program():
    import superplane

    where = Path(superplane.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"superplane was imported from {where}, "
                          f"not from {SRC}")
    return superplane


def run_workload(name: str, seed: int, seconds: int, trace: bool):
    """Run one workload in this process; returns (exit code, report,
    result)."""
    measure, check = WORKLOADS[name]
    tracer = installed = None
    t0 = time.perf_counter()
    superplane = _import_program()
    import_s = time.perf_counter() - t0
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        installed = install(tracer)
        tracer.enter("root", detail=True)
    phases = Phases(tracer)
    try:
        # each build after the first starts from an empty lru_cache, and
        # the last catalog built is the one the workload uses
        for k in range(1 if trace else SETUPS):
            if k:
                cat = None
                superplane.build_catalog.cache_clear()
            with phases("setup"):
                cat = superplane.build_catalog()
        seen = measure(cat, seed, seconds, phases)
    finally:
        if trace:
            tracer.exit()
            installed.undo()
    setup_s = import_s + statistics.median(phases.times["setup"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors, detail = check(seen)
    attempted, failed = seen["attempted"], seen["failed"]
    named = dict(seen["named"], error_rate=(failed / attempted, "ratio"))

    if trace:
        from spans import layer_metrics, leftover_wrappers, span_cost_s

        left = leftover_wrappers()
        if left:
            errors.append("tracing wrappers left installed: "
                          + ", ".join(left))
        root_s = tracer.stats["root"][2]
        self_sum = sum(st[1] for st in tracer.stats.values())
        if abs(self_sum - root_s) > 1e-6 * root_s:
            errors.append(f"self times sum to {self_sum}, root span "
                          f"lasted {root_s}")
        metrics, per_layer_detail = layer_metrics(tracer, "phase.cold")
        named.update(per_layer_detail)
        metrics["trace.root_s"] = (root_s, "s")
        metrics["trace.self_sum_s"] = (self_sum, "s")
        spans = sum(st[0] for st in tracer.stats.values())
        metrics["trace.spans"] = (spans, "count")
        metrics["trace.setup_s"] = (setup_s, "s")
        metrics["trace.cold_s"] = (seen["cold_s"], "s")
        # the wrappers' own cost, from a fixed call count rather than from
        # a second cold set-up, whose host noise would swamp it
        cost_s = span_cost_s()
        metrics["trace.span_cost_us"] = (1e6 * cost_s, "us")
        metrics["trace.overhead_ratio"] = (
            spans * cost_s / (root_s - spans * cost_s), "ratio")
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"spans": tracer.spans, "stats": tracer.stats,
             "counts": dict(tracer.counts)}))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cold_s": (seen["cold_s"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    report = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "why": WHY[name], "errors": errors[:20],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "detail": detail, "machine": machine(), "src_lines": src_lines(),
    }
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return (0 if not errors else 1), report, result


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own fresh interpreter, one after another; with
    trace, an untraced and then a traced run."""
    results, worst = {}, 0
    for name in WORKLOADS:
        for t in sorted({0, trace}):
            rc, lines = run_child(name, seed, seconds, t)
            worst = max(worst, rc)
            if rc not in (0, 1) or len(lines) < 2:
                print(f"{name}: exited {rc} without a result")
                continue
            report = json.loads(lines[-2].split(" ", 1)[1])
            result = results[name, t] = json.loads(lines[-1])
            print(f"== {name} (seed {seed}, trace {t}, correct: "
                  f"{result['correct']}, {result['failed']}/"
                  f"{result['attempted']} failed)")
            rows = dict(result["metrics"])
            rows.update(report["named"])
            for metric, v in rows.items():
                print(f"  {metric:<42} {v['value']:>14.6g} {v['unit']}")
            for err in report["errors"]:
                print(f"  ERROR {err}")
    print(json.dumps({f"{n}/trace{t}": r for (n, t), r in results.items()}))
    return worst


def main(argv=None) -> int:
    ns = _parse_args(argv)
    if not (SRC / "superplane" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if ns.workload == "all":
        return run_all(ns.seed, ns.seconds, ns.trace)
    try:
        rc, report, result = run_workload(ns.workload, ns.seed, ns.seconds,
                                          bool(ns.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
