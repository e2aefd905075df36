"""The three benchmark workloads and the checks that gate them.

Each workload runs in a fresh interpreter, so build_catalog's lru_cache and
every presentation's normal-form memo start cold, as they do for a user of
the command line.  measure() does the timed work and returns what it saw;
check() validates it afterwards, outside every timed window and with the
tracing wrappers removed.

Every workload reports the same end-to-end metrics:

  setup_s      import superplane and build the catalog (cold)
  cold_s       the workload's requests, sent after set-up on cold memos
  peak_rss_mb  peak resident set size of the process

plus detail metrics named after what a user runs (verify_s, scan_s,
reduce_p90_ms, ...), which apply to one workload each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import statistics
import time
from pathlib import Path

from stream import (letters_of, random_reduce, redexes, request_stream,
                    well_founded)

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-checks.tsv"

WHY = {
    "verify-cold": "what `superplane verify` costs a user: the only "
                   "workload with the coaction memo fill, the memo-warm "
                   "pass, fingerprints and report rendering",
    "reduce-mix": "interactive `superplane reduce` traffic over all six "
                  "presentations: the only workload where parsing and "
                  "non-constant gcds carry real weight",
    "confluence-scan": "`superplane critical-pairs` over the catalog plus "
                       "a broken control: many short unrelated words with "
                       "little memo reuse, and the only critical-pair user",
}

# a reduce-mix session: this many requests, answered from empty memos in
# about 3 s on the unmodified tree.  A run repeats the session once per
# three seconds of --seconds and reports the median, so one burst of host
# noise moves one session, not the result.
SESSION_REQUESTS = 40
ORACLE_SAMPLE = 8


class Phases:
    """Wall-clock time of each pass through a named phase, mirrored as
    spans when traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}

    def total(self, name: str) -> float:
        return sum(self.times[name])

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self.tracer is not None:
            self.tracer.enter("phase." + name, detail=True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times.setdefault(name, []).append(
                time.perf_counter() - t0)
            if self.tracer is not None:
                self.tracer.exit()


def nearest_rank(values: list[float], q: float) -> float:
    """q-quantile by nearest rank; failed requests enter as infinity."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------- verify-cold

def check_lines(text: str) -> list[str]:
    return [line for line in text.split("\n") if line.startswith("check\t")]


def golden_mismatches(text: str, golden: str) -> list[str]:
    """Check records of a structured report that differ from the golden
    file, byte for byte; fingerprint records are not compared."""
    got, want = check_lines(text), check_lines(golden)
    bad = [f"line {k + 1}: got {g!r}, want {w!r}"
           for k, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        bad.append(f"{len(got)} check records, golden has {len(want)}")
    return bad


def measure_verify_cold(cat, seed: int, seconds: int, phases: Phases):
    from superplane import cli, verify

    out = {}
    with phases("cold"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out["rc"] = cli.main(["verify", "--suite", "all",
                                  "--format", "structured"])
        out["cold_text"] = buf.getvalue().rstrip("\n")
    with phases("warm"):
        out["warm_text"] = verify.render_structured(verify.run_all(cat))
    out["attempted"], out["failed"] = 2, 0
    out["cold_s"] = phases.total("cold")
    out["named"] = {"verify_s": (out["cold_s"], "s"),
                    "verify_warm_s": (phases.total("warm"), "s")}
    return out


def check_verify_cold(seen) -> tuple[list[str], dict]:
    errors = []
    if seen["rc"] != 0:
        errors.append(f"verify exited {seen['rc']}")
    errors += golden_mismatches(seen["cold_text"], GOLDEN.read_text())
    if seen["warm_text"] != seen["cold_text"]:
        errors.append("warm structured report differs from the cold one")
    prints = [l for l in seen["cold_text"].split("\n")
              if l.startswith("fingerprint\t")]
    statuses = [l.split("\t")[3] for l in check_lines(seen["cold_text"])]
    detail = {
        "checks": len(statuses),
        "discrepancies": statuses.count("Discrepancy"),
        "fails": statuses.count("Fail"),
        "fingerprint_digest": hashlib.sha256(
            "\n".join(prints).encode()).hexdigest()[:16],
    }
    return errors, detail


# ------------------------------------------------------------ reduce-mix

def _reduce_pass(table, requests):
    """One closed-loop pass: the next request goes out when the previous
    one is answered.  Returns (latencies, outputs); a request that
    exhausts its fuel has latency inf and output None."""
    from superplane import FuelExhausted, parse_expression, render_expression

    lat, outs = [], []
    clock = time.perf_counter
    for name, text in requests:
        pres = table[name]
        t0 = clock()
        try:
            expr = parse_expression(text, pres)
            nf = pres.normal_form(expr)
            outs.append((expr, nf, render_expression(nf)))
            lat.append(clock() - t0)
        except FuelExhausted:
            outs.append(None)
            lat.append(math.inf)
    return lat, outs


def measure_reduce_mix(cat, seed: int, seconds: int, phases: Phases):
    """Sessions of the same seeded request stream, each on copies of the
    six presentations with empty memos; cold_s is the median session."""
    from superplane import Presentation, catalog_presentations

    table = catalog_presentations(cat)
    atoms = {name: letters_of(pres) for name, pres in table.items()}
    requests = request_stream(seed, atoms, SESSION_REQUESTS)
    lat, sessions = [], []
    for _ in range(max(1, seconds // 3)):
        fresh = {name: Presentation(p.name, p.gens.values(), p.rules,
                                    p.require_complete)
                 for name, p in table.items()}
        with phases("cold"):
            session_lat, outs = _reduce_pass(fresh, requests)
        lat += session_lat
        sessions.append(outs)
    failed = sum(o is None for outs in sessions for o in outs)
    named = {"reduce_per_s": (len(lat) / phases.total("cold"), "1/s"),
             "reduce_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
             "reduce_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms")}
    return {"table": table, "requests": requests, "seed": seed,
            "sessions": sessions, "attempted": len(lat), "failed": failed,
            "cold_s": statistics.median(phases.times["cold"]),
            "named": named}


def check_reduce_mix(seen) -> tuple[list[str], dict]:
    errors = []
    table, requests = seen["table"], seen["requests"]
    first = seen["sessions"][0]
    texts = [o and o[2] for o in first]
    for n, outs in enumerate(seen["sessions"][1:], 2):
        if [o and o[2] for o in outs] != texts:
            errors.append(f"session {n} answered differently from session 1")
    for k, ((name, _), out) in enumerate(zip(requests, first)):
        if out is None:
            continue
        for word in out[1].words():
            if redexes(table[name], word):
                errors.append(f"request {k} ({name}): output word "
                              f"{'*'.join(word)} is reducible")
    rng = random.Random(f"oracle-{seen['seed']}")
    # the random strategy only terminates where the word order is
    # well-founded, i.e. on the presentations without adjoined inverses
    done = [k for k, o in enumerate(first)
            if o is not None and well_founded(table[requests[k][0]])]
    sample = sorted(rng.sample(done, min(ORACLE_SAMPLE, len(done))))
    for k in sample:
        name = requests[k][0]
        expr, nf, _ = first[k]
        try:
            agrees = random_reduce(table[name], expr, rng) == nf
        except RuntimeError as exc:
            errors.append(f"request {k} ({name}): {exc}")
            continue
        if not agrees:
            errors.append(f"request {k} ({name}): random-strategy "
                          f"reduction disagrees with normal_form")
    digest = hashlib.sha256("\n".join(
        t if t is not None else "!fuel" for t in texts).encode()).hexdigest()
    detail = {
        "requests_per_session": len(requests),
        "sessions": len(seen["sessions"]),
        "fuel_exhausted": seen["failed"],
        "oracle_sample": sample,
        "output_digest": digest[:16],
    }
    return errors, detail


# ------------------------------------------------------- confluence-scan

# critical pairs per presentation at depth 4 on the unmodified tree; a scan
# that drops pairs fails the run even where the control still fails
EXPECTED_PAIRS = {"pq-calculus": 96, "h-calculus": 96, "supergroup": 104,
                  "covariance": 490, "one-forms": 70, "oscillator": 44,
                  "control": 96}


def control_presentation(cat):
    """The pq calculus with the sign of its (x, th) rule flipped: at least
    one critical pair must stop joining, so a scan that skips work fails."""
    from superplane import Presentation, RewriteRule

    pq = cat.primed_calculus
    rules = [RewriteRule(r.lhs, -r.rhs) if r.lhs == ("x", "th") else r
             for r in pq.rules]
    return Presentation("control-flipped-x-th", pq.gens.values(), rules)


def measure_confluence_scan(cat, seed: int, seconds: int, phases: Phases):
    from superplane import catalog_presentations, check_local_confluence

    targets = list(catalog_presentations(cat).items())
    targets.append(("control", control_presentation(cat)))
    with phases("cold"):
        reports = {name: check_local_confluence(pres, 4)
                   for name, pres in targets}
    cold_s = phases.total("cold")
    return {"reports": reports, "attempted": len(targets), "failed": 0,
            "cold_s": cold_s, "named": {"scan_s": (cold_s, "s")}}


def check_confluence_scan(seen) -> tuple[list[str], dict]:
    errors = []
    reports = seen["reports"]
    for name, rep in reports.items():
        if name == "control":
            if rep.ok:
                errors.append("control presentation reported joinable: "
                              "the flipped rule went undetected")
        elif not rep.ok:
            errors.append(f"{name}: {len(rep.failures)} non-joinable pairs")
        if rep.pairs_checked != EXPECTED_PAIRS.get(name):
            errors.append(f"{name}: {rep.pairs_checked} critical pairs "
                          f"checked, expected {EXPECTED_PAIRS.get(name)}")
    detail = {
        "pairs": {n: r.pairs_checked for n, r in reports.items()},
        "control_non_joinable": len(reports["control"].failures),
    }
    return errors, detail


WORKLOADS = {
    "verify-cold": (measure_verify_cold, check_verify_cold),
    "reduce-mix": (measure_reduce_mix, check_reduce_mix),
    "confluence-scan": (measure_confluence_scan, check_confluence_scan),
}
