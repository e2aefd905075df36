"""Tests of the benchmark's own machinery (not of the engine).

    python3 -m pytest -q bench

None of these builds the catalog, so they run in seconds.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from spans import Tracer, install, leftover_wrappers  # noqa: E402
from stream import random_reduce, request_stream  # noqa: E402
from workloads import (EXPECTED_PAIRS, GOLDEN,  # noqa: E402
                       check_confluence_scan, golden_mismatches)

ATOMS = {
    "plane": (["x", "th", "inv(x)"], ["h1", "h2"]),
    "ladder": (["A", "Ap", "B"], []),
}


def test_seed_reproduces_the_stream():
    first = request_stream(7, ATOMS, 60)
    assert first == request_stream(7, ATOMS, 60)
    other = request_stream(8, ATOMS, 60)
    assert other != first
    # the seed orders one fixed corpus
    assert sorted(other) == sorted(first)
    assert {name for name, _ in first} == set(ATOMS)


def test_stream_texts_parse():
    from superplane import GenClass, GeneratorDecl, Presentation
    from superplane import parse_expression

    def scaffold(name, ids):
        decls = [GeneratorDecl("h1", 1, GenClass.PARAMETER, 0),
                 GeneratorDecl("h2", 1, GenClass.PARAMETER, 1)]
        decls += [GeneratorDecl(g, 0, GenClass.INVERSE if g.endswith("inv")
                                else GenClass.STANDARD, k + 2)
                  for k, g in enumerate(ids)]
        return Presentation(name, decls, [], require_complete=False)

    table = {"plane": scaffold("plane", ["th", "x", "xinv"]),
             "ladder": scaffold("ladder", ["A", "Ap", "B"])}
    for name, text in request_stream(3, ATOMS, 40):
        parse_expression(text, table[name])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # root [0, 10] holds A [1, 4] (which holds B [2, 3]), A [5, 6] and
    # C [7, 9.5]; A also recurses into itself inside C: A [8, 9]
    clock = FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9.5, 10])
    t = Tracer(clock)
    t.enter("root", detail=True)
    t.enter("A", detail=True)
    t.enter("B")
    t.exit()
    t.exit()
    t.enter("A")
    t.exit()
    t.enter("C", detail=True)
    t.enter("A")
    t.exit()
    t.exit()
    t.exit()
    assert t.stats["root"] == [1, 10 - 3 - 1 - 2.5, 10]
    assert t.stats["A"][:2] == [3, (3 - 1) + 1 + 1]
    assert t.stats["B"][:2] == [1, 1]
    assert t.stats["C"][:2] == [1, 2.5 - 1]
    assert sum(st[1] for st in t.stats.values()) == t.stats["root"][2]
    by_name = {s[2]: s for s in t.spans}
    assert by_name["root"][1] is None
    assert by_name["A"][1] == by_name["root"][0]
    assert by_name["C"][3:] == [7, 9.5]
    assert t.span_time_under("A", "root") == 3
    assert t.span_time_under("C", "A") == 0


def test_golden_comparator_rejects_one_character():
    golden = GOLDEN.read_text()
    assert golden_mismatches(golden, golden) == []
    line = next(l for l in golden.splitlines() if "\tDiscrepancy\t" in l)
    residual = line.split("\t")[4]
    k = len(residual) // 2
    flipped = residual[:k] + ("+" if residual[k] != "+" else "-") \
        + residual[k + 1:]
    mutated = golden.replace(line, line.replace(residual, flipped, 1))
    assert len(golden_mismatches(mutated, golden)) == 1
    # fingerprints are reported, not gated
    with_print = "fingerprint\tx\ty\t" + "0" * 64 + "\n" + golden
    assert golden_mismatches(with_print, golden) == []
    assert golden_mismatches(golden.rsplit("\n", 2)[0], golden)


def test_scan_gate_rejects_a_dropped_pair():
    from types import SimpleNamespace

    def reports(drop=None):
        return {name: SimpleNamespace(
            ok=name != "control", failures=[] if name != "control" else [1],
            pairs_checked=n - (name == drop))
            for name, n in EXPECTED_PAIRS.items()}

    assert check_confluence_scan({"reports": reports()})[0] == []
    errors, _ = check_confluence_scan({"reports": reports("covariance")})
    assert errors == ["covariance: 489 critical pairs checked, expected 490"]


def qplane():
    from superplane import Expression, GeneratorDecl, Presentation, Scalar

    return Presentation(
        "qplane",
        [GeneratorDecl("x", 0, sort_key=0), GeneratorDecl("y", 0, sort_key=1),
         GeneratorDecl("e", 1, sort_key=2)],
        [(("y", "x"), Expression({("x", "y"): Scalar.q()})),
         (("e", "x"), Expression({("x", "e"): Scalar.p()})),
         (("e", "y"), Expression({("y", "e"): -1})),
         (("e", "e"), Expression.zero())])


def test_random_strategy_agrees_with_normal_form():
    import random

    from superplane import parse_expression

    pres = qplane()
    expr = parse_expression("(e + y + x)^3 - p/(q - 1)*e*y*x*x", pres)
    rng = random.Random(1)
    assert random_reduce(pres, expr, rng) == pres.normal_form(expr)


def test_wrappers_are_removed_after_a_traced_run():
    import superplane
    from superplane import Scalar, presentations, verify

    before_catalog = presentations.build_catalog
    before_mul = Scalar.__dict__["__mul__"]
    before_suite = verify.SUITES["covariance"]
    tracer = Tracer()
    inst = install(tracer)
    try:
        assert leftover_wrappers()
        assert Scalar.__dict__["__rmul__"] is Scalar.__dict__["__mul__"]
        tracer.enter("root", detail=True)
        # looked up after install, as the workloads do
        pres = qplane()
        pres.normal_form(superplane.parse_expression("e*y*x + y*x", pres))
        superplane.check_local_confluence(pres, 3)
        tracer.exit()
    finally:
        inst.undo()
    assert leftover_wrappers() == []
    assert presentations.build_catalog is before_catalog
    assert superplane.build_catalog is before_catalog
    assert Scalar.__dict__["__mul__"] is before_mul
    assert Scalar.__dict__["__rmul__"] is before_mul
    assert verify.SUITES["covariance"] is before_suite
    assert tracer.calls("algebra.normal_form") >= 1
    assert tracer.calls("algebra.critical_pairs") == 1
    assert tracer.counts["check_local_confluence.pairs"] > 0
    total = sum(st[1] for st in tracer.stats.values())
    assert total == pytest.approx(tracer.stats["root"][2], rel=1e-9)
