"""Span tracing of the superplane layers, installed from outside the package.

install() replaces public functions and methods of the six package modules
with timing wrappers, in every module namespace and dict that holds them
(build_catalog lives in presentations, cli, verify and the package root;
the suites live in verify.SUITES).  uninstall() puts every original back.

Each span has a name, a start, an end and a parent.  Self time is a span's
duration minus the time its child spans cover, so the self times of all
spans sum to the root span's duration.  High-volume spans (scalar and
expression arithmetic) are folded into per-name aggregates as they close;
low-volume ones are also kept as records and written out at exit.
GaussianRational arithmetic is not wrapped: at about a million calls per
workload the wrapper would cost more than the work, so its time shows as
self time of the Poly and poly_gcd spans that call it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("scalars", "algebra", "presentations", "parsing", "verify", "cli")

SUITE_NAMES = ("contraction", "differential", "covariance", "forms",
               "phase-space", "oscillator", "appendix")


class Tracer:
    """Stack of open spans plus per-name aggregates.

    stats[name] = [calls, self_s, total_s]; spans holds the detailed
    records as [id, parent_id, name, start, end], where parent_id is the
    nearest enclosing detailed span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def enter(self, name: str, detail: bool = False):
        idx = None
        if detail:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            idx = len(self.spans)
            self.spans.append([idx, parent, name, None, None])
        self._stack.append([name, self.clock(), 0.0, idx])

    def exit(self):
        end = self.clock()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if idx is not None:
            self.spans[idx][3] = start
            self.spans[idx][4] = end

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def span_time_under(self, name: str, ancestor: str) -> float:
        """Summed duration of detailed spans called name that have a
        detailed ancestor called ancestor."""
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s[2] != name:
                continue
            p = s[1]
            while p is not None and by_id[p][2] != ancestor:
                p = by_id[p][1]
            if p is not None:
                total += s[4] - s[3]
        return total


_MARK = "__bench_span__"


def _wrap(tracer: Tracer, name: str, fn, detail: bool, after, on_error):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def span(*args, **kwargs):
        enter(name, detail)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            leave()
            if on_error is not None:
                on_error(exc)
            raise
        leave()
        if after is not None:
            after(args, result)
        return result

    setattr(span, _MARK, name)
    return span


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Time one span wrapper adds to a call, without the count hooks: the
    median over repeats of (wrapped loop - bare loop) / calls, measured on
    a private Tracer around a function that does nothing."""

    def noop():
        return None

    wrapped = _wrap(Tracer(), "probe", noop, False, None, None)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return max(0.0, costs[len(costs) // 2])


class Installation:
    """The patches made by install(); undo() restores every original."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, str, object, bool]] = []

    def _replace(self, owner, key, new, is_dict):
        old = owner[key] if is_dict else getattr(owner, key)
        self.patched.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def patch(self, name, fn, owners, detail=False, after=None,
              on_error=None):
        """Wrap fn once and substitute the wrapper wherever an owner (a
        module, class or dict) holds fn itself."""
        wrapper = _wrap(self.tracer, name, fn, detail, after, on_error)
        hits = 0
        for owner in owners:
            if isinstance(owner, dict):
                keys = [k for k, v in owner.items() if v is fn]
                for k in keys:
                    self._replace(owner, k, wrapper, True)
            else:
                keys = [k for k, v in vars(owner).items() if v is fn]
                for k in keys:
                    self._replace(owner, k, wrapper, False)
            hits += len(keys)
        if not hits:
            raise RuntimeError(f"nothing to patch for span {name}")

    def undo(self):
        while self.patched:
            owner, key, old, is_dict = self.patched.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)


def package_modules() -> list:
    import superplane  # noqa: F401  (loads every submodule)

    return [m for n, m in sorted(sys.modules.items())
            if n == "superplane" or (n.startswith("superplane.")
                                     and n != "superplane.__main__")]


def install(tracer: Tracer) -> Installation:
    """Wrap the public entry points of every layer; see the module doc."""
    from superplane import algebra, cli, parsing, presentations, scalars, verify
    from superplane.algebra import (Expression, FuelExhausted, Involution,
                                    Morphism, Presentation)
    from superplane.scalars import Poly, Scalar

    mods = package_modules()
    inst = Installation(tracer)
    counts = tracer.counts
    one = Poly.one()

    def gcd_result(args, result):
        if result == one:
            counts["poly_gcd.unit"] += 1

    def is_const(x) -> bool:
        """True for a number, or a Poly or Scalar without p and q."""
        if isinstance(x, Scalar):
            return is_const(x.num) and is_const(x.den)
        if isinstance(x, Poly):
            return x.is_zero() or x.leading()[0] == (0, 0)
        return True

    def mul_operands(args, result):
        if is_const(args[0]) and is_const(args[1]):
            counts["Scalar.mul.const"] += 1

    def nf_sizes(args, result):
        counts["normal_form.terms_in"] += len(args[1].terms())
        counts["normal_form.terms_out"] += len(result.terms())

    last_fuel = []

    def fuel_error(exc):
        # count each exhaustion once, at the innermost normal_form
        if isinstance(exc, FuelExhausted) and not (last_fuel and
                                                    last_fuel[0] is exc):
            counts["fuel_exhausted"] += 1
            last_fuel[:] = [exc]

    def pairs_checked(args, result):
        counts["check_local_confluence.pairs"] += result.pairs_checked

    p = inst.patch
    try:
        p("scalars.poly_gcd", scalars.poly_gcd, mods, after=gcd_result)
        p("scalars.Scalar.mul", Scalar.__mul__, [Scalar], after=mul_operands)
        p("scalars.Scalar.add", Scalar.__add__, [Scalar])
        p("scalars.Scalar.add", Scalar.__sub__, [Scalar])
        p("scalars.Scalar.add", Scalar.__rsub__, [Scalar])
        p("scalars.Scalar.div", Scalar.__truediv__, [Scalar])
        p("scalars.Scalar.div", Scalar.__rtruediv__, [Scalar])
        p("scalars.Poly.mul", Poly.__mul__, [Poly])
        p("scalars.Poly.divexact", Poly.divexact, [Poly])

        p("algebra.normal_form", Presentation.normal_form, [Presentation],
          after=nf_sizes, on_error=fuel_error)
        p("algebra.Expression.mul", Expression.__mul__, [Expression])
        p("algebra.Expression.scale", Expression.scale, [Expression])
        p("algebra.Expression.add", Expression.__add__, [Expression])
        p("algebra.Morphism.apply", Morphism.apply, [Morphism])
        p("algebra.Involution.apply", Involution.apply, [Involution])
        p("algebra.critical_pairs", algebra.critical_pairs, mods, detail=True)
        p("algebra.check_local_confluence", algebra.check_local_confluence,
          mods, detail=True, after=pairs_checked)

        p("presentations.build_catalog", presentations.build_catalog, mods,
          detail=True)
        for fname in ("choose_variant", "build_contraction",
                      "derive_h_relations", "localize"):
            p(f"presentations.{fname}", getattr(presentations, fname), mods,
              detail=True)

        p("parsing.parse_expression", parsing.parse_expression, mods)
        p("parsing.render_expression", parsing.render_expression, mods)
        p("parsing.fingerprint", parsing.fingerprint, mods)

        for suite in SUITE_NAMES:
            p(f"verify.suite.{suite}", verify.SUITES[suite],
              mods + [verify.SUITES], detail=True)
        p("verify.render_structured", verify.render_structured, mods,
          detail=True)
        p("cli.main", cli.main, mods, detail=True)
    except BaseException:
        inst.undo()
        raise
    return inst


def leftover_wrappers() -> list[str]:
    """Every place in the package that still holds a span wrapper."""
    found = []
    for mod in package_modules():
        for key, val in vars(mod).items():
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{key}.{k}"
                          for k, v in vars(val).items() if hasattr(v, _MARK)]
            elif isinstance(val, dict):
                found += [f"{mod.__name__}.{key}[{k!r}]"
                          for k, v in val.items() if hasattr(v, _MARK)]
    return found


def layer_metrics(tracer: Tracer, cold_phase: str) -> tuple[dict, dict]:
    """Per-layer metrics as two dicts of name -> (value, unit): those every
    workload of BENCHMARK.json measures, and those of spans that only one
    workload reaches (the critical-pair scan, the suites, the CLI, report
    rendering).  On the other workloads such a time reads exactly 0.0 in
    every run, so it is reported as detail rather than as a result metric;
    its call count stays a result metric, except for the critical-pair
    scan, which no workload of BENCHMARK.json runs."""
    t = tracer
    c = t.counts
    out: dict[str, tuple] = {}
    detail: dict[str, tuple] = {}

    def calls_self(name, time_to=out):
        out[f"{name}.calls"] = (t.calls(name), "count")
        time_to[f"{name}.self_s"] = (t.self_s(name), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    calls_self("scalars.poly_gcd")
    out["scalars.poly_gcd.unit_ratio"] = (
        ratio(c["poly_gcd.unit"], t.calls("scalars.poly_gcd")), "ratio")
    for op in ("mul", "add", "div"):
        calls_self(f"scalars.Scalar.{op}")
    out["scalars.Scalar.mul.const_ratio"] = (
        ratio(c["Scalar.mul.const"], t.calls("scalars.Scalar.mul")), "ratio")
    for op in ("mul", "divexact"):
        calls_self(f"scalars.Poly.{op}")

    calls_self("algebra.normal_form")
    out["algebra.normal_form.terms_in"] = (c["normal_form.terms_in"], "count")
    out["algebra.normal_form.terms_out"] = (c["normal_form.terms_out"],
                                            "count")
    for op in ("mul", "scale", "add"):
        calls_self(f"algebra.Expression.{op}")
    calls_self("algebra.Morphism.apply")
    calls_self("algebra.Involution.apply")
    detail["algebra.critical_pairs.calls"] = (
        t.calls("algebra.critical_pairs"), "count")
    detail["algebra.critical_pairs.self_s"] = (
        t.self_s("algebra.critical_pairs"), "s")
    detail["algebra.check_local_confluence.self_s"] = (
        t.self_s("algebra.check_local_confluence"), "s")
    detail["algebra.check_local_confluence.pairs"] = (
        c["check_local_confluence.pairs"], "count")
    out["algebra.fuel_exhausted.count"] = (c["fuel_exhausted"], "count")

    for fname in ("build_catalog", "choose_variant", "build_contraction",
                  "derive_h_relations", "localize"):
        out[f"presentations.{fname}.self_s"] = (
            t.self_s(f"presentations.{fname}"), "s")
    calls_self("parsing.parse_expression")
    calls_self("parsing.render_expression", detail)
    calls_self("parsing.fingerprint", detail)

    for suite in SUITE_NAMES:
        detail[f"verify.suite.{suite}.s"] = (
            t.span_time_under(f"verify.suite.{suite}", cold_phase), "s")
    detail["verify.render_structured.self_s"] = (
        t.self_s("verify.render_structured"), "s")
    detail["cli.main.self_s"] = (t.self_s("cli.main"), "s")

    per_layer = defaultdict(float)
    for name, (_, self_s, _) in t.stats.items():
        layer = name.split(".", 1)[0]
        per_layer[layer if layer in LAYERS else "bench"] += self_s
    for layer in LAYERS + ("bench",):
        where = detail if layer in ("verify", "cli") else out
        where[f"layer.{layer}.self_s"] = (per_layer[layer], "s")
    return out, detail
