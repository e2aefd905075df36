"""Command-line front end.

Verbs: reduce an expression to normal form, run verification suites,
dump a presentation, or scan a presentation for non-joinable critical
pairs.  Presentations are addressed by catalog name (see `rules --list`).

Exit status: 0 when everything passed, 1 when any check or reduction
failed, 2 for usage and parse errors.  Reports go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import verify
from .algebra import AlgebraError, DEFAULT_FUEL, check_local_confluence
from .parsing import (ExprSyntaxError, UnknownGenerator, parse_expression,
                      render_expression, render_presentation)
from .presentations import build_catalog, catalog_presentations
from .scalars import DivisionByZero

OK, FAILED, USAGE = 0, 1, 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superplane",
        description="exact rewriting over the deformed superplane calculi")
    sub = ap.add_subparsers(dest="verb", required=True)

    red = sub.add_parser("reduce", help="print the normal form of an "
                                        "expression")
    red.add_argument("expression")
    red.add_argument("--presentation", required=True, metavar="NAME")
    red.add_argument("--fuel", type=int, default=DEFAULT_FUEL)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all",
                     metavar="NAME", help="suite name or 'all'")
    ver.add_argument("--format", choices=("text", "structured"),
                     default="text")
    ver.add_argument("--fuel", type=int, default=None)

    rul = sub.add_parser("rules", help="dump a presentation")
    grp = rul.add_mutually_exclusive_group(required=True)
    grp.add_argument("--presentation", metavar="NAME")
    grp.add_argument("--list", action="store_true",
                     help="list catalog presentation names")

    cp = sub.add_parser("critical-pairs",
                        help="scan for non-joinable critical pairs")
    cp.add_argument("--presentation", required=True, metavar="NAME")
    cp.add_argument("--max-len", type=int, default=4)
    cp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    return ap


class UsageError(Exception):
    pass


def _named_presentation(name: str):
    table = catalog_presentations(build_catalog())
    if name not in table:
        known = ", ".join(sorted(table))
        raise UsageError(f"unknown presentation {name!r} (known: {known})")
    return table[name]


def _cmd_reduce(ns) -> int:
    pres = _named_presentation(ns.presentation)
    try:
        expr = parse_expression(ns.expression, pres)
    except DivisionByZero as exc:
        raise UsageError(str(exc)) from exc
    except RecursionError:
        raise UsageError("expression is nested too deeply") from None
    print(render_expression(pres.normal_form(expr, ns.fuel)))
    return OK


def _cmd_verify(ns) -> int:
    if ns.suite != "all" and ns.suite not in verify.SUITES:
        known = ", ".join(verify.SUITES)
        raise UsageError(f"unknown suite {ns.suite!r} (known: {known},"
                               f" all)")
    cat = build_catalog()
    if ns.suite == "all":
        reports = verify.run_all(cat, ns.fuel)
    else:
        reports = [verify.SUITES[ns.suite](cat, ns.fuel)]
    render = (verify.render_structured if ns.format == "structured"
              else verify.render_text)
    print(render(reports))
    return OK if verify.overall_ok(reports) else FAILED


def _cmd_rules(ns) -> int:
    if ns.list:
        for name in catalog_presentations(build_catalog()):
            print(name)
        return OK
    print(render_presentation(_named_presentation(ns.presentation)))
    return OK


def _cmd_critical_pairs(ns) -> int:
    pres = _named_presentation(ns.presentation)
    report = check_local_confluence(pres, ns.max_len, ns.fuel)
    print(f"presentation: {report.presentation}")
    print(f"max word length: {report.max_len}")
    print(f"words scanned: {report.words_scanned}")
    print(f"pairs checked: {report.pairs_checked}")
    print(f"non-joinable: {len(report.failures)}")
    for f in report.failures:
        print(f"  word {'*'.join(f.word)}: rule at {f.pos_a} gives "
              f"{render_expression(f.nf_a)}; rule at {f.pos_b} gives "
              f"{render_expression(f.nf_b)}")
    return OK if report.ok else FAILED


_DISPATCH = {
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "rules": _cmd_rules,
    "critical-pairs": _cmd_critical_pairs,
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return _DISPATCH[ns.verb](ns)
    except (UsageError, ExprSyntaxError, UnknownGenerator) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILED


if __name__ == "__main__":
    sys.exit(main())
