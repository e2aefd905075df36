"""Command-line front end.

Verbs: reduce to normal form (`-` reads the expression from stdin), run
verification suites, dump a presentation or scan it for non-joinable
critical pairs.  Presentations go by catalog name (see `rules --list`).

Exit status: 0 when everything passed, 1 when any check or reduction
failed, 2 for usage and parse errors.  A reduction that runs out of fuel
or of memory is a failed reduction: `reduce` then prints a one-line error
and exits 1.  `--fuel` bounds one budget of rewrite steps: the parse of
`reduce`, which reduces each product as it forms it and so gives the
normal form, each suite of `verify`, the whole `critical-pairs` scan; a
`verify` fuel error names the suite and the check that ran out, since
every row spends its fuel in its own check.  Reports go to stdout,
diagnostics to stderr.  A reader that closes the pipe early (`| head`) gets
what it read, and the verb exits 1 with nothing on stderr; any other failure
to write the output, a closed stdout among them, exits 1 with one line.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import AlgebraError, DEFAULT_FUEL, check_local_confluence
from .parsing import (ExprSyntaxError, parse_expression, render_expression,
                      render_presentation)
from .presentations import build_catalog, catalog_presentations
from .scalars import DivisionByZero

OK, FAILED, USAGE = 0, 1, 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superplane",
        description="exact rewriting over the deformed superplane calculi")
    sub = ap.add_subparsers(dest="verb", required=True)

    # argparse reads a word that starts with '-' as an option, and -h1*dth
    # as -h with an argument, so such an expression comes after --
    red = sub.add_parser(
        "reduce", help="print the normal form of an expression",
        usage="%(prog)s [-h] --presentation NAME [--fuel FUEL] [--] (expression | -)\n"
              "(write -- before an expression that starts with '-', as in -- -dth)")
    red.add_argument("expression", help="write -- before it if it starts with "
                     "'-'; - reads it from stdin")
    red.add_argument("--presentation", required=True, metavar="NAME")
    red.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    red.set_defaults(run=_cmd_reduce)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all",
                     metavar="NAME", help="suite name or 'all'")
    ver.add_argument("--format", choices=("text", "structured"),
                     default="text")
    ver.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    ver.set_defaults(run=_cmd_verify)

    rul = sub.add_parser("rules", help="dump a presentation")
    grp = rul.add_mutually_exclusive_group(required=True)
    grp.add_argument("--presentation", metavar="NAME")
    grp.add_argument("--list", action="store_true",
                     help="list catalog presentation names")
    rul.set_defaults(run=_cmd_rules)

    cp = sub.add_parser("critical-pairs",
                        help="scan for non-joinable critical pairs")
    cp.add_argument("--presentation", required=True, metavar="NAME")
    cp.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    cp.set_defaults(run=_cmd_critical_pairs)
    # leftover words get the verb's usage, with its hint on a leading '-'
    for verb in sub.choices.values():
        verb.set_defaults(parser=verb)
    return ap


class UsageError(Exception):
    pass


def _check_limits(ns) -> None:
    """Reject limits under which a verb could only do vacuous work."""
    if getattr(ns, "fuel", 0) < 0:
        raise UsageError(f"--fuel must not be negative, got {ns.fuel}")


def _named_presentation(name: str):
    table = catalog_presentations(build_catalog())
    if name not in table:
        known = ", ".join(sorted(table))
        raise UsageError(f"unknown presentation {name!r} (known: {known})")
    return table[name]


def _cmd_reduce(ns) -> int:
    pres = _named_presentation(ns.presentation)
    if ns.expression == "-":
        if sys.stdin is None:
            raise UsageError("cannot read stdin: it is closed")
        try:
            ns.expression = sys.stdin.buffer.read().decode()
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read stdin: {exc}") from exc
    # products are reduced as the parser forms them, on one budget, so the
    # parse is the normal form
    mul = pres.multiplier(ns.fuel)
    try:
        print(render_expression(parse_expression(ns.expression, pres, mul)))
        return OK
    except DivisionByZero as exc:
        raise UsageError(str(exc)) from exc
    except MemoryError:
        pass
    # out of the handler the reduction's frames are gone; the budget's
    # memo goes with the last reference to it
    del mul
    print(f"error: out of memory while reducing in {ns.presentation} "
          f"with fuel {ns.fuel} (try a smaller --fuel)", file=sys.stderr)
    return FAILED


def _cmd_verify(ns) -> int:
    from . import verify

    if ns.suite != "all" and ns.suite not in verify.SUITES:
        known = ", ".join(verify.SUITES)
        raise UsageError(f"unknown suite {ns.suite!r} (known: {known},"
                               f" all)")
    cat = build_catalog()
    reports = [verify.SUITES[name](cat, ns.fuel)
               for name in (verify.SUITES if ns.suite == "all" else [ns.suite])]
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
    report = check_local_confluence(pres, fuel=ns.fuel)
    print(f"presentation: {report.presentation}")
    print(f"pairs checked: {report.pairs_checked}")
    print(f"non-joinable: {len(report.failures)}")
    for f in report.failures:
        print(f"  word {'*'.join(f.word)}: rule at 0 gives "
              f"{render_expression(f.nf_a)}; rule at 1 gives "
              f"{render_expression(f.nf_b)}")
    return OK if report.ok else FAILED


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    try:
        ns, extra = ap.parse_known_args(argv)
        if extra:
            ns.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        _check_limits(ns)
        if sys.stdout is None:
            raise OSError("stdout is closed")
        rc = ns.run(ns)
        sys.stdout.flush()
        return rc
    except OSError as exc:
        # the rest of the output cannot be written; fd 1 now points at
        # devnull, so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return FAILED
    except (UsageError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILED
