"""Command dispatch, exit codes, and output shape of the console tool."""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from superplane import build_catalog, catalog_presentations, cli, verify
from superplane.algebra import (Expression, GenClass, GeneratorDecl,
                                Presentation, RewriteRule)
from superplane.parsing import parse_expression
from superplane.verify import CheckResult, SuiteReport

from reference import at_point, point_nf, reference_nf

GOLDEN_DUMPS = Path(__file__).parent / "golden" / "presentations.sha256"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_help_runs_without_catalog():
    proc = subprocess.run(
        [sys.executable, "-m", "superplane", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "reduce" in proc.stdout
    assert "critical-pairs" in proc.stdout


def test_import_loads_only_what_every_command_needs():
    # verify is loaded by the verify command alone, and its names are read
    # from superplane.verify only; hashlib is loaded by the first
    # fingerprint, and no record is a dataclass
    code = ("import sys; before = set(sys.modules); import superplane; "
            "print(sorted(set(sys.modules) - before)); "
            "print(hasattr(superplane, 'run_all'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added, reachable = proc.stdout.splitlines()
    for name in ("dataclasses", "inspect", "hashlib", "superplane.verify"):
        assert repr(name) not in added
    assert "'superplane.algebra'" in added
    assert reachable == "False"


def test_reduce_loads_only_what_it_uses():
    # a reduction runs no suite and takes no fingerprint: loading the
    # suites, dataclasses or hashlib (which loads OpenSSL) would put their
    # import time into every command's start-up
    code = ("import sys; from superplane.cli import main; "
            "rc = main(['reduce', 'x*th', '--presentation', 'h-calculus']); "
            "print(rc); print(sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    _, rc, loaded = proc.stdout.splitlines()
    assert rc == "0"
    for name in ("superplane.verify", "dataclasses", "hashlib"):
        assert repr(name) not in loaded
    assert "'superplane.parsing'" in loaded


@pytest.mark.parametrize("argv", [
    ["rules", "--presentation", "covariance"],
    ["reduce", "(x+th+px+pth)^4", "--presentation", "h-calculus"],
])
def test_closed_pipe_exits_quietly(argv):
    # the reader is gone before the first write, as after `| head -1`
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "superplane", *argv], stdout=w,
            stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(w)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 1


@pytest.mark.parametrize("redirect", [">/dev/full", ">&-"],
                         ids=["full", "closed"])
@pytest.mark.parametrize("argv", [
    "rules --presentation covariance",
    "reduce '(x+th+px+pth)^4' --presentation h-calculus",
], ids=["rules", "reduce"])
def test_unwritable_output_gives_one_line(argv, redirect):
    # a full device fails the first write with ENOSPC, and a stdout closed
    # at start leaves nothing to write to: one error line, exit status 1
    proc = subprocess.run(
        ["sh", "-c", f'exec "$0" -m superplane {argv} {redirect}',
         sys.executable], stderr=subprocess.PIPE, text=True, timeout=60)
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1
    assert proc.returncode == 1


def test_reduce_zero(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "dth*dx - p*dx*dth",
        "--presentation", "pq-calculus")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_limit_identity(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "dx*dth - dth*dx - h1*dth^2",
        "--presentation", "h-calculus")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_keeps_unconstrained_square(capsys):
    # the even differential square carries no relation here, so the
    # parameter term survives
    code, out, _ = run_cli(
        capsys, "reduce", "dth*dx - p*dx*dth + h1*dth*dth",
        "--presentation", "pq-calculus")
    assert code == 0
    assert out.strip() == "h1*dth^2"


def test_reduce_fuel_exhaustion(capsys):
    code, out, err = run_cli(
        capsys, "reduce", "px*x*x*x", "--presentation", "pq-calculus",
        "--fuel", "1")
    assert code == 1
    assert out == ""
    assert "fuel" in err


def test_reduce_fuel_exhaustion_after_warm_catalog(capsys):
    # the catalog's memo already holds every word this reduction meets;
    # the verb must still spend its own fuel on them
    from superplane import build_catalog, parse_expression

    pq = build_catalog().primed_calculus
    pq.normal_form(parse_expression("px*x*x*x", pq))
    code, out, err = run_cli(
        capsys, "reduce", "px*x*x*x", "--presentation", "pq-calculus",
        "--fuel", "1")
    assert code == 1
    assert out == ""
    assert "fuel" in err


def test_reduce_forms_reduced_products(capsys):
    # the free expansion of the first power has 4^6 words; the verb reduces
    # each product as it is formed and must agree with expanding first.
    # The second takes a gcd of two degree-30 polynomials, which must keep
    # its coefficients small to finish.  The third writes every shape of
    # coefficient: rational, imaginary and complex constants, and fractions
    # of polynomials with such coefficients; its line is pinned.
    from superplane import build_catalog, parse_expression, render_expression

    h = build_catalog().h_calculus
    for text in ("(x+th+px+pth)^6", "(p+q)^30/(p-q)^30*x",
                 "(1+i)/2*(p^2-q)/(p*q+1)*x - 3/4*i*th + (2-i)*px"
                 " + (p+q)^3/(p-q)*dx*dth"):
        code, out, _ = run_cli(capsys, "reduce", text, "--presentation",
                               "h-calculus")
        assert code == 0
        expanded = h.normal_form(parse_expression(text, h), fuel=10**7)
        assert out.strip() == render_expression(expanded)
    assert out == (
        "(2 - i)*px - 3/4*i*th + ((1/2 + 1/2*i)*p^2 + (-1/2 - 1/2*i)*q)"
        "/(p*q + 1)*x + (p^3 + 3*p^2*q + 3*p*q^2 + q^3)/(p - q)*dth*dx"
        " + (p^3 + 3*p^2*q + 3*p*q^2 + q^3)/(p - q)*h1*dth^2\n")


def test_reduce_large_power(capsys):
    # from x*th = th*x + h2*x^2 and th*th = -h2*th*x: (x+th)^n equals
    # x^n + n*th*x^(n-1) + C(n,2)*h2*x^n - C(n+1,3)*h2*th*x^(n-1)
    code, out, _ = run_cli(capsys, "reduce", "(x+th)^1000", "--presentation",
                           "h-calculus")
    assert code == 0
    assert out.strip() == ("1000*th*x^999 + x^1000 - 166666500*h2*th*x^999"
                           " + 499500*h2*x^1000")


def test_reduce_runaway_power_exhausts_fuel(capsys):
    code, out, err = run_cli(capsys, "reduce", "(x+th+px+pth)^1000",
                             "--presentation", "h-calculus")
    assert code == 1
    assert out == ""
    assert err.startswith("error: fuel of 10000 steps exhausted in h-calculus")
    assert err.count("\n") == 1, err


@pytest.mark.parametrize("tail", ["-", ")", "*zz"])
def test_reduce_finds_trailing_errors_before_the_arithmetic(capsys, tail):
    # the power alone exhausts the default fuel (see above); the syntax
    # error or unknown generator after it is a usage error, found before
    # any product is formed
    from superplane import build_catalog

    build_catalog()
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "reduce", "(x+th+px+pth)^1000" + tail,
                             "--presentation", "h-calculus")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["x*th"])
def test_reduce_out_of_memory_is_one_line(capsys, monkeypatch, text):
    # the parse meets the failing product; a lone letter forms none
    from superplane import Presentation, build_catalog

    def multiplier(self, fuel):
        def mul(a, b=None):
            raise MemoryError
        return mul

    build_catalog()  # built before the patch, or its own products fail
    monkeypatch.setattr(Presentation, "multiplier", multiplier)
    code, out, err = run_cli(capsys, "reduce", text, "--presentation",
                             "h-calculus", "--fuel", "500")
    assert code == 1
    assert out == ""
    assert err == ("error: out of memory while reducing in h-calculus with "
                   "fuel 500 (try a smaller --fuel)\n")


def test_reduce_expression_that_starts_with_minus(capsys):
    # argparse takes -dth for an option, before the expression or after
    # it: the usage error and the help say to write -- before it, and after
    # -- it reduces and reads back
    for argv in (["-dth", "--presentation", "h-calculus"],
                 ["x", "--presentation", "h-calculus", "-dth"]):
        code, out, err = run_cli(capsys, "reduce", *argv)
        assert code == 2
        assert out == ""
        assert "write -- before an expression that starts with '-'" in err
    code, out, _ = run_cli(capsys, "reduce", "--help")
    assert code == 0
    assert "write -- before an expression that starts with '-'" in out
    for text in ("-dth", "-h1*th*x"):
        code, out, err = run_cli(capsys, "reduce", "--presentation",
                                 "h-calculus", "--fuel", "0", "--", text)
        assert (code, out, err) == (0, text + "\n", "")


def stdin_of(data):
    # what sys.stdin is when the bytes are piped in
    return io.TextIOWrapper(io.BytesIO(data))


@pytest.mark.parametrize("dash", [["-"], ["--", "-"]], ids=["dash", "after--"])
def test_reduce_reads_stdin_as_the_argument(capsys, monkeypatch, dash):
    # `-` reads the expression from stdin, after -- too, and prints what
    # the expression as the argument prints; a printed form reads back
    _, form, _ = run_cli(capsys, "reduce", "(p+q+1)^20*x",
                         "--presentation", "h-calculus")
    for text in ("-dth", "(1/2 + i/3)*x*(p - i*q)/(2*p + 3)", form.strip()):
        argued = run_cli(capsys, "reduce", "--presentation", "h-calculus",
                         "--", text)
        assert argued[0] == 0
        monkeypatch.setattr(sys, "stdin", stdin_of(text.encode()))
        piped = run_cli(capsys, "reduce", "--presentation", "h-calculus",
                        *dash)
        assert piped == argued, text[:20]
    assert piped[1] == form


def test_reduce_reads_stdin_past_the_argument_cap():
    # Linux caps one argument at 128 kB; 132,001 bytes as the argument fail
    # at exec with "Argument list too long", piped in they reduce
    text = "x + " * 33000 + "x"
    assert len(text) == 132001
    proc = subprocess.run(
        [sys.executable, "-m", "superplane", "reduce", "--presentation",
         "h-calculus", "-"], input=text, capture_output=True, text=True,
        timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "33001*x\n", "")


@pytest.mark.parametrize("stdin, message", [
    (None, "cannot read stdin: it is closed"),
    (b"", "unexpected end of input (at position 0)"),
    (b"x*\xff", "cannot read stdin: 'utf-8' codec can't decode byte 0xff in"
                " position 2: invalid start byte"),
], ids=["closed", "empty", "not-utf8"])
def test_reduce_unreadable_stdin_is_a_usage_error(capsys, monkeypatch, stdin,
                                                  message):
    # an empty stdin parses as the empty argument does
    monkeypatch.setattr(sys, "stdin", stdin if stdin is None
                        else stdin_of(stdin))
    code, out, err = run_cli(capsys, "reduce", "--presentation",
                             "h-calculus", "-")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    if stdin == b"":
        assert run_cli(capsys, "reduce", "--presentation", "h-calculus",
                       "") == (code, out, err)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_reduce_fuzz(data):
    # random tokens over one presentation and a small fuel: a status of 0,
    # 1 or 2 and never a traceback, one line on stderr on 1 or 2, and on 0
    # the reference reducer's normal form, which reads back after --
    # unchanged, and whose value at the exact point is the point copy's
    # normal form of the input there
    table = catalog_presentations(build_catalog())
    name = data.draw(st.sampled_from(sorted(table)))
    pres = table[name]
    gens = pres.gens
    tokens = sorted(gens) + [f"inv({g[:-len('inv')]})" for g, d in gens.items()
                             if d.klass is GenClass.INVERSE]
    tokens += ["p", "q", "i", "0", "1", "2", "3", *"+-*/^()"]
    text = " ".join(data.draw(st.lists(st.sampled_from(tokens), max_size=12)))
    # small budgets often, so that some reductions run out
    fuel = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 300)))
    argv = ["reduce", "--presentation", name, "--fuel", str(fuel), "--"]
    code, out, err = run_quiet(argv + [text])
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
        # reduce reduces each product as the parser forms it, so that a
        # divisor such as x*inv(x) is a scalar; the reference does the same
        want = reference_nf(pres, parse_expression(
            text, pres, lambda a, b: reference_nf(pres, a * b)))
        got = parse_expression(out, pres)
        assert got == want, text
        assert run_quiet(argv + [out.strip()]) == (0, out, "")
        if (point := point_nf(pres, text)) is not None:
            assert at_point(got) == point, text


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.data())
def test_reduce_values_match_the_reference(data):
    # sums of up to three products of letters, with coefficients that are
    # not integers: non-integer rationals, a Gaussian constant and a
    # quotient in p and q; the output is the reference reducer's normal
    # form of the plain parse, and at the exact point the point copy's
    table = catalog_presentations(build_catalog())
    name = data.draw(st.sampled_from(sorted(table)))
    pres = table[name]
    word = st.lists(st.sampled_from(sorted(pres.gens)), min_size=1, max_size=3)
    coeff = st.sampled_from(("1/2", "-2/3", "i/2", "(p - q)/(p*q)"))
    terms = data.draw(st.lists(st.tuples(coeff, word), min_size=1, max_size=3))
    text = " + ".join(f"({c})*{'*'.join(w)}" for c, w in terms)
    code, out, err = run_quiet(["reduce", "--presentation", name, "--", text])
    assert (code, err) == (0, "")
    got = parse_expression(out, pres)
    assert got == reference_nf(pres, parse_expression(text, pres)), text
    if (point := point_nf(pres, text)) is not None:
        assert at_point(got) == point, text


def test_reduce_unknown_presentation(capsys):
    code, _, err = run_cli(
        capsys, "reduce", "x", "--presentation", "nope")
    assert code == 2
    assert "unknown presentation" in err
    assert "pq-calculus" in err


def test_reduce_unknown_generator(capsys):
    code, _, err = run_cli(
        capsys, "reduce", "x*bogus", "--presentation", "h-calculus")
    assert code == 2
    assert "bogus" in err


def test_reduce_inverse_of_a_number(capsys):
    code, out, err = run_cli(capsys, "reduce", "--presentation",
                             "h-calculus", "--", "inv(2)")
    assert (code, out) == (2, "")
    assert err == "error: inv() wants a generator name (at position 4)\n"


@pytest.mark.parametrize("text, message", [
    ("x*(th", "expected ')' (at position 5)"),
    ("x/0", "division by zero in expression"),
    ("(" * 3000 + "x" + ")" * 3000,
     "parentheses nested deeper than 100 (at position 100)"),
    ("x^99999999999", "exponent above 1000 (at position 2)"),
    ("9" * 5000, "integer literal too long (at position 0)"),
], ids=["unclosed", "zero-divisor", "nesting", "exponent", "long-literal"])
def test_reduce_syntax_error(capsys, text, message):
    # malformed input, a zero divisor, runaway nesting, an exponent too
    # large to build and a literal too long for int() are all usage errors,
    # reported on one line without a traceback
    code, _, err = run_cli(
        capsys, "reduce", text, "--presentation", "h-calculus")
    assert (code, err) == (2, f"error: {message}\n"), text[:10]


@pytest.mark.parametrize("text", ["(10^999)^5*x", "(2^1000)^1000*x",
                                  "x/(10^999)^5", "(p + (10^999)^5*i)*x"])
def test_reduce_result_too_long_to_read_back(capsys, text):
    # a coefficient longer than the parser reads would be printed as text
    # that does not read back; the reduction fails on one line instead
    code, out, err = run_cli(
        capsys, "reduce", text, "--presentation", "h-calculus")
    assert (code, out) == (1, "")
    assert err == "error: integer literal too long (in the result)\n"


@pytest.mark.parametrize("argv", [
    ("critical-pairs", "--presentation", "pq-calculus", "--fuel", "-5"),
    ("reduce", "x", "--presentation", "h-calculus", "--fuel", "-5"),
    ("verify", "--suite", "differential", "--fuel", "-1"),
])
def test_vacuous_limits_rejected(capsys, argv):
    # a negative fuel budget would only report vacuous work, so it is a
    # usage error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_rules_list(capsys):
    code, out, _ = run_cli(capsys, "rules", "--list")
    assert code == 0
    names = out.split()
    assert "pq-calculus" in names and "oscillator" in names


def test_rules_dump(capsys):
    code, out, _ = run_cli(
        capsys, "rules", "--presentation", "one-forms")
    assert code == 0
    assert "gen xinv" in out
    assert "rule" in out


def test_rules_dumps_match_the_golden_hashes(capsys):
    # tests/golden/presentations.sha256 holds one sha256sum -c line per
    # catalog name, for NAME.txt, the output of rules --presentation NAME,
    # so a construction change that moves a generator, rule or coefficient
    # of a dump fails here (and in CI's sha256sum -c on every Python)
    want = {}
    for line in GOLDEN_DUMPS.read_text().splitlines():
        digest, file = line.split("  ")
        want[file.removesuffix(".txt")] = digest
    code, out, _ = run_cli(capsys, "rules", "--list")
    assert code == 0 and out.split() == list(want)
    for name, digest in want.items():
        code, out, _ = run_cli(capsys, "rules", "--presentation", name)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_rules_flags_are_exclusive(capsys):
    code = cli.main(["rules", "--list", "--presentation", "one-forms"])
    assert code == 2


def test_critical_pairs_clean(capsys):
    code, out, _ = run_cli(
        capsys, "critical-pairs", "--presentation", "pq-calculus")
    assert code == 0
    assert "terminates: yes" in out and "non-joinable: 0" in out


def test_critical_pairs_failure_lines(capsys, monkeypatch):
    # the pq calculus with the sign of its (x, th) rule flipped: two
    # overlaps stop joining, and each gets one line naming both rewrites
    pq = build_catalog().primed_calculus
    rules = [RewriteRule(r.lhs, -r.rhs) if r.lhs == ("x", "th") else r
             for r in pq.rules]
    flipped = Presentation("flipped", pq.gens.values(), rules)
    table = cli.catalog_presentations
    monkeypatch.setattr(cli, "catalog_presentations",
                        lambda cat: {**table(cat), "flipped": flipped})
    code, out, _ = run_cli(
        capsys, "critical-pairs", "--presentation", "flipped")
    assert code == 1
    assert out.splitlines() == [
        "presentation: flipped",
        "pairs checked: 96",
        "terminates: yes",
        "non-joinable: 2",
        "  word pth*x*th: rule at 0 gives q*x + q^2*th*x*pth; "
        "rule at 1 gives -q*x + q^2*th*x*pth",
        "  word px*x*th: rule at 0 gives p*q*th - p^2*q^2*th*x*px; "
        "rule at 1 gives -p*q*th - p^2*q^2*th*x*px",
    ]


def test_critical_pairs_fail_without_termination(capsys, monkeypatch):
    # the legal loop m*n -> n*m*m*n has no overlap, so no pair fails to
    # join, but it does not terminate: local confluence alone does not
    # make its normal forms unique
    loop = Presentation(
        "loop", [GeneratorDecl("n", 0, sort_key=5),
                 GeneratorDecl("m", 0, GenClass.INVERSE, 10)],
        [RewriteRule(("m", "n"), Expression({("n", "m", "m", "n"): 1}))],
        require_complete=False)
    table = cli.catalog_presentations
    monkeypatch.setattr(cli, "catalog_presentations",
                        lambda cat: {**table(cat), "loop": loop})
    code, out, _ = run_cli(capsys, "critical-pairs", "--presentation", "loop")
    assert code == 1
    assert out.splitlines() == [
        "presentation: loop", "pairs checked: 0", "terminates: no",
        "non-joinable: 0"]


def test_verify_single_suite_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "differential")
    assert code == 0
    assert "== differential" in out
    assert "overall: PASS" in out


def test_verify_structured(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "differential",
        "--format", "structured")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith(("check\t", "fingerprint\t")) for l in lines)


def test_verify_appendix_notes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "appendix")
    assert code == 0
    assert "2*h1*h2/((p-1)*(q-1))" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonexistent")
    assert code == 2
    assert "unknown suite" in err


def test_verify_fuel_error_names_the_suite(capsys):
    # each suite has a budget of its own: the contraction and differential
    # suites pass on 200 steps (63 and 35) and the covariance suite runs out
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--fuel", "200")
    assert code == 1
    assert out == ""
    assert err.startswith("error: suite covariance: fuel of 200 steps "
                          "exhausted in covariance while reducing")
    assert err.endswith(" (check coact-px-x)\n")
    assert err.count("\n") == 1, err


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    broken = SuiteReport(
        suite="differential",
        results=(CheckResult("stub", verify.FAIL, None, "forced"),),
        elapsed=0.0,
        presentation_fingerprints=())
    monkeypatch.setitem(verify.SUITES, "differential",
                        lambda cat=None, fuel=None: broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "differential")
    assert code == 1
    assert "overall: FAIL" in out
