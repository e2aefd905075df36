"""Command dispatch, exit codes, and output shape of the console tool."""

import subprocess
import sys

import pytest

from superplane import cli, verify
from superplane.verify import CheckResult, SuiteReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_runs_without_catalog():
    proc = subprocess.run(
        [sys.executable, "-m", "superplane", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "reduce" in proc.stdout
    assert "critical-pairs" in proc.stdout


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


def test_reduce_syntax_error(capsys):
    # malformed input, a zero divisor and runaway nesting are all usage
    # errors, reported on one line without a traceback
    for text in ("x*(th", "x/0", "(" * 3000 + "x" + ")" * 3000):
        code, _, err = run_cli(
            capsys, "reduce", text, "--presentation", "h-calculus")
        assert code == 2, text[:10]
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


def test_rules_flags_are_exclusive(capsys):
    code = cli.main(["rules", "--list", "--presentation", "one-forms"])
    assert code == 2


def test_critical_pairs_clean(capsys):
    code, out, _ = run_cli(
        capsys, "critical-pairs", "--presentation", "pq-calculus",
        "--max-len", "3")
    assert code == 0
    assert "non-joinable: 0" in out
    assert "max word length: 3" in out


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
