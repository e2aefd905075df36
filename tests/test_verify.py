"""Suite reports: frozen outcome sets, exact recorded residuals, rendering."""

import gc
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from superplane import verify
from superplane.algebra import DEFAULT_FUEL, Budget, Expression, FuelExhausted
from superplane.parsing import parse_expression, render_expression
from superplane.scalars import Scalar
from superplane.verify import (
    DISCREPANCY,
    FAIL,
    PASS,
    SUITES,
    CheckResult,
    _check,
    overall_ok,
    render_structured,
    render_text,
    run_all,
    run_appendix_suite,
    run_contraction_suite,
    run_covariance_suite,
    run_differential_structure_suite,
    run_forms_suite,
    run_oscillator_suite,
    run_phase_space_suite,
)

from reference import EXPECTED_DISCREPANCIES, expression_parity

# exact residuals for the hand-checked mismatches
FROZEN_RESIDUALS = {
    ("forms", "one-form-th-u"): "h2*dth",
    ("forms", "operator-shift-th"):
        "-2*h1*th*x*px + 2*h1*h2*th*x*pth",
    ("phase-space", "phase-em-ep"): "(-1 + i)*h1*h2",
    ("phase-space", "clifford-em-ep"):
        "(-1 + i)*h1*h2 + (-1 + i)*h1*h2*th*pth",
    ("phase-space", "clifford-om-op"): "(1 + i)*h1*h2*x*px",
    ("contraction", "h-deriv-diff-thth"):
        "-2*h1*h2*dth*pth - 2*h1*h2*dx*px",
    ("contraction", "sigma-deriv-x-x"):
        "-2*h1*th*px + (2)/(q - 1)*h1*h2*th*pth"
        " + (2)/(q - 1)*h1*h2*x*px",
    ("oscillator", "osc-deriv-x-x"):
        "-2*h1*Bp*A + (2)/(q - 1)*h1*h2*Ap*A"
        " + (2)/(q - 1)*h1*h2*Bp*B",
}


# the structured check records of the reference tree, residuals included
GOLDEN = (Path(__file__).resolve().parents[1] / "bench" / "golden"
          / "verify-checks.tsv")


def by_suite(reports):
    return {r.suite: r for r in reports}


def test_runs_every_registered_suite(reports):
    assert [r.suite for r in reports] == list(SUITES)
    assert set(EXPECTED_DISCREPANCIES) == set(SUITES)


def test_no_failures(reports):
    failed = [(r.suite, c.id) for r in reports for c in r.results
              if c.status == FAIL]
    assert failed == []


def test_discrepancy_sets_are_exactly_the_documented_ones(reports):
    for rep in reports:
        found = {c.id for c in rep.results if c.status == DISCREPANCY}
        assert found == EXPECTED_DISCREPANCIES[rep.suite], rep.suite


def test_discrepancy_residuals_have_a_nonzero_witness(reports):
    # one nonzero coefficient value at an exact point proves a residual
    # nonzero in Q(i)(p,q) without trusting poly_gcd or the canonical
    # form; a coefficient with a pole there raises and fails the test
    witnessed = set()
    for rep in reports:
        for c in rep.results:
            if c.status != DISCREPANCY:
                continue
            values = [k.eval(Fraction(3, 7), Fraction(5, 11))
                      for _, k in c.residual.terms()]
            assert any(v != 0 for v in values), (rep.suite, c.id)
            witnessed.add(c.id)
    assert witnessed == set().union(*EXPECTED_DISCREPANCIES.values())
    assert len(witnessed) == 14


def test_overall_verdict(reports):
    assert overall_ok(reports)
    for rep in reports:
        assert rep.ok


def test_frozen_residuals(reports):
    reps = by_suite(reports)
    for (suite, cid), text in FROZEN_RESIDUALS.items():
        row = next(c for c in reps[suite].results if c.id == cid)
        assert row.residual is not None
        assert render_expression(row.residual) == text, (suite, cid)


def test_pass_rows_carry_no_residual(reports):
    for rep in reports:
        for c in rep.results:
            if c.status == PASS:
                assert c.residual is None
            else:
                assert not c.residual.is_zero()


def test_results_sorted_and_unique(reports):
    for rep in reports:
        ids = [c.id for c in rep.results]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))


def test_counts(reports):
    reps = by_suite(reports)
    assert reps["contraction"].counts == {PASS: 26, FAIL: 0, DISCREPANCY: 7}
    assert reps["appendix"].counts == {PASS: 18, FAIL: 0, DISCREPANCY: 0}
    total = sum(len(r.results) for r in reports)
    assert total == 138


def test_twin_print_rows_share_the_same_gap(reports):
    # the two printed tables of the hatted algebra disagree with the
    # derived rules in the same bracket constant
    reps = by_suite(reports)
    rows = {c.id: c for c in reps["phase-space"].results}
    gap = Expression({("h1", "h2"): Scalar.i() - Scalar.one()})
    phase = rows["phase-em-ep"].residual
    clifford = rows["clifford-em-ep"].residual
    assert phase == gap
    assert (clifford - gap).words() == [("h1", "h2", "th", "pth")]


def test_appendix_drift_rows_state_the_multiple(reports):
    reps = by_suite(reports)
    notes = {c.id: c.notes for c in reps["appendix"].results}
    assert "2*h1*h2/((p-1)*(q-1))" in notes["right-convention-diff"]
    assert "-2*h1*h2/((p-1)*(q-1))" in notes["right-convention-deriv"]


def test_covariance_reading_recorded(reports):
    reps = by_suite(reports)
    row = next(c for c in reps["covariance"].results
               if c.id == "coefficient-reading")
    assert "diagonal" in row.notes
    assert "rejected alternative" in row.notes


def test_fingerprints_recorded(reports):
    for rep in reports:
        assert rep.presentation_fingerprints
        for name, digest in rep.presentation_fingerprints:
            assert len(digest) == 64
            assert int(digest, 16) >= 0


# sha256 of each presentation's rendered generators and rules; the engine
# may factor the rules for reduction but must not rewrite them
FROZEN_FINGERPRINTS = {
    "pq-calculus":
        "d6557f5cead7d820768783ed96d9d12f8ce1dbaafd903d5fb04e50ccbd426579",
    "h-calculus":
        "bb5ca1b9bee585025d7e2b9928d5ed6b684ad73c5b2b7e1c55f0168c55a40158",
    "covariance":
        "9e3dc50caaa3c3effa06fa0ea2f01a12a8cdb7c6bd641f642a66e058fd963d56",
    "one-forms":
        "699f79c847d4e37948d95ecf99914021d5f459cb503ef2e12be5c59945058046",
    "oscillator":
        "6639dc276f0646810165194ca559efcfe14a667c92bd8255f57a6c4c45b7a4cd",
}


def test_fingerprint_records_are_frozen(reports):
    got = [l.split("\t") for l in render_structured(reports).splitlines()
           if l.startswith("fingerprint\t")]
    assert len(got) == 11
    assert {name for _, _, name, _ in got} == set(FROZEN_FINGERPRINTS)
    for _, suite, name, digest in got:
        assert digest == FROZEN_FINGERPRINTS[name], (suite, name)


@pytest.mark.parametrize("run", [
    run_contraction_suite, run_differential_structure_suite,
    run_covariance_suite, run_forms_suite, run_phase_space_suite,
    run_oscillator_suite, run_appendix_suite,
], ids=lambda run: run.__name__)
def test_single_suite_matches_shared_run(catalog, reports, run):
    # each public runner is the one registered under its suite's name
    rep = run(catalog)
    assert SUITES[rep.suite] is run
    shared = by_suite(reports)[rep.suite]
    assert rep.results == shared.results
    assert rep.presentation_fingerprints == shared.presentation_fingerprints


def test_composite_parities(catalog):
    # each composite element is homogeneous, of the parity its letters give
    h, forms = catalog.h_calculus, catalog.one_forms

    def parities(texts, pres):
        return {k: expression_parity(pres, parse_expression(t, pres))
                for k, t in texts.items()}

    assert parities({"d": verify.EXTERIOR}, h) == {"d": 1}
    assert parities(verify.OPERATORS, h) == {"T": 0, "N": 1}
    assert parities(verify.FRAME_FORMS, forms) == {"w": 1, "u": 0}
    assert parities(verify.HATTED, h) == {"XH": 0, "TH": 1, "PX": 0, "PT": 1}


def test_forms_includes_both_sectors(catalog):
    rep = run_forms_suite(catalog)
    ids = {c.id for c in rep.results}
    assert {"one-form-w-sq", "operator-nilpotent"} <= ids
    assert len(rep.presentation_fingerprints) == 2


def test_text_render_layout(reports):
    text = render_text(reports)
    for rep in reports:
        assert f"== {rep.suite} " in text
    assert text.rstrip().endswith("overall: PASS")
    assert text.count("summary:") == len(reports)


def test_structured_render_layout(reports):
    lines = render_structured(reports).splitlines()
    kinds = {line.split("\t", 1)[0] for line in lines}
    assert kinds == {"fingerprint", "check"}
    checks = [l for l in lines if l.startswith("check\t")]
    assert len(checks) == 138
    for line in checks:
        parts = line.split("\t")
        assert len(parts) == 6
        assert parts[3] in {PASS, FAIL, DISCREPANCY}
    # stable across repeated rendering of the same reports
    assert render_structured(reports) == render_structured(reports)


def test_structured_checks_match_golden_file(reports):
    # every verdict and every rendered residual, scalars included, byte for
    # byte; fingerprint records are left to test_fingerprints_recorded
    got = [l for l in render_structured(reports).splitlines()
           if l.startswith("check\t")]
    assert got == GOLDEN.read_text().splitlines()
    assert len(got) == 138
    statuses = [l.split("\t")[3] for l in got]
    assert statuses.count(DISCREPANCY) == 14 and FAIL not in statuses


def test_structured_render_has_no_timing(reports):
    text = render_structured(reports)
    assert "elapsed" not in text
    assert "s)" not in text


def test_structured_report_does_not_depend_on_scalar_memos():
    # the scalar memos outlive a catalog: a fresh catalog built and run on
    # cleared memos and one on warm memos must render the same bytes
    from superplane.presentations import build_catalog
    from superplane.scalars import _product, _sum
    from superplane.verify import run_all

    _sum.cache_clear()
    _product.cache_clear()
    cold = render_structured(run_all(build_catalog.__wrapped__()))
    hits = _sum.cache_info().hits
    warm = render_structured(run_all(build_catalog.__wrapped__()))
    assert _sum.cache_info().hits > hits
    assert warm == cold


@pytest.mark.parametrize("fuel", [10, 200, 3000])
def test_fuel_outcome_does_not_depend_on_earlier_runs(catalog, reports, fuel):
    # a fresh catalog and the session's, on which every suite has run, give
    # the same outcome: at 10 and 200 steps a suite runs out (the
    # contraction suite needs 63 and the covariance suite 2,803), its error
    # names it and the check that ran out, and at 3,000 every suite passes
    from superplane.presentations import build_catalog

    def outcome(cat):
        try:
            return render_structured(run_all(cat, fuel))
        except FuelExhausted as exc:
            return f"FuelExhausted: {exc}"

    ran_out = {10: ("contraction", "sigma-diff-dx-dx"),
               200: ("covariance", "coact-px-x")}.get(fuel)
    fresh = outcome(build_catalog.__wrapped__())
    if ran_out:
        suite, check = ran_out
        assert fresh.startswith(f"FuelExhausted: suite {suite}: "), fresh
        assert fresh.endswith(f" (check {check})"), fresh
    else:
        assert not fresh.startswith("FuelExhausted"), fresh
    assert outcome(catalog) == fresh


# the fuel each suite spends on a cold catalog; one step less runs out
COLD_NEED = {"contraction": 63, "differential": 35, "covariance": 2803,
             "forms": 130, "phase-space": 28, "oscillator": 26,
             "appendix": 0}


@pytest.mark.parametrize("suite", list(COLD_NEED))
def test_every_fuel_error_names_its_check(catalog, reports, suite):
    # every row spends its fuel inside the verdict, so at any fuel below
    # the suite's need the error names the suite and one of its checks;
    # covariance is probed at every 97th fuel to keep the sweep short
    run = SUITES[suite]
    report = by_suite(reports)[suite]
    ids = {c.id for c in report.results}
    for fuel in range(0, COLD_NEED[suite], 97 if suite == "covariance" else 1):
        with pytest.raises(FuelExhausted) as err:
            run(catalog, fuel)
        found = re.fullmatch(rf"suite {suite}: fuel of {fuel} steps "
                             r"exhausted .* \(check ([\w-]+)\)",
                             str(err.value), re.DOTALL)
        assert found and found[1] in ids, str(err.value)
    assert run(catalog, COLD_NEED[suite]).results == report.results


def test_cold_covariance_memo_stays_small():
    # the covariance suite fills the largest memo of a verify run, 3,251
    # words, and so sets its peak memory.  Run on a fresh budget once the
    # scalar memos and rule terms are warm, the budget's memos hold 162
    # bytes a memo word by tracemalloc on CPython 3.10 to 3.13, with each
    # normal form a tuple of its terms; held as dicts, they took 264-267.
    # The bound of 220 lies between.  It counts CPython's object sizes (a
    # pair 56 bytes, an empty dict 64, a one-term dict 224-232), so a
    # CPython that changes them needs it measured again this way.  What the
    # budget holds is measured rather than the traced peak, which counts
    # whatever else the run allocates.  The snapshots around the run live
    # through both readings of held, so they cancel; when the bytes fail,
    # their difference names the ten lines that allocated most
    from superplane.presentations import build_catalog

    cat = build_catalog.__wrapped__()
    run_covariance_suite(cat)
    budget = Budget(DEFAULT_FUEL)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        run_covariance_suite(cat, budget)
        words = len(budget.memo(cat.covariance_tensor, "words"))
        gc.collect()
        after = tracemalloc.take_snapshot()
        held = tracemalloc.get_traced_memory()[0]
        del budget
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert words == 3251, f"the covariance memo holds {words} words, not 3251"
    assert held < 220 * words, (
        f"the budget holds {held} bytes for {words} words, over 220 a word; "
        "the largest growths of the run:\n" + "\n".join(
            map(str, after.compare_to(before, "lineno")[:10])))


def test_verdict_outcomes():
    x = Expression.from_gen("x")
    assert _check("c", Expression.zero, notes="n") == CheckResult(
        "c", PASS, None, "n")
    assert _check("c", Expression.zero, printed=True).status == PASS
    assert _check("c", lambda: x, printed=True) == CheckResult(
        "c", DISCREPANCY, x, "printed text does not reduce to zero against "
        "the derived rules; recorded, not reconciled")
    assert _check("c", lambda: x, printed=True, notes="n").notes == "n"
    assert _check("c", lambda: x, notes="n") == CheckResult("c", FAIL, x, "n")


def test_a_pole_at_the_limit_fails_limit_regularity(catalog):
    # build_h_calculus refuses a pole, so the catalog is changed after it
    word = ("px", "x")
    rel = catalog.derived[word]
    broken = catalog._replace(derived={**catalog.derived, word: rel._replace(
        specialized=None, pole_note="singular at p=q=1: a pole")})
    rows = {c.id: c for c in run_contraction_suite(broken).results}
    assert rows["limit-regularity"].status == FAIL
    assert (rows["limit-regularity"].residual
            == Expression.from_word(word) - rel.general)


def test_an_exact_candidate_fails_the_drift_probes(catalog, monkeypatch):
    # without their sign flips the right-acting candidates are the exact
    # frame change, which does not drift at all: each probe fails and
    # shows the generator it brought back
    monkeypatch.setattr(verify, "_flip", lambda img, word: img)
    rows = {c.id: c for c in run_appendix_suite(catalog).results}
    for cid, gid in (("right-convention-diff", "dx"),
                     ("right-convention-deriv", "pth")):
        assert rows[cid].status == FAIL
        assert rows[cid].residual == Expression.from_gen(gid)


def test_duplicate_check_ids_are_refused(catalog, monkeypatch):
    monkeypatch.setattr(verify, "SUITES", {})
    run = verify._suite("twice")(
        lambda cat, budget: ([_check("c", Expression.zero)] * 2, []))
    with pytest.raises(ValueError, match="duplicate check ids in suite twice"):
        run(catalog)
