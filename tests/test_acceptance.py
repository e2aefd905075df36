"""Nine acceptance gates, one test and one verdict line each.

Everything is exact: a gate passes only on literal zero residuals, or on
the frozen set of recorded print mismatches whose residuals were derived
independently first.  No tolerances anywhere.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from superplane import presentations
from superplane.algebra import (Expression, Presentation, RewriteRule,
                                check_local_confluence)
from superplane.parsing import fingerprint, parse_expression
from superplane.presentations import build_catalog, catalog_presentations
from superplane.scalars import Scalar
from superplane.verify import (DISCREPANCY, FAIL, PASS, render_structured,
                               run_all)

from reference import EXPECTED_DISCREPANCIES, expression_parity


def suite(reports, name):
    return next(r for r in reports if r.suite == name)


def rows(rep):
    return {c.id: c for c in rep.results}


def assert_gate(rep, required_pass=(), gaps=frozenset()):
    table = rows(rep)
    assert rep.counts[FAIL] == 0, f"{rep.suite}: hard failures"
    found = {c.id for c in rep.results if c.status == DISCREPANCY}
    assert found == set(gaps), f"{rep.suite}: unexpected discrepancy set"
    for cid in required_pass:
        assert table[cid].status == PASS, cid


def test_criterion_1_contraction(reports):
    """Coordinate, differential and derivative relations verify exactly
    through the contraction map, and every coefficient is regular at the
    deformation point."""
    rep = suite(reports, "contraction")
    assert_gate(
        rep,
        required_pass=[
            "sigma-coord-x-th", "sigma-coord-th-th",
            "sigma-diff-dth-dx", "sigma-diff-dx-dx",
            "sigma-deriv-x-th", "sigma-deriv-th-x",
            "sigma-deriv-deriv-mixed", "sigma-deriv-deriv-odd-sq",
            "limit-regularity",
        ],
        gaps=EXPECTED_DISCREPANCIES["contraction"])
    print("criterion 1: PASS (contraction exact, poles cancel)")


def test_criterion_2_appendix(reports):
    """Left-convention round trips are identities; the right-convention
    drifts equal the displayed parameter multiples exactly."""
    rep = suite(reports, "appendix")
    assert rep.counts == {PASS: 18, FAIL: 0, DISCREPANCY: 0}
    table = rows(rep)
    assert "2*h1*h2/((p-1)*(q-1))" in table["right-convention-diff"].notes
    assert "-2*h1*h2/((p-1)*(q-1))" in table["right-convention-deriv"].notes
    print("criterion 2: PASS (round trips exact, drifts match displays)")


def test_criterion_3_covariance(reports):
    """Every calculus relation is preserved under the supergroup coaction,
    and the report records the coefficient reading that was required."""
    rep = suite(reports, "covariance")
    assert rep.counts[FAIL] == 0 and rep.counts[DISCREPANCY] == 0
    assert rep.counts[PASS] == 20
    note = rows(rep)["coefficient-reading"].notes
    assert "diagonal" in note
    print("criterion 3: PASS (coaction preserves all relations)")


def test_criterion_4_differential_structure(reports):
    """The exterior operator squares to zero and generates the calculus."""
    rep = suite(reports, "differential")
    assert rep.counts == {PASS: 8, FAIL: 0, DISCREPANCY: 0}
    print("criterion 4: PASS (square-zero and generation exact)")


def test_criterion_5_one_forms(reports):
    """Frame one-form and counting-operator relations in the localized
    presentation; the two recorded print gaps carry exact residuals."""
    rep = suite(reports, "forms")
    assert_gate(
        rep,
        required_pass=[
            "one-form-x-w", "one-form-th-w", "one-form-x-u",
            "one-form-w-sq", "one-form-w-u",
            "operator-commute", "operator-nilpotent",
            "operator-count-x", "operator-count-th", "operator-shift-x",
        ],
        gaps=EXPECTED_DISCREPANCIES["forms"])
    print("criterion 5: PASS (localized frame relations verified)")


def test_criterion_6_phase_space(reports):
    """Hermiticity of the hatted operators, conjugation-invariance of the
    calculus, and both printed operator tables."""
    rep = suite(reports, "phase-space")
    table = rows(rep)
    hermitian = [c for c in table if c.startswith("hermitian-")]
    dagger = [c for c in table if c.startswith("dagger-")]
    assert len(hermitian) == 4 and len(dagger) == 8
    assert_gate(
        rep,
        required_pass=hermitian + dagger,
        gaps=EXPECTED_DISCREPANCIES["phase-space"])
    print("criterion 6: PASS (hermiticity and operator tables verified)")


def test_criterion_7_oscillator(reports, catalog):
    """The ladder dictionary carries every derived plane relation to an
    exact identity of the bare ladder rules: zero parameter residue."""
    rep = suite(reports, "oscillator")
    table = rows(rep)
    ladder = [c for c in table if c.startswith("ladder-")]
    assert len(ladder) == 8
    assert_gate(
        rep,
        required_pass=ladder + ["bare-limit", "undeformed-limit",
                                "star-consistency"],
        gaps=EXPECTED_DISCREPANCIES["oscillator"])
    # reductions above may use nothing beyond ladder generators and the
    # deformation parameters
    assert set(catalog.oscillator.gens) == {"A", "Ap", "B", "Bp",
                                            "h1", "h2"}
    print("criterion 7: PASS (dictionary lands in bare ladder algebra)")


def _expressions(pres):
    gens = sorted(pres.gens)
    coeff = st.sampled_from(
        [Scalar.one(), -Scalar.one(), Scalar.i(), Scalar.p(),
         Scalar.one() / (Scalar.q() - Scalar.one())])
    word = st.lists(st.sampled_from(gens), max_size=4).map(tuple)
    term = st.tuples(word, coeff)
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: sum((Expression({w: c}) for w, c in ts),
                       Expression.zero()))


def _words(pres):
    return st.lists(st.sampled_from(sorted(pres.gens)),
                    min_size=1, max_size=4).map(tuple)


def _law_suite(pres):
    @settings(max_examples=30)
    @given(_expressions(pres))
    def idempotent(e):
        nf = pres.normal_form(e)
        assert pres.normal_form(nf) == nf

    @settings(max_examples=30)
    @given(_expressions(pres), _expressions(pres), _expressions(pres))
    def associative(a, b, c):
        left = pres.normal_form(pres.normal_form(a * b) * c)
        right = pres.normal_form(a * pres.normal_form(b * c))
        assert left == right

    @settings(max_examples=30)
    @given(_words(pres))
    def parity_preserved(w):
        e = Expression.from_word(w)
        nf = pres.normal_form(e)
        if not nf.is_zero():
            assert expression_parity(pres, nf) == expression_parity(pres, e)

    @settings(max_examples=30)
    @given(_expressions(pres))
    def grassmann_truncated(e):
        for w in pres.normal_form(e).words():
            assert w.count("h1") <= 1 and w.count("h2") <= 1

    return [idempotent, associative, parity_preserved, grassmann_truncated]


def test_criterion_8_properties(catalog, confluence_reports):
    """Reduction laws, grading laws, joinability of every presentation,
    and detection of a deliberately corrupted rule."""
    for pres in [catalog.primed_calculus, catalog.h_calculus]:
        for law in _law_suite(pres):
            law()

    for name, rep in confluence_reports.items():
        assert rep.ok, f"non-joinable pairs in {name}: {rep.failures}"
        assert rep.pairs_checked > 0, name
    assert set(confluence_reports) == set(catalog_presentations(catalog))

    # one flipped sign must surface as a non-joinable critical pair
    pq = catalog.primed_calculus
    mutated_rules = [
        RewriteRule(r.lhs, -r.rhs) if r.lhs == ("x", "th") else r
        for r in pq.rules
    ]
    mutated = Presentation("mutated", pq.gens.values(), mutated_rules)
    broken = check_local_confluence(mutated, max_len=4)
    assert not broken.ok
    print("criterion 8: PASS (laws hold, all systems joinable, "
          "mutation detected)")


def test_criterion_8_recorded_associative_triple(catalog):
    """A triple the associative law once drew: at the default fuel, each
    reduction on a budget of its own, both bracketings agree."""
    h = catalog.h_calculus
    a, b, c = (parse_expression(t, h) for t in (
        "dx*x*h2*x - px*x*h2*pth + p*th*x*dth*px",
        "i + p*pth*x*dth + x^2*pth",
        "i*x^2*dth"))
    left = h.normal_form(h.normal_form(a * b) * c)
    right = h.normal_form(a * h.normal_form(b * c))
    assert left == right


def test_criterion_9_determinism(reports, catalog, monkeypatch):
    """A second full verification pass emits a byte-identical structured
    report, and an independent rebuild reproduces every presentation
    while building each coordinate-differential reading's contraction
    once."""
    first = render_structured(reports)
    second = render_structured(run_all(catalog))
    assert first == second

    built = []
    real = presentations.build_contraction
    monkeypatch.setattr(presentations, "build_contraction",
                        lambda pq: built.append(pq) or real(pq))
    fresh = build_catalog.__wrapped__()
    assert len(built) == 2
    for name, pres in catalog_presentations(catalog).items():
        twin = catalog_presentations(fresh)[name]
        assert fingerprint(twin) == fingerprint(pres), name
    print("criterion 9: PASS (structured reports byte-identical)")
