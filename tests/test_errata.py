"""Errata for the Discrepancies of the verify report.

For each printed row that a repair of one or two coefficients closes, the
corrected row reduces to zero through the row's own check, the printed row
keeps the residual the report records, and the two right sides, as free
expressions, differ on exactly the words the repair names.  The other
Discrepancies stay open.
"""

from types import SimpleNamespace

import pytest

from superplane.algebra import Expression
from superplane.parsing import parse_expression
from superplane.verify import DISCREPANCY, PRINTED_GENERAL, PRINTED_LIMIT

from reference import EXPECTED_DISCREPANCIES

# the printed rows that no repair of one or two coefficients is known to close
OPEN = {"sigma-deriv-diff-xx", "sigma-deriv-diff-thth", "phase-em-ep",
        "clifford-em-ep", "clifford-om-op"}

# the general rows px*x and pth*th with the sign of h1*th*px reversed, as
# the limit rows h-deriv-x-x and h-deriv-th-th print it; the contraction
# and the oscillator suites check the same printed text
DERIV_X_X = ("1 + p*q*x*px - h1*th*px + h2*x*pth"
             " + h1*h2*(x*px + th*pth) + (p*q - 1)*th*pth")
DERIV_TH_TH = "1 - th*pth - h1*th*px + h2*x*pth + h1*h2*(x*px + th*pth)"
SIGN_H1_TH_PX = "sign: - h1*th*px, not + h1*th*px, as the limit row prints"

# check id -> (corrected right side, cause, the words whose printed
# coefficient the repair changes).  A right side is text in the grammar for
# a row of the printed tables, and a function of the letters and composites
# of run_forms_suite for a forms row
ERRATA = {
    "sigma-deriv-x-x": (DERIV_X_X, SIGN_H1_TH_PX, {"h1*th*px"}),
    "sigma-deriv-th-th": (DERIV_TH_TH, SIGN_H1_TH_PX, {"h1*th*px"}),
    "osc-deriv-x-x": (DERIV_X_X, SIGN_H1_TH_PX, {"h1*th*px"}),
    "osc-deriv-th-th": (DERIV_TH_TH, SIGN_H1_TH_PX, {"h1*th*px"}),
    "sigma-deriv-diff-xth": (
        "1/q*dth*px + 1/q*h2*(dx*px + dth*pth)",
        "forced braiding: p -> 1/q, the inverse braiding that confluence "
        "forces on the parameters",
        {"dth*px", "h2*dx*px", "h2*dth*pth"}),
    "sigma-deriv-diff-thx": (
        "-1/p*dx*pth - 1/p*h1*(dx*px + dth*pth)",
        "forced braiding: q -> 1/p, the inverse braiding that confluence "
        "forces on the parameters",
        {"dx*pth", "h1*dx*px", "h1*dth*pth"}),
    "h-deriv-diff-thth": (
        "dth*pth - h1*dth*px + h2*dx*pth - h1*h2*(dx*px + dth*pth)",
        "sign: the h1*h2 bracket reversed",
        {"h1*h2*dx*px", "h1*h2*dth*pth"}),
    "operator-shift-th": (
        lambda f: f.x - f.h1 * (f.th * f.T),
        "sign: - h1*th*T, not + h1*th*T, as operator-shift-x has it",
        {"h1*th*x*px", "h1*th*th*pth"}),
    "one-form-th-u": (
        lambda f: f.u * f.th - f.h2 * (f.w * f.th + f.u * f.x) + f.h2 * f.dth,
        "missing term: the h2-scaled even differential h2*dth",
        {"h2*dth"}),
}


def printed_row(cat, cid):
    """(reduce, parse, lhs, printed right side) of the check cid: reduce
    is the path its suite reduces the row through, and parse reads a right
    side of ERRATA."""
    c = cat.composites
    gen = Expression.from_gen
    f = SimpleNamespace(**{g: gen(g) for g in ("x", "th", "dth", "h1", "h2")},
                        w=c.frame_form_x, u=c.frame_form_th,
                        T=c.number_operator, N=c.supercharge)
    if cid == "operator-shift-th":
        return (cat.h_calculus.normal_form, lambda rhs: rhs(f),
                f.N * f.th + f.th * f.N, f.x + f.h1 * (f.th * f.T))
    if cid == "one-form-th-u":
        return (cat.one_forms.normal_form, lambda rhs: rhs(f), f.th * f.u,
                f.u * f.th - f.h2 * (f.w * f.th + f.u * f.x))
    fwd, dic, h = (cat.contraction.forward, cat.oscillator_dictionary,
                   cat.h_calculus)
    # the check ids as the contraction and oscillator suites name them
    reduce, pres, lhs, rhs = {
        prefix + key: (reduce, pres, lhs, rhs)
        for prefix, table, reduce, pres in (
            ("sigma-", PRINTED_GENERAL, fwd.apply, fwd.source),
            ("", PRINTED_LIMIT, h.normal_form, h),
            ("osc-", PRINTED_GENERAL, dic.apply, dic.source))
        for key, lhs, rhs in table}[cid]

    def parse(text):
        return parse_expression(text, pres)

    return reduce, parse, parse(lhs), parse(rhs)


def recorded(reports, cid):
    """The report's result for the check cid, found through the suite that
    EXPECTED_DISCREPANCIES names for it."""
    suite = next(s for s, ids in EXPECTED_DISCREPANCIES.items() if cid in ids)
    rep = next(r for r in reports if r.suite == suite)
    return next(c for c in rep.results if c.id == cid)


def test_errata_and_open_rows_are_the_discrepancies():
    assert not set(ERRATA) & OPEN
    assert set(ERRATA) | OPEN == set().union(*EXPECTED_DISCREPANCIES.values())


@pytest.mark.parametrize("cid", sorted(ERRATA))
def test_corrected_row_reduces_to_zero(catalog, cid):
    reduce, parse, lhs, _ = printed_row(catalog, cid)
    assert reduce(lhs - parse(ERRATA[cid][0])).is_zero()


@pytest.mark.parametrize("cid", sorted(ERRATA))
def test_printed_row_keeps_the_recorded_residual(catalog, reports, cid):
    reduce, _, lhs, printed = printed_row(catalog, cid)
    residual = reduce(lhs - printed)
    assert not residual.is_zero()
    result = recorded(reports, cid)
    assert result.status == DISCREPANCY
    assert result.residual == residual


@pytest.mark.parametrize("cid", sorted(ERRATA))
def test_repair_changes_exactly_the_listed_words(catalog, cid):
    _, parse, _, printed = printed_row(catalog, cid)
    corrected, _, words = ERRATA[cid]
    listed = {w for text in words
              for w in parse_expression(text, catalog.h_calculus).words()}
    assert set((parse(corrected) - printed).words()) == listed
