"""Errata for the Discrepancies of the verify report.

For each printed row, the corrected row reduces to zero through the row's
own check, the printed row keeps the residual the report records, and the
two right sides, as free expressions, differ on exactly the words the
repair names.  A general row's correction is the only one in the h frame:
the printed row plus the residual pulled back through the frame change.
"""

from types import SimpleNamespace

import pytest

from superplane.algebra import Expression
from superplane.parsing import parse_expression
from superplane.scalars import Scalar
from superplane.verify import (DISCREPANCY, FRAME_FORMS, HATTED, OPERATORS,
                               PRINTED_GENERAL, PRINTED_LIMIT, _phase_rows)

from reference import EXPECTED_DISCREPANCIES

# the general rows px*x and pth*th with the sign of h1*th*px reversed, as
# the limit rows h-deriv-x-x and h-deriv-th-th print it; the contraction
# and the oscillator suites check the same printed text
DERIV_X_X = ("1 + p*q*x*px - h1*th*px + h2*x*pth"
             " + h1*h2*(x*px + th*pth) + (p*q - 1)*th*pth")
DERIV_TH_TH = "1 - th*pth - h1*th*px + h2*x*pth + h1*h2*(x*px + th*pth)"
SIGN_H1_TH_PX = "sign: - h1*th*px, not + h1*th*px, as the limit row prints"
# the h frame's words of the h1*h2 bracket of sigma-deriv-diff-xx and -thth
H_TERMS = {"h1*dth*px", "h2*dx*pth", "h1*h2*dx*px", "h1*h2*dth*pth"}

# check id -> (corrected right side, cause, the words whose printed
# coefficient the repair changes).  A right side is text in the grammar for
# a row of the printed tables, and a function of the letters and of verify's
# composite elements for a forms or a phase-space row; so is a listed word
# that is not text
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
    "sigma-deriv-diff-xx": (
        "1/(p*q)*(dx*px + h1*dth*px - h2*dx*pth + h1*h2*(dx*px + dth*pth))",
        "forced braiding: px dx -> 1/(p*q)*dx*px, the rule that confluence "
        "forces, with the h terms scaled by 1/(p*q)",
        {"dx*px", "dth*pth"} | H_TERMS),
    "sigma-deriv-diff-thth": (
        "dth*pth + (p*q - 1)/(p*q)*dx*px"
        " - 1/(p*q)*(h1*dth*px - h2*dx*pth + h1*h2*(dx*px + dth*pth))",
        "forced braiding: the pth dth rule that confluence forces, with the "
        "h terms scaled by 1/(p*q) and the h1*h2 bracket reversed",
        {"dx*px"} | H_TERMS),
    "phase-em-ep": (
        lambda f: (f.i + f.XH * f.PX + f.i * f.h2 * (f.XH * f.PT)
                   - f.h1 * (f.TH * f.PX)
                   + f.h1 * f.h2 * (f.i + f.XH * f.PX + f.i * (f.TH * f.PT))),
        "factor i dropped from the h1*h2 bracket: its constant is i, not 1",
        {"h1*h2"}),
    "clifford-em-ep": (
        lambda f: (f.XH * f.PX - f.h1 * (f.TH * f.PX) + f.i
                   + f.i * f.h2 * (f.XH * f.PT)
                   + f.h1 * f.h2 * (f.i + f.i * (f.TH * f.PT) + f.XH * f.PX)),
        "factors i dropped from the h1*h2 bracket: i and i*TH*PT, not 1 and "
        "TH*PT, as in the repaired phase-em-ep",
        {"h1*h2", lambda f: f.h1 * f.h2 * (f.TH * f.PT)}),
    "clifford-om-op": (
        lambda f: (f.one - f.TH * f.PT + f.i * f.h1 * (f.TH * f.PX)
                   + f.h2 * (f.XH * f.PT)
                   - f.h1 * f.h2 * (f.one + f.i * (f.XH * f.PX)
                                    - f.TH * f.PT)),
        "factor i dropped from the h1*h2 bracket: i*XH*PX, not XH*PX, as "
        "phase-om-op has it",
        {lambda f: f.h1 * f.h2 * (f.XH * f.PX)}),
}


def printed_row(cat, cid):
    """(reduce, parse, lhs, printed right side) of the check cid: reduce
    is the path its suite reduces the row through, and parse reads a right
    side of ERRATA."""
    h, forms = cat.h_calculus, cat.one_forms
    gen = Expression.from_gen
    one = Expression.one()
    f = SimpleNamespace(**{g: gen(g) for g in ("x", "th", "dth", "h1", "h2")},
                        **{k: parse_expression(t, forms)
                           for k, t in FRAME_FORMS.items()},
                        **{k: parse_expression(t, h)
                           for k, t in (OPERATORS | HATTED).items()},
                        one=one, i=one.scale(Scalar.i()))
    if cid == "operator-shift-th":
        return (h.normal_form, lambda rhs: rhs(f),
                f.N * f.th + f.th * f.N, f.x + f.h1 * (f.th * f.T))
    if cid == "one-form-th-u":
        return (forms.normal_form, lambda rhs: rhs(f), f.th * f.u,
                f.u * f.th - f.h2 * (f.w * f.th + f.u * f.x))
    rows = dict(_phase_rows(f.XH, f.TH, f.PX, f.PT))
    if cid in rows:
        # a row's id names its two operators, ep and op the even and odd
        # positions, em and om the even and odd momenta; the suite checks
        # the row as lhs - rhs
        op = {"ep": f.XH, "op": f.TH, "em": f.PX, "om": f.PT}
        _, a, b = cid.split("-")
        lhs = op[a] * op[b]
        return h.normal_form, lambda rhs: rhs(f), lhs, lhs - rows[cid]
    fwd, dic = cat.contraction.forward, cat.oscillator_dictionary
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


def test_errata_are_the_discrepancies():
    assert set(ERRATA) == set().union(*EXPECTED_DISCREPANCIES.values())


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
    listed = {w for item in words
              for w in (parse_expression(item, catalog.h_calculus)
                        if isinstance(item, str) else parse(item)).words()}
    assert set((parse(corrected) - printed).words()) == listed


@pytest.mark.parametrize("cid", sorted(c for c in ERRATA
                                       if c.startswith("sigma-")))
def test_general_correction_is_the_pulled_back_residual(catalog, cid):
    # both round trips of the frame change are zero, so the one right side
    # in the h frame that makes a general row hold is the printed one plus
    # the h-frame normal form of the residual mapped back
    reduce, parse, lhs, printed = printed_row(catalog, cid)
    back = catalog.contraction.backward
    pulled = back.target.normal_form(back.apply(reduce(lhs - printed)))
    assert parse(ERRATA[cid][0]) == printed + pulled
