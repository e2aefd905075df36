"""Executable verification suites over the algebra catalog.

Each suite turns a block of commutation identities into checks, and one
function, `_check`, judges every check by its residual, a normal form that
is zero when the identity holds.  Three statuses exist.  Pass means the
residual is zero.  Fail means a structural identity that must hold did not.
Discrepancy is reserved for rows whose source text disagrees with the
frame-change derivation: the derived rule is the oracle of record, the
printed variant is reduced as written, and a nonzero residual is recorded
rather than reconciled.

Every suite is a body registered with `_suite`, and one runner does the
rest: it gives the body its budget and its clock, rejects duplicate check
ids, sorts the checks by id, fingerprints the presentations the body used,
and prefixes a FuelExhausted raised inside the body with the suite's name.
Every row spends its fuel inside `_check`, so the error also ends with the
check.  Reports are deterministic: checks are assembled in id order and
the structured rendering carries no timing data.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import partial

from .algebra import DEFAULT_FUEL, Budget, Expression, FuelExhausted, Morphism
from .parsing import fingerprint, parse_expression, render_expression
from .presentations import (COORD_DIFF_TARGETS, H_REDUCIBLE_PAIRS, LADDER,
                            AlgebraCatalog, has_param, non_param_gens,
                            non_param_rules, round_trip_residuals)
from .scalars import Scalar

PASS = "Pass"
FAIL = "Fail"
DISCREPANCY = "Discrepancy"


class CheckResult(namedtuple("CheckResult", "id status residual notes",
                             defaults=(None, ""))):
    """One verified identity.  residual is present iff status is not Pass."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "suite results elapsed "
                             "presentation_fingerprints")):
    """One suite's CheckResults in id order, its wall time in seconds, and
    the (name, sha256) fingerprint of each presentation it used."""

    __slots__ = ()

    @property
    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts[FAIL] == 0


def _check(cid: str, residual, printed: bool = False,
           notes: str = "") -> CheckResult:
    """The one verdict: run residual(), which returns the row's reduced
    residual, under cid.  Zero is a Pass; a nonzero residual is a
    Discrepancy on a printed row and a Fail otherwise.  A FuelExhausted
    raised by residual gets " (check <cid>)" appended."""
    try:
        res = residual()
    except FuelExhausted as exc:
        raise FuelExhausted(f"{exc} (check {cid})") from exc
    if res.is_zero():
        return CheckResult(cid, PASS, None, notes)
    if printed:
        msg = notes or ("printed text does not reduce to zero against the "
                        "derived rules; recorded, not reconciled")
        return CheckResult(cid, DISCREPANCY, res, msg)
    return CheckResult(cid, FAIL, res, notes)


def _first(residuals) -> Expression:
    """The first nonzero of residuals, run in order; zero when none is."""
    return next((r for r in residuals if not r.is_zero()), Expression.zero())


# suite name -> its public run_*_suite, in the order the suites are defined
SUITES = {}


def _suite(name: str):
    """Register body(cat, budget) -> (rows, presentations used) in SUITES
    as run(cat, fuel=DEFAULT_FUEL) -> SuiteReport, and return run.  fuel
    is an int or a Budget to share, as everywhere."""
    def register(body):
        def run(cat: AlgebraCatalog,
                fuel: int | Budget = DEFAULT_FUEL) -> SuiteReport:
            t0 = time.perf_counter()
            try:
                rows, used = body(cat, Budget.of(fuel))
            except FuelExhausted as exc:
                raise FuelExhausted(f"suite {name}: {exc}") from exc
            ids = [r.id for r in rows]
            if len(set(ids)) != len(ids):
                raise ValueError(f"duplicate check ids in suite {name}")
            prints = tuple(sorted((p.name, fingerprint(p)) for p in used))
            return SuiteReport(name, tuple(sorted(rows, key=lambda r: r.id)),
                               time.perf_counter() - t0, prints)

        run.__name__, run.__qualname__, run.__doc__ = (
            body.__name__, body.__qualname__, body.__doc__)
        SUITES[name] = run
        return run
    return register


# ------------------------------------------------- printed relation rows
#
# Transcribed commutation tables, one row per identity, spelled in the
# expression grammar.  The general rows live in the unreduced h frame and
# are verified by pushing them through the frame change; the limit rows
# are reduced directly against the specialized calculus.

PRINTED_GENERAL = [
    ("coord-x-th", "x*th", "q*th*x + h2*x^2"),
    ("coord-th-th", "th*th", "-h2*th*x"),
    ("diff-dth-dx", "dth*dx", "p*dx*dth - h1*dth^2"),
    ("diff-dx-dx", "dx*dx", "h1*dx*dth"),
    ("deriv-x-x",
     "px*x",
     "1 + p*q*x*px + h1*th*px + h2*x*pth"
     " + h1*h2*(x*px + th*pth) + (p*q - 1)*th*pth"),
    ("deriv-x-th", "px*th", "p*th*px - p*h2*(x*px + th*pth)"),
    ("deriv-th-x", "pth*x", "q*x*pth - q*h1*(x*px + th*pth)"),
    ("deriv-th-th",
     "pth*th",
     "1 - th*pth + h1*th*px + h2*x*pth + h1*h2*(x*px + th*pth)"),
    ("deriv-deriv-mixed", "pth*px", "p*px*pth + h1*px^2"),
    ("deriv-deriv-odd-sq", "pth*pth", "h1*px*pth"),
    ("deriv-diff-xx",
     "px*dx",
     "p*q*dx*px + h1*dth*px - h2*dx*pth"
     " + h1*h2*(dx*px + dth*pth) + (p*q - 1)*dth*pth"),
    ("deriv-diff-xth", "px*dth", "p*dth*px + p*h2*(dx*px + dth*pth)"),
    ("deriv-diff-thx", "pth*dx", "-q*dx*pth - q*h1*(dx*px + dth*pth)"),
    # the source display truncates the final bracket term of this row; it
    # is completed by parity to the even-parity partner, and the row is
    # flagged either way because the cross-parameter bracket sign differs
    ("deriv-diff-thth",
     "pth*dth",
     "dth*pth - h1*dth*px + h2*dx*pth + h1*h2*(dx*px + dth*pth)"),
]

PRINTED_LIMIT = [
    ("h-coord-x-th", "x*th", "th*x + h2*x^2"),
    ("h-coord-th-th", "th*th", "-h2*th*x"),
    ("h-diff-dx-dth", "dx*dth", "dth*dx + h1*dth^2"),
    ("h-diff-dx-dx", "dx*dx", "h1*dx*dth"),
    ("h-deriv-x-x",
     "px*x",
     "1 + x*px - h1*th*px + h2*x*pth + h1*h2*(x*px + th*pth)"),
    ("h-deriv-x-th", "px*th", "th*px - h2*(x*px + th*pth)"),
    ("h-deriv-th-x", "pth*x", "x*pth - h1*(x*px + th*pth)"),
    ("h-deriv-th-th",
     "pth*th",
     "1 - th*pth - h1*th*px + h2*x*pth + h1*h2*(x*px + th*pth)"),
    ("h-deriv-deriv-mixed", "px*pth", "pth*px - h1*px^2"),
    ("h-deriv-deriv-odd-sq", "pth*pth", "h1*pth*px"),
] + [
    # the printed coordinate-differential block is the selection target
    ("h-coord-diff-" + "".join(l.removeprefix("d") for l in w), "*".join(w),
     rhs)
    for w, rhs in COORD_DIFF_TARGETS.items()
] + [
    ("h-deriv-diff-xx", "px*dx",
     "dx*px + h1*dth*px - h2*dx*pth + h1*h2*(dx*px + dth*pth)"),
    ("h-deriv-diff-xth", "px*dth", "dth*px + h2*(dx*px + dth*pth)"),
    ("h-deriv-diff-thx", "pth*dx", "-dx*pth - h1*(dx*px + dth*pth)"),
    ("h-deriv-diff-thth", "pth*dth",
     "dth*pth - h1*dth*px + h2*dx*pth + h1*h2*(dx*px + dth*pth)"),
]

_ORIENTATION_NOTE = ("odd-square rules orient onto the mixed product with "
                     "the even derivative rightmost")


@_suite("contraction")
def run_contraction_suite(cat: AlgebraCatalog, budget: Budget):
    """Push each printed general relation through the frame change and
    reduce; then confirm the derived family is regular at p = q = 1 and
    that its specialization matches the printed limit table."""
    fwd = cat.contraction.forward
    h = cat.h_calculus
    rows = []
    for prefix, into, pres, table in (
            ("sigma-", fwd.apply, fwd.source, PRINTED_GENERAL),
            ("", h.normal_form, h, PRINTED_LIMIT)):
        for cid, lhs, rhs in table:
            expr = parse_expression(lhs, pres) - parse_expression(rhs, pres)
            note = (_ORIENTATION_NOTE if cid.endswith("deriv-deriv-odd-sq")
                    else "")
            rows.append(_check(prefix + cid, partial(into, expr, budget),
                               printed=True, notes=note))
    # the residual is the first derived relation with a pole at p = q = 1
    rows.append(_check("limit-regularity", lambda: _first(
        Expression.from_word(w) - rel.general
        for w, rel in sorted(cat.derived.items()) if rel.specialized is None),
        notes="all derived coefficients are finite at p=q=1"))
    return rows, [cat.primed_calculus, h]


# ------------------------------------------------- composite elements
#
# The named elements the suites check, as text.  Each suite parses the ones
# it checks with the free product, so parsing spends no fuel.

# the exterior derivative d = dx*px + dth*pth, in any calculus frame
EXTERIOR = "dx*px + dth*pth"
# the number operator T and the supercharge N, in the h calculus
OPERATORS = {"T": "x*px + th*pth", "N": "x*pth"}
# the frame one-forms w and u, in the localized one-forms presentation;
# u = d(th*inv(x)) expanded by the graded Leibniz rule, whose two
# expansions dth*inv(x) + th*inv(x)*dx*inv(x) and
# dth*inv(x) - dx*inv(x)*th*inv(x) coincide after reduction
FRAME_FORMS = {"w": "dx*inv(x)", "u": "dth*inv(x) + th*inv(x)*dx*inv(x)"}
# the hermitian positions XH (even) and TH (odd) and momenta PX (even) and
# PT (odd), in the h calculus
HATTED = {
    "XH": "x + h1*h2*x + h1*th",
    "TH": "th - h1*h2*th + h2*x",
    "PX": "i*px + i*h1*h2*px - i*h2*pth",
    "PT": "pth - h1*h2*pth + h1*px",
}


@_suite("differential")
def run_differential_structure_suite(cat: AlgebraCatalog, budget: Budget):
    """Nilpotency and pass-through behaviour of the exterior composite."""
    h = cat.h_calculus
    pq = cat.primed_calculus
    gen = Expression.from_gen
    D, D_pq, D_free = (parse_expression(EXTERIOR, pres) for pres in (
        h, pq, cat.contraction.forward.source))
    rows = [
        _check("square-zero", partial(h.normal_form, D * D, budget)),
        _check("square-zero-primed",
               partial(pq.normal_form, D_pq * D_pq, budget)),
        _check("form-preserved", lambda: pq.normal_form(
            cat.contraction.forward.apply(D_free, budget) - D_pq, budget)),
    ]
    # the differential of an odd coordinate is even and vice versa, so the
    # composite anticommutes with one differential and commutes with the
    # other
    for cid, expr in (
            ("pass-odd-diff", D * gen("dx") + gen("dx") * D),
            ("pass-even-diff", D * gen("dth") - gen("dth") * D),
            ("unit-action", D * Expression.one() - D),
            ("generate-x", D * gen("x") - gen("x") * D - gen("dx")),
            ("generate-th", D * gen("th") + gen("th") * D - gen("dth"))):
        rows.append(_check(cid, partial(h.normal_form, expr, budget)))
    return rows, [h, pq]


def _identity_coaction(cat: AlgebraCatalog) -> Morphism:
    """The covariance tensor onto the h calculus with the group at the
    identity matrix: each group letter, a letter of the localized
    supergroup, goes to 1 when even and to 0 when odd; the parameters and
    the plane letters go to themselves."""
    cov = cat.covariance_tensor
    images = {gid: Expression.from_gen(gid) for gid in cov.gens}
    for g in non_param_gens(cat.localized_supergroup):
        images[g.id] = Expression.zero() if g.parity else Expression.one()
    return Morphism(cov, cat.h_calculus, images, name="identity-coaction")


@_suite("covariance")
def run_covariance_suite(cat: AlgebraCatalog, budget: Budget):
    """Every calculus relation is preserved by the group coaction."""
    h = cat.h_calculus
    delta = cat.coaction
    rows = []
    # parameter bookkeeping rules are shared plumbing, not claims
    for rule in non_param_rules(h):
        expr = Expression.from_word(rule.lhs) - rule.rhs
        rows.append(_check("coact-" + "-".join(rule.lhs),
                           partial(delta.apply, expr, budget)))

    eps = _identity_coaction(cat)
    gens = [Expression.from_gen(g)
            for g in ("x", "th", "dx", "dth", "px", "pth")]
    rows.append(_check("identity-coaction", lambda: _first(
        h.normal_form(eps.apply(delta.apply(g, budget), budget) - g, budget)
        for g in gens), notes="group generators at the identity element act "
                              "trivially on all six calculus generators"))

    loser = [v for v in cat.variant_matches if v != cat.coord_diff_variant]
    loser_hits = sum(cat.variant_matches[loser[0]].values()) if loser else 0
    # the selected reading derives the printed coordinate-differential block
    rows.append(_check("coefficient-reading", lambda: _first(
        cat.derived[w].specialized - parse_expression(t, h)
        for w, t in COORD_DIFF_TARGETS.items()),
        notes=f"selected coordinate-differential reading: "
              f"{cat.coord_diff_variant}; rejected alternative matches "
              f"{loser_hits} of 4 derived targets"))
    return rows, [cat.covariance_tensor, h]


@_suite("forms")
def run_forms_suite(cat: AlgebraCatalog, budget: Budget):
    """Frame one-forms against coordinates, and the scaling and shift
    operators built from the derivative sector."""
    forms = cat.one_forms
    h = cat.h_calculus
    w, u = (parse_expression(t, forms) for t in FRAME_FORMS.values())
    T, N = (parse_expression(t, h) for t in OPERATORS.values())
    gen = Expression.from_gen
    x, th = gen("x"), gen("th")
    h1, h2 = gen("h1"), gen("h2")
    rows = []
    for pres, cid, expr, printed in (
            (forms, "one-form-x-w", x * w - w * x + h1 * (u * x), False),
            (forms, "one-form-th-w", th * w + w * th - h1 * (u * th), False),
            (forms, "one-form-x-u", x * u - u * x, False),
            # printed right side is short by exactly the h2-scaled even
            # differential; no reading of the bracket closes the gap
            (forms, "one-form-th-u", th * u - u * th + h2 * (w * th + u * x),
             True),
            (forms, "one-form-w-sq", w * w, False),
            (forms, "one-form-w-u", w * u - u * w, False),
            (h, "operator-commute", T * N - N * T, False),
            (h, "operator-nilpotent", N * N, False),
            (h, "operator-count-x", T * x - x - x * T, False),
            (h, "operator-shift-x", N * x - x * N + h1 * (x * T), False),
            (h, "operator-count-th", T * th - th - th * T, False),
            # derived rules force the opposite sign on the scaled counting
            # term, matching the even-coordinate shift row above
            (h, "operator-shift-th", N * th - x + th * N - h1 * (th * T),
             True)):
        rows.append(_check(cid, partial(pres.normal_form, expr, budget),
                           printed))
    return rows, [forms, h]


# hatted-operator tables: ep and op are the even and odd hermitian
# positions, em and om the even and odd hermitian momenta
def _phase_rows(XH: Expression, TH: Expression, PX: Expression,
                PT: Expression) -> list[tuple[str, Expression]]:
    one = Expression.one()
    I = Scalar.i()
    gen = Expression.from_gen
    h1, h2 = gen("h1"), gen("h2")
    h12 = h1 * h2
    return [
        ("phase-ep-op", XH * TH - TH * XH - h2 * (XH * XH)),
        ("phase-op-op", TH * TH + h2 * (TH * XH)),
        ("phase-em-om", PX * PT - PT * PX - (h1 * (PX * PX)).scale(I)),
        ("phase-om-om", PT * PT + (h1 * (PX * PT)).scale(I)),
        ("phase-em-ep",
         PX * XH - one.scale(I) - XH * PX - (h2 * (XH * PT)).scale(I)
         + h1 * (TH * PX)
         - h12 * (one + XH * PX + (TH * PT).scale(I))),
        ("phase-em-op",
         PX * TH - TH * PX + h2 * (XH * PX + (TH * PT).scale(I))),
        ("phase-om-ep",
         PT * XH - XH * PT - h1 * ((XH * PX).scale(I) - TH * PT)),
        ("phase-om-op",
         PT * TH - one + TH * PT - h2 * (XH * PT)
         - (h1 * (TH * PX)).scale(I)
         + h12 * (one + (XH * PX).scale(I) - TH * PT)),
        ("clifford-em-ep",
         PX * XH - XH * PX + h1 * (TH * PX) - one.scale(I)
         - (h2 * (XH * PT)).scale(I)
         - h12 * (one + TH * PT + XH * PX)),
        ("clifford-em-op",
         PX * TH - TH * PX + h2 * (XH * PX + (TH * PT).scale(I))),
        ("clifford-om-em", PT * PX - PX * PT + (h1 * (PX * PX)).scale(I)),
        ("clifford-om-ep",
         PT * XH - XH * PT + h1 * (TH * PT - (XH * PX).scale(I))),
        ("clifford-om-op",
         PT * TH - one + TH * PT - (h1 * (TH * PX)).scale(I)
         - h2 * (XH * PT)
         + h12 * (one + XH * PX - TH * PT)),
        ("clifford-om-om", PT * PT + (h1 * (PX * PT)).scale(I)),
        ("clifford-op-op", TH * TH + h2 * (TH * XH)),
        ("clifford-op-ep", TH * XH - XH * TH + h2 * (XH * XH)),
    ]


@_suite("phase-space")
def run_phase_space_suite(cat: AlgebraCatalog, budget: Budget):
    """Hermitian conjugation fixes the hatted operators, preserves the
    non-differential relations, and the hatted operators close on the two
    printed deformed tables."""
    h = cat.h_calculus
    dag = cat.plane_dagger
    hatted = [parse_expression(t, h) for t in HATTED.values()]
    rows = []
    for cid, e in zip(("position-even", "position-odd", "momentum-even",
                       "momentum-odd"), hatted):
        rows.append(_check("hermitian-" + cid, lambda: h.normal_form(
            dag.apply(e, budget) - e, budget)))
    # the reducible pairs of the letters the dagger covers
    for word in (w for w in H_REDUCIBLE_PAIRS if set(w) <= dag.images.keys()):
        rule = h.rule_for(word)
        expr = Expression.from_word(rule.lhs) - rule.rhs
        rows.append(_check("dagger-" + "-".join(word),
                           partial(dag.apply, expr, budget)))
    for cid, expr in _phase_rows(*hatted):
        rows.append(_check(cid, partial(h.normal_form, expr, budget),
                           printed=True))
    return rows, [h]


# the right side of each ladder relation at p = q = 1: the undeformed algebra
_UNDEFORMED = {
    ("A", "Ap"): "1 + Ap*A",
    ("B", "Bp"): "1 - Bp*B",
    ("B", "B"): "0",
    ("Bp", "Bp"): "0",
    ("A", "Bp"): "Bp*A",
    ("A", "B"): "B*A",
    ("Ap", "B"): "B*Ap",
    ("Ap", "Bp"): "Bp*Ap",
}


@_suite("oscillator")
def run_oscillator_suite(cat: AlgebraCatalog, budget: Budget):
    """The ladder dictionary carries the plane relations into the deformed
    oscillator algebra with every deformation-parameter term cancelling."""
    osc = cat.oscillator
    dic = cat.oscillator_dictionary
    rows = []
    for cid, lhs, rhs in PRINTED_GENERAL:
        if "diff" in cid:
            continue
        expr = (parse_expression(lhs, dic.source)
                - parse_expression(rhs, dic.source))
        rows.append(_check("osc-" + cid, partial(dic.apply, expr, budget),
                           printed=True))

    # the derived plane relations themselves must map to identities of
    # the bare ladder rules, with every parameter term cancelling
    for word, rel in sorted(cat.derived.items()):
        letters = {l for w in rel.general.words() for l in w} | set(word)
        if not letters <= set(dic.images):
            continue
        expr = Expression.from_word(word) - rel.general
        rows.append(_check("ladder-" + "-".join(word),
                           partial(dic.apply, expr, budget)))

    rows.append(_check("bare-limit", lambda: _first(
        Expression({w: c for w, c in dic.images[gid].terms()
                    if not has_param(osc, w)}) - Expression.from_gen(ladder)
        for gid, ladder in sorted(LADDER.items())),
        notes="parameter-free part of each dictionary image is the matching "
              "ladder generator"))
    rows.append(_check("undeformed-limit", lambda: _first(
        Expression({w: c.eval(1, 1) for w, c in osc.rule_for(word).rhs.terms()})
        - parse_expression(want, osc) for word, want in _UNDEFORMED.items()),
        notes="all ladder relations specialize to the undeformed algebra at "
              "p=q=1"))
    star = cat.oscillator_star
    rows.append(_check("star-consistency", lambda: _first(
        star.apply(Expression.from_word(rule.lhs) - rule.rhs, budget)
        for rule in non_param_rules(osc)),
        notes="conjugation with the parameters swapped preserves every "
              "ladder relation"))
    return rows, [osc]


def _flip(img: Expression, word) -> Expression:
    """img with the sign of its term at word reversed."""
    return Expression({w: -c if w == word else c for w, c in img.terms()})


def _wrong_convention_maps(cat: AlgebraCatalog) -> tuple[Morphism, Morphism]:
    """Right-acting candidate maps: the contraction with single-term sign
    flips.  These are deliberately not algebra maps; they exist so the
    suite can measure how far they fail."""
    def flipped(m: Morphism, name: str, flips) -> Morphism:
        images = dict(m.images)
        for gid, word in flips:
            images[gid] = _flip(images[gid], word)
        return Morphism(m.source, m.target, images, name=name)

    cm = cat.contraction
    return (
        flipped(cm.forward, "right-to-pq", [("dx", ("h1", "dth")),
                                            ("dth", ("h1", "h2", "dth")),
                                            ("pth", ("h1", "px"))]),
        flipped(cm.backward, "right-to-h", [("pth", ("h1", "px"))]),
    )


@_suite("appendix")
def run_appendix_suite(cat: AlgebraCatalog, budget: Budget):
    """Left-convention round trips are exact; the right-acting candidates
    miss by the documented cross-parameter multiples, no more, no less."""
    cm = cat.contraction
    E = Expression
    rows = [_check("round-trip-" + key, trip)
            for key, trip in round_trip_residuals(cm, budget).items()]

    def drift_gap(wrong, claimed, gid):
        """The drift of gid under wrong less the claimed multiple; the
        image itself when wrong does not drift at all."""
        got = wrong.apply(claimed, budget)
        drift = got - E.from_gen(gid)
        cross = ("h1", "h2", gid)
        expected = E.from_word(
            cross, cm.backward.images[gid].coefficient(cross)).scale(2)
        return drift - expected if drift else got

    wrong_fwd, wrong_bwd = _wrong_convention_maps(cat)
    # inverting a transformation with right-acting rules and substituting
    # back leaves twice the h1*h2 term of the generator's (p,q)-to-h image:
    # probed on the even differential, and on the odd derivative entering
    # from the reduced frame
    probes = (
        ("right-convention-diff", wrong_fwd,
         _flip(cm.backward.images["dx"], ("h1", "dth")), "dx",
         "drift on the even differential is exactly "
         "2*h1*h2/((p-1)*(q-1)) of itself"),
        ("right-convention-deriv", wrong_bwd,
         _flip(cm.forward.images["pth"], ("h1", "px")), "pth",
         "drift on the odd derivative is exactly "
         "-2*h1*h2/((p-1)*(q-1)) of itself"),
    )
    for cid, wrong, claimed, gid, note in probes:
        rows.append(_check(cid, partial(drift_gap, wrong, claimed, gid),
                           notes=note))
    return rows, [cat.primed_calculus]


def run_all(cat: AlgebraCatalog,
            fuel: int | Budget = DEFAULT_FUEL) -> list[SuiteReport]:
    """Every suite on cat, each on a budget of its own unless fuel is one."""
    return [runner(cat, fuel) for runner in SUITES.values()]


def overall_ok(reports) -> bool:
    return all(rep.ok for rep in reports)


def render_text(reports) -> str:
    lines = []
    for rep in reports:
        c = rep.counts
        lines.append(f"== {rep.suite} ({len(rep.results)} checks, "
                     f"{rep.elapsed:.2f}s) ==")
        for r in rep.results:
            line = f"  {r.status:<12} {r.id}"
            if r.residual is not None:
                line += f"  residual: {render_expression(r.residual)}"
            if r.notes:
                line += f"  [{r.notes}]"
            lines.append(line)
        lines.append(f"  summary: {c[PASS]} Pass, {c[FAIL]} Fail, "
                     f"{c[DISCREPANCY]} Discrepancy")
    status = "PASS" if overall_ok(reports) else "FAIL"
    lines.append(f"overall: {status}")
    return "\n".join(lines)


def render_structured(reports) -> str:
    """Line records, one per check, no timing fields."""
    lines = []
    for rep in reports:
        for name, sha in rep.presentation_fingerprints:
            lines.append(f"fingerprint\t{rep.suite}\t{name}\t{sha}")
        for r in rep.results:
            res = render_expression(r.residual) if r.residual is not None else ""
            lines.append(f"check\t{rep.suite}\t{r.id}\t{r.status}\t{res}"
                         f"\t{r.notes}")
    return "\n".join(lines)
