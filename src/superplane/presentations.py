"""The deformed-superplane algebra family, encoded as data.

Builders for each presentation, the contraction between the two generator
frames, the supergroup coaction, the involutions and the ladder dictionary.
Generator spellings are ASCII throughout: th (odd coordinate), dx/dth
(differentials), px/pth (derivatives), h1/h2 (odd nilpotent parameters),
a/be/ga/d (supergroup entries), Ap/A/Bp/B (oscillators); inverses append
"inv".

The contraction is the one place that states the frame-change
coefficients.  The ladder dictionary is its forward map with the plane
letters renamed (LADDER), and the right-acting comparison maps of the
appendix suite are single-term sign flips of its forward and backward
images, so neither restates a coefficient.

Two sort-key conventions matter everywhere:

* parameters sit at the bottom of the generator order, so every normal
  form has its h-letters pulled to the front (by param_swap_rules, which
  every Presentation adds and reduction applies as one Koszul-sign pass);
* an adjoined inverse sits immediately above its base generator.  Anything
  keyed between the two would let sorted words hide unit cancellations
  from adjacent-pair rewriting and break confluence.

Every presentation here is built by _build, which reports a bad rule as a
ConstructionFailure; localize, the one place that adjoins an inverse,
builds through it too.  No builder states a parameter swap, nor the image
of a parameter a map fixes: a Morphism or Involution sends h1 and h2 to
themselves unless given images, and only the plane dagger gives one
(h2 -> -h2).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from superplane.algebra import (
    DEFAULT_FUEL,
    AlgebraError,
    Budget,
    Expression,
    GenClass,
    GeneratorDecl,
    Involution,
    Morphism,
    Presentation,
    RewriteRule,
    RuleError,
    koszul_swap,
    unit_rules,
)
from superplane.parsing import parse_expression
from superplane.scalars import IndeterminateAtPoint, PoleAtPoint, Scalar

Word = tuple


class ConstructionFailure(AlgebraError):
    """A builder could not assemble a valid presentation or map."""


class IncompleteLocalization(ConstructionFailure):
    """A needed base rule was missing while deriving inverse swap rules."""


class RoundTripFailure(ConstructionFailure):
    """A forward/backward generator change failed to compose to identity."""


# ------------------------------------------------------------ generators

_PARAMS = (
    GeneratorDecl("h1", 1, GenClass.PARAMETER, 0),
    GeneratorDecl("h2", 1, GenClass.PARAMETER, 1),
)

# the (p,q) frame orders px below pth; the h frame orders them the other
# way round because the two calculi orient their derivative swap rule
# in opposite directions
PQ_DECLS = _PARAMS + (
    GeneratorDecl("dth", 0, GenClass.STANDARD, 10),
    GeneratorDecl("dx", 1, GenClass.STANDARD, 11),
    GeneratorDecl("th", 1, GenClass.STANDARD, 20),
    GeneratorDecl("x", 0, GenClass.STANDARD, 21),
    GeneratorDecl("px", 0, GenClass.STANDARD, 30),
    GeneratorDecl("pth", 1, GenClass.STANDARD, 31),
)

H_DECLS = _PARAMS + (
    GeneratorDecl("dth", 0, GenClass.STANDARD, 10),
    GeneratorDecl("dx", 1, GenClass.STANDARD, 11),
    GeneratorDecl("th", 1, GenClass.STANDARD, 20),
    GeneratorDecl("x", 0, GenClass.STANDARD, 21),
    GeneratorDecl("pth", 1, GenClass.STANDARD, 30),
    GeneratorDecl("px", 0, GenClass.STANDARD, 31),
)

SUPERGROUP_DECLS = _PARAMS + (
    GeneratorDecl("ga", 1, GenClass.STANDARD, 10),
    GeneratorDecl("be", 1, GenClass.STANDARD, 11),
    GeneratorDecl("d", 0, GenClass.STANDARD, 12),
    GeneratorDecl("a", 0, GenClass.STANDARD, 14),
)

OSCILLATOR_DECLS = _PARAMS + (
    GeneratorDecl("Bp", 1, GenClass.STANDARD, 10),
    GeneratorDecl("B", 1, GenClass.STANDARD, 11),
    GeneratorDecl("Ap", 0, GenClass.STANDARD, 12),
    GeneratorDecl("A", 0, GenClass.STANDARD, 13),
)

# coordinate-differential sector of the h frame, for the one-forms
FORMS_DECLS = tuple(d for d in H_DECLS if d.id not in ("px", "pth"))

# non-differential sector of the h frame, for maps whose targets have no
# differentials (oscillator dictionary, phase-space scaffolding)
PLANE_DECLS = tuple(d for d in H_DECLS if d.id not in ("dx", "dth"))


def has_param(pres: Presentation, word: Word) -> bool:
    """Whether word mentions a deformation parameter of pres."""
    return any(pres.gens[l].klass is GenClass.PARAMETER for l in word)


def non_param_rules(pres: Presentation) -> list[RewriteRule]:
    """The rules of pres other than the parameter bookkeeping swaps."""
    return [r for r in pres.rules if not has_param(pres, r.lhs)]


def non_param_gens(pres: Presentation) -> list[GeneratorDecl]:
    """The generators of pres other than its parameters, in sort-key order."""
    return sorted((g for g in pres.gens.values()
                   if g.klass is not GenClass.PARAMETER), key=lambda g: g.sort_key)


def scaffold(name: str, decls, rules=()) -> Presentation:
    """The incomplete presentation of rules and the parameter swaps: a
    naming context for parsing and maps, or a scratch space to reduce in."""
    return Presentation(name, decls, rules, require_complete=False)


def _build(name, decls, rules=(), table=()) -> Presentation:
    """The presentation of rules, or of the (lhs, rhs) text rows of table,
    and the parameter swaps."""
    if table:
        ctx = scaffold("table", decls)
        rules = [RewriteRule(tuple(lhs.split()), parse_expression(rhs, ctx))
                 for lhs, rhs in table]
    try:
        return Presentation(name, decls, rules)
    except AlgebraError as exc:
        raise ConstructionFailure(f"{name}: {exc}") from exc


# ----------------------------------------------------- (p,q) calculus

# Everything except the coordinate-differential swap for the odd
# coordinate, which exists in two candidate readings (see below).
_PQ_TABLE = [
    ("x th", "q*th*x"),
    ("th th", "0"),
    ("dx dth", "1/p*dth*dx"),
    ("dx dx", "0"),
    ("x dx", "p*q*dx*x"),
    ("x dth", "q*dth*x + (p*q - 1)*dx*th"),
    ("th dth", "dth*th"),
    ("px x", "1 + p*q*x*px + (p*q - 1)*th*pth"),
    ("px th", "p*th*px"),
    ("pth x", "q*x*pth"),
    ("pth th", "1 - th*pth"),
    ("pth px", "p*px*pth"),
    ("pth pth", "0"),
    # Derivatives pass differentials with the inverse braiding of the
    # coordinate-differential sector.  These four coefficients are forced:
    # any other choice makes the overlap of a derivative-coordinate rule
    # with a coordinate-differential rule non-joinable, putting scalar
    # multiples of the differentials into the ideal and collapsing the
    # algebra over the fraction field.  The confluence_reports fixture of
    # tests/conftest.py and the benchmark's confluence-scan workload check
    # that every catalog presentation is confluent.
    ("px dx", "1/(p*q)*dx*px"),
    ("px dth", "1/q*dth*px"),
    ("pth dx", "-1/p*dx*pth"),
    ("pth dth", "dth*pth + (p*q - 1)/(p*q)*dx*px"),
]

# The two candidate readings of the odd-coordinate/even-differential swap:
# "diagonal" keeps each letter with its own partner, "cross" trades the
# differential for the other one.  Exactly one of them contracts onto the
# expected h-limit block; the selection is mechanical (see choose_variant).
COORD_DIFF_VARIANTS = {
    "diagonal": ("th dx", "-p*dx*th"),
    "cross": ("th dx", "-p*dth*x"),
}


def build_primed_calculus(variant: str) -> Presentation:
    return _build("pq-calculus", PQ_DECLS,
                  table=_PQ_TABLE + [COORD_DIFF_VARIANTS[variant]])


# -------------------------------------------------------- contraction

_P1 = Scalar.p() - Scalar.one()
_Q1 = Scalar.q() - Scalar.one()
_C1 = Scalar.one() / _P1          # coefficient of h1 in the odd mixing
_C2 = Scalar.one() / _Q1          # coefficient of h2
_CH = _C1 * _C2                   # coefficient of h1*h2


class ContractionMap(namedtuple("ContractionMap", "forward backward")):
    """Invertible change of generators between the h frame and (p,q) frame.

    forward sends each h-frame generator to its (p,q)-frame expression and
    reduces there; backward sends each (p,q)-frame generator to its h-frame
    expression and reduces in backward.target, a parameters-only scratch
    presentation that is forward.source as well, so its outputs are always
    parameter-normalized free expressions.  Both are Morphisms; the x and
    th images of backward are the frame change of the coordinates.
    """

    __slots__ = ()


def build_contraction(pq: Presentation) -> ContractionMap:
    E = Expression
    frame = scaffold("h-frame-params", H_DECLS)
    forward = Morphism(
        frame,
        pq,
        {
            "x": E({("x",): 1, ("h1", "th"): -_C1}),
            "th": E({("h2", "x"): -_C2, ("th",): 1, ("h1", "h2", "th"): -_CH}),
            "dx": E({("dx",): 1, ("h1", "dth"): _C1}),
            "dth": E({("h2", "dx"): _C2, ("dth",): 1, ("h1", "h2", "dth"): -_CH}),
            "px": E({("px",): 1, ("h1", "h2", "px"): _CH, ("h2", "pth"): _C2}),
            "pth": E({("h1", "px"): -_C1, ("pth",): 1}),
        },
        name="h-to-pq",
    )
    backward = Morphism(
        pq,
        frame,
        {
            "x": E({("x",): 1, ("h1", "h2", "x"): _CH, ("h1", "th"): _C1}),
            "th": E({("h2", "x"): _C2, ("th",): 1}),
            "dx": E({("dx",): 1, ("h1", "h2", "dx"): _CH, ("h1", "dth"): -_C1}),
            "dth": E({("h2", "dx"): -_C2, ("dth",): 1}),
            "px": E({("px",): 1, ("h2", "pth"): -_C2}),
            "pth": E({("h1", "px"): _C1, ("pth",): 1, ("h1", "h2", "pth"): -_CH}),
        },
        name="pq-to-h",
    )
    cmap = ContractionMap(forward, backward)
    for key, trip in round_trip_residuals(cmap).items():
        res = trip()
        if not res.is_zero():
            raise RoundTripFailure(f"round trip {key} leaves {res}")
    return cmap


def round_trip_residuals(cmap: ContractionMap,
                         fuel: int | Budget = DEFAULT_FUEL) -> dict:
    """For each generator g, a thunk that reduces its round trip on one
    budget: backward(forward(g)) - g for an h-frame one, keyed h-<g>, and
    forward(backward(g)) - g for a (p,q)-frame one, keyed pq-<g>.  All are
    zero for an exact frame change."""
    budget = Budget.of(fuel)

    def trip(there, back, g):
        return lambda: back.apply(there.apply(g, budget), budget) - g

    return {f"{tag}-{gid}": trip(there, back, Expression.from_gen(gid))
            for tag, there, back in (("h", cmap.forward, cmap.backward),
                                     ("pq", cmap.backward, cmap.forward))
            for gid in there.source.gens}


def _solve(word: Word, zero: Expression) -> Expression | None:
    """What word equals given zero == 0, or None when zero lacks word."""
    k = zero.coefficient(word)
    if k.is_zero():
        return None
    return (Expression.from_word(word, k) - zero).scale(k.inv())


# ------------------------------------------- deriving the h-frame rules

H_REDUCIBLE_PAIRS = (
    ("x", "th"), ("th", "th"),
    ("dx", "dth"), ("dx", "dx"),
    ("x", "dx"), ("x", "dth"), ("th", "dx"), ("th", "dth"),
    ("px", "x"), ("px", "th"), ("pth", "x"), ("pth", "th"),
    ("px", "pth"), ("pth", "pth"),
    ("px", "dx"), ("px", "dth"), ("pth", "dx"), ("pth", "dth"),
)


class DerivedRelation(namedtuple("DerivedRelation",
                                  "word general specialized pole_note",
                                  defaults=("",))):
    """One reducible h-frame pair and what it equals.

    general holds the exact right-hand side over the rational-function
    field; specialized holds its value at p = q = 1, or None together with
    a pole_note when some coefficient is singular there.
    """

    __slots__ = ()


def derive_h_relations(cmap: ContractionMap, pairs=H_REDUCIBLE_PAIRS) -> dict:
    """Push each reducible pair through the frame change and back.

    The raw pull-back of a pair may mention reducible pairs again: itself
    (with a scalar coefficient, solved linearly) or a pair buried behind a
    parameter prefix.  A pair whose ordering is transposed between the two
    frames pulls back to itself exactly; its content lives in the pull-back
    of the reversed word instead, which is solved for the pair.  The solved
    relations are then closed as normal forms in one scratch presentation
    whose rules are those relations and the parameter swaps: the rules
    strictly descend, every buried pair sitting behind a parameter, and the
    fuel bound is the backstop.  The result expresses every pair over
    irreducible words with coefficients still exact in p and q.  It all
    runs on one budget of DEFAULT_FUEL steps.
    """
    budget = Budget(DEFAULT_FUEL)

    def pull(word):
        return cmap.backward.apply(
            cmap.forward.apply(Expression.from_word(word), budget), budget
        )

    general: dict = {}
    for w in pairs:
        solved = _solve(w, pull(w) - Expression.from_word(w))
        if solved is None:
            rev = (w[1], w[0])
            solved = _solve(w, pull(rev) - Expression.from_word(rev))
            if solved is None:
                raise ConstructionFailure(
                    f"pair {w} maps onto itself and its reverse does not reach it"
                )
        general[w] = solved
    closure = scaffold(
        "h-frame-closure", H_DECLS, [RewriteRule(w, general[w]) for w in pairs]
    )
    out = {}
    for w in pairs:
        expr = closure.normal_form(general[w], budget)
        spec_terms = {}
        note = ""
        try:
            for word, coeff in expr.terms():
                spec_terms[word] = coeff.eval(1, 1)
            specialized = Expression(spec_terms)
        except (PoleAtPoint, IndeterminateAtPoint) as exc:
            specialized = None
            note = f"singular at p=q=1: {exc}"
        out[w] = DerivedRelation(w, expr, specialized, note)
    return out


def build_h_calculus(derived) -> Presentation:
    rules = []
    for w in H_REDUCIBLE_PAIRS:
        rel = derived[w]
        if rel.specialized is None:
            raise ConstructionFailure(
                f"pair {w} has no regular value at p=q=1 ({rel.pole_note})"
            )
        rules.append(RewriteRule(w, rel.specialized))
    return _build("h-calculus", H_DECLS, rules)


# expected h-limit block for the coordinate-differential family, used to
# select between the two candidate readings of the (p,q) swap rule
COORD_DIFF_TARGETS = {
    ("x", "dx"): "dx*x + h1*(dx*th - dth*x) + h1*h2*dx*x",
    ("x", "dth"): "dth*x - h1*dth*th - h2*dx*x + h1*h2*dx*th",
    ("th", "dx"): "-dx*th + h1*dth*th - h2*dx*x - h1*h2*dth*x",
    ("th", "dth"): "dth*th - h2*(dx*th + dth*x) - h1*h2*dth*th",
}

COORD_DIFF_PAIRS = tuple(COORD_DIFF_TARGETS)


def choose_variant():
    """Pick the coordinate-differential reading that hits the h-limit block.

    Returns (variant_name, matches, contraction) where matches maps each
    variant to a per-pair boolean dict and contraction is the winner's
    frame change, built on its primed calculus.  Exactly one variant must
    match on all four pairs; anything else is a construction failure.
    """

    matches = {}
    contractions = {}
    for variant in COORD_DIFF_VARIANTS:
        cmap = contractions[variant] = build_contraction(build_primed_calculus(variant))
        derived = derive_h_relations(cmap, pairs=COORD_DIFF_PAIRS)
        matches[variant] = {
            w: derived[w].specialized == parse_expression(t, cmap.forward.source)
            for w, t in COORD_DIFF_TARGETS.items()
        }
    winners = [v for v, m in matches.items() if all(m.values())]
    if len(winners) != 1:
        raise ConstructionFailure(
            f"coordinate-differential selection is not decisive: {matches}"
        )
    return winners[0], matches, contractions[winners[0]]


# --------------------------------------------------------- supergroup

SUPERGROUP_TABLE = [
    ("a be", "be*a - h1*(a^2 - be*ga - a*d)"),
    ("d be", "be*d + h1*(d^2 + be*ga - d*a)"),
    ("a ga", "ga*a + h2*(a^2 + ga*be - a*d)"),
    ("d ga", "ga*d - h2*(d^2 - ga*be - d*a)"),
    ("be be", "h1*be*(a - d)"),
    ("ga ga", "h2*ga*(d - a)"),
    ("be ga", "-ga*be + (h1*ga - h2*be)*(a - d)"),
    ("a d", "d*a + h1*(a - d)*ga + h2*be*(a - d)"),
]


def build_supergroup() -> Presentation:
    return _build("supergroup", SUPERGROUP_DECLS, table=SUPERGROUP_TABLE)


# ------------------------------------------------------- localization

def localize(pres: Presentation, gen_id: str, name: str) -> Presentation:
    """pres with a two-sided inverse of its even generator gen_id adjoined.

    The inverse is derived from its base: the even INVERSE-class generator
    gen_id + "inv", the id that inv(gen_id) parses to, whose class gives it
    weight -1 so the unit rules descend at equal weighted degree, with the
    sort key immediately above gen_id's (a generator of pres already keyed
    there is a RuleError naming both).  Its swap rules come from
    sandwiching the base rules: for a generator v below g, multiplying the
    rule for g*v by the inverse on both sides yields an identity whose head
    term is (ginv, v); solving for that head gives the new rule.  For v
    above the inverse the mirror image applies.  The sandwich is reduced
    in a scratch presentation of the parameter swaps and the two unit
    rules, so one normal form moves the parameters to the front and
    cancels every unit pair, all on one budget of DEFAULT_FUEL steps.  The
    parameters are central by declaration, so only the rules of pres off
    them are carried over, and the result's swaps, the inverse's among
    them, come with its Presentation.
    """
    g = pres.gens.get(gen_id)
    ginv = gen_id + "inv"
    if g is None:
        raise RuleError(f"cannot invert unknown generator {gen_id}")
    if g.parity:
        raise RuleError(f"cannot invert odd generator {gen_id}")
    if ginv in pres.gens:
        raise RuleError(f"generator {ginv} already present")
    decls = [*pres.gens.values(),
             GeneratorDecl(ginv, 0, GenClass.INVERSE, g.sort_key + 1)]
    units = unit_rules(gen_id, ginv)
    scratch = scaffold(name, decls, units)
    budget = Budget(DEFAULT_FUEL)
    sandwich = Expression.from_gen(ginv)
    rules = non_param_rules(pres) + units
    for v in non_param_gens(pres):
        if v.id == gen_id:
            continue
        if v.sort_key < g.sort_key:
            base = pres.rule_for((gen_id, v.id))
            lhs, ordered = (ginv, v.id), (v.id, ginv)
        else:
            base = pres.rule_for((v.id, gen_id))
            lhs, ordered = (v.id, ginv), (ginv, v.id)
        if base is None:
            raise IncompleteLocalization(
                f"no rule joins {gen_id} and {v.id}; cannot derive {lhs}"
            )
        sandwiched = scratch.normal_form(sandwich * base.rhs * sandwich, budget)
        rhs = _solve(lhs, sandwiched - Expression.from_word(ordered))
        if rhs is None:
            raise IncompleteLocalization(
                f"sandwiched rule for {lhs} has no head term to solve for"
            )
        # ordered and the words of sandwiched are irreducible in scratch
        rules.append(RewriteRule(lhs, rhs))
    return _build(name, decls, rules)


def build_localized_supergroup(base: Presentation) -> Presentation:
    return localize(localize(base, "d", "supergroup-dinv"), "a", "supergroup-loc")


# ------------------------------------------------- covariance tensor

def build_covariance_tensor(
    localized_supergroup: Presentation, h_calculus: Presentation
) -> Presentation:
    """The group and the plane joined: the letters of localized_supergroup
    with their keys, then those of h_calculus in their order with keys from
    20, so normal forms read parameters, then group letters, then plane
    letters.  The rules are both factors' and the Koszul swap of each plane
    letter past each group letter."""
    group = non_param_gens(localized_supergroup)
    plane = [GeneratorDecl(g.id, g.parity, g.klass, 20 + k)
             for k, g in enumerate(non_param_gens(h_calculus))]
    cross = [koszul_swap(v, u) for v in plane for u in group]
    rules = (non_param_rules(localized_supergroup)
             + non_param_rules(h_calculus) + cross)
    return _build("covariance", _PARAMS + tuple(group + plane), rules)


def build_coaction(h_calculus: Presentation, covariance: Presentation) -> Morphism:
    def img(text):
        return parse_expression(text, covariance)

    return Morphism(
        h_calculus,
        covariance,
        {
            "x": img("a*x + be*th"),
            "th": img("ga*x + d*th"),
            "dx": img("a*dx - be*dth"),
            "dth": img("-ga*dx + d*dth"),
            "px": img("(inv(a) - inv(a)*ga*inv(d)*be*inv(a))*px - inv(a)*ga*inv(d)*pth"),
            "pth": img("(inv(d) - inv(d)*be*inv(a)*ga*inv(d))*pth + inv(d)*be*inv(a)*px"),
        },
        name="coaction",
    )


# ---------------------------------------------------------- one-forms

def build_one_forms(h_calculus: Presentation) -> Presentation:
    keep = {d.id for d in FORMS_DECLS}
    rules = [r for r in non_param_rules(h_calculus) if set(r.lhs) <= keep]
    base = _build("one-forms-base", FORMS_DECLS, rules)
    return localize(base, "x", "one-forms")


# --------------------------------------------------------- oscillator

OSCILLATOR_TABLE = [
    ("A Ap", "1 + p*q*Ap*A + (p*q - 1)*Bp*B"),
    ("B Bp", "1 - Bp*B"),
    ("B B", "0"),
    ("Bp Bp", "0"),
    ("A Bp", "p*Bp*A"),
    ("A B", "1/p*B*A"),
    ("Ap B", "1/q*B*Ap"),
    ("Ap Bp", "q*Bp*Ap"),
]


# ladder operator standing for each non-differential h-frame generator
LADDER = {"x": "Ap", "th": "Bp", "px": "A", "pth": "B"}


def build_oscillator() -> Presentation:
    return _build("oscillator", OSCILLATOR_DECLS, table=OSCILLATOR_TABLE)


def build_oscillator_dictionary(oscillator: Presentation,
                                contraction: ContractionMap) -> Morphism:
    """Non-differential h-frame generators as oscillator composites: the
    forward contraction images with the plane letters renamed by LADDER."""
    images = {
        gid: Expression(
            {tuple(LADDER.get(l, l) for l in w): c for w, c in img.terms()}
        )
        for gid, img in contraction.forward.images.items()
        if gid in LADDER
    }
    return Morphism(
        scaffold("plane", PLANE_DECLS), oscillator, images,
        name="oscillator-dictionary",
    )


# --------------------------------------------------------- involutions

def build_plane_dagger(h_calculus: Presentation) -> Involution:
    def img(text):
        return parse_expression(text, h_calculus)

    return Involution(
        h_calculus,
        {
            "x": img("x + 2*h1*h2*x + 2*h1*th"),
            "th": img("th - 2*h1*h2*th + 2*h2*x"),
            "px": img("-px - 2*h1*h2*px + 2*h2*pth"),
            "pth": img("pth - 2*h1*h2*pth + 2*h1*px"),
            "h2": img("-h2"),
        },
        name="plane-dagger",
    )


def build_oscillator_star(oscillator: Presentation) -> Involution:
    E = Expression
    return Involution(
        oscillator,
        {
            "A": E.from_gen("Ap"),
            "Ap": E.from_gen("A"),
            "B": E.from_gen("Bp"),
            "Bp": E.from_gen("B"),
        },
        swap_pq=True,
        name="oscillator-star",
    )


# -------------------------------------------------------------- catalog

class AlgebraCatalog(namedtuple("AlgebraCatalog", (
        "primed_calculus h_calculus supergroup localized_supergroup "
        "covariance_tensor oscillator one_forms contraction derived coaction "
        "plane_dagger oscillator_star oscillator_dictionary "
        "coord_diff_variant variant_matches"))):
    """The model family built once per process by build_catalog: seven
    Presentations, the ContractionMap, the derived relations (a dict of
    DerivedRelation by word), the coaction and ladder dictionary
    (Morphisms), the two Involutions, and the coordinate-differential
    variant chosen with its per-variant matches."""

    __slots__ = ()


@lru_cache(maxsize=None)
def build_catalog() -> AlgebraCatalog:
    variant, matches, contraction = choose_variant()
    pq = contraction.forward.target
    derived = derive_h_relations(contraction)
    h_calc = build_h_calculus(derived)
    supergroup = build_supergroup()
    loc_supergroup = build_localized_supergroup(supergroup)
    covariance = build_covariance_tensor(loc_supergroup, h_calc)
    oscillator = build_oscillator()
    return AlgebraCatalog(
        primed_calculus=pq,
        h_calculus=h_calc,
        supergroup=supergroup,
        localized_supergroup=loc_supergroup,
        covariance_tensor=covariance,
        oscillator=oscillator,
        one_forms=build_one_forms(h_calc),
        contraction=contraction,
        derived=derived,
        coaction=build_coaction(h_calc, covariance),
        plane_dagger=build_plane_dagger(h_calc),
        oscillator_star=build_oscillator_star(oscillator),
        oscillator_dictionary=build_oscillator_dictionary(oscillator, contraction),
        coord_diff_variant=variant,
        variant_matches=matches,
    )


def catalog_presentations(cat: AlgebraCatalog) -> dict[str, Presentation]:
    """CLI-facing name table.  supergroup maps to the localized build so
    inverse generators are available for reduction."""
    return {
        "pq-calculus": cat.primed_calculus,
        "h-calculus": cat.h_calculus,
        "supergroup": cat.localized_supergroup,
        "covariance": cat.covariance_tensor,
        "one-forms": cat.one_forms,
        "oscillator": cat.oscillator,
    }
