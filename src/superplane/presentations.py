"""The deformed-superplane algebra family, encoded as data.

Builders for each presentation, the contraction between the two generator
frames, the supergroup coaction, the involutions, and the composite
elements.  Generator spellings are ASCII throughout: th (odd coordinate),
dx/dth (differentials), px/pth (derivatives), h1/h2 (odd nilpotent
parameters), a/be/ga/d (supergroup entries), Ap/A/Bp/B (oscillators);
inverses append "inv".

The contraction is the one place that states the frame-change
coefficients.  The ladder dictionary is its forward map with the plane
letters renamed (LADDER), and the right-acting comparison maps of the
appendix suite are single-term sign flips of its forward and backward
images, so neither restates a coefficient.

Two sort-key conventions matter everywhere:

* parameters sit at the bottom of the generator order, so every normal
  form has its h-letters pulled to the front;
* an adjoined inverse sits immediately above its base generator.  Anything
  keyed between the two would let sorted words hide unit cancellations
  from adjacent-pair rewriting and break confluence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from superplane.algebra import (
    DEFAULT_FUEL,
    AlgebraError,
    Expression,
    GenClass,
    GeneratorDecl,
    Involution,
    Morphism,
    Presentation,
    RewriteRule,
    RuleError,
    adjoin_inverse,
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


def param_swap_rules(decls) -> list[RewriteRule]:
    """Rules moving the nilpotent parameters to the front of every word."""
    decls = list(decls)
    params = sorted(
        (d for d in decls if d.klass is GenClass.PARAMETER), key=lambda d: d.sort_key
    )
    out = []
    for h in params:
        for v in decls:
            if v.klass is GenClass.PARAMETER:
                continue
            sign = -1 if (v.parity and h.parity) else 1
            out.append(RewriteRule((v.id, h.id), Expression({(h.id, v.id): sign})))
    for i, hi in enumerate(params):
        for hj in params[:i]:
            sign = -1 if (hi.parity and hj.parity) else 1
            out.append(RewriteRule((hi.id, hj.id), Expression({(hj.id, hi.id): sign})))
        if hi.parity:
            out.append(RewriteRule((hi.id, hi.id), Expression.zero()))
    return out


def has_param(pres: Presentation, word: Word) -> bool:
    """Whether word mentions a deformation parameter of pres."""
    return any(pres.gens[l].klass is GenClass.PARAMETER for l in word)


def non_param_rules(pres: Presentation) -> list[RewriteRule]:
    """The rules of pres other than the parameter bookkeeping swaps."""
    return [r for r in pres.rules if not has_param(pres, r.lhs)]


def scaffold(name: str, decls) -> Presentation:
    """Rule-free presentation: a naming context for parsing and morphisms."""
    return Presentation(name, decls, [], require_complete=False)


def param_scratch(name: str, decls) -> Presentation:
    """Presentation with only the parameter swap rules."""
    return Presentation(name, decls, param_swap_rules(decls), require_complete=False)


def _table_rules(decls, table) -> list[RewriteRule]:
    ctx = scaffold("table", decls)
    return [
        RewriteRule(tuple(lhs.split()), parse_expression(rhs, ctx))
        for lhs, rhs in table
    ]


def _build(name, decls, rules) -> Presentation:
    try:
        return Presentation(name, decls, rules)
    except (RuleError, AlgebraError) as exc:
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
    # algebra over the fraction field.  The confluence suite guards this.
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

DEFAULT_VARIANT = "diagonal"


def build_primed_calculus(variant: str = DEFAULT_VARIANT) -> Presentation:
    if variant not in COORD_DIFF_VARIANTS:
        raise ConstructionFailure(f"unknown coordinate-differential variant {variant!r}")
    table = _PQ_TABLE + [COORD_DIFF_VARIANTS[variant]]
    return _build(
        "pq-calculus",
        PQ_DECLS,
        _table_rules(PQ_DECLS, table) + param_swap_rules(PQ_DECLS),
    )


# -------------------------------------------------------- contraction

_P1 = Scalar.p() - Scalar.one()
_Q1 = Scalar.q() - Scalar.one()
_C1 = Scalar.one() / _P1          # coefficient of h1 in the odd mixing
_C2 = Scalar.one() / _Q1          # coefficient of h2
_CH = _C1 * _C2                   # coefficient of h1*h2


@dataclass(frozen=True)
class ContractionMap:
    """Invertible change of generators between the h frame and (p,q) frame.

    forward sends each h-frame generator to its (p,q)-frame expression and
    reduces there; backward sends each (p,q)-frame generator to its h-frame
    expression and reduces in a parameters-only scratch presentation, so its
    outputs are always parameter-normalized free expressions.
    """

    forward: Morphism
    backward: Morphism
    g_matrix: tuple
    h_scratch: Presentation


def build_contraction(pq: Presentation) -> ContractionMap:
    E = Expression
    h_scaffold = scaffold("h-frame", H_DECLS)
    h_scratch = param_scratch("h-frame-params", H_DECLS)
    forward = Morphism(
        h_scaffold,
        pq,
        {
            "x": E({("x",): 1, ("h1", "th"): -_C1}),
            "th": E({("h2", "x"): -_C2, ("th",): 1, ("h1", "h2", "th"): -_CH}),
            "dx": E({("dx",): 1, ("h1", "dth"): _C1}),
            "dth": E({("h2", "dx"): _C2, ("dth",): 1, ("h1", "h2", "dth"): -_CH}),
            "px": E({("px",): 1, ("h1", "h2", "px"): _CH, ("h2", "pth"): _C2}),
            "pth": E({("h1", "px"): -_C1, ("pth",): 1}),
            "h1": E.from_gen("h1"),
            "h2": E.from_gen("h2"),
        },
        name="h-to-pq",
    )
    backward = Morphism(
        pq,
        h_scratch,
        {
            "x": E({("x",): 1, ("h1", "h2", "x"): _CH, ("h1", "th"): _C1}),
            "th": E({("h2", "x"): _C2, ("th",): 1}),
            "dx": E({("dx",): 1, ("h1", "h2", "dx"): _CH, ("h1", "dth"): -_C1}),
            "dth": E({("h2", "dx"): -_C2, ("dth",): 1}),
            "px": E({("px",): 1, ("h2", "pth"): -_C2}),
            "pth": E({("h1", "px"): _C1, ("pth",): 1, ("h1", "h2", "pth"): -_CH}),
            "h1": E.from_gen("h1"),
            "h2": E.from_gen("h2"),
        },
        name="pq-to-h",
    )
    g_matrix = (
        (E({(): 1, ("h1", "h2"): _CH}), E({("h1",): _C1})),
        (E({("h2",): _C2}), E.one()),
    )
    cmap = ContractionMap(forward, backward, g_matrix, h_scratch)
    _check_round_trips(cmap)
    return cmap


def _check_round_trips(cmap: ContractionMap, fuel: int = DEFAULT_FUEL):
    for gid in cmap.forward.source.gens:
        g = Expression.from_gen(gid)
        back = cmap.backward.apply(cmap.forward.apply(g, fuel), fuel)
        if back != cmap.h_scratch.normal_form(g, fuel):
            raise RoundTripFailure(
                f"backward(forward({gid})) = {back}, expected {gid}"
            )
    pq_scratch = cmap.forward.target
    for gid in pq_scratch.gens:
        g = Expression.from_gen(gid)
        fwd = cmap.forward.apply(cmap.backward.apply(g, fuel), fuel)
        if fwd != pq_scratch.normal_form(g, fuel):
            raise RoundTripFailure(
                f"forward(backward({gid})) = {fwd}, expected {gid}"
            )


# ------------------------------------------- deriving the h-frame rules

H_REDUCIBLE_PAIRS = (
    ("x", "th"), ("th", "th"),
    ("dx", "dth"), ("dx", "dx"),
    ("x", "dx"), ("x", "dth"), ("th", "dx"), ("th", "dth"),
    ("px", "x"), ("px", "th"), ("pth", "x"), ("pth", "th"),
    ("px", "pth"), ("pth", "pth"),
    ("px", "dx"), ("px", "dth"), ("pth", "dx"), ("pth", "dth"),
)


@dataclass(frozen=True)
class DerivedRelation:
    """One reducible h-frame pair and what it equals.

    general holds the exact right-hand side over the rational-function
    field; specialized holds its value at p = q = 1, or None together with
    a pole_note when some coefficient is singular there.
    """

    word: Word
    general: Expression
    specialized: Expression | None
    pole_note: str = ""


def _family_subword(word: Word, pairs: frozenset) -> int:
    for i in range(len(word) - 1):
        if word[i : i + 2] in pairs:
            return i
    return -1


def derive_h_relations(
    cmap: ContractionMap,
    pairs=H_REDUCIBLE_PAIRS,
    fuel: int = DEFAULT_FUEL,
) -> dict:
    """Push each reducible pair through the frame change and back.

    The raw pull-back of a pair may mention reducible pairs again: itself
    (with a scalar coefficient, solved linearly) or a pair buried behind a
    parameter prefix (substituted away; terminates because three parameter
    letters annihilate).  A pair whose ordering is transposed between the
    two frames pulls back to itself exactly; its content lives in the
    pull-back of the reversed word instead, which is solved for the pair.
    The result expresses every pair over irreducible words with
    coefficients still exact in p and q.
    """

    def pull(word):
        return cmap.backward.apply(
            cmap.forward.apply(Expression.from_word(word), fuel), fuel
        )

    pair_set = frozenset(pairs)
    scratch = cmap.h_scratch
    general: dict = {}
    for w in pairs:
        raw = pull(w)
        c = raw.coefficient(w)
        unit = Scalar.one() - c
        if not unit.is_zero():
            if not c.is_zero():
                raw = (raw - Expression.from_word(w, c)).scale(unit.inv())
            general[w] = raw
            continue
        rev = (w[1], w[0])
        raw = pull(rev)
        lam = raw.coefficient(w)
        if lam.is_zero():
            raise ConstructionFailure(
                f"pair {w} maps onto itself and its reverse does not reach it"
            )
        solved = Expression.from_word(rev) - raw + Expression.from_word(w, lam)
        general[w] = scratch.normal_form(solved.scale(lam.inv()), fuel)
    for w in pairs:
        budget = fuel
        while True:
            expr = general[w]
            hit = None
            for word, coeff in expr.terms():
                pos = _family_subword(word, pair_set)
                if pos >= 0:
                    hit = (word, coeff, pos)
                    break
            if hit is None:
                break
            word, coeff, pos = hit
            if word in pair_set:
                raise ConstructionFailure(f"pair {w} re-entered itself while closing")
            budget -= 1
            if budget <= 0:
                raise ConstructionFailure(f"substitution closure for {w} did not settle")
            replacement = (
                Expression.from_word(word[:pos])
                * general[word[pos : pos + 2]]
                * Expression.from_word(word[pos + 2 :])
            )
            expr = expr - Expression.from_word(word, coeff) + replacement.scale(coeff)
            general[w] = scratch.normal_form(expr, fuel)
    out = {}
    for w in pairs:
        expr = general[w]
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
    return _build("h-calculus", H_DECLS, rules + param_swap_rules(H_DECLS))


# expected h-limit block for the coordinate-differential family, used to
# select between the two candidate readings of the (p,q) swap rule
COORD_DIFF_TARGETS = {
    ("x", "dx"): "dx*x + h1*(dx*th - dth*x) + h1*h2*dx*x",
    ("x", "dth"): "dth*x - h1*dth*th - h2*dx*x + h1*h2*dx*th",
    ("th", "dx"): "-dx*th + h1*dth*th - h2*dx*x - h1*h2*dth*x",
    ("th", "dth"): "dth*th - h2*(dx*th + dth*x) - h1*h2*dth*th",
}

COORD_DIFF_PAIRS = tuple(COORD_DIFF_TARGETS)


def choose_variant(fuel: int = DEFAULT_FUEL):
    """Pick the coordinate-differential reading that hits the h-limit block.

    Returns (variant_name, matches, contraction) where matches maps each
    variant to a per-pair boolean dict and contraction is the winner's
    frame change, built on its primed calculus.  Exactly one variant must
    match on all four pairs; anything else is a construction failure.
    """

    ctx = scaffold("targets", H_DECLS)
    targets = {w: parse_expression(t, ctx) for w, t in COORD_DIFF_TARGETS.items()}
    matches = {}
    contractions = {}
    for variant in COORD_DIFF_VARIANTS:
        cmap = contractions[variant] = build_contraction(build_primed_calculus(variant))
        derived = derive_h_relations(cmap, pairs=COORD_DIFF_PAIRS, fuel=fuel)
        matches[variant] = {
            w: derived[w].specialized == targets[w] for w in COORD_DIFF_PAIRS
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

# the group determinant, equal in both of its stated forms once d and a
# are invertible (checked in the tests)
GROUP_DETERMINANT_LEFT = "a*inv(d) - be*inv(d)*ga*inv(d)"
GROUP_DETERMINANT_RIGHT = "inv(d)*a - inv(d)*be*inv(d)*ga"


def build_supergroup() -> Presentation:
    return _build(
        "supergroup",
        SUPERGROUP_DECLS,
        _table_rules(SUPERGROUP_DECLS, SUPERGROUP_TABLE)
        + param_swap_rules(SUPERGROUP_DECLS),
    )


# ------------------------------------------------------- localization

def _cancel_units(expr: Expression, gid: str, ginv: str) -> Expression:
    """Delete adjacent unit pairs; sign-free because both letters are even."""
    out = Expression.zero()
    for word, c in expr.terms():
        stack = []
        for letter in word:
            if stack and (
                (stack[-1] == gid and letter == ginv)
                or (stack[-1] == ginv and letter == gid)
            ):
                stack.pop()
            else:
                stack.append(letter)
        out = out + Expression.from_word(tuple(stack), c)
    return out


def derive_localized_rules(
    pres: Presentation,
    gen_id: str,
    inverse_decl: GeneratorDecl,
    fuel: int = DEFAULT_FUEL,
) -> list[RewriteRule]:
    """Swap rules for an adjoined inverse, by sandwiching the base rules.

    For a generator v below g, multiplying the rule for g*v by the inverse
    on both sides yields an identity whose head term is (ginv, v); solving
    for that head gives the new rule.  For v above the inverse the mirror
    image applies.  Parameters commute with g, hence with its inverse, and
    are emitted directly.
    """

    g = pres.gens.get(gen_id)
    if g is None:
        raise RuleError(f"cannot invert unknown generator {gen_id}")
    if g.parity:
        raise RuleError(f"cannot invert odd generator {gen_id}")
    if inverse_decl.sort_key != g.sort_key + 1:
        raise RuleError(
            f"inverse {inverse_decl.id} must take sort key {g.sort_key + 1}, "
            f"immediately above {gen_id}"
        )
    decls = list(pres.gens.values()) + [inverse_decl]
    scratch = Presentation(
        f"{pres.name}-params", decls, param_swap_rules(decls), require_complete=False
    )
    ginv = inverse_decl.id
    sandwich = Expression.from_gen(ginv)
    rules = []
    for v in sorted(pres.gens.values(), key=lambda dcl: dcl.sort_key):
        if v.id == gen_id:
            continue
        if v.klass is GenClass.PARAMETER:
            rules.append(RewriteRule((ginv, v.id), Expression({(v.id, ginv): 1})))
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
        pulled = scratch.normal_form(sandwich * base.rhs * sandwich, fuel)
        sandwiched = _cancel_units(pulled, gen_id, ginv)
        head = sandwiched.coefficient(lhs)
        if head.is_zero():
            raise IncompleteLocalization(
                f"sandwiched rule for {lhs} has no head term to solve for"
            )
        rest = sandwiched - Expression.from_word(lhs, head)
        rhs = (Expression.from_word(ordered) - rest).scale(head.inv())
        rules.append(RewriteRule(lhs, scratch.normal_form(rhs, fuel)))
    return rules


def localize(pres: Presentation, gen_id: str, inverse_decl: GeneratorDecl,
             name: str | None = None, fuel: int = DEFAULT_FUEL) -> Presentation:
    rules = derive_localized_rules(pres, gen_id, inverse_decl, fuel)
    return adjoin_inverse(pres, gen_id, inverse_decl, rules, name=name)


def build_localized_supergroup(base: Presentation | None = None) -> Presentation:
    sg = base if base is not None else build_supergroup()
    step = localize(
        sg, "d", GeneratorDecl("dinv", 0, GenClass.INVERSE, 13), name="supergroup-dinv"
    )
    return localize(
        step, "a", GeneratorDecl("ainv", 0, GenClass.INVERSE, 15), name="supergroup-loc"
    )


# ------------------------------------------------- covariance tensor

# plane block sits above the group block so normal forms read
# parameters, then group letters, then plane letters
COVARIANCE_DECLS = _PARAMS + (
    GeneratorDecl("ga", 1, GenClass.STANDARD, 10),
    GeneratorDecl("be", 1, GenClass.STANDARD, 11),
    GeneratorDecl("d", 0, GenClass.STANDARD, 12),
    GeneratorDecl("dinv", 0, GenClass.INVERSE, 13),
    GeneratorDecl("a", 0, GenClass.STANDARD, 14),
    GeneratorDecl("ainv", 0, GenClass.INVERSE, 15),
    GeneratorDecl("dth", 0, GenClass.STANDARD, 20),
    GeneratorDecl("dx", 1, GenClass.STANDARD, 21),
    GeneratorDecl("th", 1, GenClass.STANDARD, 22),
    GeneratorDecl("x", 0, GenClass.STANDARD, 23),
    GeneratorDecl("pth", 1, GenClass.STANDARD, 24),
    GeneratorDecl("px", 0, GenClass.STANDARD, 25),
)

_GROUP_IDS = ("ga", "be", "d", "dinv", "a", "ainv")
_PLANE_IDS = ("dth", "dx", "th", "x", "pth", "px")


def build_covariance_tensor(
    localized_supergroup: Presentation, h_calculus: Presentation
) -> Presentation:
    gens = {d.id: d for d in COVARIANCE_DECLS}
    cross = []
    for v in _PLANE_IDS:
        for u in _GROUP_IDS:
            sign = -1 if (gens[v].parity and gens[u].parity) else 1
            cross.append(RewriteRule((v, u), Expression({(u, v): sign})))
    rules = (
        non_param_rules(localized_supergroup)
        + non_param_rules(h_calculus)
        + cross
        + param_swap_rules(COVARIANCE_DECLS)
    )
    return _build("covariance", COVARIANCE_DECLS, rules)


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
            "h1": Expression.from_gen("h1"),
            "h2": Expression.from_gen("h2"),
        },
        name="coaction",
    )


# ---------------------------------------------------------- one-forms

def build_one_forms(h_calculus: Presentation) -> Presentation:
    keep = {d.id for d in FORMS_DECLS}
    rules = [r for r in non_param_rules(h_calculus) if set(r.lhs) <= keep]
    base = _build(
        "one-forms-base", FORMS_DECLS, rules + param_swap_rules(FORMS_DECLS)
    )
    return localize(
        base, "x", GeneratorDecl("xinv", 0, GenClass.INVERSE, 22), name="one-forms"
    )


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
    return _build(
        "oscillator",
        OSCILLATOR_DECLS,
        _table_rules(OSCILLATOR_DECLS, OSCILLATOR_TABLE)
        + param_swap_rules(OSCILLATOR_DECLS),
    )


def build_oscillator_dictionary(oscillator: Presentation,
                                contraction: ContractionMap) -> Morphism:
    """Non-differential h-frame generators as oscillator composites: the
    forward contraction images with the plane letters renamed by LADDER."""
    rename = dict(LADDER, h1="h1", h2="h2")
    images = {
        gid: Expression(
            {tuple(rename[l] for l in w): c for w, c in img.terms()}
        )
        for gid, img in contraction.forward.images.items()
        if gid in rename
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
            "h1": img("h1"),
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
            "h1": E.from_gen("h1"),
            "h2": E.from_gen("h2"),
        },
        swap_pq=True,
        name="oscillator-star",
    )


# --------------------------------------------------------- composites

@dataclass(frozen=True)
class CompositeElements:
    """Named elements built from the generators.

    exterior lives in the full h calculus; number_operator and supercharge
    in its derivative sector; the frame forms in the localized one-forms
    presentation; the hermitian positions and momenta in the
    non-differential sector.
    """

    exterior: Expression
    number_operator: Expression
    supercharge: Expression
    frame_form_x: Expression
    frame_form_th: Expression
    position_even: Expression
    position_odd: Expression
    momentum_even: Expression
    momentum_odd: Expression


def build_composites(h_calculus: Presentation, one_forms: Presentation) -> CompositeElements:
    def hexpr(text):
        return parse_expression(text, h_calculus)

    def fexpr(text):
        return parse_expression(text, one_forms)

    return CompositeElements(
        exterior=hexpr("dx*px + dth*pth"),
        number_operator=hexpr("x*px + th*pth"),
        supercharge=hexpr("x*pth"),
        frame_form_x=fexpr("dx*inv(x)"),
        # d(th*inv(x)) expanded by the graded Leibniz rule; the two
        # expansions dth*inv(x) + th*inv(x)*dx*inv(x) and
        # dth*inv(x) - dx*inv(x)*th*inv(x) coincide after reduction.
        frame_form_th=fexpr("dth*inv(x) + th*inv(x)*dx*inv(x)"),
        position_even=hexpr("x + h1*h2*x + h1*th"),
        position_odd=hexpr("th - h1*h2*th + h2*x"),
        momentum_even=hexpr("i*px + i*h1*h2*px - i*h2*pth"),
        momentum_odd=hexpr("pth - h1*h2*pth + h1*px"),
    )


def expression_parity(pres: Presentation, expr: Expression) -> int | None:
    """0 or 1 for homogeneous expressions, None for zero or mixed ones."""
    parities = {
        sum(pres.gens[l].parity for l in word) % 2 for word in expr.words()
    }
    return parities.pop() if len(parities) == 1 else None


# -------------------------------------------------------------- catalog

@dataclass(frozen=True)
class AlgebraCatalog:
    primed_calculus: Presentation
    h_calculus: Presentation
    supergroup: Presentation
    localized_supergroup: Presentation
    covariance_tensor: Presentation
    oscillator: Presentation
    one_forms: Presentation
    contraction: ContractionMap
    derived: dict
    coaction: Morphism
    plane_dagger: Involution
    oscillator_star: Involution
    oscillator_dictionary: Morphism
    composites: CompositeElements
    coord_diff_variant: str
    variant_matches: dict


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
    one_forms = build_one_forms(h_calc)
    return AlgebraCatalog(
        primed_calculus=pq,
        h_calculus=h_calc,
        supergroup=supergroup,
        localized_supergroup=loc_supergroup,
        covariance_tensor=covariance,
        oscillator=oscillator,
        one_forms=one_forms,
        contraction=contraction,
        derived=derived,
        coaction=build_coaction(h_calc, covariance),
        plane_dagger=build_plane_dagger(h_calc),
        oscillator_star=build_oscillator_star(oscillator),
        oscillator_dictionary=build_oscillator_dictionary(oscillator, contraction),
        composites=build_composites(h_calc, one_forms),
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
