"""Two oracles that the engine's normal forms are checked against: a plain
reference reducer, with the leftmost or a random strategy, and reduction at
an exact point (p, q); the parity of an expression; and the rows that the
verify report must give as Discrepancies."""

from fractions import Fraction
from functools import lru_cache

from superplane.algebra import Expression, Presentation, RewriteRule
from superplane.parsing import parse_expression
from superplane.scalars import (DivisionByZero, IndeterminateAtPoint,
                                PoleAtPoint, Scalar)

# no coefficient of a catalog rule has a pole at this point
POINT = (Fraction(3, 7), Fraction(5, 11))

# what evaluating at POINT, or dividing there, raises where a value is missing
NO_VALUE = (PoleAtPoint, IndeterminateAtPoint, DivisionByZero)

# every printed row that does not reduce to zero against the independently
# derived rules, by suite: the 14 Discrepancies, each with its residual in
# the suite report; anything else must pass outright
EXPECTED_DISCREPANCIES = {
    "contraction": {
        "sigma-deriv-x-x",
        "sigma-deriv-th-th",
        "sigma-deriv-diff-xx",
        "sigma-deriv-diff-xth",
        "sigma-deriv-diff-thx",
        "sigma-deriv-diff-thth",
        "h-deriv-diff-thth",
    },
    "differential": set(),
    "covariance": set(),
    "forms": {"one-form-th-u", "operator-shift-th"},
    "phase-space": {"phase-em-ep", "clifford-em-ep", "clifford-om-op"},
    "oscillator": {"osc-deriv-x-x", "osc-deriv-th-th"},
    "appendix": set(),
}


def reference_nf(pres, expr, rng=None, max_steps=200_000):
    """The normal form of expr under pres.rules as declared, parameter swaps
    and Koszul cross rules included, with no memo, sort, blocks, cursor or
    int kernel.  Each word is rewritten at its leftmost redex, or, given rng
    (a random.Random), at a redex drawn from rng.  For confluent,
    terminating rules every strategy gives the engine's normal form
    (Bergman's diamond lemma)."""
    rules = {r.lhs: r.rhs.terms() for r in pres.rules}
    work, out, steps = dict(expr.terms()), {}, 0
    while work:
        # one round rewrites every word once; equal words met in a round merge
        now, work = work, {}
        for word, c in now.items():
            found = [pos for pos in range(len(word) - 1)
                     if word[pos:pos + 2] in rules]
            if not found:
                into, terms = out, [(word, c)]
            else:
                steps += 1
                if steps > max_steps:
                    raise AssertionError(f"{pres.name}: no normal form in "
                                         f"{max_steps} steps")
                pos = found[0] if rng is None else rng.choice(found)
                into = work
                terms = rewrite(word, pos, rules[word[pos:pos + 2]], c)
            for w, v in terms:
                v = into.get(w, Scalar(0)) + v
                if v:
                    into[w] = v
                else:
                    into.pop(w, None)
    return Expression(out)


def rewrite(word, pos, rhs, c):
    """The terms of c*word with its two letters at pos replaced by rhs, the
    (word, coefficient) terms of a rule's right-hand side."""
    return [(word[:pos] + m + word[pos + 2:], c * cc) for m, cc in rhs]


def at_point(expr):
    """expr with each coefficient evaluated by Scalar.eval at POINT; raises
    PoleAtPoint or IndeterminateAtPoint where one has no value there."""
    return Expression({w: c.eval(*POINT) for w, c in expr.terms()})


@lru_cache(maxsize=None)
def point_copy(pres):
    """pres with the same generators and rules, each rule coefficient
    evaluated at POINT.  A normal form is a polynomial in the rule and input
    coefficients, so where none has a pole, reduction commutes with
    evaluation: at_point(nf(e)) is the point copy's normal form of
    at_point(e), exactly, whatever the gcd and the canonical form do."""
    rules = [RewriteRule(r.lhs, at_point(r.rhs)) for r in pres.rules]
    return Presentation(pres.name + "@point", pres.gens.values(), rules,
                        pres.require_complete)


def point_nf(pres, text):
    """The normal form in point_copy(pres) of text with p and q at POINT,
    each product reduced as it is formed, as reduce forms it; None when the
    text has no value at POINT."""
    copy = point_copy(pres)
    mul = copy.multiplier()
    try:
        return mul(at_point(parse_expression(
            text, copy, lambda a, b: mul(at_point(a), at_point(b)))))
    except NO_VALUE:
        return None


def expression_parity(pres, expr):
    """0 or 1 for homogeneous expressions, None for zero or mixed ones."""
    parities = {
        sum(pres.gens[l].parity for l in word) % 2 for word in expr.words()
    }
    return parities.pop() if len(parities) == 1 else None
