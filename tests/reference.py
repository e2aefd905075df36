"""Two oracles that the engine's normal forms are checked against: a plain
reference reducer, and reduction at an exact point (p, q)."""

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


def reference_nf(pres, expr, max_steps=200_000):
    """The normal form of expr under pres.rules as declared, parameter swaps
    and Koszul cross rules included, rewriting each word at its leftmost
    redex, with no memo, sort, blocks, cursor or int kernel.  For confluent,
    terminating rules every strategy gives the engine's normal form
    (Bergman's diamond lemma)."""
    rules = {r.lhs: r.rhs.terms() for r in pres.rules}
    work, out, steps = dict(expr._t), {}, 0
    while work:
        # one round rewrites every word once; equal words met in a round merge
        now, work = work, {}
        for word, c in now.items():
            redex = next(((pos, lhs) for pos in range(len(word))
                          for lhs in (word[pos:pos + 2], word[pos:pos + 1])
                          if lhs in rules), None)
            if redex is None:
                into, terms = out, [(word, c)]
            else:
                steps += 1
                if steps > max_steps:
                    raise AssertionError(f"{pres.name}: no normal form in "
                                         f"{max_steps} steps")
                pos, lhs = redex
                into = work
                terms = [(word[:pos] + m + word[pos + len(lhs):], c * cc)
                         for m, cc in rules[lhs]]
            for w, v in terms:
                v = into.get(w, Scalar.zero()) + v
                if v:
                    into[w] = v
                else:
                    into.pop(w, None)
    return Expression(out)


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
