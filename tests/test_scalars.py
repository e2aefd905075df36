"""Tests for exact scalars: rational functions in p, q over Q(i).

Derived expected values are recomputed here by an independent route
(cross-multiplication over raw polynomials, or plain Fraction arithmetic at
sampled rational points) before the canonical literals are asserted.
"""

import hashlib
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from superplane.scalars import (
    MEMO_SIZE,
    MEMO_TERMS,
    DivisionByZero,
    IndeterminateAtPoint,
    Poly,
    PoleAtPoint,
    Scalar,
    _BITS,
    _images,
    _interned,
    _modular_gcd,
    _prime,
    _product,
    _sum,
    as_scalar,
    poly_gcd,
    power,
)

F = Fraction


def G(re, im=0):
    """The constant Scalar re + im*i."""
    return Scalar(F(re)) + Scalar(F(im)) * Scalar.i()


def re_im(c):
    """The real and imaginary parts of the constant Scalar c, as Fractions."""
    a, b, d = c.const
    return F(a, d), F(b, d)


def C(c):
    """The constant Poly c, for a number or a constant Scalar c."""
    return Poly({(0, 0): c})


P = Poly({(1, 0): 1})
Q = Poly({(0, 1): 1})
ONE = Poly({(0, 0): 1})
ZERO = Poly({})

fractions_ = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
gaussians = st.builds(G, fractions_, fractions_)
monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
polys = st.builds(Poly, st.dictionaries(monomials, gaussians, max_size=3))
nonzero_polys = polys.filter(lambda f: not f.is_zero())
# scalar strategies stay at bidegree <= 1 per part so that the gcd work in
# products of several random scalars remains small
small_monomials = st.tuples(st.integers(0, 1), st.integers(0, 1))
small_polys = st.builds(Poly, st.dictionaries(small_monomials, gaussians, max_size=3))
small_nonzero = small_polys.filter(lambda f: not f.is_zero())
scalars = st.builds(Scalar, small_polys, small_nonzero)
# constants, among them the ones the engine multiplies by most, next to
# general scalars, so that every operation meets each mix of operand kinds
constants = st.one_of(
    st.sampled_from([Scalar(0), Scalar.one(), Scalar(-1), Scalar.i()]),
    st.builds(Scalar, gaussians))
mixed_scalars = st.one_of(constants, scalars)
rational_points = st.tuples(fractions_, fractions_)


def to_sympy(sympy, f):
    """f as a sympy Poly in p, q over QQ_I."""
    p, q = sympy.symbols("p q")
    expr = 0
    for (i, j), c in f.items():
        a, b, d = c.const
        k = sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)
        expr += k * p**i * q**j
    return sympy.Poly(expr, p, q, domain=sympy.QQ_I)


def assert_lowest(f):
    """f is stored in lowest terms: d > 0, no prime divides d and every a
    and b, and no pair is (0, 0)."""
    assert f._d > 0 and (0, 0) not in f._c.values()
    assert gcd(f._d, *chain.from_iterable(f._c.values())) == 1


class TestPoly:
    def test_product_expansion(self):
        assert (P + -ONE) * (Q + -ONE) == Poly(
            {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
        )
        # i*(-i) = 1, and (1 + i)/2 * (1 - i)/3 = 1/3
        assert (P + C(G(0, 1))) * (P + C(G(0, -1))) == P * P + ONE
        assert C(G(F(1, 2), F(1, 2))) * C(G(F(1, 3), F(-1, 3))) == C(F(1, 3))

    @given(polys, polys, nonzero_polys, gaussians.filter(lambda c: c.const[1]))
    def test_divexact_by_a_complex_divisor(self, a, b, d, c):
        # oracle: a product divides back exactly, and a quotient of any
        # other polynomial, when one is returned, multiplies back to it; c
        # makes d non-monic with a complex leading coefficient
        d = d * C(c)
        assert (a * d).divexact(d) == a
        f = a * d + b
        try:
            quot = f.divexact(d)
        except ValueError:
            return
        assert quot * d == f

    @given(polys, polys, nonzero_polys, gaussians.filter(bool), st.booleans())
    def test_every_operation_is_in_lowest_terms(self, f, g, d, c, swap):
        # equal polynomials then have equal fields
        for x in (f, f + g, -f, f * g, f._scale(*c.const),
                  f.monic(), f.conj(swap), (f * d).divexact(d), poly_gcd(f, g)):
            assert_lowest(x)

    def test_eval(self):
        f = P * P * Q + C(-3)
        assert f.eval(F(2), F(5)) == G(17)
        assert ZERO.eval(F(1), F(1)) == G(0)

    def test_coefficients_are_constant_scalars(self):
        # items, leading and eval hand out constant Scalars, and the
        # constructor takes them beside numbers, but nothing else
        c = G(F(1, 2), -3)
        f = C(c) * P * Q + C(F(2, 3)) * Q + -ONE
        got = f.items()
        assert [(m, x.const) for m, x in got] == [
            ((1, 1), (1, -6, 2)), ((0, 1), (2, 0, 3)), ((0, 0), (-1, 0, 1))]
        assert got == [((1, 1), c), ((0, 1), F(2, 3)), ((0, 0), -1)]
        assert f.leading() == got[0]
        # (1/2 - 3i)*2*3 + 2/3*3 - 1, and that over p = 2
        values = [f.eval(2, 3), Scalar(f, P).eval(2, 3)]
        assert [v.const for v in values] == [(4, -18, 1), (2, -9, 1)]
        for x in [*(x for _, x in got), f.leading()[1], *values]:
            assert type(x) is Scalar
        assert Poly({(0, 0): c}) == C(F(1, 2)) + C(-3) * C(Scalar.i())
        for bad in (Scalar.p(), 0.5):
            with pytest.raises(TypeError):
                Poly({(0, 0): bad})

    @given(polys, polys)
    def test_commutative_ring(self, f, g):
        assert f * g == g * f
        assert f + g == g + f
        assert f + -f == ZERO
        assert f * C(G(0)) == ZERO

    def test_equality_is_between_polys(self):
        # a number is no Poly, so it equals none: equal values must hash
        # equal, and hash(Poly.one()) is not hash(1)
        assert Poly.one() != 1 and ZERO != 0 and Poly.one() != G(1)
        assert P * Q + ONE == ONE + Q * P
        assert hash(P * Q + ONE) == hash(ONE + Q * P)

    @pytest.mark.parametrize("number", [2, F(1, 2)], ids=["int", "fraction"])
    def test_arithmetic_takes_no_number(self, number):
        # a number or a constant Scalar enters Q(i)[p, q] through the
        # constructor only
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(P, number)
            with pytest.raises(TypeError):
                op(number, P)
        with pytest.raises(TypeError):
            P.divexact(number)
        with pytest.raises(TypeError):
            G(0, 1) * P
        assert Poly({(0, 0): 5}) != 5

    @pytest.mark.parametrize("other", ["1", 0.5])
    def test_foreign_operands(self, other):
        # each operator hands the operand back to Python (NotImplemented),
        # which raises TypeError; divexact and eval raise it themselves
        for op in (operator.add, operator.mul):
            with pytest.raises(TypeError):
                op(P, other)
        for call in (P.divexact, lambda x: P.eval(x, 1)):
            with pytest.raises(TypeError):
                call(other)
        with pytest.raises(TypeError):
            Poly({(0, 0): other})

    def test_bad_exponents_and_divisors(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): 1})
        with pytest.raises(ValueError):
            ZERO.leading()
        with pytest.raises(DivisionByZero):
            P.divexact(ZERO)

    def test_divexact(self):
        f = (P + -ONE) * (Q + C(2))
        assert f.divexact(P + -ONE) == Q + C(2)
        assert ZERO.divexact(P + -ONE) == ZERO
        with pytest.raises(ValueError):
            (P + ONE).divexact(Q)

    def test_gcd_literal(self):
        # oracle: p^2 - 1 = (p - 1)(p + 1), so the common factor is p - 1
        g = poly_gcd(C(2) * (P * P + -ONE), C(4) * (P + -ONE))
        assert g == P + -ONE
        assert (C(2) * (P * P + -ONE)).divexact(g) == C(2) * (P + ONE)
        assert poly_gcd(P + -ONE, Q + -ONE) == ONE

    def test_gcd_with_a_constant(self):
        # a nonzero constant is a unit, whatever the other operand
        f = P * P + -Q
        for c in (3, F(-1, 2), G(0, 2), G(1, -1)):
            assert poly_gcd(Poly({(0, 0): c}), f) == Poly.one()
            assert poly_gcd(f, Poly({(0, 0): c})) == Poly.one()
            assert poly_gcd(Poly({(0, 0): c}), Poly({(0, 0): 5})) == Poly.one()
        assert poly_gcd(ZERO, Poly({(0, 0): 3})) == Poly.one()
        assert poly_gcd(ZERO, ZERO) == ZERO

    @given(polys, polys, nonzero_polys)
    def test_gcd_divides_and_reduces_to_coprime(self, a, b, m):
        assume(not (a * m).is_zero() or not (b * m).is_zero())
        d = poly_gcd(a * m, b * m)
        assert d.leading()[1] == 1
        d.divexact(m.monic())  # the forced common factor divides the gcd
        qa = (a * m).divexact(d)
        qb = (b * m).divexact(d)
        assert poly_gcd(qa, qb) == ONE


    def test_gcd_matches_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")

        @given(polys, polys, nonzero_polys)
        def agrees(a, b, m):
            assume(not a.is_zero() or not b.is_zero())
            f, g = a * m, b * m
            ours = to_sympy(sympy, poly_gcd(f, g)).monic()
            assert ours == to_sympy(sympy, f).gcd(to_sympy(sympy, g)).monic()

        agrees()

    @given(polys, polys, nonzero_polys)
    def test_gcd_without_and_with_a_planted_factor(self, a, b, m):
        for f, g in ((a, b), (a * m, b * m)):
            assume(not f.is_zero() or not g.is_zero())
            d = poly_gcd(f, g)
            assert d.leading()[1] == 1
            assert poly_gcd(f.divexact(d), g.divexact(d)) == ONE

    def test_gcd_of_typical_pairs(self):
        for f, g in ((P * Q + -ONE, P + Q), (P + -Q, (P + -ONE) * (Q + ONE)),
                     (P * P + -Q, C(G(0, 1)) * P + ONE)):
            assert poly_gcd(f, g) == ONE and poly_gcd(g, f) == ONE
        assert poly_gcd((P + Q) * (P + -ONE), (P + Q) * Q) == P + Q
        # a denominator that is a large prime
        assert poly_gcd(P + Poly({(0, 0): F(1, 1000000009)}), P + -ONE) == ONE
        # a leading coefficient in p that vanishes at a point, and images
        # at q = 3 that share the root p = 0
        assert poly_gcd((Q + C(-3)) * P + ONE, P) == ONE
        assert poly_gcd(P + Q + C(-3), P * (Q + ONE)) == ONE
        # images at every q = 1 share the root p = 1, for every prime
        assert poly_gcd(P * Q + -ONE, P + -ONE) == ONE

    def test_primes_are_proved_and_have_a_root_of_minus_one(self):
        sympy = pytest.importorskip("sympy")
        for bits in (_BITS, 2 * _BITS, 4 * _BITS):
            l, r = _prime(bits)
            assert l.bit_length() == bits and sympy.isprime(l)
            assert l % 4 == 1 and r * r % l == l - 1

    def test_gcd_retries_where_the_first_prime_fails(self):
        l, r = _prime(_BITS)
        # the first prime divides a leading coefficient, so every image
        # loses its degree in p
        f, g = (C(l) * P + ONE) * (P + Q), (P + Q) * (P + -ONE)
        assert _modular_gcd(f, g, _BITS) is None
        assert poly_gcd(f, g) == P + Q
        # so does r + i under the second map, i -> -r
        f = (C(G(r, 1)) * P + ONE) * (P + Q)
        assert _modular_gcd(f, g, _BITS) is None
        assert poly_gcd(f, g) == P + Q
        # a coefficient outside the symmetric range of the first prime: the
        # lift is wrong and fails the trial division
        h = P + C(2 ** 40)
        f, g = h * (P + -Q), h * (P + Q)
        assert _modular_gcd(f, g, _BITS) is None
        assert poly_gcd(f, g) == h
        # at the first point, q = _BITS**2 = t, p - q + t - 1 is p - 1, so
        # the images there have a gcd of too high a degree in p
        t = _BITS ** 2
        f = (P + Q) * (P + -ONE) * (Q + C(2))
        g = (P + Q) * (P + -Q + C(t - 1)) * (Q + C(3))
        first = next(_images(f, g, 0, l, r, _BITS))
        assert first[0] == t and len(first[2]) == 3
        assert _modular_gcd(f, g, _BITS) is None
        assert poly_gcd(f, g) == P + Q
        # there, without the factors in q, the image gcds have the degrees
        # of f, which does not divide g
        f, g = (P + Q) * (P + -ONE), (P + Q) * (P + -Q + C(t - 1))
        assert _modular_gcd(f, g, _BITS) is None
        assert poly_gcd(f, g) == P + Q

    def test_gcd_with_an_imaginary_coefficient(self):
        h = P + C(G(0, 1)) * Q
        assert poly_gcd(h * (P + -ONE), h * (Q + C(2))) == h
        h = P * Q + C(G(3, -2))
        assert poly_gcd(h * (P + Q) * (P + Q), h * (P + C(G(0, -1)))) == h

    @given(polys, polys, nonzero_polys, st.integers(1, 6), st.integers(1, 6))
    def test_large_degree_gcd_leaves_coprime_cofactors(self, a, b, m, j, k):
        assume(not a.is_zero() and not b.is_zero())
        f = power(a, j, ONE) * power(m, k, ONE)
        g = power(b, k, ONE) * power(m, j, ONE)
        d = poly_gcd(f, g)
        assert d.leading()[1] == 1
        d.divexact(power(m, min(j, k), ONE).monic())
        assert poly_gcd(f.divexact(d), g.divexact(d)) == ONE

    def test_gcd_coefficients_stay_small(self):
        # a pseudo-remainder sequence that keeps the numeric content makes
        # its rationals grow exponentially with the degree: at degree 30
        # this did not finish in minutes
        assert poly_gcd(power(P + Q, 30, ONE), power(P + -Q, 30, ONE)) == ONE

    def test_high_degree_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        m = power(P * Q + -ONE, 2, ONE)
        f, g = power(P + Q, 30, ONE) * m, power(P + -Q, 30, ONE) * m
        got = poly_gcd(f, g)
        assert got == m
        # the coefficients are rational, and a gcd does not change under a
        # field extension; sympy's gcd over QQ_I takes minutes here
        f, g = (to_sympy(sympy, x).set_domain(sympy.QQ) for x in (f, g))
        assert to_sympy(sympy, got).set_domain(sympy.QQ) == f.gcd(g).monic()


def assert_canonical(s):
    """s is in lowest terms with a monic den, and const is set exactly
    when p and q are absent."""
    if s.is_zero():
        assert s.num == ZERO and s.den == ONE
    else:
        assert s.den.leading()[1] == 1
        assert poly_gcd(s.num, s.den) == ONE
    constant = s.den == ONE and (
        s.num.is_zero() or s.num.leading()[0] == (0, 0))
    assert (s.const is not None) == constant
    if constant:
        a, b, d = s.const
        assert d > 0 and gcd(a, b, d) == 1
        assert (s.num._c.get((0, 0), (0, 0)), s.num._d) == ((a, b), d)


@pytest.mark.parametrize("name", ["pq-calculus", "h-calculus", "supergroup",
                                  "covariance", "one-forms", "oscillator"])
def test_normal_forms_hold_canonical_scalars(catalog, name):
    # presentations with integer rules reduce with ints inside; what they
    # return holds Scalars, canonical, as every other Expression does
    from superplane.algebra import Expression, GenClass
    from superplane.presentations import catalog_presentations

    pres = catalog_presentations(catalog)[name]
    letters = sorted(g.id for g in pres.gens.values()
                     if g.klass is not GenClass.INVERSE)
    coeffs = [1, -2, F(1, 3), G(0, 1), Scalar(P), Scalar(ONE, Q + -ONE)]
    rng = random.Random(name)
    for _ in range(20):
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 4))):
                 rng.choice(coeffs) for _ in range(3)}
        got = pres.normal_form(Expression(terms))
        for word, c in got.terms():
            assert type(c) is Scalar
            assert_canonical(c)


class TestScalar:
    @pytest.mark.parametrize("x", [0, 1, -7, F(-3, 4), G(F(1, 2), -2)])
    def test_coercion_matches_constructor(self, x):
        # numbers skip the constructor's gcd; the result must not differ,
        # and a Scalar hashes as the number it equals
        s = as_scalar(x)
        assert s == Scalar(x) and hash(s) == hash(Scalar(x))
        assert s == x and hash(s) == hash(x) and {x: x}[s] == x
        assert (s.num, s.den, s.const) == (Scalar(x).num, Scalar(x).den,
                                          Scalar(x).const)
        assert as_scalar(s) is s
        assert as_scalar("1") is None and as_scalar(1.0) is None

    def test_partial_fraction_sum(self):
        # oracle 1, computed first: cross-multiplication on raw polynomials
        raw_num = ONE * (Q + -ONE) + ONE * (P + -ONE)
        raw_den = (P + -ONE) * (Q + -ONE)
        s = Scalar(ONE, P + -ONE) + Scalar(ONE, Q + -ONE)
        assert s.num * raw_den == raw_num * s.den
        # oracle 2: plain Fraction arithmetic at a sample point
        assert s.eval(F(3), F(5, 2)) == G(F(1, 2) + F(2, 3))
        # frozen canonical form
        assert s.num == Poly({(1, 0): 1, (0, 1): 1, (0, 0): -2})
        assert s.den == Poly({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
        assert str(s) == "(p + q - 2)/(p*q - p - q + 1)"

    def test_no_spurious_cancellation(self):
        num = P * Q + -ONE
        den = (P + -ONE) * (Q + -ONE)
        assert poly_gcd(num, den) == ONE  # the parts share no factor
        r = Scalar(num, den)
        assert r.num == num and r.den == den
        assert r.eval(F(2), F(3)) == G(F(5, 2))

    def test_cancellation(self):
        s = Scalar(P * P + -ONE, P + -ONE)
        assert s == Scalar(P + ONE)
        assert s.den == ONE
        # the gcd's cofactors go each to its own part, in the constructor
        # and in a product that cancels across
        h = P + Q
        s = Scalar(h * (P + -ONE), h * (Q + ONE))
        assert (s.num, s.den) == (P + -ONE, Q + ONE)
        d = Q + C(2)
        s = Scalar(h * (P + -ONE), Q + ONE) * Scalar(Q + -ONE, h * d)
        assert (s.num, s.den) == ((P + -ONE) * (Q + -ONE), (Q + ONE) * d)

    def test_monic_denominator(self):
        s = Scalar(ONE, C(2) * P + C(-2))
        assert s.den == P + -ONE
        assert s.num == Poly({(0, 0): F(1, 2)})
        # 1/(i*(q - 1)) = -i/(q - 1)
        t = Scalar(ONE, Poly({(0, 1): G(0, 1), (0, 0): G(0, -1)}))
        assert t.den == Q + -ONE
        assert t.num == Poly({(0, 0): G(0, -1)})

    def test_pole_and_indeterminate(self):
        with pytest.raises(PoleAtPoint):
            Scalar(ONE, P + -ONE).eval(F(1), F(7))
        # reduced fractions can still hit 0/0 at a point
        with pytest.raises(IndeterminateAtPoint):
            Scalar(P + -ONE, Q + -ONE).eval(F(1), F(1))
        with pytest.raises(IndeterminateAtPoint):
            Scalar(P * Q + -ONE, (P + -ONE) * (Q + -ONE)).eval(F(1), F(1))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Scalar(ONE, ZERO)
        with pytest.raises(DivisionByZero):
            Scalar.one() / Scalar(0)
        with pytest.raises(DivisionByZero):
            Scalar(0).inv()

    @pytest.mark.parametrize("other", ["1", 0.5])
    def test_foreign_operands(self, other):
        # as for Poly, and the parts of a Scalar are Polys or numbers
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(Scalar.p(), other)
            with pytest.raises(TypeError):
                op(other, Scalar.p())
        assert Scalar.one() != other
        with pytest.raises(TypeError):
            Scalar(other)

    def test_reflected_operators(self):
        # a number on the left of - or / is taken into the field
        assert 2 - Scalar.p() == Scalar(C(2) + -P)
        assert 2 / Scalar.p() == Scalar(C(2), P)
        assert F(1, 2) - Scalar.q() == Scalar(C(F(1, 2)) + -Q)

    def test_powers_and_factories(self):
        assert Scalar.p() * Scalar.q() - Scalar.one() == Scalar(P * Q + -ONE)
        assert power(Scalar.i(), 2, Scalar.one()) == Scalar(-1)
        assert Scalar(P + -ONE).inv() == Scalar(ONE, P + -ONE)
        assert power(Scalar(P + -ONE), 0, Scalar.one()) == Scalar.one()

    @given(scalars, scalars, scalars)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar(0)
        if not b.is_zero():
            assert (a / b) * b == a

    @given(scalars, scalars)
    def test_equality_is_cross_multiplication(self, a, b):
        assert (a == b) == (a.num * b.den == b.num * a.den)

    @given(polys, nonzero_polys, nonzero_polys)
    def test_scale_invariance(self, n, d, m):
        assert Scalar(n * m, d * m) == Scalar(n, d)

    @given(scalars)
    def test_canonical_invariants(self, s):
        if s.is_zero():
            assert s.num == ZERO and s.den == ONE
        else:
            assert s.den.leading()[1] == 1
            assert poly_gcd(s.num, s.den) == ONE

    @given(mixed_scalars, mixed_scalars, st.booleans())
    def test_every_operation_is_canonical(self, a, b, swap):
        # oracle: the constructor, which cancels by a gcd of the whole
        # cross-multiplied fraction
        cases = [
            (a * b, Scalar(a.num * b.num, a.den * b.den)),
            (a + b, Scalar(a.num * b.den + b.num * a.den, a.den * b.den)),
            (a - b, Scalar(a.num * b.den + -(b.num * a.den), a.den * b.den)),
            (a.conj(swap), Scalar(a.num.conj(swap), a.den.conj(swap))),
        ]
        if not a.is_zero():
            cases.append((a.inv(), Scalar(a.den, a.num)))
        if not b.is_zero():
            cases.append((a / b, Scalar(a.num * b.den, a.den * b.num)))
        for got, want in cases:
            assert_canonical(got)
            assert (got.num, got.den) == (want.num, want.den)
            assert hash(got) == hash(want)

    @given(mixed_scalars, mixed_scalars)
    def test_memo_gives_cold_results(self, a, b):
        ops = [operator.add, operator.sub, operator.mul]
        if not b.is_zero():
            ops.append(operator.truediv)
        # the memos hold whatever earlier examples and tests left in them
        warm = [op(a, b) for op in ops]
        _sum.cache_clear()
        _product.cache_clear()
        cold = [op(a, b) for op in ops]
        hits = _sum.cache_info().hits + _product.cache_info().hits
        again = [op(a, b) for op in ops]
        if a.const is None or b.const is None:
            # a sum that is not of two constants is always memoized
            assert _sum.cache_info().hits + _product.cache_info().hits > hits
        for w, c, g in zip(warm, cold, again):
            assert_canonical(c)
            for x in (w, g):
                assert (x.num, x.den, x.const) == (c.num, c.den, c.const)
                assert x == c and hash(x) == hash(c)

    def test_memo_bound(self):
        assert _sum.cache_info().maxsize == MEMO_SIZE
        assert _product.cache_info().maxsize == MEMO_SIZE
        assert _interned.cache_info().maxsize == MEMO_SIZE
        for k in range(1, 2 * MEMO_SIZE):
            as_scalar(F(1, k))
        assert _interned.cache_info().currsize <= MEMO_SIZE

    def test_memo_takes_only_small_operands(self):
        # a sum or product whose operands hold more than MEMO_TERMS terms
        # together is computed and not kept, so that the parse of a long sum
        # leaves nothing in the memos; smaller ones are kept
        big = Scalar(power(P + Q + ONE, 8, ONE))
        small, other = Scalar(P, Q + ONE), Scalar(Q, P + ONE)
        assert len(big.num) + len(big.den) + len(small.num) + len(small.den) > MEMO_TERMS
        _sum.cache_clear()
        _product.cache_clear()
        assert big + small == Scalar(big.num * (Q + ONE) + P, Q + ONE)
        assert big * small == Scalar(big.num * P, Q + ONE)
        assert _sum.cache_info().currsize == _product.cache_info().currsize == 0
        assert small + other == Scalar(P * (P + ONE) + Q * (Q + ONE),
                                       (Q + ONE) * (P + ONE))
        assert small * other == Scalar(P * Q, (Q + ONE) * (P + ONE))
        assert _sum.cache_info().currsize == _product.cache_info().currsize == 1

    def test_swapped_operands_hit_the_memo(self):
        a, b = Scalar(P, Q + -ONE), Scalar(Q + ONE, P + ONE)
        _sum.cache_clear()
        _product.cache_clear()
        assert a + b == b + a and a * b == b * a
        for memo in (_sum, _product):
            info = memo.cache_info()
            assert (info.hits, info.misses) == (1, 1)

    def test_operand_order_ignores_hash_seed(self):
        # the memos order operands by hash; the hashes must not depend on
        # PYTHONHASHSEED, or the memo contents would differ between runs
        code = ("from superplane.scalars import Poly, Scalar; "
                "P, Q = Poly({(1, 0): 1}), Poly({(0, 1): 1}); "
                "C = lambda c: Poly({(0, 0): c}); "
                "print([hash(s) for s in (Scalar(P, Q + C(1)), Scalar(Q, P * P), "
                "Scalar(P * Q + C(-3), 1), Scalar(2) / Scalar(7))])")
        outs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_constants_interned_by_value(self):
        routes = [as_scalar(6), Scalar(2) * Scalar(3), Scalar(Poly({(0, 0): 6})),
                  -Scalar(-6), Scalar(3) + Scalar(3), Scalar(12) / Scalar(2),
                  Scalar(6).conj()]
        for x in routes:
            assert x.const == (6, 0, 1)
            for y in routes:
                assert x == y and hash(x) == hash(y)
        # arithmetic on constants returns the one interned object ...
        assert Scalar(2) * Scalar(3) is as_scalar(6)
        assert -Scalar(-6) is as_scalar(6)
        # ... but equality never depends on identity: the constructor
        # builds its own object, and so does a cleared table
        built = Scalar(Poly({(0, 0): 6}))
        assert built is not as_scalar(6) and built == as_scalar(6)
        old = as_scalar(6)
        _interned.cache_clear()
        new = as_scalar(6)
        assert new is not old and new == old and hash(new) == hash(old)
        assert {old: 1}[new] == 1

    def test_printing_takes_no_interned_constant(self):
        # str() writes each term from its reduced triple and items() builds
        # its constants apart, so the table stays with arithmetic; the texts
        # are those written when printing went through the table
        p, q, i = Scalar.p(), Scalar.q(), Scalar.i()
        big = power(p + q + 1, 20, Scalar.one()).num
        small = power(p / 2 + q * i / 3 + Fraction(2, 7), 3, Scalar.one()).num
        _interned.cache_clear()
        text = str(big)
        assert _interned.cache_info().currsize == 0
        assert len(big) == 231 and text.startswith("p^20 + 20*p^19*q + ")
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "9c6959490d39b8ec"
        assert str(small) == (
            "1/8*p^3 + 1/4*i*p^2*q - 1/6*p*q^2 - 1/27*i*q^3 + 3/14*p^2"
            " + 2/7*i*p*q - 2/21*q^2 + 6/49*p + 4/49*i*q + 8/343")
        got = small.items()
        assert _interned.cache_info().currsize == 0
        assert [(m, c.const) for m, c in got[:3]] == [
            ((3, 0), (1, 0, 8)), ((2, 1), (0, 1, 4)), ((1, 2), (-1, 0, 6))]
        assert got[0][1] == Scalar(Fraction(1, 8)) and got[1][1] == i / 4

    def test_equal_denominator_sum_matches_sympy(self):
        sympy = pytest.importorskip("sympy")

        @given(small_nonzero, small_nonzero, small_nonzero, small_nonzero,
               small_nonzero)
        def agrees(u, w, d, m, e):
            # over the shared den d*m, the numerators u*m + w and e*m - w
            # sum to (u + e)*m, which cancels against the den
            a, b = Scalar(u * m + w, d * m), Scalar(e * m + -w, d * m)
            assume(a.den == b.den and a.const is None)
            s = a + b
            num, den = to_sympy(sympy, s.num), to_sympy(sympy, s.den)
            want_num = to_sympy(sympy, (u + e) * m)
            want_den = to_sympy(sympy, d * m)
            assert (num * want_den - want_num * den).is_zero
            assert s.num.is_zero() or num.gcd(den).is_ground
            assert s.den.leading()[1] == 1

        agrees()

    def test_cross_cancellation_matches_sympy(self):
        sympy = pytest.importorskip("sympy")

        @given(small_nonzero, small_nonzero, small_nonzero, small_nonzero,
               small_nonzero)
        def agrees(n1, d1, n2, d2, m):
            # m planted in n1 and d2 leaves the product a factor to cancel
            # across the two operands
            a, b = Scalar(n1 * m, d1), Scalar(n2, d2 * m)
            assume(a.const is None and b.const is None)
            assume(poly_gcd(a.num, b.den) != ONE)
            s = a * b
            num, den = to_sympy(sympy, s.num), to_sympy(sympy, s.den)
            want_num = to_sympy(sympy, n1 * m * n2)
            want_den = to_sympy(sympy, d1 * d2 * m)
            assert (num * want_den - want_num * den).is_zero
            assert num.gcd(den).is_ground
            assert s.den.leading()[1] == 1

        agrees()

    def test_canonical_form_matches_sympy(self):
        sympy = pytest.importorskip("sympy")

        @given(polys, nonzero_polys, small_nonzero)
        def agrees(n, d, m):
            # a common factor m gives the gcd something to cancel
            n, d = n * m, d * m
            s = Scalar(n, d)
            num, den = to_sympy(sympy, s.num), to_sympy(sympy, s.den)
            # same element of the fraction field, and in lowest terms
            assert (num * to_sympy(sympy, d) - to_sympy(sympy, n) * den).is_zero
            assert num.gcd(den).is_ground

        agrees()

    @given(scalars, rational_points)
    def test_eval_matches_fraction_oracle(self, s, pt):
        p0, q0 = pt

        def by_hand(f):
            # f at the point as a Fraction pair (re, im)
            re = im = F(0)
            for (i, j), c in f.items():
                x, y = re_im(c)
                re += x * p0 ** i * q0 ** j
                im += y * p0 ** i * q0 ** j
            return re, im

        (a, b), (c, d) = by_hand(s.num), by_hand(s.den)
        n = c * c + d * d
        assume(n)
        got = s.eval(p0, q0)
        assert re_im(got) == ((a * c + b * d) / n, (b * c - a * d) / n)

    def test_conj_swaps_and_conjugates(self):
        s = Scalar(Poly({(1, 0): G(0, 1)}), Q + -ONE)  # i*p/(q - 1)
        assert s.conj(swap_pq=True) == Scalar(Poly({(0, 1): G(0, -1)}), P + -ONE)

    @given(scalars, scalars)
    def test_conj_is_a_field_involution(self, a, b):
        assert a.conj().conj() == a
        assert a.conj(swap_pq=True).conj(swap_pq=True) == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj(True) == a.conj(True) + b.conj(True)
