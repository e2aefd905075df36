"""Tests for exact scalars: Gaussian rationals and rational functions in p, q.

Derived expected values are recomputed here by an independent route
(cross-multiplication over raw polynomials, or plain Fraction arithmetic at
sampled rational points) before the canonical literals are asserted.
"""

import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from superplane.scalars import (
    MEMO_SIZE,
    DivisionByZero,
    GaussianRational,
    IndeterminateAtPoint,
    Poly,
    PoleAtPoint,
    Scalar,
    _coprime_mod_p,
    _interned,
    _prs_gcd,
    _product,
    _sum,
    as_scalar,
    poly_gcd,
)

F = Fraction


def G(re, im=0):
    return GaussianRational(F(re), F(im))


def C(c):
    """The constant Poly c, for a number or a GaussianRational c."""
    return Poly({(0, 0): c})


P = Poly({(1, 0): 1})
Q = Poly({(0, 1): 1})
ONE = Poly({(0, 0): 1})
ZERO = Poly({})

fractions_ = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
gaussians = st.builds(GaussianRational, fractions_, fractions_)
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
    st.sampled_from([Scalar.zero(), Scalar.one(), Scalar(-1), Scalar.i()]),
    st.builds(Scalar, gaussians))
mixed_scalars = st.one_of(constants, scalars)
rational_points = st.tuples(fractions_, fractions_)


def to_sympy(sympy, f):
    """f as a sympy Poly in p, q over QQ_I."""
    p, q = sympy.symbols("p q")
    expr = sum(
        (sympy.Rational(c.re.numerator, c.re.denominator)
         + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        * p**i * q**j
        for (i, j), c in f.items())
    return sympy.Poly(expr, p, q, domain=sympy.QQ_I)


class TestGaussianRational:
    def test_basic_arithmetic(self):
        i = G(0, 1)
        assert i * i == G(-1)
        assert G(1, 1) * G(1, -1) == G(2)
        assert G(3, 2) - G(1, 5) == G(2, -3)
        assert G(1) / G(0, 1) == G(0, -1)
        assert G(0, 1) ** 4 == G(1)
        assert G(1, 1) ** -2 == G(0, F(-1, 2))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            G(1) / G(0)

    @pytest.mark.parametrize("number", [2, F(1, 2)], ids=["int", "fraction"])
    def test_arithmetic_takes_no_number(self, number):
        # a number enters Q(i) through the constructor only: on either side
        # of an operator it is foreign, yet a real value still compares and
        # hashes as the number it equals
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(G(3), number)
            with pytest.raises(TypeError):
                op(number, G(3))
        assert G(3) == 3 and hash(G(3)) == hash(3)

    @pytest.mark.parametrize("other", ["1", 0.5])
    def test_foreign_operands(self, other):
        # each operator hands an operand that is no GaussianRational back
        # to Python (NotImplemented), which raises TypeError; equality with
        # it is false
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(G(1), other)
        assert G(1) != other
        with pytest.raises(TypeError):
            G(1) ** other
        with pytest.raises(TypeError):
            GaussianRational(other)

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == G(0)
        if not b.is_zero():
            assert (a / b) * b == a

    @given(*[st.fractions(max_denominator=10**6)] * 4)
    def test_matches_fraction_formulas(self, r1, i1, r2, i2):
        # oracle: the (re, im) formulas of Q(i) in plain Fraction arithmetic
        x, y = GaussianRational(r1, i1), GaussianRational(r2, i2)
        cases = [
            (x + y, r1 + r2, i1 + i2),
            (x - y, r1 - r2, i1 - i2),
            (x * y, r1 * r2 - i1 * i2, r1 * i2 + i1 * r2),
            (x.conj(), r1, -i1),
            ((x + y) - y, r1, i1),
        ]
        n = r2 * r2 + i2 * i2
        if n:
            cases.append((x / y, (r1 * r2 + i1 * i2) / n, (i1 * r2 - r1 * i2) / n))
            cases.append(((x * y) / y, r1, i1))
        for got, re, im in cases:
            assert (got.re, got.im) == (re, im)
            # canonical fields: equal values are equal field by field
            assert got.d > 0 and gcd(got.a, got.b, got.d) == 1
            # so x reached by another route hashes like x
            assert got != x or hash(got) == hash(x)

    @given(gaussians, gaussians)
    def test_conjugation(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
        norm = a * a.conj()
        assert norm.im == 0 and norm.re >= 0


class TestPoly:
    def test_product_expansion(self):
        assert (P - ONE) * (Q - ONE) == Poly(
            {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1}
        )

    def test_eval(self):
        f = P * P * Q - C(3)
        assert f.eval(F(2), F(5)) == G(17)
        assert ZERO.eval(F(1), F(1)) == G(0)

    @given(polys, polys)
    def test_commutative_ring(self, f, g):
        assert f * g == g * f
        assert f + g == g + f
        assert f - f == ZERO
        assert f.scale(G(0)) == ZERO

    def test_equality_is_between_polys(self):
        # a number is no Poly, so it equals none: equal values must hash
        # equal, and hash(Poly.one()) is not hash(1)
        assert Poly.one() != 1 and ZERO != 0 and Poly.one() != G(1)
        assert P * Q + ONE == ONE + Q * P
        assert hash(P * Q + ONE) == hash(ONE + Q * P)

    @pytest.mark.parametrize("number", [2, F(1, 2)], ids=["int", "fraction"])
    def test_arithmetic_takes_no_number(self, number):
        # a number enters Q(i)[p, q] through the constructor only, and a
        # GaussianRational only as the factor of scale
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(P, number)
            with pytest.raises(TypeError):
                op(number, P)
        for call in (Poly.scale, Poly.divrem):
            with pytest.raises(TypeError):
                call(P, number)
        with pytest.raises(TypeError):
            G(0, 1) * P
        assert Poly({(0, 0): 5}) != 5

    @pytest.mark.parametrize("other", ["1", 0.5])
    def test_foreign_operands(self, other):
        # as for GaussianRational; scale and divrem raise TypeError
        # themselves
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(P, other)
        for call in (Poly.scale, Poly.divrem):
            with pytest.raises(TypeError):
                call(P, other)
        with pytest.raises(TypeError):
            Poly({(0, 0): other})

    def test_bad_exponents_and_divisors(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): 1})
        with pytest.raises(ValueError):
            P ** -1
        with pytest.raises(ValueError):
            ZERO.leading()
        with pytest.raises(DivisionByZero):
            P.divrem(ZERO)

    def test_divexact(self):
        f = (P - ONE) * (Q + C(2))
        assert f.divexact(P - ONE) == Q + C(2)
        assert ZERO.divexact(P - ONE) == ZERO
        with pytest.raises(ValueError):
            (P + ONE).divexact(Q)
        # the remainder keeps the terms that p does not divide
        assert (P * Q + Q + ONE).divrem(P) == (Q, Q + ONE)

    def test_gcd_literal(self):
        # oracle: p^2 - 1 = (p - 1)(p + 1), so the common factor is p - 1
        g = poly_gcd(C(2) * (P * P - ONE), C(4) * (P - ONE))
        assert g == P - ONE
        assert (C(2) * (P * P - ONE)).divexact(g) == C(2) * (P + ONE)
        assert poly_gcd(P - ONE, Q - ONE) == ONE

    def test_gcd_with_a_constant(self):
        # a nonzero constant is a unit, whatever the other operand
        f = P * P - Q
        for c in (3, F(-1, 2), G(0, 2), G(1, -1)):
            assert poly_gcd(Poly({(0, 0): c}), f) == Poly.one()
            assert poly_gcd(f, Poly({(0, 0): c})) == Poly.one()
            assert poly_gcd(Poly({(0, 0): c}), Poly({(0, 0): 5})) == Poly.one()
        assert poly_gcd(Poly.zero(), Poly({(0, 0): 3})) == Poly.one()
        assert poly_gcd(Poly.zero(), Poly.zero()) == Poly.zero()

    @given(polys, polys, nonzero_polys)
    def test_gcd_divides_and_reduces_to_coprime(self, a, b, m):
        assume(not (a * m).is_zero() or not (b * m).is_zero())
        d = poly_gcd(a * m, b * m)
        assert d.leading_coeff() == G(1)
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
    def test_certificate_agrees_with_the_prs(self, a, b, m):
        # without and with a planted common factor m
        for f, g in ((a, b), (a * m, b * m)):
            if f.is_zero() or g.is_zero():
                continue
            prs = _prs_gcd(f, g)
            if _coprime_mod_p(f, g):
                assert prs == ONE
            assert poly_gcd(f, g) == prs

    def test_certificate_answers_typical_pairs(self):
        for f, g in ((P * Q - ONE, P + Q), (P - Q, (P - ONE) * (Q + ONE)),
                     (P * P - Q, C(G(0, 1)) * P + ONE)):
            assert _coprime_mod_p(f, g) and _coprime_mod_p(g, f)
        assert not _coprime_mod_p((P + Q) * (P - ONE), (P + Q) * Q)

    def test_certificate_falls_back_to_the_prs(self):
        # a denominator divisible by the modulus has no image
        f = P + Poly({(0, 0): F(1, 1000000009)})
        assert not _coprime_mod_p(f, P - ONE)
        assert poly_gcd(f, P - ONE) == ONE
        # at q = 3 the image of f loses its p-degree
        f = (Q - C(3)) * P + ONE
        assert not _coprime_mod_p(f, P)
        assert poly_gcd(f, P) == ONE
        # at q = 3 both images vanish at p = 0
        f, g = P + Q - C(3), P * (Q + ONE)
        assert not _coprime_mod_p(f, g)
        assert poly_gcd(f, g) == ONE

    def test_gcd_coefficients_stay_small(self):
        # a pseudo-remainder sequence that keeps the numeric content makes
        # its rationals grow exponentially with the degree: at degree 30
        # this did not finish in minutes
        assert poly_gcd((P + Q) ** 30, (P - Q) ** 30) == ONE

    def test_high_degree_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        m = (P * Q - ONE) ** 2
        f, g = (P + Q) ** 30 * m, (P - Q) ** 30 * m
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
        assert s.den.leading_coeff() == G(1)
        assert poly_gcd(s.num, s.den) == ONE
    constant = s.den == ONE and (
        s.num.is_zero() or s.num.leading()[0] == (0, 0))
    assert (s.const is not None) == constant
    if constant:
        assert Poly({(0, 0): s.const}) == s.num


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
    coeffs = [1, -2, F(1, 3), G(0, 1), Scalar(P), Scalar(ONE, Q - ONE)]
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
        g = s.const  # the GaussianRational value
        assert g == x and hash(g) == hash(x) and len({g, x}) == 1
        assert (s.num, s.den, s.const) == (Scalar(x).num, Scalar(x).den,
                                          Scalar(x).const)
        assert as_scalar(s) is s
        assert as_scalar("1") is None and as_scalar(1.0) is None

    def test_partial_fraction_sum(self):
        # oracle 1, computed first: cross-multiplication on raw polynomials
        raw_num = ONE * (Q - ONE) + ONE * (P - ONE)
        raw_den = (P - ONE) * (Q - ONE)
        s = Scalar(ONE, P - ONE) + Scalar(ONE, Q - ONE)
        assert s.num * raw_den == raw_num * s.den
        # oracle 2: plain Fraction arithmetic at a sample point
        assert s.eval(F(3), F(5, 2)) == G(F(1, 2) + F(2, 3))
        # frozen canonical form
        assert s.num == Poly({(1, 0): 1, (0, 1): 1, (0, 0): -2})
        assert s.den == Poly({(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
        assert str(s) == "(p + q - 2)/(p*q - p - q + 1)"

    def test_no_spurious_cancellation(self):
        num = P * Q - ONE
        den = (P - ONE) * (Q - ONE)
        assert poly_gcd(num, den) == ONE  # the parts share no factor
        r = Scalar(num, den)
        assert r.num == num and r.den == den
        assert r.eval(F(2), F(3)) == G(F(5, 2))

    def test_cancellation(self):
        s = Scalar(P * P - ONE, P - ONE)
        assert s == Scalar(P + ONE)
        assert s.den == ONE

    def test_monic_denominator(self):
        s = Scalar(ONE, C(2) * P - C(2))
        assert s.den == P - ONE
        assert s.num == Poly({(0, 0): F(1, 2)})
        # 1/(i*(q - 1)) = -i/(q - 1)
        t = Scalar(ONE, Poly({(0, 1): G(0, 1), (0, 0): G(0, -1)}))
        assert t.den == Q - ONE
        assert t.num == Poly({(0, 0): G(0, -1)})

    def test_pole_and_indeterminate(self):
        with pytest.raises(PoleAtPoint):
            Scalar(ONE, P - ONE).eval(F(1), F(7))
        # reduced fractions can still hit 0/0 at a point
        with pytest.raises(IndeterminateAtPoint):
            Scalar(P - ONE, Q - ONE).eval(F(1), F(1))
        with pytest.raises(IndeterminateAtPoint):
            Scalar(P * Q - ONE, (P - ONE) * (Q - ONE)).eval(F(1), F(1))

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            Scalar(ONE, ZERO)
        with pytest.raises(DivisionByZero):
            Scalar.one() / Scalar.zero()
        with pytest.raises(DivisionByZero):
            Scalar.zero() ** (-1)

    @pytest.mark.parametrize("other", ["1", 0.5])
    def test_foreign_operands(self, other):
        # as for GaussianRational, and the parts of a Scalar are Polys or
        # numbers
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(Scalar.p(), other)
            with pytest.raises(TypeError):
                op(other, Scalar.p())
        assert Scalar.one() != other
        with pytest.raises(TypeError):
            Scalar.p() ** other
        with pytest.raises(TypeError):
            Scalar(other)

    def test_reflected_operators(self):
        # a number on the left of - or / is taken into the field
        assert 2 - Scalar.p() == Scalar(C(2) - P)
        assert 2 / Scalar.p() == Scalar(C(2), P)
        assert F(1, 2) - Scalar.q() == Scalar(C(F(1, 2)) - Q)

    def test_powers_and_factories(self):
        assert Scalar.p() * Scalar.q() - Scalar.one() == Scalar(P * Q - ONE)
        assert Scalar.i() ** 2 == Scalar(-1)
        assert Scalar(P - ONE) ** (-1) == Scalar(ONE, P - ONE)
        assert Scalar(P - ONE) ** 0 == Scalar.one()

    @given(scalars, scalars, scalars)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Scalar.zero()
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
            assert s.den.leading_coeff() == G(1)
            assert poly_gcd(s.num, s.den) == ONE

    @given(mixed_scalars, mixed_scalars, st.booleans())
    def test_every_operation_is_canonical(self, a, b, swap):
        # oracle: the constructor, which cancels by a gcd of the whole
        # cross-multiplied fraction
        cases = [
            (a * b, Scalar(a.num * b.num, a.den * b.den)),
            (a + b, Scalar(a.num * b.den + b.num * a.den, a.den * b.den)),
            (a - b, Scalar(a.num * b.den - b.num * a.den, a.den * b.den)),
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

    def test_swapped_operands_hit_the_memo(self):
        a, b = Scalar(P, Q - ONE), Scalar(Q + ONE, P + ONE)
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
                "Scalar(P * Q - C(3), 1), Scalar(2) / Scalar(7))])")
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
            assert x.const == G(6)
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

    def test_equal_denominator_sum_matches_sympy(self):
        sympy = pytest.importorskip("sympy")

        @given(small_nonzero, small_nonzero, small_nonzero, small_nonzero,
               small_nonzero)
        def agrees(u, w, d, m, e):
            # over the shared den d*m, the numerators u*m + w and e*m - w
            # sum to (u + e)*m, which cancels against the den
            a, b = Scalar(u * m + w, d * m), Scalar(e * m - w, d * m)
            assume(a.den == b.den and a.const is None)
            s = a + b
            num, den = to_sympy(sympy, s.num), to_sympy(sympy, s.den)
            want_num = to_sympy(sympy, (u + e) * m)
            want_den = to_sympy(sympy, d * m)
            assert (num * want_den - want_num * den).is_zero
            assert s.num.is_zero() or num.gcd(den).is_ground
            assert s.den.leading_coeff() == G(1)

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
            assert s.den.leading_coeff() == G(1)

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
            tot = G(0)
            for (i, j), c in f.items():
                tot = tot + c * G(p0 ** i * q0 ** j)
            return tot

        d = by_hand(s.den)
        assume(not d.is_zero())
        assert s.eval(p0, q0) == by_hand(s.num) / d

    def test_conj_swaps_and_conjugates(self):
        s = Scalar(Poly({(1, 0): G(0, 1)}), Q - ONE)  # i*p/(q - 1)
        assert s.conj(swap_pq=True) == Scalar(Poly({(0, 1): G(0, -1)}), P - ONE)

    @given(scalars, scalars)
    def test_conj_is_a_field_involution(self, a, b):
        assert a.conj().conj() == a
        assert a.conj(swap_pq=True).conj(swap_pq=True) == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj(True) == a.conj(True) + b.conj(True)
