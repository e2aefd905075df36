"""Exact scalar arithmetic: Gaussian rationals and rational functions in p, q.

Every coefficient in this package lives in Q(i)(p, q), the field of rational
functions in two commuting indeterminates over the Gaussian rationals.  All
arithmetic is exact.  A Gaussian rational is three Python ints (a + b*i)/d
kept in lowest terms by one integer gcd per operation (Knuth, TAOCP vol. 2,
4.5.1); a Scalar is a fraction of Polys over them, kept canonical by a
polynomial gcd and a monic denominator.  The polynomial gcd reads a Poly in
the recursive view (Q(i)[q])[p] and runs on Poly's own arithmetic.

Almost every scalar the rewriting engine multiplies is a constant, so a
Scalar stores its Gaussian-rational value when it has one: products and
sums of two constants are computed on their ints a, b and d and do no Poly
work, and a product with one constant factor scales a numerator.  Constant
results are interned: arithmetic returns the one Scalar kept for each
Gaussian-rational value in a table of MEMO_SIZE values, least recently used
first out, so a hit builds no Poly and no Scalar.  Interning saves work
only; equality and hashing compare values.
Two non-constant factors cancel across (Henrici, JACM 3, 1956; TAOCP
vol. 2, 4.5.1).  These results are canonical as built, with no gcd of the
product and no monic rescale; Scalar says why.

Sums not of two constants and products of two non-constant factors cost
one or two polynomial gcds each, and the engine forms the same few again
and again.  _sum and _product memoize them by value, process-wide, each in
a functools.lru_cache of MEMO_SIZE entries: the operations are pure over
immutable canonical values, so a hit returns what a miss would build.  Both
commute, so each takes its operands in hash order and a + b and b + a share
an entry.  A sum over one denominator adds the numerators.  The memos and
the interned constants outlive every catalog, and a hit costs no rewriting
fuel (no scalar operation does).

The module writes no text: str() of its values is written by
superplane.parsing, beside the parser that reads it back.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# entries kept by each of the two memos of non-constant Scalar arithmetic,
# and constants kept interned; a cold catalog plus verify --suite all
# leaves under 200 in each memo and 31 interned constants
MEMO_SIZE = 1024


class DivisionByZero(ZeroDivisionError):
    """Division by an exactly zero scalar."""


class PoleAtPoint(ArithmeticError):
    """Evaluation met a vanishing denominator with nonvanishing numerator."""


class IndeterminateAtPoint(ArithmeticError):
    """Evaluation met 0/0.

    Reachable even for fractions in lowest terms: (p - 1)/(q - 1) is already
    reduced yet both parts vanish at p = q = 1.
    """


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def power(base, n: int, one, mul=operator.mul):
    """base**n for an integer n >= 0 by square-and-multiply under mul.

    A square is formed only while bits of n remain, and the first factor
    is taken as it is, so base**(2**k) costs k products.
    """
    out = None
    while n:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if out is None else out


class GaussianRational:
    """Element (a + b*i)/d of Q(i), stored as three ints in lowest terms.

    Invariants: d > 0 and gcd(a, b, d) == 1, so equal values have equal
    fields and equality and hashing compare fields.  re and im are Fraction
    views of the two parts; the arithmetic itself never builds a Fraction.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        # over the lcm of the two denominators no prime divides a, b and d
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def conj(self) -> "GaussianRational":
        return _gauss_raw(self.a, -self.b, self.d)

    def __add__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _gauss(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                      d1 * d2)

    def __neg__(self):
        return _gauss_raw(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        d1, d2 = self.d, other.d
        return _gauss(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1,
                      d1 * d2)

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        n = a2 * a2 + b2 * b2
        if not n:
            raise DivisionByZero("division by zero in Q(i)")
        # (a1 + b1*i)/d1 * d2*(a2 - b2*i)/(a2^2 + b2^2)
        d2 = other.d
        return _gauss((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                      self.d * n)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return _G1 / self ** (-n)
        return power(self, n, _G1)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _as_gauss(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        from superplane.parsing import render_gaussian

        return render_gaussian(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gauss_raw(a: int, b: int, d: int) -> GaussianRational:
    x = object.__new__(GaussianRational)
    x.a, x.b, x.d = a, b, d
    return x


def _gauss(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in lowest terms, for ints with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _gauss_raw(a // g, b // g, d // g)
    return _gauss_raw(a, b, d)


def _as_gauss(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gauss_raw(x.numerator, 0, x.denominator)
    return None


def _grlex_key(m: tuple[int, int]) -> tuple[int, int]:
    # total degree first, then p-degree; the maximum is the leading monomial
    return (m[0] + m[1], m[0])


class Poly:
    """Polynomial in p and q over GaussianRational.

    Stored as a map from exponent pairs (i, j) to coefficients, meaning
    coeff * p^i * q^j.  Immutable by convention; zero coefficients are never
    stored, so len() counts the terms and the zero polynomial is false.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=()):
        clean: dict[tuple[int, int], GaussianRational] = {}
        for mono, v in dict(coeffs).items():
            i, j = mono
            if i < 0 or j < 0:
                raise ValueError("negative exponent in polynomial")
            g = _as_gauss(v)
            if g is None:
                raise TypeError(f"bad coefficient {v!r}")
            if not g.is_zero():
                clean[(i, j)] = g
        self._c = clean
        self._hash = None

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    @staticmethod
    def const(c) -> "Poly":
        return Poly({(0, 0): c})

    def is_zero(self) -> bool:
        return not self._c

    def items(self):
        """Terms in descending graded-lex order."""
        return sorted(self._c.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, int], GaussianRational]:
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._c, key=_grlex_key)
        return m, self._c[m]

    def leading_coeff(self) -> GaussianRational:
        return self.leading()[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == _G1:
            return self
        return self.scale(_G1 / lc)

    def scale(self, c) -> "Poly":
        g = _as_gauss(c)
        if g is None:
            raise TypeError(f"bad scale factor {c!r}")
        if g.is_zero():
            return _POLY_ZERO
        return _poly_raw({m: v * g for m, v in self._c.items()})

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self._c)
        for m, v in other._c.items():
            s = out.get(m)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return _poly_raw(out)

    def __neg__(self):
        return _poly_raw({m: -v for m, v in self._c.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[tuple[int, int], GaussianRational] = {}
        for (i1, j1), c1 in self._c.items():
            for (i2, j2), c2 in other._c.items():
                m = (i1 + i2, j1 + j2)
                s = out.get(m)
                t = c1 * c2
                s = t if s is None else s + t
                if s.is_zero():
                    out.pop(m, None)
                else:
                    out[m] = s
        return _poly_raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return power(self, n, _POLY_ONE)

    def divrem(self, d) -> tuple["Poly", "Poly"]:
        """Division with remainder under graded-lex order.

        Returns (quot, rem) with self == quot * d + rem, where no term of rem
        is divisible by the leading monomial of d.
        """
        d = _as_poly(d)
        if d is None:
            raise TypeError("bad divisor")
        if d.is_zero():
            raise DivisionByZero("polynomial division by zero")
        r = dict(self._c)
        quot: dict[tuple[int, int], GaussianRational] = {}
        rem: dict[tuple[int, int], GaussianRational] = {}
        dm, dc = d.leading()
        while r:
            m = max(r, key=_grlex_key)
            i, j = m[0] - dm[0], m[1] - dm[1]
            if i < 0 or j < 0:
                rem[m] = r.pop(m)
                continue
            c = r[m] / dc
            quot[(i, j)] = c
            for (di, dj), dv in d._c.items():
                mm = (di + i, dj + j)
                s = r.get(mm)
                t = dv * c
                s = -t if s is None else s - t
                if s.is_zero():
                    r.pop(mm, None)
                else:
                    r[mm] = s
        return _poly_raw(quot), _poly_raw(rem)

    def divexact(self, d) -> "Poly":
        """Exact division; raises ValueError when the quotient is not exact."""
        quot, rem = self.divrem(d)
        if rem:
            raise ValueError("inexact polynomial division")
        return quot

    def eval(self, p0, q0) -> GaussianRational:
        p0 = _as_gauss(_as_fraction(p0))
        q0 = _as_gauss(_as_fraction(q0))
        tot = _G0
        for (i, j), c in self._c.items():
            if i:
                c = c * p0 ** i
            if j:
                c = c * q0 ** j
            tot = tot + c
        return tot

    def conj(self, swap_pq: bool = False) -> "Poly":
        if swap_pq:
            return _poly_raw({(j, i): v.conj() for (i, j), v in self._c.items()})
        return _poly_raw({m: v.conj() for m, v in self._c.items()})

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __len__(self):
        return len(self._c)

    def __str__(self):
        from superplane.parsing import render_poly

        return render_poly(self)

    def __repr__(self):
        return f"Poly({str(self)!r})"


def _poly_raw(c: dict) -> Poly:
    f = object.__new__(Poly)
    f._c = c
    f._hash = None
    return f


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Poly({(0, 0): x})
    return None


# ------------------------------------------------------------------ gcd
# The gcd runs in the recursive view (Q(i)[q])[p]: a Poly read as a polynomial
# in p with q-only Poly coefficients.  A primitive pseudo-remainder sequence
# (Collins 1967, Brown 1971) runs on Poly arithmetic.  Dividing out the
# content in Q(i)[q] leaves any nonzero constant factor in place, and each
# pseudo-remainder would multiply it into the next, so the rationals grow
# exponentially in digit length with the degree; each primitive part is made
# monic instead, and the final monic gcd is the same.  A nonzero constant is a
# unit, so poly_gcd answers 1 for it at once: most Scalar gcds are of these.
#
# Most of the other gcds are 1 as well, and a modular image certifies that
# exactly (Brown, JACM 18, 1971).  _MOD_P is prime and 1 mod 4, so sending i
# to _MOD_I, a square root of -1 mod _MOD_P, maps every Gaussian rational
# whose denominator _MOD_P does not divide into Z/_MOD_P, as a ring
# homomorphism.  Suppose f and g share a factor of positive degree in p.  By
# Gauss's lemma they share one, h, whose coefficients map too, and f = h*f1
# with f1 mapping as well.  Set q to _MOD_AT[0] in the images: if f's image
# keeps its p-degree, so does h's, and h's image divides the images of f and
# g, so their gcd over Z/_MOD_P has positive degree.  A constant image gcd
# thus rules out a common factor in p; the same with p set to _MOD_AT[1]
# rules one out in q.  A variable that f or g lacks cannot occur in a
# common factor.  Where the certificate fails (a denominator divisible by
# _MOD_P, an image that loses degree at the point, an image gcd that is not
# constant) the pseudo-remainder sequence decides.

_MOD_P = 1_000_000_009
_MOD_I = 569_522_298  # _MOD_I ** 2 % _MOD_P == _MOD_P - 1
_MOD_AT = (3, 5)  # the value of q in the p-images, of p in the q-images


def _p_coeffs(f: Poly) -> dict[int, Poly]:
    """Map each power of p in f to its coefficient, a q-only Poly."""
    rows: dict[int, dict] = {}
    for (i, j), c in f._c.items():
        rows.setdefault(i, {})[(0, j)] = c
    return {i: _poly_raw(row) for i, row in rows.items()}


def _q_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of two q-only polynomials by Euclid."""
    # each remainder is made monic; without this the rational coefficients
    # of a Euclidean sequence grow exponentially in digit length
    while b:
        b = b.monic()
        a, b = b, a.divrem(b)[1]
    return a.monic()


def _primitive(f: Poly) -> tuple[Poly, Poly]:
    """Content in Q(i)[q] and monic primitive part of f; zero maps to zero."""
    c = _POLY_ZERO
    for u in _p_coeffs(f).values():
        c = _q_gcd(c, u)
    if not (c.is_zero() or c == _POLY_ONE):
        f = f.divexact(c)
    return c, f.monic()


def _pseudo_rem(f: Poly, g: Poly) -> Poly:
    """Pseudo-remainder of f by g as polynomials in p."""
    gc = _p_coeffs(g)
    dg = max(gc)
    lg = gc[dg]
    while f:
        fc = _p_coeffs(f)
        df = max(fc)
        if df < dg:
            break
        # lead_p(f) * p^(df - dg) cancels the leading p-term of f * lg
        shift = {(df - dg, j): c for (_, j), c in fc[df]._c.items()}
        f = f * lg - g * _poly_raw(shift)
    return f


def _image(f: Poly, var: int) -> list[int] | None:
    """f mod _MOD_P as a polynomial in p (var 0) or q (var 1), the other
    variable set to _MOD_AT[var]: its coefficients from the constant term
    up, with no zero at the top.  None when _MOD_P divides a denominator."""
    at = _MOD_AT[var]
    out = [0] * (1 + max(m[var] for m in f._c))
    for m, c in f._c.items():
        if not c.d % _MOD_P:
            return None
        k = m[var]
        out[k] = (out[k] + (c.a + c.b * _MOD_I) * pow(c.d, -1, _MOD_P)
                  * pow(at, m[1 - var], _MOD_P)) % _MOD_P
    while out and not out[-1]:
        out.pop()
    return out


def _coprime_mod_p(f: Poly, g: Poly) -> bool:
    """Whether the images of the nonzero f and g certify gcd(f, g) = 1 (see
    above).  False only means that they do not."""
    for var in (0, 1):
        deg = max(m[var] for m in f._c)
        if not deg or not max(m[var] for m in g._c):
            continue
        a, b = _image(f, var), _image(g, var)
        if a is None or b is None or len(a) != deg + 1:
            return False
        # Euclid over Z/_MOD_P: a, b = b, a mod b until b is zero
        while b:
            inv = pow(b[-1], -1, _MOD_P)
            n = len(b) - 1
            while len(a) > n:
                c = a.pop() * inv % _MOD_P
                if c:
                    top = len(a) - n
                    for k in range(n):
                        a[top + k] = (a[top + k] - c * b[k]) % _MOD_P
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        if len(a) > 1:
            return False
    return True


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd in Q(i)[p, q].

    1 at once when f or g is a nonzero constant, or when images of f and g
    modulo the prime _MOD_P certify that they are coprime (Brown, JACM 18,
    1971; see the comment above _MOD_P).  Otherwise the primitive
    pseudo-remainder sequence, the only algorithm that computes a gcd here.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if len(f._c) == 1 and (0, 0) in f._c or len(g._c) == 1 and (0, 0) in g._c:
        return _POLY_ONE
    if _coprime_mod_p(f, g):
        return _POLY_ONE
    return _prs_gcd(f, g)


def _prs_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd of two nonzero polynomials by the primitive
    pseudo-remainder sequence."""
    cf, F = _primitive(f)
    cg, G = _primitive(g)
    if max(_p_coeffs(F)) < max(_p_coeffs(G)):
        F, G = G, F
    while G:
        F, G = G, _primitive(_pseudo_rem(F, G))[1]
    return (F * _q_gcd(cf, cg)).monic()


class Scalar:
    """Canonical fraction num/den over Q(i)[p, q].

    Invariants: den is nonzero and monic under graded-lex order, num and den
    are coprime, and zero is stored as 0/1.  Equality of canonical forms then
    coincides with equality in the fraction field.

    const holds the GaussianRational value of a constant scalar (num
    constant, den 1; zero included) and is None otherwise.  A product or
    sum of two constants is computed on the ints of the two values, and a
    product with one constant factor scales the other numerator by it: a
    unit keeps num and den coprime and leaves the monic den untouched.  Two
    non-constant factors n1/d1 * n2/d2 cancel across by Henrici's method,
    g1 = gcd(n1, d2) and g2 = gcd(n2, d1), giving
    (n1/g1)(n2/g2) / ((d1/g2)(d2/g1)) in lowest terms with no gcd of the
    product; the gcds are monic, and under a monomial order a quotient or
    product of monics is monic, so no rescale is needed either.

    Those two non-constant routes, _sum and _product, are memoized
    process-wide in MEMO_SIZE-entry least-recently-used caches (see the
    module docstring); a hit costs no fuel.  Constant results of sums,
    products and negation are interned, one Scalar per value while the
    table holds it; the constructor builds a new object, and equal values
    compare and hash equal either way.
    """

    __slots__ = ("num", "den", "const", "_hash")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _as_poly(den)
        if n is None or d is None:
            raise TypeError("scalar parts must be polynomials or numbers")
        if d.is_zero():
            raise DivisionByZero("zero denominator")
        if n.is_zero():
            n, d = _POLY_ZERO, _POLY_ONE
        else:
            g = poly_gcd(n, d)
            if g != _POLY_ONE:
                n = n.divexact(g)
                d = d.divexact(g)
            n, d = _monic(n, d)
        self.num = n
        self.den = d
        self.const = _const_value(n, d)
        self._hash = None

    @staticmethod
    def zero() -> "Scalar":
        return _S_ZERO

    @staticmethod
    def one() -> "Scalar":
        return _S_ONE

    @staticmethod
    def i() -> "Scalar":
        return _S_I

    @staticmethod
    def p() -> "Scalar":
        return _S_P

    @staticmethod
    def q() -> "Scalar":
        return _S_Q

    @staticmethod
    def from_fraction(x) -> "Scalar":
        return Scalar(Poly({(0, 0): x}))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        k1, k2 = self.const, other.const
        if k1 is not None and k2 is not None:
            d1, d2 = k1.d, k2.d
            return _const_scalar(k1.a * d2 + k2.a * d1, k1.b * d2 + k2.b * d1,
                                 d1 * d2)
        return _sum(*_ordered(self, other))

    __radd__ = __add__

    def __neg__(self):
        k = self.const
        if k is not None:
            return _const_scalar(-k.a, -k.b, k.d)
        return _scalar_raw(-self.num, self.den)

    def __sub__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        k1, k2 = self.const, other.const
        if k1 is not None:
            if k2 is not None:
                a1, b1, a2, b2 = k1.a, k1.b, k2.a, k2.b
                return _const_scalar(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                                     k1.d * k2.d)
            return other._scaled(k1)
        if k2 is not None:
            return self._scaled(k2)
        return _product(*_ordered(self, other))

    __rmul__ = __mul__

    def _scaled(self, k: GaussianRational) -> "Scalar":
        """self, not a constant, times the constant k."""
        if k.a == k.d and not k.b:
            return self
        if not k.a and not k.b:
            return _S_ZERO
        return _scalar_raw(self.num.scale(k), self.den)

    def __truediv__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return other / self

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("division by zero scalar")
        # the parts are coprime already; only the new den needs rescaling
        return _scalar_raw(*_monic(self.den, self.num))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inv() ** (-n)
        return power(self, n, _S_ONE)

    def __eq__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.num.is_zero()

    def conj(self, swap_pq: bool = False) -> "Scalar":
        # a ring automorphism keeps the parts coprime, but swapping p and q
        # can move the leading monomial of den
        return _scalar_raw(
            *_monic(self.num.conj(swap_pq), self.den.conj(swap_pq)))

    def eval(self, p0, q0) -> GaussianRational:
        dv = self.den.eval(p0, q0)
        if dv.is_zero():
            at = f"p = {_as_fraction(p0)}, q = {_as_fraction(q0)}"
            if self.num.eval(p0, q0).is_zero():
                raise IndeterminateAtPoint(f"0/0 at {at}")
            raise PoleAtPoint(f"pole at {at}")
        return self.num.eval(p0, q0) / dv

    def __str__(self):
        from superplane.parsing import render_scalar

        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def _monic(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """n and d divided by the leading coefficient of the nonzero d."""
    lc = d.leading_coeff()
    if lc == _G1:
        return n, d
    inv = _G1 / lc
    return n.scale(inv), d.scale(inv)


def _const_value(n: Poly, d: Poly):
    """The constant n/d for canonical parts, or None when p or q occur."""
    if len(d._c) != 1 or (0, 0) not in d._c:
        return None
    if not n._c:
        return _G0
    if len(n._c) != 1:
        return None
    return n._c.get((0, 0))


def _scalar_raw(n: Poly, d: Poly) -> Scalar:
    """The Scalar n/d for parts already in canonical form."""
    s = object.__new__(Scalar)
    s.num, s.den, s._hash = n, d, None
    s.const = _const_value(n, d)
    return s


def _ordered(a: Scalar, b: Scalar) -> tuple[Scalar, Scalar]:
    """a and b by hash, so that both orders meet one memo entry.  A
    Scalar's hash is built from ints alone, which PYTHONHASHSEED leaves
    alone, so the order is the same in every process."""
    return (a, b) if hash(a) <= hash(b) else (b, a)


@lru_cache(maxsize=MEMO_SIZE)
def _sum(a: Scalar, b: Scalar) -> Scalar:
    """a + b for two scalars that are not both constant."""
    if a.den == b.den:
        return Scalar(a.num + b.num, a.den)
    return Scalar(a.num * b.den + b.num * a.den, a.den * b.den)


@lru_cache(maxsize=MEMO_SIZE)
def _product(a: Scalar, b: Scalar) -> Scalar:
    """a * b for two non-constant scalars, cancelled across (Henrici)."""
    # neither factor is zero, since zero is a constant
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    g1 = poly_gcd(n1, d2)
    if g1 != _POLY_ONE:
        n1, d2 = n1.divexact(g1), d2.divexact(g1)
    g2 = poly_gcd(n2, d1)
    if g2 != _POLY_ONE:
        n2, d1 = n2.divexact(g2), d1.divexact(g2)
    return _scalar_raw(n1 * n2, d1 * d2)


def _const_scalar(a: int, b: int, d: int) -> Scalar:
    """The interned Scalar of the constant (a + b*i)/d, for ints with d > 0."""
    if not a and not b:
        return _S_ZERO
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _interned(a, b, d)


@lru_cache(maxsize=MEMO_SIZE)
def _interned(a: int, b: int, d: int) -> Scalar:
    return _scalar_raw(_poly_raw({(0, 0): _gauss_raw(a, b, d)}), _POLY_ONE)


def as_scalar(x):
    """x as a Scalar, or None when x is no number, Poly or Scalar.

    A number is already a canonical constant, so it takes no gcd.
    """
    if isinstance(x, Scalar):
        return x
    if type(x) is int:
        return _interned(x, 0, 1) if x else _S_ZERO
    if isinstance(x, (int, Fraction)):
        return _const_scalar(x.numerator, 0, x.denominator)
    if isinstance(x, GaussianRational):
        return _const_scalar(x.a, x.b, x.d)
    if isinstance(x, Poly):
        return Scalar(x)
    return None


_G0 = GaussianRational(0)
_G1 = GaussianRational(1)
_POLY_ZERO = Poly({})
_POLY_ONE = Poly({(0, 0): 1})
_S_ZERO = Scalar(0)
_S_ONE = Scalar(1)
_S_I = Scalar(Poly({(0, 0): GaussianRational(0, 1)}))
_S_P = Scalar(Poly({(1, 0): 1}))
_S_Q = Scalar(Poly({(0, 1): 1}))
