"""Exact scalar arithmetic: rational functions in p, q over Q(i).

Every coefficient in this package lives in Q(i)(p, q), the field of rational
functions in two commuting indeterminates over the Gaussian rationals.  All
arithmetic is exact, on Python ints.  A Poly stores one Gaussian integer
a + b*i per monomial over one int denominator, in lowest terms by one integer
gcd per operation (Knuth, TAOCP vol. 2, 4.5.1); a Scalar is a fraction of
Polys, kept canonical by a monic denominator and a polynomial gcd computed
from images modulo a prime.  A constant (a + b*i)/d is a constant Scalar,
whose const holds the three ints (a, b, d) in lowest terms.  Numbers enter
the field through the constructors and Scalar arithmetic; Poly arithmetic
takes only Polys.

Almost every scalar the rewriting engine multiplies is a constant, so
products and sums of two constants are computed on their ints a, b and d
and do no Poly work, and a product with one constant factor scales a
numerator.  Constant results are interned: arithmetic returns the one
Scalar kept for each constant in a table of MEMO_SIZE values, least
recently used first out, so a hit builds no Poly and no Scalar.  Interning
saves work only; equality and hashing compare values.
Two non-constant factors cancel across (Henrici, JACM 3, 1956; TAOCP
vol. 2, 4.5.1).  These results are canonical as built, with no gcd of the
product and no monic rescale; Scalar says why.

Sums not of two constants and products of two non-constant factors cost
one or two polynomial gcds each, and the engine forms the same few again
and again.  _sum and _product memoize them by value, process-wide, each in
a functools.lru_cache of MEMO_SIZE entries: the operations are pure over
immutable canonical values, so a hit returns what a miss would build.  Both
commute, so each takes its operands in hash order and a + b and b + a share
an entry.  They keep no operands of over MEMO_TERMS terms together, such
as the partial sums, each met once, of a long sum's parse, so their bytes
are bounded too.  A sum over one denominator adds the numerators.  The
memos and the interned constants outlive every catalog, and a hit costs no
rewriting fuel (no scalar operation does).

The module writes no text: str() of its values is written by
superplane.parsing, beside the parser that reads it back.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, zip_longest
from math import gcd, lcm
from typing import Iterator

# entries kept by each of the two memos of non-constant Scalar arithmetic,
# and constants kept interned; a cold catalog plus verify --suite all
# leaves 156 sums, 126 products and 13 interned constants
MEMO_SIZE = 1024
# the most terms two operands' parts may hold together for the memos to
# take them; the suites form operands of up to 8 terms, and pairs of 14
MEMO_TERMS = 32


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


def _accumulate(acc: dict, terms, c=None) -> None:
    """acc += terms, pairs (key, value) with distinct keys, each value
    times c unless c is None, in place; a zero sum drops its key.  The
    sparse sum of Expression, the maps and the rewriting kernel: a dict's
    items() or a memoized normal form."""
    if not acc:
        acc.update(terms if c is None or c == 1
                   else {k: v * c for k, v in terms})
        return
    for k, v in terms:
        if c is not None:
            v = v * c
        s = acc.get(k)
        if s is not None:
            v = s + v
            if not v:
                del acc[k]
                continue
        acc[k] = v


def _grlex_key(m: tuple[int, int]) -> tuple[int, int]:
    # total degree first, then p-degree; the maximum is the leading monomial
    return (m[0] + m[1], m[0])


class Poly:
    """Polynomial in p and q over Q(i), on Gaussian integers over one int.

    Stored as a map _c from exponent pairs (i, j) to int pairs (a, b) and
    one int _d > 0, meaning the sum of (a + b*i)/_d * p^i * q^j, in lowest
    terms: no prime divides _d and every a and b, and no pair is (0, 0), so
    equal polynomials have equal fields, len() counts the terms and the zero
    polynomial, {} over 1, is false.  Immutable by convention.  The
    constructor takes ints, Fractions and constant Scalars as coefficients;
    arithmetic takes Polys.  A Poly equals only Polys, and hashes its fields
    on each call.  items, leading and eval hand out constant Scalars.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=()):
        terms = {}
        for (i, j), v in dict(coeffs).items():
            if i < 0 or j < 0:
                raise ValueError("negative exponent in polynomial")
            if isinstance(v, (int, Fraction)):
                terms[(i, j)] = v.numerator, 0, v.denominator
            elif isinstance(v, Scalar) and v.const is not None:
                terms[(i, j)] = v.const
            else:
                raise TypeError(f"bad coefficient {v!r}")
        d = lcm(*[k[2] for k in terms.values()])
        f = _lowest({m: (a * (d // e), b * (d // e))
                     for m, (a, b, e) in terms.items() if a or b}, d)
        self._c, self._d = f._c, f._d

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    def is_zero(self) -> bool:
        return not self._c

    def _terms(self) -> Iterator[tuple[tuple[int, int], tuple[int, int, int]]]:
        """Terms in descending graded-lex order, each coefficient as the
        ints (a, b, d) of (a + b*i)/d in lowest terms, d > 0."""
        for m in sorted(self._c, key=_grlex_key, reverse=True):
            a, b = self._c[m]
            g = gcd(a, b, self._d)
            yield m, (a // g, b // g, self._d // g)

    def items(self) -> list[tuple[tuple[int, int], "Scalar"]]:
        """Terms in descending graded-lex order, their constants not interned."""
        return [(m, _const_raw(*k)) for m, k in self._terms()]

    def leading(self) -> tuple[tuple[int, int], "Scalar"]:
        if not self._c:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._c, key=_grlex_key)
        return m, _const_scalar(*self._c[m], self._d)

    def monic(self) -> "Poly":
        return _monic(self, self)[0] if self._c else self

    def _scale(self, x: int, y: int, d: int) -> "Poly":
        # self times (x + y*i)/d, for a nonzero factor and d > 0
        return _lowest({m: (a * x - b * y, a * y + b * x)
                        for m, (a, b) in self._c.items()}, self._d * d)

    def __add__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        # the terms of the shorter operand go into a copy of the longer
        f, g = sorted((self, other), key=len, reverse=True)
        d = lcm(f._d, g._d)
        k = d // f._d
        out = dict(f._c) if k == 1 else {m: (a * k, b * k)
                                         for m, (a, b) in f._c.items()}
        k = d // g._d
        for m, (a, b) in g._c.items():
            x, y = out.get(m, (0, 0))
            x, y = x + a * k, y + b * k
            if x or y:
                out[m] = (x, y)
            else:
                del out[m]
        return _lowest(out, d)

    def __neg__(self):
        return _poly_raw({m: (-a, -b) for m, (a, b) in self._c.items()},
                         self._d)

    def __mul__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (i1, j1), (a1, b1) in self._c.items():
            for (i2, j2), (a2, b2) in other._c.items():
                m = (i1 + i2, j1 + j2)
                a, b = out.get(m, (0, 0))
                out[m] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
        return _lowest({m: t for m, t in out.items() if t[0] or t[1]},
                       self._d * other._d)

    def divexact(self, d: "Poly") -> "Poly":
        """The quotient self / d under graded-lex order; ValueError when d
        does not divide self.  On the ints: each step divides the leading
        term of the running remainder r by the leading x + y*i of d by
        multiplying by x - y*i, and first scales r and quot, both kept at s
        times their value, by the factor of x*x + y*y that this needs.  Were
        the division exact, the leading monomial of d would divide every
        leading term of r, so the first it does not divide ends it."""
        if type(d) is not Poly:
            raise TypeError(f"bad divisor {d!r}")
        if d.is_zero():
            raise DivisionByZero("polynomial division by zero")
        r, quot, s = dict(self._c), {}, 1
        dm = max(d._c, key=_grlex_key)
        x, y = d._c[dm]
        n = x * x + y * y
        rest = [(m, t) for m, t in d._c.items() if m != dm]
        while r:
            m = max(r, key=_grlex_key)
            i, j = m[0] - dm[0], m[1] - dm[1]
            if i < 0 or j < 0:
                raise ValueError("inexact polynomial division")
            u, v = r.pop(m)
            u, v = u * x + v * y, v * x - u * y
            g = gcd(n, u, v)
            k = n // g
            if k != 1:
                s *= k
                r, quot = ({w: (a * k, b * k) for w, (a, b) in t.items()}
                           for t in (r, quot))
            u, v = u // g, v // g
            quot[(i, j)] = (u, v)
            for (di, dj), (a, b) in rest:
                mm = (di + i, dj + j)
                e, f = r.get(mm, (0, 0))
                e, f = e - u * a + v * b, f - u * b - v * a
                if e or f:
                    r[mm] = (e, f)
                else:
                    del r[mm]
        # s*F == quot*D for the ints F and D of self and d
        return _lowest({w: (a * d._d, b * d._d) for w, (a, b) in quot.items()},
                       s * self._d)

    def eval(self, p0, q0) -> "Scalar":
        """The constant value at p = u/x and q = v/y, on ints: the sum of
        the terms times x**D * y**E, D and E the degrees of self in p and
        in q."""
        (u, x), (v, y) = (_as_fraction(z).as_integer_ratio() for z in (p0, q0))
        D, E = _degrees(self) if self._c else (0, 0)
        ps = [u ** i * x ** (D - i) for i in range(D + 1)]
        qs = [v ** j * y ** (E - j) for j in range(E + 1)]
        re = sum(a * ps[i] * qs[j] for (i, j), (a, _) in self._c.items())
        im = sum(b * ps[i] * qs[j] for (i, j), (_, b) in self._c.items())
        return _const_scalar(re, im, self._d * x ** D * y ** E)

    def conj(self, swap_pq: bool = False) -> "Poly":
        return _poly_raw({m[::-1] if swap_pq else m: (a, -b)
                          for m, (a, b) in self._c.items()}, self._d)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        return hash((self._d, frozenset(self._c.items())))

    def __len__(self):
        return len(self._c)

    def __str__(self):
        from superplane.parsing import render_poly

        return render_poly(self)

    def __repr__(self):
        return f"Poly({str(self)!r})"


def _poly_raw(c: dict, d: int) -> Poly:
    f = object.__new__(Poly)
    f._c, f._d = c, d
    return f


def _lowest(c: dict, d: int) -> Poly:
    """The Poly of the pairs c, none (0, 0), over d > 0, in lowest terms."""
    if d != 1:
        g = gcd(d, *chain.from_iterable(c.values()))
        if g != 1:
            c = {m: (a // g, b // g) for m, (a, b) in c.items()}
            d //= g
    return _poly_raw(c, d)


# ------------------------------------------------------------------ gcd
# One algorithm computes every gcd: Brown's dense modular gcd (JACM 18,
# 1971), over Q(i) as in Encarnacion (J. Symbolic Computation 20, 1995).
# Their Gaussian integers, the pairs (a, b) over no denominator, map to Z/l,
# for a prime l = 1 mod 4, by i -> r and by i -> -r, where r*r = -1 (by
# one when they are real).
# Read as polynomials in v over the other variable w, their images at a
# point w = t have a gcd, by Euclid mod l, of at least the v-degree of the
# gcd h, and of just that at all but a few points.  Times lc_v(f) at t,
# these are the images of H, h times a factor in w, which Newton's
# interpolation in w and the symmetric range mod l recover (one point does
# when h has no w).  Then h is H over its content in v, times the gcd of
# the contents of f and g: gcds in w alone.  The image gcds at one point in
# each variable bound the degrees of h: (0, 0) proves f and g coprime, as
# most are, and a candidate of those degrees that divides f and g is h.
# A candidate that does not divide them exactly, or an image gcd of another
# degree than the first, sends the gcd on to a prime of twice the bits; the
# quotients of the trial division that proves h are the cofactors f/h and
# g/h, which the Scalar constructor and products take in place of dividing
# again.

_BITS = 30  # the first prime has this many bits: its residues fit a digit


@lru_cache
def _prime(bits: int) -> tuple[int, int]:
    """A prime l = k*2**n + 1 of `bits` bits and a square root of -1 mod l.
    Proth's theorem proves l prime, as k is odd and below 2**n, when
    a**((l - 1)/2) = -1 for some a; then a**((l - 1)/4) squares to -1."""
    n = (bits + 1) // 2
    for k in range((1 << (bits - n - 1)) + 1, 1 << (bits - n), 2):
        l = k << n | 1
        for a in (3, 5, 7, 11, 13):
            x = pow(a, l >> 1, l)
            if x == l - 1:
                return l, pow(a, l >> 2, l)
            if x != 1:
                break


def _degrees(f: Poly) -> tuple[int, int]:
    """The degrees of the nonzero f in p and in q."""
    return max(f._c)[0], max(j for _, j in f._c)


def _images(f: Poly, g: Poly, v: int, l: int, s: int, bits: int):
    """(t, lc, monic gcd of the images of f and g in v at w = t) at points
    t where neither image loses its degree, lc leading f's image.  Unless l
    divides a leading coefficient, at most deg_w f + deg_w g points lose it,
    and H needs at most one more.  The points move with the prime, so that
    no root of all images (q = 1 of p*q - 1 and p - 1) fails every try."""
    w = 1 - v
    F, G = _degrees(f), _degrees(g)
    start, n = bits * bits, 2 * (F[w] + G[w]) + 1
    for t in range(start, start + n):
        # the images mod l of the ints of f and g, with i -> s and w = t,
        # in v from the constant up
        a, b = [0] * (F[v] + 1), [0] * (G[v] + 1)
        for X, out in ((f, a), (g, b)):
            for m, (x, y) in X._c.items():
                out[m[v]] += (x + y * s) * pow(t, m[w], l)
        a, b = [c % l for c in a], [c % l for c in b]
        if not a[-1] or not b[-1]:
            continue
        lc = a[-1]
        # Euclid over Z/l: a, b = b, a mod b until b is zero
        while b:
            inv, k = pow(b[-1], -1, l), len(b) - 1
            while len(a) > k:
                c, top = a.pop() * inv % l, len(a) - k
                a[top:] = [(x - c * y) % l for x, y in zip(a[top:], b)]
            while a and not a[-1]:
                a.pop()
            a, b = b, a
        inv = pow(a[-1], -1, l)
        yield t, lc, [c * inv % l for c in a]


def _content(v: int, *fs: Poly) -> Poly:
    """The monic gcd of the coefficients of all fs as polynomials in v."""
    rows: dict[tuple[int, int], tuple[dict, int]] = {}
    for n, f in enumerate(fs):
        for m, c in f._c.items():
            key = (0, m[1]) if v == 0 else (m[0], 0)
            rows.setdefault((n, m[v]), ({}, f._d))[0][key] = c
    return reduce(poly_gcd, (_lowest(c, d) for c, d in rows.values()),
                  _POLY_ZERO)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd in Q(i)[p, q], by the modular algorithm above."""
    if f.is_zero() or g.is_zero():
        return (f + g).monic()
    return _gcd(f, g)[0]


def _gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for the monic gcd h of the nonzero f and g."""
    if len(f._c) == 1 and (0, 0) in f._c or len(g._c) == 1 and (0, 0) in g._c:
        return _POLY_ONE, f, g
    bits = _BITS
    while (out := _modular_gcd(f, g, bits)) is None:
        bits *= 2
    return out


def _modular_gcd(f: Poly, g: Poly,
                 bits: int) -> tuple[Poly, Poly, Poly] | None:
    """(h, f/h, g/h), h = gcd(f, g), from the prime of `bits` bits, or None
    where it fails.  The cofactors are the quotients of the trial division
    that proves h."""
    l, r = _prime(bits)
    F, G = _degrees(f), _degrees(g)
    deg = [F[u] and G[u] and len(
        next(_images(f, g, u, l, r, bits), (0, 0, ()))[2]) - 1 for u in (0, 1)]
    if -1 in deg:
        return None
    if deg == [0, 0]:
        return _POLY_ONE, f, g
    if list(F) == deg or list(G) == deg:  # then the gcd can only be f or g
        h = (f if list(F) == deg else g).monic()
    elif (h := _interpolated(f, g, deg, l, r, bits)) is None:
        return None
    try:
        return h, f.divexact(h), g.divexact(h)
    except ValueError:
        return None


def _interpolated(f: Poly, g: Poly, deg: list[int], l: int, r: int,
                  bits: int) -> Poly | None:
    """The monic candidate for gcd(f, g), of the degrees deg, from images
    modulo the prime l, or None where an image has another degree."""
    F = _degrees(f)
    v = 0 if deg[0] else 1
    w = 1 - v
    bound = deg[w] and deg[w] + max(
        m[w] for m in f._c if m[v] == F[v])
    found = []
    real = not any(y for X in (f, g) for _, y in X._c.values())
    for s in (r,) if real else (r, l - r):
        # H[k] interpolates the coefficient of v**k at the points so far,
        # and M is the product of w - t over them
        H, M = [[] for _ in range(deg[v] + 1)], [1]
        for t, lc, img in _images(f, g, v, l, s, bits):
            if len(img) != len(H):
                return None
            inv = pow(sum(x * pow(t, j, l) for j, x in enumerate(M)), -1, l)
            for k, c in enumerate(img):
                c = c * lc - sum(x * pow(t, j, l) for j, x in enumerate(H[k]))
                H[k] = [(x + c * inv * y) % l
                        for x, y in zip_longest(H[k], M, fillvalue=0)]
            M = [(x - t * y) % l for x, y in zip([0] + M, M + [0])]
            if len(M) > bound + 1:
                break
        else:
            return None
        found.append(H)
    # a + b*r and a - b*r give a and b, each lifted to the symmetric range
    half, over, e = pow(2, -1, l), pow(2 * r, -1, l), l >> 1
    out = {}
    for k, (x, y) in enumerate(zip(found[0], found[-1])):
        for j, (u1, u2) in enumerate(zip(x, y)):
            a = ((u1 + u2) * half + e) % l - e
            b = ((u1 - u2) * over + e) % l - e
            if a or b:
                out[(k, j) if v == 0 else (j, k)] = (a, b)
    H = _poly_raw(out, 1)
    h = H.monic()
    if max(m[w] for m in h._c) == deg[w]:
        return h
    return (H.divexact(_content(v, H)) * _content(v, f, g)).monic()


class Scalar:
    """Canonical fraction num/den over Q(i)[p, q].

    Invariants: den is nonzero and monic under graded-lex order, num and den
    are coprime, and zero is stored as 0/1.  Equality of canonical forms then
    coincides with equality in the fraction field.

    const holds the value (a + b*i)/d of a constant scalar (num constant,
    den 1) as the ints (a, b, d) in lowest terms, d > 0, zero as (0, 0, 1),
    and is None otherwise.  A constant hashes as the number it equals:
    as the Fraction a/d when b is 0, else as the triple.  A product or sum
    of two constants is computed on the two triples, and a product with one
    constant factor scales the other numerator by it: a unit keeps num and
    den coprime and leaves the monic den untouched.  Two non-constant
    factors n1/d1 * n2/d2 cancel across by Henrici's method,
    g1 = gcd(n1, d2) and g2 = gcd(n2, d1), giving
    (n1/g1)(n2/g2) / ((d1/g2)(d2/g1)) in lowest terms with no gcd of the
    product; the gcds are monic, and under a monomial order a quotient or
    product of monics is monic, so no rescale is needed either.  The
    quotients come with each gcd, from the trial division that proves it.

    Those two non-constant routes, _sum and _product, are memoized
    process-wide in MEMO_SIZE-entry least-recently-used caches (see the
    module docstring); a hit costs no fuel.  Constant results of sums,
    products and negation are interned, one Scalar per value while the
    table holds it; the constructor builds a new object, and equal values
    compare and hash equal either way.
    """

    __slots__ = ("num", "den", "const", "_hash")

    def __init__(self, num=0, den=1):
        # a part that is no Poly is a number or a constant Scalar, or the
        # Poly raises TypeError
        n = num if type(num) is Poly else Poly({(0, 0): num})
        d = den if type(den) is Poly else Poly({(0, 0): den})
        if d.is_zero():
            raise DivisionByZero("zero denominator")
        if n.is_zero():
            n, d = _POLY_ZERO, _POLY_ONE
        else:
            _, n, d = _gcd(n, d)
            n, d = _monic(n, d)
        self.num = n
        self.den = d
        self.const = _const_value(n, d)
        self._hash = None

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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        k1, k2 = self.const, other.const
        if k1 is not None and k2 is not None:
            (a1, b1, d1), (a2, b2, d2) = k1, k2
            return _const_scalar(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
        return _memoized(_sum, self, other)

    __radd__ = __add__

    def __neg__(self):
        k = self.const
        if k is not None:
            a, b, d = k
            return _const_scalar(-a, -b, d)
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
                (a1, b1, d1), (a2, b2, d2) = k1, k2
                return _const_scalar(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                                     d1 * d2)
            return other._scaled(k1)
        if k2 is not None:
            return self._scaled(k2)
        return _memoized(_product, self, other)

    __rmul__ = __mul__

    def _scaled(self, k: tuple[int, int, int]) -> "Scalar":
        """self, not a constant, times the constant of the triple k."""
        if k == (1, 0, 1):
            return self
        if k == (0, 0, 1):
            return _S_ZERO
        return _scalar_raw(self.num._scale(*k), self.den)

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

    def __eq__(self, other):
        other = as_scalar(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant hashes as the number it equals
        if self._hash is None:
            k = self.const
            self._hash = hash((self.num, self.den) if k is None
                              else Fraction(k[0], k[2]) if not k[1] else k)
        return self._hash

    def __bool__(self):
        return not self.num.is_zero()

    def conj(self, swap_pq: bool = False) -> "Scalar":
        # a ring automorphism keeps the parts coprime, but swapping p and q
        # can move the leading monomial of den
        return _scalar_raw(
            *_monic(self.num.conj(swap_pq), self.den.conj(swap_pq)))

    def eval(self, p0, q0) -> "Scalar":
        """The constant value at p = p0 and q = q0."""
        n, dv = self.num.eval(p0, q0), self.den.eval(p0, q0)
        if dv.is_zero():
            at = f"p = {_as_fraction(p0)}, q = {_as_fraction(q0)}"
            if n.is_zero():
                raise IndeterminateAtPoint(f"0/0 at {at}")
            raise PoleAtPoint(f"pole at {at}")
        # n/dv = n*conj(dv)/|dv|**2, on the ints of both
        (a1, b1, d1), (a, b, d) = n.const, dv.const
        return _const_scalar((a1 * a + b1 * b) * d, (b1 * a - a1 * b) * d,
                             d1 * (a * a + b * b))

    def __str__(self):
        from superplane.parsing import render_scalar

        return render_scalar(self)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


def _monic(n: Poly, d: Poly) -> tuple[Poly, Poly]:
    """n and d divided by the leading coefficient of the nonzero d."""
    x, y = d._c[max(d._c, key=_grlex_key)]
    if x == d._d and not y:
        return n, d
    # 1/((x + y*i)/e) = e*(x - y*i)/(x*x + y*y), e the denominator of d
    k = (d._d * x, -d._d * y, x * x + y * y)
    m = n._scale(*k)
    return m, m if d is n else d._scale(*k)


def _const_value(n: Poly, d: Poly) -> tuple[int, int, int] | None:
    """The triple (a, b, d) of the constant n/d for canonical parts, or None
    when p or q occur."""
    if len(d._c) != 1 or (0, 0) not in d._c:
        return None
    if not n._c:
        return 0, 0, 1
    c = n._c.get((0, 0))
    return None if c is None or len(n._c) != 1 else (*c, n._d)


def _scalar_raw(n: Poly, d: Poly) -> Scalar:
    """The Scalar n/d for parts already in canonical form."""
    s = object.__new__(Scalar)
    s.num, s.den, s._hash = n, d, None
    s.const = _const_value(n, d)
    return s


def _memoized(memo, a: Scalar, b: Scalar) -> Scalar:
    """memo(a, b) for _sum or _product, in hash order so that both orders
    meet one entry (a Scalar hashes ints, which PYTHONHASHSEED leaves
    alone); past MEMO_TERMS terms computed directly, nothing hashed or kept."""
    if len(a.num._c) + len(a.den._c) + len(b.num._c) + len(b.den._c) > MEMO_TERMS:
        return memo.__wrapped__(a, b)
    return memo(a, b) if hash(a) <= hash(b) else memo(b, a)


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
    _, n1, d2 = _gcd(a.num, b.den)
    _, n2, d1 = _gcd(b.num, a.den)
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


def _const_raw(a: int, b: int, d: int) -> Scalar:
    """A new Scalar of the nonzero constant (a + b*i)/d in lowest terms."""
    return _scalar_raw(_poly_raw({(0, 0): (a, b)}, d), _POLY_ONE)


_interned = lru_cache(maxsize=MEMO_SIZE)(_const_raw)


def as_scalar(x):
    """x as a Scalar, or None when x is neither a number nor a Scalar.

    A number is already a canonical constant, so it takes no gcd; a Poly
    becomes a Scalar only through the constructor, Scalar(poly).
    """
    if isinstance(x, Scalar):
        return x
    if type(x) is int:
        return _interned(x, 0, 1) if x else _S_ZERO
    if isinstance(x, (int, Fraction)):
        return _const_scalar(x.numerator, 0, x.denominator)
    return None


_POLY_ZERO = Poly({})
_POLY_ONE = Poly({(0, 0): 1})
_S_ZERO = Scalar(0)
_S_ONE = Scalar(1)
_S_I = _const_raw(0, 1, 1)
_S_P = Scalar(Poly({(1, 0): 1}))
_S_Q = Scalar(Poly({(0, 1): 1}))
