"""Graded noncommutative rewriting over the exact scalar field.

The objects here are presentations of associative Z2-graded algebras by
generators and length-two rewrite rules.  Rules must strictly descend in a
word order (weighted degree, then lexicographic on sort keys); negative
weights for localization inverses make the order non-well-founded, so every
reduction also carries a fuel bound as the termination backstop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from superplane.scalars import GaussianRational, Poly, Scalar

DEFAULT_FUEL = 10_000

Word = tuple[str, ...]


class AlgebraError(Exception):
    """Base class for engine errors."""


class RuleError(AlgebraError):
    """Malformed generator or rule data."""


class IncompletePresentation(AlgebraError):
    """A disordered pair or odd square has no rewrite rule."""


class MixedPresentation(AlgebraError):
    """An expression mentions a generator foreign to this presentation."""


class FuelExhausted(AlgebraError):
    """Reduction did not finish within the fuel bound."""


class MissingImage(AlgebraError):
    """A map was applied to a generator it does not cover."""


class NotInvolutive(AlgebraError):
    """A claimed involution fails to square to the identity."""


class GenClass(enum.Enum):
    PARAMETER = "parameter"
    STANDARD = "standard"
    INVERSE = "inverse"


_CLASS_WEIGHT = {
    GenClass.PARAMETER: 0,
    GenClass.STANDARD: 1,
    GenClass.INVERSE: -1,
}


@dataclass(frozen=True)
class GeneratorDecl:
    """One generator: id string, parity (0 even, 1 odd), class, order key.

    weight defaults by class: parameters 0, inverses -1, everything else 1.
    """

    id: str
    parity: int
    klass: GenClass = GenClass.STANDARD
    sort_key: int = 0
    weight: int | None = None

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise RuleError(f"bad generator id {self.id!r}")
        if self.parity not in (0, 1):
            raise RuleError(f"parity of {self.id} must be 0 or 1")
        if self.weight is None:
            object.__setattr__(self, "weight", _CLASS_WEIGHT[self.klass])


def _scalarize(c) -> Scalar:
    if isinstance(c, Scalar):
        return c
    if isinstance(c, (int, Fraction, GaussianRational, Poly)):
        return Scalar(c)
    raise TypeError(f"cannot use {c!r} as a scalar coefficient")


class Expression:
    """Finite scalar combination of words in generator ids.

    Presentation-agnostic: products concatenate words with no sign bookkeeping
    of their own; all graded signs live in rewrite rules.  Zero coefficients
    are dropped on construction, so equality is structural equality.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, terms=()):
        clean: dict[Word, Scalar] = {}
        for w, c in dict(terms).items():
            w = tuple(w)
            for gid in w:
                if not isinstance(gid, str):
                    raise TypeError(f"bad generator id {gid!r} in word")
            s = _scalarize(c)
            if not s.is_zero():
                clean[w] = s
        self._t = clean
        self._hash = None

    @staticmethod
    def zero() -> "Expression":
        return _E_ZERO

    @staticmethod
    def one() -> "Expression":
        return _E_ONE

    @staticmethod
    def from_word(word, coeff=1) -> "Expression":
        return Expression({tuple(word): coeff})

    @staticmethod
    def from_gen(gid: str) -> "Expression":
        return Expression({(gid,): 1})

    def is_zero(self) -> bool:
        return not self._t

    def terms(self) -> list[tuple[Word, Scalar]]:
        """Term list in a deterministic order: by length, then by word."""
        return sorted(self._t.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def words(self) -> list[Word]:
        return [w for w, _ in self.terms()]

    def coefficient(self, word) -> Scalar:
        return self._t.get(tuple(word), Scalar.zero())

    def scale(self, c) -> "Expression":
        s = _scalarize(c)
        if s.is_zero():
            return _E_ZERO
        return _expr_raw({w: v * s for w, v in self._t.items()})

    def map_scalars(self, fn) -> "Expression":
        return Expression({w: fn(v) for w, v in self._t.items()})

    def __add__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        out = dict(self._t)
        for w, v in other._t.items():
            s = out.get(w)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return _expr_raw(out)

    def __radd__(self, other):
        if other == 0:
            return self
        return NotImplemented

    def __neg__(self):
        return _expr_raw({w: -v for w, v in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Expression):
            out: dict[Word, Scalar] = {}
            for w1, c1 in self._t.items():
                for w2, c2 in other._t.items():
                    w = w1 + w2
                    s = out.get(w)
                    t = c1 * c2
                    s = t if s is None else s + t
                    if s.is_zero():
                        out.pop(w, None)
                    else:
                        out[w] = s
            return _expr_raw(out)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("expression powers must be nonnegative integers")
        out = _E_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    def __bool__(self):
        return bool(self._t)

    def __str__(self):
        try:
            from superplane.parsing import render_expression

            return render_expression(self)
        except ImportError:  # pragma: no cover - only during partial builds
            return " + ".join(
                f"({c})*{'*'.join(w) if w else '1'}" for w, c in self.terms()
            ) or "0"

    def __repr__(self):
        return f"Expression({str(self)!r})"


def _expr_raw(t: dict) -> Expression:
    e = object.__new__(Expression)
    e._t = t
    e._hash = None
    return e


_E_ZERO = Expression({})
_E_ONE = Expression({(): 1})


@dataclass(frozen=True)
class RewriteRule:
    """lhs word (length 1 or 2) rewriting to an expression."""

    lhs: Word
    rhs: Expression

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        if not isinstance(self.rhs, Expression):
            object.__setattr__(self, "rhs", Expression(self.rhs))


class Presentation:
    """Generators plus oriented rules; provides reduction to normal form.

    Every rule must strictly descend: each word of its right-hand side is
    smaller than the left-hand side under (weighted degree, sort-key tuple).
    With require_complete, every disordered adjacent pair and every odd
    square must have a rule, so irreducible words are the sorted ones.
    """

    def __init__(self, name: str, gens: Iterable[GeneratorDecl], rules, require_complete: bool = True):
        self.name = name
        self.gens: dict[str, GeneratorDecl] = {}
        for g in gens:
            if g.id in self.gens:
                raise RuleError(f"duplicate generator {g.id}")
            self.gens[g.id] = g
        keys = [g.sort_key for g in self.gens.values()]
        if len(set(keys)) != len(keys):
            raise RuleError(f"sort keys must be distinct in {name}")
        self._idx: dict[Word, RewriteRule] = {}
        out = []
        for r in rules:
            if not isinstance(r, RewriteRule):
                lhs, rhs = r
                r = RewriteRule(tuple(lhs), rhs)
            self._validate_rule(r)
            if r.lhs in self._idx:
                raise RuleError(f"duplicate rule for {r.lhs} in {name}")
            self._idx[r.lhs] = r
            out.append(r)
        self.rules = tuple(out)
        self.require_complete = require_complete
        if require_complete:
            self._check_complete()
        self._memo: dict[Word, Expression] = {}

    # ---------------------------------------------------------- word order

    def word_weight(self, word: Word) -> int:
        return sum(self.gens[g].weight for g in word)

    def word_key(self, word: Word):
        return (self.word_weight(word), tuple(self.gens[g].sort_key for g in word))

    # ---------------------------------------------------------- validation

    def _validate_word(self, word: Word, where: str):
        for gid in word:
            if gid not in self.gens:
                raise RuleError(f"unknown generator {gid!r} in {where} ({self.name})")

    def _validate_rule(self, r: RewriteRule):
        if len(r.lhs) not in (1, 2):
            raise RuleError(f"rule lhs must have length 1 or 2, got {r.lhs}")
        self._validate_word(r.lhs, f"rule lhs {r.lhs}")
        lk = self.word_key(r.lhs)
        for w, _ in r.rhs.terms():
            self._validate_word(w, f"rule rhs for {r.lhs}")
            if not self.word_key(w) < lk:
                raise RuleError(
                    f"rule {r.lhs} does not strictly descend at rhs word {w} in {self.name}"
                )

    def _check_complete(self):
        missing = []
        decls = sorted(self.gens.values(), key=lambda g: g.sort_key)
        for a in decls:
            if a.parity == 1 and (a.id, a.id) not in self._idx and (a.id,) not in self._idx:
                missing.append((a.id, a.id))
            for b in decls:
                if a.sort_key <= b.sort_key:
                    continue
                if (a.id, b.id) not in self._idx and (a.id,) not in self._idx:
                    missing.append((a.id, b.id))
        if missing:
            raise IncompletePresentation(
                f"{self.name} lacks rules for {missing[:8]}"
                + ("..." if len(missing) > 8 else "")
            )

    def _validate_expr(self, expr: Expression):
        if not isinstance(expr, Expression):
            raise TypeError("expected an Expression")
        for w in expr._t:
            for gid in w:
                if gid not in self.gens:
                    raise MixedPresentation(
                        f"generator {gid!r} is not part of presentation {self.name}"
                    )

    # ---------------------------------------------------------- reduction

    def rule_for(self, word) -> RewriteRule | None:
        return self._idx.get(tuple(word))

    def _find_redex(self, w: Word):
        idx = self._idx
        n = len(w)
        for pos in range(n):
            if pos + 1 < n:
                r = idx.get((w[pos], w[pos + 1]))
                if r is not None:
                    return pos, r
            r = idx.get((w[pos],))
            if r is not None:
                return pos, r
        return None

    def normal_form(self, expr: Expression, fuel: int = DEFAULT_FUEL) -> Expression:
        self._validate_expr(expr)
        cell = [fuel]
        out = _E_ZERO
        for word, c in expr.terms():
            out = out + self._word_nf(word, cell).scale(c)
        return out

    def _word_nf(self, word: Word, cell: list) -> Expression:
        memo = self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        one = Scalar.one()
        # explicit stack; frame = [word, children, next index, accumulator]
        root = [None, ((one, word),), 0, _E_ZERO]
        stack = [root]
        while True:
            fr = stack[-1]
            i = fr[2]
            kids = fr[1]
            if i < len(kids):
                c, w = kids[i]
                got = memo.get(w)
                if got is None:
                    red = self._find_redex(w)
                    if red is not None:
                        if cell[0] <= 0:
                            raise FuelExhausted(
                                f"fuel exhausted while reducing {w} in {self.name}"
                            )
                        cell[0] -= 1
                        pos, rule = red
                        tail = pos + len(rule.lhs)
                        stack.append(
                            [
                                w,
                                tuple(
                                    (cc, w[:pos] + m + w[tail:])
                                    for m, cc in rule.rhs.terms()
                                ),
                                0,
                                _E_ZERO,
                            ]
                        )
                        continue
                    got = _expr_raw({w: one})
                    memo[w] = got
                fr[3] = fr[3] + got.scale(c)
                fr[2] = i + 1
            else:
                stack.pop()
                if not stack:
                    return fr[3]
                if fr[0] is not None:
                    memo[fr[0]] = fr[3]
                parent = stack[-1]
                pc, _ = parent[1][parent[2]]
                parent[3] = parent[3] + fr[3].scale(pc)
                parent[2] += 1


@dataclass(frozen=True)
class CriticalPair:
    word: Word
    pos_a: int
    rule_a: RewriteRule
    pos_b: int
    rule_b: RewriteRule
    branch_a: Expression
    branch_b: Expression


def _one_step(word: Word, pos: int, rule: RewriteRule) -> Expression:
    out: dict[Word, Scalar] = {}
    tail = pos + len(rule.lhs)
    for m, c in rule.rhs.terms():
        w = word[:pos] + m + word[tail:]
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return _expr_raw(out)



def critical_pairs(pres: Presentation, max_len: int = 4) -> list[CriticalPair]:
    """All words up to max_len admitting two overlapping rule applications.

    Overlap words are built from the rules themselves: a suffix of one
    left-hand side equal to a prefix of another, or one left-hand side
    contained in another.  Disjoint applications commute and are not
    critical.  Each overlap is emitted once with both one-step results.
    """

    rules = sorted(pres.rules, key=lambda r: (len(r.lhs), r.lhs))
    out = []
    seen = set()
    for ra in rules:
        a = ra.lhs
        for rb in rules:
            b = rb.lhs
            for d in range(len(a)):
                k = len(a) - d
                if k >= len(b):
                    if a[d : d + len(b)] != b:
                        continue
                    if d == 0 and len(b) == len(a):
                        continue
                    word = a
                else:
                    if a[d:] != b[:k]:
                        continue
                    word = a + b[k:]
                key = (word, b, d)
                if len(word) > max_len or key in seen:
                    continue
                seen.add(key)
                out.append(
                    CriticalPair(
                        word, 0, ra, d, rb, _one_step(word, 0, ra), _one_step(word, d, rb)
                    )
                )
    out.sort(key=lambda cp: (len(cp.word), cp.word, cp.pos_b, cp.rule_b.lhs))
    return out


@dataclass(frozen=True)
class ConfluenceFailure:
    word: Word
    pos_a: int
    lhs_a: Word
    pos_b: int
    lhs_b: Word
    nf_a: Expression
    nf_b: Expression


@dataclass(frozen=True)
class ConfluenceReport:
    presentation: str
    max_len: int
    words_scanned: int
    pairs_checked: int
    failures: tuple[ConfluenceFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_local_confluence(
    pres: Presentation, max_len: int = 4, fuel: int = DEFAULT_FUEL
) -> ConfluenceReport:
    """Reduce both branches of every critical pair and compare."""

    words = set()
    failures = []
    pairs = critical_pairs(pres, max_len)
    for cp in pairs:
        words.add(cp.word)
        na = pres.normal_form(cp.branch_a, fuel)
        nb = pres.normal_form(cp.branch_b, fuel)
        if na != nb:
            failures.append(
                ConfluenceFailure(
                    cp.word, cp.pos_a, cp.rule_a.lhs, cp.pos_b, cp.rule_b.lhs, na, nb
                )
            )
    return ConfluenceReport(pres.name, max_len, len(words), len(pairs), tuple(failures))


class Morphism:
    """Algebra homomorphism given by total generator images."""

    def __init__(self, source: Presentation, target: Presentation, images: Mapping[str, Expression], name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        imgs: dict[str, Expression] = {}
        for gid in source.gens:
            if gid not in images:
                raise MissingImage(
                    f"{name or 'morphism'} lacks an image for generator {gid}"
                )
        for gid, e in images.items():
            if gid not in source.gens:
                raise RuleError(f"image given for unknown generator {gid}")
            if not isinstance(e, Expression):
                e = Expression(e)
            target._validate_expr(e)
            imgs[gid] = e
        self.images = imgs

    def apply(self, expr: Expression, fuel: int = DEFAULT_FUEL, normalize: bool = True) -> Expression:
        self.source._validate_expr(expr)
        total = _E_ZERO
        for word, c in expr.terms():
            prod = _E_ONE
            for gid in word:
                prod = prod * self.images[gid]
            total = total + prod.scale(c)
        return self.target.normal_form(total, fuel) if normalize else total


class Involution:
    """Antilinear antihomomorphism with dagger(u*v) = dagger(v)*dagger(u).

    Scalars are conjugated (i -> -i), optionally with p and q swapped.
    Images may be partial; applying to an uncovered generator raises
    MissingImage.  Involutivity is checked on the covered generators.
    """

    def __init__(self, presentation: Presentation, images: Mapping[str, Expression], swap_pq: bool = False, name: str = "", check: bool = True, fuel: int = DEFAULT_FUEL):
        self.presentation = presentation
        self.swap_pq = swap_pq
        self.name = name
        imgs: dict[str, Expression] = {}
        for gid, e in images.items():
            if gid not in presentation.gens:
                raise RuleError(f"image given for unknown generator {gid}")
            if not isinstance(e, Expression):
                e = Expression(e)
            presentation._validate_expr(e)
            imgs[gid] = e
        self.images = imgs
        if check:
            for gid in imgs:
                g = Expression.from_gen(gid)
                back = self.apply(self.apply(g, fuel=fuel), fuel=fuel)
                if back != presentation.normal_form(g, fuel):
                    raise NotInvolutive(
                        f"{name or 'involution'} fails to square to the identity on {gid}"
                    )

    def apply(self, expr: Expression, fuel: int = DEFAULT_FUEL, normalize: bool = True) -> Expression:
        self.presentation._validate_expr(expr)
        total = _E_ZERO
        for word, c in expr.terms():
            prod = _E_ONE
            for gid in reversed(word):
                img = self.images.get(gid)
                if img is None:
                    raise MissingImage(
                        f"{self.name or 'involution'} has no image for generator {gid}"
                    )
                prod = prod * img
            total = total + prod.scale(c.conj(self.swap_pq))
        return self.presentation.normal_form(total, fuel) if normalize else total


def adjoin_inverse(
    pres: Presentation,
    gen_id: str,
    inverse_decl: GeneratorDecl,
    swap_rules,
    name: str | None = None,
    require_complete: bool = True,
) -> Presentation:
    """Extend a presentation by a two-sided inverse of an even generator.

    The unit rules are added here; the caller supplies the derived swap
    rules that move the inverse past the other generators.  The inverse must
    carry negative weight so the unit rules descend at equal weighted degree.
    """

    g = pres.gens.get(gen_id)
    if g is None:
        raise RuleError(f"cannot invert unknown generator {gen_id}")
    if g.parity != 0:
        raise RuleError(f"cannot invert odd generator {gen_id}")
    if inverse_decl.id in pres.gens:
        raise RuleError(f"generator {inverse_decl.id} already present")
    if inverse_decl.weight is None or inverse_decl.weight >= 0:
        raise RuleError("inverse generators need negative weight")
    units = [
        RewriteRule((inverse_decl.id, gen_id), _E_ONE),
        RewriteRule((gen_id, inverse_decl.id), _E_ONE),
    ]
    return Presentation(
        name or f"{pres.name}[{inverse_decl.id}]",
        list(pres.gens.values()) + [inverse_decl],
        list(pres.rules) + units + list(swap_rules),
        require_complete=require_complete,
    )
