"""Graded noncommutative rewriting over the exact scalar field.

The objects here are presentations of associative Z2-graded algebras by
generators and length-two rewrite rules.  Rules must strictly descend in a
word order (weighted degree, then lexicographic on sort keys) that negative
weights keep from being well-founded; Presentation.terminates certifies
termination instead, and fuel is the termination argument only without it.

Letters that supercommute are not moved one letter at a time.  Deformation
parameters are central by declaration, their rules exactly param_swap_rules
(Presentation adds them), so they are sorted to the front of each word; the
other generators fall into blocks: intervals of the sort order between
which every disordered pair rewrites by its exact Koszul swap and no other
rule reaches across (the group and the plane of the covariance tensor).
Reduction sorts a word into parameters P and blocks B1...Bk in one pass
with the Koszul sign, reduces each P*Bi on its own and multiplies the
results back together; a Koszul tensor product of confluent systems is
confluent (Bergman 1978).  The swap rules stay in the presentation as
declarative data.

A block word B is reduced by folding its letters one at a time into the
normal words formed so far, as Plural builds its G-algebra products
(Levandovskyy and Schoenemann, ISSAC 2003): the normal form of P*w*l, for w
normal, has its only redex at the junction.  The memo keys are these P*w*l
with w normal, the words the leftmost strategy rewrites them into, and the
whole blocks P*B; the unreduced rest of a word never enters a key, so the
memo grows with the output rather than with the derivation.  Keys keep
their parameters: dropping P would not terminate, since the supergroup's
a*d -> d*a + h1*a*ga - ... leads back to a*d through a*ga once h1 is gone,
and only h1*h1 = 0 cuts that cycle.  A memoized normal form is the tuple of
its ((P, B), coefficient) terms, frozen from the sum that built it, so a
zero one is the shared ().

These memos, like every cache keyed by words an input brings, live in the
Budget whose fuel pays for them; presentations and maps keep only what
their rules fix.  So the fuel a call needs depends only on its inputs.

The leftmost redex is found with a cursor, the stack-based reduction of
Book and Otto (String-Rewriting Systems, 1993, ch. 2): every left-hand side
has two letters, so after a rewrite at pos the letters before pos-1
still hold no redex, and the scan of each word it makes resumes at pos-1; a
letter appended to a normal word can make a redex only at the junction.  The
cursor changes no rewrite and costs no fuel.

An Expression stores each coefficient as the reduction computes with it: a
Python int where it is given an integer, else a Scalar, which stays one
whatever arithmetic makes of it.  Two ints combine as ints, so the
h-calculus, the supergroup, the covariance tensor and the one-forms reduce
on ints alone, and the multiplier converts nothing.  Equal values compare
and hash equal; terms() and coefficient() hand out Scalars.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping

from superplane.scalars import Scalar, _accumulate, as_scalar

DEFAULT_FUEL = 10_000

Word = tuple[str, ...]
_WEIGHT, _SORT_KEY = attrgetter("weight"), attrgetter("sort_key")


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


class GeneratorDecl(namedtuple("GeneratorDecl",
                               "id parity klass sort_key weight")):
    """One generator: id string, parity (0 even, 1 odd), class, order key.

    weight follows from the class: parameters 0, inverses -1, everything
    else 1, so a unit rule g*ginv -> 1 descends at equal weighted degree.
    """

    __slots__ = ()

    def __new__(cls, id: str, parity: int, klass: GenClass = GenClass.STANDARD,
                sort_key: int = 0):
        if not id or not isinstance(id, str):
            raise RuleError(f"bad generator id {id!r}")
        if parity not in (0, 1):
            raise RuleError(f"parity of {id} must be 0 or 1")
        return super().__new__(cls, id, parity, klass, sort_key,
                               _CLASS_WEIGHT[klass])


def _stored(c) -> int | Scalar:
    """c as an Expression stores it: an int when c is an integer constant,
    else a Scalar.  TypeError when c is neither a number nor a Scalar."""
    if type(c) is int:
        return c
    s = as_scalar(c)
    if s is None:
        raise TypeError(f"cannot use {c!r} as a scalar coefficient")
    k = s.const
    if k is not None and k[2] == 1 and not k[1]:
        return k[0]
    return s


def _by_length(t) -> list[Word]:
    """The keys of t by length, then by word: the order of terms()."""
    return sorted(sorted(t), key=len)


class Expression:
    """Finite scalar combination of words in generator ids.

    Presentation-agnostic: products concatenate words with no sign bookkeeping
    of their own; all graded signs live in rewrite rules.  Zero coefficients
    are dropped on construction, and the others stored as ints or Scalars
    (see the module docstring), so equality is structural on values.
    """

    __slots__ = ("_t",)

    def __init__(self, terms=()):
        clean: dict[Word, int | Scalar] = {}
        for w, c in dict(terms).items():
            w = tuple(w)
            for gid in w:
                if not isinstance(gid, str):
                    raise TypeError(f"bad generator id {gid!r} in word")
            s = _stored(c)
            if s:
                clean[w] = s
        self._t = clean

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
    @lru_cache(maxsize=256)
    def from_gen(gid: str) -> "Expression":
        """The expression gid, one per generator id: Expressions are
        immutable."""
        return Expression({(gid,): 1})

    def is_zero(self) -> bool:
        return not self._t

    def terms(self) -> list[tuple[Word, Scalar]]:
        """Term list in a deterministic order: by length, then by word."""
        return [(w, as_scalar(self._t[w])) for w in self.words()]

    def words(self) -> list[Word]:
        return _by_length(self._t)

    def coefficient(self, word) -> Scalar:
        return as_scalar(self._t.get(tuple(word), 0))

    def scale(self, c) -> "Expression":
        s = _stored(c)
        if not s:
            return _E_ZERO
        if s == 1:
            return self
        return _expr_raw({w: v * s for w, v in self._t.items()})

    def __add__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        out = dict(self._t)
        _accumulate(out, other._t.items())
        return _expr_raw(out)

    def __neg__(self):
        return _expr_raw({w: -v for w, v in self._t.items()})

    def __sub__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """The free product; a scalar on either side scales."""
        if isinstance(other, Expression):
            return _expr_raw(_times(self._t, other._t))
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __bool__(self):
        return bool(self._t)

    def __str__(self):
        from superplane.parsing import render_expression

        return render_expression(self)

    def __repr__(self):
        return f"Expression({str(self)!r})"


def _times(t1: dict, t2: dict) -> dict:
    """The terms of t1*t2 for dicts word -> coefficient: words are
    concatenated, and a zero sum drops its word."""
    out = {}
    for w1, c1 in t1.items():
        for w2, c2 in t2.items():
            w = w1 + w2
            s = out.get(w)
            t = c1 * c2
            s = t if s is None else s + t
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def _expr_raw(t: dict) -> Expression:
    e = object.__new__(Expression)
    e._t = t
    return e


_E_ZERO = Expression({})
_E_ONE = Expression({(): 1})


class RewriteRule(namedtuple("RewriteRule", "lhs rhs")):
    """lhs word of two letters rewriting to an expression."""

    __slots__ = ()

    def __new__(cls, lhs: Word, rhs: Expression):
        return super().__new__(cls, tuple(lhs), rhs)


def _koszul_sign(a: int, b: int) -> int:
    """The sign of exchanging two letters of parities a and b."""
    return -1 if a and b else 1


def koszul_swap(v: GeneratorDecl, u: GeneratorDecl) -> RewriteRule:
    """v*u -> u*v, negated when both letters are odd."""
    return RewriteRule((v.id, u.id),
                       Expression({(u.id, v.id): _koszul_sign(v.parity, u.parity)}))


def unit_rules(gen_id: str, inv_id: str) -> list[RewriteRule]:
    """inv*g -> 1 and g*inv -> 1 for a two-sided inverse inv of g."""
    return [RewriteRule((inv_id, gen_id), _E_ONE),
            RewriteRule((gen_id, inv_id), _E_ONE)]


def param_swap_rules(decls) -> list[RewriteRule]:
    """The rules that make the deformation parameters central: for each
    parameter h in sort-key order, the Koszul swap v*h -> +-h*v for every
    other letter v, then h*h' -> +-h'*h for each parameter h' before it,
    and h*h -> 0 if h is odd."""
    decls = list(decls)
    params = sorted((d for d in decls if d.klass is GenClass.PARAMETER),
                    key=lambda d: d.sort_key)
    out = [koszul_swap(v, h) for h in params for v in decls
           if v.klass is not GenClass.PARAMETER]
    for i, h in enumerate(params):
        out.extend(koszul_swap(h, g) for g in params[:i])
        if h.parity:
            out.append(RewriteRule((h.id, h.id), _E_ZERO))
    return out


def _order(word: Word, gens: Mapping[str, GeneratorDecl]) -> tuple:
    """word's place in the order rules descend in: its weighted degree, then
    its letters' sort keys.  A KeyError names its first letter not in gens."""
    decls = list(map(gens.__getitem__, word))
    return sum(map(_WEIGHT, decls)), tuple(map(_SORT_KEY, decls))


def _rule_error(r: RewriteRule, gens: Mapping[str, GeneratorDecl], name: str):
    """None for a rule from two letters of gens to words over gens below
    it in _order, else why not, naming its first failing word in terms()
    order; a good rule is checked on its words as stored."""
    lhs = r.lhs
    if len(lhs) != 2:
        return f"rule lhs must have length 2, got {lhs}"
    try:
        top = _order(lhs, gens)
    except KeyError as exc:
        return f"unknown generator {exc.args[0]!r} in rule lhs {lhs} ({name})"
    try:
        if all(_order(w, gens) < top for w in r.rhs._t):
            return None
    except KeyError:
        pass
    for w in r.rhs.words():
        try:
            if not _order(w, gens) < top:
                return f"rule {lhs} does not strictly descend at rhs word {w} in {name}"
        except KeyError as exc:
            return f"unknown generator {exc.args[0]!r} in rule rhs for {lhs} ({name})"


class Budget:
    """fuel rewrite steps, the left of them, and the memos they pay for:
    each presentation's normal forms and word parities and each map's
    prefix images.  A call given an int fuel makes a Budget of that many
    steps; one given a Budget shares its steps and memos."""

    __slots__ = ("fuel", "left", "_memos")

    def __init__(self, fuel: int):
        self.fuel = self.left = fuel
        self._memos: dict[tuple, dict] = {}

    @staticmethod
    def of(fuel: int | Budget) -> Budget:
        """fuel as a Budget: itself, or a fresh one of fuel steps."""
        return fuel if isinstance(fuel, Budget) else Budget(fuel)

    def memo(self, owner, kind: str) -> dict:
        """The memo of this kind kept for owner, empty at first."""
        return self._memos.setdefault((owner, kind), {})


# a FuelExhausted message shows at most this many letters of its word
_SHOWN_LETTERS = 40


class Presentation:
    """Generators plus oriented rules; provides reduction to normal form.

    Every rule must strictly descend: each word of its right-hand side is
    smaller than the left-hand side under (weighted degree, sort-key tuple).
    With require_complete, every disordered adjacent pair and every odd
    square must have a rule, so irreducible words are the sorted ones.

    Parameters are central by declaration: a given rule on one must be in
    param_swap_rules (else RuleError), and rules holds the other given
    rules in order, then all of param_swap_rules, given or not.
    """

    def __init__(self, name: str, gens: Iterable[GeneratorDecl], rules, require_complete: bool = True):
        self.name = name
        self.gens: dict[str, GeneratorDecl] = {}
        keyed: dict[int, str] = {}
        for g in gens:
            if g.id in self.gens:
                raise RuleError(f"duplicate generator {g.id}")
            if (other := keyed.setdefault(g.sort_key, g.id)) != g.id:
                raise RuleError(f"sort keys must be distinct in {name}: "
                                f"{other} and {g.id} both have {g.sort_key}")
            self.gens[g.id] = g
        swaps = {r.lhs: r for r in param_swap_rules(self.gens.values())}
        self._front = {g for g, d in self.gens.items() if d.klass is GenClass.PARAMETER}
        self._idx: dict[Word, RewriteRule] = {}
        for r in rules:
            if not isinstance(r, RewriteRule):
                lhs, rhs = r
                r = RewriteRule(tuple(lhs), rhs)
            if r != swaps.get(r.lhs):
                if why := _rule_error(r, self.gens, name):
                    raise RuleError(why)
                if not self._front.isdisjoint(r.lhs):
                    raise RuleError(f"rule {r.lhs} mentions a parameter but is "
                                    f"not in param_swap_rules ({name})")
            if r.lhs in self._idx:
                raise RuleError(f"duplicate rule for {r.lhs} in {name}")
            self._idx[r.lhs] = r
        self.rules = (*(r for r in self._idx.values() if r.lhs not in swaps),
                      *swaps.values())
        self._idx.update(swaps)
        self.require_complete = require_complete
        if require_complete:
            self._check_complete()
        self._parity = {g.id: g.parity for g in self.gens.values()}
        self._nfront = len(self._front)
        part = self._find_blocks()
        self._nparts = max(part.values(), default=0) + 1
        # each letter's part, its bit in _split's parity mask when it is
        # odd, and the mask of the parts after it
        self._letters = {gid: (b, self._parity[gid] << b, -2 << b)
                         for gid, b in part.items()}
        self._terms = {}  # (P, rule lhs) -> see _rule_terms
        self._merged = {}  # (P, F) -> (sign, P and F sorted), see _rule_terms
        self._fingerprint = None  # see parsing.fingerprint

    @property
    def terminates(self) -> bool:
        """Whether every parameter is odd, and no rule whose lhs has no
        parameter has a parameter-free rhs word longer than it.
        Then each rewrite of P*W (P the sorted parameters, W a block word,
        modulo the Koszul sort and the parameter ideal as _split and
        _block_nf do) lowers (-|P|, |W|, _order(W)), since every rule
        descends in _order; and that order is well-founded, since an odd
        parameter occurs at most once in P and for a fixed length _order
        takes finitely many values.  With local confluence, normal forms are
        unique (Newman 1942; Bergman 1978; Book and Otto 1993, ch. 1-2).
        Elsewhere, as for m*n -> n*m*m*n, fuel is the only such argument."""
        params = self._front
        return (all(map(self._parity.__getitem__, params))
                and all(len(w) <= 2 or not params.isdisjoint(w)
                        for r in self.rules if params.isdisjoint(r.lhs) for w in r.rhs._t))

    # ---------------------------------------------------------- validation

    def _check_complete(self):
        missing = []
        decls = sorted(self.gens.values(), key=lambda g: g.sort_key)
        for a in decls:
            if a.parity == 1 and (a.id, a.id) not in self._idx:
                missing.append((a.id, a.id))
            for b in decls:
                if a.sort_key <= b.sort_key:
                    continue
                if (a.id, b.id) not in self._idx:
                    missing.append((a.id, b.id))
        if missing:
            raise IncompletePresentation(
                f"{self.name} lacks rules for {missing[:8]}"
                + ("..." if len(missing) > 8 else "")
            )

    def _validate_expr(self, expr: Expression):
        if not isinstance(expr, Expression):
            raise TypeError("expected an Expression")
        for gid in chain.from_iterable(expr._t):
            if gid not in self.gens:
                raise MixedPresentation(
                    f"generator {gid!r} is not part of presentation {self.name}"
                )

    # ---------------------------------------------------------- blocks

    def _is_swap(self, r: RewriteRule) -> bool:
        """Whether r is v*u -> u*v with the Koszul sign of its two letters."""
        v, u = r.lhs
        t = r.rhs._t
        return t.keys() == {(u, v)} and t[u, v] == _koszul_sign(
            self._parity[v], self._parity[u])

    def _find_blocks(self) -> dict[str, int]:
        """The part of each letter in _split, numbered in the order of parts.

        The order puts the front letters (the parameters) first, then the
        others, each by sort key.  Every front letter is a part of its own;
        the others fall into blocks.  Neighbours in the order fall in
        different parts when no rule but an exact Koszul swap has letters
        (front letters aside) on both sides of them, and every disordered
        pair across them has its exact Koszul swap.  Parts are thus
        intervals that supercommute.
        """
        front = self._front
        order = sorted(self.gens, key=lambda gid: (gid not in front, self.gens[gid].sort_key))
        at = {gid: i for i, gid in enumerate(order)}
        # reach[i]: the last letter in the order that shares order[i]'s part
        reach = list(range(len(order)))
        swaps = set()
        for r in self.rules:
            if self._is_swap(r):
                swaps.add(r.lhs)
                continue
            ks = [at[gid] for w in (r.lhs, *r.rhs._t) for gid in w if gid not in front]
            if ks:
                reach[min(ks)] = max(reach[min(ks)], max(ks))
        for j, v in enumerate(order):
            for i in range(j):
                if (v, order[i]) not in swaps:
                    reach[i] = max(reach[i], j)
        part, b, end = {}, -1, -1
        for i, gid in enumerate(order):
            if i > end:
                b += 1
            end = max(end, reach[i])
            part[gid] = b
        return part

    def _odd(self, word: Word, odd: dict) -> int:
        """The parity of word, memoized in odd: reduction asks it of few
        distinct words, many times over."""
        got = odd.get(word)
        if got is None:
            got = odd[word] = sum(map(self._parity.__getitem__, word)) & 1
        return got

    def _split(self, word: Word):
        """word sorted into its front letters and its blocks: (sign, P, Bs).

        P is the front letters sorted, Bs the nonempty block subwords in
        block order, each letter kept in its order within its block.  The
        sign is the Koszul sign: -1 for every exchange of two odd letters.
        A repeated odd front letter gives sign 0.
        """
        letters, nfront = self._letters, self._nfront
        parts = [[] for _ in range(self._nparts)]
        odd = 0  # bit b: part b holds an odd number of odd letters so far
        sign = 1
        for letter in word:
            b, bit, above = letters[letter]
            if bit:
                if odd & bit and b < nfront:
                    return 0, (), ()
                if (odd & above).bit_count() & 1:
                    sign = -sign
                odd ^= bit
            parts[b].append(letter)
        return (sign, tuple(chain.from_iterable(parts[:nfront])),
                tuple(map(tuple, filter(None, parts[nfront:]))))

    # ---------------------------------------------------------- reduction

    def rule_for(self, word) -> RewriteRule | None:
        return self._idx.get(tuple(word))

    def _find_redex(self, w: Word, start: int):
        """The leftmost redex (pos, rule) of w, or None, for a w with none
        before start: the first two letters from start on that are a
        left-hand side."""
        idx = self._idx
        for pos in range(start, len(w) - 1):
            r = idx.get(w[pos:pos + 2])
            if r is not None:
                return pos, r
        return None

    def normal_form(self, expr: Expression, fuel: int | Budget = DEFAULT_FUEL) -> Expression:
        """Reduce expr to normal form within a budget of fuel rewrite steps.

        Each rule application costs one unit of fuel; it is the termination
        argument only where terminates is false.  Sorting a word's
        parameters to the front and its letters into their blocks is one
        bounded pass and costs none.  Each block word B is folded in one
        letter at a time, and the budget's memo holds the normal form of
        each P*w*l met, P sorted parameters and w a normal word of one
        block, of the words its rewriting passes through, and of each whole
        P*B, as a tuple of its terms.  A hit costs no fuel, and memory grows
        with the fuel spent and the words the input brings.  Neither the
        redex cursor nor the int coefficients (see the module docstring)
        change which rules apply, and so the fuel a reduction needs.
        """
        self._validate_expr(expr)
        return self.multiplier(fuel)(expr)

    def multiplier(self, fuel: int | Budget = DEFAULT_FUEL):
        """The product primitive: mul(a, b) = nf(a*b), and mul(a) = nf(a).

        All calls of one mul draw on one budget of fuel rewrite steps and
        share its memo, which goes with the budget.  For confluent rules
        the normal form of a product does not depend on when its factors
        were reduced (Bergman's diamond lemma), so a fold through mul never
        builds the expansion.  Each word of a*b is then reduced block by
        block, each block one letter at a time onto a normal word, through
        the memo described in normal_form.  mul does not check that a and b
        are over this presentation's generators.
        """
        budget = Budget.of(fuel)
        memo, odd = budget.memo(self, "words"), budget.memo(self, "parity")

        def mul(a: Expression, b: Expression | None = None) -> Expression:
            t = a._t if b is None else _times(a._t, b._t)
            acc = {}
            for word in _by_length(t):
                _accumulate(acc, self._word_nf(word, budget, memo, odd), t[word])
            return _expr_raw({p + w: c for (p, w), c in acc.items()})

        return mul

    def _fuel_error(self, word: Word, fuel: int) -> FuelExhausted:
        shown = "*".join(word[:_SHOWN_LETTERS])
        if len(word) > _SHOWN_LETTERS:
            shown += "*..."
        return FuelExhausted(
            f"fuel of {fuel} steps exhausted in {self.name} while reducing "
            f"a word of {len(word)} letters: {shown}"
        )

    def _word_nf(self, word: Word, budget, memo, odd):
        """The normal form of word as pairs ((P, W), coefficient), on
        budget, whose memo and parity memo for self are memo and odd.

        Blocks are reduced one after the other: a term P1*W times
        nf(P1*B) = sum c*P2*B' gives the sign of moving P1 and P2 past W.
        """
        sign, params, blocks = self._split(word)
        if not sign:
            return ()
        if not blocks:
            return (((params, ()), sign),)
        acc = self._fold_block((params, blocks[0]), budget, memo, odd)
        if sign < 0:
            acc = [(k, -v) for k, v in acc]
        for b in blocks[1:]:
            out = {}
            for (p1, w), c in acc:
                got = self._fold_block((p1, b), budget, memo, odd)
                if w:
                    if self._odd(w, odd):
                        odd_p1 = self._odd(p1, odd)
                        got = [((p2, w + b2), v if self._odd(p2, odd) == odd_p1 else -v)
                               for (p2, b2), v in got]
                    else:
                        got = [((p2, w + b2), v) for (p2, b2), v in got]
                _accumulate(out, got, c)
            acc = out.items()
        return acc

    def _fold_block(self, key: tuple[Word, Word], budget, memo, odd) -> tuple:
        """The normal form of P*B for key = (P, B), B in one block, as a
        tuple of pairs ((P2, B2), coefficient); memoized under key.

        B's letters are appended one at a time to the normal words formed
        so far, so each step reduces P'*w*l with w normal: its only redex
        is at the junction, where the scan for it starts, and the rest of B
        stays out of the memo keys.
        """
        got = memo.get(key)
        if got is not None:
            return got
        p, b = key
        acc = self._block_nf((p, b[:1]), 0, budget, memo, odd)
        for letter in b[1:]:
            out = {}
            for (p1, w), c in acc:
                _accumulate(out, self._block_nf((p1, w + (letter,)),
                                                len(w) - 1 if w else 0,
                                                budget, memo, odd), c)
            acc = out.items()
        memo[key] = acc = tuple(acc)
        return acc

    def _block_nf(self, key: tuple[Word, Word], start: int, budget, memo, odd) -> tuple:
        """The normal form of P*B for key = (P, B), B in one block, as a
        tuple of pairs ((P2, B2), coefficient), for a B with no redex
        before start; memoized under key, as is every word its rewriting
        passes through.  A frame's sum is frozen when the frame pops.

        A rewrite at pos leaves the letters before it irreducible, so the
        scan of each child resumes at pos - 1 (Book and Otto 1993, ch. 2).
        """
        got = memo.get(key)
        if got is not None:
            return got
        find = self._find_redex
        red = find(key[1], start)
        if red is None:
            got = memo[key] = ((key, 1),)
            return got
        # frame = (key, iterator over the rule terms that make its children,
        # its block word and the position of the redex in it, accumulator,
        # its coefficient in the parent frame, where its children's scans
        # start);
        # each child is cut from the word when it is reached, so that no
        # frame holds a copy of the letters around its redex
        stack = []
        c = 1
        left = budget.left
        try:
            while True:
                if red is not None:
                    if left <= 0:
                        raise self._fuel_error(key[0] + key[1], budget.fuel)
                    left -= 1
                    pos, rule = red
                    p, w = key
                    terms = self._terms.get((p, rule.lhs))
                    if terms is None:
                        terms = self._terms[p, rule.lhs] = self._rule_terms(p, rule)
                    even, odd_terms = terms
                    if odd_terms is not even and self._odd(w[:pos], odd):
                        even = odd_terms
                    stack.append((key, iter(even), w, pos, {}, c,
                                  pos - 1 if pos else 0))
                parent, kids, w, pos, acc, coef, start = stack[-1]
                for c, front, mid in kids:
                    key = (front, w[:pos] + mid + w[pos + 2:])
                    got = memo.get(key)
                    if got is None:
                        red = find(key[1], start)
                        if red is not None:
                            break
                        # irreducible, so memoized; no acc holds it yet,
                        # since a word enters an acc only once memoized
                        memo[key] = ((key, 1),)
                        acc[key] = c
                    elif got:
                        _accumulate(acc, got, c)
                else:
                    red = None
                    stack.pop()
                    memo[parent] = acc = tuple(acc.items())
                    if not stack:
                        return acc
                    if acc:
                        _accumulate(stack[-1][4], acc, coef)
        finally:
            budget.left = left

    def _rule_terms(self, p: Word, rule: RewriteRule) -> tuple[list, list]:
        """rule's right-hand side as it rewrites P*w, for an even and for
        an odd head of w before the redex: two lists of (coefficient, P
        with the term's parameters merged in, the term's other letters).

        The term's parameters move ahead with the Koszul sign, past the
        head and then into P; a term with a repeated odd parameter is zero
        and left out.  The lists are one list when no term has odd
        parameters.  A nonempty P starts from the terms for the empty P.
        """
        if p:
            if ((), rule.lhs) not in self._terms:
                self._terms[(), rule.lhs] = self._rule_terms((), rule)
            terms = self._terms[(), rule.lhs][0]
        else:
            terms = []
            for m in rule.rhs.words():
                sign, front, blocks = self._split(m)
                if sign:
                    terms.append((rule.rhs._t[m] * sign, front, sum(blocks, ())))
        even, odd = [], []
        for c, front, mid in terms:
            passes = sum(map(self._parity.__getitem__, front)) & 1
            if front and p:
                merged = self._merged.get((p, front))
                if merged is None:
                    merged = self._merged[p, front] = self._split(p + front)[:2]
                sign, front = merged
                if not sign:
                    continue
                c = c * sign
            term = (c, front or p, mid)
            even.append(term)
            odd.append((-c, *term[1:]) if passes else term)
        return (even, even) if even == odd else (even, odd)


class CriticalPair(namedtuple("CriticalPair",
                               "word rule_a rule_b branch_a branch_b")):
    """An overlap word with rule_a applied at position 0 and rule_b at
    position 1, and the one-step result of each."""

    __slots__ = ()


def critical_pairs(pres: Presentation, max_len: int = 4) -> list[CriticalPair]:
    """All words up to max_len admitting two overlapping rule applications.

    Every left-hand side has two letters, so the overlaps are the words
    u*v*w with a rule for u*v and one for v*w, rewritten at positions 0
    and 1 (Bergman 1978): each such pair of rules gives one word, of length
    3.  Disjoint applications commute and are not critical.  Each overlap
    is emitted once with both one-step results, in the order of its word.
    """
    if max_len < 3:
        return []
    out = []
    for ra in pres.rules:
        for rb in pres.rules:
            if ra.lhs[1] != rb.lhs[0]:
                continue
            out.append(CriticalPair(
                ra.lhs + rb.lhs[1:], ra, rb,
                ra.rhs * Expression.from_word(rb.lhs[1:]),
                Expression.from_word(ra.lhs[:1]) * rb.rhs))
    out.sort(key=attrgetter("word"))
    return out


class ConfluenceFailure(namedtuple("ConfluenceFailure", "word nf_a nf_b")):
    """A critical pair whose two branches, the rewrites of its word at
    positions 0 and 1, reduce to different normal forms nf_a and nf_b."""

    __slots__ = ()


class ConfluenceReport(namedtuple("ConfluenceReport",
                                  "presentation pairs_checked failures")):
    """Outcome of a scan: counts, and the non-joinable pairs as a tuple of
    ConfluenceFailure."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def check_local_confluence(
    pres: Presentation, max_len: int = 4, fuel: int | Budget = DEFAULT_FUEL
) -> ConfluenceReport:
    """Reduce both branches of every critical pair on one budget; compare.
    Every overlap word has three letters, so any max_len of at least 3
    scans them all."""

    budget = Budget.of(fuel)
    failures = []
    pairs = critical_pairs(pres, max_len)
    for cp in pairs:
        na = pres.normal_form(cp.branch_a, budget)
        nb = pres.normal_form(cp.branch_b, budget)
        if na != nb:
            failures.append(ConfluenceFailure(cp.word, na, nb))
    return ConfluenceReport(pres.name, len(pairs), tuple(failures))


class Morphism:
    """Algebra homomorphism given by total generator images, a parameter
    fixed unless given one (_checked_images)."""

    def __init__(self, source: Presentation, target: Presentation, images: Mapping[str, Expression], name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        self.images = _checked_images(source, target, images)
        for gid in source.gens:
            if gid not in self.images:
                raise MissingImage(
                    f"{name or 'morphism'} lacks an image for generator {gid}"
                )

    def apply(self, expr: Expression, fuel: int | Budget = DEFAULT_FUEL) -> Expression:
        """The normal form of expr's image.  Each term's word is folded,
        letter image by letter image, through one target multiplier on a
        budget of fuel steps; _term says which word, image and coefficient.

        The budget keeps the normal form of the image of every word prefix
        this map has folded on it, using image(w*l) = mul(image(w),
        image(l)), and each word is folded on from its longest prefix held
        there.  Like the target's memo, these images go with the budget,
        and memory grows with the words it met.
        """
        self.source._validate_expr(expr)
        budget = Budget.of(fuel)
        mul = self.target.multiplier(budget)
        prefixes = budget.memo(self, "prefixes")
        acc = {}
        for word in expr.words():
            word, image, c = self._term(word, expr._t[word])
            _accumulate(acc, _fold(prefixes, word, image, mul)._t.items(), c)
        return _expr_raw(acc)

    def _term(self, word: Word, c: int | Scalar):
        """The word to fold, its letters' image lookup, and the coefficient
        of the fold for the term c*word, c as stored."""
        return word, self.images.__getitem__, c


class Involution(Morphism):
    """Antilinear antihomomorphism with dagger(u*v) = dagger(v)*dagger(u):
    a map of a presentation to itself that folds the letter images last
    first and conjugates the coefficient (i -> -i, optionally with p and q
    swapped).

    Images may be partial, a parameter fixed unless given one; applying to
    an uncovered generator raises MissingImage.  Involutivity is checked on
    the covered generators.
    """

    def __init__(self, presentation: Presentation, images: Mapping[str, Expression], swap_pq: bool = False, name: str = ""):
        self.source = self.target = presentation
        self.swap_pq = swap_pq
        self.name = name
        self.images = _checked_images(presentation, presentation, images)
        budget = Budget(DEFAULT_FUEL)
        for gid in self.images:
            g = Expression.from_gen(gid)  # a normal form: no rule has one letter
            if self.apply(self.apply(g, budget), budget) != g:
                raise NotInvolutive(
                    f"{name or 'involution'} fails to square to the identity on {gid}"
                )

    # its own entry, so that a wrapper of Morphism.apply leaves it alone
    apply = Morphism.apply

    def _term(self, word: Word, c: int | Scalar):
        return word[::-1], self._image, c if type(c) is int else c.conj(self.swap_pq)

    def _image(self, gid: str) -> Expression:
        img = self.images.get(gid)
        if img is None:
            raise MissingImage(
                f"{self.name or 'involution'} has no image for generator {gid}"
            )
        return img


def _checked_images(source: Presentation, target: Presentation,
                    images: Mapping[str, Expression]) -> dict[str, Expression]:
    """images as a dict, checked to be Expressions over target keyed by
    generators of source; each parameter of source that target declares
    goes to itself unless given an image, last in declaration order."""
    out: dict[str, Expression] = {}
    for gid, e in images.items():
        if gid not in source.gens:
            raise RuleError(f"image given for unknown generator {gid}")
        target._validate_expr(e)
        out[gid] = e
    for gid, g in source.gens.items():
        if g.klass is GenClass.PARAMETER and gid in target.gens:
            out[gid] = out.pop(gid, Expression.from_gen(gid))
    return out


def _fold(memo: dict, word: Word, image, mul) -> Expression:
    """mul's normal form of image(word[0]) * ... * image(word[-1]).

    memo maps word prefixes to the normal forms of their images.  The fold
    starts from the longest prefix in memo and adds each longer prefix once
    its product is complete, so a FuelExhausted leaves no partial entry.
    """
    k = len(word)
    while k and word[:k] not in memo:
        k -= 1
    prod = memo[word[:k]] if k else _E_ONE
    for j in range(k, len(word)):
        prod = mul(prod, image(word[j]))
        memo[word[:j + 1]] = prod
    return prod

