"""Expression text format: tokenizer, parser, the one writer of the text.

Grammar (whitespace-insensitive):

    expr   := term (("+" | "-") term)*
    term   := ("-" | "+")* power (("*" | "/") power | power)*
    power  := atom ("^" integer)?
    atom   := integer | identifier | "(" expr ")" | "inv" "(" identifier ")"

Juxtaposition multiplies.  An exponent may not exceed MAX_EXPONENT = 1000,
since x^N builds an N-letter word.  Parentheses may not nest deeper than
MAX_NESTING = 100: the parser and the evaluator recurse at each level, and
deeper text would reach the interpreter's recursion limit instead of giving
a syntax error.  The parentheses of inv(x) do not nest.  The identifiers i,
p and q are reserved scalar atoms; every other identifier must name a
generator of the presentation the text is parsed against.  Division is only
defined by scalar values.

The text is parsed into a small tree first, so that a syntax error, an
exponent above the bound or an unknown generator anywhere in it is reported
before any arithmetic is done.  Evaluating the tree forms every product
("*", juxtaposition, "^") through a product hook: by default the free
product, which keeps the text as written, as rule tables need; a
presentation's multiplier reduces each product as it is formed, all on that
multiplier's one fuel budget.

The writer renders expressions and their Q(i)(p,q) coefficients alike:
str() of GaussianRational, Poly and Scalar calls it, so all text the
package prints reads back.  _join writes every sum, and _times every
coefficient times i, p^i*q^j or a word, leaving out a factor 1 or -1.
"""

from __future__ import annotations

import operator
import re

from superplane.algebra import Expression, Presentation
from superplane.scalars import (DivisionByZero, GaussianRational, Poly,
                                Scalar, power)


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownGenerator(ExprSyntaxError):
    """An identifier does not name a generator of the presentation."""

    def __init__(self, gid: str, pos: int):
        super().__init__(f"unknown generator {gid!r}", pos)
        self.gid = gid


# the last group catches any other character, so that every character but
# trailing whitespace falls in some token
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()])|(\S))")

MAX_EXPONENT = 1000
MAX_NESTING = 100

_RESERVED = {"i": Scalar.i, "p": Scalar.p, "q": Scalar.q}


def _tokenize(text: str):
    toks = []
    for m in _TOKEN.finditer(text):
        num, name, op, other = m.groups()
        if other is not None:
            raise ExprSyntaxError(f"unexpected character {other!r}", m.start())
        if num is not None:
            toks.append(("num", num, m.start(1)))
        elif name is not None:
            toks.append(("name", name, m.start(2)))
        else:
            toks.append(("op", op, m.start(3)))
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over the tokens, building the tree that _evaluate
    reads.  A node is an Expression (a number, reserved scalar or
    generator), ("^", node, n), ("sum", node, [(op, node), ...]) for + and -,
    or ("term", sign, node, [(op, node, pos), ...]) for * and /, pos being
    where a "/" stands."""

    def __init__(self, toks, pres: Presentation):
        self.toks = toks
        self.i = 0
        self.pres = pres
        self.depth = 0  # open parentheses

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse_expr(self):
        first = self.parse_term()
        rest = []
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rest.append((val, self.parse_term()))
            else:
                return ("sum", first, rest) if rest else first

    def parse_term(self):
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    sign = -sign
            else:
                break
        first = self.parse_power()
        rest = []
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rest.append((val, self.parse_power(), pos))
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                rest.append(("*", self.parse_power(), pos))
            else:
                break
        return ("term", sign, first, rest) if rest or sign != 1 else first

    def parse_power(self):
        e = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k2, v2, p2 = self.next()
            if k2 != "num":
                raise ExprSyntaxError("exponent must be a nonnegative integer", p2)
            # compare digit counts first: int() rejects very long digit strings
            digits = v2.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent above {MAX_EXPONENT}", p2)
            e = ("^", e, int(digits))
        return e

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            try:
                return Expression({(): int(val)})
            except ValueError:  # longer than int() converts
                raise ExprSyntaxError("integer literal too long", pos) from None
        if kind == "name":
            maker = _RESERVED.get(val)
            if maker is not None:
                return Expression({(): maker()})
            if val == "inv":
                kind2, val2, _ = self.peek()
                if kind2 == "op" and val2 == "(":
                    self.next()
                    k3, v3, p3 = self.next()
                    if k3 != "name":
                        raise ExprSyntaxError("inv() wants a generator name", p3)
                    self.expect_op(")")
                    gid = v3 + "inv"
                    if gid not in self.pres.gens:
                        raise UnknownGenerator(gid, p3)
                    return Expression.from_gen(gid)
            if val not in self.pres.gens:
                raise UnknownGenerator(val, pos)
            return Expression.from_gen(val)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", pos)
            e = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", pos)


def _evaluate(node, product) -> Expression:
    """The value of a _Parser node, its products formed left to right
    with product(a, b)."""
    if isinstance(node, Expression):
        return node
    if node[0] == "^":
        return power(_evaluate(node[1], product), node[2], Expression.one(),
                     product)
    if node[0] == "sum":
        e = _evaluate(node[1], product)
        for op, t in node[2]:
            t = _evaluate(t, product)
            e = e + t if op == "+" else e - t
        return e
    _, sign, first, rest = node
    e = _evaluate(first, product)
    for op, f, pos in rest:
        f = _evaluate(f, product)
        if op == "*":
            e = product(e, f)
        else:
            e = e.scale(Scalar.one() / _scalar_value(f, pos))
    return e if sign == 1 else -e


def _scalar_value(e: Expression, pos: int) -> Scalar:
    ts = e.terms()
    if not ts:
        raise DivisionByZero("division by zero in expression")
    if len(ts) == 1 and ts[0][0] == ():
        return ts[0][1]
    raise ExprSyntaxError("division is only defined by scalar values", pos)


def parse_expression(text: str, pres: Presentation,
                     product=operator.mul) -> Expression:
    """Parse text into an Expression over the presentation's generators,
    forming every product with product(a, b).  The whole text is read, and
    its syntax, exponents and generators checked, before the first
    product is formed."""
    parser = _Parser(_tokenize(text), pres)
    tree = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", pos)
    return _evaluate(tree, product)


# ------------------------------------------------------------- rendering


def _join(terms: list[str]) -> str:
    """The sum of the term texts, a term that starts with "-" subtracted."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _times(factor: str, body: str) -> str:
    """factor*body, or factor when body is empty; a factor 1 or -1 is
    written as body or its negative."""
    if not body:
        return factor
    if factor == "1":
        return body
    if factor == "-1":
        return "-" + body
    return f"{factor}*{body}"


def render_gaussian(c: GaussianRational) -> str:
    """str(c): re + im*i, a part 0 left out."""
    if c.d == 1 and not c.b:
        return str(c.a)
    re, im = c.re, c.im
    terms = [str(re)] if re else []
    if im:
        terms.append(_times(str(im), "i"))
    return _join(terms)


def _gauss_factor(c: GaussianRational) -> str:
    # a factor or a term that still binds in a product or a sum
    s = render_gaussian(c)
    return f"({s})" if c.a and c.b else s


def _mono_text(m: tuple[int, int]) -> str:
    # p^i*q^j, a power 1 written as the letter and a power 0 left out
    i, j = m
    p = "" if not i else "p" if i == 1 else f"p^{i}"
    q = "" if not j else "q" if j == 1 else f"q^{j}"
    return f"{p}*{q}" if p and q else p or q


def render_poly(f: Poly) -> str:
    """str(f): its terms in descending graded-lex order."""
    return _join([_times(_gauss_factor(c), _mono_text(m)) for m, c in f.items()])


def render_scalar(c: Scalar) -> str:
    """str(c): num, or (num)/(den) when den is not 1."""
    k = c.const
    if k is not None:  # what render_poly(c.num) writes, without its sort
        return _gauss_factor(k)
    if c.den == Poly.one():
        return render_poly(c.num)
    return f"({render_poly(c.num)})/({render_poly(c.den)})"


def _word_text(word) -> str:
    """word's letters joined by "*", each run of one letter as its power."""
    bits = []
    n = 0
    for i, gid in enumerate(word, 1):
        n += 1
        if i == len(word) or word[i] != gid:
            bits.append(gid if n == 1 else f"{gid}^{n}")
            n = 0
    return "*".join(bits)


def _term_text(word, c: Scalar) -> str:
    factor = render_scalar(c)
    if word and len(c.num) > 1 and c.den == Poly.one():
        # in parentheses a sum still binds when "*word" is appended
        factor = f"({factor})"
    return _times(factor, _word_text(word))


def render_expression(expr: Expression) -> str:
    """Deterministic canonical text; parses back to an equal Expression."""
    return _join([_term_text(word, c) for word, c in expr.terms()])


# ---------------------------------------------------- presentation dumps


def render_presentation(pres: Presentation) -> str:
    """Stable one-file description: header, generators, sorted rules."""
    lines = [f"presentation {pres.name} complete={int(pres.require_complete)}"]
    for g in sorted(pres.gens.values(), key=lambda d: d.sort_key):
        lines.append(
            f"gen {g.id} parity={g.parity} class={g.klass.value} "
            f"key={g.sort_key} weight={g.weight}"
        )
    def lhs_key(r):
        return tuple(pres.gens[x].sort_key for x in r.lhs)

    for r in sorted(pres.rules, key=lhs_key):
        lines.append(f"rule {' '.join(r.lhs)} -> {render_expression(r.rhs)}")
    return "\n".join(lines) + "\n"


def fingerprint(pres: Presentation) -> str:
    """sha256 of the rendered presentation dump, computed once per
    presentation: its generators and rules do not change.  The dump is
    output only; nothing reads it back."""
    if pres._fingerprint is None:
        # hashlib loads OpenSSL, which no command but verify needs
        import hashlib

        text = render_presentation(pres).encode()
        pres._fingerprint = hashlib.sha256(text).hexdigest()
    return pres._fingerprint
