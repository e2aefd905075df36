"""Seeded reduce-mix request stream and the oracles that check its outputs.

A request is (presentation name, expression text): what a user types at
`superplane reduce`.  Texts are sums of products of generator letters with
small powers, inverse letters spelled inv(g), parameter letters, and
coefficients that include genuine rational functions of p and q.
"""

from __future__ import annotations

import random

CORPUS_SEED = 20011

# coefficient atoms: integers, i, and rational functions of p and q whose
# numerator and denominator share no factor, so canonical forms need real
# bivariate gcd work
_NUMERATORS = ("1", "2", "i", "(1 + i)", "p", "q", "(p - q)",
               "(p*q - 1)", "(p + 2*q)", "(p^2 - q)", "(2*p*q + i)")
_DENOMINATORS = ("(p - 1)", "(q - 1)", "(p + q)", "(p*q + 1)", "(q - 2*p)",
                 "(p^2 + q^2)", "(1 + i*p)")


def letters_of(pres) -> tuple[list[str], list[str]]:
    """Typable atoms of a presentation: plain letters (inv(g) for adjoined
    inverses) and parameter letters."""
    plain, params = [], []
    for gid, decl in pres.gens.items():
        if decl.klass.value == "parameter":
            params.append(gid)
        elif decl.klass.value == "inverse":
            plain.append(f"inv({gid[:-len('inv')]})")
        else:
            plain.append(gid)
    return plain, params


def _coefficient(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.3:
        return str(rng.randint(2, 5))
    num = rng.choice(_NUMERATORS)
    if kind < 0.55:
        return num
    return f"{num}/{rng.choice(_DENOMINATORS)}"


def _term(rng: random.Random, plain: list[str], params: list[str]) -> str:
    parts = []
    if rng.random() < 0.8:
        parts.append(_coefficient(rng))
    if params and rng.random() < 0.3:
        parts.append(rng.choice(params))
    for _ in range(rng.randint(1, 3)):
        letter = rng.choice(plain)
        if rng.random() < 0.2:
            letter += f"^{rng.choice((2, 3))}"
        parts.append(letter)
    if rng.random() < 0.15:
        a, b = rng.sample(plain, 2)
        parts.insert(rng.randint(0, len(parts)), f"({a} {rng.choice('+-')} {b})^2")
    return "*".join(parts)


def request_stream(seed: int, atoms: dict[str, tuple[list[str], list[str]]],
                   count: int) -> list[tuple[str, str]]:
    """count requests over the presentations in atoms (name -> letters_of
    result), in an order given by seed; the same seed gives the same list.

    The requests themselves are drawn once, from CORPUS_SEED, interleaved
    round-robin over the presentations; seed only shuffles them.  A fixed
    corpus keeps the work per run equal across seeds, so the spread between
    runs is the host's alone, while the order still decides which requests
    meet a warm memo.
    """
    rng = random.Random(CORPUS_SEED)
    names = sorted(atoms)
    out = []
    for k in range(count):
        name = names[k % len(names)]
        plain, params = atoms[name]
        text = _term(rng, plain, params)
        for _ in range(rng.randint(0, 2)):
            text += rng.choice((" + ", " - ")) + _term(rng, plain, params)
        out.append((name, text))
    random.Random(seed).shuffle(out)
    return out


def redexes(pres, word) -> list:
    """Every (position, rule) that applies somewhere in word."""
    return [(pos, rule) for pos in range(len(word)) for ln in (1, 2)
            if pos + ln <= len(word)
            and (rule := pres.rule_for(word[pos:pos + ln])) is not None]


def well_founded(pres) -> bool:
    """No generator of negative weight, so the word order is well-founded
    and every rewriting strategy terminates.  With adjoined inverses it is
    not: a randomly chosen redex can rewrite forever where the leftmost one
    stops."""
    return all(g.weight >= 0 for g in pres.gens.values())


def random_reduce(pres, expr, rng: random.Random, max_words: int = 200_000):
    """Normal form by rewriting, in each word, a redex chosen at random.

    Each word is reduced once, children before parents, with a memo of its
    own.  On a confluent terminating system every strategy reaches the same
    normal form, so this must agree with the engine's leftmost strategy.
    """
    from superplane import Expression, Scalar

    memo: dict = {}      # word -> {irreducible word: coefficient}
    children: dict = {}  # word -> [(coefficient, rewritten word)]
    for top in expr.words():
        stack = [top]
        while stack:
            word = stack[-1]
            if word in memo:
                stack.pop()
                continue
            if word not in children:
                if len(children) >= max_words:
                    raise RuntimeError(f"random-strategy reduction passed "
                                       f"{max_words} words")
                found = redexes(pres, word)
                if not found:
                    memo[word] = {word: Scalar.one()}
                    continue
                pos, rule = found[rng.randrange(len(found))]
                tail = pos + len(rule.lhs)
                children[word] = [(c, word[:pos] + m + word[tail:])
                                  for m, c in rule.rhs.terms()]
            todo = [w for _, w in children[word] if w not in memo]
            if todo:
                # a word expanded but not finished is an ancestor of this one
                for w in todo:
                    if w in children:
                        raise RuntimeError(f"rewriting cycle through {w}")
                stack.extend(todo)
                continue
            acc: dict = {}
            for c, w in children[word]:
                for v, cv in memo[w].items():
                    s = acc.get(v)
                    s = c * cv if s is None else s + c * cv
                    if s.is_zero():
                        acc.pop(v, None)
                    else:
                        acc[v] = s
            memo[word] = acc
    out = Expression.zero()
    for word, c in expr.terms():
        out = out + Expression(memo[word]).scale(c)
    return out
