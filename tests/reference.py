"""A plain reference reducer that the engine's normal forms are checked
against."""

from superplane.algebra import Expression
from superplane.scalars import Scalar


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
