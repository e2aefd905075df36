"""Tests for the graded rewriting engine.

Expected values for the toy presentations here are classical closed forms
(Grassmann sign rules, q-plane reordering q^(m*n), localized swap rules
derived by hand) and are asserted against the engine, never read back from
it.
"""

import operator
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superplane.algebra import (
    DEFAULT_FUEL,
    Budget,
    Expression,
    FuelExhausted,
    GenClass,
    GeneratorDecl,
    IncompletePresentation,
    Involution,
    MissingImage,
    MixedPresentation,
    Morphism,
    NotInvolutive,
    Presentation,
    RewriteRule,
    RuleError,
    check_local_confluence,
    critical_pairs,
    param_swap_rules,
    unit_rules,
)
from superplane.parsing import fingerprint, parse_expression
from superplane.presentations import catalog_presentations, localize
from superplane.scalars import Scalar, power

import reference
from reference import NO_VALUE, at_point, point_copy, reference_nf, rewrite

E = Expression
ONE = Scalar.one()
Q = Scalar.q()


def gen(gid, parity, key, klass=GenClass.STANDARD):
    return GeneratorDecl(gid, parity, klass, key)


def grassmann():
    return Presentation(
        "grassmann",
        [gen("e1", 1, 1), gen("e2", 1, 2)],
        [
            (("e1", "e1"), E({})),
            (("e2", "e2"), E({})),
            (("e2", "e1"), E({("e1", "e2"): -1})),
        ],
    )


def qplane():
    return Presentation(
        "qplane",
        [gen("x", 0, 2), gen("y", 0, 4)],
        [(("y", "x"), E({("x", "y"): Q}))],
    )


def qmix():
    # even x, odd e with e*x = q*x*e and e^2 = 0; confluent by inspection
    return Presentation(
        "qmix",
        [gen("x", 0, 1), gen("e", 1, 2)],
        [
            (("e", "x"), E({("x", "e"): Q})),
            (("e", "e"), E({})),
        ],
    )


def koszul_qmix(flip=False):
    # qmix with an odd parameter h, its swaps given; flip makes h commute
    # with e instead of anticommuting, which a central parameter cannot
    decls = [gen("h", 1, 0, GenClass.PARAMETER), gen("x", 0, 1), gen("e", 1, 2)]
    swaps = [
        RewriteRule(r.lhs, -r.rhs) if flip and r.lhs == ("e", "h") else r
        for r in param_swap_rules(decls)
    ]
    return Presentation("koszul-qmix", decls, swaps + list(qmix().rules))


def xye(e_key):
    # even x < y with y*x = q*x*y and an odd e that supercommutes with both;
    # e_key places e between x and y or above both
    decls = [gen("x", 0, 1), gen("y", 0, 3), gen("e", 1, e_key)]
    rules = [(("y", "x"), E({("x", "y"): Q})), (("e", "e"), E({}))]
    for d in decls[:2]:
        hi, lo = ("e", d.id) if e_key > d.sort_key else (d.id, "e")
        rules.append(((hi, lo), E({(lo, hi): 1})))
    return Presentation("xye", decls, rules)


def covariance_flipped(catalog):
    # covariance with the (th, ga) cross rule given the sign of two even
    # letters, so it is no Koszul swap
    p = catalog.covariance_tensor
    rules = [RewriteRule(r.lhs, -r.rhs) if r.lhs == ("th", "ga") else r
             for r in p.rules]
    return Presentation(p.name, p.gens.values(), rules, p.require_complete)


def draw_words(seed, count, letters, lengths, params=(), inserts=(0, 0)):
    """count words drawn from random.Random(seed): letters to a length in
    the closed range lengths, then a number in inserts of params, each put
    in at a random place."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word = [rng.choice(letters) for _ in range(rng.randint(*lengths))]
        for h in rng.choices(params, k=rng.randint(*inserts)):
            word.insert(rng.randint(0, len(word)), h)
        words.append(tuple(word))
    return words


def assert_strategy_independent(pres, words, rng, warm=None):
    """pres.normal_form of each word, on a fresh budget and on warm when
    given, equals reference_nf rewriting at redexes drawn from rng."""
    for word in words:
        expr = E({word: 1})
        want = reference_nf(pres, expr, rng)
        assert pres.normal_form(expr) == want, word
        if warm is not None:
            assert pres.normal_form(expr, warm) == want, word


words_xe = st.lists(st.sampled_from(["x", "e"]), max_size=5).map(tuple)
exprs_xe = st.builds(
    Expression, st.dictionaries(words_xe, st.integers(-3, 3), max_size=3)
)


class TestExpression:
    def test_zero_terms_dropped(self):
        assert E({("x",): 0}).is_zero()
        assert E({("x",): 1}) + E({("x",): -1}) == E.zero()
        assert not E({("x",): 1}).is_zero()

    def test_free_product_is_concatenation(self):
        a = E({("e1",): 1}) + E({("e2",): 1})
        b = E({("e1",): 1}) - E({("e2",): 1})
        prod = a * b
        # no rewriting happens at the product level, all four words survive
        assert prod == E(
            {
                ("e1", "e1"): 1,
                ("e1", "e2"): -1,
                ("e2", "e1"): 1,
                ("e2", "e2"): -1,
            }
        )

    def test_scaling_and_coefficient(self):
        a = E({("x",): Fraction(1, 2)})
        assert a.scale(2) == E({("x",): 1})
        assert (Scalar.i() * a).coefficient(("x",)) == Scalar.i() * Scalar(Fraction(1, 2))
        assert a.coefficient(("y",)) == Scalar(0)
        assert a.scale(0) == E.zero()
        assert a and not E.zero()

    def test_scalar_factor_on_either_side(self):
        a = E({("x",): 1, ("y",): Fraction(1, 2)})
        for k in (2, Fraction(-1, 3), Scalar.i(), Scalar.p()):
            assert a * k == k * a == a.scale(k)

    @pytest.mark.parametrize("other", [None, 0.5])
    def test_foreign_operands(self, other):
        # an operand that is no Expression goes back to Python
        # (NotImplemented), which raises TypeError, and so does a left
        # factor that is no scalar; equality with it is false; a
        # coefficient must be a scalar and a letter a str
        a = E({("x",): 1})
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, other)
        with pytest.raises(TypeError):
            other * a
        assert a != other
        with pytest.raises(TypeError):
            E({("x",): other})
        with pytest.raises(TypeError):
            E({("x", other): 1})

    def test_power_and_sum(self):
        a = E({("x",): 1})
        assert power(a, 3, E.one()) == E({("x", "x", "x"): 1})
        assert power(a, 0, E.one()) == E.one()
        assert sum([a, a], E.zero()) == a.scale(2)

    def test_equal_values_whatever_is_stored(self):
        # an integer is stored as an int, and a Scalar that arithmetic made
        # stays one; equal values still make equal Expressions, with equal
        # normal forms at equal fuel, and the read methods hand out Scalars.
        # A toy presentation, so that a fault here fails this test rather
        # than the catalog build
        pres = xye(2)
        word = ("e", "x")
        inputs = [E({word: c}) for c in
                  (2, Fraction(4, 2), Scalar(2))]
        inputs.append(parse_expression("2*p*e*x/p", pres))
        assert type(inputs[0]._t[word]) is int
        assert type(inputs[-1]._t[word]) is Scalar
        for e in inputs:
            assert e == inputs[0] and hash(e) == hash(inputs[0])
        one = parse_expression("p*x/p", pres)
        assert one == E({("x",): 1}) and hash(one) == hash(E({("x",): 1}))
        assert one.coefficient(("x",)) == 1
        forms, spent = set(), set()
        for e in inputs:
            budget = Budget(DEFAULT_FUEL)
            forms.add(pres.normal_form(e, budget))
            spent.add(budget.fuel - budget.left)
        assert len(forms) == 1 and len(spent) == 1 and spent != {0}
        for got in [*inputs, *forms, one]:
            for w, c in got.terms():
                assert type(c) is Scalar and type(got.coefficient(w)) is Scalar
            assert type(got.coefficient(("th",))) is Scalar
        assert inputs[0].scale(1) is inputs[0]
        assert inputs[0].scale(0) == E.zero()

    def test_terms_deterministic_order(self):
        e = E({("y",): 1, ("x",): 1, (): 1, ("x", "y"): 1})
        assert [w for w, _ in e.terms()] == [(), ("x",), ("y",), ("x", "y")]

    @given(exprs_xe, exprs_xe, exprs_xe)
    def test_free_algebra_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == E.zero()


class TestRuleValidation:
    # the messages are pinned word for word: each names the rule and the
    # first failing word of its right-hand side in terms() order

    def test_rejects_non_descending(self):
        with pytest.raises(RuleError, match=re.escape(
                "rule ('x', 'y') does not strictly descend at rhs word "
                "('y', 'x') in bad")):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [(("x", "y"), E({("y", "x"): 1}))],
                require_complete=False,
            )

    def test_rejects_rhs_containing_lhs(self):
        with pytest.raises(RuleError, match=re.escape(
                "rule ('y', 'x') does not strictly descend at rhs word "
                "('y', 'x') in bad")):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [(("y", "x"), E({("y", "x"): Q, ("x", "y"): 1}))],
                require_complete=False,
            )

    @pytest.mark.parametrize("rhs, failing", [
        # a longer word and an unknown letter come first in the dict, the
        # shorter non-descending word first in terms() order
        ({("y", "x", "x"): 1, ("y", "y"): 1, ("x", "y"): 1},
         "rule ('y', 'x') does not strictly descend at rhs word ('y', 'y')"),
        ({("z", "z", "z"): 1, ("y", "y"): 1},
         "rule ('y', 'x') does not strictly descend at rhs word ('y', 'y')"),
        ({("y", "y"): 1, ("x", "z"): 1},
         "unknown generator 'z' in rule rhs for ('y', 'x')"),
    ])
    def test_names_the_first_failing_rhs_word(self, rhs, failing):
        with pytest.raises(RuleError, match=re.escape(failing)):
            Presentation("bad", [gen("x", 0, 2), gen("y", 0, 4)],
                         [(("y", "x"), E(rhs))], require_complete=False)

    def test_rejects_bad_lhs_length(self):
        with pytest.raises(RuleError, match=re.escape(
                "rule lhs must have length 2, got ('x', 'x', 'x')")):
            Presentation(
                "bad",
                [gen("x", 0, 2)],
                [(("x", "x", "x"), E({}))],
                require_complete=False,
            )
        with pytest.raises(RuleError, match=re.escape(
                "rule lhs must have length 2, got ()")):
            Presentation("bad", [gen("x", 0, 2)], [((), E({}))], require_complete=False)
        with pytest.raises(RuleError, match=re.escape(
                "rule lhs must have length 2, got ('x',)")):
            Presentation("bad", [gen("x", 0, 2)], [(("x",), E({}))], require_complete=False)

    def test_rejects_duplicate_lhs_and_unknown_gens(self):
        with pytest.raises(RuleError, match=re.escape(
                "duplicate rule for ('y', 'x') in bad")):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [
                    (("y", "x"), E({("x", "y"): Q})),
                    (("y", "x"), E({("x", "y"): 1})),
                ],
            )
        decls = [gen("h", 1, 0, GenClass.PARAMETER), gen("x", 0, 1)]
        swap = param_swap_rules(decls)[0]  # a given swap is a rule like any
        with pytest.raises(RuleError, match=re.escape(
                "duplicate rule for ('x', 'h') in bad")):
            Presentation("bad", decls, [swap, swap])
        with pytest.raises(RuleError, match=re.escape(
                "unknown generator 'z' in rule lhs ('x', 'z') (bad)")):
            Presentation(
                "bad",
                [gen("x", 0, 2)],
                [(("x", "z"), E({}))],
                require_complete=False,
            )
        with pytest.raises(RuleError, match=re.escape(
                "unknown generator 'z' in rule rhs for ('x', 'x') (bad)")):
            Presentation(
                "bad",
                [gen("x", 0, 2)],
                [(("x", "x"), E({("z",): 1}))],
                require_complete=False,
            )

    @pytest.mark.parametrize("parity, rule, lhs", [
        # the swap of x and h with the wrong sign, a rule on an ordered pair
        # that has no swap, and a square of an even h, which has none
        (1, (("x", "h"), E({("h", "x"): -1})), "('x', 'h')"),
        (1, (("h", "x"), E({})), "('h', 'x')"),
        (0, (("h", "h"), E({("h",): 1})), "('h', 'h')"),
    ])
    def test_rejects_parameter_rule_that_is_no_swap(self, parity, rule, lhs):
        decls = [gen("h", parity, 0, GenClass.PARAMETER), gen("x", 0, 1)]
        with pytest.raises(RuleError, match=re.escape(
                f"rule {lhs} mentions a parameter but is not in "
                "param_swap_rules (bad)")):
            Presentation("bad", decls, [rule])

    @pytest.mark.parametrize("name", ["pq-calculus", "h-calculus", "supergroup",
                                      "covariance", "one-forms", "oscillator"])
    def test_parameter_swaps_given_or_not_build_one_presentation(
            self, catalog, name):
        # without the swaps, with them first, and as a copy of the rules of
        # the catalog presentation, as the benchmark copies it
        p = catalog_presentations(catalog)[name]
        decls = list(p.gens.values())
        swaps = param_swap_rules(decls)
        own = [r for r in p.rules if r not in swaps]
        complete = p.require_complete
        built = [Presentation(p.name, decls, own, complete),
                 Presentation(p.name, decls, swaps + own, complete),
                 Presentation(p.name, p.gens.values(), p.rules, complete)]
        assert [b.rules for b in built] == [p.rules] * 3
        assert {fingerprint(b) for b in built} == {fingerprint(p)}
        letters = sorted(g for g, d in p.gens.items() if d.klass is not GenClass.PARAMETER)
        for word in draw_words(f"given-{name}", 20, letters, (1, 4),
                               ["h1", "h2"], (0, 2)):
            expr = E({word: 1})
            assert {b.normal_form(expr) for b in built} == {p.normal_form(expr)}

    def test_rejects_duplicate_sort_keys(self):
        with pytest.raises(RuleError):
            Presentation("bad", [gen("x", 0, 2), gen("y", 0, 2)], [])
        with pytest.raises(RuleError, match="duplicate generator x"):
            Presentation("bad", [gen("x", 0, 2), gen("x", 0, 3)], [])

    def test_completeness_check(self):
        with pytest.raises(IncompletePresentation):
            # missing the rule for the disordered pair (e2, e1)
            Presentation(
                "bad",
                [gen("e1", 1, 1), gen("e2", 1, 2)],
                [(("e1", "e1"), E({})), (("e2", "e2"), E({}))],
            )
        with pytest.raises(IncompletePresentation):
            # missing the square rule for an odd generator
            Presentation(
                "bad",
                [gen("e1", 1, 1), gen("e2", 1, 2)],
                [(("e2", "e1"), E({("e1", "e2"): -1})), (("e2", "e2"), E({}))],
            )

    def test_unit_rule_at_equal_weighted_degree_is_accepted(self):
        pres = Presentation(
            "unit",
            [gen("g", 0, 1), gen("ginv", 0, 2, GenClass.INVERSE)],
            [(("g", "ginv"), E.one()), (("ginv", "g"), E.one())],
            require_complete=False,
        )
        assert pres.normal_form(E({("g", "ginv"): 1})) == E.one()


class TestRecords:
    @pytest.mark.parametrize("make", [
        lambda: GeneratorDecl("x", 0),
        lambda: RewriteRule(["e2", "e1"], E({("e1", "e2"): -1})),
        lambda: critical_pairs(grassmann())[0],
        lambda: check_local_confluence(grassmann()),
    ])
    def test_immutable_values(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        field = a._fields[0]
        assert repr(a).startswith(f"{type(a).__name__}({field}=")
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            a.extra = None

    def test_generator_checks_and_default_weight(self):
        for bad in ("", 7):
            with pytest.raises(RuleError):
                GeneratorDecl(bad, 0)
        with pytest.raises(RuleError):
            GeneratorDecl("x", 2)
        weights = {k: GeneratorDecl("g", 0, k).weight for k in GenClass}
        assert weights == {GenClass.PARAMETER: 0, GenClass.STANDARD: 1,
                           GenClass.INVERSE: -1}
        assert GeneratorDecl("g", 1, sort_key=4) == gen("g", 1, 4)

    def test_rule_coerces_its_parts(self):
        # the lhs becomes a tuple, and the rhs is an Expression as given
        r = RewriteRule(["e2", "e1"], E({("e1", "e2"): -1}))
        assert r.lhs == ("e2", "e1")
        assert r == RewriteRule(lhs=("e2", "e1"), rhs=r.rhs)


class TestNormalForm:
    def test_grassmann_signs(self):
        g = grassmann()
        assert g.normal_form(E({("e2", "e1"): 1})) == E({("e1", "e2"): -1})
        assert g.normal_form(E({("e2", "e1", "e2"): 1})).is_zero()
        sq = E({("e1",): 1, ("e2",): 1}) * E({("e1",): 1, ("e2",): 1})
        assert g.normal_form(sq).is_zero()

    def test_qplane_closed_form(self):
        pres = qplane()
        for m in range(4):
            for n in range(4):
                word = ("y",) * m + ("x",) * n
                expected = E({("x",) * n + ("y",) * m: power(Q, m * n, 1)})
                assert pres.normal_form(E({word: 1})) == expected

    def test_normal_form_of_constants(self):
        pres = qplane()
        assert pres.normal_form(E.one()) == E.one()
        assert pres.normal_form(E.zero()).is_zero()

    @given(exprs_xe, exprs_xe)
    def test_linear_and_idempotent(self, a, b):
        pres = qmix()
        na, nb = pres.normal_form(a), pres.normal_form(b)
        assert pres.normal_form(a + b) == na + nb
        assert pres.normal_form(na) == na
        assert pres.normal_form(a * b) == pres.normal_form(na * nb)

    def test_strategy_independence(self):
        # oracle: a reducer that applies rules at randomly chosen positions
        # must agree with the engine's leftmost strategy on a confluent system
        words = draw_words(20260815, 60, "xe", (0, 6))
        assert_strategy_independent(qmix(), words, random.Random(20260815))

    def test_random_strategy_leaves_the_leftmost_redex(self, monkeypatch):
        # a reducer that ignored its rng would rewrite as the leftmost one
        # does, and every random-strategy test would pass by copying it
        pres, expr = qmix(), E({("e", "x", "e", "x"): 1})  # redexes at 0, 2
        seen = []

        def spy(word, pos, rhs, c):
            seen.append(pos)
            return rewrite(word, pos, rhs, c)

        monkeypatch.setattr(reference, "rewrite", spy)
        for seed in range(20):
            seen.clear()
            got = reference_nf(pres, expr, random.Random(seed))
            if seen[0] != 0:
                break
        else:
            pytest.fail("every seed rewrote the leftmost redex first")
        assert got == reference_nf(pres, expr) == pres.normal_form(expr)

    def test_parameter_sort_costs_no_fuel(self):
        # h reaches the front with the sign of passing e and without a rule
        # step; a sign-flipped swap is no rule a central parameter can have
        word = E({("x", "e", "h"): 1})
        assert koszul_qmix().normal_form(word, fuel=0) == E({("h", "x", "e"): -1})
        with pytest.raises(RuleError, match=re.escape("rule ('e', 'h') mentions")):
            koszul_qmix(flip=True)

    def test_parameter_rules_match_random_strategy(self):
        words = draw_words(20261018, 60, "xeh", (0, 7))
        assert_strategy_independent(koszul_qmix(), words,
                                    random.Random(20261018))

    def test_rule_parameters_move_with_their_sign(self):
        # e*x -> x*e*h leaves h behind the odd e: the engine moves it to the
        # front with sign -1 at no fuel, the random reducer by the e*h swap
        decls = [gen("h", 1, 0, GenClass.PARAMETER), gen("x", 0, 1), gen("e", 1, 2)]
        rules = [(("e", "x"), E({("x", "e", "h"): 1})), (("e", "e"), E({}))]
        pres = Presentation("tail-h", decls, param_swap_rules(decls) + rules)
        ex = E({("e", "x"): 1})
        assert pres.normal_form(ex, fuel=1) == E({("h", "x", "e"): -1})
        words = draw_words(20261018, 60, "xeh", (0, 7))
        assert_strategy_independent(pres, words, random.Random(20261018))

    @pytest.mark.parametrize(
        "name", ["pq-calculus", "h-calculus", "one-forms", "oscillator"]
    )
    def test_catalog_matches_random_strategy(self, catalog, name):
        # scattered and repeated parameters, sorted in one pass by the
        # engine and one declared swap rule at a time by the random reducer
        pres = catalog_presentations(catalog)[name]
        letters = sorted(g.id for g in pres.gens.values() if g.klass is GenClass.STANDARD)
        words = draw_words(f"params-{name}", 30, letters, (1, 4),
                           ["h1", "h2"], (1, 3))
        assert_strategy_independent(pres, words, random.Random(f"params-{name}"))

    @pytest.mark.parametrize("flip", [False, True])
    def test_covariance_matches_random_strategy(self, catalog, flip):
        # group and plane letters with scattered parameters: the engine
        # reduces the group and the plane blocks apart, the random reducer
        # applies one declared rule at a time; the flipped cross rule must
        # turn the blocks off, so passing th costs a rule step
        pres = covariance_flipped(catalog) if flip else catalog.covariance_tensor
        cross = E({("th", "ga"): 1})
        if flip:
            with pytest.raises(FuelExhausted):
                pres.normal_form(cross, fuel=0)
        else:
            assert pres.normal_form(cross, fuel=0) == E({("ga", "th"): -1})
        letters = ["ga", "be", "d", "a", "dth", "dx", "th", "x", "pth", "px"]
        words = draw_words("blocks", 40, letters, (1, 4), ["h1", "h2"], (0, 2))
        assert_strategy_independent(pres, words, random.Random(f"blocks-{flip}"))

    def test_covariance_warm_memo_matches_random_strategy(self, catalog):
        # a budget the covariance suite has filled reduces the words on its
        # memo; a fresh budget reduces them from nothing
        from superplane.verify import run_covariance_suite

        pres, warm = catalog.covariance_tensor, Budget(DEFAULT_FUEL)
        run_covariance_suite(catalog, warm)
        assert warm.memo(pres, "words")
        # no inverse letters: the random reducer need not terminate on them
        letters = ["ga", "be", "d", "a", "dth", "dx", "th", "x", "pth", "px"]
        words = draw_words("warm-blocks", 30, letters, (2, 4), ["h1", "h2"], (0, 2))
        assert_strategy_independent(pres, words, random.Random("warm-blocks"), warm)

    @pytest.mark.parametrize("e_key", [2, 4])
    def test_blocks_are_intervals_of_the_order(self, e_key):
        # above x and y, e forms a block of its own and passes x without a
        # rule step; between them it cannot, since y*x ties x to y
        pres = xye(e_key)
        word = E({("e", "x"): 1})
        if e_key == 4:
            assert pres.normal_form(word, fuel=0) == E({("x", "e"): 1})
        else:
            with pytest.raises(FuelExhausted):
                pres.normal_form(word, fuel=0)
        words = draw_words(f"xye-{e_key}", 60, "xye", (0, 6))
        assert_strategy_independent(pres, words, random.Random(f"xye-{e_key}"))

    def test_memo_reuse_matches_fresh_instance(self):
        p1 = qmix()
        e = E({("e", "x", "e", "x"): 1, ("e", "e", "x"): Q})
        first = p1.normal_form(e)
        assert p1.normal_form(e) == first
        assert qmix().normal_form(e) == first

    def test_mixed_presentation_rejected(self):
        pres = qplane()
        with pytest.raises(MixedPresentation):
            pres.normal_form(E({("e1",): 1}))
        with pytest.raises(TypeError, match="expected an Expression"):
            pres.normal_form("y*x")

    def test_fuel_exhaustion_on_legal_loop(self):
        # descends at equal weighted degree yet grows forever; the fuel is
        # the backstop because negative weights spoil well-foundedness
        pres = Presentation(
            "loop",
            [gen("n", 0, 5), gen("m", 0, 10, GenClass.INVERSE)],
            [(("m", "n"), E({("n", "m", "m", "n"): 1}))],
            require_complete=False,
        )
        with pytest.raises(FuelExhausted) as info:
            pres.normal_form(E({("m", "n"): 1}))
        # the message names the presentation, the budget and the word's
        # length, and shows only a prefix of the runaway word
        msg = str(info.value)
        assert "loop" in msg and f"fuel of {DEFAULT_FUEL}" in msg
        assert int(re.search(r"a word of (\d+) letters", msg).group(1)) > DEFAULT_FUEL
        assert len(msg) < 300
        # the word is shown in generator ids, and its leftmost letters have
        # all been rewritten to n
        assert msg.endswith(": " + "*".join("n" * 40) + "*...")

    @pytest.mark.parametrize("name, text, need", [
        ("h-calculus", "(x+th)^1000", 5498),
        ("covariance", "(a*x+be*th)^6", 81),
        ("one-forms", "(x+dth-inv(x))^5", 287),
        ("supergroup", "(a+be+ga+inv(d))^5", 1741),
    ])
    def test_fuel_thresholds_are_frozen(self, catalog, reports, name, text,
                                        need):
        # the fuel spent is the number of rule applications of the leftmost
        # strategy; where the scan for a redex starts, how frames are kept
        # and when the text is parsed must not change it, and neither must
        # what the suites or the reduction at need reduced before: each
        # budget starts with empty memos
        def reduce(fuel):
            # as superplane reduce does: the parse and the final reduction
            # on one multiplier
            pres = catalog_presentations(catalog)[name]
            mul = pres.multiplier(fuel)
            return mul(parse_expression(text, pres, mul))

        assert not reduce(need).is_zero()
        with pytest.raises(FuelExhausted):
            reduce(need - 1)

    def test_fuel_limit_respected(self):
        pres = qplane()
        big = E({("y",) * 3 + ("x",) * 3: 1})
        assert pres.normal_form(big, fuel=100) == E({("x",) * 3 + ("y",) * 3: power(Q, 9, 1)})
        with pytest.raises(FuelExhausted):
            qplane().normal_form(big, fuel=3)

    @pytest.mark.parametrize(
        "attr", ["primed_calculus", "h_calculus", "oscillator", "supergroup"]
    )
    def test_product_path_matches_expansion(self, catalog, attr):
        # reducing each partial product as it is formed must give the
        # normal form of the whole free expansion, each on a budget of its own
        p = getattr(catalog, attr)
        word = st.lists(st.sampled_from(sorted(p.gens)), max_size=3).map(tuple)
        factor = st.dictionaries(word, st.integers(-2, 2), min_size=1,
                                 max_size=3).map(E)

        @settings(max_examples=25)
        @given(st.lists(factor, min_size=2, max_size=4))
        def check(factors):
            mul = p.multiplier(fuel=10**6)
            prod = free = E.one()
            for f in factors:
                prod = mul(prod, f)
                free = free * f
            assert prod == p.normal_form(free, fuel=10**6)

        check()


def test_every_catalog_product_matches_the_reference(monkeypatch):
    # a fresh catalog (the session's is built already) and every suite on
    # it: each product the build and the suites form, through normal forms,
    # maps and parsing alike, is checked against reference_nf (892 of them;
    # a cache that kept products out of the multiplier would show here) and
    # at the exact point against the presentation's point copy
    from superplane.presentations import build_catalog
    from superplane.verify import run_all

    multiplier, checked, wrong = Presentation.multiplier, [], []

    def replayed(self, fuel=DEFAULT_FUEL):
        mul = multiplier(self, fuel)

        def replay(a, b=None):
            got = mul(a, b)
            ab = a if b is None else a * b
            checked.append(self.name)
            if got != reference_nf(self, ab):
                wrong.append((self.name, a, b))
            try:
                want = multiplier(point_copy(self))(at_point(ab))
            except NO_VALUE:  # the product or a rule has a pole there
                return got
            if at_point(got) != want:
                wrong.append(("at the point", self.name, a, b))
            return got

        return replay

    monkeypatch.setattr(Presentation, "multiplier", replayed)
    run_all(build_catalog.__wrapped__())
    assert len(set(checked)) > 6 and len(checked) >= 742
    assert not wrong, wrong[:3]


class TestCriticalPairs:
    def test_overlap_words_present_and_branches_correct(self):
        pres = qmix()
        pairs = critical_pairs(pres, max_len=3)
        words = {cp.word for cp in pairs}
        # independent overlap construction: lhs suffix meets lhs prefix
        assert ("e", "e", "x") in words
        assert ("e", "e", "e") in words
        for cp in pairs:
            assert len(cp.word) <= 3
            assert cp.word == cp.rule_a.lhs + cp.rule_b.lhs[1:]
            assert cp.branch_a == E(rewrite(cp.word, 0, cp.rule_a.rhs.terms(), ONE))
            assert cp.branch_b == E(rewrite(cp.word, 1, cp.rule_b.rhs.terms(), ONE))

    def test_no_overlap_is_shorter_than_three_letters(self):
        assert critical_pairs(qmix(), 2) == []

    def test_disjoint_applications_not_emitted(self):
        # disjoint redexes commute, so only overlapping ones are critical
        pairs = critical_pairs(qmix(), max_len=4)
        assert ("e", "x", "e", "x") not in {cp.word for cp in pairs}
        for cp in pairs:
            assert cp.word == cp.rule_a.lhs + cp.rule_b.lhs[1:]

    @pytest.mark.parametrize("name, count", [
        ("pq-calculus", 96), ("h-calculus", 96), ("supergroup", 104),
        ("covariance", 490), ("one-forms", 70), ("oscillator", 44)])
    def test_overlaps_match_brute_force(self, catalog, name, count):
        # oracle: the three-letter words over the generators whose letters
        # 0-1 and 1-2 both have rules, each once
        pres = catalog_presentations(catalog)[name]
        pairs = critical_pairs(pres, 4)
        found = {(cp.word, cp.rule_a.lhs, cp.rule_b.lhs) for cp in pairs}
        brute = {(w, w[:2], w[1:]) for w in product(pres.gens, repeat=3)
                 if pres.rule_for(w[:2]) and pres.rule_for(w[1:])}
        assert found == brute
        assert len(pairs) == len(found) == count


class TestLocalConfluence:
    def test_confluent_system_passes(self):
        report = check_local_confluence(qmix(), max_len=4)
        assert report.ok
        assert not report.failures
        assert report.pairs_checked > 0

    def test_detects_non_joinable_pair(self):
        # f*e -> e*f + 1 together with e^2 = 0 is inconsistent: reducing
        # f*e*e by the two possible first steps gives 2e versus 0
        pres = Presentation(
            "broken",
            [gen("e", 1, 1), gen("f", 0, 2)],
            [
                (("e", "e"), E({})),
                (("f", "e"), E({("e", "f"): 1, (): 1})),
            ],
        )
        report = check_local_confluence(pres, max_len=3)
        assert not report.ok
        assert ("f", "e", "e") in {f.word for f in report.failures}

    def test_report_is_deterministic(self):
        r1 = check_local_confluence(qmix(), max_len=3)
        r2 = check_local_confluence(qmix(), max_len=3)
        assert r1.pairs_checked == r2.pairs_checked


class TestTermination:
    def test_catalog_presentations_are_certified(self, catalog):
        for name, pres in catalog_presentations(catalog).items():
            assert pres.terminates, name
        assert koszul_qmix().terminates and qmix().terminates

    def test_legal_loop_is_not_certified(self):
        # the presentation of test_fuel_exhaustion_on_legal_loop: its rule
        # descends at equal weighted degree and makes the word longer
        pres = Presentation(
            "loop",
            [gen("n", 0, 5), gen("m", 0, 10, GenClass.INVERSE)],
            [(("m", "n"), E({("n", "m", "m", "n"): 1}))],
            require_complete=False,
        )
        assert not pres.terminates

    def test_longer_parameter_free_word_is_not_certified(self, catalog):
        # th*xinv*th*xinv is below xinv*th in the order (weight 0, sort key
        # of th first), so the rule is still valid, but it is longer
        p = catalog.one_forms
        longer = E({("th", "xinv", "th", "xinv"): 1})
        rules = [RewriteRule(r.lhs, r.rhs + longer) if r.lhs == ("xinv", "th")
                 else r for r in p.rules]
        pres = Presentation(p.name, p.gens.values(), rules, p.require_complete)
        assert not pres.terminates

    def test_even_parameter_is_not_certified(self):
        # an even h has no h*h -> 0, so the front can hold any number of h
        decls = [gen("h", 0, 0, GenClass.PARAMETER), gen("x", 0, 1), gen("e", 1, 2)]
        pres = Presentation("even-h", decls,
                            param_swap_rules(decls) + list(qmix().rules))
        assert pres._front == {"h"}
        assert not pres.terminates


class TestMorphism:
    def test_swap_endomorphism_commutes_with_nf(self):
        g = grassmann()
        m = Morphism(g, g, {"e1": E({("e2",): 1}), "e2": E({("e1",): 1})})
        e = E({("e2", "e1"): 1})
        assert m.apply(g.normal_form(e)) == m.apply(e)
        assert m.apply(e) == E({("e1", "e2"): 1})

    def test_missing_image_raises_at_construction(self):
        g = grassmann()
        with pytest.raises(MissingImage):
            Morphism(g, g, {"e1": E({("e2",): 1})})

    def test_image_must_live_in_target(self):
        g, p = grassmann(), qplane()
        with pytest.raises(MixedPresentation):
            Morphism(g, p, {"e1": E({("e1",): 1}), "e2": E({("x",): 1})})
        with pytest.raises(RuleError, match="unknown generator zz"):
            Morphism(g, g, {"e1": E({("e1",): 1}), "e2": E({("e2",): 1}),
                            "zz": E({("e1",): 1})})

    def test_one_fuel_budget_per_apply(self):
        # y*x and w*z take one rewrite step each, whatever was applied before
        decls = [gen("x", 0, 1), gen("y", 0, 2), gen("z", 0, 3), gen("w", 0, 4)]
        target = Presentation(
            "two-qplanes", decls,
            [(("y", "x"), E({("x", "y"): Q})), (("w", "z"), E({("z", "w"): Q}))],
            require_complete=False,
        )
        source = Presentation("free", decls, [], require_complete=False)
        apply = Morphism(source, target, {d.id: E.from_gen(d.id) for d in decls}).apply
        yx, wz = E({("y", "x"): 1}), E({("w", "z"): 1})
        assert apply(yx, 1) == E({("x", "y"): Q})
        assert apply(wz, 1) == E({("z", "w"): Q})
        with pytest.raises(FuelExhausted):
            apply(yx + wz, 1)
        assert apply(yx + wz, 2) == E({("x", "y"): Q, ("z", "w"): Q})

    def test_an_omitted_parameter_goes_to_itself(self):
        pres = koszul_qmix()
        x, e, h = E.from_gen("x"), E.from_gen("e"), E.from_gen("h")
        m = Morphism(pres, pres, {"x": x.scale(Q), "e": e})
        assert m.images == {"x": x.scale(Q), "e": e, "h": h}
        assert m.apply(E({("h", "x", "e"): 1})) == E({("h", "x", "e"): Q})

    def test_a_given_parameter_image_wins(self):
        # and the parameters still come last, in declaration order
        pres = koszul_qmix()
        x, e, h = E.from_gen("x"), E.from_gen("e"), E.from_gen("h")
        m = Morphism(pres, pres, {"h": -h, "x": x, "e": e})
        assert list(m.images.items()) == [("x", x), ("e", e), ("h", -h)]
        assert m.apply(E({("h", "e"): 1})) == E({("h", "e"): -1})

    def test_a_parameter_the_target_lacks_needs_an_image(self):
        x, e = E.from_gen("x"), E.from_gen("e")
        with pytest.raises(MissingImage, match="generator h"):
            Morphism(koszul_qmix(), qmix(), {"x": x, "e": e})

    @given(st.lists(st.sampled_from(["e1", "e2"]), max_size=4).map(tuple))
    def test_homomorphism_property(self, word):
        g = grassmann()
        m = Morphism(g, g, {"e1": E({("e2",): 1}), "e2": E({("e1",): 1})})
        e = E({word: 1})
        assert m.apply(g.normal_form(e)) == m.apply(e)


CATALOG_MAPS = {
    "coaction": lambda cat: cat.coaction,
    "h-to-pq": lambda cat: cat.contraction.forward,
    "pq-to-h": lambda cat: cat.contraction.backward,
    "plane-dagger": lambda cat: cat.plane_dagger,
    "oscillator-dictionary": lambda cat: cat.oscillator_dictionary,
    "oscillator-star": lambda cat: cat.oscillator_star,
}


class TestPrefixMemo:
    @pytest.mark.parametrize("name", sorted(CATALOG_MAPS))
    def test_warm_fresh_and_plain_fold_agree(self, catalog, name):
        # a budget shared by every call keeps a warm prefix memo; a fresh
        # budget per call starts from empty memos; the plain fold multiplies
        # the letter images one by one with no prefix memo at all
        m = CATALOG_MAPS[name](catalog)
        target = m.target
        warm = Budget(DEFAULT_FUEL)
        letters = sorted(m.images)
        rng = random.Random(f"prefix-{name}")
        for _ in range(12):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            c = Scalar(rng.randint(-3, 3) or 1) * rng.choice([ONE, Q, Scalar.i()])
            mul = target.multiplier()
            plain = E.one()
            if isinstance(m, Involution):
                for gid in reversed(word):
                    plain = mul(plain, m.images[gid])
                plain = plain.scale(c.conj(m.swap_pq))
            else:
                for gid in word:
                    plain = mul(plain, m.images[gid])
                plain = plain.scale(c)
            expr = E({word: c})
            assert m.apply(expr) == plain
            assert m.apply(expr, warm) == plain
            # a second call reads every prefix from the memo
            assert m.apply(expr, warm) == plain

    def test_words_sharing_prefixes_fold_on_one_budget(self):
        # every word of up to three letters on one budget, so each prefix
        # the memo holds is read back by the longer words that share it
        pres = qmix()
        x, e = E.from_gen("x"), E.from_gen("e")
        m = Morphism(pres, pres, {"x": x.scale(Scalar.p()), "e": x * e + e})
        budget = Budget(DEFAULT_FUEL)
        for n in range(1, 4):
            for word in product("xe", repeat=n):
                plain = E.one()
                for gid in word:
                    plain = plain * m.images[gid]
                assert m.apply(E({word: 1}), budget) == reference_nf(pres, plain), word

    def test_fuel_exhaustion_keeps_only_complete_prefixes(self, catalog):
        m = catalog.coaction
        word = ("px", "x", "pth")
        spent = Budget(300)
        with pytest.raises(FuelExhausted):
            m.apply(E({word: 1}), spent)
        # the fuel ran out within the last letter's product; the spent
        # budget still serves the complete prefixes, which cost no fuel
        prefixes = spent.memo(m, "prefixes")
        assert sorted(prefixes) == [word[:1], word[:2]]
        for prefix in prefixes:
            assert m.apply(E({prefix: 1}), spent) == m.apply(E({prefix: 1}))
        assert spent.left == 0


def test_run_all_leaves_no_word_keyed_state():
    # the memos live in the budgets: after every suite has run on a fresh
    # catalog, its presentations and maps hold what they held before, but
    # for the rule terms and the fingerprints, which their rules fix
    from superplane.presentations import build_catalog
    from superplane.verify import run_all

    cat = build_catalog.__wrapped__()
    objs = list(catalog_presentations(cat).values()) + [
        cat.primed_calculus, cat.supergroup, cat.contraction.backward.target,
        cat.contraction.forward.source,
        *(get(cat) for get in CATALOG_MAPS.values())]
    before = [dict(vars(o)) for o in objs]
    sizes = [{k: len(v) for k, v in vars(o).items() if isinstance(v, dict)}
             for o in objs]
    run_all(cat)
    for o, was, size in zip(objs, before, sizes):
        assert vars(o).keys() == was.keys()
        for k, v in vars(o).items():
            if k in ("_terms", "_merged"):
                # keyed by a set of parameters and a rule's words
                front = {g for g, d in o.gens.items() if d.klass is GenClass.PARAMETER}
                assert all(set(p) <= front and len(set(p)) == len(p) for p, _ in v)
            elif k != "_fingerprint":
                assert v is was[k]
                assert not isinstance(v, dict) or len(v) == size[k]


class TestInvolution:
    def test_antihomomorphism_with_conjugation(self):
        g = grassmann()
        star = Involution(
            g, {"e1": E({("e1",): 1}), "e2": E({("e2",): 1})}, name="star"
        )
        assert star.apply(E({("e1", "e2"): 1})) == E({("e1", "e2"): -1})
        assert star.apply(E({("e1",): Scalar.i()})) == E({("e1",): -Scalar.i()})

    def test_swap_pq_conjugates_scalars(self):
        pres = qplane()
        star = Involution(
            pres, {"x": E({("x",): 1}), "y": E({("y",): 1})}, swap_pq=True
        )
        assert star.apply(E({("x",): Q})) == E({("x",): Scalar.p()})

    def test_not_involutive_rejected(self):
        g = grassmann()
        with pytest.raises(NotInvolutive):
            Involution(g, {"e1": E({("e1",): 2})})

    def test_an_omitted_parameter_goes_to_itself(self):
        pres = koszul_qmix()
        star = Involution(pres, {"x": E.from_gen("x"), "e": E.from_gen("e")})
        assert star.images["h"] == E.from_gen("h")
        # h*e = -e*h, so reversing the word flips the sign
        assert star.apply(E({("h", "e"): 1})) == E({("h", "e"): -1})

    def test_partial_involution_raises_missing_image_on_apply(self):
        g = grassmann()
        star = Involution(g, {"e1": E({("e1",): 1})})
        assert star.apply(E({("e1",): 1})) == E({("e1",): 1})
        with pytest.raises(MissingImage):
            star.apply(E({("e2",): 1}))


class TestLocalize:
    def hand_localized(self):
        # swap rule derived by hand: from y*x = q*x*y one gets
        # xinv*y = q*y*xinv, hence the disordered pair (y, xinv) rewrites to
        # (1/q)*xinv*y.  xinv must sit directly above x in the order.
        loc = localize(qplane(), "x", "qplane-xinv")
        assert loc.rule_for(("y", "xinv")).rhs == E({("xinv", "y"): ONE / Q})
        return loc

    def test_units_and_swaps(self):
        loc = self.hand_localized()
        assert loc.normal_form(E({("xinv", "x"): 1})) == E.one()
        assert loc.normal_form(E({("x", "xinv"): 1})) == E.one()
        assert loc.normal_form(E({("y", "x", "xinv"): 1})) == E({("y",): 1})
        assert loc.normal_form(E({("x", "y", "xinv"): 1})) == E({("y",): ONE / Q})
        assert loc.normal_form(E({("xinv", "y", "x"): 1})) == E({("y",): Q})

    def test_localization_is_locally_confluent(self):
        report = check_local_confluence(self.hand_localized(), max_len=4)
        assert report.ok

    def test_misplaced_inverse_key_breaks_confluence(self):
        # regression for the order design: if the inverse is keyed above an
        # unrelated generator, words like x*y*xinv hide a cancellation and
        # local confluence fails; localize keys it directly above its base
        pres = qplane()
        xinv = gen("xinv", 0, 9, GenClass.INVERSE)
        swap = RewriteRule(("xinv", "y"), E({("y", "xinv"): Q}))
        loc = Presentation("misplaced", [*pres.gens.values(), xinv],
                           [*pres.rules, *unit_rules("x", "xinv"), swap])
        assert not check_local_confluence(loc, max_len=3).ok

    @pytest.mark.parametrize("base, gen_id, message", [
        (qplane, "nope", "cannot invert unknown generator nope"),
        (grassmann, "e1", "cannot invert odd generator e1"),
        (lambda: localize(qplane(), "x", "qplane-xinv"), "x",
         "generator xinv already present"),
        # y at x's key + 1, which the inverse of x takes
        (lambda: Presentation("qplane", [gen("x", 0, 2), gen("y", 0, 3)],
                              qplane().rules), "x",
         "sort keys must be distinct in bad: y and xinv both have 3"),
    ], ids=["unknown", "odd", "present", "taken-key"])
    def test_validation(self, base, gen_id, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            localize(base(), gen_id, "bad")
