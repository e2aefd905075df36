"""Tests for the graded rewriting engine.

Expected values for the toy presentations here are classical closed forms
(Grassmann sign rules, q-plane reordering q^(m*n), localized swap rules
derived by hand) and are asserted against the engine, never read back from
it.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superplane.algebra import (
    DEFAULT_FUEL,
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
    adjoin_inverse,
    check_local_confluence,
    critical_pairs,
)
from superplane.scalars import Scalar

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
        assert (Scalar.i() * a).coefficient(("x",)) == Scalar.i() * Scalar.from_fraction(Fraction(1, 2))
        assert a.coefficient(("y",)) == Scalar.zero()

    def test_power_and_sum(self):
        a = E({("x",): 1})
        assert a ** 3 == E({("x", "x", "x"): 1})
        assert a ** 0 == E.one()
        assert sum([a, a], E.zero()) == a.scale(2)

    def test_terms_deterministic_order(self):
        e = E({("y",): 1, ("x",): 1, (): 1, ("x", "y"): 1})
        assert [w for w, _ in e.terms()] == [(), ("x",), ("y",), ("x", "y")]

    @given(exprs_xe, exprs_xe, exprs_xe)
    def test_free_algebra_laws(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == E.zero()


class TestRuleValidation:
    def test_rejects_non_descending(self):
        with pytest.raises(RuleError):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [(("x", "y"), E({("y", "x"): 1}))],
                require_complete=False,
            )

    def test_rejects_rhs_containing_lhs(self):
        with pytest.raises(RuleError):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [(("y", "x"), E({("y", "x"): Q, ("x", "y"): 1}))],
                require_complete=False,
            )

    def test_rejects_bad_lhs_length(self):
        with pytest.raises(RuleError):
            Presentation(
                "bad",
                [gen("x", 0, 2)],
                [(("x", "x", "x"), E({}))],
                require_complete=False,
            )
        with pytest.raises(RuleError):
            Presentation("bad", [gen("x", 0, 2)], [((), E({}))], require_complete=False)

    def test_rejects_duplicate_lhs_and_unknown_gens(self):
        with pytest.raises(RuleError):
            Presentation(
                "bad",
                [gen("x", 0, 2), gen("y", 0, 4)],
                [
                    (("y", "x"), E({("x", "y"): Q})),
                    (("y", "x"), E({("x", "y"): 1})),
                ],
            )
        with pytest.raises(RuleError):
            Presentation(
                "bad",
                [gen("x", 0, 2)],
                [(("x", "z"), E({}))],
                require_complete=False,
            )

    def test_rejects_duplicate_sort_keys(self):
        with pytest.raises(RuleError):
            Presentation("bad", [gen("x", 0, 2), gen("y", 0, 2)], [])

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
                expected = E({("x",) * n + ("y",) * m: Q ** (m * n)})
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
        pres = qmix()
        rng = random.Random(20260815)
        for _ in range(60):
            word = tuple(rng.choice(["x", "e"]) for _ in range(rng.randint(0, 6)))
            expr = E({word: 1})
            assert pres.normal_form(expr) == random_reduce(pres, expr, rng)

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

    def test_fuel_exhaustion_on_legal_loop(self):
        # descends at equal weighted degree yet grows forever; the fuel is
        # the backstop because negative weights spoil well-foundedness
        pres = Presentation(
            "loop",
            [gen("n", 0, 5), gen("m", 0, 10, GenClass.INVERSE)],
            [(("m", "n"), E({("n", "m", "m", "n"): 1}))],
            require_complete=False,
        )
        with pytest.raises(FuelExhausted):
            pres.normal_form(E({("m", "n"): 1}))

    def test_fuel_limit_respected(self):
        pres = qplane()
        big = E({("y",) * 3 + ("x",) * 3: 1})
        assert pres.normal_form(big, fuel=100) == E({("x",) * 3 + ("y",) * 3: Q ** 9})
        with pytest.raises(FuelExhausted):
            qplane().normal_form(big, fuel=3)


def random_reduce(pres, expr, rng, max_steps=4000):
    work = {w: c for w, c in expr.terms()}
    for _ in range(max_steps):
        redexes = []
        for word in sorted(work):
            for pos in range(len(word)):
                for ln in (2, 1):
                    rule = pres.rule_for(word[pos : pos + ln])
                    if rule is not None:
                        redexes.append((word, pos, rule))
        if not redexes:
            return Expression(work)
        word, pos, rule = redexes[rng.randrange(len(redexes))]
        c = work.pop(word)
        for m, cc in rule.rhs.terms():
            nw = word[:pos] + m + word[pos + len(rule.lhs) :]
            s = work.get(nw, Scalar.zero()) + c * cc
            if s.is_zero():
                work.pop(nw, None)
            else:
                work[nw] = s
    raise AssertionError("random reducer did not terminate")


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
            assert cp.branch_a == one_step(cp.word, cp.pos_a, cp.rule_a)
            assert cp.branch_b == one_step(cp.word, cp.pos_b, cp.rule_b)
            assert (cp.pos_a, cp.rule_a.lhs) != (cp.pos_b, cp.rule_b.lhs)

    def test_disjoint_applications_not_emitted(self):
        # disjoint redexes commute, so only overlapping ones are critical
        pairs = critical_pairs(qmix(), max_len=4)
        assert ("e", "x", "e", "x") not in {cp.word for cp in pairs}
        for cp in pairs:
            assert cp.pos_b < cp.pos_a + len(cp.rule_a.lhs)


def one_step(word, pos, rule):
    out = {}
    for m, c in rule.rhs.terms():
        nw = word[:pos] + m + word[pos + len(rule.lhs) :]
        out[nw] = out.get(nw, Scalar.zero()) + c
    return Expression(out)


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
        assert r1.words_scanned == r2.words_scanned


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

    @given(st.lists(st.sampled_from(["e1", "e2"]), max_size=4).map(tuple))
    def test_homomorphism_property(self, word):
        g = grassmann()
        m = Morphism(g, g, {"e1": E({("e2",): 1}), "e2": E({("e1",): 1})})
        e = E({word: 1})
        assert m.apply(g.normal_form(e)) == m.apply(e)


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

    def test_partial_involution_raises_missing_image_on_apply(self):
        g = grassmann()
        star = Involution(g, {"e1": E({("e1",): 1})})
        assert star.apply(E({("e1",): 1})) == E({("e1",): 1})
        with pytest.raises(MissingImage):
            star.apply(E({("e2",): 1}))


class TestAdjoinInverse:
    def hand_localized(self):
        # swap rule derived by hand: from y*x = q*x*y one gets
        # xinv*y = q*y*xinv, hence the disordered pair (y, xinv) rewrites to
        # (1/q)*xinv*y.  xinv must sit directly above x in the order.
        pres = qplane()
        xinv = gen("xinv", 0, 3, GenClass.INVERSE)
        swap = RewriteRule(("y", "xinv"), E({("xinv", "y"): ONE / Q}))
        return adjoin_inverse(pres, "x", xinv, [swap])

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
        # local confluence fails
        pres = qplane()
        xinv = gen("xinv", 0, 9, GenClass.INVERSE)
        swap = RewriteRule(("xinv", "y"), E({("y", "xinv"): Q}))
        loc = adjoin_inverse(pres, "x", xinv, [swap])
        assert not check_local_confluence(loc, max_len=3).ok

    def test_validation(self):
        pres = qplane()
        with pytest.raises(RuleError):
            adjoin_inverse(pres, "nope", gen("ninv", 0, 9, GenClass.INVERSE), [])
        g = grassmann()
        with pytest.raises(RuleError):
            adjoin_inverse(g, "e1", gen("einv", 1, 9, GenClass.INVERSE), [])
