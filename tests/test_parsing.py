"""Tests for expression parsing, canonical rendering, and presentation dumps."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superplane.algebra import (
    Budget,
    Expression,
    GenClass,
    GeneratorDecl,
    Presentation,
    RewriteRule,
)
from superplane.parsing import (
    MAX_NESTING,
    ExprSyntaxError,
    UnknownGenerator,
    fingerprint,
    parse_expression,
    render_expression,
    render_presentation,
)
from superplane.presentations import catalog_presentations
from superplane.scalars import DivisionByZero, Poly, Scalar

E = Expression

# constant Scalars with rational, pure imaginary and complex values, either
# part negative or not an integer; polynomials in them up to p^3*q^3; and the
# coefficients of expressions: constants and fractions of such polynomials
GAUSSIANS = st.builds(lambda re, im: Scalar(re) + Scalar(im) * Scalar.i(),
                      st.fractions(-3, 3, max_denominator=4),
                      st.fractions(-3, 3, max_denominator=4))


def polys(min_size=0):
    return st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           GAUSSIANS.filter(bool), min_size=min_size,
                           max_size=3).map(Poly)


COEFFICIENTS = st.one_of(GAUSSIANS,
                         st.builds(Scalar, polys(), polys(min_size=1)))


def toy():
    return Presentation(
        "toy",
        [
            GeneratorDecl("x", 0, GenClass.STANDARD, 1),
            GeneratorDecl("xinv", 0, GenClass.INVERSE, 2),
            GeneratorDecl("e", 1, GenClass.STANDARD, 3),
        ],
        [
            (("e", "x"), E({("x", "e"): Scalar.q()})),
            (("e", "e"), E({})),
            (("xinv", "x"), E.one()),
            (("x", "xinv"), E.one()),
            (("e", "xinv"), E({("xinv", "e"): Scalar.one() / Scalar.q()})),
        ],
    )


class TestParse:
    def test_words_and_coefficients(self):
        pres = toy()
        assert parse_expression("x*e", pres) == E({("x", "e"): 1})
        assert parse_expression("2 x e", pres) == E({("x", "e"): 2})
        assert parse_expression("x e - e x", pres) == E(
            {("x", "e"): 1, ("e", "x"): -1}
        )

    def test_scalar_atoms(self):
        pres = toy()
        assert parse_expression("i*i", pres) == E({(): -1})
        assert parse_expression("p*q - 1", pres) == E(
            {(): Scalar.p() * Scalar.q() - Scalar.one()}
        )
        assert parse_expression("1/2*x", pres) == E({("x",): Fraction(1, 2)})
        assert parse_expression("x/2", pres) == E({("x",): Fraction(1, 2)})
        assert parse_expression("x/(q - 1)", pres) == E(
            {("x",): Scalar.one() / (Scalar.q() - Scalar.one())}
        )

    def test_unary_minus_and_powers(self):
        pres = toy()
        assert parse_expression("--x", pres) == E({("x",): 1})
        assert parse_expression("-x + x", pres).is_zero()
        assert parse_expression("-x^2", pres) == E({("x", "x"): -1})
        assert parse_expression("x^3", pres) == E({("x", "x", "x"): 1})
        assert parse_expression("(x + e)^2", pres) == E(
            {("x", "x"): 1, ("x", "e"): 1, ("e", "x"): 1, ("e", "e"): 1}
        )
        assert parse_expression("q^2*x", pres) == E({("x",): Scalar.q() * Scalar.q()})

    def test_inverse_sugar(self):
        pres = toy()
        assert parse_expression("inv(x)", pres) == E({("xinv",): 1})
        assert parse_expression("inv(x)*e*x", pres) == E({("xinv", "e", "x"): 1})
        with pytest.raises(UnknownGenerator):
            parse_expression("inv(e)", pres)

    def test_unknown_generator_carries_position(self):
        with pytest.raises(UnknownGenerator) as err:
            parse_expression("x + zz", toy())
        assert "zz" in str(err.value)

    def test_syntax_errors(self):
        pres = toy()
        for bad in ["x +", "(x", "x)", "^2", "x ^ e", "x & e", "", "x //"]:
            with pytest.raises(ExprSyntaxError):
                parse_expression(bad, pres)

    @pytest.mark.parametrize("text, message", [
        ("x*x-", "unexpected end of input (at position 4)"),
        ("e x)", "trailing input ')' (at position 3)"),
        ("x*e*zz", "unknown generator 'zz' (at position 4)"),
        ("x*inv(e)", "unknown generator 'einv' (at position 6)"),
        ("x*e^1001", "exponent above 1000 (at position 4)"),
        ("x e^e", "exponent must be a nonnegative integer (at position 4)"),
        ("x*e & e", "unexpected character '&' (at position 3)"),
        ("(x*e^2", "expected ')' (at position 6)"),
        ("x*" + "(" * 101 + "e" + ")" * 101,
         "parentheses nested deeper than 100 (at position 102)"),
    ])
    def test_syntax_is_checked_before_any_product(self, text, message):
        # every product of the text would come before the error; none may
        # be formed, and the message is the one a reading parser gives
        def product(a, b):
            raise AssertionError(f"product formed before the error in {text!r}")

        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text, toy(), product)
        assert str(err.value) == message

    def test_nesting_bound(self):
        # MAX_NESTING levels of parentheses parse, sibling groups do not add
        # up and the parentheses of inv() do not count; one level more is
        # the syntax error of test_syntax_is_checked_before_any_product
        pres = toy()
        deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_expression(deep + deep, pres) == E({("x", "x"): 1})
        signed = "-(" * MAX_NESTING + "inv(x)" + ")" * MAX_NESTING
        assert parse_expression(signed, pres) == E({("xinv",): 1})

    @pytest.mark.parametrize("name, text", [
        ("h-calculus", "x"),
        ("h-calculus", "-dth"),
        ("h-calculus", "(x+th+px+pth)^4"),
        ("h-calculus", "2*px*x - (p - q)/p*th*x + i*h1*dth^2"),
        ("pq-calculus", "(dx + dth)^2*x"),
        ("oscillator", "(A*Ap + p*B)^3"),
        ("covariance", "(a*x+be*th)^2*inv(d)"),
        ("one-forms", "x*dx*inv(x)*th - dth"),
        ("supergroup", "a*d - q*be*ga*inv(a)"),
    ])
    def test_a_parse_through_the_multiplier_is_a_normal_form(self, catalog,
                                                             name, text):
        # every product is reduced as it is formed, a lone letter is
        # irreducible and sums and scalings of normal forms are normal
        # forms, so reducing the parse again changes nothing and spends
        # no fuel; reduce prints the parse as it is
        pres = catalog_presentations(catalog)[name]
        budget = Budget(10**5)
        mul = pres.multiplier(budget)
        e = parse_expression(text, pres, mul)
        left = budget.left
        assert mul(e) == e
        assert budget.left == left

    def test_division_restrictions(self):
        pres = toy()
        with pytest.raises(ExprSyntaxError):
            parse_expression("x / e", pres)
        with pytest.raises(DivisionByZero):
            parse_expression("x / 0", pres)
        with pytest.raises(DivisionByZero):
            parse_expression("x / (1 - 1)", pres)


class TestRender:
    def test_literals(self):
        pres = toy()
        assert render_expression(E.zero()) == "0"
        assert render_expression(E.one()) == "1"
        assert render_expression(E({("x",): -1})) == "-x"
        assert (
            render_expression(E({("x", "x", "x"): 1, ("x", "e"): -2}))
            == "-2*x*e + x^3"
        )
        c = Scalar.p() * Scalar.q() - Scalar.one()
        assert render_expression(E({("x",): c})) == "(p*q - 1)*x"
        frac = Scalar.one() / (Scalar.q() - Scalar.one())
        assert render_expression(E({("e",): frac})) == "(1)/(q - 1)*e"
        assert render_expression(E({(): Scalar.i(), ("x",): -Scalar.i()})) == "i - i*x"

    def test_runs_of_a_letter_are_powers(self):
        # each run of one letter is its own power, however the runs fall
        word = ("x", "x", "th", "x", "x", "x")
        assert render_expression(E({word: 1})) == "x^2*th*x^3"

    def test_complex_coefficient_is_grouped(self):
        c = 1 + 2 * Scalar.i()
        out = render_expression(E({("x",): c}))
        assert out == "(1 + 2*i)*x"
        assert parse_expression(out, toy()) == E({("x",): c})

    @pytest.mark.parametrize("x", [
        Fraction(-1, 2) + 3 * Scalar.i(),
        Poly({(2, 1): -2 * Scalar.i(), (0, 0): 1}),
        Scalar(Poly({(1, 0): 1}), Poly({(0, 1): 1, (0, 0): -1})),
    ])
    def test_str_of_each_scalar_type_reads_back(self, x):
        # str() is written here, beside the parser, and reads back as the
        # constant term; repr() names the type
        want = Scalar(x) if isinstance(x, Poly) else x
        assert parse_expression(str(x), toy()) == E({(): want})
        assert repr(x).startswith(f"{type(x).__name__}(")

    @given(
        st.dictionaries(
            st.lists(st.sampled_from(["x", "e", "xinv"]), max_size=4).map(tuple),
            COEFFICIENTS,
            max_size=4,
        )
    )
    def test_round_trip(self, terms):
        expr = Expression(terms)
        assert parse_expression(render_expression(expr), toy()) == expr
        # str() of a coefficient is written by the same writer and reads
        # back as a constant term
        for c in terms.values():
            assert parse_expression(str(c), toy()) == E({(): c})


class TestPresentationFiles:
    def test_round_trip_keeps_catalog_fingerprints(self, catalog):
        table = catalog_presentations(catalog)
        assert len(table) == 6
        for name, pres in table.items():
            fp = fingerprint(pres)
            # one digest per presentation, computed on first use
            assert fingerprint(pres) is fp, name
            assert len(fp) == 64, name
        assert len({fingerprint(p) for p in table.values()}) == len(table)

    def test_fingerprint_stability(self):
        pres = toy()
        fp = fingerprint(pres)
        assert fingerprint(pres) is fp
        assert len(fp) == 64
        other = Presentation(
            "toy2",
            [GeneratorDecl("x", 0, GenClass.STANDARD, 1)],
            [],
        )
        assert fingerprint(other) != fp

    def test_rules_are_rendered_by_lhs_order_key(self):
        text = render_presentation(toy())
        lines = [l for l in text.splitlines() if l.startswith("rule")]
        # sorted by (lhs length, lhs sort keys): the (x, xinv) unit comes first
        assert lines[0] == "rule x xinv -> 1"
        assert lines[1] == "rule xinv x -> 1"
        assert lines[2].startswith("rule e x ->")
        assert render_presentation(toy()) == text
