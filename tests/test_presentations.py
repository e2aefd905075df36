"""Catalog construction: frozen derivation oracles and structural audits.

Every expected expression here was either computed by hand (sandwich
solves, pull-backs, matrix inverses) before the builders existed, or is
a structural invariant (parity, completeness, unit cancellation).
"""

import hashlib

import pytest

from superplane import presentations
from superplane.algebra import (
    Expression, GenClass, GeneratorDecl, Morphism, Presentation, RuleError,
    param_swap_rules, unit_rules,
)
from superplane.parsing import parse_expression, render_expression
from superplane.presentations import (
    COORD_DIFF_PAIRS,
    COORD_DIFF_TARGETS,
    COORD_DIFF_VARIANTS,
    H_DECLS,
    H_REDUCIBLE_PAIRS,
    ConstructionFailure,
    ContractionMap,
    DerivedRelation,
    IncompleteLocalization,
    RoundTripFailure,
    _build,
    build_catalog,
    build_contraction,
    build_h_calculus,
    build_primed_calculus,
    catalog_presentations,
    choose_variant,
    derive_h_relations,
    localize,
    scaffold,
    PQ_DECLS,
    SUPERGROUP_DECLS,
)
from superplane.scalars import Scalar

from reference import expression_parity


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


def test_variant_selection_is_decisive(cat):
    assert cat.coord_diff_variant == "diagonal"
    assert cat.variant_matches == {
        "diagonal": {
            ("x", "dx"): True,
            ("x", "dth"): True,
            ("th", "dx"): True,
            ("th", "dth"): True,
        },
        "cross": {
            ("x", "dx"): False,
            ("x", "dth"): False,
            ("th", "dx"): False,
            ("th", "dth"): False,
        },
    }


def test_bad_rule_is_a_construction_failure():
    # one row of the pq-calculus table leaves the rest of its pairs
    # without a rule
    with pytest.raises(ConstructionFailure, match="^pq-table: pq-table lacks"):
        _build("pq-table", PQ_DECLS, table=[("x th", "q*th*x")])


def test_selection_needs_one_matching_reading(monkeypatch):
    monkeypatch.setitem(COORD_DIFF_TARGETS, ("x", "dx"), "0")
    with pytest.raises(ConstructionFailure, match="not decisive"):
        choose_variant()


def test_wrong_frame_coefficient_fails_the_round_trip(monkeypatch):
    monkeypatch.setattr(presentations, "_C1", Scalar.p())
    with pytest.raises(RoundTripFailure, match="^round trip h-dth leaves "):
        build_contraction(build_primed_calculus("diagonal"))


def test_derivation_needs_a_pair_that_moves():
    # under the identity frame change x*th pulls back to itself, and the
    # pull-back of th*x, itself too, holds no x*th
    frame = scaffold("frame", H_DECLS)
    same = Morphism(frame, frame,
                    {g: Expression.from_gen(g) for g in frame.gens})
    with pytest.raises(ConstructionFailure, match="maps onto itself"):
        derive_h_relations(ContractionMap(same, same), pairs=[("x", "th")])


def test_h_calculus_needs_regular_relations():
    derived = {w: DerivedRelation(w, Expression.zero(), None, "a pole")
               for w in H_REDUCIBLE_PAIRS}
    with pytest.raises(ConstructionFailure,
                       match=r"no regular value at p=q=1 \(a pole\)"):
        build_h_calculus(derived)


def test_round_trips_both_ways(cat):
    cmap = cat.contraction
    for gid in ("x", "th", "dx", "dth", "px", "pth"):
        g = Expression.from_gen(gid)
        assert cmap.backward.apply(cmap.forward.apply(g)) == g
        assert cmap.forward.apply(cmap.backward.apply(g)) == g


def test_frame_matrix_nilpotent_part(cat):
    # the frame change of the coordinates, read off the x and th images of
    # backward: g[i][j] is the coefficient of letter j ending image i
    scratch = cat.contraction.backward.target
    images = cat.contraction.backward.images
    g = tuple(
        tuple(Expression({w[:-1]: c for w, c in images[a].terms() if w[-1] == b})
              for b in ("x", "th"))
        for a in ("x", "th")
    )
    one, zero = Expression.one(), Expression.zero()
    ident = ((one, zero), (zero, one))

    def sub(a, b):
        return tuple(
            tuple(scratch.normal_form(a[i][j] - b[i][j]) for j in range(2))
            for i in range(2)
        )

    def mul(a, b):
        return tuple(
            tuple(
                scratch.normal_form(a[i][0] * b[0][j] + a[i][1] * b[1][j])
                for j in range(2)
            )
            for i in range(2)
        )

    n = sub(g, ident)
    n2 = mul(n, n)
    n3 = mul(n2, n)
    assert any(not e.is_zero() for row in n2 for e in row)
    assert all(e.is_zero() for row in n3 for e in row)
    inv = sub(sub(ident, n), tuple((tuple(-e for e in row)) for row in n2))
    prod = mul(g, inv)
    assert all(
        scratch.normal_form(prod[i][j] - ident[i][j]).is_zero()
        for i in range(2)
        for j in range(2)
    )


def test_derived_relations_all_regular(cat):
    assert set(cat.derived) == set(H_REDUCIBLE_PAIRS)
    for rel in cat.derived.values():
        assert rel.specialized is not None
        assert rel.pole_note == ""


def test_derived_relation_oracles(cat):
    ctx = cat.contraction.backward.target

    def expect(word, text, general=False):
        rel = cat.derived[word]
        got = rel.general if general else rel.specialized
        assert got == parse_expression(text, ctx), word

    # transposed derivative pair, solved through the reversed word
    expect(("px", "pth"), "pth*px - h1*px^2")
    expect(("pth", "pth"), "h1*pth*px")
    expect(("pth", "pth"), "1/p*h1*pth*px", general=True)
    # pole cancellation: the 1/(q-1) pieces of the raw pull-back cancel
    expect(
        ("px", "dx"),
        "1/(p*q)*dx*px + 1/(p*q)*h1*dth*px - 1/(p*q)*h2*dx*pth"
        " + 1/(p*q)*h1*h2*dth*pth + 1/(p*q)*h1*h2*dx*px",
        general=True,
    )
    # the derivative-differential diagonal keeps a minus bracket
    expect(
        ("pth", "dth"),
        "dth*pth - h1*dth*px + h2*dx*pth - h1*h2*dth*pth - h1*h2*dx*px",
    )


def test_coordinate_differential_block_matches_targets(cat):
    ctx = cat.contraction.backward.target
    for word, text in COORD_DIFF_TARGETS.items():
        rule = cat.h_calculus.rule_for(word)
        assert rule is not None
        assert rule.rhs == parse_expression(text, ctx), word


def test_h_rules_are_parity_homogeneous(cat):
    pres = cat.h_calculus
    for rule in pres.rules:
        lhs_parity = sum(pres.gens[g].parity for g in rule.lhs) % 2
        if rule.rhs.is_zero():
            continue
        assert expression_parity(pres, rule.rhs) == lhs_parity, rule.lhs


def test_cancel_units():
    decls = SUPERGROUP_DECLS + (GeneratorDecl("ainv", 0, GenClass.INVERSE, 15),)
    scratch = scaffold("units", decls, unit_rules("a", "ainv"))
    e = Expression.from_word(("a", "ainv", "h1", "a", "d", "ainv"))
    got = scratch.normal_form(e)
    assert got == Expression.from_word(("h1", "a", "d", "ainv"))
    nested = Expression.from_word(("a", "a", "ainv", "ainv"))
    assert scratch.normal_form(nested) == Expression.one()


def _derived_text(derived) -> str:
    lines = []
    for word, rel in sorted(derived.items()):
        spec = "None" if rel.specialized is None else render_expression(rel.specialized)
        lines.append("\t".join(("*".join(word), render_expression(rel.general),
                                spec, rel.pole_note)))
    return "\n".join(lines)


# sha256 of the general relations, their values at p = q = 1 and the pole
# notes of the catalog's derivation and of both coordinate-differential
# readings; the h-calculus fingerprint freezes only the specialized rules
DERIVED_RELATIONS_DIGEST = (
    "2c123fbac0ff3cf17b112988e52858e09fae4f57e07473fea50db4c947f31040")


def test_derived_relations_are_frozen(cat):
    parts = [_derived_text(cat.derived)]
    for variant in sorted(COORD_DIFF_VARIANTS):
        cmap = build_contraction(build_primed_calculus(variant))
        parts.append(_derived_text(derive_h_relations(cmap, pairs=COORD_DIFF_PAIRS)))
    text = "\n\n".join(parts) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == DERIVED_RELATIONS_DIGEST


def test_one_forms_localization_oracle(cat):
    forms = cat.one_forms
    rule = forms.rule_for(("xinv", "th"))
    assert rule.rhs == parse_expression("th*xinv - h2", forms)
    for pair in ((("xinv", "x"), ("x", "xinv"))):
        assert forms.rule_for(pair).rhs == Expression.one()


def test_supergroup_localization_oracle(cat):
    loc = cat.localized_supergroup
    rule = loc.rule_for(("ainv", "be"))
    expected = parse_expression(
        "be*ainv + h1 - h1*ainv*be*ga*ainv - h1*d*ainv", loc
    )
    assert rule.rhs == expected
    for pair in (("ainv", "a"), ("a", "ainv"), ("dinv", "d"), ("d", "dinv")):
        assert loc.rule_for(pair).rhs == Expression.one()


def test_localization_rejects_odd_generator(cat):
    with pytest.raises(RuleError):
        localize(cat.supergroup, "be", "supergroup-beinv")


@pytest.mark.parametrize("rules, message", [
    ([], r"no rule joins a and b; cannot derive \('ainv', 'b'\)"),
    ([(("a", "b"), Expression.zero())], "has no head term"),
], ids=["no-rule", "zero-rule"])
def test_localization_needs_a_base_rule_to_solve(rules, message):
    # a*b -> 0 sandwiches to 0, which holds no ainv*b
    decls = [GeneratorDecl("b", 0, GenClass.STANDARD, 1),
             GeneratorDecl("a", 0, GenClass.STANDARD, 3)]
    pres = Presentation("toy", decls, rules, require_complete=False)
    with pytest.raises(IncompleteLocalization, match=message):
        localize(pres, "a", "toy-ainv")


def test_group_determinant_forms_agree(cat):
    # the group determinant, equal in both of its stated forms once d and
    # a are invertible
    loc = cat.localized_supergroup
    left = parse_expression("a*inv(d) - be*inv(d)*ga*inv(d)", loc)
    right = parse_expression("inv(d)*a - inv(d)*be*inv(d)*ga", loc)
    assert loc.normal_form(left) == loc.normal_form(right)
    assert not loc.normal_form(left).is_zero()


def test_coaction_respects_sample_relations(cat):
    delta = cat.coaction
    cov = cat.covariance_tensor
    for word in (("x", "th"), ("px", "x"), ("th", "dx")):
        rule = cat.h_calculus.rule_for(word)
        lhs = delta.apply(Expression.from_word(word))
        rhs = delta.apply(rule.rhs)
        assert cov.normal_form(lhs - rhs).is_zero(), word


def test_plane_dagger_images(cat):
    dag = cat.plane_dagger
    pres = cat.h_calculus
    assert dag.apply(Expression.from_gen("h2")) == -Expression.from_gen("h2")
    for gid in ("x", "th", "px", "pth"):
        g = Expression.from_gen(gid)
        assert dag.apply(dag.apply(g)) == pres.normal_form(g)


def test_every_map_fixes_the_parameters_but_the_dagger(cat):
    # no builder states the image of a parameter it fixes; the plane
    # dagger alone gives one, h2 -> -h2
    h1, h2 = Expression.from_gen("h1"), Expression.from_gen("h2")
    for m in (cat.contraction.forward, cat.contraction.backward, cat.coaction,
              cat.plane_dagger, cat.oscillator_star, cat.oscillator_dictionary):
        sign = -1 if m is cat.plane_dagger else 1
        assert list(m.images)[-2:] == ["h1", "h2"], m.name
        assert (m.images["h1"], m.images["h2"]) == (h1, h2.scale(sign)), m.name


def test_oscillator_star_swaps_p_and_q(cat):
    star = cat.oscillator_star
    e = Expression.from_word(("A",), Scalar.p())
    assert star.apply(e) == Expression.from_word(("Ap",), Scalar.q())


def test_oscillator_dictionary_images(cat):
    d = cat.oscillator_dictionary
    frozen = {
        "x": "Ap - 1/(p - 1)*h1*Bp",
        "th": "Bp - 1/(q - 1)*h2*Ap - 1/((p - 1)*(q - 1))*h1*h2*Bp",
        "px": "A + 1/(q - 1)*h2*B + 1/((p - 1)*(q - 1))*h1*h2*A",
        "pth": "B - 1/(p - 1)*h1*A",
    }
    for gid, text in frozen.items():
        assert d.images[gid] == parse_expression(text, cat.oscillator), gid


def test_param_swap_rule_count():
    rules = param_swap_rules(PQ_DECLS)
    # 2 params x 6 generators, one cross swap, two squares
    assert len(rules) == 15


def test_catalog_presentation_names(cat):
    table = catalog_presentations(cat)
    assert sorted(table) == [
        "covariance",
        "h-calculus",
        "one-forms",
        "oscillator",
        "pq-calculus",
        "supergroup",
    ]
    assert table["supergroup"].rule_for(("ainv", "a")) is not None


def test_localize_helper_names(cat):
    forms = cat.one_forms
    assert forms.name == "one-forms"
    assert forms.gens["xinv"].klass is GenClass.INVERSE
