"""Conway polynomial: determinant, traversals, planarity and product formulas."""

import itertools
from math import comb

import pytest

from knots import (
    UNDER,
    ConwayPoly,
    Diagram,
    DomainError,
    NonPlanarError,
    casson,
    catalog,
    coefficient,
    connected_sum,
    conway,
    crossing_change,
    disjoint_union,
    from_text,
    is_descending,
    is_realizable,
    lk,
    permute_components,
    smooth,
    violations,
)

from diagram_variants import traversals

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
FIG8 = "O1- U2+ O3+ U1- O4- U3+ O2+ U4-"
FIVE_1 = "O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+"
HOPF_PLUS = "O1+ U2+ ; O2+ U1+"
HOPF_MINUS = "U1- O2- ; U2- O1-"
WHITEHEAD = "U1- O2- U3+ O4+ ; O1- U5+ O3+ U4+ O5+ U2-"
BORROMEAN = "O1+ U5+ O2- U6- ; O3+ U1+ O4- U2- ; O5+ U3+ O6- U4-"


def test_poly_arithmetic_and_text():
    p = ConwayPoly((1, 0, 1))
    q = ConwayPoly((0, 1))
    assert (p * q).coeffs == (0, 1, 0, 1)
    assert (p + q).coeffs == (1, 1, 1)
    assert (p - p).coeffs == ()
    assert p.shifted().coeffs == (0, 1, 0, 1)
    assert str(p) == "1 + t^2"
    assert str(ConwayPoly((1, 0, -1))) == "1 - t^2"
    assert str(ConwayPoly((0, -1))) == "-t"
    assert str(ConwayPoly((1, 0, 3, 0, 1))) == "1 + 3t^2 + t^4"
    assert str(ConwayPoly()) == "0"
    assert ConwayPoly((1, 0, 0)).coeffs == (1,)


def test_poly_iterates_over_its_coefficients():
    assert list(conway(from_text(FIVE_1))) == [1, 0, 3, 0, 1]
    assert list(ConwayPoly()) == []


def test_non_planar_codes_are_refused():
    # Valid Gauss codes of genus 1: no plane diagram has them, and the
    # Alexander matrix of such a code is no link's polynomial.
    for text in ("O1+ U2+ U1+ O2+", "O1+ U2- O3+ U1+ O2- U3+", "O1+ O2+ ; U1+ U2+"):
        d = from_text(text)
        assert not is_realizable(d)
        with pytest.raises(NonPlanarError):
            conway(d)


def test_poly_indexing_outside_range_is_zero():
    p = ConwayPoly((2, 3))
    assert p[0] == 2 and p[1] == 3 and p[5] == 0 and p[-1] == 0
    assert p.degree == 1
    assert ConwayPoly().degree == -1


def test_golden_polynomials():
    assert str(conway(from_text("()"))) == "1"
    assert str(conway(from_text(TREFOIL))) == "1 + t^2"
    assert str(conway(from_text(FIG8))) == "1 - t^2"
    assert str(conway(from_text(FIVE_1))) == "1 + 3t^2 + t^4"
    assert str(conway(from_text(HOPF_PLUS))) == "t"
    assert str(conway(from_text(HOPF_MINUS))) == "-t"
    assert str(conway(from_text(WHITEHEAD))) == "-t^3"
    assert str(conway(from_text(BORROMEAN))) == "t^4"
    assert str(conway(from_text("() ; ()"))) == "0"


def test_skein_relation_at_every_trefoil_crossing():
    d = from_text(TREFOIL)
    for c in (1, 2, 3):
        plus, minus = d, crossing_change(d, c)
        if d.signs[c] < 0:
            plus, minus = minus, plus
        lhs = conway(plus) - conway(minus)
        rhs = conway(smooth(d, c)).shifted()
        assert lhs.coeffs == rhs.coeffs


def test_descending_code_is_recognized():
    assert is_descending(from_text("O1+ O2+ U1+ U2+"))
    assert not is_descending(from_text(TREFOIL))
    assert violations(from_text(TREFOIL)) != ()


def test_unknotting_changes_make_it_descending():
    d = from_text(FIVE_1)
    for c in violations(d):
        d = crossing_change(d, c)
    assert is_descending(d)
    assert str(conway(d)) == "1"


def test_descending_multi_component_diagram_is_split():
    # Component 0 rides entirely above component 1; the two crossings
    # of a split pair of circles have opposite signs.
    over = "O1+ O2- ; U1+ U2-"
    d = from_text(over)
    assert is_realizable(d)
    assert is_descending(d)
    assert conway(d).coeffs == ()


def test_violations_are_the_under_first_visits_of_the_walk():
    # Walk every component from its first pass, in stored order; the
    # permuted and rotated diagrams are the other traversals.
    for entry in catalog.all():
        for d in [entry.diagram] + traversals(entry.diagram):
            seen, want = set(), []
            for p in itertools.chain.from_iterable(d.components):
                if p.crossing not in seen:
                    seen.add(p.crossing)
                    want += [p.crossing] if p.role == UNDER else []
            assert violations(d) == tuple(want), d
            assert is_descending(d) == (not want)


# A traversal plan (component order, basepoints) is the diagram itself,
# permuted or with its passes rotated.
def test_plan_component_order_does_not_change_the_answer():
    for text in (HOPF_MINUS, WHITEHEAD, BORROMEAN):
        d = from_text(text)
        base = conway(d)
        for order in itertools.permutations(range(d.n_components)):
            assert conway(permute_components(d, order)).coeffs == base.coeffs


def test_plan_basepoints_do_not_change_the_answer():
    for text in (TREFOIL, FIG8, FIVE_1):
        d = from_text(text)
        base = conway(d)
        comp = d.components[0]
        for k in range(len(comp)):
            assert conway(Diagram((comp[k:] + comp[:k],))).coeffs == base.coeffs


def test_mixed_plans_on_a_link():
    d = from_text(WHITEHEAD)
    base = conway(d)
    c0, c1 = d.components
    variants = [
        permute_components(d, (1, 0)),
        Diagram((c0[2:] + c0[:2], c1[3:] + c1[:3])),
        Diagram((c1[4:] + c1[:4], c0[1:] + c0[:1])),
    ]
    for variant in variants:
        assert conway(variant).coeffs == base.coeffs


def test_connected_sum_multiplies_conway():
    t = from_text(TREFOIL)
    f = from_text(FIG8)
    s = connected_sum(t, 0, f, 0)
    assert str(conway(s)) == "1 - t^4"
    assert conway(s).coeffs == (conway(t) * conway(f)).coeffs


def test_disjoint_union_kills_conway():
    t = from_text(TREFOIL)
    f = from_text(FIG8)
    assert conway(disjoint_union(t, f)).coeffs == ()


def test_coefficient_accessor():
    d = from_text(FIVE_1)
    assert coefficient(d, 0) == 1
    assert coefficient(d, 2) == 3
    assert coefficient(d, 7) == 0
    assert coefficient(d, -1) == 0
    with pytest.raises(DomainError):
        coefficient(d, -2)


def test_c2_matches_casson_on_knots():
    for text in ("()", TREFOIL, FIG8, FIVE_1):
        d = from_text(text)
        assert coefficient(d, 2) == casson(d)


def test_c1_matches_lk_on_two_component_links():
    for text in (HOPF_PLUS, HOPF_MINUS, WHITEHEAD):
        d = from_text(text)
        assert coefficient(d, 1) == lk(d, 0, 1)


def test_vanishing_pattern_by_component_count():
    # For a k-component link, c_j = 0 for j <= k - 2 and for j - k even.
    for text in (HOPF_PLUS, HOPF_MINUS, WHITEHEAD, BORROMEAN, "() ; ()"):
        d = from_text(text)
        k = d.n_components
        p = conway(d)
        for j in range(p.degree + 1):
            if j <= k - 2 or (j - k) % 2 == 0:
                assert p[j] == 0, (text, j)


def test_knot_conway_is_even():
    for text in (TREFOIL, FIG8, FIVE_1):
        p = conway(from_text(text))
        assert all(p[j] == 0 for j in range(1, p.degree + 1, 2))
        assert p[0] == 1


@pytest.mark.parametrize("n", range(3, 82, 2))
def test_torus_knot_closed_form(n):
    # T(2, 2k+1) has c_2j = C(k + j, 2j).
    k = (n - 1) // 2
    d = from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    want = [0] * (2 * k + 1)
    for j in range(k + 1):
        want[2 * j] = comb(k + j, 2 * j)
    assert conway(d).coeffs == tuple(want)
