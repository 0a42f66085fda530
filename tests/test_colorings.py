"""Fox p-colorings: arc extraction, rank counts, brute-force oracle."""

import itertools

import pytest

from knots import (
    DomainError,
    arcs,
    count_colorings,
    from_text,
    is_colorable,
)

from coloring_oracle import count_colorings_by_enumeration

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
FIG8 = "O1- U2+ O3+ U1- O4- U3+ O2+ U4-"
FIVE_1 = "O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+"
HOPF = "O1+ U2+ ; O2+ U1+"
WHITEHEAD = "U1- O2- U3+ O4+ ; O1- U5+ O3+ U4+ O5+ U2-"
BORROMEAN = "O1+ U5+ O2- U6- ; O3+ U1+ O4- U2- ; O5+ U3+ O6- U4-"
# (2,6) torus link: three of the six crossings between each arc pair.
TORUS_2_6 = "O1+ U2+ O3+ U4+ O5+ U6+ ; O2+ U3+ O4+ U5+ O6+ U1+"


def test_arc_counts():
    assert len(arcs(from_text(TREFOIL))) == 3
    assert len(arcs(from_text(FIG8))) == 4
    assert len(arcs(from_text(FIVE_1))) == 5
    # One under pass per Hopf component, so one arc each.
    assert len(arcs(from_text(HOPF))) == 2
    assert len(arcs(from_text(WHITEHEAD))) == 5
    assert len(arcs(from_text(BORROMEAN))) == 6
    assert len(arcs(from_text("()"))) == 1
    assert len(arcs(from_text("() ; ()"))) == 2


def test_component_with_no_unders_is_one_closed_arc():
    d = from_text("O1+ O2+ ; U1+ U2+")
    a = arcs(d)
    assert len(a) == 3  # one closed over-arc, two under-cut arcs


def test_three_colorings_golden():
    assert count_colorings(from_text(TREFOIL), 3).proper == 6
    assert count_colorings(from_text(TREFOIL), 3).total == 9
    for text in ("()", FIG8, HOPF, WHITEHEAD, BORROMEAN):
        assert count_colorings(from_text(text), 3).proper == 0


def test_five_colorings_golden():
    assert count_colorings(from_text(FIVE_1), 5).proper == 20
    assert count_colorings(from_text(FIG8), 5).proper == 20
    assert count_colorings(from_text(TREFOIL), 5).proper == 0
    assert count_colorings(from_text("()"), 5).proper == 0


def test_is_colorable_wrapper():
    assert is_colorable(from_text(TREFOIL), 3)
    assert not is_colorable(from_text(TREFOIL), 5)
    assert is_colorable(from_text(FIVE_1), 5)
    assert not is_colorable(from_text(FIVE_1), 3)


def test_a_three_colorable_link_exists_in_the_wild():
    # The (2,6) torus link is the classic 3-colorable 2-component link.
    d = from_text(TORUS_2_6)
    c = count_colorings(d, 3)
    assert c.proper > 0
    assert c == count_colorings_by_enumeration(d, 3)


def test_unlink_colorings_are_unconstrained():
    d = from_text("() ; ()")
    assert count_colorings(d, 3).total == 9
    assert count_colorings(d, 3).proper == 6
    assert count_colorings(d, 5).total == 25


def test_brute_force_agreement_on_small_diagrams():
    texts = ("()", "() ; ()", TREFOIL, FIG8, FIVE_1, HOPF, WHITEHEAD, BORROMEAN)
    for text in texts:
        d = from_text(text)
        for p in (3, 5):
            if p ** len(arcs(d)) <= 5**6:
                assert count_colorings(d, p) == count_colorings_by_enumeration(d, p)


def test_trichromatic_equivalence_on_the_trefoil():
    # 2*over = a + b mod 3 is the same as "all equal or all distinct".
    d = from_text(TREFOIL)
    aset = arcs(d)
    good = 0
    for combo in itertools.product(range(3), repeat=len(aset.arcs)):
        ok = True
        for c in d.signs:
            trio = (
                combo[aset.over_arc[c]],
                combo[aset.under_in[c]],
                combo[aset.under_out[c]],
            )
            if len(set(trio)) == 2:  # exactly two values meet at a crossing
                ok = False
                break
        good += ok
    assert good == count_colorings(d, 3).total


def test_modulus_must_be_an_odd_prime():
    d = from_text(TREFOIL)
    for p in (0, 1, 2, 4, 9, 15):
        with pytest.raises(DomainError):
            count_colorings(d, p)
    # Large prime moduli are fine.
    assert count_colorings(d, 7).proper == 0


def test_counts_are_powers_of_p_times_monochromatic_defect():
    for text in (TREFOIL, FIG8, FIVE_1, HOPF, WHITEHEAD, BORROMEAN):
        d = from_text(text)
        for p in (3, 5):
            c = count_colorings(d, p)
            assert c.total % p == 0
            assert c.proper == c.total - p
