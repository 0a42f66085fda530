"""Arf and Casson invariants via skew pair counting."""

import pytest

from knots import (
    UNDER,
    NotAKnotError,
    WalkPlan,
    arf,
    casson,
    catalog,
    connected_sum,
    from_text,
    mirror,
    random_walk,
    reverse_all,
)
from knots.codes import Diagram
from skew_oracle import SkewPair, skew_pairs_by_events

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
FIG8 = "O1- U2+ O3+ U1- O4- U3+ O2+ U4-"
FIVE_1 = "O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+"


def test_golden_values():
    assert casson(from_text("()")) == 0
    assert casson(from_text(TREFOIL)) == 1
    assert casson(from_text(FIG8)) == -1
    assert casson(from_text(FIVE_1)) == 3
    assert arf(from_text("()")) == 0
    assert arf(from_text(TREFOIL)) == 1
    assert arf(from_text(FIG8)) == 1
    assert arf(from_text(FIVE_1)) == 1


def test_arf_is_casson_mod_two():
    for text in ("()", TREFOIL, FIG8, FIVE_1):
        d = from_text(text)
        assert arf(d) == casson(d) % 2


def test_trefoil_skew_pairs():
    d = from_text(TREFOIL)
    assert skew_pairs_by_events(d) == (SkewPair(1, 2, 1),)
    assert casson(d) == 1


def test_fig8_skew_pairs_cancel_to_minus_one():
    d = from_text(FIG8)
    assert sorted(p.sign for p in skew_pairs_by_events(d)) == [-1]
    assert casson(d) == -1


def test_skew_pairs_are_basepoint_independent_in_count():
    d = from_text(FIVE_1)
    base = casson(d)
    for k in range(len(d.components[0])):
        rotated = Diagram((d.components[0][k:] + d.components[0][:k],))
        assert casson(rotated) == base
        assert arf(rotated) == base % 2


def test_direction_independence():
    for text in (TREFOIL, FIG8, FIVE_1):
        d = from_text(text)
        assert casson(reverse_all(d)) == casson(d)


def test_mirror_keeps_casson_of_these_knots():
    # c2 is even under mirror image.
    for text in (TREFOIL, FIG8, FIVE_1):
        d = from_text(text)
        assert casson(mirror(d)) == casson(d)


def test_casson_adds_under_connected_sum():
    t = from_text(TREFOIL)
    acc = from_text("()")
    for n in range(1, 7):
        acc = connected_sum(acc, 0, t, 0)
        assert casson(acc) == n
        assert arf(acc) == n % 2


def test_links_are_rejected():
    with pytest.raises(NotAKnotError):
        arf(from_text("O1+ U2+ ; O2+ U1+"))
    with pytest.raises(NotAKnotError):
        casson(from_text("() ; ()"))


def test_descending_diagram_has_no_skew_pairs():
    # First visits are all over: nothing interleaves.
    d = from_text("O1+ O2+ U1+ U2+")
    assert skew_pairs_by_events(d) == ()
    assert casson(d) == 0


GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _torus_knot(n):
    """T(2, n) for odd n: one component of 2n alternating passes."""
    return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))


def _agrees_from_every_basepoint(d):
    """Hold ``casson`` and ``arf`` to the event-sort listing from every
    basepoint; return the sweep branches taken."""
    comp, branches = d.components[0], set()
    for k in range(max(1, len(comp))):
        rotated = Diagram((comp[k:] + comp[:k],))
        oracle = skew_pairs_by_events(rotated)
        assert casson(rotated) == sum(sp.sign for sp in oracle), (d, k)
        assert arf(rotated) == len(oracle) % 2, (d, k)
        branches |= _sweep_branches(rotated, oracle)
    return branches


def _sweep_branches(d, pairs):
    """The branches of the ``casson`` sweep that ``d`` reaches, found
    from its skew pairs: ``("close", s)`` when a held under-first crossing
    of sign s is deleted, ``"both signs"`` when an over-first crossing has
    skew partners of both signs (both held lists count at its under pass).
    """
    first = {}
    for p in d.components[0]:
        first.setdefault(p.crossing, p.role)
    branches = {("close", d.signs[c]) for c, role in first.items() if role == UNDER}
    partner_signs = {}
    for sp in pairs:
        partner_signs.setdefault(sp.a, set()).add(sp.sign * d.signs[sp.a])
    if any(len(signs) == 2 for signs in partner_signs.values()):
        branches.add("both signs")
    return branches


@pytest.mark.parametrize("n", range(3, 40, 2))
def test_skew_pairs_match_the_event_sort_on_torus_knots(n):
    _agrees_from_every_basepoint(_torus_knot(n))
    _agrees_from_every_basepoint(mirror(_torus_knot(n)))


def test_skew_pairs_match_the_event_sort_on_catalog_knots_and_walks():
    starts = [e.diagram for e in catalog.all() if e.diagram.n_components == 1]
    for d in starts:
        _agrees_from_every_basepoint(d)
    walks, branches = 0, set()
    for seed in range(26):
        for i, d in enumerate(starts):
            weights = GROW if (seed + i) % 2 else None
            walked = random_walk(d, WalkPlan(seed=seed, steps=12, weights=weights))
            for variant in (walked, reverse_all(walked), mirror(walked)):
                branches |= _agrees_from_every_basepoint(variant)
            walks += 1
    assert walks >= 100
    # T(2, n) has one sign, so only walks reach these.
    assert branches == {("close", 1), ("close", -1), "both signs"}


@pytest.mark.parametrize(
    "n", (3, 5, 7, 9, 11, 21, 51, 101, 103, 163, 201, 401, 1001, 2001)
)
def test_casson_of_large_torus_knots_is_the_closed_form(n):
    # T(2, n) = T(2, 2k+1) has Casson invariant C(k+1, 2) = (n^2 - 1) / 8,
    # its mirror the same; an oracle independent of the sweep and the listing.
    for d in (_torus_knot(n), mirror(_torus_knot(n))):
        assert casson(d) == (n * n - 1) // 8
        assert arf(d) == casson(d) % 2
