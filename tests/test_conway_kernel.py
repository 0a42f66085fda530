"""The packed Laurent kernel of ``conway`` against the dense kernel.

``conway`` eliminates the Fox minor over entries packed into one integer
each (``knots.conway._Laurent``); ``kernel_oracle.dense_conway`` does the
same over ``ConwayPoly`` coefficient lists.  On catalog entries and their
mirrors, T(2, n) of both hands, seeded walks and seeded projections up
to about 300 crossings, both must give the same polynomial.  Both
kernels also take the same steps, and every packed pivot, read back as
signed w-bit digits, must be the dense pivot with each coefficient
strictly inside +-2^(w-1): the digit width holds every minor.
"""

import random

import pytest

from knots import (
    DEFAULT_WEIGHTS,
    ConwayPoly,
    SpatialLink,
    WalkPlan,
    catalog,
    conway,
    from_text,
    mirror,
    project,
    random_walk,
)
from knots.colorings import closed_arcs, pivot_steps
from knots.conway import ONE, _digits, _divide, _fox_minor, _Laurent

from kernel_oracle import dense_conway, dense_minor, exact_div

GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}
WALK_STARTS = ("trefoil-r", "fig8", "5_1", "hopf+", "whitehead", "borromean")
ONE_UNDER = {ConwayPoly((1, -1)), ConwayPoly((-1, 1))}


def _torus(n):
    """T(2, n), the closed 2-braid sigma_1^n: a knot for odd n."""
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)) for s in (0, 1))
    return from_text(" ; ".join(comps))


def _agree(d):
    """Check ``d`` against the dense kernel, pivot by pivot; returns the
    number of minor rows (1 - t, t - 1), a component with one under pass."""
    assert conway(d) == dense_conway(d), d
    if closed_arcs(d):
        return 0
    _, rows, w = _fox_minor(d)
    _, dense = dense_minor(d)
    packed = list(pivot_steps(rows, _divide, _Laurent(0, 1)))
    want = list(pivot_steps(dense, exact_div, ONE))
    assert [step[:2] for step in packed] == [step[:2] for step in want], d
    for (_, _, pivot), (_, _, poly) in zip(packed, want):
        lo, coeffs = _digits(pivot, w)
        assert all(-(2 ** (w - 1)) < c < 2 ** (w - 1) for c in poly), (d, w)
        assert [0] * lo + coeffs == list(poly), d
    return sum(set(row.values()) == ONE_UNDER for row in dense)


def test_catalog_entries_and_their_mirrors():
    for entry in catalog.all():
        _agree(entry.diagram)
        _agree(mirror(entry.diagram))


@pytest.mark.parametrize("ns", [range(2, 31), range(31, 61), (101, 151), (201,)], ids=str)
def test_torus_knots_and_links_of_both_hands(ns):
    for n in ns:
        _agree(_torus(n))
        _agree(mirror(_torus(n)))


def test_default_and_growth_walks():
    # Hopf-link walks keep a component with one under pass: the width
    # must allow for its row (1 - t, t - 1), worth 8 rather than 6.
    one_under = 0
    for name in WALK_STARTS:
        for seed in (0, 1):
            start = catalog.lookup(name).diagram
            for weights in (DEFAULT_WEIGHTS, GROW):
                one_under += _agree(random_walk(start, WalkPlan(seed, 40, weights)))
    assert one_under > 0


def test_projections_up_to_about_300_crossings():
    rng = random.Random(2501)
    sizes = []
    for comps, m in ((1, 8), (2, 5), (3, 4), (1, 20), (2, 10), (3, 7),
                     (1, 36), (2, 18), (3, 12), (1, 50), (2, 28), (3, 17)):
        polygon = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(m)]
            for c in range(comps)
        ]
        d = project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram
        _agree(d)
        sizes.append(d.n_crossings)
    assert min(sizes) < 10 and sorted(sizes)[-2] >= 250, sizes


def test_division_strips_the_powers_of_t_and_refuses_a_remainder():
    w = 8
    # (t - t^3) / (1 - t) = t + t^2, read back as t^1 * (1 + t).
    a, b = _Laurent(w, 1 - (1 << 2 * w)), _Laurent(0, 1 - (1 << w))
    assert _digits(_divide(a, b), w) == (1, [1, 1])
    # 1 + t is no multiple of 1 + 2t.
    with pytest.raises(ArithmeticError, match="a 10-bit entry does not divide a 9-bit one"):
        _divide(_Laurent(0, 1 + (1 << w)), _Laurent(0, 1 + (2 << w)))
    # Nor is 1 + t^2500 (w = 8) a multiple of 3; the message must not
    # print its 6,000 digits, which passes str()'s limit.
    with pytest.raises(ArithmeticError, match="a 2-bit entry does not divide a 20001-bit one"):
        _divide(_Laurent(0, 1 + (1 << 20000)), _Laurent(0, 3))


def test_a_zero_operand_keeps_the_other_exponent():
    # The kernel's fill-in is ``zero - f * v``; a zero aligned to t^0
    # would pad every such entry with the powers of t of f * v.
    zero = _Laurent(0, 1) - _Laurent(0, 1)
    assert not zero
    entry = zero - _Laurent(40, 3)
    assert (entry.e, entry.m) == (40, -3)
    entry = _Laurent(40, 3) - zero
    assert (entry.e, entry.m) == (40, 3)
