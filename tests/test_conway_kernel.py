"""The packed Laurent kernel of ``conway`` against the dense kernel.

``conway`` eliminates the Fox minor over entries packed into one integer
each (``knots.conway._Laurent``), by unit steps and then Bareiss steps;
``kernel_oracle.dense_conway`` runs Bareiss steps alone over
``ConwayPoly`` coefficient lists.  On catalog entries and their mirrors,
T(2, n) of both hands, seeded walks and seeded projections up to about
300 crossings, both must give the same polynomial.  Run by Bareiss steps
alone, both kernels also take the same steps, and every packed pivot,
read back as signed w-bit digits, must be the dense pivot with each
coefficient strictly inside +-2^(w-1): the digit width holds every
minor.  On a projection of about 470 crossings, the unit steps and
Bareiss steps alone must give the same determinant.  Past the dense
kernel's reach, T(2, n) of both hands up to n = 1001 must follow the
skein recurrence.
"""

import random
from itertools import takewhile
from math import prod

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
from knots.conway import ONE, _digits, _divide, _fox_minor, _Laurent, _sign, _unit_inverse

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


@pytest.mark.parametrize("n", (301, 302, 501, 1001))
def test_large_torus_follows_the_skein_recurrence(n):
    # The skein relation at one crossing of T(2, n) gives
    # C_n = z C_{n-1} + C_{n-2}, from C_0 = 0 (the two-component unlink)
    # and C_1 = 1; the mirror has C_n(-z).
    prev, want = ConwayPoly(), ONE
    for _ in range(n - 1):
        prev, want = want, want.shifted() + prev
    assert conway(_torus(n)) == want
    flipped = ConwayPoly([-c if j % 2 else c for j, c in enumerate(want)])
    assert conway(mirror(_torus(n))) == flipped


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


def test_an_equal_exponent_difference_keeps_m_odd():
    # 3 * 2^5 - 2^5 = 2^6: kept as m = 1, e = 6, not m = 2, e = 5.
    x = _Laurent(5, 3) - _Laurent(5, 1)
    assert (x.e, x.m) == (6, 1)
    # (1 + t) - 1 = t at w = 8: a unit the unit steps must see.
    x = _Laurent(0, 1 + (1 << 8)) - _Laurent(0, 1)
    assert (x.e, x.m) == (8, 1)
    assert _digits(x, 8) == (1, [1])
    x = _Laurent(5, -7) - _Laurent(5, -7)
    assert not x


def test_the_units_are_plus_or_minus_powers_of_t():
    inverse = _unit_inverse(8)
    for e, m in ((0, 1), (0, -1), (16, 1), (-8, -1)):
        x = inverse(_Laurent(e, m))
        assert (x.e, x.m) == (-e, m)
    # +-2^s t^k with 0 < s < w, and entries with m != +-1, are no units.
    for e, m in ((3, 1), (19, -1), (-5, 1), (0, 3), (8, -3), (0, 1 - (1 << 8))):
        assert inverse(_Laurent(e, m)) is None


def _run(d, inverse):
    """The steps of ``d``'s minor, with the unit stage or (``inverse``
    None) Bareiss steps alone, and the signed digits of D they give:
    sign(row -> column) times the leading run of unit pivots times the
    last Bareiss pivot."""
    order, rows, w = _fox_minor(d)
    steps = pivot_steps(rows, _divide, _Laurent(0, 1), inverse)
    pivots = [pivot for _, _, pivot in steps]
    units = list(takewhile(inverse, pivots)) if inverse else []
    sign = _sign({order[r + 1]: c for r, c, _ in steps}) * prod(x.m for x in units)
    last = pivots[-1] if len(units) < len(pivots) else _Laurent(0, 1)
    return steps, len(units), [sign * c for c in _digits(last, w)[1]]


@pytest.mark.parametrize("n", [*range(2, 40), 101], ids=str)
def test_torus_minors_take_unit_steps_but_at_most_one(n):
    for d in (_torus(n), mirror(_torus(n))):
        inverse = _unit_inverse(_fox_minor(d)[2])
        steps, units, digits = _run(d, inverse)
        assert len(steps) == n - 1 and len(steps) - units <= 1, (n, len(steps), units)
        assert digits == _run(d, None)[2], n


def test_unit_steps_and_bareiss_steps_alone_agree_on_a_large_projection():
    rng = random.Random(2608)
    polygon = [
        [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(36)]
        for c in range(2)
    ]
    d = project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram
    assert 450 <= d.n_crossings <= 490, d.n_crossings
    inverse = _unit_inverse(_fox_minor(d)[2])
    steps, units, digits = _run(d, inverse)
    bareiss, none, want = _run(d, None)
    assert none == 0 and len(steps) == len(bareiss) == d.n_crossings - 1
    # The unit steps leave a few rows for Bareiss steps, and D is the same.
    assert 0 < len(steps) - units < 30, len(steps) - units
    assert digits == want


def test_a_unit_last_bareiss_pivot_stays_out_of_the_unit_run():
    # This unknot diagram leaves two rows to Bareiss steps, and their last
    # pivot is D, a unit: only the leading run of unit pivots are unit
    # steps, or D would read as the first Bareiss pivot times D.
    d = random_walk(catalog.lookup("unknot").diagram, WalkPlan(42, 40, GROW))
    inverse = _unit_inverse(_fox_minor(d)[2])
    steps, units, digits = _run(d, inverse)
    assert len(steps) - units == 2 and inverse(steps[-1][2]), (len(steps), units)
    assert conway(d) == dense_conway(d) == ONE
    assert [abs(c) for c in digits] == [1]
