"""The Fox-minor ``conway`` of links against the crossing-change recursion.

Inputs lie past the 14-crossing cap of ``skein_oracle``: seeded
projections of two to four random polygons, chains of four to six Hopf
links joined by connected sums, and seeded Reidemeister walks of both.
Each is also checked mirrored, with one component reversed and with its
components permuted.  Two identities need no oracle:
C(mirror L)(t) = C(L)(-t), and c_1 = lk on two components.
"""

import random

import pytest

from knots import (
    ConwayPoly,
    SpatialLink,
    WalkPlan,
    connected_sum,
    conway,
    from_text,
    lk,
    mirror,
    permute_components,
    project,
    random_walk,
    reverse_component,
)
from link_oracle import link_conway

HOPF = (from_text("O1+ U2+ ; O2+ U1+"), from_text("U1- O2- ; U2- O1-"))
# (components, polygon vertices, diagrams, most crossings): the recursion
# takes up to about 0.3 s on each variant of these, and seconds on some
# 36-crossing 4-component links.
PROJECTIONS = ((2, 8, 5, 40), (2, 10, 3, 40), (3, 5, 3, 26), (3, 6, 3, 26), (4, 4, 1, 24))
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _polygons(rng, comps, m):
    return [
        [(rng.uniform(-1, 1) + 0.3 * c, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
        for c in range(comps)
    ]


def _projections(comps, m, count, cap):
    rng = random.Random(1000 * comps + m)
    out = []
    while len(out) < count:
        d = project(SpatialLink(_polygons(rng, comps, m)), seed=rng.randrange(2**31)).diagram
        if 14 < d.n_crossings <= cap:
            out.append(d)
    return out


def _chain(comps, seed):
    """``comps`` Hopf links of random signs, each summed onto a random
    component of the chain so far."""
    rng = random.Random(seed)
    d = rng.choice(HOPF)
    while d.n_components < comps:
        d = connected_sum(d, rng.randrange(d.n_components), rng.choice(HOPF), 0)
    return d


def _variants(d):
    """``d``, its mirror, one component reversed and the components
    permuted, the last two chosen by a seed drawn from ``d``."""
    rng = random.Random(d.n_crossings)
    order = list(range(d.n_components))
    rng.shuffle(order)
    return (d, mirror(d), reverse_component(d, order[0]), permute_components(d, order))


def _negated(p):
    """C(-t) for C(t)."""
    return ConwayPoly([c * (-1) ** j for j, c in enumerate(p.coeffs)])


def _agrees(d):
    got = conway(d)
    for v in _variants(d):
        assert conway(v) == link_conway(v), v
    assert conway(mirror(d)) == _negated(got), d
    if d.n_components == 2:
        assert got[1] == lk(d, 0, 1), d
    return got


@pytest.mark.parametrize("comps,m,count,cap", PROJECTIONS)
def test_projected_polygons(comps, m, count, cap):
    found = [_agrees(d) for d in _projections(comps, m, count, cap)]
    assert any(found), "every link of the sample has polynomial 0"


@pytest.mark.parametrize("comps", [4, 5, 6])
def test_hopf_chains(comps):
    for seed in range(4):
        d = _chain(comps, seed)
        # A chain of Hopf links has C = product of their +-t.
        assert abs(_agrees(d)[comps - 1]) == 1


@pytest.mark.parametrize("comps,m", [(2, 6), (3, 4), (4, 4)])
def test_walked_projections(comps, m):
    (d,) = _projections(comps, m, 1, 20)
    walked = random_walk(d, WalkPlan(seed=0, steps=4, weights=GROW))
    assert walked.n_crossings > d.n_crossings
    assert _agrees(walked) == conway(d)


@pytest.mark.parametrize("comps", [4, 5, 6])
def test_walked_hopf_chains(comps):
    for seed in range(3):
        d = _chain(comps, seed)
        walked = random_walk(d, WalkPlan(seed=seed, steps=10, weights=GROW))
        assert walked.n_crossings > d.n_crossings
        assert _agrees(walked) == conway(d)
