"""The integer surface map against the named-dart oracle.

``Diagram.faces`` must list the same faces, dart for dart and in the same
order, as ``tests/face_oracle.py``, and ``genus`` must give the oracle's
Euler count, on planar and non-planar codes alike.
"""

import random

import pytest

from knots import (
    DEFAULT_WEIGHTS,
    Diagram,
    Pass,
    SpatialLink,
    WalkPlan,
    catalog,
    genus,
    mirror,
    project,
    random_walk,
)

import face_oracle

SLOTS = ("oi", "oo", "ui", "uo")
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _decoded(d):
    return tuple(tuple((x >> 2, SLOTS[x & 3]) for x in face) for face in d.faces)


def _check(d):
    assert _decoded(d) == face_oracle.faces(d), d
    assert genus(d) == face_oracle.genus(d), d


def _random_code(rng):
    """A valid code on 1-12 crossings, over and under passes shuffled
    into 1-3 components; most such codes are not planar."""
    n = rng.randint(1, 12)
    signs = {c: rng.choice((1, -1)) for c in range(1, n + 1)}
    passes = [Pass(c, role, sign) for c, sign in signs.items() for role in "OU"]
    rng.shuffle(passes)
    cuts = sorted(rng.sample(range(1, 2 * n), min(rng.randint(0, 2), 2 * n - 1)))
    bounds = [0] + cuts + [2 * n]
    return Diagram(passes[a:b] for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("name", catalog.names())
def test_catalog_entries_and_mirrors(name):
    d = catalog.lookup(name).diagram
    _check(d)
    _check(mirror(d))


@pytest.mark.parametrize("grow", [False, True])
def test_seeded_walks(grow):
    weights = GROW if grow else DEFAULT_WEIGHTS
    names = catalog.names()
    for seed in range(12):
        d = catalog.lookup(names[seed % len(names)]).diagram
        _check(random_walk(d, WalkPlan(seed=seed, steps=25, weights=weights)))


def test_seeded_polygon_projections():
    rng = random.Random(20261018)

    def vertex(c):
        return (rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))

    for seed in range(12):
        link = SpatialLink([[vertex(c) for _ in range(8)] for c in range(1 + seed % 3)])
        _check(project(link, seed).diagram)


def test_seeded_random_codes():
    rng = random.Random(8)
    planar = 0
    for _ in range(300):
        d = _random_code(rng)
        _check(d)
        planar += not any(genus(d))
    assert 0 < planar < 300  # both kinds were drawn
