"""The rotation alternates roles, so two move-detection checks cannot fire.

At every face corner the strand arriving along the face and the one
leaving it have different roles, because sigma swaps the role bit
(``codes._TURN`` maps over-slots to under-slots and back).  Hence no
strand runs straight through an R3 triangle's corner, and a two-crossing
bigon whose one side keeps its role at both ends has a second side that
does too, with opposite signs at its two crossings.  ``moves`` relies on
both facts without testing them; these tests check them on catalog
entries, seeded walks and seeded polygon projections.
"""

import random

from knots import (
    DEFAULT_WEIGHTS,
    SpatialLink,
    WalkPlan,
    catalog,
    mirror,
    project,
    random_walk,
)

GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _check(d):
    """Assert both facts on ``d``; return its (R2 bigons, other bigons)."""
    alpha = d._darts[1]
    r2 = other = 0
    for face in d.faces:
        for i, dart in enumerate(face):
            # alpha(dart) arrives at the corner that face[i + 1] leaves.
            assert (alpha[dart] ^ face[(i + 1) % len(face)]) & 2, (d, face, i)
        if len(face) != 2 or face[0] >> 2 == face[1] >> 2:
            continue
        keeps = [not (x ^ alpha[x]) & 2 for x in face]
        assert keeps[0] == keeps[1], (d, face)
        if keeps[0]:
            assert d.signs[face[0] >> 2] == -d.signs[face[1] >> 2], (d, face)
            r2 += 1
        else:
            other += 1
    return r2, other


def _diagrams():
    for entry in catalog.all():
        yield entry.diagram
        yield mirror(entry.diagram)
    names = catalog.names()
    for seed in range(24):
        d = catalog.lookup(names[seed % len(names)]).diagram
        weights = GROW if seed % 2 else DEFAULT_WEIGHTS
        yield random_walk(d, WalkPlan(seed=seed, steps=30, weights=weights))
    rng = random.Random(4417)

    def vertex(c):
        return (rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))

    for seed in range(12):
        link = SpatialLink([[vertex(c) for _ in range(8)] for c in range(1 + seed % 3)])
        yield project(link, seed).diagram


def test_face_corners_alternate_roles_and_r2_bigons_have_opposite_signs():
    r2 = other = 0
    for d in _diagrams():
        a, b = _check(d)
        r2, other = r2 + a, other + b
    # Both kinds of two-crossing bigon were met, so neither branch is vacuous.
    assert r2 > 10 and other > 10, (r2, other)
