"""The determinant ``conway`` against the skein recursion in skein_oracle.

Inputs: every catalog entry, T(2, n) for n <= 14 in both hands from
several start passes, seeded connected sums of small knots, and random
Reidemeister walks of every entry.  Each diagram is also computed with
its components in every order and with every component started one and
two passes later (``diagram_variants.traversals``).
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knots import (
    DomainError,
    WalkPlan,
    catalog,
    connected_sum,
    conway,
    from_text,
    is_realizable,
    mirror,
    random_walk,
)
from diagram_variants import traversals
from skein_oracle import CROSSING_CAP, skein_conway

SUMMANDS = ("trefoil-r", "trefoil-l", "fig8", "5_1")


def _agrees(d):
    want = skein_conway(d)
    for variant in [d] + traversals(d):
        assert conway(variant) == want, (d, variant)


def _torus(n, shift):
    """T(2, n), the closed 2-braid sigma_1^n, each component started at
    pass ``shift``; one component of 2n passes when n is odd."""
    if n % 2:
        comps = [[f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)]]
    else:
        comps = [[f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)] for s in (0, 1)]
    k = shift % len(comps[0])
    return from_text(" ; ".join(" ".join(c[k:] + c[:k]) for c in comps))


@pytest.mark.parametrize("name", [e.name for e in catalog.all()])
def test_catalog_entry(name):
    _agrees(catalog.lookup(name).diagram)


@pytest.mark.parametrize("n", range(2, 15))
def test_torus_both_hands_several_starts(n):
    for shift in (0, 1, n // 2 + 1):
        d = _torus(n, shift)
        assert is_realizable(d)
        _agrees(d)
        _agrees(mirror(d))


def test_seeded_connected_sums():
    rng = random.Random(20261018)
    knots_ = {name: catalog.lookup(name).diagram for name in SUMMANDS}
    sizes = set()
    for _ in range(40):
        d = from_text("()")
        while True:
            part = knots_[rng.choice(SUMMANDS)]
            if d.n_crossings + part.n_crossings > 10:
                break
            if rng.random() < 0.5:
                part = mirror(part)
            d = connected_sum(
                d,
                0,
                part,
                0,
                rng.randrange(max(1, len(d.components[0]))),
                rng.randrange(len(part.components[0])),
            )
        sizes.add(d.n_crossings)
        _agrees(d)
    assert max(sizes) >= 9


@pytest.mark.parametrize("name", [e.name for e in catalog.all()])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_reidemeister_walks(name, seed):
    walked = random_walk(catalog.lookup(name).diagram, WalkPlan(seed=seed, steps=12))
    assume(walked.n_crossings <= 12)
    _agrees(walked)


def test_oracle_enforces_its_cap():
    big = _torus(CROSSING_CAP + 1, 0)
    with pytest.raises(DomainError):
        skein_conway(big)
