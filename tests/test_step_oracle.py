"""Every move's result against a full rebuild, step by step.

Moves build their results by patching the parent's maps
(``Diagram._child``): signs, darts and faces, with the per-arc R2+
partner counts carried along; a result finds ``locate`` and its pieces
when they are first read.  At every step of seeded walks (default and
growth weights, each move kind alone, split starts with free loops) and
of walks of enumerated sites taken by ``apply_move``, the result must
equal ``Diagram(result.components)`` in all of these and in every site
table, its faces must be those of ``tests/face_oracle.py`` and its
signs and locations those of ``tests/validate_oracle.py``.  The R2+
partner counts are also checked after several steps taken without
asking for them.  A walk must also free the diagrams it passes through.
"""

import functools
import random
import weakref

import pytest

from knots import (
    DEFAULT_WEIGHTS,
    Diagram,
    WalkPlan,
    apply_move,
    catalog,
    disjoint_union,
    enumerate_sites,
    from_text,
    random_walk,
)
from knots.moves import _MOVES

import face_oracle
import site_oracle
import validate_oracle

SLOTS = ("oi", "oo", "ui", "uo")
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _start(name):
    """A catalog entry, "a|b" for a disjoint union, or a literal code."""
    if name.startswith(("(", "O", "U")):
        return from_text(name)
    first, *rest = (catalog.lookup(part).diagram for part in name.split("|"))
    return functools.reduce(disjoint_union, rest, first)


def _check(d):
    fresh = Diagram(d.components)
    assert (d.signs, d.locate) == validate_oracle.validate(d.components)
    assert (d.signs, d.locate) == (fresh.signs, fresh.locate)
    assert d._arc_base == fresh._arc_base
    assert d._darts == fresh._darts
    assert d.faces == fresh.faces
    # The face of every dart, and each face as its orbit from its key.
    assert _partition(d) == _partition(fresh)
    assert all(face[0] == key for key, face in d._faces[0].items())
    decoded = tuple(tuple((x >> 2, SLOTS[x & 3]) for x in face) for face in d.faces)
    assert decoded == face_oracle.faces(d)
    assert d._pieces == fresh._pieces
    assert d.pieces == site_oracle.pieces(d)
    assert d._partner_counts == fresh._partner_counts
    assert list(_MOVES["R2+"][0](d)) == site_oracle.r2_keys(fresh)
    for kind, (anchors, _, _) in _MOVES.items():
        assert list(anchors(d)) == list(anchors(fresh)), kind


def _partition(d):
    """Dart -> the smallest dart of its face."""
    by_key, face_of = d._faces
    return {x: min(by_key[key]) for x, key in face_of.items()}


def _walk(d, weights, seed, steps):
    """Check each diagram of a seeded walk, taken one step at a time."""
    sizes = []
    for i in range(steps):
        d = random_walk(d, WalkPlan(seed=seed * 1000 + i, steps=1, weights=weights))
        _check(d)
        sizes.append(d.n_crossings)
    return sizes


STARTS = ("trefoil-r", "fig8", "5_1", "hopf+", "whitehead", "borromean", "trivial-n2")
SPLIT = ("trefoil-r|hopf+", "fig8|unknot", "() ; ()", "() ; O1+ U1+", "O1+ U1+ ; O2+ U2+")


@pytest.mark.parametrize("name", STARTS + SPLIT)
def test_default_and_growth_walks(name):
    d = _start(name)
    _check(d)
    grown = _walk(d, GROW, seed=1, steps=40)
    assert max(grown) >= 20
    _walk(d, DEFAULT_WEIGHTS, seed=2, steps=40)


@pytest.mark.parametrize("name", ("trefoil-l", "borromean", "trefoil-r|hopf+", "() ; O1+ U1+"))
def test_stale_counts_carried_over_several_steps(name):
    # Counts are taken again only when asked for, so between checks the
    # darts to count again pile up over five steps.
    for weights in (DEFAULT_WEIGHTS, GROW):
        d = _start(name)
        for seed in range(10):
            d = random_walk(d, WalkPlan(seed=seed, steps=5, weights=weights))
            _check(d)


@pytest.mark.parametrize("kind", _MOVES)
def test_each_kind_alone(kind):
    for seed, name in enumerate(("trefoil-l", "borromean", "trefoil-r|hopf+")):
        d = random_walk(_start(name), WalkPlan(seed=seed, steps=25, weights=GROW))
        sizes = _walk(d, {kind: 1.0}, seed=seed, steps=12)
        if kind in ("R1+", "R2+"):
            assert sizes[-1] > d.n_crossings
        if kind in ("R1-", "R2-"):
            assert sizes[-1] < d.n_crossings


def test_long_growth_then_shrinking_walk():
    d = random_walk(_start("fig8|unknot"), WalkPlan(seed=3, steps=120, weights=GROW))
    _check(d)
    assert d.n_crossings >= 100
    assert min(_walk(d, DEFAULT_WEIGHTS, seed=4, steps=60)) < d.n_crossings


@pytest.mark.parametrize("name", ("trefoil-r", "hopf+|unknot", "() ; O1+ U1+"))
def test_applied_sites(name):
    rng = random.Random(name)
    d = _start(name)
    for _ in range(30):
        sites = enumerate_sites(d)
        d = apply_move(d, rng.choice(sites))
        _check(d)


def test_walks_free_the_diagrams_they_pass():
    d = _start("trefoil-r|hopf+")
    passed = []
    for i in range(40):
        passed.append(weakref.ref(d))
        d = random_walk(d, WalkPlan(seed=i, steps=1, weights=GROW))
    assert d.n_crossings > 30
    alive = [ref for ref in passed[1:] if ref() is not None and ref() is not d]
    assert not alive
