"""Crossing changes against the validating rebuild of ``change_oracle``.

``crossing_change`` (and so ``mirror`` and ``resolutions``) is a trusted
edit: it copies the parent's passes and signs and flips the changed
crossings where ``locate`` puts them, without checking the code again.
On catalog entries and their mirrors, T(2,n) of both hands, seeded walk
endpoints whose ``locate`` was never read, and resolutions of realized
singular knots, the result must equal the rebuild in its passes, its
signs (in the same key order), its pass locations, faces, genus and
canonical key, and must leave the parent unchanged.
"""

import random

import pytest

from knots import (
    WalkPlan,
    canonical_key,
    catalog,
    crossing_change,
    from_text,
    genus,
    mirror,
    random_walk,
    realize,
    resolutions,
)

import change_oracle


def _torus(n, sign=1):
    """T(2, n), the closed 2-braid sigma_1^n (a knot for odd n), with
    every crossing of sign ``sign``."""
    s = "+" if sign > 0 else "-"
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}{s}" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + k) % 2]}{i + 1}{s}" for i in range(n)) for k in (0, 1))
    return from_text(" ; ".join(comps))


def _same(got, want):
    assert got.components == want.components
    assert list(got.signs.items()) == list(want.signs.items())
    assert got.locate == want.locate
    assert got.faces == want.faces
    assert genus(got) == genus(want)
    assert canonical_key(got) == canonical_key(want)


def _agrees(d, *crossings):
    """``crossing_change(d, *crossings)`` equals the rebuild and leaves
    ``d`` as it was."""
    before = (d.components, list(d.signs.items()), {c: dict(w) for c, w in d.locate.items()})
    got = crossing_change(d, *crossings)
    _same(got, change_oracle.crossing_change(d, *crossings))
    assert (d.components, list(d.signs.items()), d.locate) == before
    assert got.signs is not d.signs
    return got


def _subsets(d, rng):
    """The empty change, each crossing alone, seeded subsets of several
    crossings, every crossing, and labels given more than once."""
    labels = list(d.signs)
    yield ()
    yield from ((c,) for c in labels)
    for _ in range(4):
        yield tuple(rng.sample(labels, rng.randint(0, len(labels))))
    yield tuple(labels)
    if labels:
        c = rng.choice(labels)
        yield (c, c)
        yield (c, *labels, c)


def _check(d, rng):
    for crossings in _subsets(d, rng):
        _agrees(d, *crossings)
    m = _agrees(d, *d.signs)
    _same(mirror(d), m)
    back = mirror(mirror(d))
    assert back == d
    assert (back.signs, back.locate, back.faces) == (d.signs, d.locate, d.faces)


def _entries():
    for name in catalog.names():
        yield catalog.lookup(name).diagram


def test_catalog_entries_and_their_mirrors():
    rng = random.Random(0)
    for d in _entries():
        _check(d, rng)
        _check(mirror(d), rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
def test_torus_of_both_hands(n):
    rng = random.Random(n)
    for sign in (1, -1):
        _check(_torus(n, sign), rng)


@pytest.mark.parametrize("seed", range(12))
def test_walk_endpoints_whose_locate_was_never_read(seed):
    rng = random.Random(seed)
    for d in _entries():
        walked = random_walk(d, WalkPlan(seed=seed, steps=rng.randint(5, 40)))
        assert walked is d or "locate" not in walked.__dict__
        _check(walked, rng)


def test_resolutions_of_realized_singular_knots():
    for word in ("1212", "123123", "121323", "12341234"):
        for seed in range(3):
            s = realize(word, seed=seed)
            doubles = sorted(s.doubles)
            for d, parity in resolutions(s):
                changed = [c for c in doubles if d.signs[c] != s.base.signs[c]]
                assert len(changed) == parity
                _same(d, change_oracle.crossing_change(s.base, *changed))
