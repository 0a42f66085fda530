"""The geometry fast paths against ``geometry_oracle``: the written-out
``_crossing``, ``crossings`` over index-pair segments, and the
orientations that the six- and seven-point checks read off the signs of
``_check_points``."""

import itertools
import random

import pytest

import knots.spatial
from knots import (
    DegeneracyError,
    SpatialLink,
    project,
    realize,
    triangles_linked,
    verify_seven_points,
)
from knots.spatial import _check_points, _crossing, _k7_table, _linked, _splits, crossings

from cycle_oracle import cycle_table
from geometry_oracle import crossing_by_orient2d, crossings_by_pairs, linked_by_orient3d


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the DegeneracyError it raises."""
    try:
        return fn(*args)
    except DegeneracyError as exc:
        return type(exc), str(exc)


def _points(rng, n, dim, scale=1.0):
    return [tuple(scale * rng.uniform(-1, 1) for _ in range(dim)) for _ in range(n)]


# Hand cases: (p1, p2, q1, q2) in the plane.
HAND_CASES = {
    "proper": ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)),
    "miss": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)),
    "collinear-overlap": ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (2.0, 0.0)),
    "collinear-apart": ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)),
    "collinear-touching-ends": ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
    "end-on-segment": ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 1.0)),
    "segment-through-end": ((0.0, 0.0), (0.5, 0.0), (0.5, -1.0), (0.5, 1.0)),
    "shared-endpoint": ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)),
    "shared-start": ((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.3, 0.7)),
    # Ends a few ulps off the other segment's line: the float filter
    # cannot decide, and the Fraction path does.
    "near-collinear": ((0.0, 0.0), (3.0, 1.0), (0.3, 0.1 + 2**-55), (2.1, 0.7 - 2**-54)),
    "near-end-crossing": ((0.1, 0.1), (0.7, 0.3), (0.4, 0.2 - 2**-54), (0.4, 5.0)),
    "near-end-miss": ((0.1, 0.1), (0.7, 0.3), (0.4, 0.2 + 2**-54), (0.4, 5.0)),
    "tiny": ((1e-300, 0.0), (3e-300, 2e-300), (1e-300, 2e-300), (3e-300, 0.0)),
    "huge": ((-1e300, 0.0), (1e300, 1e300), (-1e300, 1e300), (1e300, 0.0)),
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_crossing_matches_four_orient2d_calls_on_hand_cases(name, monkeypatch):
    # The same value or DegeneracyError; all but a clear crossing or miss
    # take at least one determinant on the Fraction path.
    exact = []
    real = knots.spatial._exact2d
    monkeypatch.setattr(knots.spatial, "_exact2d", lambda *a: exact.append(1) or real(*a))
    ends = HAND_CASES[name]
    got = _outcome(_crossing, *ends)
    assert bool(exact) == (name not in ("proper", "miss"))
    assert got == _outcome(crossing_by_orient2d, *ends)


def test_crossing_matches_four_orient2d_calls_on_random_quadruples(monkeypatch):
    # Uniform ends, ends on a small grid (collinear, touching and shared
    # ends), ends scaled near 1e-300 where products underflow and near
    # 1e300 where they overflow: the same crossing, bounds and turn, or
    # the same DegeneracyError, with the Fraction path reached.
    exact = []
    real = knots.spatial._exact2d
    monkeypatch.setattr(knots.spatial, "_exact2d", lambda *a: exact.append(1) or real(*a))
    rng = random.Random(3400)
    kinds, paths = set(), set()
    for k in range(6000):
        scale = (1.0, 1e-300, 1e-160, 1e-154, 1e150, 1e155, 1e300)[k % 7]
        if k % 3 == 2:
            ends = [tuple(scale * rng.randrange(3) for _ in range(2)) for _ in range(4)]
        else:
            ends = _points(rng, 4, 2, scale)
        exact.clear()
        got = _outcome(_crossing, *ends)
        paths.add(bool(exact))
        assert got == _outcome(crossing_by_orient2d, *ends), ends
        kinds.add(got if got is None or isinstance(got[0], type) else "proper")
    assert paths == {False, True}
    assert kinds == {
        None,
        "proper",
        (DegeneracyError, "collinear overlapping segments"),
        (DegeneracyError, "crossing at a segment endpoint"),
    }


def _record(monkeypatch):
    """Every (points, edges) that ``crossings`` is called with, by
    ``project``, ``verify_seven_points`` and ``realize``."""
    seen = []

    def recording(points, edges):
        seen.append((points, edges))
        return crossings(points, edges)

    monkeypatch.setattr("knots.spatial.crossings", recording)
    monkeypatch.setattr("knots.vassiliev.crossings", recording)
    return seen


def test_crossings_match_the_all_pairs_listing(monkeypatch):
    # K7 sets plain and scaled by 1e-3, 1-3-component polygons and the
    # polygons of ``realize``, as each projects them.
    seen = _record(monkeypatch)
    rng = random.Random(3401)
    for _ in range(12):
        pts = _points(rng, 7, 3)
        seed = rng.randrange(2**31)
        verify_seven_points(pts, seed)
        verify_seven_points([tuple(1e-3 * x for x in p) for p in pts], seed)
    for _ in range(12):
        comps = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(rng.randint(3, 20))]
            for c in range(rng.randint(1, 3))
        ]
        project(SpatialLink(comps), seed=rng.randrange(2**31))
    for word in ("11", "1212", "123123", "12341234", "12314324"):
        realize(word, seed=rng.randrange(2**31))
    crossed = 0
    for points, edges in seen:
        want = _outcome(crossings_by_pairs, points, edges)
        assert _outcome(crossings, points, edges) == want
        crossed += bool(want)
    assert len(seen) >= 41 and crossed >= 35


def test_six_point_splits_match_orient3d():
    # Every split of every set, and triangles_linked both ways round, on
    # uniform sets and the same sets scaled by 1e-3 and moved.
    rng = random.Random(3402)
    splits = [((0,) + pair, tuple(i for i in range(1, 6) if i not in pair))
              for pair in itertools.combinations(range(1, 6), 2)]
    assert [(first, second) for first, second, _ in _splits()] == splits
    linked = set()
    for k in range(300):
        pts = _points(rng, 6, 3)
        if k % 3 == 2:
            pts = [tuple(1e-3 * x + 0.3 for x in p) for p in pts]
        _, signs = _check_points(pts, 6)
        for first, second, rows in _splits():
            want = linked_by_orient3d([pts[i] for i in first + second])
            assert _linked(signs, rows) == want
            linked.add(want)
        assert triangles_linked(pts[:3], pts[3:]) == linked_by_orient3d(pts)
        assert triangles_linked(pts[3:], pts[:3]) == linked_by_orient3d(pts[3:] + pts[:3])
    assert linked == {0, 1}


def test_seven_point_over_decisions_match_orient3d():
    # Each crossing's over edge, read off the signs of _check_points,
    # against _orient3d_checked of its four ends in cycle_table.
    rng = random.Random(3403)
    for k in range(60):
        pts = _points(rng, 7, 3)
        if k % 3 == 2:
            pts = [tuple(1e-3 * x + 0.3 for x in p) for p in pts]
        pts, signs = _check_points(pts, 7)
        seed = rng.randrange(2**31)
        found, over = cycle_table(pts, seed)
        want = [(i, t, j, u) if o == i else (j, u, i, t) for (i, j, t, u, _), o in zip(found, over)]
        assert _k7_table(pts, signs, seed) == want
