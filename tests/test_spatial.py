"""Spatial polygons: projection, linked triangles, six and seven points."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import knots
from knots import (
    DegeneracyError,
    DomainError,
    GenericityFailure,
    SpatialLink,
    arf,
    genus,
    lk,
    lk2,
    project,
    skew_pairs,
    triangles_linked,
    verify_seven_points,
    verify_six_points,
)
from knots.spatial import (
    MAX_RETRIES,
    _check_points,
    _cycle_skews,
    crossings,
    orient3d,
    retry,
    segment_crossing_2d,
)

from cycle_oracle import cycle_diagrams, verify_seven_points_by_diagrams


def _circle(n, radius=1.0, z=0.0, phase=0.0):
    return [
        (
            radius * math.cos(2 * math.pi * k / n + phase),
            radius * math.sin(2 * math.pi * k / n + phase),
            z,
        )
        for k in range(n)
    ]


def _hopf_pair():
    # Two interlocked hexagons: one flat at the origin, one upright
    # through its rim.
    a = [
        (math.cos(2 * math.pi * k / 6 + 0.15), math.sin(2 * math.pi * k / 6 + 0.15), 0.0)
        for k in range(6)
    ]
    b = [
        (1.0 + math.cos(2 * math.pi * k / 6 + 0.4), 0.0, math.sin(2 * math.pi * k / 6 + 0.4))
        for k in range(6)
    ]
    return SpatialLink((a, b))


def test_orientation_predicates():
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) != 0
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)) == 0


def test_segment_crossing_2d():
    got = segment_crossing_2d((0, 0), (1, 1), (0, 1), (1, 0))
    assert got is not None
    t, u = got
    assert abs(t - 0.5) < 1e-12 and abs(u - 0.5) < 1e-12
    assert segment_crossing_2d((0, 0), (1, 0), (0, 1), (1, 1)) is None
    with pytest.raises(DegeneracyError, match="crossing at a segment endpoint"):
        segment_crossing_2d((0, 0), (1, 0), (0.5, 0), (0.5, 1))
    # The same, with the end of the first segment on the second.
    with pytest.raises(DegeneracyError, match="crossing at a segment endpoint"):
        segment_crossing_2d((0, 0), (0.5, 0), (0.5, -1), (0.5, 1))
    # Collinear: overlapping segments are degenerate, disjoint ones miss.
    with pytest.raises(DegeneracyError, match="collinear overlapping segments"):
        segment_crossing_2d((0, 0), (1, 0), (0.5, 0), (2, 0))
    assert segment_crossing_2d((0, 0), (1, 0), (2, 0), (3, 0)) is None


def test_retry_gives_up_after_max_retries_naming_the_last_cause():
    tries = []

    def attempt(rng):
        tries.append(rng.random())
        raise DegeneracyError(f"attempt {len(tries)} degenerate")

    with pytest.raises(GenericityFailure) as info:
        retry(attempt, random.Random(0))
    assert len(tries) == MAX_RETRIES == 64
    assert str(info.value) == "no generic position after 64 tries: attempt 64 degenerate"


def test_spatial_link_validation():
    with pytest.raises(DomainError):
        SpatialLink(([(0, 0, 0), (1, 0, 0)],))  # needs three vertices
    with pytest.raises(DomainError):
        SpatialLink(([(0, 0, 0), (0, 0, 0), (1, 0, 0)],))
    touching = (
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (-1, 0, 0), (0, -1, 0)],
    )
    with pytest.raises(DomainError):
        SpatialLink(touching)


def test_projection_of_a_flat_circle_is_an_unknot():
    link = SpatialLink((_circle(8),))
    result = project(link, seed=0)
    assert result.diagram.n_crossings == 0
    assert genus(result.diagram) == (0,)


def test_projection_of_hopf_rings():
    link = _hopf_pair()
    result = project(link, seed=1)
    d = result.diagram
    assert d.n_components == 2
    assert abs(lk(d, 0, 1)) == 1
    assert lk2(d, 0, 1) == 1


def test_projection_lk2_is_direction_independent():
    link = _hopf_pair()
    for seed in range(10):
        assert lk2(project(link, seed=seed).diagram, 0, 1) == 1


def test_triangles_linked_golden_pair():
    t1 = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.1), (0.0, 2.0, -0.1))
    t2 = ((0.5, 0.5, -1.0), (0.6, 0.55, 1.3), (2.5, 2.6, 0.2))
    assert triangles_linked(t1, t2) == 1
    assert triangles_linked(t2, t1) == 1
    far = ((5.0, 5.0, 5.0), (6.0, 5.2, 5.1), (5.1, 6.3, 5.4))
    assert triangles_linked(t1, far) == 0


def test_triangles_linked_matches_projected_lk2():
    rng = random.Random(42)
    agree = 0
    for _ in range(40):
        t1 = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(3))
        t2 = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(3))
        try:
            geometric = triangles_linked(t1, t2)
            d = project(SpatialLink((t1, t2)), seed=7).diagram
        except DegeneracyError:
            continue
        assert geometric == lk2(d, 0, 1)
        agree += 1
    assert agree >= 30  # nearly every random pair is generic


def test_degenerate_triangles_raise():
    flat1 = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0))
    t2 = ((0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.5, 2.0, 0.3))
    with pytest.raises(DegeneracyError):
        triangles_linked(flat1, t2)


def test_verify_six_points_on_octahedron():
    # Antipodal triangle pairs of the octahedron are linked.
    pts = [
        (1.01, 0.02, 0.0),
        (-1.0, 0.01, 0.03),
        (0.02, 1.0, 0.01),
        (0.0, -1.02, 0.02),
        (0.03, 0.01, 1.0),
        (0.01, 0.02, -1.01),
    ]
    witness = verify_six_points(pts)
    a, b = witness
    assert sorted(a + b) == [0, 1, 2, 3, 4, 5]
    assert triangles_linked([pts[i] for i in a], [pts[i] for i in b]) == 1


def test_verify_six_points_random_samples():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(6)]
        witness = verify_six_points(pts)
        assert witness is not None


def verify_six_points_by_pairs(points):
    """The first split, from point 0, that the public ``triangles_linked``
    calls linked (oracle)."""
    pts = _check_points(points, 6)
    for pair in itertools.combinations(range(1, 6), 2):
        first = (0,) + pair
        second = tuple(i for i in range(6) if i not in first)
        if triangles_linked([pts[i] for i in first], [pts[i] for i in second]):
            return first, second
    raise AssertionError("no linked triangle pair on generic six points")


def test_verify_six_points_matches_the_pairwise_oracle():
    rng = random.Random(606)
    raised = 0
    for _ in range(1200):
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(6)]
        got = verify_six_points(pts)
        assert got == verify_six_points_by_pairs(pts)
        # Shrunk by 1e-3, the absolute part of the tolerance rejects them.
        small = [tuple(1e-3 * x for x in p) for p in pts]
        want = _outcome(verify_six_points_by_pairs, small)
        assert _outcome(verify_six_points, small) == want
        raised += want == "DegeneracyError"
    assert raised > 0


def test_verify_six_points_wants_exactly_six():
    with pytest.raises(DomainError):
        verify_six_points([(0, 0, 0)] * 5)


def test_verify_seven_points_small_sample():
    for seed in range(3):
        rng = random.Random(2000 + seed)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(7)]
        witness, parity = verify_seven_points(pts, seed=seed)
        assert witness is not None
        assert parity == 1
        # The witness really is a Hamiltonian cycle with Arf one.
        assert sorted(witness) == list(range(7))


def test_verify_seven_points_coplanar_raises():
    pts = [(float(k % 3), float(k // 3), 0.0) for k in range(7)]
    with pytest.raises(DegeneracyError):
        verify_seven_points(pts)


def test_witness_cycle_arf_is_recomputable():
    rng = random.Random(31337)
    pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(7)]
    witness, _ = verify_seven_points(pts, seed=5)
    cycle_pts = [pts[i] for i in witness]
    d = project(SpatialLink((cycle_pts,)), seed=11).diagram
    assert arf(d) == 1


def _cyclic_word(d):
    """A knot's Gauss word up to rotation and crossing relabelling."""
    comp = d.components[0]
    words = []
    for r in range(len(comp)):
        names = {}
        words.append(
            tuple((names.setdefault(p.crossing, len(names)), p.role, p.sign) for p in comp[r:] + comp[:r])
        )
    return min(words, default=())


def test_shared_table_cycles_match_their_own_projection():
    # The table walk reverses every edge a cycle runs from its higher to
    # its lower point (at least the closing edge into 0); projecting the
    # cycle as a polygon of its own walks every segment forward.  Both
    # use the first direction drawn from the seed.
    for k in range(3):
        rng = random.Random(4000 + k)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(7)]
        directions = set()
        cycles = 0
        for cycle, d in cycle_diagrams(pts, seed=k):
            own = project(SpatialLink(([pts[i] for i in cycle],)), seed=k)
            directions.add(own.direction)
            assert _cyclic_word(d) == _cyclic_word(own.diagram), cycle
            cycles += 1
        assert cycles == 360 and len(directions) == 1


def _seven(rng):
    return [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(7)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegeneracyError as exc:
        return type(exc).__name__


def test_cycle_skews_match_the_oracle_diagrams():
    # Every one of the 360 skew counts read off the shared table equals
    # that of the cycle's own Diagram (so its parity is that Arf), on
    # several point sets and seeds; the count, unlike the Arf, also
    # tells a diagram from its mirror.
    rng = random.Random(7000)
    for k in range(6):
        pts = _check_points(_seven(rng), 7)
        for seed in (k, 1000 + k):
            fast = list(_cycle_skews(pts, seed))
            slow = list(cycle_diagrams(pts, seed))
            assert [c for c, _ in fast] == [c for c, _ in slow]
            for (cycle, skew), (_, d) in zip(fast, slow):
                assert skew == len(skew_pairs(d)), cycle
                assert skew % 2 == arf(d), cycle


def test_verify_seven_points_matches_the_oracle():
    # (witness, parity) or the exception, on generic sets and on sets
    # shrunk by 1e-3, which the absolute part of the tolerance rejects.
    rng = random.Random(7100)
    raised = 0
    for k in range(24):
        pts = _seven(rng)
        if k % 4 == 3:
            pts = [tuple(1e-3 * x + 0.3 for x in p) for p in pts]
        seed = rng.randrange(2**31)
        want = _outcome(verify_seven_points_by_diagrams, pts, seed)
        assert _outcome(verify_seven_points, pts, seed) == want
        raised += want == "DegeneracyError"
    assert 0 < raised < 24


def test_crossings_coincidence_window_matches_all_pairs():
    # Segment soups, some with three segments through one point or two
    # crossings near one point (one of three lines shifted by 5e-8 or
    # 2e-7): crossings raises "two crossings coincide" exactly when some
    # pair of crossings lies within 1e-7.
    rng = random.Random(7200)
    outcomes = set()
    for k in range(120):
        ends = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(24)]
        segs = list(zip(ends[::2], ends[1::2]))
        c = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        for shift in ((0.0, 0.0, 0.0), (0.0, 5e-8, 0.0), (0.0, 2e-7, 0.0), ())[k % 4]:
            a = rng.uniform(0, math.pi)
            d = (0.5 * math.cos(a), 0.5 * math.sin(a))
            segs.append(((c[0] + shift - d[0], c[1] - d[1]), (c[0] + shift + d[0], c[1] + d[1])))
        loose, points = [], []
        for i, j in itertools.combinations(range(len(segs)), 2):
            hit = segment_crossing_2d(*segs[i], *segs[j])
            if hit is not None:
                (x1, y1), (x2, y2) = segs[i]
                loose.append((i, j, *hit))
                points.append((x1 + hit[0] * (x2 - x1), y1 + hit[0] * (y2 - y1)))
        want = any(math.dist(a, b) <= 1e-7 for a, b in itertools.combinations(points, 2))
        try:
            got = crossings(segs, lambda i, j: False)
        except DegeneracyError as exc:
            assert str(exc) == "two crossings coincide"
            assert want
            outcomes.add(True)
        else:
            assert not want and [f[:4] for f in got] == loose
            outcomes.add(False)
    assert outcomes == {True, False}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_domain_errors(bad):
    rng = random.Random(7300)
    seven = _seven(rng)
    seven[4] = (seven[4][0], bad, seven[4][2])
    with pytest.raises(DomainError, match="point 4 is not finite"):
        verify_seven_points(seven)
    six = seven[:6]
    with pytest.raises(DomainError, match="point 4 is not finite"):
        verify_six_points(six)
    t1 = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.1), (0.0, 2.0, bad))
    t2 = ((0.5, 0.5, -1.0), (0.6, 0.55, 1.3), (2.5, 2.6, 0.2))
    with pytest.raises(DomainError, match="triangle point 2 is not finite"):
        triangles_linked(t1, t2)
    with pytest.raises(DomainError, match="triangle point 2 is not finite"):
        triangles_linked(t2, t1)
    ring = _circle(6)
    ring[1] = (bad, 0.0, 0.0)
    with pytest.raises(DomainError, match="component 1 vertex 1 is not finite"):
        SpatialLink((_circle(5, z=3.0), ring))


@pytest.mark.parametrize(
    "bad",
    [(0.5, 0.25), (0.5, 0.25, 0.75, 1.0), 0.5, {"x": 0.5, "y": 0.25, "z": 0.75}, ("0.5", 0.25, 0.75)],
    ids=["2d", "4d", "scalar", "dict", "text"],
)
def test_points_without_three_numeric_coordinates_are_domain_errors(bad):
    rng = random.Random(7301)
    seven = _seven(rng)
    seven[4] = bad
    need = "needs three numeric coordinates"
    with pytest.raises(DomainError, match=f"point 4 {need}"):
        verify_seven_points(seven)
    with pytest.raises(DomainError, match=f"point 4 {need}"):
        verify_six_points(seven[:6])
    t1 = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.1), bad)
    t2 = ((0.5, 0.5, -1.0), (0.6, 0.55, 1.3), (2.5, 2.6, 0.2))
    with pytest.raises(DomainError, match=f"triangle point 2 {need}"):
        triangles_linked(t1, t2)
    ring = _circle(6)
    ring[1] = bad
    with pytest.raises(DomainError, match=f"component 1 vertex 1 {need}"):
        SpatialLink((_circle(5, z=3.0), ring))


def test_import_builds_no_cycle_table():
    # The K7 tables are built on the first seven-point call, not on import.
    code = "import knots, knots.cli, knots.spatial as s; print(s._k7.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(knots.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_containers_that_are_not_sequences_are_domain_errors():
    calls = [
        (lambda: verify_seven_points(7), "points is not a sequence: 7"),
        (lambda: verify_six_points(7), "points is not a sequence: 7"),
        (lambda: triangles_linked(1, 2), "t1 is not a sequence: 1"),
        (lambda: triangles_linked(((0, 0, 0), (1, 0, 0), (0, 1, 0)), 2), "t2 is not a sequence"),
        (lambda: SpatialLink(5), "components is not a sequence: 5"),
        (lambda: SpatialLink([5]), "component 0 is not a sequence: 5"),
        (lambda: SpatialLink([_circle(5), 5]), "component 1 is not a sequence: 5"),
    ]
    for call, message in calls:
        with pytest.raises(DomainError, match=message):
            call()
