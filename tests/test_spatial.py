"""Spatial polygons: projection, linked triangles, six and seven points."""

import ast
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
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
    _crossing,
    _cycle_skews,
    _k7,
    _meet,
    crossings,
    orient3d,
    retry,
)

from cycle_oracle import (
    EDGES,
    cycle_diagrams,
    cycle_table,
    cycle_walks,
    verify_seven_points_by_diagrams,
)


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
    got = _crossing((0, 0), (1, 1), (0, 1), (1, 0))
    assert got is not None
    (t, et), (u, eu), turn = got
    assert abs(t - 0.5) <= et < 1e-12 and abs(u - 0.5) <= eu < 1e-12 and turn == -1
    assert _crossing((0, 0), (1, 0), (0, 1), (1, 1)) is None
    with pytest.raises(DegeneracyError, match="crossing at a segment endpoint"):
        _crossing((0, 0), (1, 0), (0.5, 0), (0.5, 1))
    # The same, with the end of the first segment on the second.
    with pytest.raises(DegeneracyError, match="crossing at a segment endpoint"):
        _crossing((0, 0), (0.5, 0), (0.5, -1), (0.5, 1))
    # Collinear: overlapping segments are degenerate, disjoint ones miss.
    with pytest.raises(DegeneracyError, match="collinear overlapping segments"):
        _crossing((0, 0), (1, 0), (0.5, 0), (2, 0))
    assert _crossing((0, 0), (1, 0), (2, 0), (3, 0)) is None
    # Touching ends of collinear segments count as an overlap.
    with pytest.raises(DegeneracyError, match="collinear overlapping segments"):
        _crossing((0, 0), (1, 0), (1, 0), (3, 0))


def test_retry_gives_up_after_max_retries_naming_the_last_cause():
    tries = []

    def attempt(rng):
        tries.append(rng.random())
        raise DegeneracyError(f"attempt {len(tries)} degenerate")

    with pytest.raises(GenericityFailure) as info:
        retry(attempt, 0)
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
        # Shrunk by 1e-3, exact signs give the unshrunk answer.
        small = [tuple(1e-3 * x for x in p) for p in pts]
        want = _outcome(verify_six_points_by_pairs, small)
        assert _outcome(verify_six_points, small) == want == got
        raised += want == "DegeneracyError"
    assert raised == 0


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


def _same_edge_cases(found, over):
    """(reversed, lower rank first) of every comparison of two passes on
    one edge that decides whether a pair of crossings is skew in some
    cycle: the other two comparisons of its chain hold.  Positions are
    walk index plus parameter along the walked direction."""
    cases = set()
    for _, walk in cycle_walks():
        step = {e: (k, rev) for k, (e, rev) in enumerate(walk)}
        passes = [
            ((i, t), (j, u)) if over[x] == i else ((j, u), (i, t))
            for x, (i, j, t, u, _turn) in enumerate(found)
            if i in step and j in step
        ]

        def pos(p):
            k, rev = step[p[0]]
            return k + (1 - p[1] if rev else p[1])

        for (ox, ux), (oy, uy) in itertools.permutations(passes, 2):
            chain = [(ox, uy), (uy, ux), (ux, oy)]
            for n, (p, q) in enumerate(chain):
                others = [pos(a) < pos(b) for m, (a, b) in enumerate(chain) if m != n]
                if p[0] == q[0] and all(others):
                    cases.add((step[p[0]][1], p[1] < q[1]))
    return cases


def _counts(planes):
    """Each cycle's skew count, decoded from the bit-sliced planes."""
    return [sum((plane >> c & 1) << k for k, plane in enumerate(planes)) for c in range(360)]


def test_cycle_skews_match_the_oracle_diagrams():
    # Every one of the 360 skew counts decoded from the planes equals
    # that of the cycle's own Diagram (so its parity is that Arf), on
    # several point sets and seeds; the count, unlike the Arf, also
    # tells a diagram from its mirror.  The sample reaches the one-edge
    # comparison with both rank orders, in forward and reversed cycles,
    # where it decides the pair.
    rng = random.Random(7000)
    cases = set()
    for k in range(6):
        pts = _check_points(_seven(rng), 7)
        for seed in (k, 1000 + k):
            planes = _cycle_skews(pts, seed)
            slow = list(cycle_diagrams(pts, seed))
            assert _k7()[2] == [c for c, _ in slow]
            assert planes[-1]  # the top plane holds a bit, none is spare
            for count, (cycle, d) in zip(_counts(planes), slow, strict=True):
                assert count == len(skew_pairs(d)), cycle
                assert count % 2 == arf(d), cycle
            cases |= _same_edge_cases(*cycle_table(pts, seed))
    assert cases == {(False, True), (False, False), (True, True), (True, False)}


def test_cycle_masks_match_the_walks():
    # before, fwd and rev against each cycle's steps, read off its
    # vertex order: bit c is set where cycle c walks e at an earlier
    # step than f, or walks e from its lower or higher point.
    edges, adjacent, cycles, before, fwd, rev = _k7()
    assert edges == EDGES
    assert adjacent == [[bool(set(e) & set(f)) for f in EDGES] for e in EDGES]
    walks = list(cycle_walks())
    assert cycles == [c for c, _ in walks]
    n = len(EDGES)
    want_before, want_fwd, want_rev = [[0] * n for _ in range(n)], [0] * n, [0] * n
    for c, (_, walk) in enumerate(walks):
        step = {e: (k, reversed_) for k, (e, reversed_) in enumerate(walk)}
        for e, (k, reversed_) in step.items():
            (want_rev if reversed_ else want_fwd)[e] |= 1 << c
            for f, (k2, _) in step.items():
                if k < k2:
                    want_before[e][f] |= 1 << c
    assert (before, fwd, rev) == (want_before, want_fwd, want_rev)
    assert sum(m.bit_count() for m in fwd + rev) == 7 * 360
    assert all(before[e][e] == 0 for e in range(n))


def test_verify_seven_points_matches_the_oracle():
    # (witness, parity) or the exception, on generic sets and on sets
    # shrunk by 1e-3 and moved, which give the unshrunk answer.
    rng = random.Random(7100)
    raised = 0
    for k in range(24):
        pts = unshrunk = _seven(rng)
        if k % 4 == 3:
            pts = [tuple(1e-3 * x + 0.3 for x in p) for p in pts]
        seed = rng.randrange(2**31)
        want = _outcome(verify_seven_points_by_diagrams, pts, seed)
        assert _outcome(verify_seven_points, pts, seed) == want
        assert want == _outcome(verify_seven_points, unshrunk, seed)
        raised += want == "DegeneracyError"
    assert raised == 0


def _exact_crossings(segs):
    """All proper crossings of plane segments in exact arithmetic, as
    (i, j, t, u) Fractions, and whether two of them share a point."""
    found, points = [], []
    for i, j in itertools.combinations(range(len(segs)), 2):
        (p1, p2), (q1, q2) = ([tuple(map(Fraction, p)) for p in seg] for seg in (segs[i], segs[j]))
        d1, d2, r = ([b - a for a, b in zip(x, y)] for x, y in ((p1, p2), (q1, q2), (p1, q1)))
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if denom:
            t = (r[0] * d2[1] - r[1] * d2[0]) / denom
            u = (r[0] * d1[1] - r[1] * d1[0]) / denom
            if 0 < t < 1 and 0 < u < 1:
                found.append((i, j, t, u))
                points.append((p1[0] + t * d1[0], p1[1] + t * d1[1]))
    return found, len(set(points)) < len(points)


def test_crossings_coincidence_window_matches_all_pairs():
    # Segment soups, some with three segments through one dyadic point or
    # with one of the three shifted by 5e-8 or 2e-7 so that two crossings
    # lie close together: crossings raises "two crossings coincide"
    # exactly when two crossings are at one point in exact arithmetic,
    # and otherwise ranks the crossings on each segment in exact order.
    rng = random.Random(7200)
    outcomes = {}
    for k in range(120):
        ends = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(24)]
        segs = list(zip(ends[::2], ends[1::2]))
        # 40-bit dyadic centres and half-lengths: the ends are exact, but
        # the float crossing parameters are rounded.
        c = (rng.randrange(-(2**39), 2**39) / 2**40, rng.randrange(-(2**39), 2**39) / 2**40)
        for shift in ((0.0, 0.0, 0.0), (0.0, 5e-8, 0.0), (0.0, 2e-7, 0.0), ())[k % 4]:
            d = (rng.randrange(1, 2**39) / 2**40, rng.randrange(-(2**39), 2**39) / 2**40)
            segs.append(((c[0] + shift - d[0], c[1] - d[1]), (c[0] + shift + d[0], c[1] + d[1])))
        exact, want = _exact_crossings(segs)
        try:
            got = crossings(segs, lambda i, j: False)
        except DegeneracyError as exc:
            assert str(exc) == "two crossings coincide"
            assert want
            outcomes[k % 4] = True
        else:
            assert not want and [f[:2] for f in got] == [f[:2] for f in exact]
            for seg in range(len(segs)):
                # (crossing, rank) on this segment against exact order.
                ranks = [
                    (g[2], e[2]) if g[0] == seg else (g[3], e[3])
                    for g, e in zip(got, exact)
                    if seg in g[:2]
                ]
                assert sorted(ranks) == sorted(ranks, key=lambda r: r[1])
                assert all(0 < r < 1 for r, _ in ranks)
            outcomes[k % 4] = False
    assert outcomes == {0: True, 1: False, 2: False, 3: False}


def test_coordinates_too_large_for_a_float_are_domain_errors():
    # float(10**400) raises OverflowError; the point is named instead.
    huge = 10**400
    seven = _seven(random.Random(7301))
    seven[2] = (huge, 0, 0)
    with pytest.raises(DomainError, match="point 2 has a coordinate too large for a float"):
        verify_seven_points(seven)
    with pytest.raises(DomainError, match="point 2 has a coordinate too large for a float"):
        verify_six_points(seven[:6])
    t1 = ((0.0, 0.0, 0.0), (2.0, 0.0, 0.1), (0.0, 2.0, -huge))
    t2 = ((0.5, 0.5, -1.0), (0.6, 0.55, 1.3), (2.5, 2.6, 0.2))
    with pytest.raises(DomainError, match="triangle point 2 has a coordinate too large"):
        triangles_linked(t1, t2)
    ring = _circle(6)
    ring[3] = (0.0, huge, 0.0)
    with pytest.raises(DomainError, match="component 1 vertex 3 has a coordinate too large"):
        SpatialLink((_circle(5, z=3.0), ring))


TINY = 2.0**-600


@pytest.mark.parametrize(
    "polygon,vertex",
    [
        ([(0, 0, 0), (1, 0, 0), (2, 0, 0)], 0),
        ([(0, 0, 0), (2, 0, 0), (1, 0, 0)], 0),
        ([(0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0)], 1),
        ([(5, 5, 5), (1, 1, 1), (3, 3, 3), (0, 4, 1)], 1),
        ([(0, 0, 0), (4 * TINY, 2 * TINY, 0), (2 * TINY, TINY, 0), (0, 3 * TINY, TINY)], 1),
        ([(0, 0, 0), (4e150, 2e150, 6e150), (2e150, 1e150, 3e150), (0, 3e150, 1e150)], 1),
    ],
    ids=["three-on-a-line", "three-folded", "fold", "fold-in-space", "fold-tiny", "fold-huge"],
)
def test_consecutive_segments_folding_back_are_refused(polygon, vertex):
    with pytest.raises(DomainError, match=f"component 1 folds back at vertex {vertex}$"):
        SpatialLink((_circle(5, z=30.0), polygon))


@pytest.mark.parametrize(
    "polygon",
    [
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0)],
        [(0, 0, 0), (1, 0, 0), (0.5, 2.0**-1000, 0)],
        [(0, 0, 0), (4 * TINY, 2 * TINY, 0), (2 * TINY, TINY + TINY * 2.0**-52, 0), (0, 3 * TINY, TINY)],
    ],
    ids=["straight-through", "thin-triangle", "tiny-near-fold"],
)
def test_consecutive_segments_off_a_line_or_straight_through_are_kept(polygon):
    assert SpatialLink([polygon]).components[0] == tuple(tuple(map(float, v)) for v in polygon)


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


def test_orient3d_is_exact_where_products_underflow_or_overflow():
    # b's x is 2^1000 and the products of c's and d's small coordinates
    # underflow to 0, so the float determinant is about -5.3e-24 with a
    # permanent of the same size, far above any underflow: Shewchuk's
    # bound alone would keep the wrong sign.  The exact sign is +1.
    a, c = (0.0, 0.0, 0.0), (0.0, 2.0**-540, 2.0**-540)
    b, d = (2.0**1000, 0.0, 0.1 * 2.0**466), (1.0, 0.2 * 2.0**-534, 0.4 * 2.0**-534)
    assert orient3d(a, b, c, d) == 1 and orient3d(a, c, b, d) == -1
    # Differences and products that overflow to inf or NaN go exact too.
    for k in (1e150, 1e300, 2.0**1000):
        corner = [(0.0, 0.0, 0.0), (k, 0.0, 0.0), (0.0, k, 0.0), (0.0, 0.0, k)]
        assert orient3d(*corner) == 1
        assert orient3d((-k, 0.0, 0.0), (k, 0.0, 0.0), (0.0, k, 0.0), (0.0, 0.0, k)) == 1
        assert orient3d((-k, 0.0, 0.0), (k, 0.0, 0.0), (0.0, k, 0.0), (k, -k, 0.0)) == 0


def _rotation(rng):
    """The rotation of a random unit quaternion."""
    q = [rng.gauss(0, 1) for _ in range(4)]
    w, x, y, z = (v / math.dist((0, 0, 0, 0), q) for v in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def _moves(rng):
    """Maps of point lists: six scalings, a translation and a rotation."""
    shift, turn = [rng.uniform(-5, 5) for _ in range(3)], _rotation(rng)
    moves = [
        lambda pts, k=k: [tuple(k * x for x in p) for p in pts]
        for k in (2.0**-40, 2.0**17, 1e-3, 1e3, 1e-150, 1e150)
    ]
    moves.append(lambda pts: [tuple(x + s for x, s in zip(p, shift)) for p in pts])
    moves.append(lambda pts: [tuple(sum(r * x for r, x in zip(row, p)) for row in turn) for p in pts])
    return moves


def test_theorems_do_not_change_under_scaling_translation_and_rotation():
    # Exact signs make the answers independent of units and position.
    # The seven-point witness is the first cycle with Arf one, a knot
    # invariant, so it does not depend on the projection's seed either.
    rng = random.Random(7400)
    for _ in range(4):
        pts = _seven(rng)
        t1, t2, six = pts[:3], pts[3:6], pts[:6]
        linked, pair = triangles_linked(t1, t2), verify_six_points(six)
        halves = [[six[i] for i in half] for half in pair]
        witness, parity = verify_seven_points(pts)
        assert witness is not None and parity == 1
        for move in _moves(rng):
            assert triangles_linked(move(t1), move(t2)) == linked
            assert triangles_linked(*map(move, halves)) == 1
            assert verify_six_points(move(six)) == pair
            seed = rng.randrange(2**31)
            assert verify_seven_points(move(pts), seed) == (witness, 1)


def test_a_self_touching_component_is_a_domain_error():
    # Through the origin twice: edges 2-3 and 3-4 meet edges 5-0 and 0-1.
    twice = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0), (-1, 0, 1), (-1, -1, 1)]
    with pytest.raises(DomainError, match="component 0 edge 5-0 meets component 0 edge 3-4"):
        SpatialLink((twice,))
    # Edge 0-1 crosses edge 2-3 at (1, 1, 0).
    eight = [(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0), (-1, 1, 1), (-1, 0, 1)]
    with pytest.raises(DomainError, match="component 0 edge 0-1 meets component 0 edge 2-3"):
        SpatialLink((eight,))
    # A vertex of the second component inside an edge of the first.
    square = [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0)]
    with pytest.raises(DomainError, match="component 0 edge 0-1 meets component 1 edge 1-2"):
        SpatialLink((square, [(1, 0, 1), (1, -1, 1), (1, 0, 0)]))
    with pytest.raises(DomainError, match="consecutive vertices coincide"):
        SpatialLink(([(0, 0, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)],))


def test_components_1e_12_apart_are_accepted_and_projected():
    # The second triangle passes 1e-12 above the square's edge at (1, 0, 0)
    # and pierces the square once: a Hopf link, whatever the direction.
    square = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (2.0, 2.0, 0.0), (0.0, 2.0, 0.0)]
    near = [(1.0, -1.0, 1e-12), (1.0, 1.0, 1e-12), (1.0, 0.0, -1.0)]
    link = SpatialLink((square, near))
    for seed in range(10):
        d = project(link, seed=seed).diagram
        assert lk2(d, 0, 1) == 1 and abs(lk(d, 0, 1)) == 1
    apart = SpatialLink((square, [(x, y, z + 1e-12) for x, y, z in square]))
    assert lk2(project(apart, seed=3).diagram, 0, 1) == 0


def _squared_gap(p1, p2, q1, q2):
    """The least squared distance between two closed 3D segments, exactly:
    the minimum of a convex quadratic over the unit square, on its four
    sides or at its stationary point."""
    p1, p2, q1, q2 = ([Fraction(x) for x in p] for p in (p1, p2, q1, q2))
    d1, d2, r = ([b - a for a, b in zip(x, y)] for x, y in ((p1, p2), (q1, q2), (q1, p1)))
    a, b, e = (sum(x * y for x, y in zip(u, v)) for u, v in ((d1, d1), (d1, d2), (d2, d2)))
    c, f = (sum(x * y for x, y in zip(u, r)) for u in (d1, d2))

    def clamp(v):
        return min(max(v, Fraction(0)), Fraction(1))

    tries = [(s, clamp((b * s + f) / e)) for s in (0, 1)]
    tries += [(clamp((b * t - c) / a), t) for t in (0, 1)]
    if a * e != b * b:
        s, t = (b * f - c * e) / (a * e - b * b), (a * f - b * c) / (a * e - b * b)
        tries += [(s, t)] if 0 <= s <= 1 and 0 <= t <= 1 else []
    return min(
        sum((x + s * u - y - t * v) ** 2 for x, u, y, v in zip(p1, d1, q1, d2)) for s, t in tries
    )


def test_meet_and_crossing_match_an_exact_distance_oracle():
    # Segments with ends on a 3 x 3 x 3 grid meet, touch and overlap in
    # every degenerate way; _meet must say whether they share a point,
    # and in the plane _crossing must name how.
    rng = random.Random(7500)
    seen = set()
    for _ in range(3000):
        p1, p2, q1, q2 = pts = [tuple(float(rng.randrange(3)) for _ in range(3)) for _ in range(4)]
        if p1 == p2 or q1 == q2:
            continue
        meets = _squared_gap(*pts) == 0
        assert _meet(*pts) == meets, pts
        flat = [p[:2] for p in pts]
        if flat[0] == flat[1] or flat[2] == flat[3]:
            continue
        gap = _squared_gap(*[p[:2] + (0.0,) for p in pts])
        kind = "miss" if gap else "proper"
        if not gap:
            (ax, ay), (bx, by), (cx, cy), (dx, dy) = ([Fraction(x) for x in p] for p in flat)
            det = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
            t = ((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx)) / det if det else None
            u = ((cx - ax) * (by - ay) - (cy - ay) * (bx - ax)) / det if det else None
            if not det:
                kind = "collinear overlapping segments"
            elif not (0 < t < 1 and 0 < u < 1):
                kind = "crossing at a segment endpoint"
        try:
            hit = _crossing(*flat)
        except DegeneracyError as exc:
            assert str(exc) == kind, (flat, kind)
        else:
            assert (hit is not None) == (kind == "proper"), (flat, kind)
            if hit is not None:
                (t2, et), (u2, eu), turn = hit
                assert abs(t2 - t) <= et and abs(u2 - u) <= eu and turn == (1 if det > 0 else -1)
        seen.add((meets, kind))
    assert len(seen) >= 5
    # On random float ends, the parameters are rounded but within their
    # stated bounds of the exact ones.
    for _ in range(2000):
        segs = [[(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)] for _ in range(2)]
        hit = _crossing(*segs[0], *segs[1])
        if hit is not None:
            (t, et), (u, eu), _turn = hit
            (want_t, want_u), = [f[2:] for f in _exact_crossings(segs)[0]]
            assert abs(t - want_t) <= et and abs(u - want_u) <= eu


def _small_float_literals(text):
    """Line numbers of float literals in (0, 1e-3) in ``text``, outside the
    Shewchuk bounds and ``_random_direction``."""
    tree = ast.parse(text)
    allowed = set()
    for node in tree.body:
        names = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        bound = names & {"_ORIENT2D_BOUND", "_ORIENT3D_BOUND"}
        if bound or getattr(node, "name", "") == "_random_direction":
            allowed.update(map(id, ast.walk(node)))
    return [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant)
        and type(n.value) is float
        and 0 < n.value < 1e-3
        and id(n) not in allowed
    ]


def test_spatial_has_no_tolerance_literal():
    # Every decision is an exact sign, so a small float literal in
    # spatial.py could only be a tolerance creeping back in.
    text = (Path(knots.__file__).parent / "spatial.py").read_text()
    assert _small_float_literals(text) == []
    planted = text.replace("MAX_RETRIES = 64\n", "MAX_RETRIES = 64\nEPSILON = 1e-9\n")
    assert len(_small_float_literals(planted)) == 1
    assert _small_float_literals("_ORIENT2D_BOUND = 3e-16\nx = 1e-7\n") == [2]
