"""Spatial polygons: projection, linked triangles, six and seven points."""

import math
import random

import pytest

from knots import (
    DegeneracyError,
    DomainError,
    SpatialLink,
    arf,
    genus,
    lk,
    lk2,
    project,
    triangles_linked,
    verify_seven_points,
    verify_six_points,
)
from knots.spatial import _cycle_diagrams, orient2d, orient3d, segment_crossing_2d


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
    assert orient2d((0, 0), (1, 0), (0, 1)) > 0
    assert orient2d((0, 0), (1, 0), (2, 0)) == 0
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) != 0
    assert orient3d((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)) == 0


def test_segment_crossing_2d():
    got = segment_crossing_2d((0, 0), (1, 1), (0, 1), (1, 0))
    assert got is not None
    t, u = got
    assert abs(t - 0.5) < 1e-12 and abs(u - 0.5) < 1e-12
    assert segment_crossing_2d((0, 0), (1, 0), (0, 1), (1, 1)) is None
    with pytest.raises(DegeneracyError):
        segment_crossing_2d((0, 0), (1, 0), (0.5, 0), (0.5, 1))


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
        for cycle, d in _cycle_diagrams(pts, seed=k):
            own = project(SpatialLink(([pts[i] for i in cycle],)), seed=k)
            directions.add(own.direction)
            assert _cyclic_word(d) == _cyclic_word(own.diagram), cycle
            cycles += 1
        assert cycles == 360 and len(directions) == 1
