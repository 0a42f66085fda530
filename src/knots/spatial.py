"""Spatial polygonal links, generic projection, and the two point-set
theorems: six points in general position span a pair of linked
triangles, and the complete graph on seven points contains a knotted
Hamiltonian cycle (detected through the Arf invariant).

All geometry is done with orientation predicates (2x2 and 3x3 signed
determinants) guarded by a relative tolerance; configurations too close
to degenerate raise instead of guessing.  Projections choose a seeded
random viewing direction and retry until the shadow is generic: no
collapsed segments, no vertex on a foreign segment, all crossings
transversal and simple.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .arf_casson import arf
from .codes import OVER, UNDER, Diagram, Pass, genus, is_realizable
from .errors import DegeneracyError, DomainError, GenericityFailure

EPSILON = 1e-9
MAX_RETRIES = 64


# ----------------------------------------------------------------------
# Vector helpers (plain tuples; the scale is a handful of points)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def orient2d(a, b, c):
    """Twice the signed area of triangle abc."""
    return cross2(_sub(b, a), _sub(c, a))


def orient3d(a, b, c, d):
    """Six times the signed volume of tetrahedron abcd."""
    u, v, w = _sub(b, a), _sub(c, a), _sub(d, a)
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def _orient3d_checked(a, b, c, d):
    """orient3d with a relative degeneracy guard."""
    val = orient3d(a, b, c, d)
    scale = _norm(_sub(b, a)) * _norm(_sub(c, a)) * _norm(_sub(d, a))
    if abs(val) <= EPSILON * max(scale, 1.0):
        raise DegeneracyError("four points are coplanar within tolerance")
    return 1 if val > 0 else -1


def segment_crossing_2d(p1, p2, q1, q2):
    """Transversal interior intersection of two 2D segments.

    Returns (t, u) parameters along p and q, or None when the segments
    do not cross.  Raises DegeneracyError for near-parallel overlap or
    crossings too close to an endpoint, so callers can re-jitter.
    """
    d1, d2 = _sub(p2, p1), _sub(q2, q1)
    denom = cross2(d1, d2)
    scale = max(_norm(d1) * _norm(d2), 1e-300)
    if abs(denom) <= EPSILON * scale:
        # Parallel: degenerate only if the supporting lines overlap
        # near the segments.
        gap = cross2(d1, _sub(q1, p1))
        if abs(gap) <= EPSILON * max(_norm(d1) * _norm(_sub(q1, p1)), scale):
            lo1, hi1 = sorted((0.0, _dot(d1, d1)))
            s1 = _dot(_sub(q1, p1), d1)
            s2 = _dot(_sub(q2, p1), d1)
            if max(min(s1, s2), lo1) <= min(max(s1, s2), hi1):
                raise DegeneracyError("collinear overlapping segments")
        return None
    r = _sub(q1, p1)
    t = cross2(r, d2) / denom
    u = cross2(r, d1) / denom
    margin = 1e-7
    if -margin < t < margin or 1 - margin < t < 1 + margin:
        if -2 * margin < u < 1 + 2 * margin:
            raise DegeneracyError("crossing at a segment endpoint")
    if -margin < u < margin or 1 - margin < u < 1 + margin:
        if -2 * margin < t < 1 + 2 * margin:
            raise DegeneracyError("crossing at a segment endpoint")
    if margin < t < 1 - margin and margin < u < 1 - margin:
        return t, u
    return None


# ----------------------------------------------------------------------
# Spatial links and projection


@dataclass(frozen=True)
class SpatialLink:
    """Closed 3D polygonal components (tuples of float triples)."""

    components: tuple

    def __init__(self, components):
        comps = tuple(tuple(tuple(float(x) for x in v) for v in comp) for comp in components)
        for comp in comps:
            if len(comp) < 3:
                raise DomainError("a closed polygonal component needs >= 3 vertices")
            for k, v in enumerate(comp):
                if _norm(_sub(v, comp[k - 1])) <= EPSILON:
                    raise DomainError("consecutive vertices coincide")
        _check_disjoint(comps)
        object.__setattr__(self, "components", comps)


def _seg_distance_3d(p1, p2, q1, q2):
    """Distance between two 3D segments (standard closest-point clamp)."""
    d1, d2, r = _sub(p2, p1), _sub(q2, q1), _sub(p1, q1)
    a, e, f = _dot(d1, d1), _dot(d2, d2), _dot(d2, r)
    b, c = _dot(d1, d2), _dot(d1, r)
    denom = a * e - b * b
    s = max(0.0, min(1.0, (b * f - c * e) / denom)) if denom > 1e-300 else 0.0
    t = (b * s + f) / e if e > 1e-300 else 0.0
    t = max(0.0, min(1.0, t))
    s = max(0.0, min(1.0, (b * t - c) / a)) if a > 1e-300 else 0.0
    diff = _sub(
        tuple(p + s * d for p, d in zip(p1, d1)),
        tuple(q + t * d for q, d in zip(q1, d2)),
    )
    return _norm(diff)


def _check_disjoint(comps):
    scale = 1.0
    for comp in comps:
        for v in comp:
            scale = max(scale, max(abs(x) for x in v))
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            for a in range(len(comps[i])):
                for b in range(len(comps[j])):
                    p1, p2 = comps[i][a - 1], comps[i][a]
                    q1, q2 = comps[j][b - 1], comps[j][b]
                    if _seg_distance_3d(p1, p2, q1, q2) <= EPSILON * scale:
                        raise DomainError("components touch within tolerance")


@dataclass(frozen=True)
class ProjectionResult:
    diagram: Diagram
    direction: tuple
    perturbation_seed: int


def _random_direction(rng):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = _norm(v)
        if n > 1e-6:
            return tuple(x / n for x in v)


def _frame(w):
    """Right-handed orthonormal (u, v, w)."""
    pick = (1.0, 0.0, 0.0) if abs(w[0]) < 0.9 else (0.0, 1.0, 0.0)
    u = (
        w[1] * pick[2] - w[2] * pick[1],
        w[2] * pick[0] - w[0] * pick[2],
        w[0] * pick[1] - w[1] * pick[0],
    )
    nu = _norm(u)
    u = tuple(x / nu for x in u)
    v = (
        w[1] * u[2] - w[2] * u[1],
        w[2] * u[0] - w[0] * u[2],
        w[0] * u[1] - w[1] * u[0],
    )
    return u, v, w


def crossings(segs, adjacent):
    """Transversal crossings among plane segments, each pair tested once.

    Args:
        segs: (start, end) point pairs in the plane.
        adjacent: ``adjacent(i, j)`` for i < j tells whether segments i
            and j share an endpoint; such pairs are not tested.

    Returns:
        (i, j, t, u, turn) for each crossing, i < j in pair order: it
        lies at parameter t along segment i and u along segment j, and
        turn is the sign of det(direction i, direction j), never 0
        because ``segment_crossing_2d`` rejects near-parallel pairs.

    Raises:
        DegeneracyError: for overlaps, crossings at an endpoint, and two
            crossings at one point (a triple point collapses there).
    """
    found, points = [], []
    for i, j in itertools.combinations(range(len(segs)), 2):
        if adjacent(i, j):
            continue
        (p1, p2), (q1, q2) = segs[i], segs[j]
        hit = segment_crossing_2d(p1, p2, q1, q2)
        if hit is not None:
            t, u = hit
            turn = 1 if cross2(_sub(p2, p1), _sub(q2, q1)) > 0 else -1
            found.append((i, j, t, u, turn))
            points.append((p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1])))
    for x, y in itertools.combinations(points, 2):
        if _norm(_sub(x, y)) <= 1e-7:
            raise DegeneracyError("two crossings coincide")
    return found


def gauss_code(found, over, walks, labels=None):
    """The diagram traced by closed walks over plane segments.

    Args:
        found: the crossings of the segments, from ``crossings``.
        over: the segment on top at each crossing of ``found``.
        walks: one closed walk per component, a list of
            (segment, reversed) steps; no segment is walked twice.
        labels: crossing label by index into ``found``; by default the
            crossings of two walked segments are numbered 1, 2, ... in
            the order of ``found``.

    Crossings with an unwalked segment are left out.  The sign at a
    crossing is det(over, under) in the walked directions.
    """
    where = {seg: (w, k, rev) for w, walk in enumerate(walks) for k, (seg, rev) in enumerate(walk)}
    events = [[[] for _ in walk] for walk in walks]
    count = 0
    for x, (i, j, t, u, turn) in enumerate(found):
        if i not in where or j not in where:
            continue
        count += 1
        label = count if labels is None else labels[x]
        (wi, ki, ri), (wj, kj, rj) = where[i], where[j]
        top = over[x] == i
        # det(over, under) is turn with i on top; a reversed step flips it.
        sign = turn if top == (ri == rj) else -turn
        events[wi][ki].append((1 - t if ri else t, label, OVER if top else UNDER, sign))
        events[wj][kj].append((1 - u if rj else u, label, UNDER if top else OVER, sign))
    return Diagram([
        [Pass(label, role, sign) for step in walk for _, label, role, sign in sorted(step)]
        for walk in events
    ])


def retry(attempt, rng):
    """``attempt(rng)`` until it raises no DegeneracyError.

    Each attempt draws fresh random positions from ``rng``; after
    MAX_RETRIES failures this gives up with GenericityFailure.
    """
    last = None
    for _ in range(MAX_RETRIES):
        try:
            return attempt(rng)
        except DegeneracyError as exc:
            last = exc
    raise GenericityFailure(f"no generic position after {MAX_RETRIES} tries: {last}")


def _shadow(segs, adjacent, rng):
    """3D segments seen along a random direction: (direction, crossings,
    over), with the strand nearer the viewer on top."""
    direction = _random_direction(rng)
    u, v, w = _frame(direction)
    found = crossings([[(_dot(p, u), _dot(p, v)) for p in seg] for seg in segs], adjacent)
    over = []
    for i, j, t, s, _turn in found:
        (a, b), (c, d) = ([_dot(p, w) for p in segs[k]] for k in (i, j))
        depth_i, depth_j = a + t * (b - a), c + s * (d - c)
        if abs(depth_i - depth_j) <= 1e-9:
            raise DegeneracyError("strands touch in space at a crossing")
        over.append(i if depth_i > depth_j else j)
    return direction, found, over


def project(link: SpatialLink, seed: int = 0) -> ProjectionResult:
    """Generic diagram of ``link`` seen along a seeded random direction.

    Retries fresh directions until the shadow is generic, up to
    MAX_RETRIES, then gives up with GenericityFailure.
    """
    segs, walks, ring = [], [], []
    for comp in link.components:
        m, start = len(comp), len(segs)
        walks.append([(start + k, False) for k in range(m)])
        segs += [(comp[k - 1], comp[k]) for k in range(m)]
        ring += [(start, m)] * m

    def adjacent(i, j):
        return ring[i] == ring[j] and (j - i) % ring[i][1] in (1, ring[i][1] - 1)

    def attempt(rng):
        direction, found, over = _shadow(segs, adjacent, rng)
        diagram = gauss_code(found, over, walks)
        if not is_realizable(diagram):
            # A correct generic shadow is always planar; treat as a
            # tolerance artifact and try another direction.
            raise DegeneracyError(f"non-planar shadow {genus(diagram)}")
        return ProjectionResult(diagram, direction, seed)

    return retry(attempt, random.Random(seed))


# ----------------------------------------------------------------------
# Linked triangles


def _require_triangle(t):
    pts = tuple(tuple(float(x) for x in p) for p in t)
    if len(pts) != 3:
        raise DomainError("a triangle needs exactly 3 points")
    return pts


def triangles_linked(t1, t2) -> int:
    """1 when the triangles are linked, 0 when not.

    Counts, mod 2, the crossings of t2's boundary through the open disk
    spanned by t1.  Raises DegeneracyError when any four of the six
    vertices are coplanar within tolerance.
    """
    t1, t2 = _require_triangle(t1), _require_triangle(t2)
    pts = t1 + t2
    for quad in itertools.combinations(range(6), 4):
        _orient3d_checked(*(pts[i] for i in quad))
    a, b, c = t1
    hits = 0
    for k in range(3):
        p, q = t2[k - 1], t2[k]
        if _orient3d_checked(a, b, c, p) == _orient3d_checked(a, b, c, q):
            continue
        s1 = _orient3d_checked(p, q, a, b)
        s2 = _orient3d_checked(p, q, b, c)
        s3 = _orient3d_checked(p, q, c, a)
        if s1 == s2 == s3:
            hits += 1
    return hits % 2


def _check_points(points, n):
    pts = tuple(tuple(float(x) for x in p) for p in points)
    if len(pts) != n:
        raise DomainError(f"need exactly {n} points")
    for quad in itertools.combinations(range(n), 4):
        _orient3d_checked(*(pts[i] for i in quad))
    return pts


def verify_six_points(points):
    """A linked pair of triangles with vertices at the 6 given points.

    Returns (triple1, triple2) of point indices.  Existence is the
    linked-triangles theorem; not finding one on generic input would be
    a bug, reported as AssertionError rather than silently ignored.
    """
    pts = _check_points(points, 6)
    rest = [i for i in range(1, 6)]
    for pair in itertools.combinations(rest, 2):
        first = (0,) + pair
        second = tuple(i for i in range(6) if i not in first)
        if triangles_linked([pts[i] for i in first], [pts[i] for i in second]):
            return first, second
    raise AssertionError("no linked triangle pair on generic six points")


# ----------------------------------------------------------------------
# Seven points: knotted Hamiltonian cycle


def _cycle_diagrams(pts, seed):
    """(cycle, diagram) for each Hamiltonian cycle on seven points.

    One seeded generic direction, one crossing table of all 21 edges;
    each cycle, from point 0 and once per direction, walks its edges
    through that table.
    """
    edges = list(itertools.combinations(range(7), 2))
    index = {e: k for k, e in enumerate(edges)}
    segs = [(pts[a], pts[b]) for a, b in edges]
    _direction, found, over = retry(
        lambda rng: _shadow(segs, lambda i, j: bool(set(edges[i]) & set(edges[j])), rng),
        random.Random(seed),
    )
    for tail in itertools.permutations(range(1, 7)):
        if tail[0] > tail[-1]:
            continue  # each cycle once, not once per direction
        cycle = (0,) + tail
        walk = [(index[min(a, b), max(a, b)], a > b) for a, b in zip(cycle, tail + (0,))]
        yield cycle, gauss_code(found, over, [walk])


def verify_seven_points(points, seed: int = 0):
    """Scan all 360 Hamiltonian cycles on 7 points for a knotted one.

    Projects the seven points once along a seeded generic direction,
    then assembles each cycle's diagram from the shared crossing table
    and computes its Arf invariant.

    Returns:
        (witness, parity): the first cycle (vertex order) whose
        projected diagram has arf = 1, or None if none does, and the
        sum of all 360 arf values mod 2.
    """
    witness = None
    total = 0
    for cycle, diagram in _cycle_diagrams(_check_points(points, 7), seed):
        value = arf(diagram)
        total += value
        if value and witness is None:
            witness = cycle
    return witness, total % 2
