"""Spatial polygonal links, generic projection, and the two point-set
theorems: six points in general position span a pair of linked
triangles, and the complete graph on seven points contains a knotted
Hamiltonian cycle (detected through the Arf invariant).

All geometry is done with orientation predicates (2x2 and 3x3 signed
determinants) in floating point; configurations too close to degenerate
raise DegeneracyError instead of guessing.  The 3x3 guard compares the
determinant with EPSILON * max(scale, 1), scale the product of the
three edge lengths: relative above unit scale but absolute below it,
so a generic point set shrunk by 1e-3 is rejected as degenerate.  A
NaN or infinite coordinate passes no tolerance test, so every input
point is checked first and raises DomainError naming it.  Projections
choose a seeded random viewing direction and retry until the shadow is
generic: no collapsed segments, no vertex on a foreign segment, all
crossings transversal and simple.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

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


def _sequence(xs, where):
    """``xs`` as a tuple; DomainError naming ``where`` unless it is an
    iterable other than bytes or a mapping."""
    if not isinstance(xs, Iterable) or isinstance(xs, (bytes, Mapping)):
        raise DomainError(f"{where} is not a sequence: {xs!r}")
    return tuple(xs)


def _finite(p, where):
    """``p`` as a tuple of three floats; DomainError naming ``where`` when
    it has not exactly three int or float coordinates, or when one is NaN or
    infinite, which no tolerance test would catch."""
    coords = tuple(p) if isinstance(p, Iterable) and not isinstance(p, (bytes, Mapping)) else ()
    if len(coords) != 3 or not all(isinstance(x, (int, float)) for x in coords):
        raise DomainError(f"{where} needs three numeric coordinates: {p!r}")
    v = tuple(map(float, coords))
    if not all(map(math.isfinite, v)):
        raise DomainError(f"{where} is not finite: {v}")
    return v


def orient3d(a, b, c, d):
    """Six times the signed volume of tetrahedron abcd."""
    return _volume(a, b, c, d)[0]


def _volume(a, b, c, d):
    """orient3d(a, b, c, d) and the product of the lengths of b - a,
    c - a and d - a, in fixed 3D arithmetic."""
    ax, ay, az = a[0], a[1], a[2]
    ux, uy, uz = b[0] - ax, b[1] - ay, b[2] - az
    vx, vy, vz = c[0] - ax, c[1] - ay, c[2] - az
    wx, wy, wz = d[0] - ax, d[1] - ay, d[2] - az
    val = ux * (vy * wz - vz * wy) - uy * (vx * wz - vz * wx) + uz * (vx * wy - vy * wx)
    scale = (
        math.sqrt(ux * ux + uy * uy + uz * uz)
        * math.sqrt(vx * vx + vy * vy + vz * vz)
        * math.sqrt(wx * wx + wy * wy + wz * wz)
    )
    return val, scale


def _orient3d_checked(a, b, c, d):
    """Sign of orient3d, raising when |orient3d| <= EPSILON * max(scale,
    1), scale the product of the three edge lengths from a: relative
    above unit scale, absolute below it."""
    val, scale = _volume(a, b, c, d)
    if abs(val) <= EPSILON * max(scale, 1.0):
        raise DegeneracyError("four points are coplanar within tolerance")
    return 1 if val > 0 else -1


def segment_crossing_2d(p1, p2, q1, q2):
    """Transversal interior intersection of two 2D segments.

    Returns (t, u) parameters along p and q, or None when the segments
    do not cross.  Raises DegeneracyError for near-parallel overlap or
    crossings too close to an endpoint, so callers can re-jitter.
    """
    hit = _crossing(_segment(p1, p2), _segment(q1, q2))
    return None if hit is None else hit[:2]


def _segment(p1, p2):
    """(x1, y1, x2, y2, dx, dy, length) of the plane segment p1 -> p2."""
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    return p1[0], p1[1], p2[0], p2[1], dx, dy, math.sqrt(dx * dx + dy * dy)


def _crossing(p, q):
    """``segment_crossing_2d`` on two ``_segment``s, returning (t, u,
    det(direction p, direction q)) for a crossing."""
    px, py, _, _, d1x, d1y, n1 = p
    qx, qy, qx2, qy2, d2x, d2y, n2 = q
    denom = d1x * d2y - d1y * d2x
    scale = max(n1 * n2, 1e-300)
    rx, ry = qx - px, qy - py
    if abs(denom) <= EPSILON * scale:
        # Parallel: degenerate only if the supporting lines overlap
        # near the segments.
        gap = d1x * ry - d1y * rx
        if abs(gap) <= EPSILON * max(n1 * math.sqrt(rx * rx + ry * ry), scale):
            s1 = rx * d1x + ry * d1y
            s2 = (qx2 - px) * d1x + (qy2 - py) * d1y
            if max(min(s1, s2), 0.0) <= min(max(s1, s2), d1x * d1x + d1y * d1y):
                raise DegeneracyError("collinear overlapping segments")
        return None
    t = (rx * d2y - ry * d2x) / denom
    u = (rx * d1y - ry * d1x) / denom
    margin = 1e-7
    if -margin < t < margin or 1 - margin < t < 1 + margin:
        if -2 * margin < u < 1 + 2 * margin:
            raise DegeneracyError("crossing at a segment endpoint")
    if -margin < u < margin or 1 - margin < u < 1 + margin:
        if -2 * margin < t < 1 + 2 * margin:
            raise DegeneracyError("crossing at a segment endpoint")
    if margin < t < 1 - margin and margin < u < 1 - margin:
        return t, u, denom
    return None


# ----------------------------------------------------------------------
# Spatial links and projection


@dataclass(frozen=True)
class SpatialLink:
    """Closed 3D polygonal components (tuples of float triples)."""

    components: tuple

    def __init__(self, components):
        comps = tuple(
            tuple(
                _finite(v, f"component {c} vertex {k}")
                for k, v in enumerate(_sequence(comp, f"component {c}"))
            )
            for c, comp in enumerate(_sequence(components, "components"))
        )
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
    table = [_segment(p, q) for p, q in segs]
    for i, j in itertools.combinations(range(len(segs)), 2):
        if adjacent(i, j):
            continue
        hit = _crossing(table[i], table[j])
        if hit is not None:
            t, u, denom = hit
            found.append((i, j, t, u, 1 if denom > 0 else -1))
            x, y, _, _, dx, dy, _ = table[i]
            points.append((x + t * dx, y + t * dy))
    # Crossings within 1e-7 of each other are within 1e-7 in x, so in x
    # order only those in a window after each (twice as wide, to leave
    # room for rounding) need the distance test.
    points.sort()
    for k, (x, y) in enumerate(points):
        for m in range(k + 1, len(points)):
            x2, y2 = points[m]
            if x2 - x > 2e-7:
                break
            if math.sqrt((x - x2) * (x - x2) + (y - y2) * (y - y2)) <= 1e-7:
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


def _require_triangle(t, where):
    pts = tuple(_finite(p, f"triangle point {k}") for k, p in enumerate(_sequence(t, where)))
    if len(pts) != 3:
        raise DomainError("a triangle needs exactly 3 points")
    return pts


def triangles_linked(t1, t2) -> int:
    """1 when the triangles are linked, 0 when not.

    Counts, mod 2, the crossings of t2's boundary through the open disk
    spanned by t1.  Raises DegeneracyError when any four of the six
    vertices are coplanar within tolerance.
    """
    return _linked(_check_points(_require_triangle(t1, "t1") + _require_triangle(t2, "t2"), 6))


def _linked(pts):
    """``triangles_linked(pts[:3], pts[3:])`` for six checked points:
    no four of them coplanar within tolerance."""
    a, b, c, *t2 = pts
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
    pts = tuple(_finite(p, f"point {k}") for k, p in enumerate(_sequence(points, "points")))
    if len(pts) != n:
        raise DomainError(f"need exactly {n} points")
    for quad in itertools.combinations(pts, 4):
        _orient3d_checked(*quad)
    return pts


def verify_six_points(points):
    """A linked pair of triangles with vertices at the 6 given points.

    Returns (triple1, triple2) of point indices.  Existence is the
    linked-triangles theorem; not finding one on generic input would be
    a bug, reported as AssertionError rather than silently ignored.
    """
    pts = _check_points(points, 6)
    for pair in itertools.combinations(range(1, 6), 2):
        first = (0,) + pair
        second = tuple(i for i in range(6) if i not in first)
        if _linked([pts[i] for i in first + second]):
            return first, second
    raise AssertionError("no linked triangle pair on generic six points")


# ----------------------------------------------------------------------
# Seven points: knotted Hamiltonian cycle


@functools.cache
def _k7():
    """The 21 edges of K7, their adjacency table, and its 360
    Hamiltonian cycles, each once: from point 0, first to the smaller
    of its two neighbours on the cycle.

    A cycle is (vertex order, bitmask of its 7 edges, place), where
    place[e] is (walk index, reversed) for each edge e of the cycle and
    None for the others; sharing the 14 distinct steps keeps the table
    near 0.15 MB.
    """
    edges = list(itertools.combinations(range(7), 2))
    index = {e: k for k, e in enumerate(edges)}
    adjacent = [[bool(set(e) & set(f)) for f in edges] for e in edges]
    steps = [((k, False), (k, True)) for k in range(7)]
    cycles = []
    for tail in itertools.permutations(range(1, 7)):
        if tail[0] > tail[-1]:
            continue
        cycle = (0,) + tail
        place = [None] * len(edges)
        for k, (a, b) in enumerate(zip(cycle, tail + (0,))):
            place[index[min(a, b), max(a, b)]] = steps[k][a > b]
        mask = sum(1 << e for e, step in enumerate(place) if step)
        cycles.append((cycle, mask, tuple(place)))
    return edges, adjacent, cycles


def _cycle_skews(pts, seed):
    """(cycle, number of skew pairs) for each Hamiltonian cycle on seven
    points, in ``_k7`` order; the parity is the cycle's Arf invariant.

    One seeded generic direction gives one crossing table of all 21
    edges.  A cycle keeps the crossings of two of its own edges, places
    each pass at walk index plus parameter along the walked direction,
    and counts the pairs with over a < under b < under a < over b, as
    ``skew_pairs`` does from the cycle's first step.
    """
    edges, adjacent, cycles = _k7()
    segs = [(pts[a], pts[b]) for a, b in edges]
    _direction, found, over = retry(
        lambda rng: _shadow(segs, lambda i, j: adjacent[i][j], rng), random.Random(seed)
    )
    table = [
        (1 << i | 1 << j, i, t, j, u) if over[x] == i else (1 << i | 1 << j, j, u, i, t)
        for x, (i, j, t, u, _turn) in enumerate(found)
    ]
    for cycle, mask, place in cycles:
        passes = []  # (over position, under position) along the walk
        for bits, top, t, bottom, u in table:
            if mask & bits == bits:
                (ko, ro), (ku, ru) = place[top], place[bottom]
                passes.append((ko + (1 - t if ro else t), ku + (1 - u if ru else u)))
        yield cycle, len([1 for oa, ua in passes for ob, ub in passes if oa < ub < ua < ob])


def verify_seven_points(points, seed: int = 0):
    """Scan all 360 Hamiltonian cycles on 7 points for a knotted one.

    Projects the seven points once along a seeded generic direction and
    reads each cycle's Arf invariant off that one crossing table, as
    the parity of its skew pairs; no per-cycle diagram is built.

    Returns:
        (witness, parity): the first cycle (vertex order) whose
        projected diagram has arf = 1, or None if none does, and the
        sum of all 360 arf values mod 2.
    """
    witness = None
    total = 0
    for cycle, skew in _cycle_skews(_check_points(points, 7), seed):
        value = skew % 2
        total += value
        if value and witness is None:
            witness = cycle
    return witness, total % 2
