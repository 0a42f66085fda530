"""Spatial polygonal links, generic projection, and the two point-set
theorems: six points in general position span a pair of linked
triangles, and the complete graph on seven points contains a knotted
Hamiltonian cycle (detected through the Arf invariant).

All geometry rests on two exact sign predicates, ``orient3d`` and
``_orient2d``.  Each takes its determinant in floats and keeps the sign
when the value clears Shewchuk's static error bound times its
permanent ("Adaptive precision floating-point arithmetic and fast
robust geometric predicates", 1997), plus a term for products that
underflow; otherwise (NaN or infinity included) it recomputes with
``fractions.Fraction``, which is exact because every float is a dyadic
rational.  No answer depends on units, and DegeneracyError means an
exact zero or an exact equality: four coplanar points, collinear
overlapping segments, a crossing at a segment endpoint, two crossings
at one point.  A NaN or infinite coordinate has no sign, so every input
point is checked first and raises DomainError naming it, as does an
int too large for a float.  Projections choose a seeded random viewing
direction and retry until the shadow is generic.

Each orientation of a point set is decided once.  A segment is an
``(a, b)`` pair of indices into one list of points, so each point is
projected once, and two segments that share an index share that end
and are never tested against each other.  ``_crossing`` writes its four
plane determinants out on shared differences, with ``_orient2d``'s
filter and exact fallback.  The six- and seven-point checks decide the
sign of every four of their points once, in ``_check_points``, and
read each later orientation off that list with the parity of the
permutation that sorts its four indices.
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

MAX_RETRIES = 64
# Shewchuk's static bounds (ccwerrboundA, o3derrboundA): the float
# determinant is within bound * float permanent of the exact one when
# no product underflows.
_ORIENT2D_BOUND = (3 + 16 * 2.0**-53) * 2.0**-53
_ORIENT3D_BOUND = (7 + 56 * 2.0**-53) * 2.0**-53
# An underflowed product is off by up to half the smallest subnormal
# more; in orient3d the first products are then scaled by |b - a|.
_UNDERFLOW = 4 * math.ulp(0.0)


# ----------------------------------------------------------------------
# Vector helpers (plain tuples; the scale is a handful of points)


def _norm(a):
    return math.sqrt(sum(x * x for x in a))


def _sequence(xs, where):
    """``xs`` as a tuple; DomainError naming ``where`` unless it is an
    iterable other than bytes or a mapping."""
    if not isinstance(xs, Iterable) or isinstance(xs, (bytes, Mapping)):
        raise DomainError(f"{where} is not a sequence: {xs!r}")
    return tuple(xs)


def _finite(p, where):
    """``p`` as a tuple of three floats; DomainError naming ``where`` when
    it has not exactly three int or float coordinates, when an int is too
    large for a float, or when one is NaN or infinite, which has no sign."""
    coords = tuple(p) if isinstance(p, Iterable) and not isinstance(p, (bytes, Mapping)) else ()
    if len(coords) != 3 or not all(isinstance(x, (int, float)) for x in coords):
        raise DomainError(f"{where} needs three numeric coordinates: {p!r}")
    try:
        v = tuple(map(float, coords))
    except OverflowError:
        raise DomainError(f"{where} has a coordinate too large for a float") from None
    if not all(map(math.isfinite, v)):
        raise DomainError(f"{where} is not finite: {v}")
    return v


def orient3d(a, b, c, d):
    """Exact sign of det[b - a, c - a, d - a]: 1, -1, or 0 exactly when
    the four points are coplanar."""
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    m1, m2, m3, m4, m5, m6 = vy * wz, vz * wy, vz * wx, vx * wz, vx * wy, vy * wx
    det = ux * (m1 - m2) + uy * (m3 - m4) + uz * (m5 - m6)
    permanent = abs(ux) * (abs(m1) + abs(m2)) + abs(uy) * (abs(m3) + abs(m4))
    permanent += abs(uz) * (abs(m5) + abs(m6))
    bound = _ORIENT3D_BOUND * permanent + _UNDERFLOW * (abs(ux) + abs(uy) + abs(uz) + 1)
    if not abs(det) > bound:  # NaN or inf from overflow goes exact too
        a, *rest = _rationals(a, b, c, d)
        (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = ([x - y for x, y in zip(p, a)] for p in rest)
        det = ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx)
    return (det > 0) - (det < 0)


def _orient3d_checked(a, b, c, d):
    """``orient3d``, raising DegeneracyError when it is 0."""
    sign = orient3d(a, b, c, d)
    if not sign:
        raise DegeneracyError("four points are coplanar")
    return sign


def _orient2d(a, b, c):
    """det[b - a, c - a] of plane points and a bound on its error: the
    float and its bound when that fixes the sign, else the exact Fraction
    and 0."""
    left = (b[0] - a[0]) * (c[1] - a[1])
    right = (b[1] - a[1]) * (c[0] - a[0])
    det = left - right
    bound = _ORIENT2D_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if not abs(det) > bound:
        return _exact2d(a, b, c), 0
    return det, bound


def _rationals(*points):
    """The points with their coordinates as exact Fractions."""
    from fractions import Fraction  # imported on the rare exact path only

    return [[Fraction(x) for x in p] for p in points]


def _exact2d(a, b, c):
    (ax, ay), (bx, by), (cx, cy) = _rationals(a, b, c)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _exact_params(p1, p2, q1, q2):
    """The exact parameters (t, u) of the crossing of two plane segments
    along p1 -> p2 and q1 -> q2."""
    c, d = _exact2d(q1, q2, p1), _exact2d(q1, q2, p2)
    a, b = _exact2d(p1, p2, q1), _exact2d(p1, p2, q2)
    return c / (c - d), a / (a - b)


def _overlap(p1, p2, q1, q2):
    """Whether the bounding boxes of segments p1p2 and q1q2 meet; for
    collinear segments, whether the segments do."""
    boxes = zip(map(min, p1, p2), map(max, p1, p2), map(min, q1, q2), map(max, q1, q2))
    return all(lo <= hi2 and lo2 <= hi for lo, hi, lo2, hi2 in boxes)


def _crossing(p1, p2, q1, q2):
    """Proper crossing of plane segments p1p2 and q1q2, read off the four
    exact signs of each segment's ends against the other's line.

    Returns None when the segments miss, else ((t, et), (u, eu), turn):
    floats within et and eu of the exact parameters along p and q, and
    the sign of det(p2 - p1, q2 - q1).  Raises DegeneracyError for
    collinear overlapping segments and for a touch at an endpoint, so
    callers can re-jitter.

    The four determinants are ``_orient2d``'s, written out in place on
    shared differences: a = (p1, p2, q1), b = (p1, p2, q2), c = (q1, q2,
    p1) and d = (q1, q2, p2), each with its float filter and exact
    fallback.  As p1 - q1 = -(q1 - p1) exactly, c takes r's products in
    swapped order, which gives the same float as ``_orient2d``.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, q1, q2
    px, py, qx, qy, rx, ry = x2 - x1, y2 - y1, x4 - x3, y4 - y3, x3 - x1, y3 - y1
    left, right = px * ry, py * rx
    a, ea = left - right, _ORIENT2D_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if not abs(a) > ea:
        a, ea = _exact2d(p1, p2, q1), 0
    left, right = px * (y4 - y1), py * (x4 - x1)
    b, eb = left - right, _ORIENT2D_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if not abs(b) > eb:
        b, eb = _exact2d(p1, p2, q2), 0
    if a and b and (a > 0) == (b > 0):
        return None
    left, right = qy * rx, qx * ry
    c, ec = left - right, _ORIENT2D_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if not abs(c) > ec:
        c, ec = _exact2d(q1, q2, p1), 0
    left, right = qx * (y2 - y3), qy * (x2 - x3)
    d, ed = left - right, _ORIENT2D_BOUND * (abs(left) + abs(right)) + _UNDERFLOW
    if not abs(d) > ed:
        d, ed = _exact2d(q1, q2, p2), 0
    if c and d and (c > 0) == (d > 0):
        return None
    if not (a or b):
        if _overlap(p1, p2, q1, q2):
            raise DegeneracyError("collinear overlapping segments")
        return None
    if not (a and b and c and d):
        raise DegeneracyError("crossing at a segment endpoint")
    turn = 1 if b > 0 else -1  # det(p2 - p1, q2 - q1) = b - a, a and b apart
    if ea and eb and ec and ed:
        # t = c / (c - d) is within (ec + ed) / (s - ec - ed), s = |c - d|,
        # of its exact value, plus two roundings, and t +- et two more.
        s, r, et, eu = abs(c - d), abs(a - b), ec + ed, ea + eb
        if 4 * et <= s and 4 * eu <= r:
            et, eu = 2 * (et / s + _ORIENT2D_BOUND), 2 * (eu / r + _ORIENT2D_BOUND)
            return (c / (c - d), et), (a / (a - b), eu), turn
    t, u = _exact_params(p1, p2, q1, q2)
    return (float(t), _ORIENT2D_BOUND), (float(u), _ORIENT2D_BOUND), turn


def _meet(p1, p2, q1, q2):
    """Whether the 3D segments p1p2 and q1q2 share a point, exactly."""
    if orient3d(p1, p2, q1, q2):
        return False
    # Coplanar: they meet iff their shadows meet in all three coordinate
    # planes, as one of those maps their plane or line one to one.
    for k in range(3):
        try:
            if _crossing(*[(p[k - 2], p[k - 1]) for p in (p1, p2, q1, q2)]) is None:
                return False
        except DegeneracyError:
            pass  # they touch or overlap in this plane
    return True


def _folds_back(a, v, b):
    """Whether the segments av and vb share more than v, exactly: a, v
    and b lie on one line (the cross product, whose coordinates are the
    three coordinate-plane determinants, is zero) with a and b on the
    same side of v."""
    if any(_orient2d(*[(p[k - 2], p[k - 1]) for p in (a, v, b)])[0] for k in range(3)):
        return False
    a, v, b = _rationals(a, v, b)
    return sum((x - y) * (z - y) for x, y, z in zip(a, v, b)) > 0


def _near_pairs(points, edges):
    """The pairs (i, j), i < j, of segments ``edges`` (index pairs into
    ``points``) that share no end and whose bounding boxes meet in x and
    y, in the order of a sweep in x."""
    boxes = sorted(
        (*sorted((p[0], q[0])), *sorted((p[1], q[1])), k, a, b)
        for k, (a, b) in enumerate(edges)
        for p, q in [(points[a], points[b])]
    )
    for n, (_, x1, y0, y1, i, a, b) in enumerate(boxes):
        for x0, _, y2, y3, j, c, d in itertools.islice(boxes, n + 1, None):
            if x0 > x1:
                break
            if y2 <= y1 and y0 <= y3 and c != a != d and c != b != d:
                yield (i, j) if i < j else (j, i)


# ----------------------------------------------------------------------
# Spatial links and projection


def _rings(components):
    """(points, edges, walks) of closed polygons: all their vertices in
    one list; their segments as index pairs into it, polygon after
    polygon, segment k of a polygon from its vertex k - 1 to its vertex
    k; and one ``gauss_code`` walk per polygon."""
    points, edges, walks = [], [], []
    for comp in components:
        m, start = len(comp), len(points)
        edges += [(start + (k - 1) % m, start + k) for k in range(m)]
        walks.append([(start + k, False) for k in range(m)])
        points += comp
    return points, edges, walks


@dataclass(frozen=True)
class SpatialLink:
    """Closed 3D polygonal components (tuples of float triples).

    DomainError unless there is a component, every component has three
    vertices or more, no two consecutive ones equal, no two consecutive
    segments share more than their common vertex (a fold back along one
    line), and no two of all the segments that are not consecutive on
    one component share a point.
    """

    components: tuple

    def __init__(self, components):
        comps = tuple(
            tuple(
                _finite(v, f"component {c} vertex {k}")
                for k, v in enumerate(_sequence(comp, f"component {c}"))
            )
            for c, comp in enumerate(_sequence(components, "components"))
        )
        if not comps:
            raise DomainError("a link needs at least one component")
        for c, comp in enumerate(comps):
            if len(comp) < 3:
                raise DomainError("a closed polygonal component needs >= 3 vertices")
            if any(v == comp[k - 1] for k, v in enumerate(comp)):
                raise DomainError("consecutive vertices coincide")
            for k, v in enumerate(comp):
                if _folds_back(comp[k - 1], v, comp[(k + 1) % len(comp)]):
                    raise DomainError(f"component {c} folds back at vertex {k}")
        points, edges, _ = _rings(comps)
        for i, j in _near_pairs(points, edges):
            (a, b), (a2, b2) = edges[i], edges[j]
            if _meet(points[a], points[b], points[a2], points[b2]):
                where = [(c, k, len(p)) for c, p in enumerate(comps) for k in range(len(p))]
                (c, k, m), (c2, k2, m2) = where[i], where[j]
                raise DomainError(
                    f"component {c} edge {(k - 1) % m}-{k}"
                    f" meets component {c2} edge {(k2 - 1) % m2}-{k2}"
                )
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class ProjectionResult:
    diagram: Diagram
    direction: tuple


def _random_direction(rng):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = _norm(v)
        if n > 1e-6:
            return tuple(x / n for x in v)


def _cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _frame(w):
    """Right-handed orthonormal (u, v, w)."""
    u = _cross(w, (1.0, 0.0, 0.0) if abs(w[0]) < 0.9 else (0.0, 1.0, 0.0))
    nu = _norm(u)
    u = tuple(x / nu for x in u)
    return u, _cross(w, u), w


def crossings(points, edges):
    """Proper crossings among plane segments, each pair that shares no
    end and whose bounding boxes meet tested once.

    Args:
        points: points in the plane.
        edges: the segments, as (a, b) pairs of indices into ``points``;
            two segments that share an index share that end, so they are
            not tested.

    Returns:
        (i, j, t, u, turn) for each crossing, i < j in pair order: t and
        u, in (0, 1), rank it among the crossings on segments i and j in
        the exact order along each, and turn is the sign of
        det(direction i, direction j), never 0.

    Raises:
        DegeneracyError: for collinear overlaps, crossings at an
            endpoint, and two crossings at one point (a triple point
            collapses there).
    """
    found = []
    for i, j in _near_pairs(points, edges):
        (a, b), (c, d) = edges[i], edges[j]
        if hit := _crossing(points[a], points[b], points[c], points[d]):
            found.append([i, j, *hit])
    found.sort()
    along = [[] for _ in edges]
    for x, (i, j, (t, et), (u, eu), _) in enumerate(found):
        along[i].append((t, et, x, 2))
        along[j].append((u, eu, x, 3))

    def exact(hit):
        (a, b), (c, d) = (edges[k] for k in found[hit[2]][:2])
        return _exact_params(points[a], points[b], points[c], points[d])[hit[3] - 2], hit

    for hits in along:
        hits.sort()
        # In float order, disjoint error intervals of neighbours fix the order.
        if len(hits) > 1 and any(t - e <= s + f for (s, f, *_), (t, e, *_) in zip(hits, hits[1:])):
            keyed = sorted(map(exact, hits))
            if any(x[0] == y[0] for x, y in zip(keyed, keyed[1:])):
                raise DegeneracyError("two crossings coincide")
            hits = [hit for _, hit in keyed]
        for rank, (_, _, x, slot) in enumerate(hits, 1):
            found[x][slot] = rank / (len(hits) + 1)
    return [tuple(f) for f in found]


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


def retry(attempt, seed):
    """``attempt(rng)`` until it raises no DegeneracyError.

    Each attempt draws fresh random positions from one ``random.Random``
    seeded with ``seed``, which must be an ``int`` (not a bool), so a seed
    gives the same result every time; after MAX_RETRIES failures this
    gives up with GenericityFailure.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DomainError(f"seed must be an int, got {seed!r}")
    last, rng = None, random.Random(seed)
    for _ in range(MAX_RETRIES):
        try:
            return attempt(rng)
        except DegeneracyError as exc:
            last = exc
    raise GenericityFailure(f"no generic position after {MAX_RETRIES} tries: {last}")


def _shadow(points, edges, rng):
    """(direction, crossings): the segments ``edges``, index pairs into
    the 3D ``points``, seen along a random direction, each point
    projected once onto the plane (u, v) of ``_frame``."""
    direction = _random_direction(rng)
    (ux, uy, uz), (vx, vy, vz), _ = _frame(direction)
    plane = [(x * ux + y * uy + z * uz, x * vx + y * vy + z * vz) for x, y, z in points]
    return direction, crossings(plane, edges)


def project(link: SpatialLink, seed: int = 0) -> ProjectionResult:
    """Generic diagram of ``link`` seen along a seeded random direction.

    Retries fresh directions until the shadow is generic, up to
    MAX_RETRIES, then gives up with GenericityFailure.  ``link`` must be
    a SpatialLink and ``seed`` an int (DomainError otherwise).  The
    strand nearer the viewer is on top: segment i is over j exactly when
    orient3d of their ends has the sign of the crossing's turn, and
    coplanar ends raise DegeneracyError, which retries.
    """
    if not isinstance(link, SpatialLink):
        raise DomainError(f"link must be a SpatialLink, got {link!r}")
    points, edges, walks = _rings(link.components)

    def attempt(rng):
        direction, found = _shadow(points, edges, rng)
        over = []
        for i, j, _, _, turn in found:
            (a, b), (c, d) = edges[i], edges[j]
            above = _orient3d_checked(points[a], points[b], points[c], points[d]) == turn
            over.append(i if above else j)
        diagram = gauss_code(found, over, walks)
        if not is_realizable(diagram):
            # Exact predicates trace a plane curve, so this is a bug.
            raise AssertionError(f"non-planar shadow {genus(diagram)}")
        return ProjectionResult(diagram, direction)

    return retry(attempt, seed)


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
    vertices are coplanar.
    """
    pts = _require_triangle(t1, "t1") + _require_triangle(t2, "t2")
    return _linked(_check_points(pts, 6)[1], _splits()[0][2])


def _quad(a, b, c, d):
    """(mask, parity) of four distinct point indices: orient3d of the
    points a, b, c, d is ``signs[mask] * parity``, with ``signs`` from
    ``_check_points`` and parity the sign of the permutation that sorts
    the four indices."""
    inversions = (a > b) + (a > c) + (a > d) + (b > c) + (b > d) + (c > d)
    return 1 << a | 1 << b | 1 << c | 1 << d, (-1) ** inversions


@functools.cache
def _splits():
    """The ten splits of six points into two triangles, the first
    through point 0, as (first, second, rows): per edge xy of the second
    triangle, the ``_quad`` of abcx, abcy, xyab, xybc and xyca, where abc
    is the first."""
    out = []
    for b, c in itertools.combinations(range(1, 6), 2):
        p, q, r = (i for i in range(1, 6) if i not in (b, c))
        rows = [
            (_quad(0, b, c, x), _quad(0, b, c, y), _quad(x, y, 0, b), _quad(x, y, b, c),
             _quad(x, y, c, 0))
            for x, y in ((r, p), (p, q), (q, r))
        ]
        out.append(((0, b, c), (p, q, r), rows))
    return out


def _linked(signs, rows):
    """1 when the two triangles of a split (its ``_splits`` rows) of six
    checked points are linked, else 0: an edge pq of the second triangle
    crosses the first, abc, when p and q lie on two sides of its plane
    and the line pq passes abc's three edges the same way round."""
    hits = 0
    for (m1, s1), (m2, s2), (m3, s3), (m4, s4), (m5, s5) in rows:
        if signs[m1] * s1 != signs[m2] * s2:
            hits += signs[m3] * s3 == signs[m4] * s4 == signs[m5] * s5
    return hits % 2


def _check_points(points, n):
    """(points, signs): the n points as float triples, and the orient3d
    sign of each four of them, taken in increasing index order, at the
    bit mask of their indices in a list of 2**n.  DomainError for a bad
    point or count, DegeneracyError at the first four that are coplanar."""
    pts = tuple(_finite(p, f"point {k}") for k, p in enumerate(_sequence(points, "points")))
    if len(pts) != n:
        raise DomainError(f"need exactly {n} points")
    signs = [0] * (1 << n)
    for a, b, c, d in itertools.combinations(range(n), 4):
        signs[1 << a | 1 << b | 1 << c | 1 << d] = _orient3d_checked(pts[a], pts[b], pts[c], pts[d])
    return pts, signs


def verify_six_points(points):
    """A linked pair of triangles with vertices at the 6 given points.

    Returns (triple1, triple2) of point indices.  Existence is the
    linked-triangles theorem; not finding one on generic input would be
    a bug, reported as AssertionError rather than silently ignored.
    """
    _, signs = _check_points(points, 6)
    for first, second, rows in _splits():
        if _linked(signs, rows):
            return first, second
    raise AssertionError("no linked triangle pair on generic six points")


# ----------------------------------------------------------------------
# Seven points: knotted Hamiltonian cycle


@functools.cache
def _k7():
    """The 21 edges of K7, the ``_quad`` of the ends of edge e and edge f
    at ``quads[e][f]`` when they share no point (None when they do), its
    360 Hamiltonian cycles, each once (from point 0, first to the smaller
    of its two neighbours on the cycle), and three tables of cycle masks,
    in which bit c stands for cycle c:

    - ``before[e][f]``: the cycles that walk edge e before edge f;
    - ``fwd[e]``: the cycles that walk edge e from its lower point;
    - ``rev[e]``: the cycles that walk edge e from its higher point.

    The masks are ints of up to 360 bits; the whole table takes about
    0.07 MB.  ``_cycle_skews`` ANDs them into one mask of cycles per
    pair of crossings and XORs those into one Arf mask.
    """
    edges = list(itertools.combinations(range(7), 2))
    index = {e: k for k, e in enumerate(edges)}
    quads = [[_quad(*e, *f) if len({*e, *f}) == 4 else None for f in edges] for e in edges]
    cycles, before = [], [[0] * len(edges) for _ in edges]
    fwd, rev = [0] * len(edges), [0] * len(edges)
    for tail in itertools.permutations(range(1, 7)):
        if tail[0] > tail[-1]:
            continue
        bit, cycle = 1 << len(cycles), (0,) + tail
        cycles.append(cycle)
        walk = [(index[min(a, b), max(a, b)], a > b) for a, b in zip(cycle, tail + (0,))]
        for k, (e, reversed_) in enumerate(walk):
            (rev if reversed_ else fwd)[e] |= bit
            for f, _ in walk[k + 1 :]:
                before[e][f] |= bit
    return edges, quads, cycles, before, fwd, rev


def _k7_table(pts, signs, seed):
    """The crossings of all 21 edges of K7 on seven checked points
    (``_check_points``) along one seeded generic direction, each as
    (over edge, its rank, under edge, its rank).  Edge e is over f
    exactly when orient3d of their ends, read off ``signs`` through
    their ``_quad``, has the sign of the crossing's turn."""
    edges, quads, *_ = _k7()
    _, found = retry(lambda rng: _shadow(pts, edges, rng), seed)
    return [
        (i, t, j, u) if signs[quads[i][j][0]] * quads[i][j][1] == turn else (j, u, i, t)
        for i, j, t, u, turn in found
    ]


def _cycle_skews(table):
    """The Arf invariants of all Hamiltonian cycles on seven points as
    one mask over ``_k7`` cycle order: bit c is the Arf of cycle c.

    ``table`` is the crossing table of all 21 edges along one seeded
    generic direction, from ``_k7_table``.  A pass is (edge, rank along
    the edge), and the cycles in which pass p comes before pass q are
    ``before[e][f]`` on different edges and ``fwd[e]`` or ``rev[e]`` on
    one edge, as p's rank is below or above q's (``crossings`` gives no
    two passes one rank).  A pair
    of crossings x, y is skew, as in ``arf_casson`` from the cycle's
    first step, in the cycles where over x < under y < under x < over y
    or the same with x and y swapped; each pair's mask is XORed into the
    result, so a bit ends set where the cycle has an odd number of skew
    pairs.
    """
    _, _, _, before, fwd, rev = _k7()
    arf = 0
    for x, (oe, ro, ue, ru) in enumerate(table):
        bo, bu = before[oe], before[ue]
        for fe, so, ge, su in table[x + 1 :]:
            # over x < under y < under x < over y, or the same with x and y
            # swapped; each factor is the one pass-before-pass lookup above,
            # written out in place because a helper call per lookup is slower
            arf ^= (
                (bo[ge] if oe != ge else fwd[oe] if ro < su else rev[oe])
                & (before[ge][ue] if ge != ue else fwd[ue] if su < ru else rev[ue])
                & (bu[fe] if ue != fe else fwd[ue] if ru < so else rev[ue])
            ) | (
                (before[fe][ue] if fe != ue else fwd[ue] if so < ru else rev[ue])
                & (bu[ge] if ue != ge else fwd[ue] if ru < su else rev[ue])
                & (before[ge][oe] if ge != oe else fwd[oe] if su < ro else rev[oe])
            )
    return arf


def verify_seven_points(points, seed: int = 0):
    """Scan all 360 Hamiltonian cycles on 7 points for a knotted one.

    Projects the seven points once along a seeded generic direction and
    reads every cycle's Arf invariant off that one crossing table at
    once, as one bit of the XOR mask of ``_cycle_skews``; no per-cycle
    diagram is built and no loop runs over the cycles.  The witness is
    the mask's lowest set bit and the parity its popcount mod 2.

    Returns:
        (witness, parity): the first cycle (vertex order) whose
        projected diagram has arf = 1, or None if none does, and the
        sum of all 360 arf values mod 2.
    """
    knotted = _cycle_skews(_k7_table(*_check_points(points, 7), seed))
    witness = _k7()[2][(knotted & -knotted).bit_length() - 1] if knotted else None
    return witness, knotted.bit_count() % 2
