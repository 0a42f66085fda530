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
    """
    (a, ea), (b, eb) = _orient2d(p1, p2, q1), _orient2d(p1, p2, q2)
    if a and b and (a > 0) == (b > 0):
        return None
    (c, ec), (d, ed) = _orient2d(q1, q2, p1), _orient2d(q1, q2, p2)
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


def _near_pairs(segs):
    """The pairs (i, j), i < j, of segments whose bounding boxes meet in x
    and y, in the order of a sweep in x."""
    boxes = sorted(
        (*sorted((p[0], q[0])), *sorted((p[1], q[1])), k) for k, (p, q) in enumerate(segs)
    )
    for n, (_, x1, y0, y1, i) in enumerate(boxes):
        for x0, _, y2, y3, j in itertools.islice(boxes, n + 1, None):
            if x0 > x1:
                break
            if y2 <= y1 and y0 <= y3:
                yield (i, j) if i < j else (j, i)


# ----------------------------------------------------------------------
# Spatial links and projection


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
        segs, where = [], []
        for c, comp in enumerate(comps):
            if len(comp) < 3:
                raise DomainError("a closed polygonal component needs >= 3 vertices")
            if any(v == comp[k - 1] for k, v in enumerate(comp)):
                raise DomainError("consecutive vertices coincide")
            for k, v in enumerate(comp):
                if _folds_back(comp[k - 1], v, comp[(k + 1) % len(comp)]):
                    raise DomainError(f"component {c} folds back at vertex {k}")
            segs += zip(comp[-1:] + comp[:-1], comp)
            where += [(c, k, len(comp)) for k in range(len(comp))]
        for i, j in _near_pairs(segs):
            (c, k, m), (c2, k2, m2) = where[i], where[j]
            if (c != c2 or (k2 - k) % m not in (1, m - 1)) and _meet(*segs[i], *segs[j]):
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


def crossings(segs, adjacent):
    """Proper crossings among plane segments, each pair whose bounding
    boxes meet tested once.

    Args:
        segs: (start, end) point pairs in the plane.
        adjacent: ``adjacent(i, j)`` for i < j tells whether segments i
            and j share an endpoint; such pairs are not tested.

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
    found = sorted(
        [i, j, *hit]
        for i, j in _near_pairs(segs)
        if not adjacent(i, j) and (hit := _crossing(*segs[i], *segs[j]))
    )
    along = [[] for _ in segs]
    for x, (i, j, (t, et), (u, eu), _) in enumerate(found):
        along[i].append((t, et, x, 2))
        along[j].append((u, eu, x, 3))

    def exact(hit):
        i, j = found[hit[2]][:2]
        return _exact_params(*segs[i], *segs[j])[hit[3] - 2], hit

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


def _shadow(segs, adjacent, rng):
    """3D segments seen along a random direction: (direction, crossings,
    over), with the strand nearer the viewer on top.

    Each distinct endpoint is projected once.  Segment i is on top of j
    exactly when orient3d of their ends has the sign of the crossing's
    turn; coplanar ends raise DegeneracyError.
    """
    direction = _random_direction(rng)
    u, v, _w = _frame(direction)
    plane = {p: (_dot(p, u), _dot(p, v)) for p in dict.fromkeys(itertools.chain.from_iterable(segs))}
    found = crossings([(plane[p], plane[q]) for p, q in segs], adjacent)
    over = [i if _orient3d_checked(*segs[i], *segs[j]) == turn else j for i, j, _, _, turn in found]
    return direction, found, over


def project(link: SpatialLink, seed: int = 0) -> ProjectionResult:
    """Generic diagram of ``link`` seen along a seeded random direction.

    Retries fresh directions until the shadow is generic, up to
    MAX_RETRIES, then gives up with GenericityFailure.  ``seed`` must be
    an int (DomainError otherwise).
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
    return _linked(_check_points(_require_triangle(t1, "t1") + _require_triangle(t2, "t2"), 6))


def _linked(pts):
    """``triangles_linked(pts[:3], pts[3:])`` for six checked points:
    no four of them coplanar."""
    a, b, c, *t2 = pts
    hits = 0
    for k in range(3):
        p, q = t2[k - 1], t2[k]
        if orient3d(a, b, c, p) != orient3d(a, b, c, q):
            hits += orient3d(p, q, a, b) == orient3d(p, q, b, c) == orient3d(p, q, c, a)
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
    """The 21 edges of K7, their adjacency table, its 360 Hamiltonian
    cycles, each once (from point 0, first to the smaller of its two
    neighbours on the cycle), and three tables of cycle masks, in which
    bit c stands for cycle c:

    - ``before[e][f]``: the cycles that walk edge e before edge f;
    - ``fwd[e]``: the cycles that walk edge e from its lower point;
    - ``rev[e]``: the cycles that walk edge e from its higher point.

    The masks are ints of up to 360 bits; the whole table takes about
    0.07 MB.  ``_cycle_skews`` ANDs them into one mask of cycles per
    pair of crossings and XORs those into one Arf mask.
    """
    edges = list(itertools.combinations(range(7), 2))
    index = {e: k for k, e in enumerate(edges)}
    adjacent = [[bool(set(e) & set(f)) for f in edges] for e in edges]
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
    return edges, adjacent, cycles, before, fwd, rev


def _cycle_skews(pts, seed):
    """The Arf invariants of all Hamiltonian cycles on seven points as
    one mask over ``_k7`` cycle order: bit c is the Arf of cycle c.

    One seeded generic direction gives one crossing table of all 21
    edges.  A pass is (edge, rank along the edge), and the cycles in
    which pass p comes before pass q are ``before[e][f]`` on different
    edges and ``fwd[e]`` or ``rev[e]`` on one edge, as p's rank is below
    or above q's (``crossings`` gives no two passes one rank).  A pair
    of crossings x, y is skew, as in ``arf_casson`` from the cycle's
    first step, in the cycles where over x < under y < under x < over y
    or the same with x and y swapped; each pair's mask is XORed into the
    result, so a bit ends set where the cycle has an odd number of skew
    pairs.
    """
    edges, adjacent, _cycles, before, fwd, rev = _k7()
    segs = [(pts[a], pts[b]) for a, b in edges]
    _, found, over = retry(lambda rng: _shadow(segs, lambda i, j: adjacent[i][j], rng), seed)
    table = [(i, t, j, u) if o == i else (j, u, i, t) for (i, j, t, u, _), o in zip(found, over)]
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
    knotted = _cycle_skews(_check_points(points, 7), seed)
    witness = _k7()[2][(knotted & -knotted).bit_length() - 1] if knotted else None
    return witness, knotted.bit_count() % 2
