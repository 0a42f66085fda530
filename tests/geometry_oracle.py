"""Plane crossings and linked triangles the direct way, for tests only.

``knots.spatial`` writes the four plane determinants of ``_crossing``
out in place, lists crossings only for segments whose bounding boxes
meet and that share no end, and reads the orientations of six or seven
points off one list of signs.  These are the forms it replaced, each
orientation computed where it is used:

- ``crossing_by_orient2d``: ``_crossing`` on four ``_orient2d`` calls;
- ``crossings_by_pairs``: every pair of segments that share no end,
  each crossing ranked along its segments by exact parameters;
- ``linked_by_orient3d``: the linked-triangles count on ``orient3d``
  of the points themselves.
"""

import itertools
from fractions import Fraction

from knots import DegeneracyError
from knots.spatial import _ORIENT2D_BOUND, _exact_params, _orient2d, _overlap, orient3d


def crossing_by_orient2d(p1, p2, q1, q2):
    """``_crossing``: None, ((t, et), (u, eu), turn), or DegeneracyError."""
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
    turn = 1 if b > 0 else -1
    if ea and eb and ec and ed:
        s, r, et, eu = abs(c - d), abs(a - b), ec + ed, ea + eb
        if 4 * et <= s and 4 * eu <= r:
            et, eu = 2 * (et / s + _ORIENT2D_BOUND), 2 * (eu / r + _ORIENT2D_BOUND)
            return (c / (c - d), et), (a / (a - b), eu), turn
    t, u = _exact_params(p1, p2, q1, q2)
    return (float(t), _ORIENT2D_BOUND), (float(u), _ORIENT2D_BOUND), turn


def _exact(p1, p2, q1, q2):
    """The crossing parameters (t, u) of two plane segments in Fractions,
    from the line equations (not from ``knots.spatial``)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = ([Fraction(x) for x in p] for p in (p1, p2, q1, q2))
    det = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    t = ((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx)) / det
    u = ((cx - ax) * (by - ay) - (cy - ay) * (bx - ax)) / det
    return t, u


def crossings_by_pairs(points, edges):
    """``crossings(points, edges)`` over all pairs of segments that share
    no end, in index order: each hit of ``crossing_by_orient2d``, with t
    and u replaced by the rank / (count + 1) of its exact parameter among
    the crossings on that segment.  DegeneracyError as ``crossings``."""
    found = []
    for i, j in itertools.combinations(range(len(edges)), 2):
        if set(edges[i]) & set(edges[j]):
            continue
        ends = [points[k] for k in edges[i] + edges[j]]
        hit = crossing_by_orient2d(*ends)
        if hit is not None:
            found.append([i, j, *_exact(*ends), hit[2]])
    along = {}
    for x, (i, j, t, u, _) in enumerate(found):
        along.setdefault(i, []).append((t, x, 2))
        along.setdefault(j, []).append((u, x, 3))
    for hits in along.values():
        hits.sort()
        if any(s == t for (s, *_), (t, *_) in zip(hits, hits[1:])):
            raise DegeneracyError("two crossings coincide")
        for rank, (_, x, slot) in enumerate(hits, 1):
            found[x][slot] = rank / (len(hits) + 1)
    return [tuple(f) for f in found]


def linked_by_orient3d(pts):
    """``triangles_linked(pts[:3], pts[3:])`` for six points of which no
    four are coplanar, on ``orient3d`` of the points."""
    a, b, c, *t2 = pts
    hits = 0
    for k in range(3):
        p, q = t2[k - 1], t2[k]
        if orient3d(a, b, c, p) != orient3d(a, b, c, q):
            hits += orient3d(p, q, a, b) == orient3d(p, q, b, c) == orient3d(p, q, c, a)
    return hits % 2
