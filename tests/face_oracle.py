"""Faces and genus the slow way, for tests only: the surface map as dicts
of named darts.

``knots.Diagram.faces`` stores darts as integers ``4*crossing + slot``
and turns them by arithmetic on the crossing sign.  This keeps each
dart as a ``(crossing, slot name)`` pair, spells out the rotation at a
crossing as a cyclic order of slot names, builds the edge involution
by pairing the two ends of each arc, and counts faces per piece by
scanning every piece.
"""

from typing import NamedTuple


class Dart(NamedTuple):
    """One of the four strand ends at a crossing.

    ``slot`` is 'ui', 'oi', 'uo' or 'oo': under/over, in/out.
    """

    crossing: int
    slot: str


# Counterclockwise dart slot order around a crossing, by sign.
_ROTATION = {
    1: ("ui", "oo", "uo", "oi"),
    -1: ("ui", "oi", "uo", "oo"),
}


def _dart_edges(d):
    """dart -> (component, position) of the arc containing it.

    Arc (c, k) runs from pass k-1 to pass k, so it contains the out-dart
    of pass k-1 and the in-dart of pass k.
    """
    mapping = {}
    for ci, comp in enumerate(d.components):
        m = len(comp)
        for k, p in enumerate(comp):
            inslot = "ui" if p.role == "U" else "oi"
            outslot = "uo" if p.role == "U" else "oo"
            mapping[Dart(p.crossing, inslot)] = (ci, k)
            mapping[Dart(p.crossing, outslot)] = (ci, (k + 1) % m)
    return mapping


def _alpha(d):
    """Edge involution: each dart to the other end of its arc."""
    ends = {}
    for dart, edge in _dart_edges(d).items():
        ends.setdefault(edge, []).append(dart)
    alpha = {}
    for pair in ends.values():
        a, b = pair  # every arc has exactly two ends
        alpha[a] = b
        alpha[b] = a
    return alpha


def _sigma(d):
    """Rotation: dart to the next dart counterclockwise at its crossing."""
    nxt = {}
    for label, sign in d.signs.items():
        order = _ROTATION[sign]
        for i, slot in enumerate(order):
            nxt[Dart(label, slot)] = Dart(label, order[(i + 1) % 4])
    return nxt


def faces(d):
    """Orbits of dart -> sigma(alpha(dart)), each from its smallest dart."""
    alpha, sigma = _alpha(d), _sigma(d)
    unseen = set(alpha)
    out = []
    for start in sorted(alpha):
        if start not in unseen:
            continue
        orbit = []
        dart = start
        while dart in unseen:
            unseen.discard(dart)
            orbit.append(dart)
            dart = sigma[alpha[dart]]
        out.append(tuple(orbit))
    return tuple(out)


def genus(d):
    """Euler count per piece (V - E + F = 2 - 2g, E = 2V), then a 0 per
    free loop, with each face's piece found by scanning the pieces."""
    count = {piece: 0 for piece in d.pieces}
    for face in faces(d):
        for piece in d.pieces:
            if face[0].crossing in piece:
                count[piece] += 1
                break
    out = []
    for piece in d.pieces:
        twice_genus = 2 + len(piece) - count[piece]
        assert twice_genus % 2 == 0, "odd Euler defect"
        out.append(twice_genus // 2)
    return tuple(out) + (0,) * len(d.free_loops)
