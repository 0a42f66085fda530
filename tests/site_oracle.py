"""The insertion-site table the slow way, for tests only: arcs as ``Edge``
tuples and pieces from a union-find over passes.

``knots.moves`` numbers arcs by integers, keeps each R2+ anchor as its
pair ``(a, b)`` of integer arcs, reads an arc's faces off its two darts,
and finds pieces by merging the crossing sets of components.  This
builds and sorts ``(Edge, Edge)`` pairs of (component, position)
tuples, maps every arc to its faces by scanning all faces, and joins
crossings along every pass of every component in its own union-find;
``SiteTable.number`` gives an Edge's integer arc.  ``r2_keys`` is the
integer R2+ table as one sorted list of anchor pairs, the way
``knots.moves`` built it before it carried per-arc counts.
"""

import itertools
from typing import NamedTuple

from knots import UNDER


class Edge(NamedTuple):
    """The arc arriving at pass ``position`` of ``component``; a free loop
    has the one arc (c, 0)."""

    component: int
    position: int

R2_VARIANTS = tuple(
    f"{rel}:{over}:{s}" for rel in ("par", "anti") for over in ("A", "B") for s in "+-"
)


def pieces(d):
    """Connected pieces as frozensets of crossing labels, by smallest label:
    consecutive passes of a component join their crossings."""
    parent = {c: c for c in d.signs}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for comp in d.components:
        for k in range(len(comp)):
            a, b = find(comp[k - 1].crossing), find(comp[k].crossing)
            if a != b:
                parent[a] = b
    groups = {}
    for c in d.signs:
        groups.setdefault(find(c), set()).add(c)
    return tuple(frozenset(g) for g in sorted(groups.values(), key=min))


def genus(d):
    """Euler count per oracle piece (V - E + F = 2 - 2g, E = 2V), then a
    0 per free loop."""
    found = pieces(d)
    count = [0] * len(found)
    for face in d.faces:
        count[next(i for i, p in enumerate(found) if face[0] >> 2 in p)] += 1
    out = tuple((2 + len(p) - f) // 2 for p, f in zip(found, count))
    return out + (0,) * len(d.free_loops)


class SiteTable:
    """The R1+ and R2+ anchors of one diagram and the R2+ variants."""

    def __init__(self, d):
        self.d = d
        found = pieces(d)
        self.piece = {}  # Edge -> ("piece", index) or ("loop", component)
        self.edge_of = {}  # integer dart -> Edge
        for ci, comp in enumerate(d.components):
            if not comp:
                self.piece[Edge(ci, 0)] = ("loop", ci)
            ins = [4 * p.crossing + (2 if p.role == UNDER else 0) for p in comp]
            for k, dart in enumerate(ins):
                # Arc (c, k) holds the out-dart of pass k-1 and the in-dart of pass k.
                edge = self.edge_of[dart] = self.edge_of[ins[k - 1] + 1] = Edge(ci, k)
                index = next(i for i, p in enumerate(found) if comp[k].crossing in p)
                self.piece[edge] = ("piece", index)
        self.faces_of = {}  # Edge -> [(face index, whether its dart is an out-dart)]
        for i, face in enumerate(d.faces):
            for dart in face:
                self.faces_of.setdefault(self.edge_of[dart], []).append((i, bool(dart & 1)))

    def number(self, edge):
        """The integer arc of ``edge``: the arcs of earlier components
        (one for a free loop) come first."""
        earlier = self.d.components[: edge.component]
        return sum(max(len(comp), 1) for comp in earlier) + edge.position

    def r1_anchors(self):
        """Real arcs, component by component, then the free-loop pseudo-arcs."""
        real = [(e,) for e in self.piece if self.piece[e][0] == "piece"]
        return sorted(real) + [(e,) for e in sorted(self.piece) if self.piece[e][0] == "loop"]

    def r2_pairs(self):
        """Sorted (Edge, Edge) pairs: distinct arcs on a common face, and
        every pair of arcs from different pieces."""
        pairs = set()
        for face in self.d.faces:
            pairs.update(itertools.combinations(sorted({self.edge_of[x] for x in face}), 2))
        by_piece = {}
        for edge in sorted(self.piece):
            by_piece.setdefault(self.piece[edge], []).append(edge)
        groups = list(by_piece.values())
        for i, group in enumerate(groups):
            for other in groups[i + 1 :]:
                pairs.update(tuple(sorted(p)) for p in itertools.product(group, other))
        return sorted(pairs)

    def r2_variants(self, a, b):
        """The planar R2+ variants at Edges ``a`` and ``b``: all eight
        across pieces, else two per face both arcs bound."""
        if self.piece[a] != self.piece[b]:
            return R2_VARIANTS
        ok = set()
        for face_a, fwd_a in self.faces_of[a]:
            for face_b, fwd_b in self.faces_of[b]:
                if face_a == face_b:
                    rel = "anti" if fwd_a == fwd_b else "par"
                    ok.add(f"{rel}:A:{'+-'[fwd_b]}")
                    ok.add(f"{rel}:B:{'-+'[fwd_b]}")
        return tuple(v for v in R2_VARIANTS if v in ok)


def r2_keys(d):
    """Sorted anchor pairs ``(a, b)`` (integer arcs a < b) eligible for an
    R2 poke, as one list: every pair of distinct arcs on each face, and
    every pair of arcs from different pieces.  ``knots.moves`` finds the
    same pairs row by row from carried per-arc counts."""
    arc, base = d._darts[0], d._arc_base
    keys = set()
    for face in d.faces:
        arcs = sorted({arc[dart] for dart in face})
        keys.update(itertools.combinations(arcs, 2))
    by_piece = {}
    for ci, piece in enumerate(d._pieces[1]):
        by_piece.setdefault(piece, []).extend(range(base[ci], base[ci + 1]))
    groups = list(by_piece.values())
    for i, group in enumerate(groups):
        for other in groups[i + 1 :]:
            keys.update((min(a, b), max(a, b)) for a in group for b in other)
    return sorted(keys)
