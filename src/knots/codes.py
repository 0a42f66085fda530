"""Signed oriented Gauss codes and the combinatorial diagram model.

A link diagram is stored purely combinatorially: each component is a
cyclic sequence of passes through crossings, every pass labelled over or
under, and every crossing carries a sign.  The sign is +1 exactly when
the determinant det(over_direction, under_direction) at the crossing is
positive, i.e. the over strand points counterclockwise from the under
strand.

The text form is a sequence of tokens like ``O1+`` / ``U3-`` (role,
crossing label, sign), components separated by ``;``, and ``()`` for a
crossing-free component (a free loop):

    O1+ U2+ O3+ U1+ O2+ U3+        right trefoil
    O1+ U2+ ; O2+ U1+              positive Hopf link
    () ; ()                        trivial two-component link

Not every such code describes a diagram drawable in the plane.  Each
crossing is given a rotation (the counterclockwise order of its four
strand ends), which turns the code into a surface map; ``genus`` reports
the genus of each connected piece of that surface, and the code is
realizable by a plane diagram exactly when every piece has genus zero.

Rotation convention at a crossing, counterclockwise:

    sign +1:  under-in, over-out, under-out, over-in
    sign -1:  under-in, over-in,  under-out, over-out

Faces of the map are orbits of (rotate after flip-to-other-end), the
usual permutation trick; with V crossings, E = 2V edge arcs and F faces,
each connected piece has genus (2 - V + E - F) / 2.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, DomainError, ParseError, UnknownCrossingError

OVER = "O"
UNDER = "U"


class Pass(NamedTuple):
    """One traversal of a crossing by a strand."""

    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1, duplicated on both passes of the crossing


class Dart(NamedTuple):
    """One of the four strand ends at a crossing.

    ``slot`` is 'ui', 'oi', 'uo' or 'oo': under/over, in/out.
    """

    crossing: int
    slot: str


class Edge(NamedTuple):
    """The diagram arc arriving at pass ``position`` of ``component``.

    It leaves the previous pass (position - 1, cyclically) of the same
    component.  A component with m passes contributes edges (c, 0) to
    (c, m - 1); free loops contribute none.
    """

    component: int
    position: int


class Basepoint(NamedTuple):
    """A starting edge for traversals: begin with pass ``position``."""

    component: int
    position: int


_TOKEN = re.compile(r"([OU])([1-9][0-9]*)([+-])\Z")

# Counterclockwise dart slot order around a crossing, by sign.
_ROTATION = {
    1: ("ui", "oo", "uo", "oi"),
    -1: ("ui", "oi", "uo", "oo"),
}


def _validate_components(components):
    """Check the two-passes/opposite-roles/equal-signs rules.

    Returns the crossing sign map.  Raises ConsistencyError otherwise.
    """
    seen = {}  # crossing -> {role: sign}
    for comp in components:
        for p in comp:
            if p.role not in (OVER, UNDER):
                raise ConsistencyError(f"bad role {p.role!r} at crossing {p.crossing}")
            if p.sign not in (1, -1):
                raise ConsistencyError(f"bad sign {p.sign!r} at crossing {p.crossing}")
            roles = seen.setdefault(p.crossing, {})
            if p.role in roles:
                raise ConsistencyError(
                    f"crossing {p.crossing} passed twice with role {p.role}"
                )
            roles[p.role] = p.sign
    signs = {}
    for label, roles in seen.items():
        if set(roles) != {OVER, UNDER}:
            missing = UNDER if OVER in roles else OVER
            raise ConsistencyError(f"crossing {label} has no {missing} pass")
        if roles[OVER] != roles[UNDER]:
            raise ConsistencyError(f"crossing {label} has inconsistent signs")
        signs[label] = roles[OVER]
    return signs


def from_text(text: str) -> Diagram:
    """Parse the text form of a signed oriented Gauss code.

    Args:
        text: tokens like ``O1+``/``U2-`` separated by whitespace,
            components separated by ``;``, ``()`` for a free loop.

    Returns:
        The validated Diagram.

    Raises:
        ParseError: on malformed tokens or structure.
        ConsistencyError: if tokens are fine but the code is invalid
            (odd pass counts, repeated roles, sign mismatches).
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    if not text.strip():
        raise ParseError("empty code text")
    components = []
    for chunk in text.split(";"):
        tokens = chunk.split()
        if not tokens:
            raise ParseError("empty component (use '()' for a free loop)")
        if tokens == ["()"]:
            components.append(())
            continue
        passes = []
        for tok in tokens:
            m = _TOKEN.match(tok)
            if not m:
                raise ParseError(f"bad token {tok!r}")
            role, label, sign = m.group(1), int(m.group(2)), m.group(3)
            passes.append(Pass(label, role, 1 if sign == "+" else -1))
        components.append(tuple(passes))
    return Diagram(components)


def to_text(obj) -> str:
    """Serialize a Diagram back to the token text form."""
    return " ; ".join(
        " ".join(f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}" for p in comp) or "()"
        for comp in obj.components
    )


class Diagram:
    """An immutable combinatorial link diagram.

    Attributes:
        components: tuple of components, each a tuple of Pass entries in
            traversal order (cyclic; the starting pass is remembered but
            carries no meaning beyond serialization and basepoints).
        signs: crossing label -> +1/-1.
    """

    def __init__(self, components: Iterable[Sequence[Pass]]):
        self.components = tuple(tuple(c) for c in components)
        self.signs = _validate_components(self.components)

    # Diagrams are equal when their pass structure is literally equal.
    def __eq__(self, other):
        return isinstance(other, Diagram) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Diagram({to_text(self)!r})"

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def free_loops(self):
        """Indices of components with no passes."""
        return tuple(i for i, c in enumerate(self.components) if not c)

    @cached_property
    def edges(self):
        """All diagram arcs, component by component."""
        out = []
        for ci, comp in enumerate(self.components):
            out.extend(Edge(ci, k) for k in range(len(comp)))
        return tuple(out)

    def pass_at(self, component: int, position: int) -> Pass:
        comp = self.components[component]
        return comp[position % len(comp)]

    @cached_property
    def locate(self):
        """crossing label -> {role: (component, position)}."""
        where = {}
        for ci, comp in enumerate(self.components):
            for k, p in enumerate(comp):
                where.setdefault(p.crossing, {})[p.role] = (ci, k)
        return where

    def component_of(self, crossing: int, role: str) -> int:
        try:
            return self.locate[crossing][role][0]
        except KeyError:
            raise UnknownCrossingError(f"no crossing {crossing!r}") from None

    # ------------------------------------------------------------------
    # Surface map: darts, rotation, edge involution, faces, genus.

    @cached_property
    def _dart_edges(self):
        """dart -> Edge containing it.

        Edge (c, k) runs from pass k-1 to pass k, so it contains the
        out-dart of pass k-1 and the in-dart of pass k.
        """
        mapping = {}
        for ci, comp in enumerate(self.components):
            m = len(comp)
            for k, p in enumerate(comp):
                inslot = "ui" if p.role == UNDER else "oi"
                outslot = "uo" if p.role == UNDER else "oo"
                mapping[Dart(p.crossing, inslot)] = Edge(ci, k)
                mapping[Dart(p.crossing, outslot)] = Edge(ci, (k + 1) % m)
        return mapping

    @cached_property
    def _alpha(self):
        """Edge involution: each dart to the other end of its arc."""
        ends = {}
        for dart, edge in self._dart_edges.items():
            ends.setdefault(edge, []).append(dart)
        alpha = {}
        for pair in ends.values():
            a, b = pair  # every arc has exactly two ends
            alpha[a] = b
            alpha[b] = a
        return alpha

    @cached_property
    def _sigma(self):
        """Rotation: dart to the next dart counterclockwise at its crossing."""
        nxt = {}
        for label, sign in self.signs.items():
            order = _ROTATION[sign]
            for i, slot in enumerate(order):
                nxt[Dart(label, slot)] = Dart(label, order[(i + 1) % 4])
        return nxt

    @cached_property
    def faces(self):
        """Faces of the surface map as tuples of darts.

        Each face is an orbit of dart -> sigma(alpha(dart)); a dart
        appears in exactly one face.  Free loops contribute no darts.
        """
        alpha, sigma = self._alpha, self._sigma
        unseen = set(alpha)
        out = []
        for start in sorted(alpha):
            if start not in unseen:
                continue
            orbit = []
            d = start
            while d in unseen:
                unseen.discard(d)
                orbit.append(d)
                d = sigma[alpha[d]]
            out.append(tuple(orbit))
        return tuple(out)

    def face_edges(self, face) -> tuple:
        """The arcs along a face, one per dart in face order."""
        return tuple(self._dart_edges[d] for d in face)

    @cached_property
    def _arc_faces(self):
        """Arc -> [(face index, whether the face runs along the arc)].

        The face's dart on the arc is an out-dart exactly when its
        boundary follows the arc's orientation.  An arc lies on two
        faces, or twice on one.
        """
        out = {}
        for i, face in enumerate(self.faces):
            for dart in face:
                out.setdefault(self._dart_edges[dart], []).append((i, dart.slot[1] == "o"))
        return out

    @cached_property
    def pieces(self):
        """Connected pieces as frozensets of crossing labels.

        Ordered by smallest crossing label.  Free loops are separate
        pieces but, carrying no crossings, are not listed here.
        """
        parent = {c: c for c in self.signs}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for comp in self.components:
            for k in range(len(comp)):
                a = find(comp[k - 1].crossing)
                b = find(comp[k].crossing)
                if a != b:
                    parent[a] = b
        groups = {}
        for c in self.signs:
            groups.setdefault(find(c), set()).add(c)
        return tuple(
            frozenset(g) for g in sorted(groups.values(), key=min)
        )


def genus(diagram: Diagram) -> tuple:
    """Genus of each connected piece of the diagram's surface.

    One entry per piece with crossings (ordered by smallest label), then
    one 0 per free loop.  A code is drawable in the plane exactly when
    all entries are 0.
    """
    piece_face_count = {piece: 0 for piece in diagram.pieces}
    for face in diagram.faces:
        rep = next(iter(face)).crossing
        for piece in diagram.pieces:
            if rep in piece:
                piece_face_count[piece] += 1
                break
    out = []
    for piece in diagram.pieces:
        v = len(piece)
        f = piece_face_count[piece]
        # Euler: V - E + F = 2 - 2g with E = 2V.
        twice_genus = 2 + v - f
        if twice_genus % 2:
            raise AssertionError("odd Euler defect; face trace broken")
        out.append(twice_genus // 2)
    out.extend(0 for _ in diagram.free_loops)
    return tuple(out)


def is_realizable(diagram: Diagram) -> bool:
    """Whether every connected piece has genus zero."""
    return all(g == 0 for g in genus(diagram))


def mirror(diagram: Diagram) -> Diagram:
    """Reflect the diagram: swap over/under everywhere, flip all signs."""
    flip = {OVER: UNDER, UNDER: OVER}
    return Diagram(
        tuple(
            tuple(Pass(p.crossing, flip[p.role], -p.sign) for p in comp)
            for comp in diagram.components
        )
    )


def reverse_all(diagram: Diagram) -> Diagram:
    """Reverse the orientation of every component. Signs are unchanged."""
    return Diagram(tuple(tuple(reversed(comp)) for comp in diagram.components))


def reverse_component(diagram: Diagram, index: int) -> Diagram:
    """Reverse one component's orientation.

    Crossings between the reversed component and the rest change sign;
    self-crossings of the reversed component and crossings not involving
    it keep theirs.
    """
    if not 0 <= index < diagram.n_components:
        raise DomainError(f"no component {index}")
    comp_of = {}
    for ci, comp in enumerate(diagram.components):
        for p in comp:
            comp_of.setdefault(p.crossing, []).append(ci)
    flips = {
        c for c, comps in comp_of.items() if comps.count(index) == 1
    }
    newcomps = []
    for ci, comp in enumerate(diagram.components):
        passes = tuple(reversed(comp)) if ci == index else comp
        newcomps.append(
            tuple(
                Pass(p.crossing, p.role, -p.sign if p.crossing in flips else p.sign)
                for p in passes
            )
        )
    return Diagram(newcomps)


def permute_components(diagram: Diagram, order: Sequence[int]) -> Diagram:
    """Reorder components; ``order[i]`` is the old index of new slot i."""
    if sorted(order) != list(range(diagram.n_components)):
        raise DomainError(f"bad permutation {order!r}")
    return Diagram(tuple(diagram.components[i] for i in order))


def canonical_key(diagram: Diagram) -> str:
    """A cheap canonical form: stable under crossing relabelling only.

    Component order and starting passes are kept as-is; crossing labels
    are rewritten 1..n in order of first appearance.  Two diagrams with
    equal keys differ only by crossing labels, so any invariant may be
    cached on this key.
    """
    relabel = {}
    for comp in diagram.components:
        for p in comp:
            relabel.setdefault(p.crossing, len(relabel) + 1)
    comps = [[Pass(relabel[p.crossing], p.role, p.sign) for p in c] for c in diagram.components]
    return to_text(Diagram(comps))
