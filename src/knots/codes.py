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

The map is stored in integers.  The four strand ends (darts) of crossing
c are ``4*c + slot``, with slot 0 over-in, 1 over-out, 2 under-in and
3 under-out: bit 1 is the role (under), bit 0 the direction (out).  The
rotation (sigma) takes a dart to the next one counterclockwise at its
crossing, by sign:

    sign +1:  under-in, over-out, under-out, over-in
    sign -1:  under-in, over-in,  under-out, over-out

The edge involution (alpha) takes a dart to the other end of its arc.
Arcs are integers too: component c owns ``max(len, 1)`` consecutive
numbers, the k-th for the arc arriving at its pass k (a free loop owns
one arc without darts), so arc order is (component, position) order.
Faces are the orbits of dart -> sigma(alpha(dart)), the usual
permutation model; with V crossings, E = 2V edge arcs and F faces,
each connected piece has genus (2 - V + E - F) / 2.

Every public function that takes a diagram checks it first with
``diagram_arg``, which also refuses a piece of genus > 0 where a plane
diagram is needed (the Conway polynomial, the Reidemeister moves).

Full validation runs only on parsed or hand-built codes.  Edits of a
valid code are trusted, since they keep it valid: a Reidemeister move's
result is not checked and traced from scratch (``Diagram._child`` copies
the parent's maps and patches them where the move acts), and a crossing
change (``crossing_change``, ``mirror``) copies the passes and signs
with the changed crossings flipped.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import ConsistencyError, DomainError, NonPlanarError, ParseError, UnknownCrossingError

OVER = "O"
UNDER = "U"


class Pass(NamedTuple):
    """One traversal of a crossing by a strand."""

    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1, duplicated on both passes of the crossing


_TOKEN = re.compile(r"([OU])([1-9][0-9]*)([+-])\Z")

# sign -> slot -> the next slot counterclockwise (see the module docstring).
_TURN = {1: (2, 3, 1, 0), -1: (3, 2, 0, 1)}


def _least_first(face):
    """``face`` rotated to start at its smallest dart."""
    i = face.index(min(face))
    return face[i:] + face[:i]


def _trace(alpha, signs, darts, by_key, face_of):
    """Trace the face through each of ``darts`` that ``face_of`` lacks.

    Each orbit of dart -> sigma(alpha(dart)) goes into ``by_key`` under
    the dart it was traced from, and each of its darts into ``face_of``.
    Returns the new keys.
    """
    keys, turn = [], _TURN
    for start in darts:
        if start in face_of:
            continue
        orbit, d = [], start
        while d not in face_of:
            face_of[d] = start
            orbit.append(d)
            e = alpha[d]
            d = e - (e & 3) + turn[signs[e >> 2]][e & 3]
        by_key[start] = tuple(orbit)
        keys.append(start)
    return keys


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


def to_text(obj: Diagram) -> str:
    """Serialize a Diagram back to the token text form."""
    return " ; ".join(
        " ".join(f"{p.role}{p.crossing}{'+' if p.sign > 0 else '-'}" for p in comp) or "()"
        for comp in diagram_arg(obj).components
    )


class Diagram:
    """An immutable combinatorial link diagram.

    Attributes:
        components: tuple of components, each a tuple of Pass entries in
            traversal order (cyclic; the starting pass is where walks
            begin, and rotating it gives the same link).
        signs: crossing label -> +1/-1.
        locate: crossing label -> {role: (component, position)}; the
            result of a move or a crossing change finds it when first
            read.

    Raises:
        ConsistencyError: unless there is at least one component, each a
            sequence of (crossing, role, sign) passes, and every crossing
            has a positive integer label (not a bool: the text form could
            not read either back), one OVER and one UNDER pass, and the
            same sign +1 or -1 on both.  A faulty pass is reported first;
            then, in order of first appearance, a crossing missing a pass
            or with unequal signs.
    """

    def __init__(self, components: Iterable[Sequence[Pass]]):
        try:
            self.components = comps = tuple(tuple(c) for c in components)
        except TypeError:
            raise ConsistencyError(f"{components!r} is not a sequence of components") from None
        if not comps:
            raise ConsistencyError("a diagram needs at least one component")
        self.signs, self.locate = signs, locate = {}, {}
        try:  # unpacking a pass that is not a triple raises TypeError or ValueError
            for ci, comp in enumerate(comps):
                for k, (c, role, sign) in enumerate(comp):
                    if isinstance(c, bool) or not isinstance(c, int):
                        raise ConsistencyError(f"crossing label {c!r} is not an integer")
                    if c < 1:
                        raise ConsistencyError(f"crossing label {c} is not positive")
                    if role not in (OVER, UNDER):
                        raise ConsistencyError(f"bad role {role!r} at crossing {c}")
                    if sign not in (1, -1):
                        raise ConsistencyError(f"bad sign {sign!r} at crossing {c}")
                    where = locate.setdefault(c, {})
                    if role in where:
                        raise ConsistencyError(f"crossing {c} passed twice with role {role}")
                    where[role] = (ci, k)
        except (TypeError, ValueError):
            raise ConsistencyError(
                f"pass {k} of component {ci} is not a (crossing, role, sign) triple"
            ) from None
        for c, where in locate.items():
            if len(where) == 1:
                missing = UNDER if OVER in where else OVER
                raise ConsistencyError(f"crossing {c} has no {missing} pass")
            (ci, k), (cj, j) = where.values()
            if comps[ci][k].sign != comps[cj][j].sign:
                raise ConsistencyError(f"crossing {c} has inconsistent signs")
            signs[c] = comps[ci][k].sign

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
    def locate(self):
        # ``__init__`` sets it while checking.  A move's or a crossing
        # change's result finds it here when first read: a walk never
        # reads it, and patching it would move every later pass of the
        # component.
        locate = {}
        for ci, comp in enumerate(self.components):
            for k, (c, role, _) in enumerate(comp):
                locate.setdefault(c, {})[role] = (ci, k)
        return locate

    @cached_property
    def free_loops(self):
        """Indices of components with no passes."""
        return tuple(i for i, c in enumerate(self.components) if not c)

    # ------------------------------------------------------------------
    # Surface map: integer darts, rotation, edge involution, faces, genus.

    @cached_property
    def _arc_base(self):
        """Component -> index of its first arc, then the number of arcs.

        Component c owns the integer arcs ``base[c]`` to ``base[c+1] - 1``,
        ``max(len, 1)`` of them: arc ``base[c] + k`` arrives at pass k,
        and a free loop owns one arc without darts.
        """
        base = [0]
        for comp in self.components:
            base.append(base[-1] + max(len(comp), 1))
        return tuple(base)

    @cached_property
    def _darts(self):
        """(dart -> arc, alpha: dart -> other end of its arc, arc -> in-dart).

        The arc arriving at pass k runs from pass k-1, so it holds the
        out-dart of pass k-1 and the in-dart of pass k.  A free loop's
        arc has no in-dart (None).
        """
        arc, alpha, head = {}, {}, []
        for comp in self.components:
            ins = [4 * p.crossing + (2 if p.role == UNDER else 0) for p in comp]
            for k, d in enumerate(ins):
                out = ins[k - 1] + 1
                arc[d] = arc[out] = len(head)
                alpha[d], alpha[out] = out, d
                head.append(d)
            if not comp:
                head.append(None)
        return arc, alpha, head

    @cached_property
    def _faces(self):
        """(face key -> face, dart -> key of its face).  A face is keyed by
        one of its darts, where its orbit starts: the smallest when traced
        here, the first changed one when a move traced it again; a move's
        result keeps the keys of the faces the move leaves alone (see
        ``_child``)."""
        by_key, face_of = {}, {}
        alpha = self._darts[1]
        _trace(alpha, self.signs, sorted(alpha), by_key, face_of)
        return by_key, face_of

    @cached_property
    def _unit_reduction(self):
        """The coloring matrix after the kernel's unit steps on its +-1
        entries, which every prime shares (``colorings.unit_reduction``);
        a move's result reduces its own."""
        from .colorings import unit_reduction  # colorings imports this module

        return unit_reduction(self)

    @cached_property
    def faces(self):
        """Faces of the surface map as tuples of integer darts.

        Each face is an orbit of dart -> sigma(alpha(dart)) and starts at
        its smallest dart; faces come in order of that dart, and a dart
        appears in exactly one face.  Free loops contribute no darts.
        """
        return tuple(sorted(map(_least_first, self._faces[0].values())))

    @cached_property
    def _partner_counts(self):
        """Arc -> how many arcs b > a share a face with it (0 for a free
        loop's arc): the row lengths of the R2+ table within a piece (see
        ``moves``).

        A move's result carries ``_stale_counts`` (see ``_child``): the
        counts of an earlier diagram of the walk, renumbered, and the darts
        of every face traced since, so whole faces; only their arcs are
        counted here.  Arc a on faces f and g has the arcs b > a of f and
        those of g, less those on both, which lie on the counted faces too.
        """
        arc, alpha, head = self._darts
        by_key, face_of = self._faces
        counts, darts = self.__dict__.pop("_stale_counts", None) or ([0] * len(head), alpha)
        sides, shared, arcs = [], {}, {}
        for a in sorted({arc[x] for x in darts if x in arc}):
            f, g = face_of[head[a]], face_of[alpha[head[a]]]
            if f > g:
                f, g = g, f
            sides.append((a, f, g))
            if f != g:
                shared.setdefault((f, g), []).append(a)  # in order of a
        for key in {key for _, f, g in sides for key in (f, g)}:
            arcs[key] = sorted({arc[x] for x in by_key[key]})
        for a, f, g in sides:
            n = len(arcs[f]) - bisect_right(arcs[f], a)
            if f != g:
                both = shared[f, g]
                n += len(arcs[g]) - bisect_right(arcs[g], a) - len(both) + bisect_right(both, a)
            counts[a] = n
        return counts

    def _partners(self, a):
        """The set of arcs b > a sharing a face with arc ``a``."""
        arc, alpha, head = self._darts
        by_key, face_of = self._faces
        if head[a] is None:
            return set()
        darts = by_key[face_of[head[a]]] + by_key[face_of[alpha[head[a]]]]
        return {b for b in map(arc.__getitem__, darts) if b > a}

    @cached_property
    def _pieces(self):
        """(pieces, component -> index of its piece).

        A component's crossings all lie in one piece, so each component's
        crossing set is merged with every group found so far that it
        meets; the groups, ordered by smallest label, are the pieces.
        Free loops are numbered after them, in component order.  A move's
        result finds them here too, when first read (see ``_child``).
        """
        groups = []  # disjoint crossing sets
        for comp in filter(None, self.components):
            merged, apart = {c for c, _, _ in comp}, []
            for group in groups:
                if merged.isdisjoint(group):
                    apart.append(group)
                else:
                    merged |= group
            groups = apart + [merged]
        pieces = tuple(map(frozenset, sorted(groups, key=min)))
        loops = iter(range(len(pieces), self.n_components))
        return pieces, tuple(
            next(i for i, p in enumerate(pieces) if comp[0].crossing in p) if comp else next(loops)
            for comp in self.components
        )

    @cached_property
    def _genus(self):
        """Genus of each piece, then a 0 per free loop (see ``genus``)."""
        pieces, piece_of = self._pieces
        locate = self.locate
        face_count = [0] * len(pieces)
        for key in self._faces[0]:
            face_count[piece_of[locate[key >> 2][OVER][0]]] += 1
        out = []
        for piece, f in zip(pieces, face_count):
            # Euler: V - E + F = 2 - 2g with E = 2V.
            twice_genus = 2 + len(piece) - f
            if twice_genus % 2:
                raise AssertionError("odd Euler defect; face trace broken")
            out.append(twice_genus // 2)
        out.extend(0 for _ in self.free_loops)
        return tuple(out)

    @property
    def pieces(self):
        """Connected pieces as frozensets of crossing labels.

        Ordered by smallest crossing label.  Free loops are separate
        pieces but, carrying no crossings, are not listed here.
        """
        return self._pieces[0]

    def _child(self, edits):
        """The diagram with ``component[start:stop]`` replaced by
        ``passes`` for each ``(component, start, stop, passes)`` of
        ``edits``: disjoint ranges at positions of this diagram, and
        tuples of passes.  The edits insert the passes of new crossings,
        remove both passes of some crossings, or swap passes.

        Reidemeister moves build their results here.  A move keeps a valid
        code valid, so nothing is checked; the child copies this diagram's
        maps and patches them where the move acts.  The arcs arriving at a
        changed position get their new ends, later arcs are renumbered,
        and only the faces through a dart whose alpha changed are traced
        again; the other faces keep their darts and keys.  The child always
        carries stale partner counts, with the darts of the new faces to
        count again (see ``_partner_counts``): this diagram's counts, fresh
        or stale with their own pending darts, or zeros with every dart
        pending when it has none.  Insertions and removals renumber arcs
        in order, so every other count stays right.  Pieces and
        ``locate`` are not carried: the child finds them when first read.
        The child holds no reference to this diagram.
        """
        comps, base = list(self.components), self._arc_base
        arc, alpha, head = self._darts
        arc, alpha, head = arc.copy(), alpha.copy(), head.copy()
        # Counts go on stale, with the darts to count again.
        if "_partner_counts" in self.__dict__:
            counts, pending = self._partner_counts, ()
        else:
            counts, pending = self.__dict__.get("_stale_counts") or ([0] * len(head), alpha)
        counts, pending = counts.copy(), set(pending)

        # Splice the passes, their in-darts and zero counts into place,
        # component by component and in order, and join the two ends of
        # each arc arriving at a changed position.
        old, new, dirty = [], [], []
        first, shift, resized = len(head), 0, False  # shift: arcs gained before
        for ci, group in groupby(sorted(edits), itemgetter(0)):
            comp, b = comps[ci], base[ci] + shift
            now, joints = list(comp), []
            for _, start, stop, passes in group:
                q = start + len(now) - len(comp)
                now[q : q + stop - start] = passes
                head[b + q : b + q + stop - start] = [
                    4 * c + (2 if role == UNDER else 0) for c, role, _ in passes
                ]
                counts[b + q : b + q + stop - start] = [0] * len(passes)
                old += comp[start:stop]
                new += passes
                joints += range(q, q + len(passes) + 1)
            comps[ci] = now = tuple(now)
            m = len(now)
            if not comp:  # a free loop's one arc gives way to the new ones
                del head[b + m]
                del counts[b + m]
            elif not m:  # a component losing all passes keeps one arc
                head.insert(b, None)
                counts.insert(b, 0)
            for j in joints if m else ():
                a = b + j % m
                i, o = head[a], head[b + (j - 1) % m] + 1
                alpha[i], alpha[o] = o, i
                arc[i] = arc[o] = a
                dirty += (i, o)
            first = min(first, b + joints[0] if m and joints[-1] < m else b)
            gain = (m or 1) - (len(comp) or 1)
            shift, resized = shift + gain, resized or gain != 0
        gone = {p.crossing for p in old} if not new else set()

        child = Diagram.__new__(Diagram)
        child.components = comps = tuple(comps)
        child._arc_base = base
        if resized:
            child._arc_base = tuple(accumulate((len(c) or 1 for c in comps), initial=0))
        child.signs = signs = self.signs
        if gone or not old:  # a removal or an insertion
            child.signs = signs = signs.copy()
            deque(map(signs.pop, gone), 0)
            signs.update((p.crossing, p.sign) for p in new)

        # Drop the darts of removed crossings and, when arcs came or went,
        # renumber every arc from the first changed one.
        by_key, face_of = self._faces
        removed = [x for c in gone for x in range(4 * c, 4 * c + 4)]
        dead = set(map(face_of.__getitem__, removed))
        deque(map(arc.pop, removed), 0)
        deque(map(alpha.pop, removed), 0)
        if resized:
            tail, numbers = head[first:], range(first, len(head))
            arc.update(zip(tail, numbers))
            arc.update(zip(map(alpha.get, tail), numbers))
            arc.pop(None, None)  # free loops: no darts
        child._darts = arc, alpha, head

        dirty = set(dirty)
        dead.update(map(face_of.get, dirty))
        dead.discard(None)
        by_key, face_of = by_key.copy(), face_of.copy()
        for key in dead:
            deque(map(face_of.pop, by_key.pop(key)), 0)
        keys = _trace(alpha, signs, sorted(dirty), by_key, face_of)
        child._faces = by_key, face_of
        for key in keys:
            pending.update(by_key[key])
        child._stale_counts = counts, pending
        return child


def diagram_arg(d, planar: bool = False) -> Diagram:
    """``d``, once checked: DomainError naming it unless it is a
    ``Diagram``; with ``planar``, NonPlanarError naming the first piece of
    genus > 0 (in ``pieces`` order) by its smallest label, and the genus."""
    if not isinstance(d, Diagram):
        raise DomainError(f"d must be a Diagram, got {d!r}")
    if planar and any(d._genus):
        piece, g = next((piece, g) for piece, g in zip(d.pieces, d._genus) if g)
        raise NonPlanarError(f"the piece of crossing {min(piece)} has genus {g}")
    return d


def genus(diagram: Diagram) -> tuple:
    """Genus of each connected piece of the diagram's surface.

    One entry per piece with crossings (ordered by smallest label), then
    one 0 per free loop.  A code is drawable in the plane exactly when
    all entries are 0.  The diagram caches it: the faces are counted
    once per diagram, whoever asks.
    """
    return diagram_arg(diagram)._genus


def is_realizable(diagram: Diagram) -> bool:
    """Whether every connected piece has genus zero."""
    return not any(genus(diagram))


def crossing_change(diagram: Diagram, *crossings) -> Diagram:
    """Exchange over and under at each of ``crossings`` (and so flip
    their signs).  A label that is not an ``int`` names no crossing,
    though ``True`` or ``1.0`` equals 1.

    A crossing change keeps a valid code valid, so the result is a
    trusted edit, not checked again: the two passes of each changed
    crossing are replaced where ``locate`` puts them, and the signs are
    copied in order of first appearance with those entries negated.
    """
    old, locate = diagram_arg(diagram).signs, diagram.locate
    for c in crossings:
        if isinstance(c, bool) or not isinstance(c, int) or c not in old:
            raise UnknownCrossingError(f"no crossing {c!r}")
    comps, signs = list(map(list, diagram.components)), {c: old[c] for c in locate}
    for c in set(crossings):
        signs[c] = sign = -old[c]
        (oi, ok), (ui, uk) = locate[c][OVER], locate[c][UNDER]
        comps[oi][ok], comps[ui][uk] = Pass(c, UNDER, sign), Pass(c, OVER, sign)
    child = Diagram.__new__(Diagram)
    child.components, child.signs = tuple(map(tuple, comps)), signs
    return child


def mirror(diagram: Diagram) -> Diagram:
    """Reflect the diagram: a crossing change at every crossing."""
    return crossing_change(diagram, *diagram_arg(diagram).signs)


def reverse_all(diagram: Diagram) -> Diagram:
    """Reverse the orientation of every component. Signs are unchanged."""
    return Diagram(tuple(tuple(reversed(comp)) for comp in diagram_arg(diagram).components))


def reverse_component(diagram: Diagram, index: int) -> Diagram:
    """Reverse one component's orientation.

    Crossings between the reversed component and the rest change sign;
    self-crossings of the reversed component and crossings not involving
    it keep theirs.
    """
    # ``type``, not ``isinstance``: True would read as 1.
    if type(index) is not int or not 0 <= index < diagram_arg(diagram).n_components:
        raise DomainError(f"no component {index!r}")
    flips = {
        c
        for c, where in diagram.locate.items()
        if (where[OVER][0] == index) != (where[UNDER][0] == index)
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
    ints = isinstance(order, Sequence) and all(
        isinstance(i, int) and not isinstance(i, bool) for i in order
    )
    if not ints or sorted(order) != list(range(diagram_arg(diagram).n_components)):
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
    for comp in diagram_arg(diagram).components:
        for p in comp:
            relabel.setdefault(p.crossing, len(relabel) + 1)
    comps = [[Pass(relabel[p.crossing], p.role, p.sign) for p in c] for c in diagram.components]
    return to_text(Diagram(comps))
