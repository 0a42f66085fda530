"""Diagram surgery: Reidemeister moves, smoothing, connected sum,
disjoint union, and random move walks.

Move detection works on the face structure of the combinatorial map:

* a face with one dart is a curl, removable by R1;
* a face with two darts at two crossings, whose one boundary arc is
  overcrossing at both ends and the other undercrossing at both ends,
  is a bigon removable by R2 (the two signs are then opposite);
* a face with three darts at three crossings is an R3 triangle when the
  three strands along its sides are totally ordered by the over/under
  relations at the corners (top strand over both others, bottom strand
  under both).  No strand runs straight through a corner: the rotation
  alternates roles.

Insertion moves are parameterized: every arc admits four R1 curls
(role order x sign), and an R2 poke pushes one arc across another
inside a face both bound, or across arcs of different connected pieces.
Which pokes stay planar is read off the shared face: whether the face
runs along each arc or against it fixes the relative direction of the
two strands and, for each choice of top strand, the sign of the first
new crossing (two variants per shared face; all eight across pieces).
Applying R3 swaps the two adjacent passes across each of the three
side arcs; the three crossings keep their signs.

``enumerate_sites``, ``random_walk`` and ``apply`` all read one move
table, ``_MOVES``: for each move kind, in the order ``enumerate_sites``
lists them, its anchors on a diagram, the variants at an anchor and the
builder of its result.  It is the one list of the move kinds there are.
Every anchor is a ``MoveSite`` anchor; an insertion anchor is made
of integer arcs (see ``codes``), ``(a,)`` for R1+ and ``(a, b)`` with
a < b for R2+, and ``apply`` checks an insertion site on its own arcs
and faces.  The R2+ pairs are never listed: row a of the table holds
the arcs b > a eligible with a, its length is a per-arc count the
diagram carries from move to move (``Diagram._partner_counts``, taken
again only for the arcs of faces a move changed), and the k-th pair is
found by a bisection over the running total of the row lengths, which
sorts one row.
A move builds its result with ``Diagram._child``, which copies the
parent's maps and patches them where the move acts: only the faces
through the changed darts are traced again.
All operations return new diagrams; inputs are never modified.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .codes import (
    OVER,
    UNDER,
    Diagram,
    Pass,
    diagram_arg,
)
from .errors import DomainError, InvalidSiteError, UnknownCrossingError


@dataclass(frozen=True)
class MoveSite:
    """A place where one Reidemeister move applies.

    kind: 'R1+', 'R1-', 'R2+', 'R2-' or 'R3'.
    anchor: crossing ids for removals; for R3 the face's tuple of
        integer darts (``4*crossing + slot``, see ``codes``); for
        insertions integer arcs, ``(a,)`` for R1+ and ``(a, b)`` with
        a < b for R2+.  Arcs are numbered component by component: a
        component with m passes owns m consecutive numbers, the k-th for
        the arc arriving at its pass k, and a free loop owns one.
    variant: strand/chirality choice for insertions, '' otherwise.
    """

    kind: str
    anchor: tuple
    variant: str = ""


@dataclass(frozen=True)
class WalkPlan:
    """Deterministic recipe for a random move walk; ``seed`` and
    ``steps`` must be ints (not bools), and ``weights`` a mapping of move
    kinds to finite ints or floats >= 0 (not bools), one of them
    positive, else DomainError."""

    seed: int
    steps: int
    weights: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        for name in ("seed", "steps"):
            value = getattr(self, name)
            # A bool is no count, None no fixed seed.
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"walk {name} must be an int, got {value!r}")
        if self.steps < 0:
            raise DomainError(f"negative step count {self.steps}")
        self.effective_weights()

    def effective_weights(self):
        w = DEFAULT_WEIGHTS if self.weights is None else self.weights
        if not isinstance(w, Mapping) or not set(w) <= set(_MOVES):
            raise DomainError(f"bad walk weights {w!r}: not a mapping from move kinds")
        finite = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v < math.inf
            for v in w.values()
        )
        if not finite or not any(v > 0 for v in w.values()):
            raise DomainError(f"bad walk weights {w!r}")
        return {k: v for k, v in w.items() if v > 0}


# Bias toward removals so fuzzed diagrams stay small: the cost of a
# step, and of the invariants checked on the endpoint, grows with size.
DEFAULT_WEIGHTS = {"R1+": 1.0, "R2+": 1.0, "R3": 2.0, "R1-": 2.5, "R2-": 2.5}

_R1_VARIANTS = ("OU+", "OU-", "UO+", "UO-")
# R2 poke: relative direction of the two strand pieces, which strand
# goes on top, and the sign of the first new crossing (the second takes
# the opposite sign).
_R2_VARIANTS = tuple(
    f"{rel}:{over}:{s}" for rel in ("par", "anti") for over in ("A", "B") for s in "+-"
)


def fresh_label(d: Diagram, count: int = 1):
    """``count`` crossing ids unused by ``d``."""
    base = max(d.signs, default=0)
    return tuple(base + i + 1 for i in range(count))


# ----------------------------------------------------------------------
# Site tables: per move kind, the anchors and the variants at an anchor


def _bigon_pairs(d: Diagram):
    """Crossing pairs removable by R2, from bigon faces.

    A two-dart face at two crossings has two side arcs: side i holds the
    face's dart i and, at the other corner, ``alpha`` of it.  Bit 1 of a
    dart is its role (set for under).
    """
    alpha = d._darts[1]
    pairs = set()
    for face in d._faces[0].values():
        if len(face) != 2 or face[0] >> 2 == face[1] >> 2:
            continue
        # An R2 bigon has one side over at both ends, the other under at
        # both.  Sigma swaps the role bit, so once side 0 keeps its role,
        # side 1 keeps the other one, and the direction bits then force
        # opposite signs: side 0 alone decides.
        if not (face[0] ^ alpha[face[0]]) & 2:
            pairs.add(tuple(sorted((face[0] >> 2, face[1] >> 2))))
    return sorted(pairs)


def _triangles(d: Diagram):
    """R3 triangles, as faces: three strands totally ordered.

    Each starts at its smallest dart, and they come in order of it.
    Three crossings give three distinct sides.
    """
    out = []
    alpha = d._darts[1]
    for face in d._faces[0].values():
        if len(face) != 3 or len({dart >> 2 for dart in face}) != 3:
            continue
        # Walking the boundary, side i runs from the corner of face[i]
        # to the corner of face[i+1]: it reaches that corner as the
        # dart alpha(face[i]), and side i+1 leaves it as face[i+1].
        # Sigma swaps the role bit, so the two strands at a corner always
        # differ in role: none runs straight through it, and the one
        # arriving under loses to the one leaving.
        wins = [0, 0, 0]
        for i in range(3):
            wins[(i + 1) % 3 if alpha[face[i]] & 2 else i] += 1
        # A transitive tournament on 3 players scores {0, 1, 2}; the
        # cyclic one scores {1, 1, 1} and admits no R3 (the trefoil's
        # two triangles are the standard example).
        if sorted(wins) == [0, 1, 2]:
            i = face.index(min(face))
            out.append(face[i:] + face[:i])
    return sorted(out)


def _curls(d: Diagram):
    """R1- anchors ``(c,)``: the crossings of one-dart faces, sorted."""
    return sorted({(face[0] >> 2,) for face in d._faces[0].values() if len(face) == 1})


def _r1_anchors(d: Diagram):
    """R1+ anchors ``(a,)``: the real arcs, then the free loops.  A real
    arc's in-dart is never 0, a free loop's is None."""
    head = d._darts[2]
    return list(zip(compress(range(len(head)), head))) + [
        (d._arc_base[ci],) for ci in d.free_loops
    ]


def _place(d: Diagram, arc: int):
    """(component, position) of integer arc ``arc``: it arrives at that pass."""
    base = d._arc_base
    c = bisect_right(base, arc) - 1
    return c, arc - base[c]


def _arc_piece(d: Diagram, a: int):
    """The index of the piece holding integer arc ``a``."""
    return d._pieces[1][_place(d, a)[0]]


def _r2_row(d: Diagram, a: int):
    """Row ``a`` of the R2+ table: the sorted arcs b > a eligible with a.

    Distinct arcs bounding a common face (the poke happens inside that
    face), plus every arc of another connected piece (a split piece can
    always be slid next to another).
    """
    row = d._partners(a)
    piece_of, base = d._pieces[1], d._arc_base
    ca = _place(d, a)[0]
    for j in range(ca + 1, len(piece_of)):
        if piece_of[j] != piece_of[ca]:
            row.update(range(base[j], base[j + 1]))
    return sorted(row)


class _PairKeys:
    """The R2+ table: the anchor pairs ``(a, b)`` of arcs a < b eligible
    for an R2 poke, in sorted order, found row by row.

    Row a's length is ``Diagram._partner_counts[a]``, carried from move
    to move, plus the arcs after a in other pieces.  ``len`` and indexing
    are all ``random.choice`` asks for: it draws the same pair as from the
    sorted list, while only the drawn row is listed and sorted.
    """

    def __init__(self, d: Diagram):
        piece_of, base = d._pieces[1], d._arc_base
        self.d, self.rows = d, d._partner_counts
        if len(set(piece_of)) > 1:  # each arc also pairs with later arcs of other pieces
            extra = []
            for ci, p in enumerate(piece_of):
                later = (base[j + 1] - base[j] for j in range(ci + 1, len(piece_of)) if piece_of[j] != p)
                extra += [sum(later)] * (base[ci + 1] - base[ci])
            self.rows = list(map(add, self.rows, extra))
        self.ends = list(accumulate(self.rows))

    def __len__(self):
        return self.ends[-1] if self.ends else 0

    def __getitem__(self, i):
        a = bisect_right(self.ends, i)
        return a, _r2_row(self.d, a)[i - (self.ends[a - 1] if a else 0)]

    def __iter__(self):
        for a, k in enumerate(self.rows):
            if k:
                yield from ((a, b) for b in _r2_row(self.d, a))


def _r2_variants(d: Diagram, anchor):
    """The R2+ variants poking the integer arcs ``a, b = anchor`` that keep
    ``d`` planar.

    Arcs in different pieces admit all eight.  Otherwise each face both
    arcs bound admits two: the strands run antiparallel when the face
    runs along both arcs or against both, and the first new crossing is
    negative with ``a`` on top exactly when the face runs along ``b``.
    An arc's two darts are its in-dart and, through alpha, its out-dart;
    a face runs along the arc where its dart there is the out-dart.
    """
    a, b = anchor
    if _arc_piece(d, a) != _arc_piece(d, b):
        return _R2_VARIANTS
    _, alpha, head = d._darts
    face_of = d._faces[1]
    ok = set()
    for dart_a in (head[a], alpha[head[a]]):
        for dart_b in (head[b], alpha[head[b]]):
            if face_of[dart_a] != face_of[dart_b]:
                continue
            fwd_a, fwd_b = dart_a & 1, dart_b & 1
            rel = "anti" if fwd_a == fwd_b else "par"
            ok.add(f"{rel}:A:{'+-'[fwd_b]}")
            ok.add(f"{rel}:B:{'-+'[fwd_b]}")
    return tuple(v for v in _R2_VARIANTS if v in ok)


def _is_site(d: Diagram, kind: str, anchor) -> bool:
    """Whether ``d`` has a ``kind`` site at ``anchor``, for a kind of the
    table; only removals and R3 look up the table's anchors."""
    if kind not in ("R1+", "R2+"):
        return anchor in _MOVES[kind][0](d)
    n = d._arc_base[-1]
    shaped = isinstance(anchor, tuple) and len(anchor) == int(kind[1])  # R1+ one arc, R2+ two
    arcs = shaped and all(  # a bool is no arc
        isinstance(a, int) and not isinstance(a, bool) and 0 <= a < n for a in anchor
    )
    # A pair is a candidate exactly when it admits some variant.
    return arcs and (kind == "R1+" or anchor[0] < anchor[1] and bool(_r2_variants(d, anchor)))


def _known(kind) -> bool:
    """Whether ``kind`` names a move of the table; a list names none
    (and cannot be hashed)."""
    return isinstance(kind, str) and kind in _MOVES


def enumerate_sites(d: Diagram, kinds: Optional[Sequence[str]] = None):
    """All move sites on ``d``, every insertion variant included.

    Args:
        d: a planar diagram.
        kinds: restrict to these move kinds (default: all five).

    Returns:
        Tuple of MoveSite in a deterministic order.

    Raises:
        InvalidSiteError: if ``kinds`` is not a collection of move kinds
            or names a kind that is not one of the five.
        DomainError: if ``d`` is not a ``Diagram``.
        NonPlanarError: if some piece of ``d`` has genus > 0.
    """
    diagram_arg(d, planar=True)
    if isinstance(kinds, str) or not isinstance(kinds, (Iterable, type(None))):
        raise InvalidSiteError(f"kinds takes a collection of move kinds, not {kinds!r}")
    wanted = tuple(_MOVES) if kinds is None else tuple(kinds)
    unknown = sorted({repr(k) for k in wanted if not _known(k)})
    if unknown:
        raise InvalidSiteError(f"unknown move kind {', '.join(unknown)}")
    out = []
    for kind, (anchors, variants, _) in _MOVES.items():
        if kind in wanted:
            for anchor in anchors(d):
                out.extend(MoveSite(kind, anchor, v) for v in variants(d, anchor))
    return tuple(out)


# ----------------------------------------------------------------------
# Application


def _require(cond, msg):
    if not cond:
        raise InvalidSiteError(msg)


def _remove(d: Diagram, anchor, variant) -> Diagram:
    """R1- and R2-: drop the anchor's crossings, found by their in-darts;
    passes next to each other go in one edit."""
    arc, edits = d._darts[0], []
    for ci, k in sorted(_place(d, arc[4 * c + slot]) for c in anchor for slot in (0, 2)):
        if edits and edits[-1][0] == ci and edits[-1][2] == k:
            edits[-1] = (ci, edits[-1][1], k + 1, ())
        else:
            edits.append((ci, k, k + 1, ()))
    return d._child(edits)


def _apply_r3(d: Diagram, anchor, variant) -> Diagram:
    arc, edits = d._darts[0], []
    for ci, k in {_place(d, arc[dart]) for dart in anchor}:
        comp = d.components[ci]
        if k:
            edits.append((ci, k - 1, k + 1, (comp[k], comp[k - 1])))
        else:  # the first and the last pass
            edits += [(ci, len(comp) - 1, len(comp), comp[:1]), (ci, 0, 1, comp[-1:])]
    return d._child(edits)


def _apply_r1_plus(d: Diagram, anchor, variant) -> Diagram:
    ci, pos = _place(d, anchor[0])
    (label,) = fresh_label(d)
    roles = (OVER, UNDER) if variant[:2] == "OU" else (UNDER, OVER)
    sign = 1 if variant[2] == "+" else -1
    return d._child([(ci, pos, pos, (Pass(label, roles[0], sign), Pass(label, roles[1], sign)))])


def _apply_r2_plus(d: Diagram, anchor, variant) -> Diagram:
    rel, over, s = variant.split(":")
    n1, n2 = fresh_label(d, 2)
    signed = [(n1, 1 if s == "+" else -1), (n2, -1 if s == "+" else 1)]
    role_a, role_b = (OVER, UNDER) if over == "A" else (UNDER, OVER)
    a_passes = tuple(Pass(c, role_a, sg) for c, sg in signed)
    b_passes = tuple(Pass(c, role_b, sg) for c, sg in signed[:: 1 if rel == "par" else -1])
    edits = []
    for arc, passes in zip(anchor, (a_passes, b_passes)):
        ci, pos = _place(d, arc)
        edits.append((ci, pos, pos, passes))
    return d._child(edits)


# The move table: per kind, in ``enumerate_sites`` order, its anchors on
# d, the variants at an anchor and the builder of its result.
_MOVES = {
    "R1-": (_curls, lambda d, anchor: ("",), _remove),
    "R2-": (_bigon_pairs, lambda d, anchor: ("",), _remove),
    "R3": (_triangles, lambda d, anchor: ("",), _apply_r3),
    "R1+": (_r1_anchors, lambda d, anchor: _R1_VARIANTS, _apply_r1_plus),
    "R2+": (_PairKeys, _r2_variants, _apply_r2_plus),
}


def apply(d: Diagram, site: MoveSite) -> Diagram:
    """Apply one move at ``site`` of the planar diagram ``d``.

    Raises:
        DomainError: if ``d`` is not a ``Diagram``.
        NonPlanarError: if some piece of ``d`` has genus > 0, as in
            ``enumerate_sites``, whatever the site.
        InvalidSiteError: if ``site`` is not a ``MoveSite`` among
            ``enumerate_sites(d)``, or names an insertion arc by anything
            but an ``int`` (a ``bool`` or ``float`` arc may compare equal
            to a listed one).
    """
    diagram_arg(d, planar=True)
    _require(isinstance(site, MoveSite), f"site must be a MoveSite, got {site!r}")
    kind, anchor = site.kind, site.anchor
    _require(_known(kind), f"unknown move kind {kind!r}")
    _, variants, build = _MOVES[kind]
    _require(_is_site(d, kind, anchor), f"no {kind} site at {anchor!r}")
    _require(site.variant in variants(d, anchor), f"no {kind} variant {site.variant!r} at {anchor!r}")
    return build(d, anchor, site.variant)


# ----------------------------------------------------------------------
# Non-Reidemeister surgery


def smooth(d: Diagram, c) -> Diagram:
    """Oriented smoothing at ``c``: over-in joins under-out and vice versa.

    Splits the component when both passes of ``c`` lie on one component,
    merges the two components otherwise.  A label that is not an ``int``
    names no crossing.
    """
    if isinstance(c, bool) or not isinstance(c, int) or c not in diagram_arg(d).signs:
        raise UnknownCrossingError(f"no crossing {c!r}")
    (ci, ki), (cj, kj) = d.locate[c][OVER], d.locate[c][UNDER]
    comps = list(d.components)
    if ci == cj:
        comp = comps[ci]
        i, j = sorted((ki, kj))
        cycle1 = comp[i + 1 : j]
        cycle2 = comp[j + 1 :] + comp[:i]
        comps[ci : ci + 1] = [cycle1, cycle2]
    else:
        a, b = comps[ci], comps[cj]
        merged = a[ki + 1 :] + a[:ki] + b[kj + 1 :] + b[:kj]
        lo, hi = sorted((ci, cj))
        comps[lo] = merged
        del comps[hi]
    return Diagram(comps)


def _shift_labels(d: Diagram, offset: int):
    return tuple(
        tuple(Pass(p.crossing + offset, p.role, p.sign) for p in comp)
        for comp in d.components
    )


def disjoint_union(a: Diagram, b: Diagram) -> Diagram:
    """Place ``b`` next to ``a`` with relabelled crossings."""
    offset = max(diagram_arg(a).signs, default=0)
    return Diagram(a.components + _shift_labels(diagram_arg(b), offset))


def connected_sum(
    a: Diagram, comp_a: int, b: Diagram, comp_b: int, edge_a: int = 0, edge_b: int = 0
) -> Diagram:
    """Cut arc ``edge_a`` of a's component and arc ``edge_b`` of b's,
    then cross-join respecting orientation.

    Arc k of a component is the arc arriving at its pass k.  A free-loop
    component has the single virtual arc 0 and acts as an identity.
    """
    for name, k in (("comp_a", comp_a), ("comp_b", comp_b), ("edge_a", edge_a), ("edge_b", edge_b)):
        if isinstance(k, bool) or not isinstance(k, int):
            raise DomainError(f"{name} must be an int, got {k!r}")
    if not 0 <= comp_a < diagram_arg(a).n_components:
        raise DomainError(f"no component {comp_a} in first diagram")
    if not 0 <= comp_b < diagram_arg(b).n_components:
        raise DomainError(f"no component {comp_b} in second diagram")
    ca = a.components[comp_a]
    cb = b.components[comp_b]
    for name, comp, k in (("first", ca, edge_a), ("second", cb, edge_b)):
        limit = max(len(comp), 1)
        if not 0 <= k < limit:
            raise DomainError(f"no arc {k} on the chosen {name} component")
    offset = max(a.signs, default=0)
    b_comps = _shift_labels(b, offset)
    cb = b_comps[comp_b]
    merged = ca[edge_a:] + ca[:edge_a] + cb[edge_b:] + cb[:edge_b]
    comps = list(a.components)
    comps[comp_a] = merged
    comps.extend(c for i, c in enumerate(b_comps) if i != comp_b)
    return Diagram(comps)


# ----------------------------------------------------------------------
# Random walks


def random_walk(d: Diagram, plan: WalkPlan) -> Diagram:
    """Apply ``plan.steps`` random legal moves; deterministic in the seed.

    A step draws a kind, then an anchor of that kind, then a variant
    valid there, which weights anchors uniformly rather than sites; for
    fuzzing only determinism matters.  A step whose drawn kind has no
    site on the current diagram is consumed without changing it.  A ``d``
    that is not a ``Diagram``, or a ``plan`` that is not a ``WalkPlan``,
    raises DomainError, and a ``d`` with a piece of genus > 0
    NonPlanarError, as in ``enumerate_sites``.
    """
    diagram_arg(d, planar=True)
    if not isinstance(plan, WalkPlan):
        raise DomainError(f"plan must be a WalkPlan, got {plan!r}")
    weights = plan.effective_weights()
    kinds = sorted(weights)
    moves = [_MOVES[k] for k in kinds]
    cum = list(accumulate(weights[k] for k in kinds))  # what choices() sums each time
    rng = random.Random(plan.seed)
    cur = d
    for _ in range(plan.steps):
        anchors_of, variants_of, build = rng.choices(moves, cum_weights=cum)[0]
        anchors = anchors_of(cur)
        if not anchors:
            continue
        anchor = rng.choice(anchors)
        variants = variants_of(cur, anchor)
        variant = rng.choice(variants) if len(variants) > 1 else variants[0]
        cur = build(cur, anchor, variant)
    return cur
