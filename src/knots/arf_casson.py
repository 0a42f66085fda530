"""Arf and Casson invariants of knot diagrams, from skew pairs of crossings.

Walk a knot diagram from its first pass and write down each crossing
twice (once per pass).  An unordered pair of crossings {A, B} is *skew*
when its four passes interleave as

    over A, under B, under A, over B

for one of the two orderings of the pair (Polyak-Viro's simplest Gauss
diagram formula).  The Casson invariant weights each skew pair by the
product of its two crossing signs and sums; the Arf invariant is the
parity of the number of skew pairs.  Each term of the signed sum is
+1 or -1, which is 1 mod 2, so ``arf`` is ``casson`` mod 2.

``casson`` counts in one sweep along the walk without listing the pairs.
A in the pattern meets its over pass first, B its under pass.  From
B's under pass to its over pass, B's position is held in a sorted list
for its sign.  At A's under pass, every held B has u_B < u_A < o_B, so
the skew partners of A are the held B with o_A < u_B: one bisection
per sign list.  The tests hold the sweep to a listing of the pairs
themselves, made by sorting the four passes of every pair.  The counts
are independent of the basepoint and of traversal direction, which the
test suite checks exhaustively on small diagrams: another basepoint is
the same knot with its passes rotated.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .codes import UNDER, Diagram, diagram_arg
from .errors import NotAKnotError


def _knot(d: Diagram):
    """The passes of a knot diagram; DomainError for a non-``Diagram``,
    NotAKnotError for several components."""
    if diagram_arg(d).n_components != 1:
        raise NotAKnotError(f"{d.n_components}-component diagram; skew pairs need a knot")
    return d.components[0]


def arf(d: Diagram) -> int:
    """Parity of the number of skew pairs (0 or 1)."""
    return casson(d) % 2


def casson(d: Diagram) -> int:
    """Sum of sign products over all skew pairs, in one sweep.

    Raises:
        DomainError: if ``d`` is not a ``Diagram``.
        NotAKnotError: if ``d`` has several components.
    """
    first, total = {}, 0
    held = {1: [], -1: []}  # sign -> under positions of open under-first crossings
    for t, (c, role, sign) in enumerate(_knot(d)):
        start = first.setdefault(c, t)
        if start == t:
            if role == UNDER:
                held[sign].append(t)  # t grows, so each list stays sorted
        elif role == UNDER:  # over-first c: its partners are the held opened after o_c
            pos, neg = held[1], held[-1]
            partners = len(pos) - bisect_right(pos, start) - len(neg) + bisect_right(neg, start)
            total += sign * partners  # partners: positive ones less negative ones
        else:  # under-first c closes
            del held[sign][bisect_left(held[sign], start)]
    return total
