"""Skew pairs of crossings; Arf and Casson invariants of knot diagrams.

Walk a knot diagram from its first pass and write down each crossing
twice (once per pass).  An unordered pair of crossings {A, B} is *skew*
when its four passes interleave as

    over A, under B, under A, over B

for one of the two orderings of the pair.  The Arf invariant is the
parity of the number of skew pairs; the Casson invariant weights each
skew pair by the product of its two crossing signs and sums.  Both are
independent of the basepoint and of traversal direction, which the test
suite checks exhaustively on small diagrams: another basepoint is the
same knot with its passes rotated.
"""

from __future__ import annotations

from typing import NamedTuple

from .codes import OVER, UNDER, Diagram
from .errors import NotAKnotError


class SkewPair(NamedTuple):
    """A skew pair (a, b), ordered so the walk meets 'over a' first."""

    a: int
    b: int
    sign: int  # product of the two crossing signs


def skew_pairs(d: Diagram):
    """All skew pairs of a knot diagram read from its first pass.

    Args:
        d: a one-component diagram.

    Returns:
        Tuple of SkewPair, one per skew unordered pair, ordered by the
        walk position of the first 'over' pass, then by the label of b.

    Raises:
        NotAKnotError: if ``d`` has several components.
    """
    if d.n_components != 1:
        raise NotAKnotError(f"{d.n_components}-component diagram; skew pairs need a knot")
    # crossing -> walk index of its over/under pass
    over = {c: w[OVER][1] for c, w in d.locate.items()}
    under = {c: w[UNDER][1] for c, w in d.locate.items()}
    firsts = sorted((over[c], under[c], c) for c in d.signs)
    seconds = [(c, under[c], over[c]) for c in sorted(d.signs)]
    return tuple(
        SkewPair(a, b, d.signs[a] * d.signs[b])
        for oa, ua, a in firsts
        if oa < ua
        for b, ub, ob in seconds
        if oa < ub < ua < ob
    )


def arf(d: Diagram) -> int:
    """Parity of the number of skew pairs (0 or 1)."""
    return len(skew_pairs(d)) % 2


def casson(d: Diagram) -> int:
    """Sum of sign products over all skew pairs."""
    return sum(sp.sign for sp in skew_pairs(d))
