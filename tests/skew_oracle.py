"""Reference skew pairs by sorting the four passes of every pair, for
tests only.

``knots.casson`` counts the skew pairs in one sweep along the walk
without listing them; this lists them, sorting the events of each pair
and matching the word against the skew pattern.
"""

from typing import NamedTuple

from knots import OVER, UNDER


class SkewPair(NamedTuple):
    """A skew pair (a, b), ordered so the walk meets 'over a' first."""

    a: int
    b: int
    sign: int  # product of the two crossing signs


def skew_pairs_by_events(d):
    """Skew pairs of the knot ``d`` read from its first pass, ordered by
    the walk position of 'over a'."""
    (comp,) = d.components
    position = {(q.crossing, q.role): t for t, q in enumerate(comp)}  # -> walk index
    out = []
    labels = sorted(d.signs)
    for x in range(len(labels)):
        for y in range(x + 1, len(labels)):
            a, b = labels[x], labels[y]
            events = sorted(
                ((position[(c, r)], c, r) for c in (a, b) for r in (OVER, UNDER))
            )
            word = tuple((c, r) for _, c, r in events)
            for first, second in ((a, b), (b, a)):
                if word == (
                    (first, OVER),
                    (second, UNDER),
                    (first, UNDER),
                    (second, OVER),
                ):
                    out.append(SkewPair(first, second, d.signs[a] * d.signs[b]))
                    break
    out.sort(key=lambda sp: position[(sp.a, OVER)])
    return tuple(out)
