"""Reference Fox coloring census by brute force, for tests only.

It tries every one of the p^arcs assignments of colors to the arcs of
``knots.arcs`` against the crossing congruence, so it shares nothing
with ``count_colorings`` but the arc split; in particular not the
presentation matrix or the elimination mod p.
"""

import itertools

from knots import ColoringCount, DomainError, arcs


def count_colorings_by_enumeration(d, p):
    """Brute-force census over all p^arcs assignments."""
    if p < 3 or any(p % q == 0 for q in range(2, p)):
        raise DomainError(f"modulus must be an odd prime, got {p}")
    aset = arcs(d)
    crossings = sorted(d.signs)
    total = 0
    for colors in itertools.product(range(p), repeat=len(aset)):
        if all(
            (2 * colors[aset.over_arc[c]] - colors[aset.under_in[c]] - colors[aset.under_out[c]]) % p == 0
            for c in crossings
        ):
            total += 1
    return ColoringCount(p, total, total - p)
