"""Reference Fox coloring census, for tests only.

``count_colorings_by_enumeration`` tries every one of the p^arcs
assignments of colors to the arcs of ``knots.arcs`` against the crossing
congruence.  ``count_colorings_by_dense_rank`` writes the congruences as
dense rows and takes their rank by Gauss-Jordan elimination mod p.
Both share nothing with ``count_colorings`` but the arc split; in
particular not the presentation matrix or the sparse elimination.
"""

import itertools

from knots import ColoringCount, DomainError, arcs


def _check_modulus(p):
    if p < 3 or any(p % q == 0 for q in range(2, p)):
        raise DomainError(f"modulus must be an odd prime, got {p}")


def count_colorings_by_enumeration(d, p):
    """Brute-force census over all p^arcs assignments."""
    _check_modulus(p)
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


def rank_mod_p(rows, ncols, p):
    """Row-echelon rank over Z/p; pivot = first nonzero, lowest row."""
    rank = 0
    rows = [row[:] for row in rows]
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def count_colorings_by_dense_rank(d, p):
    """Census from the dense rank of 2*over - under_in - under_out mod p."""
    _check_modulus(p)
    aset = arcs(d)
    rows = []
    for c in sorted(d.signs):
        row = [0] * len(aset)
        row[aset.over_arc[c]] += 2
        row[aset.under_in[c]] -= 1
        row[aset.under_out[c]] -= 1
        rows.append(row)
    total = p ** (len(aset) - rank_mod_p(rows, len(aset), p))
    return ColoringCount(p, total, total - p)
