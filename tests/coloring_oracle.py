"""Reference Fox coloring census, for tests only.

``arc_split`` numbers the arcs on its own, in walk order: component by
component, each arc numbered where it starts.
``count_colorings_by_enumeration`` tries every one of the p^arcs
assignments of colors to those arcs against the crossing congruence.
``count_colorings_by_dense_rank`` writes the congruences as dense rows
and takes their rank by Gauss-Jordan elimination mod p.  Both share
nothing with ``count_colorings``: not the arc keys, the presentation
matrix or the sparse elimination.
"""

import itertools
from math import isqrt
from typing import NamedTuple

from knots import UNDER, ColoringCount, DomainError


class Arcs(NamedTuple):
    """Walk-order arc numbers: crossing -> over arc, under-in arc and
    under-out arc, and the number of arcs."""

    over: dict
    under_in: dict
    under_out: dict
    count: int


def arc_split(d):
    """Split every component into arcs at its under passes.

    A component that never goes under is one closed arc.
    """
    over, under_in, under_out, count = {}, {}, {}, 0
    for comp in d.components:
        m = len(comp)
        upos = [k for k, p in enumerate(comp) if p.role == UNDER]
        if not upos:
            for p in comp:
                over[p.crossing] = count
            count += 1
            continue
        for t, u in enumerate(upos):
            nxt = upos[(t + 1) % len(upos)]
            k = (u + 1) % m
            while k != nxt:
                over[comp[k].crossing] = count
                k = (k + 1) % m
            under_out[comp[u].crossing] = count
            under_in[comp[nxt].crossing] = count
            count += 1
    return Arcs(over, under_in, under_out, count)


def _check_modulus(p):
    if p < 3 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise DomainError(f"modulus must be an odd prime, got {p}")


def count_colorings_by_enumeration(d, p):
    """Brute-force census over all p^arcs assignments."""
    _check_modulus(p)
    a = arc_split(d)
    crossings = sorted(d.signs)
    total = 0
    for colors in itertools.product(range(p), repeat=a.count):
        if all(
            (2 * colors[a.over[c]] - colors[a.under_in[c]] - colors[a.under_out[c]]) % p == 0
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
    a = arc_split(d)
    rows = []
    for c in sorted(d.signs):
        row = [0] * a.count
        row[a.over[c]] += 2
        row[a.under_in[c]] -= 1
        row[a.under_out[c]] -= 1
        rows.append(row)
    total = p ** (a.count - rank_mod_p(rows, a.count, p))
    return ColoringCount(p, total, total - p)
