"""Fox p-colorings: arcs, the crossing congruence, and coloring counts.

An arc is a maximal run of a component between consecutive under
passes; a component that never goes under (in particular a free loop)
is a single closed arc.  Each arc is keyed by the label of the crossing
whose under pass ends it, so the under-in arc of crossing c is c
itself; the closed arc of component i is keyed ``-1 - i``.  A
p-coloring assigns each arc a color in Z/p so that at every crossing

    2 * (over arc)  =  (under-in arc) + (under-out arc)   (mod p)

For p = 3 this congruence says exactly "all three colors equal or all
distinct", the trichromatic rule.  These are the rows of the Fox
presentation matrix (``fox_rows``) that the Conway polynomial uses, at
t = -1.  The count of colorings is p to the dimension of the solution
space.  Its rank is found in two stages.  First the matrix is reduced
once over Z, pivoting only on entries +1 and -1 (``unit_reduction``):
such a step is a unimodular row operation, so it is the same step
modulo every prime, and the result is cached on the diagram for all of
them.  What is left, a handful of rows on large diagrams, goes mod p
through ``pivot_steps``, the one sparse fraction-free kernel that also
takes the Conway determinant: each step takes the shortest row left and
pivots on its column held by the fewest other rows.  A coloring is
proper when it uses at least two colors, and the p monochromatic
assignments always work, so proper = total - p.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .codes import UNDER, Diagram
from .errors import DomainError


@dataclass(frozen=True)
class ColoringCount:
    """Coloring census for one modulus."""

    p: int
    total: int
    proper: int


def _check_modulus(p: int):
    """Refuse anything but an odd prime int below 2**31, before trial division."""
    if (
        isinstance(p, bool)
        or not isinstance(p, int)
        or not 3 <= p < 2**31
        or p % 2 == 0
        or any(p % q == 0 for q in range(3, int(p**0.5) + 1, 2))
    ):
        raise DomainError(f"modulus must be an odd prime int below 2**31, got {p!r}")


def closed_arcs(d: Diagram) -> int:
    """The number of components that never go under, each one closed arc."""
    return sum(all(p.role != UNDER for p in comp) for comp in d.components)


def fox_rows(d: Diagram):
    """The Fox-calculus presentation matrix: crossing -> row, in label order.

    A row maps an arc's key (see the module docstring) to (a, b), the
    entry a + b*t: ``1 - t`` on the over arc, ``t`` on under-in and ``-1``
    on under-out at a positive crossing, ``-1`` and ``t`` at a negative
    one.  At t = -1 every row is the coloring congruence
    2*over - under_in - under_out, whatever the sign.
    """
    over, out = {}, {}
    for i, comp in enumerate(d.components):
        # Walking backwards, ``key`` is the arc that holds the pass: it
        # ends at the next under pass ahead, cyclically.
        key = next((p.crossing for p in comp if p.role == UNDER), -1 - i)
        for c, role, _ in reversed(comp):
            if role == UNDER:
                out[c], key = key, c
            else:
                over[c] = key
    rows = {}
    for c in sorted(d.signs):
        row = rows[c] = {}
        positive = d.signs[c] > 0
        for col, (a, b) in (
            (over[c], (1, -1)),
            (c, (0, 1) if positive else (-1, 0)),
            (out[c], (-1, 0) if positive else (0, 1)),
        ):
            old_a, old_b = row.get(col, (0, 0))
            row[col] = (old_a + a, old_b + b)
    return rows


def pivot_steps(rows, div, one):
    """Fraction-free (Bareiss) elimination of sparse rows, step by step.

    A row maps columns to nonzero entries of an integral domain with unit
    ``one`` and exact division ``div(a, b)``.  Each step takes the
    shortest row left (the lowest index on ties), the sparsest-row rule
    of Markowitz, and pivots on its column held by the fewest other live
    rows (the lowest label on ties), which keeps fill-in low; it yields
    ``(row, column, pivot)`` with ``row`` the index in ``rows``.  A heap of
    (length, index) finds the row, with entries of rows that have since
    changed length skipped, and a column -> live rows index gives the
    rows to update, so no step scans every live row.  Every entry is then
    a minor of the input, so dividing by the previous pivot is exact.  A
    row without an entry in the pivot column would only be scaled by
    pivot / previous pivot; these factors telescope, so it keeps the
    values of the step it last changed at (``level``) until it is used.
    Rows that vanish are dropped: there are rank-many steps.  The k-th
    pivot is the minor on the first k pivot rows and columns, taken in
    pivot order, so the last one of a nonsingular square matrix is its
    determinant times the sign of the permutation row -> column.
    """
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    level = dict.fromkeys(live, 0)
    holders = {}
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    zero, scale = one - one, [one]
    while heap:
        n, r = heappop(heap)
        if len(live.get(r, ())) != n:
            continue
        row, k = live.pop(r), len(scale) - 1
        for j in row:
            holders[j].discard(r)
        if level[r] != k:
            row = {j: div(scale[k] * v, scale[level[r]]) for j, v in row.items()}
        col = min(row, key=lambda j: (len(holders[j]), j))
        pivot = row.pop(col)
        for i in holders.pop(col):
            other = live[i]
            length, f = len(other), other.pop(col)
            new = {j: pivot * v for j, v in other.items()}
            for j, v in row.items():
                new[j] = new.get(j, zero) - f * v
            other = {j: q for j, v in new.items() if (q := div(v, scale[level[i]]))}
            for j in row:
                if j in other:
                    holders[j].add(i)
                else:
                    holders[j].discard(i)
            level[i] = k + 1
            if other:
                live[i] = other
                if len(other) != length:
                    heappush(heap, (len(other), i))
            else:
                del live[i]
        scale.append(pivot)
        yield r, col, pivot


def unit_reduction(d: Diagram):
    """(free, rest): the coloring matrix reduced over Z on +-1 pivots.

    Each step takes the shortest row that holds an entry +1 or -1 (the
    lowest index on ties) and, among those entries, the column held by
    the fewest other rows (the lowest label on ties); it subtracts
    f * pivot times the pivot row from every row with f in that column,
    in place.  As 1 / pivot = pivot, no division is needed, and as the
    step is unimodular, it is a valid step modulo every prime.  A row
    with no unit entry waits until an update gives it one.  ``free`` is
    the number of arcs less the number of steps, and ``rest`` the rows
    left as (column, entry) pairs, none with a unit entry, so the rank
    mod p is the number of steps plus the rank of ``rest`` mod p.
    ``Diagram`` caches it, so every prime asked of one diagram shares it.
    """
    rows = {}
    for i, fox in enumerate(fox_rows(d).values()):
        # At t = -1 the entry a + b*t is a - b.
        row = {col: e for col, (a, b) in fox.items() if (e := a - b)}
        if row:
            rows[i] = row
    holders = {}
    for i, row in rows.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items() if 1 in row.values() or -1 in row.values()]
    heapify(heap)
    steps = 0
    while heap:
        n, r = heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != n:
            continue
        units = [j for j, v in row.items() if v == 1 or v == -1]
        if not units:
            continue
        del rows[r]
        for j in row:
            holders[j].discard(r)
        col = min(units, key=lambda j: (len(holders[j]), j))
        pivot = row.pop(col)
        for i in holders.pop(col):
            other = rows[i]
            f = other.pop(col) * pivot
            for j, v in row.items():
                if e := other.get(j, 0) - f * v:
                    if j not in other:
                        holders[j].add(i)
                    other[j] = e
                elif j in other:
                    del other[j]
                    holders[j].discard(i)
            if not other:
                del rows[i]
            elif 1 in other.values() or -1 in other.values():
                heappush(heap, (len(other), i))
        steps += 1
    rest = tuple(tuple(row.items()) for row in rows.values())
    return d.n_crossings + closed_arcs(d) - steps, rest


def count_colorings(d: Diagram, p: int) -> ColoringCount:
    """Count all and proper p-colorings: the +-1 reduction over Z, shared
    by every prime of ``d``, then elimination mod p of what it leaves.

    Args:
        d: any diagram; anything else raises ``DomainError``.
        p: an odd prime ``int`` below 2**31; anything else raises
            ``DomainError`` at once, before any trial division.

    Returns:
        ColoringCount with total = p^(solution dimension) and
        proper = total - p.
    """
    if not isinstance(d, Diagram):
        raise DomainError(f"d must be a Diagram, got {d!r}")
    _check_modulus(p)
    free, rest = d._unit_reduction
    rows = [{col: e for col, v in row if (e := v % p)} for row in rest]
    # One modular inverse per pivot, not per updated entry (an inverse is never 0).
    inverse = {}
    div = lambda a, b: a * (inverse.get(b) or inverse.setdefault(b, pow(b, -1, p))) % p
    total = p ** (free - sum(1 for _ in pivot_steps(rows, div, 1)))
    return ColoringCount(p, total, total - p)


def is_colorable(d: Diagram, p: int) -> bool:
    """Whether some p-coloring uses at least two colors."""
    return count_colorings(d, p).proper > 0
