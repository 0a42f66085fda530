"""Fox p-colorings: arcs, the crossing congruence, and coloring counts.

An arc is a maximal run of a component between consecutive under
passes; a component that never goes under (in particular a free loop)
is a single closed arc.  Each arc is keyed by the label of the crossing
whose under pass ends it, so the under-in arc of crossing c is c
itself; the closed arc of component i is keyed ``-1 - i``.  A
p-coloring assigns each arc a color in Z/p so that at every crossing

    2 * (over arc)  =  (under-in arc) + (under-out arc)   (mod p)

For p = 3 this congruence says exactly "all three colors equal or all
distinct", the trichromatic rule.  These are the rows of the Fox matrix
(``fox_rows``) at t = -1, and the count of colorings is p to the
dimension of the solution space.  ``unit_reduction`` writes them as
integer rows straight from the arc walk that ``fox_rows`` also reads,
one per crossing keyed by its label.  Their rank comes from
``pivot_steps``, the one kernel that also takes the Conway determinant.
Its unit steps over Z, on the entries +-1, are unimodular, so they hold
modulo every prime, and the diagram caches them; what they leave, a
handful of rows on large diagrams, goes mod p through Bareiss steps
alone.  The kernel keeps its rows on a heap by length and pushes a row
back only when a step changed its length, or when it was popped
without a unit and an update may have given it one.  A coloring is
proper when it uses at least two colors, and the p monochromatic
assignments always work, so proper = total - p.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .codes import UNDER, Diagram, diagram_arg
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


def _arc_walk(d: Diagram):
    """(over, out): crossing -> the key of its over arc, and of its
    under-out arc (see the module docstring)."""
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
    return over, out


def fox_rows(d: Diagram):
    """The Fox-calculus presentation matrix: crossing -> row, in label order.

    A row maps an arc's key (see the module docstring) to (a, b), the
    entry a + b*t: ``1 - t`` on the over arc, ``t`` on under-in and ``-1``
    on under-out at a positive crossing, ``-1`` and ``t`` at a negative
    one.  At t = -1 every row is the coloring congruence
    2*over - under_in - under_out, whatever the sign.
    """
    over, out = _arc_walk(d)
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


def pivot_steps(rows, div, one, inverse=None):
    """The steps ``(row, column, pivot)`` of unit steps, then fraction-free
    (Bareiss) steps, on sparse rows of an integral domain with unit ``one``.

    A row maps columns to nonzero entries; ``rows`` is a list of rows,
    copied, or a dict index -> row, reduced in place.  Each step takes the
    shortest row left (the lowest index on ties) and pivots on its column
    held by the fewest other live rows (the lowest label on ties), which
    keeps fill-in low; a heap of (length, index) and a column -> live rows
    index spare it a scan of every row.  A step pushes a row it updated
    back on the heap only when the row's length changed (the entry at the
    old length goes stale and is skipped) or the row was parked; a row
    that keeps its length keeps its entry.

    While a row holds a unit, given ``inverse`` (an entry's inverse, or
    None for a non-unit), the steps are unit steps, on the shortest row
    with a unit and its sparsest unit column: a row popped without a unit
    is parked until an update pushes it again, and each holder with f in
    the pivot column loses f * inverse(pivot) times the row, in place.
    Parking ends when the Bareiss steps begin; an empty row, which a dict
    ``rows`` may hold, is skipped in both kinds of step.  Bareiss
    steps follow if exact division ``div(a, b)`` is given, else the rows
    left stay in a dict ``rows``.  Their entries are minors of the rows
    left, so dividing by the previous pivot is exact; a row without an
    entry in the pivot column would only be scaled by pivot / previous
    pivot, factors that telescope, so it keeps its values until used.

    Rows that vanish are dropped: a full run takes rank-many steps.  The
    unit pivots are the leading run of steps on a unit (no row holds a
    unit when Bareiss steps start; a later Bareiss pivot may be one).  The
    k-th Bareiss pivot is the minor on the first k Bareiss pivot rows and
    columns, so a nonsingular square matrix has determinant the sign of
    the permutation row -> column of all steps, times the unit pivots,
    times the last Bareiss pivot (1 if there is none).
    """
    live = rows if isinstance(rows, dict) else {i: dict(row) for i, row in enumerate(rows) if row}
    holders = {}
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    units = inverse is not None
    heap = sorted((len(row), i) for i, row in live.items())
    zero, scale, level, steps, parked = one - one, [one], dict.fromkeys(live, 0), [], set()
    while heap or units and div and live:
        if not heap:  # no row holds a unit: Bareiss steps from here on
            units, heap, parked = False, sorted((len(row), i) for i, row in live.items()), set()
        n, r = heappop(heap)
        row = live.get(r)
        if row is None or len(row) != n:
            continue
        # The pivot column (for a unit step, one of the unit entries): the
        # one held by the fewest rows, r among them, the lowest on ties.
        col = None
        for j, v in row.items():
            if u := (inverse(v) if units else v):
                h = len(holders[j])
                if col is None or h < least or h == least and j < col:
                    col, least, inv = j, h, u
        if col is None:  # no unit yet, or an empty row
            parked.add(r)
            continue
        del live[r]
        for j in row:
            holders[j].discard(r)
        if not units:
            k = len(scale) - 1
            if level[r] != k:
                row = {j: div(scale[k] * v, scale[level[r]]) for j, v in row.items()}
        pivot = row.pop(col)
        items = row.items()
        for i in holders.pop(col):
            other = live[i]
            length, f = len(other), other.pop(col)
            if units:  # other - f / pivot * row, in place
                f = f * inv
                for j, v in items:
                    if e := other.get(j, zero) - f * v:
                        if j not in other:
                            holders[j].add(i)
                        other[j] = e
                    else:
                        del other[j]
                        holders[j].discard(i)
            else:  # (pivot * other - f * row) / the previous pivot
                new = {j: pivot * v for j, v in other.items()}
                for j, v in items:
                    new[j] = new.get(j, zero) - f * v
                other = live[i] = {j: q for j, v in new.items() if (q := div(v, scale[level[i]]))}
                level[i] = k + 1
                for j in row:
                    (holders[j].add if j in other else holders[j].discard)(i)
            if not other:
                del live[i]
            elif len(other) != length or i in parked:
                parked.discard(i)
                heappush(heap, (len(other), i))
        if not units:
            scale.append(pivot)
        steps.append((r, col, pivot))
    return steps


def unit_reduction(d: Diagram):
    """(free, rest): the coloring matrix after the unit steps of
    ``pivot_steps`` over Z, on entries +1 and -1, valid modulo every prime.

    ``free`` is the number of arcs less the number of steps, and ``rest``
    the rows left as (column, entry) pairs, none with an entry +-1, so the
    rank mod p is the number of steps plus the rank of ``rest`` mod p.
    ``Diagram`` caches it, so every prime asked of one diagram shares it.
    """
    over, out = _arc_walk(d)
    rows = {}
    for c in sorted(d.signs):
        # 2*over - under_in - under_out, coinciding arcs summed: an entry
        # is 0 only where all three coincide, and then it is the whole row.
        row = {over[c]: 2}
        for col in (c, out[c]):
            row[col] = row.get(col, 0) - 1
        if row[col]:
            rows[c] = row
    free = d.n_crossings + closed_arcs(d) - len(pivot_steps(rows, None, 1, {1: 1, -1: -1}.get))
    return free, tuple(tuple(row.items()) for row in rows.values())


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
    diagram_arg(d)
    _check_modulus(p)
    free, rest = d._unit_reduction
    rows = [{col: e for col, v in row if (e := v % p)} for row in rest]
    # One modular inverse per pivot, not per updated entry (an inverse is never 0).
    inverse = {}
    div = lambda a, b: a * (inverse.get(b) or inverse.setdefault(b, pow(b, -1, p))) % p
    total = p ** (free - len(pivot_steps(rows, div, 1)))
    return ColoringCount(p, total, total - p)


def is_colorable(d: Diagram, p: int) -> bool:
    """Whether some p-coloring uses at least two colors."""
    return count_colorings(d, p).proper > 0
