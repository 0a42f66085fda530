"""Reference elimination kernel, for tests only.

``scanning_pivot_steps`` is the scanning form of the Bareiss kernel in
``knots.colorings.pivot_steps``: at each step it scans every live row
for the shortest (the first on ties) and pivots on that row's lowest
column, then scans every live row again for the pivot column.  It keeps
no index, so it shares neither the pivot rule nor the bookkeeping of
the indexed kernel, only the arithmetic of a fraction-free step.  Both
must give the same rank, and on a square matrix of full rank the same
determinant: the last pivot times the sign of the permutation row ->
column of the steps.

``heap_pivot_steps`` is the earlier form of ``pivot_steps`` itself, kept
as it was: it picks a unit column with a ``min`` over a dict of the
row's unit entries and pushes every row that a unit step updates back
on its heap, so most entries it pops are stale.  Both take the same
pivot rule, so they must give the same steps, step for step, and leave
the same rows.

``exact_div`` and ``dense_conway`` are the dense form of the Conway
kernel: ``knots.conway.conway`` with its elimination run by Bareiss
steps alone (no unit steps) over ``ConwayPoly`` entries, coefficient
lists from t^0 with every power of t kept, and schoolbook division.
``conway`` must give the same polynomial from its packed Laurent
entries.
"""

from heapq import heappop, heappush
from math import comb

from knots import ConwayPoly, Diagram
from knots.colorings import closed_arcs, fox_rows, pivot_steps
from knots.conway import ONE, ZERO, _sign


def scanning_pivot_steps(rows, div, one):
    """Fraction-free (Bareiss) elimination of sparse rows, step by step.

    A row maps columns to nonzero entries of an integral domain with unit
    ``one`` and exact division ``div(a, b)``.  Each step pivots on the
    lowest column of the shortest row left (the first on ties) and
    yields ``(row, column, pivot)`` with ``row`` the index in ``rows``.
    Every entry is then a minor of the input, so dividing by the previous
    pivot is exact.  A row without an entry in the pivot column would only
    be scaled by pivot / previous pivot; these factors telescope, so it
    keeps the values of the step it last changed at (``level``) until it
    is used.  Rows that vanish are dropped: there are rank-many steps.
    The k-th pivot is the minor on the first k pivot rows and columns,
    taken in pivot order, so the last one of a nonsingular square matrix
    is its determinant times the sign of the permutation row -> column.
    """
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    level = dict.fromkeys(live, 0)
    zero, scale = one - one, [one]
    while live:
        r = min(live, key=lambda i: len(live[i]))
        row, k = live.pop(r), len(scale) - 1
        if level[r] != k:
            row = {j: div(scale[k] * v, scale[level[r]]) for j, v in row.items()}
        col = min(row)
        pivot = row.pop(col)
        for i, other in list(live.items()):
            f = other.pop(col, None)
            if f is not None:
                new = {j: pivot * v for j, v in other.items()}
                for j, v in row.items():
                    new[j] = new.get(j, zero) - f * v
                live[i] = {j: q for j, v in new.items() if (q := div(v, scale[level[i]]))}
                level[i] = k + 1
                if not live[i]:
                    del live[i]
        scale.append(pivot)
        yield r, col, pivot


def heap_pivot_steps(rows, div, one, inverse=None):
    """The steps ``(row, column, pivot)`` of unit steps, then fraction-free
    (Bareiss) steps, on sparse rows of an integral domain with unit ``one``.

    A row maps columns to nonzero entries; ``rows`` is a list of rows,
    copied, or a dict index -> row, reduced in place.  Each step takes the
    shortest row left (the lowest index on ties) and pivots on its column
    held by the fewest other live rows (the lowest label on ties), which
    keeps fill-in low; a heap of (length, index), whose stale entries are
    skipped, and a column -> live rows index spare it a scan of every row.

    While a row holds a unit, given ``inverse`` (an entry's inverse, or
    None for a non-unit), the steps are unit steps, on the shortest row
    with a unit and its sparsest unit column (a row popped without a unit
    waits until an update pushes it again): each holder with f in that
    column loses f * inverse(pivot) times the row, in place.  Bareiss
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
    zero, scale, level, steps = one - one, [one], dict.fromkeys(live, 0), []
    while heap or units and div and live:
        if not heap:  # no row holds a unit: Bareiss steps from here on
            units, heap = False, sorted((len(row), i) for i, row in live.items())
        n, r = heappop(heap)
        row = live.get(r)
        if row is None or len(row) != n:
            continue
        # The pivot columns to choose from; for a unit step, each with its inverse.
        cols = {j: u for j, v in row.items() if (u := inverse(v))} if units else row
        if not cols:
            continue
        del live[r]
        for j in row:
            holders[j].discard(r)
        col = min(cols, key=lambda j: (len(holders[j]), j))
        if units:
            pivot, inv = row.pop(col), cols[col]
        else:
            k = len(scale) - 1
            if level[r] != k:
                row = {j: div(scale[k] * v, scale[level[r]]) for j, v in row.items()}
            pivot = row.pop(col)
        for i in holders.pop(col):
            other = live[i]
            length, f = len(other), other.pop(col)
            if units:  # other - f / pivot * row, in place
                f = f * inv
                for j, v in row.items():
                    if e := other.get(j, zero) - f * v:
                        if j not in other:
                            holders[j].add(i)
                        other[j] = e
                    else:
                        del other[j]
                        holders[j].discard(i)
            else:  # (pivot * other - f * row) / the previous pivot
                new = {j: pivot * v for j, v in other.items()}
                for j, v in row.items():
                    new[j] = new.get(j, zero) - f * v
                other = live[i] = {j: q for j, v in new.items() if (q := div(v, scale[level[i]]))}
                level[i] = k + 1
                for j in row:
                    (holders[j].add if j in other else holders[j].discard)(i)
            if not other:
                del live[i]
            elif units or len(other) != length:
                heappush(heap, (len(other), i))
        if not units:
            scale.append(pivot)
        steps.append((r, col, pivot))
    return steps


def exact_div(a: ConwayPoly, b: ConwayPoly) -> ConwayPoly:
    """a / b in Z[t], where b divides a (as Bareiss guarantees)."""
    rest, top = list(a.coeffs), b.degree
    q = [0] * (len(rest) - top)
    for k in reversed(range(len(q))):
        q[k] = c = rest[k + top] // b.coeffs[-1]
        if c:
            for j, y in enumerate(b.coeffs):
                rest[k + j] -= c * y
    if any(rest):
        raise ArithmeticError(f"{b} does not divide {a}")
    return ConwayPoly(q)


def dense_minor(d: Diagram):
    """(order, rows): the Fox minor that ``conway`` reduces, over ``ConwayPoly``."""
    rows, order = fox_rows(d), sorted(d.signs)
    minor = [
        {a: poly for a, v in rows[c].items() if a != order[0] and (poly := ConwayPoly(v))}
        for c in order[1:]
    ]
    return order, minor


def dense_conway(d: Diagram) -> ConwayPoly:
    """``knots.conway.conway`` by Bareiss steps alone over ``ConwayPoly``,
    for a diagram that a plane diagram realizes."""
    knot, n = d.n_components == 1, d.n_crossings
    if closed_arcs(d):
        return ONE if knot else ZERO
    order, minor = dense_minor(d)
    steps = list(pivot_steps(minor, exact_div, ONE))
    if len(steps) < n - 1:
        if knot:
            raise ArithmeticError(f"Alexander minor of {d!r} is singular")
        return ZERO
    negatives = sum(s < 0 for s in d.signs.values())
    sign = d.signs[order[0]] * (-1) ** negatives * _sign({order[r + 1]: c for r, c, _ in steps})
    q = [sign * c for c in (steps[-1][2] if steps else ONE)]
    q = q[next(i for i, c in enumerate(q) if c) :]
    top = len(q) - 1
    coeffs = [0] * len(q)
    for j in range(top, -1, -2):
        coeffs[j] = c = q[(top + j) // 2]
        for i in range(j + 1):
            q[(top - j) // 2 + i] -= c * comb(j, i) * (-1) ** (j - i)
    if any(q) or coeffs[0] != knot:
        raise ArithmeticError(f"Alexander minor of {d!r} is no link's")
    return ConwayPoly(coeffs)
