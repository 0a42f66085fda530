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

``exact_div`` and ``dense_conway`` are the dense form of the Conway
kernel: ``knots.conway.conway`` with its elimination run by Bareiss
steps alone (no unit steps) over ``ConwayPoly`` entries, coefficient
lists from t^0 with every power of t kept, and schoolbook division.
``conway`` must give the same polynomial from its packed Laurent
entries.
"""

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
