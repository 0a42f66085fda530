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
"""


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
