"""Seven-point cycles the slow way, for tests only: one ``Diagram`` per
Hamiltonian cycle.

``knots.verify_seven_points`` reads each cycle's skew pairs straight
off the shared crossing table.  This walks the same table (the same
seeded direction, the same crossings), traces each cycle into a
``Diagram`` with ``gauss_code`` and reads its skew pairs and Arf
invariant from that.
"""

import itertools

from knots import arf
from knots.spatial import _check_points, _shadow, gauss_code, retry


def cycle_diagrams(pts, seed):
    """(cycle, diagram) for each Hamiltonian cycle on seven points.

    One seeded generic direction, one crossing table of all 21 edges;
    each cycle, from point 0 and once per direction, walks its edges
    through that table.
    """
    edges = list(itertools.combinations(range(7), 2))
    index = {e: k for k, e in enumerate(edges)}
    segs = [(pts[a], pts[b]) for a, b in edges]
    _direction, found, over = retry(
        lambda rng: _shadow(segs, lambda i, j: bool(set(edges[i]) & set(edges[j])), rng), seed
    )
    for tail in itertools.permutations(range(1, 7)):
        if tail[0] > tail[-1]:
            continue  # each cycle once, not once per direction
        cycle = (0,) + tail
        walk = [(index[min(a, b), max(a, b)], a > b) for a, b in zip(cycle, tail + (0,))]
        yield cycle, gauss_code(found, over, [walk])


def verify_seven_points_by_diagrams(points, seed=0):
    """``verify_seven_points`` with the Arf of each cycle's diagram."""
    witness, total = None, 0
    for cycle, diagram in cycle_diagrams(_check_points(points, 7), seed):
        value = arf(diagram)
        total += value
        if value and witness is None:
            witness = cycle
    return witness, total % 2
