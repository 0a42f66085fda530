"""Seven-point cycles the slow way, for tests only: one ``Diagram`` per
Hamiltonian cycle.

``knots.verify_seven_points`` counts the skew pairs of all cycles at
once, as bit masks over cycles.  This walks the same table (the same
seeded direction, the same crossings), traces each cycle into a
``Diagram`` with ``gauss_code`` and reads its skew pairs and Arf
invariant from that.  ``cycle_walks`` gives each cycle's steps straight
from its vertex order, a reference for the cycle masks.
"""

import itertools

from knots import arf
from knots.spatial import _check_points, _shadow, gauss_code, retry

EDGES = list(itertools.combinations(range(7), 2))


def cycle_walks():
    """(cycle, walk) for each Hamiltonian cycle on seven points, from
    point 0 and once per direction: the walk lists (edge index,
    reversed) step by step, an edge reversed when walked from its
    higher point."""
    index = {e: k for k, e in enumerate(EDGES)}
    for tail in itertools.permutations(range(1, 7)):
        if tail[0] > tail[-1]:
            continue  # each cycle once, not once per direction
        cycle = (0,) + tail
        yield cycle, [(index[min(a, b), max(a, b)], a > b) for a, b in zip(cycle, tail + (0,))]


def cycle_table(pts, seed):
    """(found, over): the crossing table of all 21 edges along one
    seeded generic direction."""
    segs = [(pts[a], pts[b]) for a, b in EDGES]
    _direction, found, over = retry(
        lambda rng: _shadow(segs, lambda i, j: bool(set(EDGES[i]) & set(EDGES[j])), rng), seed
    )
    return found, over


def cycle_diagrams(pts, seed):
    """(cycle, diagram) for each Hamiltonian cycle on seven points, each
    cycle's walk traced through one ``cycle_table``."""
    found, over = cycle_table(pts, seed)
    for cycle, walk in cycle_walks():
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
