"""Other traversals of one diagram, for tests: the same link with its
components in another order or each component started at a later pass.
"""

import itertools

from knots import Diagram, permute_components


def rotated(d, shift):
    """``d`` with every component started ``shift`` passes later."""
    return Diagram(c[k:] + c[:k] for c in d.components for k in [shift % max(1, len(c))])


def traversals(d):
    """``d`` in every component order, then with every component
    started one and two passes later."""
    orders = itertools.permutations(range(d.n_components))
    return [permute_components(d, order) for order in orders] + [rotated(d, s) for s in (1, 2)]
