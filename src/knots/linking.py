"""Linking numbers of link diagrams, integer and mod 2.

For an ordered pair of components (i, j), lk counts the crossings where
component i passes over component j, each weighted by its sign; lk2 is
the same count mod 2 without weights.  Component order does not in fact
matter: for any two closed curves in general position in the plane the
total signed intersection count vanishes, which forces the i-over-j and
j-over-i signed counts to coincide on every diagram.  That identity is
asserted in the tests rather than assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import OVER, UNDER, Diagram, diagram_arg
from .errors import DomainError


@dataclass(frozen=True)
class LinkingReport:
    """lk2 and lk for one ordered component pair."""

    pair: tuple
    lk2: int
    lk: int

    def __post_init__(self):
        if self.lk % 2 != self.lk2:
            raise AssertionError("lk and lk2 disagree mod 2")


def _check_pair(d: Diagram, i: int, j: int):
    n = diagram_arg(d).n_components
    ints = all(isinstance(k, int) and not isinstance(k, bool) for k in (i, j))  # True reads as 1
    if not ints or not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"component pair ({i!r}, {j!r}) out of range")
    if i == j:
        raise DomainError("linking needs two distinct components")


def _over_crossings(d: Diagram, i: int, j: int):
    """Crossings where component i is the over strand and j the under."""
    for c, where in d.locate.items():
        if where[OVER][0] == i and where[UNDER][0] == j:
            yield c


def lk2(d: Diagram, i: int, j: int) -> int:
    """Mod-2 linking number of components i and j.

    Args:
        d: any diagram.
        i, j: distinct component indices.

    Returns:
        The number of crossings where i passes over j, mod 2.
    """
    _check_pair(d, i, j)
    return sum(1 for _ in _over_crossings(d, i, j)) % 2


def lk(d: Diagram, i: int, j: int) -> int:
    """Integer linking number: signed count of i-over-j crossings."""
    _check_pair(d, i, j)
    return sum(d.signs[c] for c in _over_crossings(d, i, j))


def linking_matrix(d: Diagram):
    """LinkingReport for every ordered component pair, sorted by pair."""
    out = []
    for i in range(diagram_arg(d).n_components):
        for j in range(d.n_components):
            if i != j:
                out.append(LinkingReport((i, j), lk2(d, i, j), lk(d, i, j)))
    return tuple(out)
