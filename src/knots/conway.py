"""Conway polynomial of a plane diagram, by determinant.

Below, t is the Alexander variable and z = t^1/2 - t^-1/2, the Conway
variable (which ``ConwayPoly`` prints as ``t``).  Knots: Fox calculus
gives the Alexander matrix (``colorings.fox_rows``), one column per arc
and one row per crossing: ``1 - t`` on the over arc, ``t`` on under-in and
``-1`` on under-out at a positive crossing, ``-1`` and ``t`` at a
negative one.  Any minor without one row and one column is Delta(t) up
to a unit +-t^k.  ``colorings.eliminate``, the kernel that also ranks
the coloring matrix, reduces the minor without the last row and column
fraction-free (Bareiss) over Z[t], each step on the shortest row left,
and its last pivot is that minor.  Normalized to Delta(1) = 1
with no negative powers, t^d Delta(t) = sum_j c_2j t^(d-j) (t - 1)^(2j)
gives the c_2j from the top down.

Links: walk the components in plan order, each from its basepoint.
Changing, in visit order, each crossing between two components that is
first met from below stacks the components, which splits the link
(polynomial 0).  The skein relation C(K+) - C(K-) = z C(K0) at each
change sums C(L) from +-z C(smoothing) with one component fewer: about
n^(m-1) knot determinants for m components.  A free loop splits too.
Codes that no plane diagram realizes raise ``NonPlanarError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import comb
from typing import Optional, Sequence

from .codes import OVER, UNDER, Basepoint, Diagram, crossing_change, genus
from .colorings import arcs, eliminate, fox_rows
from .errors import DomainError, NonPlanarError
from .moves import smooth


@dataclass(frozen=True)
class ConwayPoly:
    """Integer polynomial c0 + c1 t + c2 t^2 + ... with trimmed tail."""

    coeffs: tuple

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def __add__(self, other):
        return ConwayPoly([a + b for a, b in zip_longest(self, other, fillvalue=0)])

    def __sub__(self, other):
        return ConwayPoly([a - b for a, b in zip_longest(self, other, fillvalue=0)])

    def __mul__(self, other):
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ConwayPoly(out)

    def shifted(self) -> "ConwayPoly":
        """Multiplication by t."""
        return ConwayPoly((0,) + self.coeffs) if self.coeffs else self

    def __str__(self):
        return poly_text(self)


ONE = ConwayPoly((1,))
ZERO = ConwayPoly()


def poly_text(p: ConwayPoly) -> str:
    """Readable text form, e.g. ``1 + 3t^2 + t^4`` or ``1 - t^2``."""
    terms = []
    for n, c in enumerate(p.coeffs):
        if c:
            power = "" if n == 0 else "t" if n == 1 else f"t^{n}"
            body = power if abs(c) == 1 and n else f"{abs(c)}{power}"
            sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
            terms.append(sign + body)
    return " ".join(terms) or "0"


@dataclass(frozen=True)
class DescendingPlan:
    """Traversal recipe: component order and one basepoint for each.

    ``None`` fields mean the canonical choice — components in stored
    order, each starting at its pass 0.
    """

    component_order: Optional[tuple] = None
    base: Optional[tuple] = None

    def resolve(self, d: Diagram):
        n = d.n_components
        order = tuple(range(n) if self.component_order is None else self.component_order)
        if sorted(order) != list(range(n)):
            raise DomainError(f"bad component order {order!r}")
        base = ((ci, 0) for ci in range(n)) if self.base is None else self.base
        bases = tuple(Basepoint(*b) for b in base)
        if len(bases) != n:
            raise DomainError("need one basepoint per component")
        if any(bp.component != ci for ci, bp in enumerate(bases)):
            raise DomainError("basepoint list must follow component index")
        return order, bases


CANONICAL = DescendingPlan()


def violations(d: Diagram, plan: DescendingPlan = CANONICAL):
    """Crossings whose first visit is an under pass, in visit order.

    Components are visited in plan order, each from its basepoint.
    """
    order, bases = plan.resolve(d)
    rank = {ci: r for r, ci in enumerate(order)}

    def visit(where):
        ci, k = where
        return rank[ci], (k - bases[ci].position) % len(d.components[ci])

    firsts = sorted(
        (u, c) for c, w in d.locate.items() if (u := visit(w[UNDER])) < visit(w[OVER])
    )
    return tuple(c for _, c in firsts)


def is_descending(d: Diagram, plan: DescendingPlan = CANONICAL) -> bool:
    """True when every crossing is met on top first (see module doc)."""
    return not violations(d, plan)


def _exact_div(a: ConwayPoly, b: ConwayPoly) -> ConwayPoly:
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


def _knot_conway(d: Diagram) -> ConwayPoly:
    n, aset = d.n_crossings, arcs(d)
    minor = [
        {col: poly for col, v in row.items() if col < n - 1 and (poly := ConwayPoly(v))}
        for row in list(fox_rows(d, aset).values())[:-1]
    ]
    pivots = eliminate(minor, _exact_div, ONE)
    if len(pivots) < n - 1:
        raise ArithmeticError(f"Alexander minor of {d!r} is singular")
    delta = list(pivots[-1] if pivots else ONE)
    delta = delta[next(i for i, c in enumerate(delta) if c) :]
    if sum(delta) < 0:
        delta = [-c for c in delta]
    half, coeffs = len(delta) // 2, [0] * len(delta)
    for j in range(half, -1, -1):
        coeffs[2 * j] = c = delta[half + j]
        for i in range(2 * j + 1):
            delta[half - j + i] -= c * comb(2 * j, i) * (-1) ** i
    if any(delta) or coeffs[0] != 1:
        raise ArithmeticError(f"Alexander minor of {d!r} is no knot's")
    return ConwayPoly(coeffs)


def _conway(d: Diagram, plan: DescendingPlan) -> ConwayPoly:
    if d.n_components == 1:
        return _knot_conway(d)
    if d.free_loops:
        return ZERO
    total = ZERO
    for v in violations(d, plan):
        if d.locate[v][OVER][0] != d.locate[v][UNDER][0]:
            term = _conway(smooth(d, v), CANONICAL).shifted()
            total = total + term if d.signs[v] > 0 else total - term
            d = crossing_change(d, v)
    return total


def conway(d: Diagram, plan: Optional[DescendingPlan] = None) -> ConwayPoly:
    """Conway polynomial of the diagram.

    Args:
        d: a diagram realizable in the plane.
        plan: optional traversal plan for the link reduction; the result
            does not depend on it (a tested property of the invariant).

    Returns:
        ConwayPoly with integer coefficients.

    Raises:
        DomainError: if ``plan`` does not fit the diagram.
        NonPlanarError: if no plane diagram has this code.
    """
    plan = CANONICAL if plan is None else plan
    plan.resolve(d)
    genera = genus(d)
    if any(genera):
        raise NonPlanarError(f"no plane diagram has this code: genera {genera}")
    return _conway(d, plan)


def coefficient(d: Diagram, n: int) -> int:
    """c_n of the Conway polynomial; c_{-1} is 0 by convention."""
    if n < -1:
        raise DomainError(f"no coefficient c_{n}")
    return conway(d)[n] if n >= 0 else 0
