"""Conway polynomial of a plane diagram, by one signed determinant.

Below, t is the Alexander variable and z = t^1/2 - t^-1/2, the Conway
variable (which ``ConwayPoly`` prints as ``t``).  Fox calculus gives the
Alexander matrix (``colorings.fox_rows``), one row per crossing and one
column per arc: ``1 - t`` on the over arc, ``t`` on under-in and ``-1`` on
under-out at a positive crossing, ``-1`` and ``t`` at a negative one.
Each arc's column is keyed by the crossing where it ends, at an under
pass.  When every component goes under, rows and columns so carry the
same labels c1 < c2 < ... < cn.  Otherwise some component is a closed
arc (``colorings.closed_arcs``; a free loop, say) and lifts off the
rest: the polynomial is 1 for a knot and 0 for a link.

The principal minor D without c1 is Delta(t) up to a unit +-t^k, and
the diagram fixes the sign (as Hartley, "The Conway potential function
for links", Comment. Math. Helv. 58, 1983, shows): with
eps = sign(c1) * (-1)^(number of negative crossings),

    eps * D = t^k * t^(K/2) * C(t^1/2 - t^-1/2),   K = deg C.

With t^k dropped, the term c_j z^j of C gives c_j t^((K-j)/2) (t - 1)^j
in D.  So c_0 is D(1), the sum of D's coefficients; taking it off the
middle power t^(K/2) leaves a multiple of t - 1, whose quotient by
t - 1 (synthetic division) yields c_1 the same way, and so on.  A D
that is not palindromic leaves some c_j != 0 where no middle power
exists.

``colorings.pivot_steps``, the kernel that also ranks the coloring
matrix, reduces D over Z[t, 1/t]: by unit steps while a row holds a
unit +-t^k (each Fox row holds t and -1), then by Bareiss steps.  D is
the sign of their row -> column permutation, times the signs of the
unit pivots, times the last Bareiss pivot.  A singular minor means
C = 0 for a link.  A knot has Delta(1) = +-1, so there a singular minor,
or C(0) != 1 (a failed sign rule), raises ``ArithmeticError``.  Codes
that no plane diagram realizes raise ``NonPlanarError``.

The pivots carry large powers of t (units of Z[t, 1/t], which the
determinant ignores), so an entry t^lo * A(t) of the elimination, with
A(0) != 0, is kept as one integer: its value at t = 2^w, stored as
m * 2^e with m odd.  A product multiplies the m's and adds the e's; a
difference shifts the operand with the higher e left by the gap, so a
zero operand keeps the other's exponent (aligning it to e = 0 would pad
every fill-in entry with zeros); a quotient is a ``divmod`` of the m's
that must leave no remainder.  A quotient, and a difference of equal
exponents (odd minus odd), move the zero bits of m into e: an even m
would hide a unit +-t^k (m = +-1, e a multiple of w) from the unit
steps, which divide nothing, and leave a leading zero digit on the last
pivot.  Evaluation at 2^w is a ring map into Z[1/2], so products and
differences are exact, and as the divisor's m is odd, it divides the
dividend's m whenever the Laurent division is exact.  The width must
make the map one-to-one on the entries the kernel keeps, so that no
nonzero entry reads as zero and every pivot reads back: in signed w-bit
digits, A(2^w) = m * 2^(e mod w) and lo = e div w (floored).  Every
kept entry is a unit times a minor of the Fox minor, and by Hadamard's
bound on |t| = 1 each coefficient of a minor is at most the root of

    P = prod over rows of (sum over entries of (|a| + |b|)^2),

for entries a + b*t.  So w = (bits of P + 1) // 2 + 1 puts every
coefficient strictly inside +-2^(w-1), where the digits are unique.  A
row is not always worth 6: a component with one under pass has the row
(1 - t, t - 1), worth 8, so P is taken from the rows of the minor.

``violations`` and ``is_descending`` describe the crossing changes that
unknot a diagram or split a link.  They walk each component from its
first pass and visit components in stored order; another basepoint or
component order is another diagram (rotate a component's passes, or
``permute_components``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, takewhile, zip_longest
from math import prod
from typing import Sequence

from .codes import OVER, UNDER, Diagram, diagram_arg
from .colorings import closed_arcs, fox_rows, pivot_steps
from .errors import DomainError


@dataclass(frozen=True)
class ConwayPoly:
    """Integer polynomial c0 + c1 t + c2 t^2 + ... with trimmed tail.

    Coefficients must be ints (not bools), else ``DomainError``; ``+``,
    ``-`` and ``*`` take only another ``ConwayPoly``.
    """

    coeffs: tuple

    def __init__(self, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise DomainError(f"coefficients must be ints, got {c!r}")
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
        if not isinstance(other, ConwayPoly):
            return NotImplemented
        return ConwayPoly([a + b for a, b in zip_longest(self, other, fillvalue=0)])

    def __sub__(self, other):
        if not isinstance(other, ConwayPoly):
            return NotImplemented
        return ConwayPoly([a - b for a, b in zip_longest(self, other, fillvalue=0)])

    def __mul__(self, other):
        if not isinstance(other, ConwayPoly):
            return NotImplemented
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
        """Readable text form, e.g. ``1 + 3t^2 + t^4`` or ``1 - t^2``."""
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                power = "" if n == 0 else "t" if n == 1 else f"t^{n}"
                body = power if abs(c) == 1 and n else f"{abs(c)}{power}"
                sign = ("" if c > 0 else "-") if not terms else ("+ " if c > 0 else "- ")
                terms.append(sign + body)
        return " ".join(terms) or "0"


ONE = ConwayPoly((1,))
ZERO = ConwayPoly()


def violations(d: Diagram):
    """Crossings whose first visit is an under pass, in visit order.

    Components are visited in stored order, each from its first pass.
    """
    firsts = sorted((w[UNDER], c) for c, w in diagram_arg(d).locate.items() if w[UNDER] < w[OVER])
    return tuple(c for _, c in firsts)


def is_descending(d: Diagram) -> bool:
    """True when every crossing is met on top first (see module doc)."""
    return not violations(d)


class _Laurent:
    """An entry t^lo * A(t) at t = 2^w: the number m * 2^e, m odd or 0."""

    __slots__ = ("e", "m")

    def __init__(self, e: int, m: int):
        self.e, self.m = e, m

    def __mul__(self, other):
        return _Laurent(self.e + other.e, self.m * other.m)

    def __sub__(self, other):
        if not (self.m and other.m):  # a zero keeps the other operand's exponent
            return _Laurent(other.e, -other.m) if other.m else self
        gap = self.e - other.e
        if gap > 0:
            return _Laurent(other.e, (self.m << gap) - other.m)
        if gap < 0:
            return _Laurent(self.e, self.m - (other.m << -gap))
        return _odd(self.e, self.m - other.m)  # odd minus odd is even

    def __bool__(self):
        return self.m != 0


def _divide(a: _Laurent, b: _Laurent) -> _Laurent:
    """a / b, where b divides a in Z[t, 1/t] (as Bareiss guarantees)."""
    q, rest = divmod(a.m, b.m)
    if rest:
        # Sizes only: the decimal text of a long int can pass str()'s digit limit.
        raise ArithmeticError(
            f"a {b.m.bit_length()}-bit entry does not divide a {a.m.bit_length()}-bit one"
        )
    return _odd(a.e - b.e, q)


def _odd(e: int, m: int) -> _Laurent:
    """m * 2^e as a ``_Laurent``, the zero bits of m moved into e."""
    zeros = (m & -m).bit_length() - 1
    return _Laurent(e + zeros, m >> zeros) if m else _Laurent(e, 0)


def _unit_inverse(w: int):
    """``pivot_steps``' ``inverse`` at t = 2^w: a unit +-t^k has m = +-1, w | e."""
    return lambda x: _Laurent(-x.e, x.m) if (x.m == 1 or x.m == -1) and not x.e % w else None


def _fox_minor(d: Diagram):
    """(order, rows, w): the Fox matrix of ``d`` less the row and column
    of ``order[0]``, its lowest label, as a dict index -> row of
    ``_Laurent`` entries at t = 2^w (w: see the module docstring)."""
    fox, order = fox_rows(d), sorted(d.signs)
    minor = [{j: v for j, v in fox[c].items() if j != order[0] and v != (0, 0)} for c in order[1:]]
    bound = 1
    for row in minor:
        bound *= sum((abs(a) + abs(b)) ** 2 for a, b in row.values()) or 1
    w = (bound.bit_length() + 1) // 2 + 1
    # An entry a + b*t has a in {-1, 0, 1}, and b = +-1 when a = 0, so m is odd.
    rows = {
        i: {j: _Laurent(0, a + (b << w)) if a else _Laurent(w, b) for j, (a, b) in row.items()}
        for i, row in enumerate(minor)
    }
    return order, rows, w


def _digits(x: _Laurent, w: int):
    """(lo, [c0, c1, ...]) with x = t^lo * (c0 + c1 t + ...) at t = 2^w and
    c0 != 0, each c read as a signed w-bit digit."""
    lo = x.e // w
    v, half, mask, out = x.m << (x.e - lo * w), 1 << (w - 1), (1 << w) - 1, []
    while v:
        c = ((v + half) & mask) - half
        out.append(c)
        v = (v - c) >> w
    return lo, out


def _sign(perm: dict) -> int:
    """Sign of a permutation given as a dict, by walking its cycles."""
    sign, left = 1, set(perm)
    for start in perm:
        if start in left:
            k = perm[start]
            while k != start:
                left.discard(k)
                k, sign = perm[k], -sign
    return sign


def conway(d: Diagram) -> ConwayPoly:
    """Conway polynomial of the diagram.

    Args:
        d: a diagram realizable in the plane.

    Returns:
        ConwayPoly with integer coefficients.

    Raises:
        DomainError: if ``d`` is not a ``Diagram``.
        NonPlanarError: if no plane diagram has this code, naming the
            first piece of genus > 0.
    """
    knot, n = diagram_arg(d, planar=True).n_components == 1, d.n_crossings
    if closed_arcs(d):
        return ONE if knot else ZERO
    order, minor, w = _fox_minor(d)
    inverse = _unit_inverse(w)
    steps = pivot_steps(minor, _divide, _Laurent(0, 1), inverse)
    if len(steps) < n - 1:
        if knot:
            raise ArithmeticError(f"Alexander minor of {d!r} is singular")
        return ZERO
    negatives = sum(s < 0 for s in d.signs.values())
    sign = d.signs[order[0]] * (-1) ** negatives * _sign({order[r + 1]: c for r, c, _ in steps})
    pivots = [pivot for _, _, pivot in steps]
    units = list(takewhile(inverse, pivots))  # the first Bareiss pivot ends the run
    sign *= prod(x.m for x in units)
    last = pivots[-1] if len(units) < len(pivots) else _Laurent(0, 1)
    q = [sign * c for c in reversed(_digits(last, w)[1])]
    coeffs = []
    while q:
        coeffs.append(c := sum(q))  # the value at t = 1
        if c and len(q) % 2 == 0:  # no middle power: D is not palindromic
            break
        q[len(q) // 2] -= c
        q = list(accumulate(q))[:-1]  # divided by t - 1, remainder 0
    if q or coeffs[0] != knot:
        raise ArithmeticError(f"Alexander minor of {d!r} is no link's")
    return ConwayPoly(coeffs)


def coefficient(d: Diagram, n: int) -> int:
    """c_n of the Conway polynomial, for an int n >= -1 (not a bool);
    c_{-1} is 0 by convention."""
    if isinstance(n, bool) or not isinstance(n, int) or n < -1:
        raise DomainError(f"no coefficient c_{n}")
    return conway(d)[n] if n >= 0 else 0
