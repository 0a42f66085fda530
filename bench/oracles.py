"""Expected values that do not come from the code under test.

Every benchmark item is checked against one of these:

* closed forms for the torus knots and links T(2, n);
* the frozen catalog goldens (``golden.json``), combined by the
  connected-sum rules;
* theorems about point sets (Conway-Gordon parity, linked triangles),
  with the triangle linking decided here by a projection count that
  shares no code with ``knots.spatial``;
* the order-two and order-three symbols of the Casson invariant.

Invariant values are compared as plain dicts: ``conway`` (coefficient
list), ``casson``, ``arf``, ``lk`` (off-diagonal matrix), and
``colorings`` ({p: total}).
"""

from __future__ import annotations

from math import comb

PRIMES = (3, 5)


def _colorings(det: int) -> dict:
    """Fox coloring totals of T(2, n), whose determinant is ``det`` = n.

    Its coloring space mod p is the constants plus one more dimension
    exactly when p divides n (the double branched cover is L(n, 1)).
    """
    return {p: p ** (1 + (det % p == 0)) for p in PRIMES}


def torus_2n(n: int, mirrored: bool = False) -> dict:
    """Invariants of T(2, n), n >= 2, drawn as the closure of sigma_1^n.

    Odd n = 2k+1 is a knot: c_2j = C(k+j, 2j), casson = C(k+1, 2).
    Even n = 2k is a two-component link: c_(2j-1) = C(k+j-1, 2j-1) and
    lk = k.  Both follow from C(T(2,n)) = C(T(2,n-2)) + t C(T(2,n-1)).
    The mirror image keeps a knot's values and negates a two-component
    link's polynomial and linking number.  The determinant is n.
    """
    if n < 2:
        raise ValueError("T(2, n) needs n >= 2")
    k, odd = divmod(n, 2)
    if odd:
        conway = [0] * (2 * k + 1)
        for j in range(k + 1):
            conway[2 * j] = comb(k + j, 2 * j)
        casson = comb(k + 1, 2)
        return {
            "conway": conway,
            "casson": casson,
            "arf": casson % 2,
            "colorings": _colorings(n),
        }
    sign = -1 if mirrored else 1
    conway = [0] * (2 * k)
    for j in range(1, k + 1):
        conway[2 * j - 1] = sign * comb(k + j - 1, 2 * j - 1)
    return {
        "conway": conway,
        "lk": [[0, sign * k], [sign * k, 0]],
        "colorings": _colorings(n),
    }


def golden_invariants(golden) -> dict:
    """Catalog golden values in the comparison format used here."""
    out = {
        "conway": list(golden.conway),
        "colorings": {int(p): tc[0] for p, tc in golden.colorings.items()},
    }
    if "casson" in golden:
        out["casson"] = golden.casson
        out["arf"] = golden.arf
    else:
        out["lk"] = [list(row) for row in golden.lk]
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _nullity(total: int, p: int) -> int:
    d = 0
    while total > 1:
        total, rest = divmod(total, p)
        if rest:
            raise ValueError(f"{total} is not a power of {p}")
        d += 1
    return d


def connected_sum(parts) -> dict:
    """Invariants of a connected sum of knots from the summands' values.

    The Conway polynomial is multiplicative, the Casson invariant is
    additive, Arf adds mod 2, and the coloring nullities add up less one
    for each sum taken (the monochromatic colorings are shared).
    """
    conway = [1]
    for part in parts:
        conway = _poly_mul(conway, part["conway"])
    casson = sum(part["casson"] for part in parts)
    colorings = {}
    for p in PRIMES:
        nullity = sum(_nullity(part["colorings"][p], p) for part in parts)
        colorings[p] = p ** (nullity - (len(parts) - 1))
    return {
        "conway": conway,
        "casson": casson,
        "arf": casson % 2,
        "colorings": colorings,
    }


def compare(got: dict, want: dict):
    """The first key whose value differs, as a message; None if all agree."""
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, want {value!r}"
    return None


# ----------------------------------------------------------------------
# Geometry


def _crossing_2d(p1, p2, q1, q2):
    """Parameters (t, u) where segment p crosses segment q in the xy-plane."""
    dx, dy = p2[0] - p1[0], p2[1] - p1[1]
    ex, ey = q2[0] - q1[0], q2[1] - q1[1]
    denom = dx * ey - dy * ex
    if denom == 0:
        return None
    rx, ry = q1[0] - p1[0], q1[1] - p1[1]
    t = (rx * ey - ry * ex) / denom
    u = (rx * dy - ry * dx) / denom
    if 0 < t < 1 and 0 < u < 1:
        return t, u
    return None


def triangles_link(t1, t2) -> int:
    """Linking number of two triangles, from their shadow on the xy-plane.

    Sums the signs of the crossings where an edge of t1 passes over an
    edge of t2.  Generic random points never give a tangency, so float
    arithmetic decides every crossing.
    """
    total = 0
    for a in range(3):
        p1, p2 = t1[a - 1], t1[a]
        for b in range(3):
            q1, q2 = t2[b - 1], t2[b]
            hit = _crossing_2d(p1, p2, q1, q2)
            if hit is None:
                continue
            t, u = hit
            zp = p1[2] + t * (p2[2] - p1[2])
            zq = q1[2] + u * (q2[2] - q1[2])
            if zp < zq:
                continue
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            ex, ey = q2[0] - q1[0], q2[1] - q1[1]
            total += 1 if dx * ey - dy * ex > 0 else -1
    return total


def check_six(points, witness):
    """None when ``witness`` splits the six points into linked triangles."""
    first, second = witness
    if sorted(first + second) != list(range(6)):
        return f"witness {witness} is not a partition of the six points"
    lk = triangles_link([points[i] for i in first], [points[i] for i in second])
    if lk == 0:
        return f"triangles {first} and {second} are not linked"
    return None


def check_seven(result):
    """None when the Conway-Gordon parity is 1 with a Hamiltonian witness."""
    witness, parity = result
    if parity != 1:
        return f"parity {parity}, want 1"
    if witness is None or witness[0] != 0 or sorted(witness) != list(range(7)):
        return f"witness {witness} is not a Hamiltonian cycle from point 0"
    return None


# symbol(casson, n) values keyed by chord word: Casson is an order-two
# invariant, so its order-three symbol vanishes identically.
CASSON_SYMBOLS = {
    2: {"1122": 0, "1212": 1},
    3: {"112233": 0, "112323": 0, "112332": 0, "121323": 0, "123123": 0},
}


def check_symbol(n, result):
    values, consistent = result
    got = {cd.word: v for cd, v in values.items()}
    if got != CASSON_SYMBOLS[n] or not consistent:
        return f"symbol(casson, {n}) = {got}, consistent={consistent}"
    return None
