"""``colorings.fox_rows(d, t)``, the one Fox matrix, against
``kernel_oracle.fox_pairs``, the same matrix with each entry a + b*t kept
as the pair (a, b) from its own walk of the arcs.

At t = -1, 2 and 2^w the rows must be a + b*t of the pairs, zero
entries and then empty rows dropped; and ``conway._fox_minor``, which
reads its width at t = -1 and its entries at t = 2^w, must give the
width and the packed (e, m) entries that the pairs give.  The diagrams
are catalog entries and their mirrors, T(2, 2..60) of both hands, seeded
walks, polygon projections of up to about 300 crossings, free loops,
split links, and kinks and links whose arcs coincide at a crossing.
"""

import random

import pytest

from knots import (
    SpatialLink,
    WalkPlan,
    catalog,
    disjoint_union,
    from_text,
    mirror,
    project,
    random_walk,
)
from knots.colorings import closed_arcs, fox_rows
from knots.conway import _fox_minor

from kernel_oracle import fox_pairs

GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}
# Arcs that coincide at a crossing: over = under-in (O4 U4), over =
# under-out (U4 O4), under-in = under-out (components that go under
# once), all three (a lone kink, its row 0), and closed arcs.
COINCIDING = (
    "O4+ U4+ O1+ U2+ O3+ U1+ O2+ U3+",
    "U4+ O4+ O1+ U2+ O3+ U1+ O2+ U3+",
    "U4- O4- O1- U2- O3- U1- O2- U3-",
    "O1+ U2+ ; O2+ U1+",
    "O1- U2- ; O2- U1-",
    "O1+ U1+",
    "O1- U1-",
    "O1+ U1+ ; O2+ U2+",
    "O1+ O2+ ; U1+ U2+",
    "() ; O1+ O2+ ; U1+ U2+",
)


def _torus(n):
    """T(2, n), the closed 2-braid sigma_1^n: a knot for odd n."""
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)) for s in (0, 1))
    return from_text(" ; ".join(comps))


def _walks():
    out = []
    starts = [e.diagram for e in catalog.all()]
    for seed in range(2):
        for i, d in enumerate(starts):
            walked = random_walk(d, WalkPlan(seed, 25, GROW if (seed + i) % 2 else None))
            out += [walked, mirror(walked), disjoint_union(walked, starts[(i + 3) % len(starts)])]
            out.append(disjoint_union(walked, from_text("() ; O1+ U1+" if i % 2 else "()")))
    return out


def _projections():
    rng = random.Random(1033)
    out = []
    for comps, m in ((1, 10), (1, 30), (1, 52), (2, 9), (2, 22), (3, 7), (3, 16)):
        polygon = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(m)]
            for c in range(comps)
        ]
        out.append(project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram)
    return out


SAMPLES = {
    "coinciding": lambda: [from_text(text) for text in COINCIDING],
    "loops": lambda: [from_text("()"), from_text("() ; ()"), from_text("() ; () ; ()")],
    "catalog": lambda: [x for e in catalog.all() for x in (e.diagram, mirror(e.diagram))],
    "torus": lambda: [x for n in range(2, 61) for x in (_torus(n), mirror(_torus(n)))],
    "walks": _walks,
    "projections": _projections,
}


def _pair_minor(d):
    """(order, rows, w) of ``_fox_minor`` from the pairs, as it was built
    before the matrix was evaluated at an integer t, entries as (e, m)."""
    fox, order = fox_pairs(d), sorted(d.signs)
    minor = [
        {j: v for j, v in fox[c].items() if j != order[0] and v != (0, 0)} for c in order[1:]
    ]
    bound = 1
    for row in minor:
        bound *= sum((abs(a) + abs(b)) ** 2 for a, b in row.values()) or 1
    w = (bound.bit_length() + 1) // 2 + 1
    rows = {
        i: {j: (0, a + (b << w)) if a else (w, b) for j, (a, b) in row.items()}
        for i, row in enumerate(minor)
    }
    return order, rows, w


def _at(pairs, t):
    """a + b*t of every pair, zero entries and then empty rows dropped."""
    out = {}
    for c, row in pairs.items():
        if values := {j: v for j, (a, b) in row.items() if (v := a + b * t)}:
            out[c] = values
    return out


def _agree(d):
    """Checks ``d``; returns its zero rows and its rows with coinciding
    arcs (fewer than three entries)."""
    pairs, ts = fox_pairs(d), [-1, 2]
    if d.signs and not closed_arcs(d):
        order, rows, w = _fox_minor(d)
        want = _pair_minor(d)
        assert order == want[0] and w == want[2], d
        assert {i: {j: (x.e, x.m) for j, x in row.items()} for i, row in rows.items()} == want[1]
        ts.append(1 << w)
    for t in ts:
        got, want = fox_rows(d, t), _at(pairs, t)
        assert list(got) == list(want) and got == want, (d, t)
    rows = fox_rows(d, -1)
    return len(pairs) - len(rows), sum(len(row) < 3 for row in rows.values())


@pytest.mark.parametrize("sample", SAMPLES)
def test_fox_rows_are_the_pairs_evaluated_at_t(sample):
    diagrams = SAMPLES[sample]()
    seen = [_agree(d) for d in diagrams]
    if sample in ("coinciding", "walks"):
        # A kink whose three arcs coincide (its row is 0), and rows whose
        # coinciding arcs were summed.
        assert sum(zero for zero, _ in seen) > 0 and sum(s for _, s in seen) > 0
    if sample == "projections":
        assert max(d.n_crossings for d in diagrams) >= 250


def test_a_sign_shows_only_away_from_minus_one():
    # The two hands of the trefoil have one coloring matrix, but not one
    # matrix at t = 2; the right hand's, by hand.
    d = from_text("O1+ U2+ O3+ U1+ O2+ U3+")
    assert fox_rows(d, -1) == fox_rows(mirror(d), -1)
    assert fox_rows(d, 2) != fox_rows(mirror(d), 2)
    rows = {1: {2: -1, 1: 2, 3: -1}, 2: {3: -1, 2: 2, 1: -1}, 3: {1: -1, 3: 2, 2: -1}}
    assert fox_rows(d, 2) == rows
