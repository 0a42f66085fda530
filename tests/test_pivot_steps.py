"""``pivot_steps`` against ``kernel_oracle.heap_pivot_steps``, the kernel
as it was before it picked a unit column in one pass and pushed back on
its heap only the rows that changed length or were parked.

Both take the same pivot rule, so on every input they must take the
same steps ``(row, column, pivot)`` and leave the same rows: on the
coloring matrices (the Fox matrix at t = -1) of catalog entries and
their mirrors, T(2, 2..60), seeded walks and polygon projections; on
the rows their unit steps leave, mod 3, 5 and 7; and on their packed
Conway minors, pivots compared as (e, m).  Hand-made inputs pin the
parked rows that an update gives a unit and the empty rows a dict may
hold.
"""

import random

import pytest

from knots import SpatialLink, WalkPlan, catalog, from_text, mirror, project, random_walk
from knots.colorings import closed_arcs, pivot_steps
from knots.conway import _divide, _fox_minor, _Laurent, _unit_inverse

from kernel_oracle import fox_pairs, heap_pivot_steps

UNITS = {1: 1, -1: -1}.get
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _torus(n):
    """T(2, n), the closed 2-braid sigma_1^n: a knot for odd n."""
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)) for s in (0, 1))
    return from_text(" ; ".join(comps))


def _mod(p):
    """Division in Z/p."""
    return lambda a, b: a * pow(b, -1, p) % p


def _int_div(a, b):
    assert a % b == 0, (a, b)
    return a // b


def _copy(rows):
    return {i: dict(row) for i, row in rows.items()}


def _same_steps(rows, div, one, inverse=None, key=lambda entry: entry):
    """Run both kernels on copies of the dict ``rows``; they must take the
    same steps and leave the same rows, entries compared by ``key``.
    Returns the steps and the rows left."""
    new, old = _copy(rows), _copy(rows)
    steps = pivot_steps(new, div, one, inverse)
    want = heap_pivot_steps(old, div, one, inverse)
    assert [(r, c, key(x)) for r, c, x in steps] == [(r, c, key(x)) for r, c, x in want]
    read = lambda left: {i: {j: key(v) for j, v in row.items()} for i, row in left.items()}
    assert read(new) == read(old)
    return steps, new


def _agree(d):
    """Both kernels on the coloring matrix of ``d`` over Z, on what its
    unit steps leave mod 3, 5 and 7, and on its packed Conway minor.
    Returns (unit steps, rows left, empty minor rows, Bareiss steps of
    the minor)."""
    rows = {}
    for c, fox in fox_pairs(d).items():
        if row := {col: a - b for col, (a, b) in fox.items() if a - b}:
            rows[c] = row
    units, rows = _same_steps(rows, None, 1, UNITS)
    for p in (3, 5, 7):
        rest = {i: {j: e for j, v in row.items() if (e := v % p)} for i, row in rows.items()}
        _same_steps(rest, _mod(p), 1)
    if not d.signs or closed_arcs(d):
        return len(units), len(rows), 0, 0
    _, minor, w = _fox_minor(d)
    inverse = _unit_inverse(w)
    steps, _ = _same_steps(minor, _divide, _Laurent(0, 1), inverse, lambda x: (x.e, x.m))
    bareiss = sum(not inverse(pivot) for _, _, pivot in steps)
    return len(units), len(rows), sum(not row for row in minor.values()), bareiss


def _walks():
    out = []
    for seed in range(2):
        for entry in catalog.all():
            for weights in (None, GROW):
                out.append(random_walk(entry.diagram, WalkPlan(seed, 30, weights)))
    return out


def _projections():
    rng = random.Random(1032)
    out = []
    for comps, m in ((1, 10), (1, 25), (1, 45), (2, 9), (2, 22), (3, 7), (3, 16)):
        polygon = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(m)]
            for c in range(comps)
        ]
        out.append(project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram)
    return out


SAMPLES = {
    "catalog": lambda: [x for e in catalog.all() for x in (e.diagram, mirror(e.diagram))],
    "torus": lambda: [x for n in range(2, 61) for x in (_torus(n), mirror(_torus(n)))],
    "walks": _walks,
    "projections": _projections,
}


@pytest.mark.parametrize("sample", SAMPLES)
def test_the_kernel_takes_the_reference_steps(sample):
    seen = [_agree(d) for d in SAMPLES[sample]()]
    # Unit steps, rows they leave, and Bareiss steps on the minors.
    assert sum(units for units, _, _, _ in seen) > 0
    if sample in ("walks", "projections"):
        assert sum(left for _, left, _, _ in seen) > 0, sample
    assert sum(bareiss for _, _, _, bareiss in seen) > 0, sample
    if sample == "walks":
        # A crossing whose three arcs coincide has an empty minor row.
        assert sum(empty for _, _, empty, _ in seen) > 0


@pytest.mark.parametrize("kept", [False, True], ids=["length-changes", "length-kept"])
def test_a_parked_row_that_an_update_gives_a_unit_takes_a_unit_step(kept):
    # Row 0 pops first and holds no unit, so it is parked.  The unit step
    # on row 1, on column 0 (each of its columns is held by two rows, and
    # 0 is the lowest), takes twice row 1 off row 0 and leaves it {1: 1}:
    # shorter, or with row 1's column 2, {1: 1, 2: -2}, as long as it was.
    # Row 2, without a unit, holds column 2 so that it ties.
    rows = {0: {0: 2, 1: 3}, 1: {0: 1, 1: 1}}
    if kept:
        rows[1][2], rows[2] = 1, {2: 2, 3: 3}
    steps, left = _same_steps(rows, None, 1, UNITS)
    assert steps == [(1, 0, 1), (0, 1, 1)]
    assert left == ({2: {2: 2, 3: 3}} if kept else {})


def test_an_empty_row_of_a_dict_is_skipped_in_both_stages():
    # Row 0 is empty and pops first at each stage; row 1 is parked until
    # the unit step on row 2 leaves it {1: 1, 2: 1}.  Row 3 holds no
    # unit, so it goes to a Bareiss step; row 4 then vanishes.
    rows = {
        0: {},
        1: {0: 2, 1: 3, 2: 3},
        2: {0: 1, 1: 1, 2: 1},
        3: {3: 2, 4: 3},
        4: {3: 4, 4: 6},
    }
    for div in (None, _int_div):
        steps, left = _same_steps(rows, div, 1, UNITS)
        assert steps[:2] == [(2, 0, 1), (1, 1, 1)]
        assert steps[2:] == ([] if div is None else [(3, 3, 2)])
        assert left == ({0: {}, 3: {3: 2, 4: 3}, 4: {3: 4, 4: 6}} if div is None else {0: {}})
    # Bareiss steps alone skip it too.
    steps, left = _same_steps(rows, _int_div, 1)
    assert len(steps) == 3 and left == {0: {}}
