"""Fox p-colorings: arc extraction, rank counts, the +-1 reduction shared
by every prime, the elimination kernel, the brute-force and dense-rank
oracles, and independence of the labels."""

import itertools
import random
import time

import pytest

from knots import (
    ConwayPoly,
    Diagram,
    DomainError,
    Pass,
    SpatialLink,
    WalkPlan,
    apply_move,
    catalog,
    conway,
    count_colorings,
    crossing_change,
    disjoint_union,
    enumerate_sites,
    from_text,
    is_colorable,
    mirror,
    project,
    random_walk,
)
import knots.colorings
from knots.colorings import pivot_steps, unit_reduction

from coloring_oracle import (
    arc_split,
    count_colorings_by_dense_rank,
    count_colorings_by_enumeration,
    rank_mod_p,
)
from kernel_oracle import exact_div as _exact_div, fox_pairs, scanning_pivot_steps

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
FIG8 = "O1- U2+ O3+ U1- O4- U3+ O2+ U4-"
FIVE_1 = "O1+ U2+ O3+ U4+ O5+ U1+ O2+ U3+ O4+ U5+"
HOPF = "O1+ U2+ ; O2+ U1+"
WHITEHEAD = "U1- O2- U3+ O4+ ; O1- U5+ O3+ U4+ O5+ U2-"
BORROMEAN = "O1+ U5+ O2- U6- ; O3+ U1+ O4- U2- ; O5+ U3+ O6- U4-"
# (2,6) torus link: three of the six crossings between each arc pair.
TORUS_2_6 = "O1+ U2+ O3+ U4+ O5+ U6+ ; O2+ U3+ O4+ U5+ O6+ U1+"


def test_arc_counts():
    assert arc_split(from_text(TREFOIL)).count == 3
    assert arc_split(from_text(FIG8)).count == 4
    assert arc_split(from_text(FIVE_1)).count == 5
    # One under pass per Hopf component, so one arc each.
    assert arc_split(from_text(HOPF)).count == 2
    assert arc_split(from_text(WHITEHEAD)).count == 5
    assert arc_split(from_text(BORROMEAN)).count == 6
    assert arc_split(from_text("()")).count == 1
    assert arc_split(from_text("() ; ()")).count == 2


def test_component_with_no_unders_is_one_closed_arc():
    d = from_text("O1+ O2+ ; U1+ U2+")
    assert arc_split(d).count == 3  # one closed over-arc, two under-cut arcs


def test_three_colorings_golden():
    assert count_colorings(from_text(TREFOIL), 3).proper == 6
    assert count_colorings(from_text(TREFOIL), 3).total == 9
    for text in ("()", FIG8, HOPF, WHITEHEAD, BORROMEAN):
        assert count_colorings(from_text(text), 3).proper == 0


def test_five_colorings_golden():
    assert count_colorings(from_text(FIVE_1), 5).proper == 20
    assert count_colorings(from_text(FIG8), 5).proper == 20
    assert count_colorings(from_text(TREFOIL), 5).proper == 0
    assert count_colorings(from_text("()"), 5).proper == 0


def test_is_colorable_wrapper():
    assert is_colorable(from_text(TREFOIL), 3)
    assert not is_colorable(from_text(TREFOIL), 5)
    assert is_colorable(from_text(FIVE_1), 5)
    assert not is_colorable(from_text(FIVE_1), 3)


def test_a_three_colorable_link_exists_in_the_wild():
    # The (2,6) torus link is the classic 3-colorable 2-component link.
    d = from_text(TORUS_2_6)
    c = count_colorings(d, 3)
    assert c.proper > 0
    assert c == count_colorings_by_enumeration(d, 3)


def test_unlink_colorings_are_unconstrained():
    d = from_text("() ; ()")
    assert count_colorings(d, 3).total == 9
    assert count_colorings(d, 3).proper == 6
    assert count_colorings(d, 5).total == 25


def test_brute_force_agreement_on_small_diagrams():
    texts = ("()", "() ; ()", TREFOIL, FIG8, FIVE_1, HOPF, WHITEHEAD, BORROMEAN)
    for text in texts:
        d = from_text(text)
        for p in (3, 5):
            if p ** arc_split(d).count <= 5**6:
                assert count_colorings(d, p) == count_colorings_by_enumeration(d, p)


def test_trichromatic_equivalence_on_the_trefoil():
    # 2*over = a + b mod 3 is the same as "all equal or all distinct".
    d = from_text(TREFOIL)
    a = arc_split(d)
    good = 0
    for combo in itertools.product(range(3), repeat=a.count):
        ok = True
        for c in d.signs:
            trio = (combo[a.over[c]], combo[a.under_in[c]], combo[a.under_out[c]])
            if len(set(trio)) == 2:  # exactly two values meet at a crossing
                ok = False
                break
        good += ok
    assert good == count_colorings(d, 3).total


def test_modulus_must_be_an_odd_prime():
    d = from_text(TREFOIL)
    for p in (0, 1, 2, 4, 9, 15, 2**61 - 1, 2**31, 3.0, True, "3"):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="odd prime int below 2\\*\\*31"):
            count_colorings(d, p)
        # Trial division up to the root of 2**61 - 1 would take minutes.
        assert time.perf_counter() - start < 1.0, p
    # Large prime moduli are fine, up to the limit.
    assert count_colorings(d, 7).proper == 0
    p = 2**31 - 1  # prime
    assert count_colorings(d, p).total == p


def test_counts_are_powers_of_p_times_monochromatic_defect():
    for text in (TREFOIL, FIG8, FIVE_1, HOPF, WHITEHEAD, BORROMEAN):
        d = from_text(text)
        for p in (3, 5):
            c = count_colorings(d, p)
            assert c.total % p == 0
            assert c.proper == c.total - p


PRIMES = (3, 5, 7, 11)
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _dense_agrees(d):
    for p in PRIMES:
        assert count_colorings(d, p) == count_colorings_by_dense_rank(d, p), (d, p)


def test_dense_rank_oracle_on_seeded_walks_and_free_loops():
    starts = [e.diagram for e in catalog.all()]
    for seed in range(6):
        for i, d in enumerate(starts):
            weights = GROW if (seed + i) % 2 else None
            walked = random_walk(d, WalkPlan(seed=seed, steps=15, weights=weights))
            _dense_agrees(walked)
            _dense_agrees(disjoint_union(walked, from_text("()")))
    # ``closed`` has two components that never go under: two closed arcs.
    closed = "O1+ O2+ ; O3+ O4+ ; U1+ U3+ U2+ U4+"
    for text in ("() ; " + TREFOIL, "() ; () ; " + FIVE_1, TORUS_2_6 + " ; ()", closed):
        _dense_agrees(from_text(text))


def _torus(n):
    """T(2, n), the closed 2-braid sigma_1^n: a knot for odd n."""
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)) for s in (0, 1))
    return from_text(" ; ".join(comps))


TORI = (101, 102, 135, 168)


@pytest.mark.parametrize("n", TORI)
def test_dense_rank_oracle_on_torus_bands(n):
    # Every Fox row of T(2, n) meets its neighbours in a cyclic band,
    # where the choice of pivot column changes the fill-in most.
    d = _torus(n)
    _dense_agrees(d)
    _dense_agrees(mirror(d))


def _relabelled(d, rng):
    """``d`` with its crossings renumbered by a random injection into 1..3n."""
    old = sorted(d.signs)
    new = dict(zip(old, rng.sample(range(1, 3 * len(old) + 1), len(old))))
    return Diagram([[Pass(new[c], role, sign) for c, role, sign in comp] for comp in d.components])


def test_labels_do_not_matter():
    # Fox columns are keyed by labels, and Hartley's sign reads the lowest.
    rng = random.Random(13)
    entries = catalog.all()
    diagrams = [e.diagram for e in entries]
    for seed in range(6):
        start = entries[1 + seed % (len(entries) - 1)].diagram
        diagrams.append(random_walk(start, WalkPlan(seed=seed, steps=40)))
    assert sum(max(d.signs, default=0) > d.n_crossings for d in diagrams) >= 3
    moved = 0
    for d in diagrams:
        want = (conway(d), count_colorings(d, 3), count_colorings(d, 5))
        for _ in range(3):
            e = _relabelled(d, rng)
            assert (conway(e), count_colorings(e, 3), count_colorings(e, 5)) == want, (d, e)
            if d.signs:
                moved += e.locate[min(e.signs)] != d.locate[min(d.signs)]
    assert moved >= 20, moved  # often another crossing is c1


def test_dense_rank_oracle_on_polygon_projections():
    rng = random.Random(20261018)
    sizes = []
    for comps, m in ((1, 12), (1, 25), (1, 38), (2, 10), (2, 20), (3, 13)):
        polygon = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(m)]
            for c in range(comps)
        ]
        d = project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram
        sizes.append(d.n_crossings)
        _dense_agrees(d)
    assert 120 <= max(sizes) <= 200, sizes


WIDE = (3, 5, 7, 11, 13, 2**31 - 1)


def _shared_reduction_agrees(d):
    """On one instance, every prime of ``WIDE`` in both orders and each
    asked twice gives what a fresh instance and the dense oracle give."""
    want = {p: count_colorings_by_dense_rank(d, p) for p in WIDE}
    for order in (WIDE, WIDE[::-1]):
        one = Diagram(d.components)
        for p in order + order:
            assert count_colorings(one, p) == want[p], (d, p)
    for p in WIDE:
        assert count_colorings(Diagram(d.components), p) == want[p], (d, p)
    return want


def _reduction_sample():
    """Seeded walks, torus bands, polygon projections, free loops and
    split links."""
    sample = [from_text("()"), from_text("() ; ()")]
    starts = [e.diagram for e in catalog.all()]
    for seed in range(2):
        for i, d in enumerate(starts):
            weights = GROW if (seed + i) % 2 else None
            walked = random_walk(d, WalkPlan(seed=seed, steps=20, weights=weights))
            sample.append(walked)
            sample.append(disjoint_union(walked, from_text("()")))
            sample.append(disjoint_union(walked, starts[(i + 3) % len(starts)]))
    sample.extend(_torus(n) for n in (9, 15, 20, 21, 35, 44))
    rng = random.Random(20261019)
    for comps, m in ((1, 10), (1, 16), (2, 9), (3, 7)):
        polygon = [
            [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
             for _ in range(m)]
            for c in range(comps)
        ]
        sample.append(project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram)
    return sample


def _nullity(count):
    return next(k for k in range(count.total) if count.p**k == count.total)


def _fed_rows(d, monkeypatch):
    """The rows that ``unit_reduction`` hands the kernel, as it hands them."""
    fed = []

    def spy(rows, *args):
        fed.append({c: dict(row) for c, row in rows.items()})
        return pivot_steps(rows, *args)

    with monkeypatch.context() as patch:
        patch.setattr(knots.colorings, "pivot_steps", spy)
        unit_reduction(d)
    return fed[0]


# The rows 2*over - under_in - under_out, by hand, of a trefoil with a
# kink at crossing 4 where over = under-in (O4 U4) or over = under-out
# (U4 O4), a link whose components go under once (under-in = under-out),
# kinks whose three arcs are one (an empty row, dropped), and closed
# arcs, keyed -1 - i.
TREFOIL_ROWS = {1: {2: 2, 1: -1, 3: -1}, 2: {3: 2, 2: -1, 1: -1}, 3: {1: 2, 3: -1, 4: -1}}
HAND_ROWS = {
    "O4+ U4+ O1+ U2+ O3+ U1+ O2+ U3+": {**TREFOIL_ROWS, 4: {4: 1, 2: -1}},
    "U4+ O4+ O1+ U2+ O3+ U1+ O2+ U3+": {**TREFOIL_ROWS, 4: {2: 1, 4: -1}},
    HOPF: {1: {2: 2, 1: -2}, 2: {1: 2, 2: -2}},
    "O1+ U1+": {},
    "O1+ U1+ ; O2+ U2+": {},
    "O1+ O2+ ; U1+ U2+": {1: {-1: 2, 1: -1, 2: -1}, 2: {-1: 2, 2: -1, 1: -1}},
    "() ; O1+ O2+ ; U1+ U2+": {1: {-2: 2, 1: -1, 2: -1}, 2: {-2: 2, 2: -1, 1: -1}},
}


def test_coloring_rows_are_the_fox_rows_at_minus_one(monkeypatch):
    diagrams = [from_text(text) for text in HAND_ROWS]
    for d, rows in zip(diagrams, HAND_ROWS.values()):
        assert _fed_rows(d, monkeypatch) == rows, d
    for d in diagrams + _reduction_sample():
        # Keyed by crossing label, in label order; zero entries and empty
        # rows dropped.
        want = {}
        for c, fox in fox_pairs(d).items():
            if row := {col: a - b for col, (a, b) in fox.items() if a - b}:
                want[c] = row
        fed = _fed_rows(d, monkeypatch)
        assert list(fed.items()) == list(want.items()), d


def test_shared_reduction_matches_the_dense_oracle_for_every_prime_in_any_order():
    empty = zero_entry = differs = 0
    for d in _reduction_sample():
        want = _shared_reduction_agrees(d)
        rest = unit_reduction(d)[1]
        empty += d.n_crossings > 0 and not rest
        zero_entry += any(v % p == 0 for row in rest for _, v in row for p in WIDE)
        differs += _nullity(want[3]) != _nullity(want[5])
    # Unit steps alone, a remainder entry that vanishes mod a tested
    # prime, and ranks that differ between primes of one diagram.
    assert empty > 0 and zero_entry > 0 and differs > 0, (empty, zero_entry, differs)


def test_a_diagram_made_from_a_counted_one_counts_afresh():
    rng = random.Random(24)
    for e in catalog.all()[1:]:
        d = random_walk(e.diagram, WalkPlan(seed=len(e.name), steps=12))
        assert count_colorings(d, 3) == count_colorings_by_dense_rank(d, 3)
        sites = enumerate_sites(d)
        made = [apply_move(d, site) for site in rng.sample(sites, min(len(sites), 8))]
        made.append(random_walk(d, WalkPlan(seed=1, steps=6)))
        made.append(mirror(d))
        changed = rng.sample(sorted(d.signs), min(2, d.n_crossings))
        made.extend(crossing_change(d, c) for c in changed)
        for child in made:
            for p in (3, 5):
                assert count_colorings(child, p) == count_colorings_by_dense_rank(child, p)
            assert child._unit_reduction == unit_reduction(Diagram(child.components)), child


def _mod(p):
    """Division in Z/p."""
    return lambda a, b: a * pow(b, -1, p) % p


def _int_div(a, b):
    assert a % b == 0, (a, b)
    return a // b


def _leibniz(matrix, one):
    """Determinant as the signed sum over all permutations."""
    det = one - one
    for perm in itertools.permutations(range(len(matrix))):
        term = one
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = det - term if inversions % 2 else det + term
    return det


def _sparse(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def test_eliminate_on_empty_zero_and_duplicate_rows():
    for div, one in ((_int_div, 1), (_exact_div, ConwayPoly((1,)))):
        assert list(pivot_steps([], div, one)) == []
        assert list(pivot_steps([{}, {}], div, one)) == []
    assert list(pivot_steps([{}, {0: 2, 1: 3}, {}], _int_div, 1)) == [(1, 0, 2)]
    assert len(list(pivot_steps([{0: 2, 1: 3}, {0: 2, 1: 3}, {0: 2, 1: 3}], _int_div, 1))) == 1
    assert len(list(pivot_steps([{0: 4, 2: 1}, {0: 4, 2: 1}, {1: 5}], _mod(7), 1))) == 2
    poly, one = ConwayPoly((1, -1)), ConwayPoly((1,))
    assert len(list(pivot_steps([{0: poly, 1: poly}, {0: poly, 1: poly}], _exact_div, one))) == 1


@pytest.mark.parametrize("ring", ["Z", "Z[t]"])
def test_eliminate_last_pivot_is_the_determinant(ring):
    rng = random.Random(5)
    one, div = (1, _int_div) if ring == "Z" else (ConwayPoly((1,)), _exact_div)
    for _ in range(150):
        n = rng.randrange(1, 5)
        matrix = [
            [
                rng.choice((0, 0, 0, 1, -1, 2, -3))
                if ring == "Z"
                else ConwayPoly([rng.choice((0, 0, 1, -1, 2)) for _ in range(3)])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        det = _leibniz(matrix, one)
        pivots = [pivot for _, _, pivot in pivot_steps(_sparse(matrix), div, one)]
        if det:
            assert len(pivots) == n and pivots[-1] in (det, one - one - det)
        else:
            assert len(pivots) < n


@pytest.mark.parametrize("ring", ["Z", "Z[t]"])
def test_pivot_steps_give_the_exact_determinant(ring):
    # The last pivot times the sign of the permutation row -> column of
    # the steps is the determinant, sign included.
    rng = random.Random(11)
    one, div = (1, _int_div) if ring == "Z" else (ConwayPoly((1,)), _exact_div)

    def entry():
        if ring == "Z":
            return rng.choice((0, 0, 1, -1, 2, -3))
        return ConwayPoly([rng.choice((0, 0, 1, -1, 2)) for _ in range(2)])

    odd = even = 0
    for _ in range(150):
        n = rng.randrange(1, 6)
        matrix = [[entry() for _ in range(n)] for _ in range(n)]
        det = _leibniz(matrix, one)
        steps = list(pivot_steps(_sparse(matrix), div, one))
        if not det:
            assert len(steps) < n
            continue
        perm = {r: c for r, c, _ in steps}
        cols = [perm[r] for r in range(n)]
        inversions = sum(a > b for a, b in itertools.combinations(cols, 2))
        last = steps[-1][2]
        assert (one - one - last if inversions % 2 else last) == det, matrix
        odd, even = odd + inversions % 2, even + 1 - inversions % 2
    assert odd > 10 and even > 10, (odd, even)


def test_eliminate_rank_mod_p_matches_the_dense_rank():
    rng = random.Random(7)
    for p in PRIMES:
        for _ in range(60):
            rows, cols = rng.randrange(0, 7), rng.randrange(1, 7)
            matrix = [
                [rng.randrange(p) * (rng.random() < 0.4) for _ in range(cols)] for _ in range(rows)
            ]
            if matrix and rng.random() < 0.3:
                matrix.append(list(matrix[0]))
            steps = list(pivot_steps(_sparse(matrix), _mod(p), 1))
            assert len(steps) == rank_mod_p(matrix, cols, p)


UNITS = {1: 1, -1: -1}.get


def _unit_run_determinant(steps):
    """sign(row -> column) * the leading run of +-1 pivots * the last
    Bareiss pivot (1 if there is none), rows and columns 0..n-1."""
    perm = [c for _, c, _ in sorted(steps, key=lambda step: step[0])]
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    pivots = [pivot for _, _, pivot in steps]
    units = list(itertools.takewhile(UNITS, pivots))
    det = -1 if inversions % 2 else 1
    for pivot in units:
        det *= pivot
    return det * (pivots[-1] if len(units) < len(pivots) else 1)


def _unit_rich(rng, n, ncols):
    return [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -3)) for _ in range(ncols)] for _ in range(n)]


def test_unit_steps_then_bareiss_steps_give_the_exact_determinant():
    rng = random.Random(26)
    mixed = 0
    for _ in range(300):
        n = rng.randrange(1, 7)
        matrix = _unit_rich(rng, n, n)
        det = _leibniz(matrix, 1)
        steps = pivot_steps(_sparse(matrix), _int_div, 1, UNITS)
        if not det:
            assert len(steps) < n
            continue
        assert len(steps) == n and _unit_run_determinant(steps) == det, matrix
        units = len(list(itertools.takewhile(UNITS, [pivot for _, _, pivot in steps])))
        mixed += 0 < units < n
    # Many runs take both kinds of step (the fixed case below pins a later
    # Bareiss pivot that is a unit).
    assert mixed > 20, mixed


def test_unit_steps_alone_leave_no_unit_and_keep_the_rank_mod_p():
    rng = random.Random(27)
    left = 0
    for _ in range(200):
        n, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
        matrix = _unit_rich(rng, n, ncols)
        rows = {i: row for i, row in enumerate(_sparse(matrix)) if row}
        steps = pivot_steps(rows, None, 1, UNITS)
        assert all(v not in (1, -1) for row in rows.values() for v in row.values())
        assert all(UNITS(pivot) for _, _, pivot in steps)
        rest = [[row.get(j, 0) for j in range(ncols)] for row in rows.values()]
        left += bool(rest)
        for p in PRIMES:
            assert len(steps) + rank_mod_p(rest, ncols, p) == rank_mod_p(matrix, ncols, p)
    assert left > 20, left


def test_a_unit_bareiss_pivot_is_no_unit_step():
    # One unit step on row 0 leaves [[2, 3], [3, 5]], which holds no +-1;
    # its Bareiss pivots are 2 and then the determinant 1, a unit that the
    # leading run must not take in, or D would read 2.
    matrix = [[1, 1, 0], [1, 3, 3], [0, 3, 5]]
    rows = dict(enumerate(_sparse(matrix)))
    assert pivot_steps(rows, None, 1, UNITS) == [(0, 0, 1)]
    assert rows == {1: {1: 2, 2: 3}, 2: {1: 3, 2: 5}}
    steps = pivot_steps(_sparse(matrix), _int_div, 1, UNITS)
    assert [pivot for _, _, pivot in steps] == [1, 2, 1]
    assert _unit_run_determinant(steps) == _leibniz(matrix, 1) == 1


def _signed_last_pivot(steps, cols, one):
    """sign(row -> column) * last pivot, row i standing for ``cols[i]``."""
    where = {c: k for k, c in enumerate(cols)}
    perm = [where[c] for _, c, _ in sorted(steps, key=lambda step: step[0])]
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    last = steps[-1][2] if steps else one
    return one - one - last if inversions % 2 else last


def _kernels_agree(rows, cols, div, one, reduce=lambda x: x):
    """The indexed and the scanning kernel give the same rank and, when
    ``rows`` is square over ``cols`` and of full rank, the same signed last
    pivot; returns whether it is."""
    new = list(pivot_steps(rows, div, one))
    old = list(scanning_pivot_steps(rows, div, one))
    assert len(new) == len(old), (len(new), len(old))
    if len(new) < len(rows) or len(rows) != len(cols):
        return False
    want = reduce(_signed_last_pivot(old, cols, one))
    assert reduce(_signed_last_pivot(new, cols, one)) == want
    return True


def _random_rows(rng, n, ncols, entry, zero):
    """``n`` sparse rows of nonzero entries over ``ncols`` columns, one
    entry of each row on a shuffled diagonal; in half the cases one or two
    rows are then emptied, copied from another row or set to the sum of
    two others, which vanishes under elimination."""
    diagonal = rng.sample(range(max(n, ncols)), n)
    rows = [
        {j: entry() for j in {d % ncols, *rng.sample(range(ncols), rng.randrange(0, 4))}}
        for d in diagonal
    ]
    for _ in range(rng.randrange(0, 2) * rng.randrange(1, 3)):
        kind, i, a, b = rng.randrange(3), *rng.sample(range(n), 3)
        if kind == 0:
            rows[i] = {}
        elif kind == 1:
            rows[i] = dict(rows[a])
        else:
            both = {j: rows[a].get(j, zero) + rows[b].get(j, zero) for j in {*rows[a], *rows[b]}}
            rows[i] = {j: x for j, x in both.items() if x}
    return rows


@pytest.mark.parametrize("ring", ["Z", "Z/p", "Z[t]"])
def test_indexed_kernel_matches_the_scanning_kernel_on_random_matrices(ring):
    rng = random.Random(14)
    p = 7
    if ring == "Z":
        one, div, reduce = 1, _int_div, lambda x: x
        entry = lambda: rng.choice((1, -1, 2, -3))
    elif ring == "Z/p":
        one, div, reduce = 1, _mod(p), lambda x: x % p
        entry = lambda: rng.randrange(1, p)
    else:
        one, div, reduce = ConwayPoly((1,)), _exact_div, lambda x: x
        entry = lambda: ConwayPoly([rng.choice((0, 1, -1, 2)), rng.choice((1, -1, 2))])
    full = singular = 0
    for _ in range(40 if ring == "Z[t]" else 80):
        n = rng.randrange(6, 41)
        ncols = n if rng.random() < 0.8 else n + rng.randrange(-3, 4)
        rows = _random_rows(rng, n, ncols, entry, one - one)
        if ring == "Z/p":
            rows = [{j: x % p for j, x in row.items() if x % p} for row in rows]
        if _kernels_agree(rows, range(ncols), div, one, reduce):
            full += 1
        else:
            singular += 1
    assert full >= 5 and singular >= 5, (full, singular)


def _at_minus_one(rows, p):
    return [{a: e for a, (x, y) in row.items() if (e := (x - y) % p)} for row in rows]


def _fox_minor_kernels_agree(d):
    """Both kernels on the Z[t] minor that ``conway`` reduces, on that
    minor at t = -1 mod 3 and 5, and on the coloring matrix mod 3."""
    rows, order = fox_pairs(d), sorted(d.signs)
    minor = [{a: v for a, v in rows[c].items() if a != order[0]} for c in order[1:]]
    poly = [{a: q for a, v in row.items() if (q := ConwayPoly(v))} for row in minor]
    assert _kernels_agree(poly, order[1:], _exact_div, ConwayPoly((1,))), d
    for p in (3, 5):
        _kernels_agree(_at_minus_one(minor, p), order[1:], _mod(p), 1, lambda x: x % p)
    _kernels_agree(_at_minus_one(rows.values(), 3), (), _mod(3), 1)


@pytest.mark.parametrize("n", TORI)
def test_indexed_kernel_matches_the_scanning_kernel_on_torus_minors(n):
    d = _torus(n)
    _fox_minor_kernels_agree(d)
    _fox_minor_kernels_agree(mirror(d))


def test_indexed_kernel_matches_the_scanning_kernel_on_projection_minors():
    rng = random.Random(1014)
    sizes = []
    for comps, m in ((1, 30), (2, 17), (3, 12)):
        while True:
            polygon = [
                [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(m)]
                for c in range(comps)
            ]
            d = project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram
            if d.n_crossings >= 100:
                break
        sizes.append(d.n_crossings)
        _fox_minor_kernels_agree(d)
    assert min(sizes) >= 100, sizes
