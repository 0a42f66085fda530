"""Acceptance criteria, one test per numbered criterion.

Each test prints one ``ACCEPTANCE nn: PASS/FAIL`` line (visible with
``pytest -rA`` or on failure) and enforces the stated runtime budget.
Criterion 03 checks colorability in both directions.  A knot has a
proper Fox p-coloring (p an odd prime) exactly when p divides its
determinant |Delta(-1)| = |nabla(2i)|, so the test ties the
coloring-matrix rank to the Conway polynomial as well as to brute-force
enumeration.  ``5_1`` has determinant 5: it is 5-colorable and not
3-colorable.
"""

import random
import time

from knots import (
    SpatialLink,
    WalkPlan,
    arf,
    casson,
    catalog,
    check_1t,
    check_4t,
    coefficient,
    connected_sum,
    conway,
    count_colorings,
    crossing_change,
    disjoint_union,
    enumerate_chord_diagrams,
    extend,
    from_text,
    is_colorable,
    lk,
    lk2,
    project,
    random_walk,
    realize,
    smooth,
    symbol,
    triangles_linked,
    verify_seven_points,
    verify_six_points,
)
from knots.arf_casson import casson as c2
from knots.codes import Diagram
from knots.errors import DegeneracyError
from knots.vassiliev import ChordDiagram

from coloring_oracle import arc_split, count_colorings_by_enumeration
from diagram_variants import traversals


def _entries():
    return catalog.all()


def _knots():
    return [e for e in _entries() if e.diagram.n_components == 1]


def _links():
    return [e for e in _entries() if e.diagram.n_components >= 2]


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d}: {status}{tail}")


def _pairs(d):
    return [
        (i, j)
        for i in range(d.n_components)
        for j in range(i + 1, d.n_components)
    ]


def test_criterion_01_golden_values():
    start = time.perf_counter()
    cassons = {
        "unknot": 0,
        "trefoil-r": 1,
        "trefoil-l": 1,
        "fig8": -1,
    }
    ok = True
    for name, want in cassons.items():
        d = catalog.lookup(name).diagram
        ok &= casson(d) == want
        ok &= arf(d) == want % 2
    polys = {
        "unknot": "1",
        "trefoil-r": "1 + t^2",
        "trefoil-l": "1 + t^2",
        "fig8": "1 - t^2",
        "5_1": "1 + 3t^2 + t^4",
        "trivial-n2": "0",
        "trivial-n3": "0",
        "hopf+": "t",
        "hopf-": "-t",
        "whitehead": "-t^3",
        "borromean": "t^4",
    }
    for name, want in polys.items():
        ok &= str(conway(catalog.lookup(name).diagram)) == want
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(1, ok, f"{elapsed:.3f}s")
    assert ok, f"golden invariant values drifted (elapsed {elapsed:.3f}s)"


def test_criterion_02_hopf_and_borromean_linking():
    hp = catalog.lookup("hopf+").diagram
    hm = catalog.lookup("hopf-").diagram
    ok = lk2(hp, 0, 1) == 1 and lk2(hm, 0, 1) == 1
    bor = catalog.lookup("borromean").diagram
    for i, j in _pairs(bor):
        ok &= lk(bor, i, j) == 0 and lk2(bor, i, j) == 0
    _report(2, ok)
    assert ok


def test_criterion_03_colorability_as_stated():
    failures = []

    def claim(what, cond):
        if not cond:
            failures.append(what)

    claim("trefoil-r 3-colorable", is_colorable(catalog.lookup("trefoil-r").diagram, 3))
    claim("trefoil-l 3-colorable", is_colorable(catalog.lookup("trefoil-l").diagram, 3))
    for name in ("unknot", "fig8", "hopf+", "hopf-", "whitehead", "borromean"):
        claim(f"{name} not 3-colorable", not is_colorable(catalog.lookup(name).diagram, 3))
    claim("5_1 5-colorable", is_colorable(catalog.lookup("5_1").diagram, 5))
    claim("unknot not 5-colorable", not is_colorable(catalog.lookup("unknot").diagram, 5))
    # Exact count agreement with brute force on every small diagram.
    for e in _entries():
        for p in (3, 5):
            if p ** arc_split(e.diagram).count <= 5**6:
                claim(
                    f"{e.name} p={p} brute force",
                    count_colorings(e.diagram, p)
                    == count_colorings_by_enumeration(e.diagram, p),
                )
    # 5_1 = T(2,5) has determinant 5, so it has no proper 3-coloring.
    claim("5_1 not 3-colorable", not is_colorable(catalog.lookup("5_1").diagram, 3))
    # Fox: a knot is p-colorable iff p divides det = |nabla(2i)|, read off
    # the Conway polynomial (a separate code path from the coloring matrix).
    for e in _knots():
        c = conway(e.diagram).coeffs
        det = abs(sum(c[k] * (-4) ** (k // 2) for k in range(0, len(c), 2)))
        for p in (3, 5, 7):
            claim(
                f"{e.name} p={p} colorable iff p | det={det}",
                is_colorable(e.diagram, p) == (det % p == 0),
            )
    _report(3, not failures, "; ".join(failures))
    assert not failures, f"failed clauses: {failures}"


def test_criterion_04_skein_suites():
    start = time.perf_counter()
    ok = True
    for e in _entries():
        d = e.diagram
        for c in sorted(d.signs):
            plus = d if d.signs[c] == 1 else crossing_change(d, c)
            minus = crossing_change(plus, c)
            zero = smooth(d, c)
            # Conway skein.
            lhs = conway(plus) - conway(minus)
            rhs = conway(zero).shifted()
            ok &= lhs.coeffs == rhs.coeffs
            same_comp = (
                d.locate[c]["O"][0] == d.locate[c]["U"][0]
            )
            if d.n_components == 1:
                # c2 and arf skein against the smoothed two-component link.
                ok &= casson(plus) - casson(minus) == lk(zero, 0, 1)
                ok &= (arf(plus) - arf(minus)) % 2 == lk2(zero, 0, 1)
            if not same_comp:
                i, j = sorted((d.locate[c]["O"][0], d.locate[c]["U"][0]))
                ok &= lk(plus, i, j) - lk(minus, i, j) == 1
            elif d.n_components > 1:
                for i, j in _pairs(d):
                    ok &= lk(plus, i, j) == lk(minus, i, j)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(4, ok, f"{elapsed:.2f}s")
    assert ok, f"skein relation failed somewhere (elapsed {elapsed:.2f}s)"


def test_criterion_05_invariance_fuzzing():
    start = time.perf_counter()
    total_steps = 0
    ok = True
    for i, e in enumerate(_entries()):
        d = e.diagram
        steps = 200
        total_steps += steps
        walked = random_walk(d, WalkPlan(seed=1000 + i, steps=steps))
        ok &= conway(walked).coeffs == conway(d).coeffs
        for p in (3, 5):
            ok &= count_colorings(walked, p) == count_colorings(d, p)
        if d.n_components == 1:
            ok &= casson(walked) == casson(d)
            ok &= arf(walked) == arf(d)
        else:
            for i2, j2 in _pairs(d):
                ok &= lk(walked, i2, j2) == lk(d, i2, j2)
                ok &= lk2(walked, i2, j2) == lk2(d, i2, j2)
    ok &= total_steps >= 1000
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(5, ok, f"{total_steps} steps, {elapsed:.2f}s")
    assert ok, f"an invariant drifted under Reidemeister walks ({elapsed:.2f}s)"


def test_criterion_06_well_definedness():
    ok = True
    for e in _knots():
        d = e.diagram
        comp = d.components[0]
        want_c = casson(d)
        for direction in (comp, tuple(reversed(comp))):
            base = Diagram((direction,))
            for k in range(max(1, len(comp))):
                rotated = Diagram((direction[k:] + direction[:k],))
                ok &= casson(rotated) == want_c
                ok &= arf(rotated) == want_c % 2
    for e in _entries():
        d = e.diagram
        want = conway(d).coeffs
        # Each plan is the diagram itself, permuted or rotated.
        plans = traversals(d)
        assert len(plans) >= 3
        for plan in plans:
            ok &= conway(plan).coeffs == want
    _report(6, ok)
    assert ok, "an invariant depended on basepoint, direction, or plan"


def test_criterion_07_structure_theorems():
    ok = True
    trefoil = catalog.lookup("trefoil-r").diagram
    acc = from_text("()")
    for n in range(1, 7):
        acc = connected_sum(acc, 0, trefoil, 0)
        ok &= casson(acc) == n
    knots = _knots()
    for a in knots:
        for b in knots:
            s = connected_sum(a.diagram, 0, b.diagram, 0)
            ok &= conway(s).coeffs == (conway(a.diagram) * conway(b.diagram)).coeffs
    ok &= conway(disjoint_union(trefoil, trefoil)).coeffs == ()
    ok &= conway(disjoint_union(trefoil, catalog.lookup("hopf+").diagram)).coeffs == ()
    # c_j = 0 whenever j <= k - 2 or j - k is even, k = component count.
    for e in _entries():
        d = e.diagram
        k = d.n_components
        p = conway(d)
        for j in range(p.degree + 1):
            if j <= k - 2 or (j - k) % 2 == 0:
                ok &= p[j] == 0
    _report(7, ok)
    assert ok, "a connected-sum/split-link identity failed"


def test_criterion_08_vassiliev():
    start = time.perf_counter()
    values, consistent = symbol(c2, 2, samples=20)
    ok = consistent
    ok &= values[ChordDiagram("1212")] == 1
    ok &= values[ChordDiagram("1122")] == 0
    count = 0
    for i, cd in enumerate(enumerate_chord_diagrams(3)):
        for k in range(4):
            s = realize(cd, seed=300 + 17 * i + k)
            ok &= extend(c2, s) == 0
            count += 1
    ok &= count >= 20
    ok &= check_1t(values, 2)
    ok &= check_4t(values, 2)
    ok &= len(enumerate_chord_diagrams(3)) == 5
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(8, ok, f"{count} singular knots, {elapsed:.2f}s")
    assert ok, f"order-two symbol structure failed ({elapsed:.2f}s)"


def test_criterion_09_intrinsic_linking_geometry():
    start = time.perf_counter()
    ok = True
    for trial in range(1000):
        rng = random.Random(50_000 + trial)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(6)]
        ok &= verify_six_points(pts) is not None
    for trial in range(50):
        rng = random.Random(90_000 + trial)
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(7)]
        witness, parity = verify_seven_points(pts, seed=trial)
        ok &= witness is not None and parity == 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report(9, ok, f"{elapsed:.1f}s")
    assert ok, f"a point set lacked its guaranteed witness ({elapsed:.1f}s)"


def test_criterion_10_cross_module_oracles():
    ok = True
    for e in _knots():
        ok &= coefficient(e.diagram, 2) == casson(e.diagram)
    for e in _links():
        if e.diagram.n_components == 2:
            ok &= coefficient(e.diagram, 1) == lk(e.diagram, 0, 1)
    rng = random.Random(777)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 400:
        attempts += 1
        t1 = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(3))
        t2 = tuple(tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(3))
        try:
            geometric = triangles_linked(t1, t2)
            projected = lk2(project(SpatialLink((t1, t2)), seed=checked).diagram, 0, 1)
        except DegeneracyError:
            continue
        ok &= geometric == projected
        checked += 1
    ok &= checked == 200
    _report(10, ok, f"{checked} triangle pairs")
    assert ok, "a cross-module identity failed"
