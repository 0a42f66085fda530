"""The integer insertion-site table against the Edge-tuple oracle.

``moves`` anchors R1+ sites at ``(a,)`` and R2+ sites at ``(a, b)`` for
integer arcs; they must be the oracle's ``Edge`` anchors, numbered as
integer arcs, in the same order (so seeded walks draw the same sites),
with the same R2+ variants.  ``Diagram.pieces`` and ``genus`` come from
merging the crossing sets of components and must match the oracle's
union-find over passes.  Inputs: default and growth walks up to about
110 crossings, split starts with free loops, 2-3-component polygon
projections, random (mostly non-planar) codes for the pieces, and a few
fixed codes where the merge joins groups, meets free loops or orders
pieces against component order.
"""

import random

import pytest

from knots import (
    DEFAULT_WEIGHTS,
    Diagram,
    Pass,
    SpatialLink,
    WalkPlan,
    catalog,
    disjoint_union,
    from_text,
    genus,
    project,
    random_walk,
)
from knots.moves import _MOVES

import site_oracle

GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}


def _check_pieces(d):
    assert d.pieces == site_oracle.pieces(d), d
    assert genus(d) == site_oracle.genus(d), d


def _check(d):
    _check_pieces(d)
    table = site_oracle.SiteTable(d)
    assert _MOVES["R1+"][0](d) == [(table.number(e),) for (e,) in table.r1_anchors()], d
    pairs, variants, _ = _MOVES["R2+"]
    anchors = list(pairs(d))
    pairs = table.r2_pairs()
    assert anchors == [(table.number(a), table.number(b)) for a, b in pairs], d
    for anchor, pair in zip(anchors, pairs):
        assert variants(d, anchor) == table.r2_variants(*pair), (d, pair)
    return d.n_crossings


def _split_starts():
    entry = {name: catalog.lookup(name).diagram for name in catalog.names()}
    loop = from_text("()")
    return {
        "fig8+unknot": disjoint_union(entry["fig8"], entry["unknot"]),
        "loops": from_text("() ; ()"),
        "trefoil+hopf": disjoint_union(entry["trefoil-r"], entry["hopf+"]),
        "loop+trefoil+loop": disjoint_union(disjoint_union(loop, entry["trefoil-l"]), loop),
        "split-kinks": from_text("O1+ U1+ ; O2+ U2+"),
    }


SPLIT = _split_starts()


@pytest.mark.parametrize("grow", [False, True])
def test_seeded_walks(grow):
    weights, steps = (GROW, 100) if grow else (DEFAULT_WEIGHTS, 60)
    names = catalog.names()
    sizes = []
    for seed in range(8):
        start = catalog.lookup(names[seed % len(names)]).diagram
        sizes.append(_check(random_walk(start, WalkPlan(seed=seed, steps=steps, weights=weights))))
    assert max(sizes) >= (90 if grow else 5)


@pytest.mark.parametrize("name", sorted(SPLIT))
def test_split_starts_with_free_loops(name):
    d = SPLIT[name]
    _check(d)
    for seed in range(3):
        _check(random_walk(d, WalkPlan(seed=seed, steps=6, weights=GROW)))
        _check(random_walk(d, WalkPlan(seed=seed, steps=40)))


def test_seeded_polygon_projections():
    rng = random.Random(20261019)

    def vertex(c):
        return (rng.uniform(-1, 1) + 0.7 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))

    components = set()
    for seed in range(8):
        link = SpatialLink([[vertex(c) for _ in range(7)] for c in range(2 + seed % 2)])
        d = project(link, seed).diagram
        _check(d)
        components.add(d.n_components)
    assert components == {2, 3}


def _random_code(rng):
    """1-3 random codes on disjoint labels, each shuffled into one or two
    components, with the components in random order and a free loop."""
    comps, label = [[]], 1
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 6)
        signs = {c: rng.choice((1, -1)) for c in range(label, label + n)}
        passes = [Pass(c, role, sign) for c, sign in signs.items() for role in "OU"]
        label += n
        rng.shuffle(passes)
        cut = rng.randint(1, 2 * n)
        comps += [passes[:cut], passes[cut:]] if cut < 2 * n else [passes]
    rng.shuffle(comps)
    return Diagram(comps)


def test_pieces_of_random_codes():
    rng = random.Random(31)
    several = 0
    for _ in range(300):
        d = _random_code(rng)
        _check_pieces(d)
        several += len(d.pieces) > 1
    assert several > 100


def _oracle_piece_of(d):
    """Component -> piece index from the oracle's pieces: the piece of its
    first crossing, and the free loops after the pieces in component
    order."""
    found = site_oracle.pieces(d)
    loops = iter(range(len(found), len(found) + len(d.free_loops)))
    return tuple(
        next(i for i, p in enumerate(found) if comp[0].crossing in p) if comp else next(loops)
        for comp in d.components
    )


@pytest.mark.parametrize(
    "code, pieces",
    [
        # The third component joins the groups of the first two.
        ("O1+ U3+ ; O2+ U4+ ; U1+ O3+ U2+ O4+", [{1, 2, 3, 4}]),
        # Free loops before, between and after pieces.
        ("() ; O1+ U1+ ; ()", [{1}]),
        ("O2+ U2+ ; () ; O1+ U3+ ; U1+ O3+", [{1, 3}, {2}]),
        # Pieces come by smallest label, not by component.
        ("O5+ U5+ ; O1+ U1+", [{1}, {5}]),
    ],
)
def test_pieces_of_fixed_codes(code, pieces):
    d = from_text(code)
    _check(d)
    assert d.pieces == tuple(map(frozenset, pieces))
    assert d._pieces[1] == _oracle_piece_of(d)
