"""Reidemeister move detection, application, and random walks."""

import functools
import hashlib
import re
from typing import NamedTuple

import pytest

from knots import (
    DEFAULT_WEIGHTS,
    DomainError,
    InvalidSiteError,
    MoveSite,
    NonPlanarError,
    WalkPlan,
    apply_move,
    canonical_key,
    casson,
    catalog,
    connected_sum,
    conway,
    crossing_change,
    disjoint_union,
    enumerate_sites,
    from_text,
    genus,
    is_realizable,
    lk,
    random_walk,
    smooth,
    to_text,
)
from knots.moves import _MOVES, _place

TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"
KINK = "O1+ U1+"
R2_PAIR = "O1+ O2- U2- U1+"


def _sites(d, kind):
    return [s for s in enumerate_sites(d, kinds=(kind,)) if s.kind == kind]


def test_trefoil_has_no_removal_or_r3_sites():
    d = from_text(TREFOIL)
    for kind in ("R1-", "R2-", "R3"):
        assert _sites(d, kind) == []


def test_kink_has_one_r1_site_and_removal_round_trips():
    d = from_text(KINK)
    sites = _sites(d, "R1-")
    assert len(sites) == 1
    out = apply_move(d, sites[0])
    assert out.n_crossings == 0 and out.n_components == 1


def test_r2_pair_has_one_removal_site():
    d = from_text(R2_PAIR)
    sites = _sites(d, "R2-")
    assert len(sites) == 1
    assert to_text(apply_move(d, sites[0])) == "()"


def test_r1_plus_inverts_r1_minus():
    d = from_text(TREFOIL)
    for site in enumerate_sites(d, kinds=("R1+",))[:8]:
        grown = apply_move(d, site)
        assert grown.n_crossings == 4
        assert is_realizable(grown)
        backs = _sites(grown, "R1-")
        assert any(
            canonical_key(apply_move(grown, b)) == canonical_key(d) for b in backs
        )


def test_r2_plus_inverts_r2_minus():
    d = from_text(TREFOIL)
    sites = enumerate_sites(d, kinds=("R2+",))
    assert sites
    for site in sites[:12]:
        grown = apply_move(d, site)
        assert grown.n_crossings == 5
        assert is_realizable(grown)
        backs = _sites(grown, "R2-")
        assert any(
            canonical_key(apply_move(grown, b)) == canonical_key(d) for b in backs
        )


def test_r2_plus_reaches_across_pieces():
    d = from_text("O1+ U1+ ; O2+ U2+")
    assert genus(d) == (0, 0)
    cross = [
        s
        for s in enumerate_sites(d, kinds=("R2+",))
        if _place(d, s.anchor[0])[0] != _place(d, s.anchor[1])[0]
    ]
    assert cross
    joined = apply_move(d, cross[0])
    assert len(genus(joined)) == 1  # now a single connected piece


def test_r3_fires_after_an_r2_setup():
    # Slide a strand over a crossing: R2+ then look for a triangle.
    base = from_text(TREFOIL)
    found = False
    for site in enumerate_sites(base, kinds=("R2+",)):
        grown = apply_move(base, site)
        for tri in _sites(grown, "R3"):
            moved = apply_move(grown, tri)
            found = True
            assert moved.n_crossings == grown.n_crossings
            assert is_realizable(moved)
            assert sorted(moved.signs.values()) == sorted(grown.signs.values())
            # R3 is its own inverse at the matching triangle.
            again = [
                t
                for t in _sites(moved, "R3")
                if canonical_key(apply_move(moved, t)) == canonical_key(grown)
            ]
            assert again
        if found:
            break
    assert found


def test_enumerate_sites_rejects_nonplanar_diagrams():
    with pytest.raises(NonPlanarError):
        enumerate_sites(from_text("O1+ U2+ U1+ O2+"))


def test_enumerate_sites_rejects_unknown_kinds():
    d = from_text("O1+ U1+")
    # A bare int or a list of lists once raised TypeError.
    refused = [(("R9",), "'R9'"), (("r1-", "R1-"), "'r1-'"), ("R1+", "'R1+'")]
    refused += [(5, "not 5"), ([["R1+"]], "['R1+']"), ([("R1-",)], "('R1-',)"), ([None], "None")]
    for kinds, named in refused:
        with pytest.raises(InvalidSiteError, match=re.escape(named)):
            enumerate_sites(d, kinds=kinds)
    assert enumerate_sites(d, kinds=()) == ()
    assert enumerate_sites(d, kinds=["R1-"]) == enumerate_sites(d, kinds=("R1-",))


@pytest.mark.parametrize("kind", ["R9", "r1-", ["R1-"], ("R1-",), None], ids=repr)
def test_apply_rejects_unknown_kinds_by_name(kind):
    # An unhashable kind must not reach a dict lookup as a TypeError.
    with pytest.raises(InvalidSiteError, match=re.escape(f"unknown move kind {kind!r}")):
        apply_move(from_text(KINK), MoveSite(kind, ()))


def test_apply_rejects_stale_sites():
    d = from_text(KINK)
    site = _sites(d, "R1-")[0]
    shrunk = apply_move(d, site)
    with pytest.raises(DomainError):
        apply_move(shrunk, site)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}

# (start, weights, seed, steps, end crossings, digest of canonical_key),
# recorded from the move code that decided R2+ planarity by re-tracing
# every poke; the site table must draw the same walks.
WALKS = (
    ("trefoil-r", None, 1, 60, 8, "5499f6d57e468809"),
    ("fig8", None, 2, 60, 5, "7eee0d7317c27560"),
    ("5_1", None, 3, 60, 5, "5b9dca7f2644f66c"),
    ("hopf+", None, 4, 60, 2, "04e6b53c63b3982d"),
    ("whitehead", None, 5, 60, 5, "262965906136b34e"),
    ("borromean", None, 6, 60, 6, "b545598cbadaa0ed"),
    ("trivial-n2", None, 7, 60, 8, "b7cc2eb9befd83a1"),
    ("trefoil-l", GROW, 8, 30, 45, "9b1db28925425bef"),
    ("fig8", GROW, 9, 30, 29, "4577db86c7911db8"),
    ("hopf-", GROW, 10, 30, 37, "1c2f67e60c928c14"),
    ("borromean", GROW, 11, 30, 48, "28dd522280afb618"),
    ("unknot", GROW, 12, 30, 32, "3c1e7034e54ad3b3"),
    # Split starts ("a|b" is their disjoint union), recorded from the
    # table of sorted Edge-tuple pairs: the walks join the pieces with
    # cross-piece pokes and grow past 90 crossings.
    ("trefoil-r|hopf+", GROW, 13, 100, 106, "5ee64bbc2a497fc1"),
    ("trefoil-r|hopf+", GROW, 14, 100, 96, "45672a795f154528"),
    ("fig8|unknot", GROW, 13, 100, 111, "e8375d944a576311"),
    ("fig8|unknot", GROW, 14, 100, 93, "d4d610e20357f5b7"),
    # Long walks, recorded from the move code that rebuilt the whole
    # diagram and its site table on every step: to about 300 crossings,
    # then back down from that endpoint ("start>seed" starts at the end
    # of the row with that start and seed).
    ("trefoil-r", GROW, 16, 300, 308, "a69cd5e2cd337698"),
    ("trefoil-r>16", None, 116, 400, 163, "c08102971b49b1c9"),
    ("trefoil-r|hopf+", GROW, 18, 200, 202, "17f481cd54190930"),
)


@functools.lru_cache(maxsize=None)
def _walk_end(name, seed):
    """The endpoint of the WALKS row with start ``name`` and ``seed``."""
    if ">" in name:
        row, row_seed = name.split(">")
        d = _walk_end(row, int(row_seed))
    else:
        first, *rest = (catalog.lookup(part).diagram for part in name.split("|"))
        d = functools.reduce(disjoint_union, rest, first)
    weights, steps = next((w, n) for s, w, sd, n, _, _ in WALKS if (s, sd) == (name, seed))
    return random_walk(d, WalkPlan(seed=seed, steps=steps, weights=weights))


@pytest.mark.parametrize("name,weights,seed,steps,size,digest", WALKS)
def test_seeded_walks_match_recorded_endpoints(name, weights, seed, steps, size, digest):
    end = _walk_end(name, seed)
    assert (end.n_crossings, _digest(canonical_key(end))) == (size, digest)


class Edge(NamedTuple):
    """The arc arriving at pass ``position`` of ``component``: the form
    insertion anchors took when the digests below were recorded."""

    component: int
    position: int


def _as_edges(d, site):
    """``site`` with its integer arcs written as Edges."""
    if site.kind not in ("R1+", "R2+"):
        return site
    return MoveSite(site.kind, tuple(Edge(*_place(d, a)) for a in site.anchor), site.variant)


def test_enumerate_sites_matches_recorded_tables():
    fig8, borromean, trefoil, hopf = (
        catalog.lookup(name).diagram for name in ("fig8", "borromean", "trefoil-r", "hopf+")
    )
    got = []
    for d in (fig8, borromean, disjoint_union(trefoil, hopf)):
        sites = [_as_edges(d, s) for s in enumerate_sites(d)]
        got.append((len(sites), _digest("\n".join(map(repr, sites)))))
    assert got == [
        (60, "822fd228d02e8ffd"),
        (96, "94a6ee5253dae513"),
        (258, "d03e1f8782e1fea8"),
    ]


def _nonplanar_r2_site():
    d = from_text(TREFOIL)
    by_pair = {}
    for s in enumerate_sites(d, kinds=("R2+",)):
        by_pair.setdefault(s.anchor, set()).add(s.variant)
    pair, ok = next((p, v) for p, v in by_pair.items() if len(v) < 8)
    bad = next(v for v in ("par:A:+", "par:A:-", "anti:A:+", "anti:A:-") if v not in ok)
    return d, MoveSite("R2+", pair, bad)


def _non_triangle_r3_site():
    # The trefoil's triangles are cyclic: no strand lies on top of both
    # others, so none is an R3 site.
    d = from_text(TREFOIL)
    return d, MoveSite("R3", next(f for f in d.faces if len(f) == 3))


@pytest.mark.parametrize(
    "make",
    [
        _nonplanar_r2_site,
        _non_triangle_r3_site,
        lambda: (from_text(KINK), MoveSite("R1+", (2,), "OU+")),
        lambda: (from_text(TREFOIL), MoveSite("R2+", (1, 9), "par:A:+")),
        lambda: (from_text(KINK), MoveSite("R1-", (7,))),
        lambda: (from_text(R2_PAIR), MoveSite("R2-", (1, 7))),
        lambda: (from_text(KINK), MoveSite("R1+", (0,), "XY+")),
        lambda: (from_text(KINK), MoveSite("R4", (1,))),
    ],
    ids=[
        "nonplanar-r2",
        "r3-off-pattern",
        "arc-out-of-range",
        "r2-arc-out-of-range",
        "unknown-crossing",
        "unknown-r2-crossing",
        "bad-variant",
        "unknown-kind",
    ],
)
def test_apply_rejects_invalid_sites(make):
    d, site = make()
    assert site not in enumerate_sites(d)
    with pytest.raises(InvalidSiteError):
        apply_move(d, site)
    assert issubclass(InvalidSiteError, DomainError)


@pytest.mark.parametrize(
    "kind,anchor,variant",
    [
        ("R1+", (True,), "OU+"),
        ("R1+", (-1,), "OU+"),
        ("R1+", (6,), "OU+"),
        ("R1+", (0.0,), "OU+"),
        ("R1+", (2.0,), "OU+"),
        ("R2+", (3, 0), "par:A:+"),
        ("R2+", (0,), "par:A:+"),
        ("R2+", (0, 3, 4), "par:A:+"),
        ("R1+", (0, 1), "OU+"),
        ("R1+", 0, "OU+"),
    ],
    ids=[
        "bool-arc",
        "negative-arc",
        "arc-equal-to-n",
        "float-arc",
        "float-arc-in-range",
        "unsorted-r2-pair",
        "r2-one-arc",
        "r2-three-arcs",
        "r1-two-arcs",
        "bare-int-anchor",
    ],
)
def test_apply_rejects_malformed_insertion_anchors(kind, anchor, variant):
    # A bool or float arc compares equal to an int one, so such a site can
    # equal a listed one; apply_move still takes integer arcs only.
    d = from_text(TREFOIL)
    assert d._arc_base[-1] == 6
    assert MoveSite("R2+", (0, 3), "par:A:+") in enumerate_sites(d, kinds=("R2+",))
    with pytest.raises(InvalidSiteError):
        apply_move(d, MoveSite(kind, anchor, variant))


R1_VARIANTS = ("OU+", "OU-", "UO+", "UO-", "XY+")
R2_VARIANTS = tuple(
    f"{rel}:{over}:{s}" for rel in ("par", "anti", "bad") for over in "AB" for s in "+-"
)


def _insertion_trials(d):
    """Every arc with every R1+ variant, and every ordered arc pair with
    every R2+ variant, a malformed variant and an arc past the end
    included."""
    arcs = range(d._arc_base[-1] + 1)
    for a in arcs:
        yield from (MoveSite("R1+", (a,), v) for v in R1_VARIANTS)
        for b in arcs:
            yield from (MoveSite("R2+", (a, b), v) for v in R2_VARIANTS)


def _accepted(d, site):
    try:
        apply_move(d, site)
    except InvalidSiteError:
        return False
    return True


def test_apply_accepts_exactly_the_enumerated_insertion_sites():
    starts = [catalog.lookup(name).diagram for name in catalog.names()]
    starts += [from_text("() ; ()"), from_text("() ; O1+ U1+")]
    walks = [random_walk(d, WalkPlan(seed=i, steps=20)) for i, d in enumerate(starts)]
    walks += [random_walk(starts[i], WalkPlan(seed=i, steps=4, weights=GROW)) for i in (1, 8)]
    for d in starts + walks:
        listed = set(enumerate_sites(d, kinds=("R1+", "R2+")))
        accepted = {site for site in _insertion_trials(d) if _accepted(d, site)}
        assert accepted == listed, d


def test_crossing_change_flips_one_crossing():
    d = from_text(TREFOIL)
    c = crossing_change(d, 2)
    assert c.signs[2] == -1 and c.signs[1] == 1
    roles = [p.role for p in c.components[0] if p.crossing == 2]
    assert sorted(roles) == ["O", "U"]
    assert to_text(crossing_change(c, 2)) == to_text(d)


def test_smooth_splits_or_merges_components():
    d = from_text(TREFOIL)
    s = smooth(d, 1)
    assert s.n_components == 2 and s.n_crossings == 2
    hopf = from_text("O1+ U2+ ; O2+ U1+")
    merged = smooth(hopf, 1)
    assert merged.n_components == 1 and merged.n_crossings == 1


def test_smooth_respects_orientation_on_the_trefoil():
    # Smoothing any trefoil crossing yields the Hopf link, lk = 1.
    d = from_text(TREFOIL)
    for c in (1, 2, 3):
        s = smooth(d, c)
        assert lk(s, 0, 1) == 1


def test_disjoint_union_relabels():
    a = from_text(TREFOIL)
    b = from_text(KINK)
    u = disjoint_union(a, b)
    assert u.n_components == 2
    assert u.n_crossings == 4
    assert genus(u) == (0, 0)


def test_connected_sum_of_trefoils():
    t = from_text(TREFOIL)
    s = connected_sum(t, 0, t, 0)
    assert s.n_components == 1 and s.n_crossings == 6
    assert is_realizable(s)
    assert casson(s) == 2


def test_connected_sum_with_unknot_is_identity():
    t = from_text(TREFOIL)
    u = from_text("()")
    s = connected_sum(t, 0, u, 0)
    assert canonical_key(s) == canonical_key(t)


def test_connected_sum_respects_edge_choice():
    t = from_text(TREFOIL)
    for ea in range(6):
        s = connected_sum(t, 0, t, 0, edge_a=ea, edge_b=0)
        assert str(conway(s)) == "1 + 2t^2 + t^4"


def test_random_walk_is_deterministic_and_planar():
    d = from_text(TREFOIL)
    plan = WalkPlan(seed=11, steps=60)
    one = random_walk(d, plan)
    two = random_walk(d, plan)
    assert to_text(one) == to_text(two)
    assert is_realizable(one)
    assert random_walk(d, WalkPlan(seed=12, steps=60)) != one


def test_random_walk_weights_bias_growth():
    d = from_text(TREFOIL)
    grow = random_walk(d, WalkPlan(seed=3, steps=40, weights={"R2+": 1.0}))
    assert grow.n_crossings == 3 + 2 * 40
    shrink = random_walk(grow, WalkPlan(seed=4, steps=500))
    assert shrink.n_crossings < grow.n_crossings


def test_default_weights_prefer_removal():
    assert DEFAULT_WEIGHTS["R1-"] > DEFAULT_WEIGHTS["R1+"]


def test_move_kinds_are_declared_once():
    # The move table lists the kinds; the default weights name each once.
    assert set(DEFAULT_WEIGHTS) == set(_MOVES)
    assert tuple(_MOVES) == ("R1-", "R2-", "R3", "R1+", "R2+")  # enumerate_sites order


@pytest.mark.parametrize("weights", [{"R9": 1.0}, {"R1+": 1.0, "r2+": 1.0}, {3: 1.0}], ids=repr)
def test_walk_plan_refuses_weight_keys_outside_the_move_table(weights):
    named = f"bad walk weights {weights!r}: not a mapping from move kinds"
    with pytest.raises(DomainError, match=re.escape(named)):
        WalkPlan(seed=0, steps=1, weights=weights)


def test_walk_plan_validation():
    with pytest.raises(Exception):
        WalkPlan(seed=0, steps=-1)
    with pytest.raises(Exception):
        WalkPlan(seed=0, steps=1, weights={"R9": 1.0})


@pytest.mark.parametrize(
    "seed,steps,named",
    [
        (0, 2.5, "steps"),
        (0, "3", "steps"),
        (0, True, "steps"),
        (0, None, "steps"),
        (None, 5, "seed"),
        (1.0, 5, "seed"),
        ("7", 5, "seed"),
        (False, 5, "seed"),
    ],
)
def test_walk_plan_refuses_non_integer_seed_and_steps(seed, steps, named):
    with pytest.raises(DomainError, match=f"walk {named} must be an int"):
        WalkPlan(seed, steps)


def test_move_site_is_hashable():
    d = from_text(KINK)
    s = _sites(d, "R1-")[0]
    assert isinstance(s, MoveSite)
    assert s in {s}


def test_insertion_sites_cover_free_loops():
    d = from_text("()")
    sites = enumerate_sites(d, kinds=("R1+",))
    assert {s.anchor for s in sites} == {(0,)}
    kinked = apply_move(d, sites[0])
    assert kinked.n_crossings == 1 and genus(kinked) == (0,)
