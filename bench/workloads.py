"""Seeded input pools for the four workloads, built through knots' public API.

Each round of a run builds one pool from ``random.Random(f"{workload}:
{seed}:{round}")`` and runs every item in it once.  The pool's make-up
(how many items of each class, and their sizes) is fixed per workload;
the seed only draws the inputs inside each class, so rounds with
different seeds do the same amount of work.  Pools hold no two items
with the same ``canonical_key``: the skein memo in ``knots.conway`` is
process-global, and a repeated input would time dict lookups.

An item is a closure ``run(tracer)`` that makes the library calls and
returns their outputs, plus a ``check(output, outputs)`` that compares
them with an oracle from ``oracles`` and returns an error message or
None.  ``outputs`` maps item ids to outputs, for checks that compare
two items of one round (the two projections of one polygon).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from knots import (
    DEFAULT_WEIGHTS,
    SpatialLink,
    WalkPlan,
    apply_move,
    arf,
    canonical_key,
    casson,
    catalog,
    connected_sum,
    conway,
    count_colorings,
    enumerate_sites,
    from_text,
    is_realizable,
    linking_matrix,
    lk,
    lk2,
    mirror,
    project,
    random_walk,
    symbol,
    to_text,
    verify_seven_points,
    verify_six_points,
)

import oracles


@dataclass
class Item:
    id: str
    cls: str
    run: Callable
    check: Callable
    # The exception type this item is documented to raise today, if any.
    known_failure: str = ""


# ----------------------------------------------------------------------
# Shared pieces


def torus_text(n: int, shift: int = 0) -> str:
    """Gauss code of T(2, n), the closure of the 2-braid sigma_1^n.

    The strand that starts on the left passes over at odd crossings and
    under at even ones; for odd n it returns as the other strand, so the
    closure is one component of 2n passes.  ``shift`` rotates each
    component's starting pass, which changes the code but not the link.
    """
    if n % 2:
        passes = [f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)]
        comps = [passes]
    else:
        comps = [
            [f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)] for s in (0, 1)
        ]
    rotated = []
    for comp in comps:
        k = shift % len(comp)
        rotated.append(" ".join(comp[k:] + comp[:k]))
    return " ; ".join(rotated)


def fox_arcs(d) -> int:
    """Columns of the coloring matrix: one arc per under pass, at least
    one per component."""
    return sum(max(1, sum(p.role == "U" for p in comp)) for comp in d.components)


def suite(tr, d, conway_too=True, primes=oracles.PRIMES, linking="pairs"):
    """The ``knots compute`` invariants of ``d``, via the public functions.

    Knots get casson and arf, links lk and lk2 (``linking="pairs"``) or
    ``linking_matrix`` (``linking="matrix"``), everything gets the Fox
    coloring totals for ``primes``.
    """
    out = {}
    if conway_too:
        out["conway"] = list(tr.call("conway.conway", conway, d).coeffs)
    n = d.n_components
    if n == 1:
        out["casson"] = tr.call("arf_casson.casson", casson, d)
        out["arf"] = tr.call("arf_casson.arf", arf, d)
    elif linking == "matrix":
        lkm = [[0] * n for _ in range(n)]
        lk2m = [[0] * n for _ in range(n)]
        for rep in tr.call("linking.linking_matrix", linking_matrix, d):
            i, j = rep.pair
            lkm[i][j], lk2m[i][j] = rep.lk, rep.lk2
        out["lk"], out["lk2"] = lkm, lk2m
    else:
        out["lk"] = [
            [tr.call("linking.lk", lk, d, i, j) if i != j else 0 for j in range(n)]
            for i in range(n)
        ]
        out["lk2"] = [
            [tr.call("linking.lk2", lk2, d, i, j) if i != j else 0 for j in range(n)]
            for i in range(n)
        ]
    colorings = {}
    for p in primes:
        colorings[p] = tr.call("colorings.count_colorings", count_colorings, d, p).total
        if tr.on:
            tr.count("colorings.arcs.total", fox_arcs(d))
    out["colorings"] = colorings
    return out


def expect(values, conway_too=True, primes=oracles.PRIMES):
    """Restrict oracle values to what ``suite`` computes; add lk2 = lk mod 2."""
    want = {k: v for k, v in values.items() if k != "conway" or conway_too}
    want["colorings"] = {p: values["colorings"][p] for p in primes}
    if "lk" in want:
        want["lk2"] = [[abs(x) % 2 for x in row] for row in want["lk"]]
    return want


def _check_against(want):
    return lambda out, _outputs: oracles.compare(out, want)


class _Pool:
    """Items of one round; refuses a second input with the same key."""

    def __init__(self, name, rnd, tr):
        self.prefix = f"{name}.r{rnd}"
        self.tr = tr
        self.items = []
        self.keys = set()

    def fresh(self, d) -> bool:
        key = self.tr.call("codes.canonical_key", canonical_key, d)
        if key in self.keys:
            return False
        self.keys.add(key)
        return True

    def add(self, cls, run, check, known_failure=""):
        item = Item(f"{self.prefix}.i{len(self.items)}", cls, run, check, known_failure)
        self.items.append(item)
        return item


def _torus(tr, rng, n, rotate=True, mirrored=None):
    """T(2, n) from a random starting pass, mirrored as asked or, by
    default, half the time."""
    shift = rng.randrange(2 * n) if rotate else 0
    d = tr.call("codes.from_text", from_text, torus_text(n, shift))
    if mirrored is None:
        mirrored = rng.random() < 0.5
    if mirrored:
        d = tr.call("codes.mirror", mirror, d)
    return d, oracles.torus_2n(n, mirrored)


def _entry(tr, name):
    entry = tr.call("catalog.lookup", catalog.lookup, name)
    return entry.diagram, oracles.golden_invariants(entry.golden)


# ----------------------------------------------------------------------
# skein: the full compute suite on small knots and links

# Up to 17 crossings: T(2, 18) and T(2, 19) alone took a sixth of a
# round (114 and 215 ms), time the run spends better on more sums.
SKEIN_TORUS = range(2, 18)
SUMMANDS = ("trefoil-r", "trefoil-l", "fig8", "5_1")
# Connected sums per round, by summand multiset (T = a trefoil of either
# hand, F = fig8, C = 5_1): every pair once, and triples of two trefoils
# with a trefoil or fig8.  Sums of 11 or more crossings cost up to
# seconds each with a spread as wide as their mean, so a few of them
# would decide a round's time alone; for the same reason the T(2, n)
# codes start at pass 0 (the skein's cost depends on the starting pass).
# The class sizes put item_p50_ms inside the 9-crossing triples and
# item_p90_ms inside the 10-crossing ones, not between two classes.
SKEIN_SUMS = {
    "TT": 1, "TF": 1, "TC": 1, "FF": 1, "FC": 1, "CC": 1,
    "TTT": 24, "TTF": 12,
}


def _summand(rng, letter):
    if letter == "T":
        return rng.choice(SUMMANDS[:2])
    return {"F": "fig8", "C": "5_1"}[letter]


def skein_pool(rng, tr, rnd):
    pool = _Pool("skein", rnd, tr)
    knots_ = {name: _entry(tr, name) for name in SUMMANDS}
    for n in SKEIN_TORUS:
        # The skein's cost on T(2, n) for even n depends on the hand by
        # up to six times; alternating hands by round keeps the mix of
        # hands in a run the same whatever the seed.
        d, values = _torus(tr, rng, n, rotate=False, mirrored=(n + rnd) % 2 == 1)
        pool.fresh(d)
        pool.add("torus", _suite_run(d), _check_against(expect(values)))
    sums = [letters for letters, count in SKEIN_SUMS.items() for _ in range(count)]
    rng.shuffle(sums)
    for letters in sums:
        while True:
            names = [_summand(rng, ch) for ch in letters]
            rng.shuffle(names)
            d = None
            for name in names:
                part = knots_[name][0]
                if rng.random() < 0.5:
                    part = tr.call("codes.mirror", mirror, part)
                if d is None:
                    d = part
                    continue
                d = tr.call(
                    "moves.connected_sum",
                    connected_sum,
                    d,
                    0,
                    part,
                    0,
                    rng.randrange(len(d.components[0])),
                    rng.randrange(len(part.components[0])),
                )
            if pool.fresh(d):
                break
        want = oracles.connected_sum([knots_[name][1] for name in names])
        pool.add(f"sum{len(letters)}", _suite_run(d), _check_against(expect(want)))
    return pool.items


def _suite_run(d):
    return lambda tr: suite(tr, d)


# ----------------------------------------------------------------------
# walk: random Reidemeister walks, then polynomial-time invariants

WALK_STARTS = (
    "trefoil-r", "trefoil-l", "fig8", "5_1",
    "hopf+", "hopf-", "whitehead", "borromean",
)
WALK_TORUS = range(2, 10)
# Growth-biased weights: insertions and R3 only, so every step that
# finds a site adds 0, 1 or 2 crossings and 100 steps carry a start to
# about 100 crossings with little spread (with removals allowed, the
# end size, and with it the item's cost, varied by a factor of two).
GROW_WEIGHTS = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}
# (class, weights, steps, enumerate sites at the endpoint, count).  The
# class sizes put item_p50_ms inside the plain walks and item_p90_ms in
# the middle of the growth walks, not at the edge of a class.
WALK_CLASSES = (
    ("walk", DEFAULT_WEIGHTS, 120, False, 24),
    ("walk+sites", DEFAULT_WEIGHTS, 50, True, 8),
    ("grow", GROW_WEIGHTS, 100, False, 8),
)
SITES_MAX_CROSSINGS = 40
REMOVALS = {"R1-": 1, "R2-": 2, "R3": 0}


def walk_pool(rng, tr, rnd):
    pool = _Pool("walk", rnd, tr)
    starts = [_entry(tr, name) for name in WALK_STARTS]
    starts += [_torus(tr, rng, n) for n in WALK_TORUS]
    walks = []
    for cls, weights, steps, sites, count in WALK_CLASSES:
        # Starts are dealt from shuffled decks of all starts, so each
        # comes up as evenly as the class size allows and rounds do the
        # same mix of work whatever the seed; the seed draws the paths.
        order = []
        while len(order) < count:
            order += rng.sample(range(len(starts)), len(starts))
        for k in order[:count]:
            walks.append((cls, starts[k], WalkPlan(rng.randrange(2**31), steps, weights), sites))
    rng.shuffle(walks)
    for cls, (d, values), plan, sites in walks:
        want = expect(values, conway_too=False, primes=(3,))
        pool.add(cls, _walk_run(d, plan, sites), _walk_check(want))
    return pool.items


def _small_suite(tr, d):
    return suite(tr, d, conway_too=False, primes=())


def _walk_run(d, plan, sites):
    def run(tr):
        end = tr.call("moves.random_walk", random_walk, d, plan)
        if tr.on:
            tr.count("moves.random_walk.end_crossings", end.n_crossings)
        out = {"end": suite(tr, end, conway_too=False, primes=(3,)), "moved": []}
        if sites and end.n_crossings <= SITES_MAX_CROSSINGS:
            found = tr.call("moves.enumerate_sites", enumerate_sites, end)
            if tr.on:
                tr.count("moves.enumerate_sites.sites", len(found))
            for site in found:
                if site.kind in REMOVALS:
                    moved = tr.call("moves.apply", apply_move, end, site)
                    out["moved"].append(
                        (site.kind, end.n_crossings - moved.n_crossings, _small_suite(tr, moved))
                    )
        return out

    return run


def _walk_check(want):
    small = {k: v for k, v in want.items() if k != "colorings"}
    small["colorings"] = {}

    def check(out, _outputs):
        bad = oracles.compare(out["end"], want)
        if bad:
            return f"endpoint {bad}"
        for kind, dropped, values in out["moved"]:
            if dropped != REMOVALS[kind]:
                return f"{kind} removed {dropped} crossings"
            bad = oracles.compare(values, small)
            if bad:
                return f"after {kind}: {bad}"
        return None

    return check


# ----------------------------------------------------------------------
# geometry: orientation predicates and the polygon tracers

# Point sets come in groups (by point count: seven-point sets are the
# larger share, so that item_p50_ms falls inside them).  The last set of
# each group is the group's previous draw scaled by 1e-3 and translated.
# A scale-invariant predicate gives it the same answer; ROADMAP item 5
# says today's does not, so these items fail with DegeneracyError.  They
# count as failed, but as the one documented failure they do not make a
# run incorrect.
POINT_GROUPS = {7: 12, 6: 8}
GROUP_SIZE = 8
SCALE = 1e-3
TORUS_Q = (3, 5, 7, 9, 11)
SYMBOL_SAMPLES = 20


def _points(rng, n):
    return [tuple(rng.uniform(-1.0, 1.0) for _ in range(3)) for _ in range(n)]


def _scaled(rng, pts):
    shift = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    return [tuple(SCALE * x + s for x, s in zip(p, shift)) for p in pts]


def torus_polygon(rng, q):
    """A polygonal T(2, q) on a torus of random proportions, random hand."""
    big = rng.uniform(1.8, 2.2)
    small = rng.uniform(0.6, 0.9)
    phase = rng.uniform(0.0, 2 * math.pi)
    hand = rng.choice((1.0, -1.0))
    verts = []
    for i in range(8 * q):
        t = 2 * math.pi * i / (8 * q)
        radius = big + small * math.cos(q * t + phase)
        verts.append(
            (radius * math.cos(2 * t), radius * math.sin(2 * t), hand * small * math.sin(q * t + phase))
        )
    return verts


def geometry_pool(rng, tr, rnd):
    pool = _Pool("geometry", rnd, tr)
    for n, verify, check in ((7, _seven_run, _seven_check), (6, _six_run, _six_check)):
        for _group in range(POINT_GROUPS[n]):
            pts = None
            for k in range(GROUP_SIZE):
                scaled = k == GROUP_SIZE - 1
                pts = _scaled(rng, pts) if scaled else _points(rng, n)
                cls = f"{n}pts" + ("-scaled" if scaled else "")
                known = "DegeneracyError" if scaled else ""
                pool.add(cls, verify(pts, rng.randrange(2**31)), check(pts), known)
    for q in TORUS_Q:
        link = tr.call("spatial.SpatialLink", SpatialLink, [torus_polygon(rng, q)])
        want = expect(oracles.torus_2n(q), conway_too=False, primes=(3,))
        pool.add("torus", _torus_run(link, rng.randrange(2**31)), _check_against(want))
    for order in (2, 3):
        pool.add(f"symbol{order}", _symbol_run(order, rng.randrange(2**31)), _symbol_check(order))
    return pool.items


def _symbol_run(order, seed):
    return lambda tr: tr.call("vassiliev.symbol", symbol, casson, order, SYMBOL_SAMPLES, seed)


def _symbol_check(order):
    return lambda out, _outputs: oracles.check_symbol(order, out)


def _seven_run(pts, seed):
    return lambda tr: tr.call("spatial.verify_seven_points", verify_seven_points, pts, seed)


def _seven_check(_pts):
    return lambda out, _outputs: oracles.check_seven(out)


def _six_run(pts, _seed):
    return lambda tr: tr.call("spatial.verify_six_points", verify_six_points, pts)


def _six_check(pts):
    return lambda out, _outputs: oracles.check_six(pts, out)


def _torus_run(link, seed):
    def run(tr):
        d = tr.call("spatial.project", project, link, seed).diagram
        if tr.on:
            tr.count("spatial.project.crossings", d.n_crossings)
        return suite(tr, d, conway_too=False, primes=(3,))

    return run


# ----------------------------------------------------------------------
# large: parse, planarity and the polynomial invariants at about 100 and
# more crossings

# T(2, n) items, n >= 101: the same sizes in every round (the seed draws
# the starting pass and the hand).  The largest of them make up most of
# the top tenth of a run's latencies, where item_p90_ms sits, whatever
# the seed.
LARGE_TORUS_N = range(103, 171, 5)
# Projected random polygons by component count.  Each is projected
# along PROJECTIONS seeded directions, and the two projections whose
# crossing counts lie closest to LARGE_TARGET become items, whose
# invariants must agree.  The target lies well below the largest tori.  A
# fixed number of projections, with no polygon drawn again, keeps the
# set-up's work the same in every round: rejecting projections outside
# a range of crossings made setup_s spread by 0.36 between runs.
LARGE_POLYGONS = (1, 1, 1, 1, 1, 2, 2, 2, 3, 3)
LARGE_TARGET = 110
PROJECTIONS = 3
# Vertex count per component that gives about 150 crossings, by
# component count; crossings grow with the square of the vertex count.
LARGE_VERTICES = {1: 40, 2: 20, 3: 15}


def _polygon(rng, comps, m):
    return [
        [(rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m)]
        for c in range(comps)
    ]


def _project(tr, link, seed):
    d = tr.call("spatial.project", project, link, seed).diagram
    if tr.on:
        tr.count("spatial.project.crossings", d.n_crossings)
    return d


def large_pool(rng, tr, rnd):
    pool = _Pool("large", rnd, tr)
    entries = []
    for n in LARGE_TORUS_N:
        d, values = _torus(tr, rng, n)
        want = dict(expect(values, conway_too=False), realizable=True)
        entries.append(("torus", tr.call("codes.to_text", to_text, d), _check_against(want)))
    for comps in LARGE_POLYGONS:
        m = round(LARGE_VERTICES[comps] * math.sqrt(LARGE_TARGET / 150))
        link = tr.call("spatial.SpatialLink", SpatialLink, _polygon(rng, comps, m))
        found = []
        while len(found) < PROJECTIONS:
            d = _project(tr, link, rng.randrange(2**31))
            if pool.fresh(d):
                found.append(d)
        found.sort(key=lambda d: abs(d.n_crossings - LARGE_TARGET))
        texts = [tr.call("codes.to_text", to_text, d) for d in found[:2]]
        entries.append((f"polygon{comps}", texts, None))
    rng.shuffle(entries)
    for cls, text, check in entries:
        if check is not None:
            pool.add(cls, _large_run(text), check)
            continue
        first = pool.add(cls, _large_run(text[0]), _realizable_check)
        pool.add(cls, _large_run(text[1]), _pair_check(first.id))
    return pool.items


def _large_run(text):
    def run(tr):
        d = tr.call("codes.from_text", from_text, text)
        out = suite(tr, d, conway_too=False, linking="matrix")
        out["realizable"] = tr.call("codes.is_realizable", is_realizable, d)
        return out

    return run


def _realizable_check(out, _outputs):
    return None if out["realizable"] else "projection is not realizable"


def _pair_check(first_id):
    def check(out, outputs):
        other = outputs.get(first_id)
        if not isinstance(other, dict):
            return "the other projection of this polygon failed"
        return oracles.compare(out, other) or _realizable_check(out, outputs)

    return check


POOLS = {
    "skein": skein_pool,
    "walk": walk_pool,
    "geometry": geometry_pool,
    "large": large_pool,
}


def build(workload, seed, rnd, tr):
    """The item pool of one round of ``workload``."""
    rng = random.Random(f"{workload}:{seed}:{rnd}")
    return POOLS[workload](rng, tr, rnd)
