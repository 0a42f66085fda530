"""Tests of the benchmark's generators, oracles and tracer.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import os
import random
import shutil
import subprocess
import sys

import pytest

from knots import (
    Diagram,
    arf,
    casson,
    catalog,
    connected_sum,
    conway,
    count_colorings,
    from_text,
    is_realizable,
    mirror,
    triangles_linked,
)

import oracles
import tracer
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def invariants(d):
    """The comparison dict of oracles, computed by the library."""
    return workloads.suite(tracer.Untraced(), d)


@pytest.mark.parametrize("n, name", [(3, "trefoil-r"), (5, "5_1"), (2, "hopf+")])
def test_torus_reproduces_catalog_goldens(n, name):
    golden = workloads.expect(oracles.golden_invariants(catalog.lookup(name).golden))
    assert workloads.expect(oracles.torus_2n(n)) == golden
    for shift in range(2 * n):
        assert invariants(from_text(workloads.torus_text(n, shift))) == golden


@pytest.mark.parametrize("n", range(2, 12))
def test_torus_closed_forms_match_the_library(n):
    d = from_text(workloads.torus_text(n, n // 2))
    assert is_realizable(d)
    assert invariants(d) == workloads.expect(oracles.torus_2n(n))
    assert invariants(mirror(d)) == workloads.expect(oracles.torus_2n(n, mirrored=True))


def test_connected_sum_rules_match_the_library():
    names = ("trefoil-r", "fig8", "5_1")
    entries = [catalog.lookup(name) for name in names]
    d = connected_sum(entries[0].diagram, 0, entries[1].diagram, 0, 2, 3)
    d = connected_sum(d, 0, entries[2].diagram, 0, 5, 1)
    want = oracles.connected_sum([oracles.golden_invariants(e.golden) for e in entries])
    assert want["casson"] == casson(d) == 1 - 1 + 3
    assert want["arf"] == arf(d)
    assert want["conway"] == list(conway(d).coeffs)
    assert want["colorings"] == {p: count_colorings(d, p).total for p in (3, 5)}


def test_triangle_oracle_agrees_with_the_library():
    rng = random.Random(7)
    linked = 0
    for _ in range(200):
        pts = [tuple(rng.uniform(-1, 1) for _ in range(3)) for _ in range(6)]
        ours = oracles.triangles_link(pts[:3], pts[3:])
        assert abs(ours) <= 1
        assert (ours != 0) == bool(triangles_linked(pts[:3], pts[3:]))
        linked += ours != 0
    assert 0 < linked < 200


def test_oracles_reject_wrong_answers():
    assert oracles.compare({"casson": 1}, {"casson": 2})
    assert oracles.check_seven(((0, 1, 2, 3, 4, 5, 6), 0))
    assert oracles.check_seven((None, 1))
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (5, 5, 5), (6, 5, 5), (5, 6, 6)]
    assert oracles.check_six(pts, ((0, 1, 2), (3, 4, 5)))


class Recorder(tracer.Untraced):
    """Keeps every diagram that pool building creates or passes on."""

    def __init__(self):
        self.diagrams = []

    def call(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        for value in args + (out,):
            if isinstance(value, Diagram):
                self.diagrams.append(value)
        return out


@pytest.mark.parametrize("workload", sorted(workloads.POOLS))
def test_every_generated_diagram_is_realizable(workload):
    rec = Recorder()
    items = workloads.build(workload, 3, 0, rec)
    assert len({item.id for item in items}) == len(items)
    assert rec.diagrams or workload == "geometry"
    for d in rec.diagrams:
        assert is_realizable(d), d


def test_pools_depend_only_on_seed_and_round():
    def keys(seed, rnd):
        rec = Recorder()
        workloads.build("skein", seed, rnd, rec)
        return [str(d) for d in rec.diagrams]

    assert keys(5, 1) == keys(5, 1)
    assert keys(5, 1) != keys(6, 1)
    assert keys(5, 1) != keys(5, 2)


def test_skein_items_pass_their_oracles():
    items = workloads.build("skein", 4, 0, tracer.Untraced())
    outputs = {item.id: item.run(tracer.Untraced()) for item in items}
    assert all(item.check(outputs[item.id], outputs) is None for item in items)


def test_scaled_point_sets_are_the_previous_draw():
    rng = random.Random(1)
    pts = workloads._points(rng, 7)
    scaled = workloads._scaled(rng, pts)
    shift = [s - workloads.SCALE * p for s, p in zip(scaled[0], pts[0])]
    for p, q in zip(pts, scaled):
        assert q == pytest.approx([workloads.SCALE * x + s for x, s in zip(p, shift)])


def test_self_time_subtracts_children():
    spans = [
        ["item", 0.0, 10.0, -1, "a"],
        ["conway.conway", 1.0, 4.0, 0, "a"],
        ["colorings.count_colorings", 5.0, 6.0, 0, "a"],
        ["conway.conway", 20.0, 22.0, -1, None],
    ]
    assert tracer.self_times(spans) == {
        "item": (6.0, 1),
        "conway.conway": (5.0, 2),
        "colorings.count_colorings": (1.0, 1),
    }


def test_tracer_counts_failures_and_closes_spans():
    tr = tracer.Tracer()
    with tr.span("bench.item", "x"):
        with pytest.raises(ZeroDivisionError):
            tr.call("demo.div", lambda: 1 / 0)
    assert tr.counters == {"demo.div.failed.ZeroDivisionError": 1}
    assert [s[0] for s in tr.spans] == ["bench.item", "demo.div"]
    assert all(s[2] is not None for s in tr.spans)
    assert tr.spans[1][3] == 0 and tr.spans[1][4] == "x"


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "skein", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
