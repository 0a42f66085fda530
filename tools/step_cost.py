#!/usr/bin/env python3
"""Print the cost of one ``random_walk`` step, by move kind, as JSON.

For each target size (about 25, 50, 100 and 200 crossings) a seeded
growth walk (R1+, R2+ and R3 only) from the right trefoil is carried one
step at a time until it reaches the size.  At that endpoint, for each
move kind, a walk of ``STEPS + 1`` steps drawing only that kind is timed
on a fresh copy of the diagram (nothing cached), less a walk of one step
with the same seed, which traces the start, builds its site tables and
takes the same first step; so the difference, divided by ``STEPS``, is
the cost of a step in a walk already under way.  A kind with no site at
the endpoint reads ``null``.

The machine's speed drifts on a shared host, so each timing alternates
with a run of ``bench/calibrate.py``'s ``probe``.  A row's slowdown is
the median probe time against ``calibrate.REFERENCE_S``; the printed
milliseconds are the median of ``REPEATS`` timings divided by that
slowdown, and ``slowdown`` gives it per row.  Run from anywhere:

    python3 tools/step_cost.py
"""

import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
import calibrate  # noqa: E402
from knots import Diagram, WalkPlan, catalog, enumerate_sites, random_walk  # noqa: E402

SIZES = (25, 50, 100, 200)
KINDS = ("R1+", "R1-", "R2+", "R2-", "R3")
GROW = {"R1+": 1.0, "R2+": 1.0, "R3": 1.0}
STEPS = 10
REPEATS = 7


def grow(d, target, seed):
    """Carry ``d`` by seeded growth steps until it has ``target`` crossings."""
    step = 0
    while d.n_crossings < target:
        d = random_walk(d, WalkPlan(seed=seed * 1000 + step, steps=1, weights=GROW))
        step += 1
    return d


def walk_s(d, plan):
    """Seconds for ``random_walk`` on a copy of ``d`` with no cached faces."""
    fresh = Diagram(d.components)
    start = time.perf_counter()
    random_walk(fresh, plan)
    return time.perf_counter() - start


def step_ms(d, kind, seed):
    """(ms per step scaled to the reference machine, slowdown), or None."""
    if not enumerate_sites(d, kinds=(kind,)):
        return None
    weights = {kind: 1.0}
    steps = WalkPlan(seed=seed, steps=STEPS + 1, weights=weights)
    first = WalkPlan(seed=seed, steps=1, weights=weights)
    walked, base, probes = [], [], []
    for _ in range(REPEATS):
        probes.append(calibrate.probe())
        walked.append(walk_s(d, steps))
        base.append(walk_s(d, first))
    slowdown = statistics.median(probes) / calibrate.REFERENCE_S
    ms = 1000 * (statistics.median(walked) - statistics.median(base)) / STEPS
    return round(ms / slowdown, 3), round(slowdown, 3)


def main():
    d = catalog.lookup("trefoil-r").diagram
    rows = []
    for target in SIZES:
        d = grow(d, target, seed=target)
        costs = {kind: step_ms(d, kind, seed=target) for kind in KINDS}
        rows.append(
            {
                "crossings": d.n_crossings,
                "ms_per_step": {k: c and c[0] for k, c in costs.items()},
                "slowdown": {k: c and c[1] for k, c in costs.items()},
            }
        )
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "steps": STEPS,
                "repeats": REPEATS,
                "sizes": rows,
            }
        )
    )


if __name__ == "__main__":
    main()
