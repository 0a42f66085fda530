#!/usr/bin/env python3
"""Print the cost of one ``random_walk`` step, by move kind, as JSON.

For each target size (about 25, 50, 100 and 200 crossings) a seeded
growth walk (R1+, R2+ and R3 only) from the right trefoil is carried one
step at a time until it reaches the size.  At that endpoint, for each
move kind, a walk of ``STEPS`` steps drawing only that kind is timed on
a fresh copy of the diagram (nothing cached), less a walk of no steps,
which still traces the start to check that it is planar; the median of
``REPEATS`` such timings, divided by ``STEPS``, is the cost of a step in
milliseconds.  A kind with no site at the endpoint reads ``null``.  Run
from anywhere:

    python3 tools/step_cost.py
"""

import json
import platform
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

sys.path.insert(0, str(SRC))
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
    if not enumerate_sites(d, kinds=(kind,)):
        return None
    steps = WalkPlan(seed=seed, steps=STEPS, weights={kind: 1.0})
    none = WalkPlan(seed=seed, steps=0, weights={kind: 1.0})
    walked = statistics.median(walk_s(d, steps) for _ in range(REPEATS))
    base = statistics.median(walk_s(d, none) for _ in range(REPEATS))
    return round(1000 * (walked - base) / STEPS, 3)


def main():
    d = catalog.lookup("trefoil-r").diagram
    rows = []
    for target in SIZES:
        d = grow(d, target, seed=target)
        rows.append(
            {
                "crossings": d.n_crossings,
                "ms_per_step": {kind: step_ms(d, kind, seed=target) for kind in KINDS},
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
