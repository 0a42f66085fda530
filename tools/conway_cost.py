#!/usr/bin/env python3
"""Print the cost of one ``conway`` and one ``count_colorings`` call, as JSON.

Diagrams: T(2, n) torus knots (odd n) and 2-component torus links (even
n), and seeded projections of 1-3 random polygons (the recipe of
``bench/workloads._polygon``, components offset by 0.6) at about 25, 50,
100, 150, 300 and 500 crossings, and of 2 polygons at about 744.  A projection is kept when its crossing
count is within 10 % of the target; the polygon grows by a vertex per
component while its projections fall short.  Each call runs on a fresh copy of the
diagram (nothing cached), so the planarity trace of ``conway`` is
counted.  Each row gives the median of ``REPEATS`` calls in
milliseconds: ``ms`` for ``conway`` and ``colorings_ms`` for
``count_colorings(d, 3)``: the Fox matrix at t = -1 reduced over Z on
its +-1 entries, then what is left by the same kernel over Z/3.  ``w``
is the digit width of the packed Laurent entries that ``conway``
eliminates, from the Hadamard bound of its Fox minor.  The cost drivers
of both calls are the kernel's unit steps and the rows they leave to
Bareiss steps: ``unit_steps`` and ``rows_left`` for the Conway minor,
``colorings_rows_left`` for the coloring matrix.

The machine's speed drifts on a shared host, so each pair of calls
alternates with a run of ``bench/calibrate.py``'s ``probe``.  A row's
slowdown is the median probe time against ``calibrate.REFERENCE_S``;
both medians are divided by it, and ``slowdown`` gives it per row.  Run
from anywhere:

    python3 tools/conway_cost.py
"""

import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
import calibrate  # noqa: E402
from knots import Diagram, SpatialLink, conway, count_colorings, from_text, project  # noqa: E402
from knots.colorings import pivot_steps  # noqa: E402
from knots.conway import _fox_minor, _Laurent, _unit_inverse  # noqa: E402

SIZES = (25, 50, 100, 150, 300, 500)
REPEATS = 5


def torus(n):
    """T(2, n), the closed 2-braid sigma_1^n."""
    if n % 2:
        return from_text(" ".join(f"{'OU'[i % 2]}{i % n + 1}+" for i in range(2 * n)))
    comps = (" ".join(f"{'OU'[(i + s) % 2]}{i + 1}+" for i in range(n)) for s in (0, 1))
    return from_text(" ; ".join(comps))


def projection(comps, target):
    """A seeded projection of ``comps`` polygons with about ``target`` crossings."""
    rng = random.Random(1000 * comps + target)
    m = 4
    while True:
        polygon = [
            [
                (rng.uniform(-1, 1) + 0.6 * c, rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(m)
            ]
            for c in range(comps)
        ]
        d = project(SpatialLink(polygon), seed=rng.randrange(2**31)).diagram
        if abs(d.n_crossings - target) <= 0.1 * target:
            return d
        if d.n_crossings < target:
            m += 1


def call_s(f, d):
    """Seconds of ``f`` on a fresh copy of ``d``."""
    fresh = Diagram(d.components)
    start = time.perf_counter()
    f(fresh)
    return time.perf_counter() - start


def unit_stage(d):
    """(unit steps, rows left) of the Conway minor of ``d``, and its w."""
    _, rows, w = _fox_minor(d)
    steps = pivot_steps(rows, None, _Laurent(0, 1), _unit_inverse(w))
    return len(steps), sum(1 for left in rows.values() if left), w


def row(kind, d):
    conway_s, colorings_s, probes = [], [], []
    for _ in range(REPEATS):
        probes.append(calibrate.probe())
        conway_s.append(call_s(conway, d))
        colorings_s.append(call_s(lambda fresh: count_colorings(fresh, 3), d))
    slowdown = statistics.median(probes) / calibrate.REFERENCE_S

    def ms(times):
        """Median milliseconds, scaled to the reference machine."""
        return round(1000 * statistics.median(times) / slowdown, 2)

    unit_steps, rows_left, w = unit_stage(d)
    return {
        "kind": kind,
        "components": d.n_components,
        "crossings": d.n_crossings,
        "w": w,
        "unit_steps": unit_steps,
        "rows_left": rows_left,
        "colorings_rows_left": len(Diagram(d.components)._unit_reduction[1]),
        "ms": ms(conway_s),
        "colorings_ms": ms(colorings_s),
        "slowdown": round(slowdown, 3),
    }


def main():
    rows = []
    for size in SIZES:
        rows.append(row("torus", torus(size | 1)))
        rows.append(row("torus", torus(size + size % 2)))
        for comps in (1, 2, 3):
            rows.append(row("projection", projection(comps, size)))
    rows.append(row("projection", projection(2, 744)))
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "host": platform.node(),
                "machine": platform.machine(),
                "repeats": REPEATS,
                "rows": rows,
            }
        )
    )


if __name__ == "__main__":
    main()
