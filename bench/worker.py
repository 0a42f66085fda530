"""One round of a workload in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED ROUND TRACE [LIMIT]

Imports knots from the checkout's ``src``, builds the round's pool,
runs every item once (the first LIMIT items only, for a warm-up round),
checks the outputs, and prints one JSON line: the monotonic time of the
first timed call (so the parent can measure set-up from the moment it
started this process), the import time of knots, per-item latencies and
outcomes, peak RSS, the machine-speed probe times taken between items
with, for each item, the index of the last probe before it, and, when
TRACE is 1, the spans and counters.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Seconds of item time between two machine-speed probes (calibrate.py);
# one probe also runs before the first item and after the last.
CALIBRATE_EVERY_S = 0.1


def main(argv):
    workload, seed, rnd, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    limit = int(argv[4]) if len(argv) > 4 else None
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import knots
    import knots.cli  # noqa: F401  (what every command-line call imports)

    import_s = time.perf_counter() - started
    if not os.path.abspath(knots.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported knots from {knots.__file__}, not {SRC}")

    import calibrate
    import tracer
    import workloads

    tr = tracer.Tracer() if trace else tracer.Untraced()
    with tr.span("bench.setup"):
        items = workloads.build(workload, seed, rnd, tr)[:limit]

    first_call = time.monotonic()
    records = []
    outputs = {}
    probes = []
    item_probe = []
    since_probe = CALIBRATE_EVERY_S
    for item in items:
        if since_probe >= CALIBRATE_EVERY_S:
            probes.append(calibrate.probe())
            since_probe = 0.0
        t0 = time.perf_counter()
        try:
            with tr.span("bench.item", item.id):
                outputs[item.id] = item.run(tr)
        except Exception as exc:  # a failed item is a result, not a crash
            outputs[item.id] = exc
        records.append([item.id, item.cls, time.perf_counter() - t0])
        item_probe.append(len(probes) - 1)
        since_probe += records[-1][2]
    probes.append(calibrate.probe())

    # "known": the item's documented failure; "wrong": a wrong output or
    # any other exception.
    failures = []
    for record, item in zip(records, items):
        out = outputs[item.id]
        if isinstance(out, Exception):
            known = type(out).__name__ == item.known_failure
            record.append("known" if known else "wrong")
            failures.append([item.id, item.cls, f"{type(out).__name__}: {out}"])
            continue
        problem = item.check(out, outputs)
        record.append("wrong" if problem else "ok")
        if problem:
            failures.append([item.id, item.cls, problem])

    result = {
        "first_call": first_call,
        "import_s": import_s,
        "items": records,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_s": probes,
        "item_probe": item_probe,
    }
    if trace:
        result["spans"] = tr.spans
        result["counters"] = dict(tr.counters)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
