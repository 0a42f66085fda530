#!/usr/bin/env python3
"""Benchmark for knots: four seeded workloads, end to end and per layer.

    python3 bench/run.py --workload skein --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (``src/knots`` must be there).  A run is
one warm-up round and then rounds 0, 1, ... until ``--seconds`` have
passed (see ``run_workload``).  Every round is a fresh interpreter
(``worker.py``) that imports knots, builds its pool of inputs, runs each
input once and checks each output against its oracle.  See README.md
for the metrics.

With ``--trace 1`` the untraced rounds get half the time and each round
then runs once more with spans on; those runs give the per-layer
metrics, and their goodput against the untraced runs gives the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print every metric by name with its unit.  Each run's rounds, spans
and environment are written to ``bench/results/``.
"""

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import calibrate
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
RESULTS = os.path.join(BENCH, "results")

MIN_ROUNDS = 3
MIN_ITEMS = 100  # distinct items; p90 then has at least 10 samples above it
MEASURE_MAX_S = 60  # a run, traced or not, must end within 180 s
WORKER_TIMEOUT_S = 40
WARMUP_ITEMS = 10
# Probes on each side of an item whose median gives the machine's speed
# while the item ran (see ``scale``).
PROBE_WINDOW = 2


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def commit():
    """The checked-out commit read from .git, or "unknown" outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_round(workload, seed, rnd, trace, limit=None):
    cmd = [sys.executable, WORKER, workload, str(seed), str(rnd), str(int(trace))]
    if limit is not None:
        cmd.append(str(limit))
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"round {rnd} of {workload} ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"round {rnd} of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_call"] - spawned
    result["round"] = rnd
    return result


def slowdown(run):
    """How much slower than the reference machine this interpreter ran."""
    return statistics.median(run["probe_s"]) / calibrate.REFERENCE_S


def local_slowdown(run, j):
    """The slowdown around probe j: the median of the probes at most
    PROBE_WINDOW away from it."""
    near = run["probe_s"][max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW + 1]
    return statistics.median(near) / calibrate.REFERENCE_S


def scale(run):
    """A round with its times in reference-machine time.

    The machine's speed changes within a second, so each item's latency
    is divided by the slowdown measured around it (the probes just
    before and after it and their neighbours), and the set-up time by
    the slowdown around the first probe.  Each item record keeps its raw
    latency as a fifth field.
    """
    factors = [local_slowdown(run, j) for j in run["item_probe"]]
    items = [rec[:2] + [rec[2] / f] + rec[3:] + [rec[2]] for rec, f in zip(run["items"], factors)]
    return dict(
        run,
        items=items,
        slowdown=slowdown(run),
        setup_s=run["setup_s"] / local_slowdown(run, 0),
        setup_raw_s=run["setup_s"],
    )


def run_workload(workload, seed, seconds, trace):
    """Warm-up, then rounds 0, 1, ... until ``seconds`` have passed.

    Rounds run until the time is up and the round and item minimums are
    met.  With ``trace`` the untraced rounds get half the time and each
    of them then runs once more, traced, in a new interpreter.  Returns
    the scaled untraced rounds and the traced rounds.
    """
    # The first interpreter in a batch pays for cold caches and a cold
    # CPU; one short round absorbs that and is dropped.
    run_round(workload, seed, -1, False, WARMUP_ITEMS)
    budget = seconds / 2 if trace else seconds
    rounds = []
    started = time.monotonic()
    while True:
        rounds.append(run_round(workload, seed, len(rounds), False))
        elapsed = time.monotonic() - started
        items = sum(len(r["items"]) for r in rounds)
        enough = len(rounds) >= MIN_ROUNDS and items >= MIN_ITEMS
        if (elapsed >= budget and enough) or elapsed >= MEASURE_MAX_S:
            break
    traced = [run_round(workload, seed, r["round"], True) for r in rounds] if trace else []
    return [scale(r) for r in rounds], traced


def _ok(rounds):
    return [rec for r in rounds for rec in r["items"] if rec[3] == "ok"]


def _ok_per_s(rounds):
    """Passed items over the timed wall time, summed over the rounds."""
    recs = [rec for r in rounds for rec in r["items"]]
    return sum(rec[3] == "ok" for rec in recs) / sum(rec[2] for rec in recs)


def end_to_end(rounds):
    ok_ms = sorted(rec[2] * 1e3 for rec in _ok(rounds))
    if len(ok_ms) < 2:
        raise BenchError(f"only {len(ok_ms)} items passed their oracle; no latency to report")
    attempted = sum(len(r["items"]) for r in rounds)
    return {
        "ok_per_s": _ok_per_s(rounds),
        "item_p50_ms": statistics.median(ok_ms),
        "item_p90_ms": statistics.quantiles(ok_ms, n=10)[8],
        "ok_share": len(ok_ms) / attempted,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(plain, traced):
    """Per-round means over the traced rounds, plus overhead and import time."""
    sums = {}

    def add(name, value):
        sums[name] = sums.get(name, 0.0) + value

    for r in traced:
        for name, (busy, calls) in tracer.self_times(r["spans"]).items():
            add(f"{name}.busy_s", busy)
            add(f"{name}.calls", calls)
            module = name.split(".")[0]
            if module != "bench":
                add(f"{module}.self_s", busy)
        for name, value in r["counters"].items():
            add(name, value)
    out = {name: value / len(traced) for name, value in sums.items()}
    # Against the untraced runs of the same rounds.
    untraced = _ok_per_s(plain)
    out["trace.ok_per_s_untraced"] = untraced
    out["trace.ok_per_s_traced"] = _ok_per_s([scale(r) for r in traced])
    out["bench.slowdown"] = statistics.median(slowdown(r) for r in traced)
    out["trace.overhead_ok_per_s"] = untraced - out["trace.ok_per_s_traced"]
    out["cli.import_s"] = statistics.median(r["import_s"] for r in traced)
    return out


def _failure_summary(rounds):
    kinds = {}
    for r in rounds:
        for _id, cls, problem in r["failures"]:
            key = f"{cls}: {problem.split(':')[0]}"
            kinds[key] = kinds.get(key, 0) + 1
    return kinds


def measure(workload, args, spec):
    plain, traced = run_workload(workload, args.seed, args.seconds, args.trace)
    runs = plain + traced
    attempted = sum(len(r["items"]) for r in runs)
    statuses = [rec[3] for r in runs for rec in r["items"]]
    e2e = end_to_end(plain)
    layers = per_layer(plain, traced) if args.trace else {}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in listed
    }
    summary = {
        "correct": "wrong" not in statuses,
        "attempted": attempted,
        "failed": sum(s != "ok" for s in statuses),
        "metrics": metrics,
    }
    env = environment(args)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report(workload, env, plain, runs, summary, e2e, layers, units)
    save(workload, args, env, plain, traced, summary, e2e, layers)
    return summary


def report(workload, env, plain, runs, summary, e2e, layers, units):
    print(f"# workload {workload}: seed {env['seed']}, {len(plain)} rounds"
          + (" run twice, once traced," if layers else "") + " after 1 warm-up round")
    print("# env " + json.dumps(env, sort_keys=True))
    known = sum(rec[3] == "known" for r in runs for rec in r["items"])
    print(f"# items attempted {summary['attempted']}, failed {summary['failed']} "
          f"({known} the documented failure), outputs correct: {summary['correct']}")
    for kind, count in sorted(_failure_summary(runs).items()):
        print(f"#   failed {count:4d}  {kind}")
    ok = _ok(plain)
    raw_ms = sorted(rec[4] * 1e3 for rec in ok)
    raw = {
        "ok_per_s": len(ok) / sum(rec[4] for r in plain for rec in r["items"]),
        "item_p50_ms": statistics.median(raw_ms),
        "item_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
    }
    raw["setup_s"] = statistics.median(r["setup_raw_s"] for r in plain)
    slow = [r["slowdown"] for r in plain]
    print(f"# machine slowdown against the reference: median {statistics.median(slow):.3f}, "
          f"range {min(slow):.3f}-{max(slow):.3f}")
    for name, value in e2e.items():
        note = f"  (unscaled {raw[name]:.6f})" if name in raw else ""
        if name.startswith("item_"):
            note += f"  over {len(ok)} ok items"
        print(f"{workload}.{name:<14s} {value:14.6f} {units[name]}{note}")
    print(f"{workload}.{'error_rate':<14s} {1 - e2e['ok_share']:14.6f} share  (1 - ok_share)")
    for name, value in sorted(layers.items()):
        print(f"{workload}.{name:<52s} {value:16.6f}")


def save(workload, args, env, plain, traced, summary, e2e, layers):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{int(args.trace)}.json")
    for r in plain + traced:
        r.pop("first_call", None)
    doc = {
        "env": env,
        "summary": summary,
        "end_to_end": e2e,
        "per_layer": layers,
        "rounds": plain,
        "traced_rounds": traced,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # waits for the round it is running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "knots", "__init__.py")):
        print(f"bench: no knots sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    try:
        if args.workload != "all":
            summary = measure(args.workload, args, spec)
        else:
            parts = {w: measure(w, args, spec) for w in names}
            summary = {
                "correct": all(p["correct"] for p in parts.values()),
                "attempted": sum(p["attempted"] for p in parts.values()),
                "failed": sum(p["failed"] for p in parts.values()),
                "metrics": {
                    f"{w}.{name}": m for w, p in parts.items() for name, m in p["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
