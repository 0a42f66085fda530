#!/usr/bin/env python3
"""Measure a baseline: ten seeded runs per workload and one traced run.

    python3 bench/baseline.py --seeds 1001-1010 --seconds 25 [--out bench/baseline.json]

Runs ``run.py --trace 0`` once per seed and workload, then ``run.py
--trace 1`` once per workload with the traced seed, and writes per
end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median over the seeds, as ``statistics.quantiles(values,
n=4)`` gives them, with each run's ``correct``/``attempted``/``failed``
and the traced per-layer figures.  The spreads are printed as they come
in, so the same command checks that the benchmark is steady.  Takes
about half a minute per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

MODULES = ("codes", "moves", "conway", "colorings", "arf_casson", "linking", "spatial", "vassiliev", "catalog")


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1001-1010"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--traced-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join(run.BENCH, "baseline.json"))
    args = parser.parse_args()
    spec = run.load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    doc = {
        "about": (
            f"Baseline of commit {run.commit()}: per workload, runs of `python3 bench/run.py "
            f"--workload W --seed S --seconds {args.seconds} --trace 0` with seeds "
            f"{args.seeds[0]}-{args.seeds[-1]}, reported as median and quartiles over the runs, "
            "spread = (q3 - q1) / median; per-layer figures from one `--trace 1` run with seed "
            f"{args.traced_seed}. Latency and set-up metrics are in reference-machine time "
            "(bench/calibrate.py)."
        ),
        "env": {k: v for k, v in run.environment(argparse.Namespace(seed=None, seconds=None, trace=None)).items()
                if k in ("python", "implementation", "host", "platform", "nproc", "cpu_count", "commit")},
        "workloads": {},
    }
    for workload in names:
        results = []
        for seed in args.seeds:
            results.append(bench(workload, seed, args.seconds, 0))
            values = results[-1]["metrics"]
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in values.items()}),
                  flush=True)
        e2e = {}
        for name in units:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            e2e[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                         "unit": units[name]}
            print(f"{workload}.{name:<14s} median {median:12.5f}  spread {e2e[name]['spread']:.3f}",
                  flush=True)
        traced = bench(workload, args.traced_seed, args.seconds, 1)["metrics"]
        layers = {name: m["value"] for name, m in traced.items()}
        total = sum(layers[f"{m}.self_s"] for m in MODULES)
        doc["workloads"][workload] = {
            "seeds": args.seeds,
            "end_to_end": e2e,
            "error_rate": 1 - e2e["ok_share"]["median"],
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed")} for r in results],
            "layer_self_share": dict(sorted(
                ((m, round(layers[f"{m}.self_s"] / total, 4)) for m in MODULES),
                key=lambda kv: -kv[1])),
            "per_layer": layers,
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
