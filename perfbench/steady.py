"""Steadiness check: run.py on seeds 1 to N of every workload, for the
run_seconds of BENCHMARK.json, then the spread of every end-to-end metric
as (Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)
gives them.  Exits with 1 if a spread is over the metric's bound or an
op failed.

    python3 perfbench/steady.py --seeds 10
    python3 perfbench/steady.py --write-baseline --label "<commit>, <hardware>"

--write-baseline stores the medians, quartiles, spreads and the measured
input properties in perfbench/baseline.json, next to each workload's
generator parameters and the reason it was chosen.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from run import run_child
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    code, lines = run_child(workload, seed, seconds)
    wall = time.perf_counter() - t0
    if code != 0:
        raise SystemExit("%s seed %d exited with code %d"
                         % (workload, seed, code))
    inputs = next(json.loads(line[len("inputs "):]) for line in lines
                  if line.startswith("inputs "))
    probe = next(" ".join(line.split()[1:]) for line in lines
                 if line.startswith("probe."))
    return json.loads(lines[-1]), inputs, probe, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--label", default="",
                        help="commit and hardware the baseline is from")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    baseline = {}
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
    ok = True
    for name in WORKLOADS:
        seeds = list(range(1, args.seeds + 1))
        values, inputs, walls, failures, probes = {}, [], [], 0, set()
        for seed in seeds:
            result, props, probe, wall = run_once(name, seed, seconds)
            walls.append(wall)
            inputs.append(props)
            probes.add(probe.rsplit(", ", 1)[0] + ")")  # drop the time
            failures += result["failed"] + (0 if result["correct"] else 1)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print("%s seed %d: %.1f s wall, %s" % (
                name, seed, wall,
                ", ".join("%s %.6g" % (k, v["value"])
                          for k, v in result["metrics"].items())),
                flush=True)
        stats = {}
        for metric, vals in values.items():
            stats[metric] = spread(vals)
            bound = bounds[metric]
            s = stats[metric]["spread"]
            flag = ""
            if s > bound:
                flag, ok = "  OVER BOUND", False
            elif s > bound / 3:
                flag = "  over a third of the bound"
            print("%-8s %-12s median %.6g  spread %.4f  bound %.2f%s"
                  % (name, metric, stats[metric]["median"], s, bound, flag))
        print("%-8s failures %d, wall per run max %.1f s"
              % (name, failures, max(walls)), flush=True)
        if failures:
            ok = False
        if args.write_baseline:
            cls = WORKLOADS[name]
            baseline[name] = {
                "why": cls.why,
                "closed_loop": "one client, one thread, next op when the "
                               "previous returns",
                "seeds": seeds,
                "run_seconds": seconds,
                "generator": cls.params,
                "round_mix": cls.mix,
                "inputs": _median_inputs(inputs),
                "metrics": stats,
                "failed_ops": failures,
                "probe.radford_xy_deg7": sorted(probes),
                "measured_on": args.label,
                "machine": {"cpus": os.cpu_count(),
                            "arch": platform.machine(),
                            "python": platform.python_version()},
            }
    if args.write_baseline:
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True)
                            + "\n")
    return 0 if ok else 1


def _median_inputs(runs):
    """Median over runs of every numeric input property, nested dicts
    included."""
    out = {}
    for key in runs[0]:
        vals = [r[key] for r in runs if key in r]
        if isinstance(vals[0], dict):
            out[key] = _median_inputs(vals)
        else:
            out[key] = statistics.median(vals)
    return out


if __name__ == "__main__":
    sys.exit(main())
