"""Benchmark for the mixshuffle package.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
./src.  Load is a closed loop with one client: one process and one
thread issue the next op when the previous one returns.  The workloads
(products, powers, verify) are defined in workloads.py.

--trace 0 measures the end-to-end metrics:
  ops_per_s    correct ops per second of time spent inside package calls
  op_p50_ms    median op latency
  op_p90_ms    90th percentile op latency (nearest rank)
  setup_s      median over several set-ups of: package import, semigroups,
               word pools and the first round of the seeded op stream
  peak_rss_mb  the process's max RSS at the end of the timed phase
The timed phase runs whole rounds until --seconds went into package calls;
rounds after the first are generated off the clock.

The three timings and setup_s are given at a nominal machine speed.  A
shared machine can run the same code twice as fast at one moment as a
few seconds later, which would swamp the differences the benchmark is
there to show.  So, off the clock, a fixed package-free computation
(reference()) is timed between ops every PROBE_EVERY_S of package time and
around every set-up, and each measured time is scaled by REFERENCE_S over
the mean of the reference times taken just before and just after it.  The
unscaled figures are printed too.

--trace 1 replays a fixed number of rounds twice, once untraced and once
with spans around the package's public entry points (tracing.py), and
reports the per-layer metrics, trace.overhead_ratio (traced over untraced
time of the same ops, minus one) and trace.untraced_s (op time that no
layer span covers).  Spans are written to perfbench/out/.

Each result is checked off the clock before the next op is issued, a
seeded sample of them also against an independent computation;
mismatches and exceptions count as failed ops.  After the timed phase the
size-limit probe probe.radford_xy_deg7 runs once and is reported on its
own.  The last line of output is one JSON object with correct, attempted,
failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from tracing import OP_SPAN, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PACKAGE = "mixshuffle"
SETUP_REPEATS = 15
# reference() takes REFERENCE_S at nominal speed; it is timed after at most
# PROBE_EVERY_S of package time.
REFERENCE_S = 1e-3
PROBE_EVERY_S = 0.05
# Rounds per second at the commit the benchmark was defined on.  A traced
# run replays seconds / 2 times this many rounds, so its counts cover the
# same work whatever the speed of the code under test.
TRACE_ROUNDS_PER_S = {"products": 2.7, "powers": 5.0, "verify": 0.2}
# A traced run gives up on the remaining rounds once this many times
# --seconds went into package calls, so a much slower program still
# finishes in bounded time; its counts then cover fewer rounds.
TRACE_BUDGET = 3
MAX_TRACEBACKS = 3


def import_package():
    """Import the package from ./src afresh and return it."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ms = importlib.import_module(PACKAGE)
    origin = Path(ms.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError("%s was imported from %s, not from %s"
                          % (PACKAGE, origin, SRC))
    return ms


def setup(name, seed, trace=False):
    """Import the package, build the workload and generate its first
    round; returns (seconds, package, workload, round, tracer or None)."""
    t0 = time.perf_counter()
    ms = import_package()
    tracer = None
    if trace:
        tracer = Tracer(ms)
        tracer.install()
    workload = WORKLOADS[name](ms, seed)
    first = workload.round()
    return time.perf_counter() - t0, ms, workload, first, tracer


def reference():
    """Package-free interpreter work whose time tracks the machine's
    speed: tuple keys, dict lookups and small-int arithmetic, as in the
    package's own inner loops."""
    counts = {}
    for i in range(3000):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 3 * i
    return counts


def reference_seconds():
    """The best of three timings of reference()."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best


class Tally:
    """Latencies, failures and input statistics of one pass."""

    def __init__(self):
        self.latencies = []
        self.failed = set()
        self.sampled = 0
        self.keys = set()
        self.repeats = 0
        self.kinds = Counter()
        self.groups = Counter()
        self.group_time = Counter()
        self.word_lengths = []
        self.tracebacks = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy(self):
        return math.fsum(self.latencies)

    def record(self, op, seconds):
        self.latencies.append(seconds)
        if op.key in self.keys:
            self.repeats += 1
        else:
            self.keys.add(op.key)
        self.kinds[op.kind] += 1
        self.groups[op.group] += 1
        self.group_time[op.group] += seconds
        self.word_lengths.extend(op.lengths)

    def fail(self, index, what):
        self.failed.add(index)
        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            print("op %d failed: %s" % (index, what), file=sys.stderr)


def run_op(workload, op, index, tally, tracer=None):
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(op)
        else:
            group = op.group if isinstance(op.group, str) else op.kind
            result = tracer.op(index, group, workload.call, op)
    except Exception:
        tally.record(op, time.perf_counter() - t0)
        tally.fail(index, traceback.format_exc())
        return
    tally.record(op, time.perf_counter() - t0)
    if tracer is not None:
        tracer.enabled = False
    try:
        ok = workload.check(op, result)
        if ok and op.sample:
            tally.sampled += 1
            ok = workload.sample_check(op, result)
    except Exception:
        ok = False
    finally:
        if tracer is not None:
            tracer.enabled = True
    if not ok:
        tally.fail(index, "wrong result for %r" % (op.key,))


def timed_loop(workload, first, seconds):
    """Whole rounds, starting with the given one, until the time spent in
    package calls reaches seconds.  Returns the tally and the reference
    probes as (index of the next op, seconds of reference()): one before
    the first op, one after the last, and one between ops whenever
    PROBE_EVERY_S of package time went by since the last."""
    tally = Tally()
    probes = []
    pending = [first]
    gc.collect()
    next_probe = 0.0
    while tally.busy < seconds:
        for op in pending.pop() if pending else workload.round():
            if tally.busy >= next_probe:
                probes.append((tally.attempted, reference_seconds()))
                next_probe = tally.busy + PROBE_EVERY_S
            run_op(workload, op, tally.attempted, tally)
    probes.append((tally.attempted, reference_seconds()))
    return tally, probes


def nominal(latencies, probes):
    """Each latency at nominal speed, scaled by the mean of the probes
    taken just before and just after it."""
    out = []
    j = 0
    for i, seconds in enumerate(latencies):
        while probes[j + 1][0] <= i:
            j += 1
        out.append(seconds * 2 * REFERENCE_S
                   / (probes[j][1] + probes[j + 1][1]))
    return out


def paired_replay(workload, rounds, tracer, budget):
    """Each round once untraced and once traced, alternating which goes
    first, so drift over the run cancels out of the overhead ratio.  The
    first round runs once before, unrecorded, so that neither side pays
    for first use.  Stops early once both sides together have spent
    budget seconds in package calls; returns both tallies and the number
    of rounds replayed."""
    plain, traced = Tally(), Tally()
    for op in rounds[0]:
        run_op(workload, op, -1, Tally())
    gc.collect()
    index = done = 0
    for i, ops in enumerate(rounds):
        if plain.busy + traced.busy > budget:
            break
        done += 1
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
                for op in ops:
                    run_op(workload, op, index, traced, tracer)
                    index += 1
                tracer.uninstall()
            else:
                for op in ops:
                    run_op(workload, op, index, plain)
                    index += 1
    return plain, traced, done


def percentile(sorted_values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """The highest of p90, p99, p99.9 with at least ten samples beyond."""
    best = None
    for q in (90, 99, 99.9):
        if n - math.ceil(q / 100 * n) >= 10:
            best = q
    return best


def probe(ms):
    """verify_radford_hoffman(free:x,y, weight 1, degree 7), untimed."""
    t0 = time.perf_counter()
    try:
        report = ms.verify_radford_hoffman(
            ms.semigroup_from_preset("free:x,y"), 1, 7)
        ok, note = report.passed, "passed" if report.passed else "failed"
    except RecursionError as exc:
        ok, note = False, "RecursionError: %s" % exc
    except Exception as exc:
        ok, note = False, "%s: %s" % (type(exc).__name__, exc)
    return ok, note, time.perf_counter() - t0


def input_properties(workload, tally):
    n = tally.attempted
    props = {
        "ops": n,
        "repeat_share": tally.repeats / n,
        "op_mix": {k: v / n for k, v in sorted(tally.kinds.items())},
    }
    if tally.word_lengths:
        props["mean_word_length"] = statistics.fmean(tally.word_lengths)
    if workload.name == "verify":
        total = math.fsum(tally.group_time.values())
        props["time_split"] = {g: t / total
                               for g, t in sorted(tally.group_time.items())}
        props["half_mix"] = {g: c / n for g, c in sorted(tally.groups.items())}
    else:
        rings, weights = Counter(), Counter()
        for (ring, lam), c in tally.groups.items():
            rings[ring] += c
            weights[str(lam)] += c
        props["ring_mix"] = {k: v / n for k, v in sorted(rings.items())}
        props["weight_mix"] = {k: v / n for k, v in sorted(weights.items())}
    return props


def emit(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def run_untraced(name, seed, seconds):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_seconds()
        elapsed, ms, workload, first, _ = setup(name, seed)
        raw_setups.append(elapsed)
        setups.append(elapsed * 2 * REFERENCE_S
                      / (before + reference_seconds()))
    tally, probes = timed_loop(workload, first, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_ok, probe_note, probe_s = probe(ms)

    n = tally.attempted
    failed = len(tally.failed)
    raw = sorted(tally.latencies)
    lat = nominal(tally.latencies, probes)
    busy = math.fsum(lat)
    lat.sort()
    metrics = {
        "ops_per_s": ((n - failed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    unscaled = {
        "ops_per_s": (n - failed) / tally.busy,
        "op_p50_ms": statistics.median(raw) * 1e3,
        "op_p90_ms": percentile(raw, 90) * 1e3,
        "setup_s": statistics.median(raw_setups),
    }
    refs = [seconds for _, seconds in probes]
    print("workload %s seed %d: %d ops, %.3f s of package time, %d "
          "sampled for the expensive check"
          % (name, seed, n, tally.busy, tally.sampled))
    print("reference() median %.4g ms over %d probes (%.4g to %.4g ms); "
          "nominal %.4g ms" % (statistics.median(refs) * 1e3, len(refs),
                               min(refs) * 1e3, max(refs) * 1e3,
                               REFERENCE_S * 1e3))
    for key, (value, unit) in metrics.items():
        extra = ""
        if key in unscaled:
            extra = " at nominal speed (%.6g unscaled" % unscaled[key]
            extra += ", median of %d)" % SETUP_REPEATS \
                if key == "setup_s" else " over %d ops)" % n
        print("%-22s %.6g %s%s" % (key, value, unit, extra))
    q = tail_percentile(n)
    print("%-22s p%g %.6g ms at nominal speed, %d beyond it"
          % ("tail", q, percentile(lat, q) * 1e3,
             n - math.ceil(q / 100 * n)))
    print("%-22s %.6g ratio (%d of %d)" % ("fail_ratio", failed / n,
                                           failed, n))
    print("%-22s %s (%s, %.3f s)" % ("probe.radford_xy_deg7",
                                     "PASS" if probe_ok else "FAIL",
                                     probe_note, probe_s))
    print("inputs " + json.dumps(input_properties(workload, tally),
                                 sort_keys=True))
    emit(failed == 0, n, failed, metrics)


def run_traced(name, seed, seconds):
    _, ms, workload, first, tracer = setup(name, seed, trace=True)
    tracer.uninstall()
    count = max(1, math.ceil(seconds / 2 * TRACE_ROUNDS_PER_S[name]))
    rounds = [first] + [workload.round() for _ in range(count - 1)]
    plain, traced, done = paired_replay(workload, rounds, tracer,
                                        TRACE_BUDGET * seconds)
    probe_ok, probe_note, _ = probe(ms)

    totals, by_group = tracer.totals()
    metrics = tracer.layer_metrics(totals)
    op_rec = totals.get(OP_SPAN, [0, 0.0, 0.0])
    metrics["trace.overhead_ratio"] = (traced.busy / plain.busy - 1,
                                       "ratio")
    metrics["trace.untraced_s"] = (op_rec[2], "s")
    metrics["probe.radford_xy_deg7"] = (1 if probe_ok else 0, "pass")

    print("workload %s seed %d traced: %d of %d rounds, %d ops, %.3f s "
          "untraced, %.3f s traced, %d spans"
          % (name, seed, done, count, traced.attempted, plain.busy,
             traced.busy, len(tracer.start)))
    print("%-24s %9s %11s %11s %7s" % ("span", "calls", "total_s", "self_s",
                                       "self%"))
    for span, (calls, total, own) in sorted(totals.items(),
                                            key=lambda kv: -kv[1][2]):
        print("%-24s %9d %11.6f %11.6f %6.1f%%"
              % (span, calls, total, own, 100 * own / traced.busy))
    print("self time by op group, top spans:")
    for group, cells in sorted(by_group.items()):
        total = math.fsum(cells.values())
        top = sorted(cells.items(), key=lambda kv: -kv[1])[:4]
        print("  %-10s %9.6f s: %s" % (group, total, ", ".join(
            "%s %.1f%%" % (span, 100 * own / total) for span, own in top)))
    for key, (value, unit) in metrics.items():
        print("%-32s %.6g %s" % (key, value, unit))
    print("probe.radford_xy_deg7 %s (%s)"
          % ("PASS" if probe_ok else "FAIL", probe_note))
    OUT.mkdir(exist_ok=True)
    dump = OUT / ("spans-%s-seed%d.json.gz" % (name, seed))
    tracer.dump(dump, {"workload": name, "seed": seed, "rounds": done})
    print("spans written to %s" % dump.relative_to(HERE.parent))
    failed = len(plain.failed) + len(traced.failed)
    attempted = plain.attempted + traced.attempted
    emit(failed == 0, attempted, failed, metrics)


def run_child(name, seed, seconds, trace=0):
    """This benchmark on one workload in a process of its own; returns
    its exit code and its lines of standard output."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOADS:
        code, lines = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        if code != 0 or not lines:
            print("workload %s exited with code %d" % (name, code))
            return 1
        results[name] = json.loads(lines[-1])
        print()
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except ImportError as exc:
        print("cannot import %s from %s: %s" % (PACKAGE, SRC, exc),
              file=sys.stderr)
        return 2
    if args.trace:
        run_traced(args.workload, args.seed, args.seconds)
    else:
        run_untraced(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
