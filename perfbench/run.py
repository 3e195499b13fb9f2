"""keyval benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload conic-oracle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; keyval is imported from ./src.  Each workload
is a closed loop from this one process: one client, one request at a time.
It executes whole request blocks until the requests have taken ``--seconds``
at the nominal CPU speed (see REF_NOMINAL_S), and checks every output.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
over a fixed number of blocks, so that counts repeat exactly for a given
seed.  ``--workload all`` runs every workload in its own interpreter and
prints one table.  perfbench/README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
WORK = ".perfbench_work"
SETUP_REPEATS = 9
MIN_REQUESTS = 100  # so that at least 10 requests lie beyond the p90
# Timings are scaled to a nominal CPU speed: the speed at which the reference
# loop below takes REF_NOMINAL_S.  The CPU speed of a shared VM drifts by up to
# 2x within tens of seconds.  The loop runs between consecutive requests and,
# from a wall-clock timer, every PROBE_INTERVAL_S inside long ones; a request's
# wall time (less the probes inside it) is multiplied by REF_NOMINAL_S over the
# mean duration of the loops around and inside it.
REF_TERMS = 100
REF_NOMINAL_S = 0.0004
PROBE_INTERVAL_S = 0.1
# Blocks a traced run executes, each once untraced and once traced.
TRACE_BLOCKS = {"conic-oracle": 1, "izumi-search": 3, "rewrite-roundtrip": 60,
                "cli-requests": 120}


def reference_s():
    """Wall time of a fixed exact-rational loop, the benchmark's speed probe."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def measure_setup(wl, paths):
    """Median time of a fresh interpreter importing keyval and loading the fixtures.

    Returns (at the nominal speed, wall clock).
    """
    code = "; ".join(
        ["import sys", "sys.path.insert(0, %r)" % SRC, wl.setup_imports, "from keyval import io"]
        + ["io.load_basis(%r)" % paths[b] for b in wl.setup_bases]
        + ["io.load_parametrization(%r)" % paths[p] for p in wl.setup_params]
    )
    subprocess.run([sys.executable, "-c", code], check=True)  # writes the bytecode caches
    raw, scaled = [], []
    ref = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        dt = time.perf_counter() - t0
        ref_after = reference_s()
        raw.append(dt)
        scaled.append(dt * 2 * REF_NOMINAL_S / (ref + ref_after))
        ref = ref_after
    return statistics.median(scaled), statistics.median(raw)


class SpeedProbe:
    """Samples the reference loop from a SIGALRM timer while active."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(reference_s())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Outcome:
    def __init__(self):
        self.latencies = []  # wall seconds
        self.scaled = []  # seconds at the nominal CPU speed
        self.attempted = 0
        self.failed = 0
        self.errors = []


def run_blocks(wl, blocks, outcome, budget_s=None):
    """Execute blocks of requests.  With ``budget_s``, stop at the first block
    boundary where the requests have taken that many seconds at the nominal
    speed and MIN_REQUESTS are done."""
    with SpeedProbe() as probe:
        ref = reference_s()
        for reqs in blocks:
            for req in reqs:
                outcome.attempted += 1
                mark = len(probe.samples)
                t0 = time.perf_counter()
                try:
                    result = wl.execute(req)
                except Exception as exc:  # a request that raised counts as failed
                    outcome.failed += 1
                    outcome.errors.append("%s: %r" % (req.kind, exc))
                    continue
                dt = time.perf_counter() - t0
                inside = probe.samples[mark:]
                ref_after = reference_s()
                refs = [ref, ref_after] + inside
                outcome.latencies.append(dt - sum(inside))
                outcome.scaled.append((dt - sum(inside)) * REF_NOMINAL_S * len(refs) / sum(refs))
                ref = ref_after
                try:
                    ok = wl.check(req, result)
                except (ValueError, KeyError, TypeError, IndexError):  # unreadable output
                    ok = False
                if not ok:
                    outcome.failed += 1
                    outcome.errors.append("%s: wrong output for %r" % (req.kind, req.argv or req.poly))
            if (budget_s is not None and sum(outcome.scaled) >= budget_s
                    and outcome.attempted >= MIN_REQUESTS):
                return


def block_stream(wl, seed, count=None):
    index = 0
    while count is None or index < count:
        yield wl.block(seed, index)
        index += 1


def run_workload(args):
    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail("unknown workload %r" % args.workload)
    work = os.path.join(WORK, "run-%d" % os.getpid())
    try:
        paths = inputs.write_fixtures(work)
        wl = workloads.WORKLOADS[args.workload]()
        setup = measure_setup(wl, paths) if not args.trace else None
        wl.setup(paths)
        outcome = Outcome()
        if args.trace:
            metrics = traced(wl, args, outcome)
        else:
            t0 = time.perf_counter()
            run_blocks(wl, block_stream(wl, args.seed), outcome, budget_s=args.seconds)
            elapsed = time.perf_counter() - t0
            if not outcome.latencies:
                fail("every request of %s raised: %s" % (args.workload, outcome.errors[:3]))
            metrics = end_to_end(outcome.scaled, setup[0])
            print("%s seed %d: %d requests in %.1f s, failed_ratio %.6f (%d/%d)" % (
                args.workload, args.seed, outcome.attempted, elapsed,
                outcome.failed / outcome.attempted, outcome.failed, outcome.attempted))
            print("wall-clock, unscaled: " + ", ".join(
                "%s %.6g %s" % (name, m["value"], m["unit"])
                for name, m in end_to_end(outcome.latencies, setup[1]).items()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for line in outcome.errors[:10]:
        print("FAILED " + line, file=sys.stderr)
    for name, m in metrics.items():
        print("%-32s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))


def end_to_end(latencies, setup_s):
    ms = [t * 1000 for t in latencies]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "requests_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
        "request_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "request_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MiB"},
    }


def trace_blocks(wl, blocks, outcome):
    """Run each block untraced, then traced; returns (tracer, untraced_s, traced_s).

    The two passes alternate block by block, so both see the same CPU speed
    and caches a workload keeps across requests are equally warm.  Times are
    sums of request times at the nominal speed.
    """
    import tracing

    tracer = tracing.Tracer()
    spent = [0.0, 0.0]
    for block in blocks:
        for traced_pass in (0, 1):
            before = sum(outcome.scaled)
            if traced_pass:
                tracer.install()
            try:
                run_blocks(wl, [block], outcome)
            finally:
                tracer.uninstall()
            spent[traced_pass] += sum(outcome.scaled) - before
    return tracer, spent[0], spent[1]


def traced(wl, args, outcome):
    blocks = list(block_stream(wl, args.seed, TRACE_BLOCKS[args.workload]))
    tracer, untraced_s, traced_s = trace_blocks(wl, blocks, outcome)
    print("%s seed %d traced: %d blocks, %.2f s untraced, %.2f s traced at nominal speed" % (
        args.workload, args.seed, len(blocks), untraced_s, traced_s))
    return tracer.metrics(traced_s / untraced_s)


def run_all(args):
    """Each workload in its own interpreter, then one table."""
    import workloads

    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            fail("workload %s exited with %d" % (name, proc.returncode))
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print("%-32s" % "metric" + "".join("%20s" % w for w in rows))
    for metric in names:
        unit = next(iter(rows.values()))["metrics"][metric]["unit"]
        print("%-32s" % ("%s (%s)" % (metric, unit))
              + "".join("%20.6g" % r["metrics"][metric]["value"] for r in rows.values()))
    print("%-32s" % "failed_ratio (ratio)"
          + "".join("%20.6g" % (r["failed"] / r["attempted"]) for r in rows.values()))
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "keyval")):
        fail("no keyval sources under ./%s; run from the repository root" % SRC)
    sys.path.insert(0, os.path.abspath(SRC))
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
