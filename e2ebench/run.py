#!/usr/bin/env python3
"""The repository benchmark: one workload, end to end or layer by layer.

Usage, from the repository root::

    python3 e2ebench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced repetitions, then one traced repetition, and prints the
per-layer metrics (see ``catalog.py``).  Every repetition is checked for
correctness outside its timed region.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The simulator is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("design_sweep", "serve_hot", "cluster_dag")
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a tiny grid and stream, for the self-test")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Import time of the benchmark and simulator in a fresh interpreter,
    in reference seconds (``cpu`` is pure Python and imports nothing
    the simulator needs)."""
    probe = (f"import sys, time; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
             "import cpu; before = cpu.kernel_seconds(); "
             "start = time.perf_counter(); "
             "import catalog, spans, workloads; "
             "wall = time.perf_counter() - start; "
             "print(cpu.reference(wall, before, cpu.kernel_seconds()))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def host_rps(reps, field: str) -> float:
    """Requests per host second, from each timed unit's median ``field``
    time over the repetitions (a design point, or a whole serving call)."""
    units = zip(*(getattr(rep, field) for rep in reps))
    return reps[0].requests / sum(statistics.median(unit) for unit in units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    import_s = statistics.median(import_seconds()
                                 for _ in range(IMPORT_SAMPLES))
    sys.path.insert(0, SRC)
    import catalog
    import spans
    from cpu import Timer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size)
    setup_timer = Timer()
    for _ in range(SETUP_REPEATS):
        setup_timer(workload.setup, args.seed)
    setup_s = import_s + statistics.median(setup_timer.ref)

    start = time.perf_counter()
    inputs = workload.generate(args.seed)
    loadgen_s = time.perf_counter() - start

    failures = {}
    reps = []

    def run_rep():
        rep = workload.rep(inputs, len(reps))
        if reps and rep.fingerprint != reps[0].fingerprint:
            failures[f"repetition {len(reps)}"] = "virtual outcomes differ"
        failures.update((f"rep {len(reps)} {k}", v)
                        for k, v in workload.check(rep).items())
        # Drop the checked outputs so memory does not grow with the
        # number of repetitions.
        reps.append(rep._replace(payload=None))
        return rep

    timed_s = 0.0
    while timed_s < args.seconds:
        timed_s += run_rep().wall_s
    untraced_s = statistics.median(sum(rep.ref_walls) for rep in reps)

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_rep()
        finally:
            tracer.remove()
        tracer.write_chrome_trace(os.path.join(
            ROOT, ".bench_out", f"trace-{args.workload}-seed{args.seed}.json"))
        values = dict.fromkeys(catalog.PER_LAYER, 0.0)
        values.update(traced.layers)
        values.update(spans.layer_metrics(tracer.spans,
                                          int(traced.wall_s * 1e9)))
        for metric, cache in (("mapping.hit_ratio", "program"),
                              ("compile.hit_ratio", "stream"),
                              ("dram.schedule_hit_ratio", "schedule")):
            delta = traced.cache[cache]
            lookups = delta["hits"] + delta["misses"]
            values[metric] = delta["hits"] / lookups if lookups else 0.0
        values["serve.loadgen_ms"] = loadgen_s * 1e3
        values["trace.overhead_pct"] = 100.0 * (
            sum(traced.ref_walls) / untraced_s - 1.0)
        table = catalog.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "host_rps": host_rps(reps, "ref_walls"),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update((k, v) for k, v in reps[0].virtual.items()
                      if k in catalog.END_TO_END)
        table = catalog.END_TO_END

    attempted = sum(len(rep.fingerprint) for rep in reps)
    virtual = reps[0].virtual
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} items/rep={len(reps[0].fingerprint)} "
          f"timed_s={sum(rep.wall_s for rep in reps):.3f} "
          f"loadgen_s={loadgen_s:.3f} "
          f"raw_host_rps={host_rps(reps, 'walls'):.6g}")
    print(f"  tail = p{virtual['tail_percentile']:.2f} of "
          f"{virtual['samples']} samples; "
          f"failed_frac = {len(failures) / attempted:.6f} "
          f"({len(failures)}/{attempted})")
    for name, metric in table.items():
        moves = f" moves {metric.moves}" if args.trace else ""
        print(f"  {name:26s} {values[name]:>16.6g} {metric.unit:8s} "
              f"{metric.clock:8s} {metric.better:7s}{moves}")
    for label, reason in list(failures.items())[:20]:
        print(f"  FAILED {label}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": metric.unit}
                    for name, metric in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
