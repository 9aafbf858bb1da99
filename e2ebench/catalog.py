"""Every metric the benchmark prints: unit, clock, direction and meaning.

Two clocks, never mixed:

* ``host``    — wall-clock time of the simulator process itself.  The
  end-to-end host times are in reference seconds: scaled by a
  calibration kernel timed around every timed unit, because a shared
  CPU's speed drifts (see ``cpu.py``; the human-readable output also
  prints the raw figure).  Per-layer times are raw.
* ``virtual`` — simulated DRAM time, a deterministic function of the
  inputs (the units say so: ``sim_us``, ``1/sim_s``, ``cycles``, ``nJ``).

``BENCHMARK.json`` lists the same names, units and directions; the
self-test in ``e2ebench_selftest/`` keeps the two in step.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Metric(NamedTuple):
    unit: str
    clock: str          # "host" | "virtual"
    better: str         # "lower" | "higher"
    meaning: str


#: End-to-end metrics, printed by every untraced run.
END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric(
        "s", "host", "lower",
        "import (median of five fresh interpreters) + construction and "
        "warm-up (median of three)"),
    "host_rps": Metric(
        "1/s", "host", "higher",
        "requests completed per host second (median over repetitions); a "
        "request is a design point, a served request or a served graph; "
        "input generation excluded"),
    "peak_rss_mb": Metric(
        "MB", "host", "lower", "peak resident memory of the process"),
    "sim_rps": Metric(
        "1/sim_s", "virtual", "higher",
        "requests per simulated second"),
    "sim_latency_p50_us": Metric(
        "sim_us", "virtual", "lower", "median simulated latency"),
    "sim_latency_tail_us": Metric(
        "sim_us", "virtual", "lower",
        "simulated latency at the highest percentile with ten samples "
        "beyond it (percentile and sample count printed alongside)"),
    "sim_cycles": Metric(
        "cycles", "virtual", "lower", "total simulated cycles of one repetition"),
    "sim_energy_nj": Metric(
        "nJ", "virtual", "lower", "total simulated energy of one repetition"),
}


class Layer(NamedTuple):
    unit: str
    clock: str
    better: str
    moves: str          # the end-to-end metric it should move
    on: str             # workload the layer mostly works on
    bypassed: str       # workload that bypasses it (prediction: no change)
    meaning: str


#: Per-layer metrics, printed by the traced run (``--trace 1``) for its one
#: traced repetition.  Times are raw wall-clock self times: a span's
#: duration minus its child spans.
PER_LAYER: Dict[str, Layer] = {
    "mapping.ms": Layer(
        "ms", "host", "lower", "host_rps, peak_rss_mb", "design_sweep",
        "serve_hot", "self time in cyclic_program / negacyclic_program"),
    "mapping.commands": Layer(
        "count", "host", "lower", "host_rps, peak_rss_mb", "design_sweep",
        "serve_hot", "commands generated on program-cache misses"),
    "mapping.us_per_cmd": Layer(
        "us/cmd", "host", "lower", "host_rps", "design_sweep", "serve_hot",
        "miss self time per generated command"),
    "compile.ms": Layer(
        "ms", "host", "lower", "host_rps", "design_sweep", "serve_hot",
        "self time in cached_stream (StreamIR + passes + lowering)"),
    "compile.us_per_cmd": Layer(
        "us/cmd", "host", "lower", "host_rps", "design_sweep", "serve_hot",
        "miss self time per compiled command"),
    "compile.fused_ratio": Layer(
        "ratio", "host", "higher", "host_rps", "design_sweep", "serve_hot",
        "share of compiled commands whose stream got a fused plan"),
    "dram.replay_ms": Layer(
        "ms", "host", "lower", "host_rps", "design_sweep", "serve_hot",
        "self time in TimingEngine.simulate_stream"),
    "dram.replay_cmds_per_s": Layer(
        "cmd/s", "host", "higher", "host_rps", "design_sweep", "serve_hot",
        "commands replayed per replay second"),
    "mapping.hit_ratio": Layer(
        "ratio", "host", "higher", "host_rps", "serve_hot, cluster_dag",
        "design_sweep", "program-cache hits / lookups"),
    "compile.hit_ratio": Layer(
        "ratio", "host", "higher", "host_rps", "serve_hot, cluster_dag",
        "design_sweep", "stream-cache hits / lookups"),
    "dram.schedule_hit_ratio": Layer(
        "ratio", "host", "higher", "host_rps", "serve_hot, cluster_dag",
        "design_sweep", "schedule-cache hits / lookups"),
    "pim.exec_ms": Layer(
        "ms", "host", "lower", "host_rps", "serve_hot", "design_sweep",
        "self time in PimBank.run_stream"),
    "pim.host_io_ms": Layer(
        "ms", "host", "lower", "host_rps", "serve_hot", "design_sweep",
        "self time in load_polynomial, read_polynomial, bit_reverse_permute"),
    "pim.bu_ops": Layer(
        "count", "host", "lower", "host_rps", "serve_hot", "design_sweep",
        "butterfly operations executed by the functional banks"),
    "sim.merge_ms": Layer(
        "ms", "host", "lower", "host_rps", "serve_hot", "design_sweep",
        "self time in compile_multibank / compile_batch"),
    "ntt.verify_ms": Layer(
        "ms", "host", "lower", "host_rps", "cluster_dag", "design_sweep",
        "self time in the golden models (reference, merged negacyclic, "
        "naive convolution)"),
    "fhe.ms": Layer(
        "ms", "host", "lower", "host_rps", "cluster_dag", "serve_hot",
        "self time in PimFheAccelerator"),
    "api.run_ms": Layer(
        "ms", "host", "lower", "host_rps", "all", "none",
        "inclusive time of outermost Simulator.run calls"),
    "api.self_ms": Layer(
        "ms", "host", "lower", "host_rps", "all", "none",
        "self time in Simulator.run (handlers, driver, envelopes)"),
    "serve.self_ms": Layer(
        "ms", "host", "lower", "host_rps", "serve_hot", "design_sweep",
        "self time in SimServer (serve/submit/drain/advance/poll)"),
    "serve.loadgen_ms": Layer(
        "ms", "host", "lower", "none (outside host_rps)", "serve_hot",
        "design_sweep", "generation of the timed inputs"),
    "serve.dispatches": Layer(
        "count", "virtual", "lower", "sim_rps, sim_latency_tail_us",
        "serve_hot", "cluster_dag", "dispatch groups of one repetition"),
    "serve.batch_occupancy": Layer(
        "ratio", "virtual", "higher", "sim_rps, sim_latency_tail_us",
        "serve_hot", "cluster_dag", "mean requests per dispatch"),
    "serve.queue_wait_p99_us": Layer(
        "sim_us", "virtual", "lower", "sim_rps, sim_latency_tail_us",
        "serve_hot", "cluster_dag", "p99 arrival-to-service wait"),
    "serve.bus_utilization": Layer(
        "ratio", "virtual", "lower", "sim_rps, sim_latency_tail_us",
        "serve_hot", "cluster_dag", "command-bus busy time / makespan"),
    "dag.stretch": Layer(
        "ratio", "virtual", "lower", "sim_latency_tail_us", "cluster_dag",
        "serve_hot", "served makespan / dependency critical path"),
    "dag.stage_latency_p99_us": Layer(
        "sim_us", "virtual", "lower", "sim_latency_tail_us", "cluster_dag",
        "serve_hot", "p99 latency of DAG stages"),
    "cluster.self_ms": Layer(
        "ms", "host", "lower", "host_rps", "cluster_dag", "serve_hot",
        "self time in ClusterFrontend (replica SimServer calls excluded)"),
    "cluster.route_skew": Layer(
        "ratio", "virtual", "lower", "host_rps", "cluster_dag", "serve_hot",
        "busiest replica's requests / mean requests per replica"),
    "trace.overhead_pct": Layer(
        "%", "host", "lower", "none", "all", "none",
        "traced repetition's wall time over the untraced median, minus 1"),
    "trace.uncovered_ms": Layer(
        "ms", "host", "lower", "none", "all", "none",
        "wall time of the traced repetition that no span covers"),
}


def units(table) -> Dict[str, Tuple[str, str]]:
    """``{name: (unit, better)}`` — the shape ``BENCHMARK.json`` records."""
    return {name: (m.unit, m.better) for name, m in table.items()}
