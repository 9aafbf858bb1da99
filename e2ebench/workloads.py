"""The benchmark's three workloads.

Each workload class has four steps, which ``run.py`` drives:

* ``setup()``     — construction and warm-up (timed as ``setup_s``);
* ``generate()``  — the timed inputs, made from the seed before any timing;
* ``rep()``       — one repetition of the timed region, returning a :class:`Rep`;
* ``check()``     — correctness of one repetition, outside the timed region.

Why these three (see also ``BENCHMARK.json``):

* ``design_sweep`` is the paper's own evaluation: Fig. 7's N x Nb grid,
  Fig. 8's clock points and DSE row sizes, timing only, every point cold.
  Mapping, compile and timing replay do the work; the functional bank,
  the golden models and the serving layer do none.
* ``serve_hot`` is the hot-shape FHE traffic the paper targets: warm
  caches, ~6.8 requests per dispatch, functional execution and golden
  verification of every request.
* ``cluster_dag`` serves dependent FHE / KEM op-graphs on a 2-replica
  cluster: stages cannot batch, and the fhe, dag and cluster layers work.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import statistics
from typing import Dict, List, NamedTuple, Tuple

from cpu import Timer
from repro import NttParams, PimParams, SimConfig
from repro.api import FheOpRequest, NttRequest, Simulator, merge_key
from repro.api.dag import DagRequest
from repro.api.requests import KyberKemRequest
from repro.api.workloads import precompile_request
from repro.arith.primes import ntt_prime_candidates
from repro.cluster import ClusterFrontend
from repro.dram.engine import TimingEngine
from repro.dram.timing import HBM2E_ARCH
from repro.mapping.program_cache import cyclic_program
from repro.ntt.negacyclic import negacyclic_intt
from repro.serve import ServeRequest, SimServer, make_scenario
from repro.sim.multibank import interleave_programs

__all__ = ["WORKLOADS", "Rep", "SIZES", "cache_totals"]

#: Workload sizes; ``smoke`` is the self-test's.  A serving workload's
#: size is (timed requests, warm-up requests).
SIZES = {
    "full": {"design_sweep": {"ns": (256, 512, 1024, 2048, 4096),
                              "nbs": (1, 2, 4), "freqs": (900.0, 600.0, 300.0),
                              "columns": (8, 16, 64), "dse_n": 2048},
             "serve_hot": (1200, 300), "cluster_dag": (120, 60)},
    "smoke": {"design_sweep": {"ns": (256, 512), "nbs": (1, 2),
                               "freqs": (600.0,), "columns": (16,),
                               "dse_n": 512},
              "serve_hot": (40, 20), "cluster_dag": (10, 10)},
}

BASE_FREQ_MHZ = SimConfig().timing.freq_mhz
MAX_BANKS = 8


class Rep(NamedTuple):
    """One repetition of a timed region."""

    #: Host wall time of each timed unit (a design point, or a whole
    #: serving call), raw and in reference seconds (see ``cpu.py``).
    walls: Tuple[float, ...]
    ref_walls: Tuple[float, ...]
    #: Outcomes that must repeat exactly across repetitions.
    fingerprint: tuple
    #: Virtual (simulated) end-to-end metrics.
    virtual: Dict[str, float]
    #: Virtual per-layer metrics (serving telemetry).
    layers: Dict[str, float]
    requests: int
    #: Whatever ``check()`` needs.
    payload: object
    cache: Dict[str, Dict[str, int]]

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def cache_totals() -> Dict[str, Dict[str, int]]:
    info = Simulator().cache_info()
    return {name: dict(info[name]) for name in ("program", "stream", "schedule")}


def cache_delta(before, after) -> Dict[str, Dict[str, int]]:
    return {name: {k: after[name][k] - before[name][k]
                   for k in ("hits", "misses")} for name in before}


def latency_stats(latencies: List[float]) -> Tuple[float, float, float, int]:
    """Median, tail value, tail percentile and sample count; the tail is
    the highest percentile that leaves at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), ordered[-1], 100.0, n
    return (statistics.median(ordered), ordered[n - 11],
            100.0 * (n - 10) / n, n)


def _engine(config: SimConfig) -> TimingEngine:
    return TimingEngine(config.timing, config.arch,
                        compute=config.pim.compute_timing(),
                        energy=config.energy)


def reference_cycles(params: NttParams, banks: int, config: SimConfig) -> int:
    """Cycles of ``banks`` same-shape cyclic programs, interleaved on the
    shared bus by the legacy per-command merge and replayed by the
    per-command reference interpreter ``TimingEngine.simulate``."""
    programs = [cyclic_program(params, config.arch, config.pim,
                               config.base_row, bank, config.mapper_options)
                for bank in range(banks)]
    commands = (programs[0].commands if banks == 1 else
                interleave_programs([p.commands for p in programs]))
    return _engine(config).simulate(commands).total_cycles


# -- design_sweep --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    figure: str          # "fig7" | "fig8" | "dse"
    n: int
    nb: int
    freq_mhz: float = BASE_FREQ_MHZ
    columns: int = HBM2E_ARCH.columns_per_row

    def config(self) -> SimConfig:
        arch = dataclasses.replace(HBM2E_ARCH, columns_per_row=self.columns)
        config = SimConfig(arch=arch, pim=PimParams(nb_buffers=self.nb),
                           functional=False, verify=False)
        if self.freq_mhz != BASE_FREQ_MHZ:
            config = config.at_frequency(self.freq_mhz)
        return config


class DesignSweep:
    """Timing-only ``Simulator.run`` over the paper's design grid.

    Each repetition is one pass over every point with a fresh prime, on
    caches emptied by ``Simulator.clear_caches()``, so no (shape, config)
    pair repeats and every point pays for a new design point.  Fig. 8's
    clock points reuse the matching Nb=2 program and miss only the
    schedule cache, so they isolate timing replay.
    """

    name = "design_sweep"

    def __init__(self, size: str):
        s = SIZES[size][self.name]
        self.points = (
            [DesignPoint("fig7", n, nb) for n in s["ns"] for nb in s["nbs"]]
            + [DesignPoint("fig8", n, 2, freq_mhz=f)
               for n in s["ns"] for f in s["freqs"]]
            + [DesignPoint("dse", s["dse_n"], 2, columns=c)
               for c in s["columns"]])
        self.max_n = max(s["ns"])
        self.referenced = False

    def setup(self, seed: int) -> None:
        self.configs = [p.config() for p in self.points]
        self.simulators = [Simulator(c) for c in self.configs]

    def generate(self, seed: int) -> List[int]:
        """One prime per pass (q = 1 mod max N serves every N)."""
        primes = ntt_prime_candidates(self.max_n, 32, 64)
        random.Random(seed).shuffle(primes)
        return primes

    def rep(self, inputs: List[int], index: int) -> Rep:
        q = inputs[index]
        requests = {n: NttRequest(params=NttParams(n, q))
                    for n in {p.n for p in self.points}}
        Simulator.clear_caches()
        gc.collect()
        before = cache_totals()
        timer = Timer()
        responses = [timer(sim.run, requests[point.n])
                     for point, sim in zip(self.points, self.simulators)]
        latencies = [r.latency_us for r in responses]
        median, tail, pct, count = latency_stats(latencies)
        virtual = {
            "sim_rps": len(responses) / (sum(latencies) * 1e-6),
            "sim_latency_p50_us": median,
            "sim_latency_tail_us": tail,
            "sim_cycles": sum(r.cycles for r in responses),
            "sim_energy_nj": sum(r.energy_nj for r in responses),
            "tail_percentile": pct, "samples": count,
        }
        return Rep(tuple(timer.raw), tuple(timer.ref),
                   tuple((r.cycles, r.latency_us) for r in responses),
                   virtual, {}, len(responses), (requests, responses),
                   cache_delta(before, cache_totals()))

    def check(self, rep: Rep) -> Dict[str, str]:
        """Fig. 7 and DSE points miss the program cache, Fig. 8 points hit
        it and miss the schedule cache.  On the first repetition each
        point's cycles must equal the per-command reference interpreter
        on the same program; later repetitions (other primes, same
        timing) must repeat those cycles, which ``run.py`` checks."""
        requests, responses = rep.payload
        failures = {}
        for point, config, response in zip(self.points, self.configs,
                                            responses):
            cache = response.cache
            if point.figure == "fig8":
                cold = (cache["program"]["hits"] == 1
                        and cache["program"]["misses"] == 0)
            else:
                cold = cache["program"]["misses"] == 1
            if not cold or cache["schedule"]["misses"] != 1:
                failures[str(point)] = f"unexpected cache use {cache}"
            elif not self.referenced:
                expected = reference_cycles(requests[point.n].params, 1,
                                            config)
                if response.cycles != expected:
                    failures[str(point)] = (f"{response.cycles} cycles, "
                                            f"reference {expected}")
        self.referenced = True
        return failures


# -- serving workloads ---------------------------------------------------------


def make_stream(scenario: str, rate_rps: float, count: int,
                seed) -> List[ServeRequest]:
    """An open-loop stream of ``count`` requests over ``scenario``'s mix.

    Arrivals are a Poisson process conditioned on ``count`` arrivals in
    ``count / rate_rps`` seconds (sorted uniform arrival times), and the
    mix is met exactly (each kind's share rounded, order shuffled).  The
    seed then moves arrival jitter, order and operand values, not the
    total work or the offered rate, which keeps seed-to-seed spread small.
    """
    rng = random.Random(seed)
    mix = make_scenario(scenario).mix
    total = sum(weight for weight, _ in mix)
    exact = [weight / total * count for weight, _ in mix]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:count - sum(counts)]:
        counts[i] += 1
    makers = [maker for (_, maker), k in zip(mix, counts) for _ in range(k)]
    rng.shuffle(makers)
    span_us = count / rate_rps * 1e6
    arrivals = sorted(rng.uniform(0.0, span_us) for _ in makers)
    return [ServeRequest(request=maker(rng), arrival_us=at, request_id=i)
            for i, (maker, at) in enumerate(zip(makers, arrivals), start=1)]


def warm_shapes(stream: List[ServeRequest], config: SimConfig) -> None:
    """Compile every batch size of every mergeable shape in ``stream``,
    so the timed region never meets a group size the warm-up missed."""
    heads = {}
    for sreq in stream:
        requests = ([node for _, node in sreq.request.nodes]
                    if isinstance(sreq.request, DagRequest) else [sreq.request])
        for request in requests:
            key = merge_key(request)
            if key is not None:
                heads.setdefault(key, request)
    for head in heads.values():
        precompile_request(config, head)
        for banks in range(2, MAX_BANKS + 1):
            precompile_request(config, Simulator.merge_requests([head] * banks))


def stage_reference_cycles(request, banks: int, config: SimConfig) -> int:
    """Reference-interpreter cycles of one served (stage) request."""
    if isinstance(request, NttRequest):
        params = request.params.inverse() if request.inverse else request.params
        return reference_cycles(params, banks, config)
    if isinstance(request, FheOpRequest) and not request.native:
        cyclic = request.ring.cyclic
        inverse = NttParams(cyclic.n, cyclic.q, cyclic.omega_inv)
        forward = {"multiply": 2, "forward": 1, "inverse": 0}[request.op]
        return (forward * reference_cycles(cyclic, 1, config)
                + (request.op != "forward") * reference_cycles(inverse, 1,
                                                               config))
    if isinstance(request, KyberKemRequest):
        sub = NttParams(request.n // request.depth, request.q)
        return (reference_cycles(sub, 2 * request.depth, config)
                + reference_cycles(sub.inverse(), request.depth, config))
    raise TypeError(f"no reference for {type(request).__name__}")


def reference_key(request, banks: int) -> tuple:
    """Everything :func:`stage_reference_cycles` depends on."""
    if isinstance(request, FheOpRequest):
        return ("fhe", request.ring.n, request.ring.q, request.op,
                request.native)
    if isinstance(request, KyberKemRequest):
        return ("kem", request.n, request.q, request.depth)
    return (merge_key(request), banks)


class _Serving:
    """Shared shape of the two serving workloads."""

    name: str
    scenario: str
    rate_rps: float
    #: Whether only served graphs count as requests (the rest is
    #: background load).
    graphs_only: bool
    config = SimConfig()

    def __init__(self, size: str):
        self.count, self.warm_count = SIZES[size][self.name]
        #: Reference cycles per :func:`reference_key`, kept across reps.
        self.references: Dict[tuple, int] = {}

    def setup(self, seed: int) -> None:
        """Warm every cache with a stream from another seed."""
        Simulator.clear_caches()
        stream = make_stream(self.scenario, self.rate_rps, self.warm_count,
                             f"warm-up:{seed}")
        self.make_server().serve(stream)
        warm_shapes(stream, self.config)

    def generate(self, seed: int) -> List[ServeRequest]:
        return make_stream(self.scenario, self.rate_rps, self.count, seed)

    def rep(self, inputs: List[ServeRequest], index: int) -> Rep:
        server = self.make_server()
        gc.collect()
        before = cache_totals()
        timer = Timer()
        results = timer(server.serve, inputs)
        cache = cache_delta(before, cache_totals())
        snapshot = self.telemetry(server).snapshot()
        measured = [r for r in results
                    if r.stages is not None or not self.graphs_only]
        latencies = [r.record.latency_us for r in measured if r.ok]
        median, tail, pct, count = latency_stats(latencies or [0.0])
        first = min(r.record.arrival_us for r in measured)
        last = max(r.record.completion_us for r in measured)
        virtual = {
            "sim_rps": len(latencies) / ((last - first) * 1e-6),
            "sim_latency_p50_us": median,
            "sim_latency_tail_us": tail,
            "sim_cycles": snapshot["total_cycles"],
            "sim_energy_nj": snapshot["total_energy_nj"],
            "tail_percentile": pct, "samples": count,
        }
        replicas = [r.record.replica for r in results]
        per_replica = [replicas.count(k) for k in set(replicas)]
        layers = {
            "serve.dispatches": snapshot["dispatches"],
            "serve.batch_occupancy": snapshot["mean_batch_occupancy"],
            "serve.queue_wait_p99_us": snapshot["queue_wait_p99_us"],
            "serve.bus_utilization": snapshot["bus_utilization"],
            "dag.stretch": snapshot["dag"]["critical_path_stretch"],
            "dag.stage_latency_p99_us": snapshot["dag"]["stage_latency_p99_us"],
            "cluster.route_skew": (max(per_replica)
                                   / statistics.mean(per_replica)),
        }
        fingerprint = tuple((r.record.status, r.record.latency_us,
                             r.record.cycles) for r in results)
        return Rep(tuple(timer.raw), tuple(timer.ref), fingerprint, virtual,
                   layers, len(measured),
                   results, cache)

    def check(self, rep: Rep) -> Dict[str, str]:
        """Every result is ok and verified against its golden model (the
        rescale stages, which the simulator leaves unverified, against
        ``negacyclic_intt``), its cycles equal the reference interpreter's
        for its dispatch group, and no cache missed in the timed region."""
        failures = {}

        def problem(result) -> str:
            response = result.response
            if not result.ok:
                return f"{result.record.status} {result.record.error}"
            request = response.request
            if not response.verified and not (
                    isinstance(request, FheOpRequest)
                    and request.op == "inverse" and not request.native
                    and response.values == negacyclic_intt(
                        list(request.a), request.ring)):
                return "output not verified"
            key = reference_key(request, result.record.group_banks)
            if key not in self.references:
                self.references[key] = stage_reference_cycles(
                    request, result.record.group_banks, self.config)
            if response.cycles != self.references[key]:
                return (f"{response.cycles} cycles, "
                        f"reference {self.references[key]}")
            return ""

        for result in rep.payload:
            label = f"request {result.record.request_id}"
            stages = ({label: result} if result.stages is None
                      else {f"{label} stage {name}": stage
                            for name, stage in result.stages.items()})
            if not result.ok:
                failures[label] = f"{result.record.status} {result.record.error}"
            for stage_label, stage in stages.items():
                reason = problem(stage)
                if reason:
                    failures.setdefault(label, f"{stage_label}: {reason}")
        for name, delta in rep.cache.items():
            if delta["misses"]:
                failures[f"{name} cache"] = (f"{delta['misses']} misses in "
                                             f"the timed region")
        return failures


class ServeHot(_Serving):
    """``SimServer`` on ``skewed`` traffic (90% N=512 forward NTTs) at
    400k simulated rps; a request is a served request."""

    name = "serve_hot"
    scenario = "skewed"
    rate_rps = 400_000.0
    graphs_only = False

    def make_server(self):
        return SimServer(self.config, max_banks=MAX_BANKS)

    def telemetry(self, server):
        return server.telemetry


class ClusterDag(_Serving):
    """A 2-replica ``ClusterFrontend`` on the ``dag`` scenario (CKKS
    multiply chains, Kyber KEM batches, N=512 NTTs) at 100k simulated
    rps; a request is a served graph, the NTTs are background load."""

    name = "cluster_dag"
    scenario = "dag"
    rate_rps = 100_000.0
    graphs_only = True

    def make_server(self):
        return ClusterFrontend(2, self.config, max_banks=MAX_BANKS)

    def telemetry(self, frontend):
        return frontend.cluster_telemetry()


WORKLOADS = {cls.name: cls for cls in (DesignSweep, ServeHot, ClusterDag)}

