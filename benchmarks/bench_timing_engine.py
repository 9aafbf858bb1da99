"""Timing-engine throughput: legacy per-command loop vs compiled stream.

Measures commands/sec of ``TimingEngine.simulate`` (the ground-truth
per-command loop) against ``TimingEngine.simulate_stream`` (the SoA
compiled-stream loop) on fixed NTT command programs, plus the one-time
stream compile cost, the cold mapping cost (the columnar mapper
emitting its ``StreamIR``), the end-to-end functional ``run_ntt``
speedup of the stream-routed driver over the legacy per-command bank,
the warm verified ``kyber_kem`` request time (golden ring-product
check included) and the warm verified 8-bank N=512 multi-bank dispatch
time (lockstep banks plus the batched golden check) — and merges the
measurements into ``BENCH_kernels.json`` at the repo root.

Non-gating when run directly —

    PYTHONPATH=src python benchmarks/bench_timing_engine.py

and a CI smoke target (reduced size) asserting the stream engine is
bit-identical to — and not slower than — the legacy loop:

    PYTHONPATH=src python -m pytest benchmarks/bench_timing_engine.py -s
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

from bench_backend_speedup import _best_of, merge_sections

from repro.api import KyberKemRequest, MultiBankRequest, Simulator
from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.dram import (
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    cached_stream,
    clear_stream_cache,
    compile_stream,
)
from repro.mapping.program_cache import clear_program_cache, cyclic_program
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import NttPimDriver, SimConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"


def run(ns=(1024, 4096), repeats: int = 5,
        out_path: Path = DEFAULT_OUT) -> dict:
    section = {}
    compiler = {}
    for n in ns:
        q = find_ntt_prime(n, 32)
        params = NttParams(n, q)
        driver = NttPimDriver()
        commands = driver.map_commands(params)
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                              compute=driver.config.pim.compute_timing())

        # Cold compile = full IR pipeline every call (compile_stream
        # never caches); warm = structural stream-cache hit.
        compile_s = _best_of(lambda: compile_stream(commands, HBM2E_ARCH),
                             repeats)
        stream = compile_stream(commands, HBM2E_ARCH)
        clear_stream_cache()
        warm_s = _best_of(
            lambda: cached_stream(commands, HBM2E_ARCH, key=("bench", n)),
            repeats)
        compiler[str(n)] = {
            "commands": len(commands),
            "cold_compile_s": compile_s,
            "cold_us_per_cmd": compile_s / len(commands) * 1e6,
            "warm_hit_s": warm_s,
        }

        legacy_s = _best_of(lambda: engine.simulate(commands), repeats)
        stream_s = _best_of(lambda: engine.simulate_stream(stream), repeats)

        # End-to-end functional execution: stream-fused bank vs the
        # legacy per-command bank on the same program and data.
        rng = random.Random(n)
        data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])

        def run_bank(use_stream: bool):
            bank = PimBank(driver.config.arch, driver.config.pim)
            bank.set_parameters(q)
            bank.load_polynomial(0, list(data))
            if use_stream:
                bank.run_stream(stream)
            else:
                bank.run(commands)

        bank_legacy_s = _best_of(lambda: run_bank(False), max(repeats // 2, 2))
        bank_stream_s = _best_of(lambda: run_bank(True), max(repeats // 2, 2))

        section[str(n)] = {
            "commands": len(commands),
            "compile_s": compile_s,
            "engine_legacy_s": legacy_s,
            "engine_stream_s": stream_s,
            "engine_legacy_cmds_per_s": len(commands) / legacy_s,
            "engine_stream_cmds_per_s": len(commands) / stream_s,
            "engine_speedup": legacy_s / stream_s,
            "bank_legacy_s": bank_legacy_s,
            "bank_stream_s": bank_stream_s,
            "bank_speedup": bank_legacy_s / bank_stream_s,
        }
    compiler["nb1"] = _bench_nb1(repeats)
    results = {"timing_engine": section, "compiler": compiler,
               "mapping": _bench_mapping(repeats),
               "golden": _bench_golden(4 * repeats + 1),
               "multibank": _bench_multibank(4 * repeats + 1)}
    merge_sections(out_path, results)
    return results


#: (N, Nb) shapes of the cold-mapping section: the Nb=2 row-centric
#: mapping at two sizes and the 166k-command Nb=1 scalar µ-op mapping.
MAPPING_SHAPES = ((1024, 2), (4096, 2), (4096, 1))


def _bench_mapping(repeats: int) -> dict:
    """Cold mapping cost: a program-cache miss, i.e. the mapper emitting
    its StreamIR, as the median over ``repeats`` runs."""
    section = {}
    for n, nb in MAPPING_SHAPES:
        params = NttParams(n, find_ntt_prime(n, 32))
        pim = PimParams(nb_buffers=nb)
        samples = []
        for _ in range(repeats):
            clear_program_cache()
            start = time.perf_counter()
            program = cyclic_program(params, HBM2E_ARCH, pim)
            samples.append(time.perf_counter() - start)
        clear_program_cache()
        cold_s = statistics.median(samples)
        section[f"{n}_nb{nb}"] = {
            "n": n,
            "nb": nb,
            "commands": program.ir.n,
            "cold_map_s": cold_s,
            "cold_us_per_cmd": cold_s / program.ir.n * 1e6,
        }
    return section


def _bench_golden(repeats: int, n: int = 256, q: int = 3329,
                  depth: int = 2) -> dict:
    """Warm verified ``kyber_kem`` request (Kyber's ring, incomplete
    NTT, golden ring-product check on): median wall time over
    ``repeats`` fresh operand pairs after one warm-up request."""
    rng = random.Random(n)
    requests = [KyberKemRequest(a=[rng.randrange(q) for _ in range(n)],
                                b=[rng.randrange(q) for _ in range(n)],
                                n=n, q=q, depth=depth)
                for _ in range(repeats + 1)]
    sim = Simulator()
    assert sim.run(requests[0]).verified
    samples = []
    for request in requests[1:]:
        start = time.perf_counter()
        response = sim.run(request)
        samples.append(time.perf_counter() - start)
        assert response.verified
    return {"kyber_kem": {
        "n": n,
        "q": q,
        "depth": depth,
        "repeats": repeats,
        "warm_request_ms": statistics.median(samples) * 1e3,
    }}


def _bench_multibank(repeats: int, n: int = 512, banks: int = 8) -> dict:
    """Warm verified multi-bank dispatch (``banks`` forward cyclic NTTs
    of length ``n``, golden check on) — the serving layer's hot dispatch
    shape: median wall time over ``repeats`` fresh inputs after one
    warm-up dispatch."""
    q = find_ntt_prime(2 * n, 32)
    params = NttParams(n, q)
    rng = random.Random(n)
    requests = [MultiBankRequest(
        params=params,
        inputs=[[rng.randrange(q) for _ in range(n)] for _ in range(banks)])
        for _ in range(repeats + 1)]
    sim = Simulator()
    assert sim.run(requests[0]).verified
    samples = []
    for request in requests[1:]:
        start = time.perf_counter()
        response = sim.run(request)
        samples.append(time.perf_counter() - start)
        assert response.verified
    return {f"ntt_{banks}bank": {
        "n": n,
        "banks": banks,
        "repeats": repeats,
        "warm_dispatch_ms": statistics.median(samples) * 1e3,
    }}


def _bench_nb1(repeats: int, n: int = 256) -> dict:
    """Nb=1 µ-op programs: the lane-renaming pass must fuse them, and
    the fused run must beat the per-command reference interpreter (the
    pre-compiler behavior, and the path unfusable programs fall back
    to)."""
    q = find_ntt_prime(n, 32)
    config = SimConfig(pim=PimParams(nb_buffers=1))
    commands = NttPimDriver(config).map_commands(NttParams(n, q))
    fused = compile_stream(commands, HBM2E_ARCH)
    assert fused.plan is not None and fused.plan.mode == "lane"
    rng = random.Random(n)
    data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])

    def run_bank(execute):
        bank = PimBank(config.arch, config.pim)
        bank.set_parameters(q)
        bank.load_polynomial(0, list(data))
        execute(bank)

    fused_s = _best_of(lambda: run_bank(lambda b: b.run_stream(fused)),
                       repeats)
    fallback_s = _best_of(lambda: run_bank(lambda b: b.run(commands)),
                          repeats)
    return {
        "n": n,
        "commands": len(commands),
        "fused_s": fused_s,
        "fallback_s": fallback_s,
        "fused_speedup": fallback_s / fused_s,
    }


def _format(results: dict) -> str:
    lines = ["timing engine: legacy per-command loop vs compiled stream:"]
    for n, entry in results["timing_engine"].items():
        lines.append(
            f"  N={n:>5s}  {entry['commands']:>6d} cmds  "
            f"engine {entry['engine_legacy_cmds_per_s'] / 1e6:5.2f} -> "
            f"{entry['engine_stream_cmds_per_s'] / 1e6:5.2f} Mcmd/s "
            f"({entry['engine_speedup']:4.1f}x)  "
            f"bank {entry['bank_legacy_s'] * 1e3:7.2f} -> "
            f"{entry['bank_stream_s'] * 1e3:6.2f} ms "
            f"({entry['bank_speedup']:4.1f}x)  "
            f"compile {entry['compile_s'] * 1e3:6.1f} ms")
    lines.append("compiler: cold IR pipeline vs warm cache hit:")
    for n, entry in results["compiler"].items():
        if n == "nb1":
            continue
        lines.append(
            f"  N={n:>5s}  cold {entry['cold_compile_s'] * 1e3:6.2f} ms "
            f"({entry['cold_us_per_cmd']:.2f} us/cmd)  "
            f"warm {entry['warm_hit_s'] * 1e6:6.1f} us")
    nb1 = results["compiler"]["nb1"]
    lines.append(
        f"  Nb=1 N={nb1['n']} ({nb1['commands']} u-op cmds): lane-fused "
        f"{nb1['fused_s'] * 1e3:.2f} ms vs per-command "
        f"{nb1['fallback_s'] * 1e3:.2f} ms ({nb1['fused_speedup']:.1f}x)")
    lines.append("mapping: cold program-cache miss (median):")
    for entry in results["mapping"].values():
        lines.append(
            f"  N={entry['n']:>5d} Nb={entry['nb']}  {entry['commands']:>6d} "
            f"cmds  {entry['cold_map_s'] * 1e3:7.1f} ms "
            f"({entry['cold_us_per_cmd']:.2f} us/cmd)")
    kem = results["golden"]["kyber_kem"]
    lines.append(
        f"golden: warm verified kyber_kem N={kem['n']} depth={kem['depth']} "
        f"{kem['warm_request_ms']:.2f} ms (median of {kem['repeats']})")
    for entry in results["multibank"].values():
        lines.append(
            f"multibank: warm verified {entry['banks']}-bank N={entry['n']} "
            f"dispatch {entry['warm_dispatch_ms']:.2f} ms "
            f"(median of {entry['repeats']})")
    return "\n".join(lines)


def test_stream_engine_smoke(show, tmp_path):
    """CI smoke: on a fixed program the stream engine must match the
    legacy loop bit for bit and must not be slower (generous, non-flaky
    threshold — the measured speedup is several-fold)."""
    n = 512
    q = find_ntt_prime(n, 32)
    driver = NttPimDriver()
    commands = driver.map_commands(NttParams(n, q))
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                          compute=driver.config.pim.compute_timing())
    stream = compile_stream(commands, HBM2E_ARCH)
    legacy = engine.simulate(commands)
    streamed = engine.simulate_stream(stream)
    assert streamed.timings == legacy.timings
    assert streamed.stats == legacy.stats
    assert streamed.energy_nj == legacy.energy_nj

    legacy_s = _best_of(lambda: engine.simulate(commands), 3)
    stream_s = _best_of(lambda: engine.simulate_stream(stream), 3)
    show(f"N={n}: legacy {legacy_s * 1e3:.2f} ms, "
         f"stream {stream_s * 1e3:.2f} ms "
         f"({legacy_s / stream_s:.1f}x)")
    # "Not slower" with generous headroom against CI timer noise.
    assert stream_s <= legacy_s * 1.5

    results = run(ns=(256,), repeats=2,
                  out_path=tmp_path / "BENCH_kernels.json")
    assert results["timing_engine"]["256"]["engine_speedup"] > 0
    assert results["compiler"]["256"]["cold_us_per_cmd"] > 0
    assert results["compiler"]["nb1"]["fused_speedup"] > 0
    assert all(entry["cold_us_per_cmd"] > 0
               for entry in results["mapping"].values())
    assert results["golden"]["kyber_kem"]["warm_request_ms"] > 0
    dispatch = results["multibank"]["ntt_8bank"]
    assert (dispatch["n"], dispatch["banks"]) == (512, 8)
    assert dispatch["warm_dispatch_ms"] > 0


def main(argv=None) -> int:
    ns = tuple(int(a) for a in (argv or sys.argv[1:])) or (1024, 4096)
    results = run(ns=ns)
    print(_format(results))
    print(f"updated {DEFAULT_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
