"""Front-end driver: the paper's Python MC model + functional checker.

Mirrors Sec. VI.A: the driver (a) lowers the NTT invocation into DRAM
commands via the mapping algorithm and (b) runs them through both the
functional bank model and the timing engine, verifying the data result
against the golden NTT while collecting cycles/energy.

Host protocol (Sec. IV.A): the input polynomial is already in memory in
bit-reversed order (bit reversal is the host's job, as in MeNTT and
CryptoPIM); the NTT request passes only (N, q, omega, address); the
result overwrites the input, in natural order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .._cache import ArtifactCache
from ..arith.roots import NttParams
from ..dram.commands import Command
from ..dram.energy import EnergyParams, HBM2E_ENERGY
from ..dram.engine import TimingEngine
from ..dram.stream import CommandStream, cached_stream
from ..dram.timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from ..mapping.mapper import MapperOptions
from ..mapping.program_cache import cyclic_program
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .results import NttRunResult

__all__ = ["SimConfig", "NttPimDriver", "cached_schedule",
           "schedule_cache_info", "clear_schedule_cache"]


# -- schedule cache ------------------------------------------------------------
# The timing engine is deterministic: the same command sequence under the
# same (timing, arch, compute, energy) parameters always produces the
# same schedule.  Keys are *structural*, never identity-based: either
# the command tuple's own content (commands are frozen dataclasses that
# hash and compare by value), or — cheaper — the generating-parameter
# key of a memoized program, which determines the command content
# exactly (that determinism is the premise of the program cache).  The
# batch and multi-bank mergers build fresh lists on every call, yet hit
# the same entries via keys derived from their components' keys.
# Cached ScheduleResults are shared between runs — treat them as
# immutable.  Thread-safe via the shared ArtifactCache (locked
# lookup/stats/eviction, simulation outside the lock, one canonical
# ScheduleResult per key).
_MAX_SCHEDULES = 128
_schedule_cache = ArtifactCache(_MAX_SCHEDULES)


def cached_schedule(commands, timing, arch, compute, energy, key=None):
    """Memoized stream-compiled ``TimingEngine`` simulation.

    ``commands`` is a command sequence, a mapper-built
    :class:`~repro.compile.ir.StreamIR` (with its ``key``) or an
    already-compiled :class:`~repro.dram.stream.CommandStream`.  Cold lookups compile the
    program (via the shared stream cache) and run the engine's
    vectorized stream loop — bit-identical to ``simulate(commands)``.

    ``key`` is an exact stand-in for the command content (e.g. a
    :class:`~repro.mapping.program_cache.CachedProgram` key, or a merge
    recipe over such keys) that avoids hashing thousands of commands per
    lookup; when ``None``, the command tuple itself is the key.
    """
    if isinstance(commands, CommandStream):
        stream = commands
        # Only materialize Command objects when no structural key exists
        # (IR-backed streams are lazy; the timing loop never needs them).
        content_key = key if key is not None else tuple(commands.commands)
    else:
        stream = None
        content_key = key if key is not None else tuple(commands)
    cache_key = (content_key, timing, arch, compute, energy)

    def simulate():
        compiled = (stream if stream is not None
                    else cached_stream(commands, arch, key=key))
        return TimingEngine(timing, arch, compute=compute,
                            energy=energy).simulate_stream(compiled)

    return _schedule_cache.get_or_create(cache_key, simulate)


def schedule_cache_info() -> dict:
    """Schedule-cache statistics (mirrors
    :func:`repro.mapping.program_cache.program_cache_info`)."""
    return _schedule_cache.info()


def clear_schedule_cache() -> None:
    """Empty the schedule cache and reset statistics (test isolation)."""
    _schedule_cache.clear()


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated PIM bank."""

    arch: ArchParams = HBM2E_ARCH
    timing: TimingParams = HBM2E_TIMING
    pim: PimParams = field(default_factory=PimParams)
    energy: EnergyParams = HBM2E_ENERGY
    base_row: int = 0
    verify: bool = True
    functional: bool = True   # set False for timing-only sweeps (faster)
    mapper_options: MapperOptions = MapperOptions()

    def at_frequency(self, freq_mhz: float) -> "SimConfig":
        """Fig. 8 helper: same machine at a different clock."""
        return SimConfig(arch=self.arch, timing=self.timing.retimed(freq_mhz),
                         pim=self.pim, energy=self.energy,
                         base_row=self.base_row, verify=self.verify,
                         functional=self.functional,
                         mapper_options=self.mapper_options)


class NttPimDriver:
    """Runs NTT invocations against a simulated PIM bank.

    This is the engine room of the facade layer: :class:`repro.api.Simulator`
    is the supported public entry point, and dispatches into the private
    ``_run_*`` implementations here (the PR 2 ``run_*`` deprecation
    shims are gone).
    """

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()

    def _program(self, ntt: NttParams, bank: int = 0):
        """The (memoized) command program for this configuration."""
        cfg = self.config
        return cyclic_program(ntt, cfg.arch, cfg.pim, cfg.base_row, bank,
                              cfg.mapper_options)

    def map_commands(self, ntt: NttParams, bank: int = 0) -> List[Command]:
        """Lower one NTT invocation to a command program (cached — the
        program is a pure function of the parameters and configuration)."""
        return list(self._program(ntt, bank).commands)

    def _run_transforms(self, spec, rows: Sequence[Sequence[int]]
                        ) -> List[NttRunResult]:
        """Simulate ``len(rows)`` standalone transforms of one
        :class:`~repro.sim.multibank.TransformSpec`.

        Timing is per transform: each result carries the single-bank
        schedule of the spec's bank-0 program, exactly as if it ran
        alone.  Function runs the whole group through the one lockstep
        executor (:func:`~repro.sim.multibank.run_lockstep`: one plan
        walk, one batched golden check), which raises
        :class:`~repro.errors.FunctionalMismatch` if a PIM result
        disagrees with the golden model (when ``verify`` is on).
        """
        # Imported here: repro.sim.multibank builds on this module.
        from .multibank import run_lockstep

        cfg = self.config
        for row in rows:
            if len(row) != spec.n:
                raise ValueError(f"expected {spec.n} values, got {len(row)}")
        program = spec.program(cfg, 0)
        stream = cached_stream(program.ir, cfg.arch, key=program.key)
        schedule = cached_schedule(stream, cfg.timing, cfg.arch,
                                   cfg.pim.compute_timing(), cfg.energy,
                                   key=program.key)
        outputs: List[List[int]] = [[] for _ in rows]
        bu_ops = 0
        if cfg.functional:
            outputs, bu_ops = run_lockstep(spec, program, stream, rows, cfg)
        # Every bank ran the same program: each transform's share of the
        # group's butterflies is an exact equal split.
        each = bu_ops // max(len(rows), 1)
        return [NttRunResult(
            n=spec.n, q=spec.q, nb_buffers=cfg.pim.nb_buffers,
            output=output, schedule=schedule,
            verified=cfg.functional and cfg.verify,
            command_count=program.ir.n, bu_ops=each) for output in outputs]

    def _run_ntt(self, values: Sequence[int], ntt: NttParams) -> NttRunResult:
        """Simulate one forward NTT of ``values`` (natural order).

        Returns timing, energy and the transformed data; raises
        :class:`~repro.errors.FunctionalMismatch` if the PIM result
        disagrees with the golden model (when ``verify`` is on).
        """
        from .multibank import TransformSpec
        return self._run_transforms(TransformSpec(params=ntt), [values])[0]

    def _run_negacyclic_ntt(self, values: Sequence[int],
                            ring: NegacyclicParams,
                            inverse: bool = False) -> NttRunResult:
        """Native merged negacyclic transform (extension; see
        :mod:`repro.mapping.negacyclic_mapper`).

        Natural-order input, NTT-domain output (forward); the inverse
        returns natural order, the 1/N scale applied host-side.
        """
        from .multibank import TransformSpec
        spec = TransformSpec(kind="negacyclic", ring=ring, inverse=inverse)
        return self._run_transforms(spec, [values])[0]

    def _run_negacyclic_intt(self, values: Sequence[int],
                             ring: NegacyclicParams) -> NttRunResult:
        """Inverse merged transform including the host-side 1/N scale."""
        return self._run_negacyclic_ntt(values, ring, inverse=True)

    def _run_intt(self, values: Sequence[int], ntt: NttParams) -> NttRunResult:
        """Inverse transform: same machine, inverse twiddles; the final
        1/N scaling is an element-wise pass the host (or an FHE pipeline's
        next element-wise stage) absorbs — as in the compared works."""
        from .multibank import TransformSpec
        spec = TransformSpec(params=ntt, inverse=True)
        return self._run_transforms(spec, [values])[0]
