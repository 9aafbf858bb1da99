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
from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams
from ..dram.commands import Command
from ..dram.energy import EnergyParams, HBM2E_ENERGY
from ..dram.engine import TimingEngine
from ..dram.stream import CommandStream, cached_stream
from ..dram.timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from ..errors import FunctionalMismatch
from ..mapping.mapper import MapperOptions, NttMapper
from ..mapping.program_cache import cyclic_program, negacyclic_program
from ..mapping.single_buffer import SingleBufferMapper
from ..ntt.merged import merged_negacyclic_intt, merged_negacyclic_ntt
from ..ntt.negacyclic import NegacyclicParams
from ..ntt.reference import ntt as reference_ntt
from ..pim.bank_pim import PimBank
from ..pim.params import PimParams
from .results import NttRunResult

__all__ = ["SimConfig", "NttPimDriver", "VERIFY_DEFAULT", "cached_schedule",
           "schedule_cache_info", "clear_schedule_cache"]


class _VerifyDefault:
    """Sentinel for :meth:`NttPimDriver.run_ntt_with_params`: verify the
    output against the golden reference NTT (the :meth:`run_ntt` path)."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<verify against reference NTT>"


#: Default for ``verify_against``: check against the golden reference NTT.
#: Pass ``None`` to skip verification, or an explicit expected output list.
VERIFY_DEFAULT = _VerifyDefault()


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


# Backwards-compatible internal alias (pre-facade name).
_cached_schedule = cached_schedule


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

    def make_mapper(self, ntt: NttParams, bank: int = 0):
        """The mapper matching this configuration."""
        cfg = self.config
        if cfg.pim.nb_buffers == 1:
            return SingleBufferMapper(ntt, cfg.arch, cfg.pim,
                                      cfg.base_row, bank)
        return NttMapper(ntt, cfg.arch, cfg.pim, cfg.base_row, bank,
                         options=cfg.mapper_options)

    def _program(self, ntt: NttParams, bank: int = 0):
        """The (memoized) command program for this configuration."""
        cfg = self.config
        return cyclic_program(ntt, cfg.arch, cfg.pim, cfg.base_row, bank,
                              cfg.mapper_options)

    def map_commands(self, ntt: NttParams, bank: int = 0) -> List[Command]:
        """Lower one NTT invocation to a command program (cached — the
        program is a pure function of the parameters and configuration)."""
        return list(self._program(ntt, bank).commands)

    def _run_ntt(self, values: Sequence[int], ntt: NttParams) -> NttRunResult:
        """Simulate one forward NTT of ``values`` (natural order).

        Returns timing, energy and the transformed data; raises
        :class:`FunctionalMismatch` if the PIM result disagrees with the
        golden model (when ``verify`` is on).
        """
        cfg = self.config
        if len(values) != ntt.n:
            raise ValueError(f"expected {ntt.n} values, got {len(values)}")
        program = self._program(ntt)
        stream = cached_stream(program.ir, cfg.arch, key=program.key)

        schedule = cached_schedule(stream, cfg.timing, cfg.arch,
                                   cfg.pim.compute_timing(), cfg.energy,
                                   key=program.key)

        output: List[int] = []
        verified = False
        bu_ops = 0
        if cfg.functional:
            bank = PimBank(cfg.arch, cfg.pim)
            bank.set_parameters(ntt.q)
            # Host-side bit reversal, then data is "already in memory".
            bank.load_polynomial(cfg.base_row, bit_reverse_permute(list(values)))
            bank.run_stream(stream)
            output = bank.read_polynomial(program.result_base_row, ntt.n)
            bu_ops = bank.cu.bu_ops
            if cfg.verify:
                expected = reference_ntt(values, ntt)
                if output != expected:
                    raise FunctionalMismatch(
                        f"PIM NTT result wrong for N={ntt.n}, "
                        f"Nb={cfg.pim.nb_buffers}")
                verified = True

        return NttRunResult(
            n=ntt.n, q=ntt.q, nb_buffers=cfg.pim.nb_buffers,
            output=output, schedule=schedule, verified=verified,
            command_count=program.ir.n, bu_ops=bu_ops)

    def _run_negacyclic_ntt(self, values: Sequence[int],
                            ring: NegacyclicParams,
                            inverse: bool = False) -> NttRunResult:
        """Native merged negacyclic transform (extension; see
        :mod:`repro.mapping.negacyclic_mapper`).

        Natural-order input, NTT-domain output (forward); the inverse
        returns natural order *before* the 1/N scale, which the caller
        (or :meth:`run_negacyclic_intt`) applies host-side.
        """
        cfg = self.config
        if len(values) != ring.n:
            raise ValueError(f"expected {ring.n} values, got {len(values)}")
        program = negacyclic_program(ring, cfg.arch, cfg.pim, cfg.base_row,
                                     inverse=inverse)
        stream = cached_stream(program.ir, cfg.arch, key=program.key)
        schedule = cached_schedule(stream, cfg.timing, cfg.arch,
                                   cfg.pim.compute_timing(), cfg.energy,
                                   key=program.key)
        output: List[int] = []
        verified = False
        bu_ops = 0
        if cfg.functional:
            bank = PimBank(cfg.arch, cfg.pim)
            bank.set_parameters(ring.q)
            bank.load_polynomial(cfg.base_row, [v % ring.q for v in values])
            bank.run_stream(stream)
            output = bank.read_polynomial(program.result_base_row, ring.n)
            bu_ops = bank.cu.bu_ops
            if cfg.verify:
                if inverse:
                    expected = [(v * ring.n) % ring.q for v in
                                merged_negacyclic_intt(values, ring)]
                else:
                    expected = merged_negacyclic_ntt(values, ring)
                if output != expected:
                    raise FunctionalMismatch(
                        f"PIM negacyclic NTT wrong for N={ring.n}")
                verified = True
        return NttRunResult(
            n=ring.n, q=ring.q, nb_buffers=cfg.pim.nb_buffers,
            output=output, schedule=schedule, verified=verified,
            command_count=program.ir.n, bu_ops=bu_ops)

    def _run_negacyclic_intt(self, values: Sequence[int],
                             ring: NegacyclicParams) -> NttRunResult:
        """Inverse merged transform including the host-side 1/N scale."""
        from ..arith.modmath import mod_inverse, mod_scale_vec
        result = self._run_negacyclic_ntt(values, ring, inverse=True)
        n_inv = mod_inverse(ring.n, ring.q)
        result.output = mod_scale_vec(result.output, n_inv, ring.q)
        return result

    def _run_intt(self, values: Sequence[int], ntt: NttParams) -> NttRunResult:
        """Inverse transform: same machine, inverse twiddles; the final
        1/N scaling is an element-wise pass the host (or an FHE pipeline's
        next element-wise stage) absorbs — as in the compared works."""
        from ..arith.modmath import mod_scale_vec
        result = self._run_ntt_with_params(values, ntt.inverse(),
                                           verify_against=None)
        result.output = mod_scale_vec(result.output, ntt.n_inv, ntt.q)
        return result

    def _run_ntt_with_params(
            self, values: Sequence[int], ntt: NttParams,
            verify_against: Optional[List[int]] | _VerifyDefault = VERIFY_DEFAULT,
    ) -> NttRunResult:
        """Like :meth:`_run_ntt` but with custom verification data.

        ``verify_against`` is :data:`VERIFY_DEFAULT` (check against the
        golden reference NTT), ``None`` (skip verification), or the
        explicit expected output.
        """
        cfg = self.config
        if verify_against is VERIFY_DEFAULT:
            return self._run_ntt(values, ntt)
        program = self._program(ntt)
        stream = cached_stream(program.ir, cfg.arch, key=program.key)
        schedule = cached_schedule(stream, cfg.timing, cfg.arch,
                                   cfg.pim.compute_timing(), cfg.energy,
                                   key=program.key)
        output: List[int] = []
        bu_ops = 0
        verified = False
        if cfg.functional:
            bank = PimBank(cfg.arch, cfg.pim)
            bank.set_parameters(ntt.q)
            bank.load_polynomial(cfg.base_row, bit_reverse_permute(list(values)))
            bank.run_stream(stream)
            output = bank.read_polynomial(program.result_base_row, ntt.n)
            bu_ops = bank.cu.bu_ops
            if verify_against is not None:
                if output != verify_against:
                    raise FunctionalMismatch("PIM result mismatch")
                verified = True
        return NttRunResult(
            n=ntt.n, q=ntt.q, nb_buffers=cfg.pim.nb_buffers,
            output=output, schedule=schedule, verified=verified,
            command_count=program.ir.n, bu_ops=bu_ops)
