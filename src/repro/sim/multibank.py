"""Bank-level parallelism (Sec. VI.A / Conclusion).

FHE workloads run many independent NTTs (one per RNS limb / ciphertext
polynomial); the paper's architecture runs one per bank.  All banks
share the command bus (one command per cycle) while row/column timing
and the CUs are per-bank, so speedup is near-linear until the command
bus saturates — which this module lets us measure.

The merge is *kind-generic*: a :class:`TransformSpec` names which
per-bank program every bank runs — forward or inverse cyclic NTT, or
the merged negacyclic transform — plus how its functional I/O is
staged (input permutation, host-side 1/N scale, golden reference).
That one abstraction is what lets the serving layer's batching
scheduler coalesce negacyclic and inverse traffic exactly like forward
cyclic NTTs.

Functionally the banks of one spec run in lockstep: every bank decodes
the same per-bank program (the programs differ only in their bank
field), so a dispatch executes each same-spec group as one stacked
:class:`~repro.pim.bank_pim.PimBank` — one plan walk, one host load and
read, one batched golden check — over a row window holding just the
rows the program and its host I/O touch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..arith import vector
from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams
from ..dram.commands import Command
from ..dram.engine import ScheduleResult
from ..dram.stream import CommandStream, cached_stream
from ..errors import FunctionalMismatch
from ..mapping.program_cache import (
    CachedProgram,
    cyclic_program,
    negacyclic_program,
    programs_recipe_key,
)
from ..ntt.negacyclic import NegacyclicParams
from ..ntt.reference import intt as reference_intt
from ..ntt.reference import ntt as reference_ntt
from ..pim.bank_pim import PimBank
from .driver import SimConfig, cached_schedule

__all__ = ["TransformSpec", "interleave_programs", "compile_multibank",
           "MultiBankResult"]


@dataclasses.dataclass(frozen=True)
class TransformSpec:
    """One per-bank transform kind of a multi-bank dispatch.

    ``kind`` is ``"ntt"`` (cyclic, ``params``) or ``"negacyclic"``
    (merged C1N mapping, ``ring``); ``inverse`` selects the inverse
    transform, whose final 1/N scale runs host-side exactly as in the
    standalone driver paths — so a merged dispatch stays bit-identical
    to per-request ``Simulator.run`` calls.
    """

    kind: str = "ntt"
    inverse: bool = False
    params: Optional[NttParams] = None
    ring: Optional[NegacyclicParams] = None

    @classmethod
    def of(cls, params_or_spec) -> "TransformSpec":
        """Normalize the legacy ``NttParams`` calling convention."""
        if isinstance(params_or_spec, TransformSpec):
            return params_or_spec
        return cls(kind="ntt", params=params_or_spec)

    @property
    def n(self) -> int:
        return self.ring.n if self.kind == "negacyclic" else self.params.n

    @property
    def q(self) -> int:
        return self.ring.q if self.kind == "negacyclic" else self.params.q

    # -- per-bank artifacts ------------------------------------------------------
    def program(self, config: SimConfig, bank: int) -> CachedProgram:
        """The (memoized) command program one bank runs."""
        if self.kind == "negacyclic":
            return negacyclic_program(self.ring, config.arch, config.pim,
                                      config.base_row, bank,
                                      inverse=self.inverse)
        ntt = self.params.inverse() if self.inverse else self.params
        return cyclic_program(ntt, config.arch, config.pim, config.base_row,
                              bank, config.mapper_options)

    def lanes(self, rows: Sequence[Sequence[int]]) -> np.ndarray:
        """A group's inputs as one ``(B, n)`` uint64 array: negacyclic
        inputs reduced mod ``q`` (their bank image), cyclic ones as
        given."""
        if self.kind != "negacyclic":
            return np.array(rows, dtype=np.uint64)
        try:
            values = np.array(rows, dtype=np.uint64)
        except OverflowError:  # negative or >= 2**64: reduce exactly
            return np.array([[v % self.q for v in row] for row in rows],
                            dtype=np.uint64)
        return values % np.uint64(self.q)

    def load_layout(self, values: np.ndarray) -> np.ndarray:
        """Bank-resident input image of :meth:`lanes` rows (the Sec. IV.A
        host protocol leaves cyclic inputs bit-reversed; the merged
        negacyclic mapping takes natural order)."""
        if self.kind == "negacyclic":
            return values
        return bit_reverse_permute(values)

    def finalize(self, output: np.ndarray) -> List[List[int]]:
        """Host-side epilogue over read-back ``(B, n)`` rows: the inverse
        transforms' 1/N scale (the same pass the standalone driver paths
        apply)."""
        if not self.inverse:
            return output.tolist()
        n_inv, q = self.cyclic_params.n_inv, self.q
        if vector.numpy_active(q):
            return vector.mod_mul_arr(output, np.uint64(n_inv), q).tolist()
        return [[(v * n_inv) % q for v in row] for row in output.tolist()]

    @property
    def cyclic_params(self) -> NttParams:
        """The cyclic parameter view (negacyclic rings embed one)."""
        return self.ring.cyclic if self.kind == "negacyclic" else self.params

    def expected(self, values: Sequence[int]) -> List[int]:
        """Golden model of one bank's *finalized* output, or of every row
        of a ``(B, n)`` array in one batched pass."""
        if self.kind == "negacyclic":
            from ..ntt.merged import (
                merged_negacyclic_intt,
                merged_negacyclic_ntt,
            )
            golden = (merged_negacyclic_intt if self.inverse
                      else merged_negacyclic_ntt)
            return golden(values, self.ring)
        if self.inverse:
            return reference_intt(values, self.params)
        return reference_ntt(values, self.params)

    def describe(self) -> str:
        return f"{'inverse ' if self.inverse else ''}{self.kind}"


def interleave_programs(programs: Sequence[List[Command]]) -> List[Command]:
    """Round-robin merge of per-bank programs onto the shared bus.

    Dependency indices are rewritten from per-program to merged
    positions.  Round-robin models an MC draining per-bank queues
    fairly, which is what gives each bank steady command-bus share.
    """
    merged: List[Command] = []
    index_maps = [dict() for _ in programs]
    cursors = [0] * len(programs)
    remaining = sum(len(p) for p in programs)
    while remaining:
        for bank_idx, program in enumerate(programs):
            cur = cursors[bank_idx]
            if cur >= len(program):
                continue
            cmd = program[cur]
            new_deps = tuple(index_maps[bank_idx][d] for d in cmd.deps)
            merged.append(dataclasses.replace(cmd, deps=new_deps))
            index_maps[bank_idx][cur] = len(merged) - 1
            cursors[bank_idx] = cur + 1
            remaining -= 1
    return merged


@dataclasses.dataclass
class MultiBankResult:
    """Outcome of running one transform per bank concurrently."""

    banks: int
    schedule: ScheduleResult
    single_bank_cycles: int
    verified: bool
    #: Per-bank transform outputs (populated on functional runs).
    outputs: List[List[int]] = dataclasses.field(default_factory=list)
    #: Executed butterfly µ-ops across all banks (functional runs).
    bu_ops: int = 0

    @property
    def cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def latency_us(self) -> float:
        return self.schedule.latency_us

    @property
    def speedup(self) -> float:
        """Throughput speedup over running the same work serially on one
        bank: (banks * T1) / T_parallel."""
        return self.banks * self.single_bank_cycles / self.cycles

    @property
    def efficiency(self) -> float:
        """Fraction of ideal linear scaling achieved."""
        return self.speedup / self.banks


def normalize_specs(spec, banks: int) -> List[TransformSpec]:
    """Per-bank spec list from either calling convention.

    ``spec`` is one :class:`TransformSpec` (or bare ``NttParams``) every
    bank shares, or a sequence of per-bank specs — the mixed-kind
    dispatch shape (e.g. forward and inverse limbs of one shape
    interleaved in a single bus program).
    """
    if isinstance(spec, (list, tuple)):
        specs = [TransformSpec.of(s) for s in spec]
        if len(specs) != banks:
            raise ValueError(
                f"got {len(specs)} per-bank specs for {banks} banks")
        return specs
    return [TransformSpec.of(spec)] * banks


def compile_multibank(spec, banks: int, config: SimConfig, passes=None):
    """Compile the ``banks``-way interleaved program for one shape.

    ``spec`` is a :class:`TransformSpec` (or bare ``NttParams``, the
    legacy forward-cyclic spelling), or a per-bank spec sequence for
    mixed-kind dispatches.  Returns ``(programs, merged_stream,
    merged_key)``.  Everything is memoized (program / stream caches),
    so this doubles as the *warm-up* step the streaming ``run_many``
    and the serving layer's worker pool run for group *k+1* while group
    *k* executes.

    With the ``interleave`` pass enabled (the default) the merge runs
    as a vectorized index permutation over the per-bank IR columns
    (:func:`repro.compile.interleave_irs`); toggled off, the legacy
    per-command :func:`interleave_programs` ground truth runs.  Both
    produce bit-identical merged programs.
    """
    if banks < 1:
        raise ValueError("need at least one bank's worth of input")
    specs = normalize_specs(spec, banks)
    # Programs are memoized per (spec, config, bank): repeated rounds
    # over the same shape (e.g. every RNS limb round) reuse the programs.
    programs = [s.program(config, k) for k, s in enumerate(specs)]
    # The merged list's content is a pure function of the component
    # programs, so the merge recipe over their keys is an exact (and
    # cheap) shared-cache key — and the merge itself runs lazily, only
    # when the stream cache misses on that key.
    from ..compile.lower import interleave_irs
    from ..compile.passes import normalize_passes

    merged_key = programs_recipe_key("interleave", programs)
    if "interleave" in normalize_passes(passes):
        def merge():
            return interleave_irs([p.ir for p in programs])
    else:
        def merge():
            return interleave_programs([p.commands for p in programs])
    merged_stream = cached_stream(merge, config.arch, key=merged_key,
                                  passes=passes)
    return programs, merged_stream, merged_key


def _row_window(stream: CommandStream, program: CachedProgram,
                config: SimConfig, n: int) -> Tuple[int, int]:
    """The ``[lo, hi)`` rows one bank's run touches: every command's row
    plus the host load at ``base_row`` and the result read.  A pure
    function of the compiled program, so it is computed once per stream."""
    window = stream.fuse_cache.get("row_window")
    if window is None:
        span = -(-n // config.arch.words_per_row)
        used = stream.rows[stream.rows >= 0]
        lo = min([config.base_row, program.result_base_row]
                 + ([int(used.min())] if used.size else []))
        hi = max([config.base_row + span, program.result_base_row + span]
                 + ([int(used.max()) + 1] if used.size else []))
        window = stream.fuse_cache["row_window"] = (
            max(lo, 0), min(hi, config.arch.rows_per_bank))
    return window


def _spec_groups(specs: Sequence[TransformSpec]) -> Dict[TransformSpec,
                                                         List[int]]:
    """Bank indices per distinct spec, in first-seen order."""
    groups: Dict[TransformSpec, List[int]] = {}
    for k, spec in enumerate(specs):
        groups.setdefault(spec, []).append(k)
    return groups


def _lockstep_banks(spec: TransformSpec, stream: CommandStream,
                    window: Tuple[int, int], count: int,
                    config: SimConfig) -> List[PimBank]:
    """Fresh banks for ``count`` same-spec banks: one stacked bank when
    the plan takes the bank axis, else ``count`` one-bank stacks."""
    def fresh(banks: int) -> PimBank:
        bank = PimBank(config.arch, config.pim, banks=banks, rows=window)
        bank.set_parameters(spec.q)
        return bank

    bank = fresh(count)
    if count == 1 or bank.lockstep_ok(stream):
        return [bank]
    return [fresh(1) for _ in range(count)]


def _run_multibank(inputs: Sequence[Sequence[int]], spec,
                   config: SimConfig | None = None) -> MultiBankResult:
    """Run ``len(inputs)`` independent transforms, one per bank.

    ``spec`` may be a per-bank sequence (mixed kinds/inverse per bank);
    every bank's output stays bit-identical to its standalone run.
    """
    config = config or SimConfig()
    banks = len(inputs)
    specs = normalize_specs(spec, banks)
    programs, merged_stream, merged_key = compile_multibank(specs, banks,
                                                            config)
    compute = config.pim.compute_timing()
    schedule = cached_schedule(merged_stream, config.timing, config.arch,
                               compute, config.energy, key=merged_key)
    single = cached_schedule(programs[0].ir, config.timing, config.arch,
                             compute, config.energy, key=programs[0].key)

    verified = False
    outputs: List[List[int]] = []
    bu_ops = 0
    if config.functional:
        # Banks are functionally independent and every bank of one spec
        # runs the same functional plan (per-bank programs differ only in
        # the bank field), so each spec group executes in lockstep off
        # its first member's compiled stream — equivalent to replaying
        # the round-robin merge command by command.
        outputs = [None] * banks
        for bspec, members in _spec_groups(specs).items():
            program = programs[members[0]]
            stream = cached_stream(program.ir, config.arch, key=program.key)
            window = _row_window(stream, program, config, bspec.n)
            values = bspec.lanes([inputs[k] for k in members])
            layout = bspec.load_layout(values)
            read = np.empty_like(layout)
            start = 0
            for bank in _lockstep_banks(bspec, stream, window, len(members),
                                        config):
                part = slice(start, start + bank.banks)
                start = part.stop
                bank.load_polynomial(config.base_row, layout[part])
                bank.run_stream(stream)
                read[part] = bank.read_polynomial(program.result_base_row,
                                                  bspec.n)
                bu_ops += bank.cu.bu_ops
            rows = bspec.finalize(read)
            if config.verify:
                for k, got, want in zip(members, rows,
                                        bspec.expected(values)):
                    if got != want:
                        raise FunctionalMismatch(
                            f"multi-bank result wrong on bank {k} "
                            f"({bspec.describe()})")
            for k, row in zip(members, rows):
                outputs[k] = row
        verified = config.verify

    return MultiBankResult(banks=banks, schedule=schedule,
                           single_bank_cycles=single.total_cycles,
                           verified=verified, outputs=outputs, bu_ops=bu_ops)
