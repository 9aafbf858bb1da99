"""The row-centric NTT mapping algorithm (paper Secs. III-V).

:class:`NttMapper` lowers one size-N NTT into a DRAM/PIM command
program, requiring at least one auxiliary buffer (Nb >= 2; for Nb = 1
see :mod:`repro.mapping.single_buffer`).

Structure (Sec. IV.B):

1. The first ``log R`` stages are split *vertically* into ``N/R``
   independent row-sized blocks — one activation each.  Within a block,
   the first ``log Na`` stages run as per-atom C1 commands and the rest
   as intra-row C2 commands with in-place update (read both operand
   atoms, butterfly, write both back to their origin — Sec. III.C).
2. The remaining stages are processed stage-by-stage (inter-row
   regime); each atom pair straddles two rows.

Pipelining (Sec. V) is purely a command-ordering matter here: atoms /
atom-pairs are processed in groups sized by the buffer pool (``Nb``
atoms in intra-atom, ``Nb // 2`` pairs otherwise), reads of a whole
group are emitted before its computes and writes, and in the inter-row
regime same-row accesses of a group share one activation pair — the
Fig. 6c effect that cuts activations by the group factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..arith.roots import NttParams
from ..compile.ir import StreamIR
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..pim.params import PimParams
from .program import ProgramBuilder
from .twiddle_params import c1_root, c2_twiddles

__all__ = ["NttMapper", "MapperOptions"]


def _chunks(seq: Sequence, size: int):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


@dataclass(frozen=True)
class MapperOptions:
    """Ablation switches for the design choices DESIGN.md calls out.

    * ``in_place_update=False`` — the naive alternative of Sec. III.C:
      inter-row stage outputs go to a mirror region (ping-pong in DRAM)
      instead of back to the input atoms, so the '-'-leg write stops
      being a buffer hit and every group pays two extra activations.
    * ``group_same_row=False`` — disables the Fig. 6c same-row command
      grouping, processing one atom pair at a time even when the buffer
      pool could hold several; isolates the activation-reduction part of
      the pipelining win from the latency-overlap part.
    """

    in_place_update: bool = True
    group_same_row: bool = True


class NttMapper:
    """Generates the command program for one NTT on one bank."""

    def __init__(self, ntt: NttParams, arch: ArchParams, pim: PimParams,
                 base_row: int = 0, bank: int = 0,
                 options: MapperOptions = MapperOptions()):
        if pim.nb_buffers < 2:
            raise MappingError(
                "NttMapper needs an auxiliary buffer; use SingleBufferMapper "
                "for Nb=1")
        na = arch.words_per_atom
        if ntt.n < na:
            raise MappingError(f"N={ntt.n} below one atom ({na} words)")
        rows_needed = (ntt.n + arch.words_per_row - 1) // arch.words_per_row
        self.inter_row_stages = max(0, ntt.log_n - arch.log_words_per_row)
        regions = 1 if options.in_place_update or not self.inter_row_stages else 2
        if base_row + regions * rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial (plus ping-pong region) does not "
                               "fit in the bank")
        self.ntt = ntt
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.bank = bank
        self.rows_used = rows_needed
        self.options = options
        #: Where the natural-order result lands (differs from base_row
        #: only in the out-of-place ablation with an odd stage count).
        if options.in_place_update or self.inter_row_stages % 2 == 0:
            self.result_base_row = base_row
        else:
            self.result_base_row = base_row + rows_needed

    # -- public API -------------------------------------------------------------
    def generate(self) -> List[Command]:
        """The full command program as :class:`Command` objects."""
        return list(self.generate_ir().materialize_commands())

    def generate_ir(self) -> StreamIR:
        """The full command program, PARAM_WRITE through final PRE."""
        b = ProgramBuilder(self.bank, self.pim.nb_buffers)
        # q plus Montgomery constants travel over the global buffer as
        # 16-bit chunks; 6 words covers a 32-bit q, q' and R^2 mod q.
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        for block in range(self.rows_used):
            self._row_block(b, block)
        log_n = self.ntt.log_n
        log_r = self.arch.log_words_per_row
        src_base = self.base_row
        for stage in range(log_r + 1, log_n + 1):
            if self.options.in_place_update:
                dst_base = src_base
            else:
                dst_base = (self.base_row + self.rows_used
                            if src_base == self.base_row else self.base_row)
            self._inter_row_stage(b, stage, src_base, dst_base)
            src_base = dst_base
        b.close_row()
        return b.build()

    # -- phase A: one row-sized vertical block ------------------------------------
    def _row_block(self, b: ProgramBuilder, block: int) -> None:
        arch = self.arch
        na = arch.words_per_atom
        row = self.base_row + block
        words_here = min(self.ntt.n - block * arch.words_per_row,
                         arch.words_per_row)
        atoms_here = words_here // na
        b.goto_row(row)
        self._intra_atom(b, row, atoms_here)
        log_top = min(self.ntt.log_n, arch.log_words_per_row)
        for stage in range(arch.log_words_per_atom + 1, log_top + 1):
            self._intra_row_stage(b, row, block, atoms_here, stage)

    def _intra_atom(self, b: ProgramBuilder, row: int, atoms_here: int) -> None:
        """C1 per atom, group-pipelined over the whole buffer pool."""
        root = c1_root(self.ntt, self.arch.words_per_atom)
        for group in _chunks(range(atoms_here), self.pim.nb_buffers):
            for buf, col in enumerate(group):
                b.cu_read(row, col, buf)
            for buf, col in enumerate(group):
                b.c1(buf, root)
            for buf, col in enumerate(group):
                b.cu_write(row, col, buf)

    def _intra_row_stage(self, b: ProgramBuilder, row: int, block: int,
                         atoms_here: int, stage: int) -> None:
        """C2 per atom pair inside one open row (all buffer hits)."""
        na = self.arch.words_per_atom
        m_words = 1 << (stage - 1)
        stride_atoms = m_words // na
        pairs: List[Tuple[int, int]] = []
        for block_start in range(0, atoms_here, 2 * stride_atoms):
            for i in range(stride_atoms):
                pairs.append((block_start + i, block_start + i + stride_atoms))
        word_base = block * self.arch.words_per_row
        for group in _chunks(pairs, self.pim.pair_slots):
            reads = []
            for slot, (col_a, col_b) in enumerate(group):
                buf_p, buf_s = 2 * slot, 2 * slot + 1
                b.cu_read(row, col_a, buf_p)
                b.cu_read(row, col_b, buf_s)
                reads.append((buf_p, buf_s))
            for slot, (col_a, col_b) in enumerate(group):
                word_a = word_base + col_a * na
                omega0, r_omega = c2_twiddles(self.ntt, stage, word_a)
                buf_p, buf_s = reads[slot]
                b.c2(buf_p, buf_s, omega0, r_omega)
            for slot, (col_a, col_b) in enumerate(group):
                buf_p, buf_s = reads[slot]
                b.cu_write(row, col_a, buf_p)
                b.cu_write(row, col_b, buf_s)

    # -- phase B: one inter-row stage ----------------------------------------------
    def _inter_row_stage(self, b: ProgramBuilder, stage: int,
                         src_base: int, dst_base: int) -> None:
        """C2 per atom pair straddling two rows, group-batched so a group
        shares one (ACT A, ACT B, ACT A) sweep — the pipelining payoff.

        With ``in_place_update`` off, ``dst_base`` points at the mirror
        region: writes open two *additional* rows per group.
        """
        arch = self.arch
        na = arch.words_per_atom
        r_words = arch.words_per_row
        m_words = 1 << (stage - 1)
        row_dist = m_words // r_words
        if row_dist < 1:
            raise MappingError(f"stage {stage} is not inter-row")
        cols = arch.columns_per_row
        group_size = self.pim.pair_slots if self.options.group_same_row else 1
        in_place = (dst_base == src_base)
        for rel_row in range(self.rows_used):
            if (rel_row * r_words) % (2 * m_words) >= m_words:
                continue  # this row is a '-'-leg row; handled with its partner
            row_a = src_base + rel_row
            row_b = row_a + row_dist
            out_a = dst_base + rel_row
            out_b = out_a + row_dist
            for group in _chunks(range(cols), group_size):
                # Reads of all '+'-legs (row A open once per group).
                b.goto_row(row_a)
                slots = []
                for slot, col in enumerate(group):
                    buf_p, buf_s = 2 * slot, 2 * slot + 1
                    b.cu_read(row_a, col, buf_p)
                    slots.append((buf_p, buf_s))
                # Reads of all '-'-legs.
                b.goto_row(row_b)
                for slot, col in enumerate(group):
                    b.cu_read(row_b, col, slots[slot][1])
                # Vectorized butterflies (no row involvement).
                for slot, col in enumerate(group):
                    word_a = rel_row * r_words + col * na
                    omega0, r_omega = c2_twiddles(self.ntt, stage, word_a)
                    b.c2(slots[slot][0], slots[slot][1], omega0, r_omega)
                if in_place:
                    # '-'-leg writes hit the still-open row B (the paper's
                    # in-place update); one activation back to row A for
                    # the '+'-legs, which the next group's reads reuse.
                    for slot, col in enumerate(group):
                        b.cu_write(row_b, col, slots[slot][1])
                    b.goto_row(row_a)
                    for slot, col in enumerate(group):
                        b.cu_write(row_a, col, slots[slot][0])
                else:
                    # Naive out-of-place: both writes miss.
                    b.goto_row(out_b)
                    for slot, col in enumerate(group):
                        b.cu_write(out_b, col, slots[slot][1])
                    b.goto_row(out_a)
                    for slot, col in enumerate(group):
                        b.cu_write(out_a, col, slots[slot][0])
