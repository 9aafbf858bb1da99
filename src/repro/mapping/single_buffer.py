"""Degenerate Nb=1 mapping (GSA only) — the paper's negative baseline.

With a single atom buffer and two scalar CU registers, intra-atom stages
still work (C1 through the GSA), but every inter-atom butterfly must
stage data element-by-element through the one buffer (Sec. III.B):

    [atom A in buffer]      LOAD_SCALAR  a <- buf[lane]
    CU_READ atom B          (clobbers the buffer)
    BU_SCALAR               b' -> buf[lane], a' stays in the register
    CU_WRITE atom B
    CU_READ atom A          (again!)
    STORE_SCALAR            a' -> buf[lane]
    CU_WRITE atom A         (buffer now holds A for the next butterfly)

i.e. ~2 reads + 2 writes *per element pair* instead of per atom pair, and
in the inter-row regime every read/write pair flips the open row — about
half of all accesses activate, exactly the paper's account.  Fig. 7's
"no advantage over software" line comes from this mapper.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..arith.modmath import mod_pow
from ..arith.roots import NttParams
from ..compile.ir import StreamIR
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..pim.params import PimParams
from .program import ProgramBuilder
from .twiddle_params import c1_root

__all__ = ["SingleBufferMapper"]


class SingleBufferMapper:
    """Command generation when only the primary buffer exists."""

    def __init__(self, ntt: NttParams, arch: ArchParams, pim: PimParams,
                 base_row: int = 0, bank: int = 0):
        if pim.nb_buffers != 1:
            raise MappingError("SingleBufferMapper is exactly the Nb=1 case")
        if ntt.n < arch.words_per_atom:
            raise MappingError("N below one atom")
        rows_needed = (ntt.n + arch.words_per_row - 1) // arch.words_per_row
        if base_row + rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial does not fit in the bank")
        self.ntt = ntt
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.bank = bank
        self.rows_used = rows_needed
        self.result_base_row = base_row  # Nb=1 always computes in place

    def generate(self) -> List[Command]:
        """The full command program as :class:`Command` objects."""
        return list(self.generate_ir().materialize_commands())

    def generate_ir(self) -> StreamIR:
        b = ProgramBuilder(self.bank, 1)
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        self._intra_atom_phase(b)
        log_na = self.arch.log_words_per_atom
        for stage in range(log_na + 1, self.ntt.log_n + 1):
            self._inter_atom_stage(b, stage)
        b.close_row()
        return b.build()

    def _intra_atom_phase(self, b: ProgramBuilder) -> None:
        arch = self.arch
        na = arch.words_per_atom
        root = c1_root(self.ntt, na)
        for block in range(self.rows_used):
            row = self.base_row + block
            words_here = min(self.ntt.n - block * arch.words_per_row,
                             arch.words_per_row)
            b.goto_row(row)
            for col in range(words_here // na):
                b.cu_read(row, col, 0)
                b.c1(0, root)
                b.cu_write(row, col, 0)

    def _locate(self, word: int) -> Tuple[int, int, int]:
        r = self.arch.words_per_row
        na = self.arch.words_per_atom
        return (self.base_row + word // r, (word % r) // na, word % na)

    def _inter_atom_stage(self, b: ProgramBuilder, stage: int) -> None:
        n, q = self.ntt.n, self.ntt.q
        m = 1 << (stage - 1)
        step_exp = n >> stage
        # Which (row, col) the buffer currently holds a *clean* copy of.
        held: Optional[Tuple[int, int]] = None

        for k in range(0, n, 2 * m):
            for j in range(m):
                word_a = k + j
                word_b = word_a + m
                row_a, col_a, lane = self._locate(word_a)
                row_b, col_b, _ = self._locate(word_b)
                omega = mod_pow(self.ntt.omega, step_exp * j, q)
                if held != (row_a, col_a):
                    b.goto_row(row_a)
                    b.cu_read(row_a, col_a, 0)
                b.load_scalar(0, lane)
                b.goto_row(row_b)
                b.cu_read(row_b, col_b, 0)
                b.bu_scalar(0, lane, omega)
                b.cu_write(row_b, col_b, 0)
                b.goto_row(row_a)
                b.cu_read(row_a, col_a, 0)
                b.store_scalar(0, lane)
                b.cu_write(row_a, col_a, 0)
                held = (row_a, col_a)
