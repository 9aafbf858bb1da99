"""Native negacyclic (merged-psi) NTT mapping — an extension beyond the
paper.

The paper computes the *cyclic* NTT on the PIM and leaves the negacyclic
pre/post psi-scaling (and bit reversal) to the host.  Production lattice
crypto instead merges the psi powers into the twiddles
(:mod:`repro.ntt.merged`), which turns out to fit this PIM even better:

* input arrives in **natural order** — the host bit-reversal pass
  disappears entirely;
* every butterfly block has a **constant** zeta, which the TFG realizes
  as the degenerate geometric sequence ``(omega0 = zeta, r_omega = 1)``;
* the forward network runs the same three regimes in *reverse* order
  (inter-row stages first, then per-row blocks), so the same
  row-activation arithmetic applies, including in-place update and
  same-row grouping;
* the intra-atom stages need per-block zetas that are not derivable by
  squaring, so they ride a new ``C1N`` command carrying its seven zetas
  as parameters (7 extra CU cycles — see ``ComputeTiming.c1n_cycles``).

The inverse transform is the mirror image with Gentleman-Sande
butterflies (an output-side mux on the BU multiplier) and inverse zetas;
the final 1/N scale stays on the host, absorbed by FHE's next
element-wise pass exactly as in the paper's protocol.
"""

from __future__ import annotations

from typing import List, Tuple

from ..arith.modmath import mod_pow
from ..compile.ir import StreamIR
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..ntt.merged import block_zeta_exponent
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .program import ProgramBuilder

__all__ = ["NegacyclicNttMapper"]


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


class NegacyclicNttMapper:
    """Command generation for the merged negacyclic transform."""

    def __init__(self, ring: NegacyclicParams, arch: ArchParams,
                 pim: PimParams, base_row: int = 0, bank: int = 0,
                 inverse: bool = False):
        if pim.nb_buffers < 2:
            raise MappingError("negacyclic mapping needs an auxiliary buffer")
        na = arch.words_per_atom
        if ring.n < na:
            raise MappingError(f"N={ring.n} below one atom")
        rows_needed = (ring.n + arch.words_per_row - 1) // arch.words_per_row
        if base_row + rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial does not fit in the bank")
        self.ring = ring
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.bank = bank
        self.inverse = inverse
        self.rows_used = rows_needed
        self.result_base_row = base_row
        # Twiddle base: psi forward, psi^-1 inverse.
        self._root = ring.psi_inv if inverse else ring.psi

    # -- twiddle helpers ---------------------------------------------------------
    def _zeta(self, length: int, start: int) -> int:
        exp = block_zeta_exponent(self.ring.n, length, start)
        return mod_pow(self._root, exp, self.ring.q)

    def _atom_zetas(self, atom_index: int) -> Tuple[int, ...]:
        """The Na-1 per-block zetas one C1N consumes, in consumption
        order (forward: strides Na/2 down; inverse: strides 1 up)."""
        na = self.arch.words_per_atom
        base = atom_index * na
        zetas: List[int] = []
        strides = ([na >> s for s in range(1, self.arch.log_words_per_atom + 1)]
                   if not self.inverse else
                   [1 << s for s in range(self.arch.log_words_per_atom)])
        for length in strides:
            for start in range(0, na, 2 * length):
                zetas.append(self._zeta(length, base + start))
        return tuple(zetas)

    # -- program generation ----------------------------------------------------------
    def generate(self) -> List[Command]:
        """The full command program as :class:`Command` objects."""
        return list(self.generate_ir().materialize_commands())

    def generate_ir(self) -> StreamIR:
        b = ProgramBuilder(self.bank, self.pim.nb_buffers)
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        n = self.ring.n
        log_n = n.bit_length() - 1
        log_r = self.arch.log_words_per_row
        inter_row_strides = [1 << (s - 1) for s in range(log_r + 1, log_n + 1)]
        if not self.inverse:
            # Forward: inter-row stages first (largest stride first), then
            # per-row blocks (intra-row strides + C1N).
            for length in reversed(inter_row_strides):
                self._inter_row_stage(b, length)
            for block in range(self.rows_used):
                self._row_block(b, block)
        else:
            # Inverse mirrors the forward exactly.
            for block in range(self.rows_used):
                self._row_block(b, block)
            for length in inter_row_strides:
                self._inter_row_stage(b, length)
        b.close_row()
        return b.build()

    # -- per-row processing ------------------------------------------------------------
    def _row_block(self, b: ProgramBuilder, block: int) -> None:
        arch = self.arch
        na = arch.words_per_atom
        row = self.base_row + block
        words_here = min(self.ring.n - block * arch.words_per_row,
                         arch.words_per_row)
        atoms_here = words_here // na
        b.goto_row(row)
        intra_row_strides = [1 << s for s in range(
            arch.log_words_per_atom,
            min(arch.log_words_per_row,
                self.ring.n.bit_length() - 1))]
        if not self.inverse:
            # Forward: intra-row stages from the largest stride down,
            # then the intra-atom C1N sweep.
            for length in reversed(intra_row_strides):
                self._intra_row_stage(b, row, block, atoms_here, length)
            self._c1n_sweep(b, row, block, atoms_here)
        else:
            self._c1n_sweep(b, row, block, atoms_here)
            for length in intra_row_strides:
                self._intra_row_stage(b, row, block, atoms_here, length)

    def _c1n_sweep(self, b: ProgramBuilder, row: int, block: int,
                   atoms_here: int) -> None:
        atoms_per_row = self.arch.columns_per_row
        for group in _chunks(range(atoms_here), self.pim.nb_buffers):
            for buf, col in enumerate(group):
                b.cu_read(row, col, buf)
            for buf, col in enumerate(group):
                atom_index = block * atoms_per_row + col
                b.c1n(buf, self._atom_zetas(atom_index), gs=self.inverse)
            for buf, col in enumerate(group):
                b.cu_write(row, col, buf)

    def _intra_row_stage(self, b: ProgramBuilder, row: int, block: int,
                         atoms_here: int, length: int) -> None:
        na = self.arch.words_per_atom
        stride_atoms = length // na
        pairs = []
        for start in range(0, atoms_here, 2 * stride_atoms):
            for i in range(stride_atoms):
                pairs.append((start + i, start + i + stride_atoms))
        word_base = block * self.arch.words_per_row
        for group in _chunks(pairs, self.pim.pair_slots):
            slots = []
            for slot, (col_a, col_b) in enumerate(group):
                buf_p, buf_s = 2 * slot, 2 * slot + 1
                b.cu_read(row, col_a, buf_p)
                b.cu_read(row, col_b, buf_s)
                slots.append((buf_p, buf_s))
            for slot, (col_a, col_b) in enumerate(group):
                word_a = word_base + col_a * na
                block_start = (word_a // (2 * length)) * (2 * length)
                zeta = self._zeta(length, block_start)
                b.c2(slots[slot][0], slots[slot][1], zeta, 1, gs=self.inverse)
            for slot, (col_a, col_b) in enumerate(group):
                b.cu_write(row, col_a, slots[slot][0])
                b.cu_write(row, col_b, slots[slot][1])

    # -- inter-row stage -------------------------------------------------------------
    def _inter_row_stage(self, b: ProgramBuilder, length: int) -> None:
        arch = self.arch
        na = arch.words_per_atom
        r_words = arch.words_per_row
        row_dist = length // r_words
        if row_dist < 1:
            raise MappingError(f"stride {length} is not inter-row")
        cols = arch.columns_per_row
        group_size = self.pim.pair_slots
        for rel_row in range(self.rows_used):
            if (rel_row * r_words) % (2 * length) >= length:
                continue
            row_a = self.base_row + rel_row
            row_b = row_a + row_dist
            for group in _chunks(range(cols), group_size):
                b.goto_row(row_a)
                slots = []
                for slot, col in enumerate(group):
                    buf_p, buf_s = 2 * slot, 2 * slot + 1
                    b.cu_read(row_a, col, buf_p)
                    slots.append((buf_p, buf_s))
                b.goto_row(row_b)
                for slot, col in enumerate(group):
                    b.cu_read(row_b, col, slots[slot][1])
                for slot, col in enumerate(group):
                    word_a = rel_row * r_words + col * na
                    block_start = (word_a // (2 * length)) * (2 * length)
                    zeta = self._zeta(length, block_start)
                    b.c2(slots[slot][0], slots[slot][1], zeta, 1,
                         gs=self.inverse)
                for slot, col in enumerate(group):
                    b.cu_write(row_b, col, slots[slot][1])
                b.goto_row(row_a)
                for slot, col in enumerate(group):
                    b.cu_write(row_a, col, slots[slot][0])
