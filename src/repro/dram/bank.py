"""Functional storage model of a DRAM bank (cell array + row buffer).

Timing lives in :mod:`repro.dram.engine`; this module only answers "what
data is where".  The row-buffer copy semantics matter for correctness:
an activated row's contents live in the bitline sense amplifiers, column
accesses hit the row buffer, and a precharge writes the (possibly
modified) buffer back — so a CU_WRITE before a PRE really does update
the array, which is what makes the paper's in-place update sound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import MappingError
from .timing import ArchParams

__all__ = ["BankStorage"]


class BankStorage:
    """One bank: ``rows_per_bank`` x ``words_per_row`` words plus an
    explicit row buffer with open/closed state.

    ``banks=B`` stacks ``B`` same-geometry banks on a leading axis for
    lockstep execution (every bank runs the same program on its own
    data); a stacked storage reads polynomials back as ``(B, n)``
    arrays, where the ordinary one (``banks=None``) returns lists.
    ``rows=(lo, hi)`` allocates only that window of rows — the rows a
    program and its host I/O touch.  Row numbers stay absolute
    everywhere; the row-buffer (per-command) accessors address bank 0.
    """

    def __init__(self, arch: ArchParams, banks: Optional[int] = None,
                 rows: Optional[Tuple[int, int]] = None):
        self.arch = arch
        lo, hi = rows if rows is not None else (0, arch.rows_per_bank)
        self.stacked = banks is not None
        self.banks = banks or 1
        self.row0 = lo
        self._cells = np.zeros((self.banks, hi - lo, arch.words_per_row),
                               dtype=np.uint64)
        self._row_buffer = np.zeros(arch.words_per_row, dtype=np.uint64)
        self._open_row: Optional[int] = None

    def _local_row(self, row: int) -> int:
        """Index of absolute ``row`` in the allocated row window."""
        local = row - self.row0
        if not 0 <= local < self._cells.shape[1]:
            raise MappingError(f"row {row} outside the allocated row window")
        return local

    # -- row management ----------------------------------------------------
    @property
    def open_row(self) -> Optional[int]:
        return self._open_row

    def activate(self, row: int) -> None:
        """Copy a row into the row buffer (ACT)."""
        if self._open_row is not None:
            raise MappingError(
                f"ACT row {row} while row {self._open_row} is open (missing PRE)")
        if not 0 <= row < self.arch.rows_per_bank:
            raise MappingError(f"row {row} outside bank")
        self._row_buffer[:] = self._cells[0, self._local_row(row)]
        self._open_row = row

    def precharge(self) -> None:
        """Write the row buffer back and close the row (PRE)."""
        if self._open_row is None:
            raise MappingError("PRE with no open row")
        self._cells[0, self._open_row - self.row0] = self._row_buffer
        self._open_row = None

    def _check_column_access(self, row: int, col: int) -> None:
        if self._open_row is None:
            raise MappingError(f"column access to row {row} with no open row")
        if self._open_row != row:
            raise MappingError(
                f"column access to row {row} but row {self._open_row} is open")
        if not 0 <= col < self.arch.columns_per_row:
            raise MappingError(f"column {col} outside row")

    # -- column (atom) access ----------------------------------------------
    def read_atom(self, row: int, col: int) -> List[int]:
        """RD / CU_READ: one atom out of the open row buffer."""
        self._check_column_access(row, col)
        na = self.arch.words_per_atom
        return [int(v) for v in self._row_buffer[col * na:(col + 1) * na]]

    def read_atom_array(self, row: int, col: int) -> np.ndarray:
        """Array form of :func:`read_atom` — a fresh uint64 copy, so the
        caller can hold it across later writes to the row buffer."""
        self._check_column_access(row, col)
        na = self.arch.words_per_atom
        return self._row_buffer[col * na:(col + 1) * na].copy()

    def write_atom(self, row: int, col: int, words: List[int]) -> None:
        """WR / CU_WRITE: one atom into the open row buffer."""
        self._check_column_access(row, col)
        na = self.arch.words_per_atom
        if len(words) != na:
            raise MappingError(f"atom write needs {na} words, got {len(words)}")
        self._row_buffer[col * na:(col + 1) * na] = np.asarray(words,
                                                               dtype=np.uint64)

    # -- compiled-stream back-door -------------------------------------------
    def atoms_view(self) -> np.ndarray:
        """``(banks, window rows, columns, Na)`` uint64 view of the cell
        array; row ``r`` of the bank is window row ``r - row0``.

        The compiled-stream executor gathers/scatters whole fused groups
        of atoms through this view, bypassing the row buffer: the stream
        compiler has already proven (symbolically, at compile time) that
        every column access in the program hits its ACT'd row and that
        every row is precharged again, under which the row buffer is an
        exact mirror of the open row — so direct cell access is
        observably identical.
        """
        return self._cells.reshape(self.banks, self._cells.shape[1],
                                   self.arch.columns_per_row,
                                   self.arch.words_per_atom)

    # -- host back-door (loading inputs / reading results) -------------------
    def _host_check(self) -> None:
        if self._open_row is not None:
            raise MappingError("host access while a row is open")

    def host_write_words(self, row: int, start_word: int, words: List[int]) -> None:
        """Direct array write, bypassing timing — models the input data
        already residing in memory before the NTT request (Sec. IV.A).
        The words land in every stacked bank."""
        self._host_check()
        r = self.arch.words_per_row
        if start_word < 0 or start_word + len(words) > r:
            raise MappingError("host write crosses a row boundary")
        self._cells[:, self._local_row(row),
                    start_word:start_word + len(words)] = np.array(
            words, dtype=np.uint64)

    def host_read_words(self, row: int, start_word: int, count: int) -> List[int]:
        """Direct array read of bank 0, bypassing timing."""
        self._host_check()
        return self._cells[0, self._local_row(row),
                           start_word:start_word + count].tolist()

    def _polynomial_rows(self, base_row: int, length: int) -> Tuple[int, int]:
        """Window index of ``base_row`` and the number of full rows a
        contiguous ``length``-word polynomial there fills."""
        self._host_check()
        r = self.arch.words_per_row
        first = self._local_row(base_row)
        self._local_row(base_row + max(length - 1, 0) // r)
        return first, length // r

    def host_write_polynomial(self, base_row: int,
                              values: Sequence[int]) -> None:
        """Lay a polynomial out contiguously starting at ``base_row``:
        one sequence for every bank, or a ``(banks, n)`` array with one
        polynomial per stacked bank."""
        values = np.asarray(values, dtype=np.uint64)
        r = self.arch.words_per_row
        first, full = self._polynomial_rows(base_row, values.shape[-1])
        lead = values.shape[:-1]
        self._cells[:, first:first + full] = values[..., :full * r].reshape(
            lead + (full, r))
        if values.shape[-1] > full * r:
            self._cells[:, first + full, :values.shape[-1] - full * r] = (
                values[..., full * r:])

    def host_read_polynomial(self, base_row: int, length: int):
        """Read back a contiguous polynomial: a list, or a ``(banks,
        length)`` uint64 array from a stacked storage."""
        r = self.arch.words_per_row
        first, full = self._polynomial_rows(base_row, length)
        rows = self._cells[:, first:first + full + (length > full * r)]
        out = rows.reshape(self.banks, -1)[:, :length]
        return out.copy() if self.stacked else out[0].tolist()
