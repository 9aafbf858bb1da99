"""Incremental builder for MC command programs, with buffer-hazard and
open-row bookkeeping shared by the mappers.

The builder is columnar: each emitted command appends one flat row
``(code, row, col, buf, buf2, lane, gs, payload_words, omega0, r_omega,
zetas, deps)`` (``-1`` for unused integer fields), and :meth:`build`
transposes the rows into a :class:`~repro.compile.ir.StreamIR`.  No
:class:`~repro.dram.commands.Command` object is constructed; the
per-type field checks ``Command.__post_init__`` would run per object
run once, vectorized, at build (:meth:`StreamIR.validate`).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..compile.ir import StreamIR
from ..dram.commands import CTYPE_CODES, CommandType
from ..errors import MappingError

__all__ = ["ProgramBuilder"]

_ACT = CTYPE_CODES[CommandType.ACT]
_CU_READ = CTYPE_CODES[CommandType.CU_READ]
_CU_WRITE = CTYPE_CODES[CommandType.CU_WRITE]
_C1 = CTYPE_CODES[CommandType.C1]
_C2 = CTYPE_CODES[CommandType.C2]
_C1N = CTYPE_CODES[CommandType.C1N]
_LOAD_SCALAR = CTYPE_CODES[CommandType.LOAD_SCALAR]
_BU_SCALAR = CTYPE_CODES[CommandType.BU_SCALAR]
_STORE_SCALAR = CTYPE_CODES[CommandType.STORE_SCALAR]
# Every PRE row is identical (no fields, no deps): share one tuple.
_PRE_ROW = (CTYPE_CODES[CommandType.PRE], -1, -1, -1, -1, -1, False, 0,
            None, None, (), ())


def _dep(index: Optional[int]) -> tuple:
    return () if index is None else (index,)


def _dep_pair(a: Optional[int], b: Optional[int]) -> tuple:
    """``tuple(sorted({a, b} - {None}))`` without the set."""
    if a is None:
        return _dep(b)
    if b is None or a == b:
        return (a,)
    return (a, b) if a < b else (b, a)


def _field(value: Optional[int]) -> int:
    return -1 if value is None else value


class ProgramBuilder:
    """Appends commands, wires dependencies, tracks the open row and
    per-buffer producers so mappers stay readable."""

    def __init__(self, bank: int, nb_buffers: int):
        self.bank = bank
        self.nb_buffers = nb_buffers
        self.open_row: Optional[int] = None
        # Last command that produced the buffer's current contents.
        self._producer: List[Optional[int]] = [None] * nb_buffers
        # Last command still needing the buffer's contents (WAR hazard).
        self._busy: List[Optional[int]] = [None] * nb_buffers
        # One flat row per command (see the module docstring).
        self._rows: List[tuple] = []

    # -- raw emission ---------------------------------------------------------
    def emit(self, ctype: CommandType, deps=(), *, row=None, col=None,
             buf=None, buf2=None, lane=None, omega0=None, r_omega=None,
             payload_words: int = 0, gs: bool = False, zetas=()) -> int:
        """Append one command of any type; its fields are checked at
        :meth:`build`."""
        rows = self._rows
        rows.append((CTYPE_CODES[ctype], _field(row), _field(col),
                     _field(buf), _field(buf2), _field(lane), bool(gs),
                     payload_words, omega0, r_omega, tuple(zetas),
                     tuple(sorted({d for d in deps if d is not None}))))
        return len(rows) - 1

    # -- row management --------------------------------------------------------
    def goto_row(self, row: int) -> None:
        """Open ``row``, precharging first if another row is open."""
        if self.open_row == row:
            return
        if self.open_row is not None:
            self._rows.append(_PRE_ROW)
        self._rows.append((_ACT, row, -1, -1, -1, -1, False, 0,
                           None, None, (), ()))
        self.open_row = row

    def close_row(self) -> None:
        """Final precharge (restores the row buffer into the array)."""
        if self.open_row is not None:
            self._rows.append(_PRE_ROW)
            self.open_row = None

    # -- buffer-aware helpers ----------------------------------------------------
    def _check_buf(self, buf: int) -> None:
        if not 0 <= buf < self.nb_buffers:
            raise MappingError(f"buffer {buf} out of range (Nb={self.nb_buffers})")

    def cu_read(self, row: int, col: int, buf: int) -> int:
        """Row-buffer atom -> atom buffer; waits out WAR on the buffer."""
        self._check_buf(buf)
        if self.open_row != row:
            raise MappingError(f"cu_read of row {row} while {self.open_row} open")
        rows = self._rows
        idx = len(rows)
        rows.append((_CU_READ, row, col, buf, -1, -1, False, 0, None, None,
                     (), _dep(self._busy[buf])))
        self._producer[buf] = idx
        self._busy[buf] = idx
        return idx

    def cu_write(self, row: int, col: int, buf: int) -> int:
        """Atom buffer -> row-buffer atom; waits for the producer."""
        self._check_buf(buf)
        if self.open_row != row:
            raise MappingError(f"cu_write to row {row} while {self.open_row} open")
        rows = self._rows
        idx = len(rows)
        rows.append((_CU_WRITE, row, col, buf, -1, -1, False, 0, None, None,
                     (), _dep(self._producer[buf])))
        self._busy[buf] = idx
        return idx

    def c1(self, buf: int, omega0: int) -> int:
        self._check_buf(buf)
        rows = self._rows
        idx = len(rows)
        rows.append((_C1, -1, -1, buf, -1, -1, False, 0, omega0, omega0,
                     (), _dep(self._producer[buf])))
        self._producer[buf] = idx
        self._busy[buf] = idx
        return idx

    def c2(self, buf_p: int, buf_s: int, omega0: int, r_omega: int,
           gs: bool = False) -> int:
        self._check_buf(buf_p)
        self._check_buf(buf_s)
        producer = self._producer
        rows = self._rows
        idx = len(rows)
        rows.append((_C2, -1, -1, buf_p, buf_s, -1, gs, 0, omega0, r_omega,
                     (), _dep_pair(producer[buf_p], producer[buf_s])))
        producer[buf_p] = idx
        producer[buf_s] = idx
        self._busy[buf_p] = idx
        self._busy[buf_s] = idx
        return idx

    def c1n(self, buf: int, zetas, gs: bool = False) -> int:
        """Merged negacyclic intra-atom command (extension)."""
        self._check_buf(buf)
        rows = self._rows
        idx = len(rows)
        rows.append((_C1N, -1, -1, buf, -1, -1, gs, 0, None, None,
                     tuple(zetas), _dep(self._producer[buf])))
        self._producer[buf] = idx
        self._busy[buf] = idx
        return idx

    # -- scalar micro-ops (Nb=1 degenerate path) -----------------------------------
    def load_scalar(self, buf: int, lane: int) -> int:
        """reg_a <- buf[lane]; needs the buffer's current contents."""
        self._check_buf(buf)
        rows = self._rows
        idx = len(rows)
        rows.append((_LOAD_SCALAR, -1, -1, buf, -1, lane, False, 0, None,
                     None, (), _dep(self._producer[buf])))
        self._busy[buf] = idx
        return idx

    def bu_scalar(self, buf: int, lane: int, omega0: int) -> int:
        """BU(reg_a, buf[lane]); writes b' back into the lane."""
        self._check_buf(buf)
        rows = self._rows
        idx = len(rows)
        rows.append((_BU_SCALAR, -1, -1, buf, -1, lane, False, 0, omega0,
                     None, (), _dep(self._producer[buf])))
        self._producer[buf] = idx
        self._busy[buf] = idx
        return idx

    def store_scalar(self, buf: int, lane: int) -> int:
        """buf[lane] <- reg_a."""
        self._check_buf(buf)
        rows = self._rows
        idx = len(rows)
        rows.append((_STORE_SCALAR, -1, -1, buf, -1, lane, False, 0, None,
                     None, (), _dep(self._producer[buf])))
        self._producer[buf] = idx
        self._busy[buf] = idx
        return idx

    def build(self) -> StreamIR:
        """The program as a validated :class:`StreamIR`.

        Hands the rows off: the builder keeps no per-command state
        afterwards, so nothing but the IR's own columns stays alive.
        Raises :class:`MappingError` on a malformed command (e.g. a raw
        :meth:`emit` of a column command without its row)."""
        rows, self._rows = self._rows, []
        n = len(rows)
        columns = tuple(zip(*rows)) if n else ((),) * 12
        del rows
        (codes, row_col, col_col, bufs, buf2s, lanes, gs, payloads,
         omega0s, r_omegas, zetas, deps) = columns
        ir = StreamIR.from_columns(
            n, codes=codes, banks=itertools.repeat(self.bank, n),
            rows=row_col, cols=col_col, bufs=bufs, buf2s=buf2s, lanes=lanes,
            gs=gs, payloads=payloads, omega0s=omega0s, r_omegas=r_omegas,
            zetas=zetas, deps=deps)
        ir.validate()
        return ir
