"""A PIM-extended DRAM bank: storage + atom buffers + compute unit.

This is the functional half of the simulator.  The driver feeds the same
command list to this class (for data) and to the timing engine (for
cycles) — mirroring the paper's two-way coupling between their Python
front-end and DRAMsim3 (Sec. VI.A, footnote 1).

A bank built with ``banks=B`` stacks ``B`` banks that run the same
program in lockstep — the multi-bank deployment, where every bank
decodes the same commands off the shared bus.  One walk of the pooled
plan then executes all ``B`` data sets at once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..arith import vector
from ..dram.bank import BankStorage
from ..dram.commands import Command, CommandType
from ..dram.stream import CommandStream
from ..dram.timing import ArchParams
from ..errors import MappingError
from .buffers import AtomBufferFile
from .cu import ComputeUnit
from .params import PimParams

__all__ = ["PimBank"]


class PimBank:
    """One bank with the paper's datapath extensions (Fig. 2 left).

    ``banks=B`` makes it ``B`` lockstep banks on a leading axis (see
    :class:`~repro.dram.bank.BankStorage`; host I/O then moves ``(B,
    n)`` arrays) and ``rows=(lo, hi)`` allocates only that row window.
    The CU counters sum over the stacked banks.
    """

    def __init__(self, arch: ArchParams, pim: PimParams,
                 banks: Optional[int] = None,
                 rows: Optional[Tuple[int, int]] = None):
        self.arch = arch
        self.pim = pim
        self.storage = BankStorage(arch, banks, rows)
        self.banks = self.storage.banks
        self.buffers = AtomBufferFile(pim.nb_buffers, arch.words_per_atom)
        self.cu = ComputeUnit(arch.words_per_atom, pim.use_montgomery)
        self.pending_q: int | None = None
        self._arrays_key: tuple | None = None
        self._arrays_flag = False
        # Per-type handlers: execute() runs once per command, and a dict
        # dispatch beats re-evaluating an if-chain of enum membership tests.
        self._dispatch = {
            CommandType.ACT: self._exec_act,
            CommandType.PRE: self._exec_pre,
            CommandType.RD: self._exec_rd,
            CommandType.CU_READ: self._exec_cu_read,
            CommandType.WR: self._exec_wr,
            CommandType.CU_WRITE: self._exec_cu_write,
            CommandType.C1: self._exec_c1,
            CommandType.C2: self._exec_c2,
            CommandType.C1N: self._exec_c1n,
            CommandType.PARAM_WRITE: self._exec_param_write,
            CommandType.LOAD_SCALAR: self._exec_load_scalar,
            CommandType.BU_SCALAR: self._exec_bu_scalar,
            CommandType.STORE_SCALAR: self._exec_store_scalar,
        }

    def set_parameters(self, q: int) -> None:
        """Stage the modulus the next PARAM_WRITE command will latch."""
        self.pending_q = q

    def _use_arrays(self) -> bool:
        """Keep atoms array-resident (storage -> buffers -> CU -> storage)
        when the numpy backend can handle the active modulus; the scalar
        list path is the pure-Python ground truth.  Memoized per
        (modulus, backend) — this runs for every command."""
        key = (self.cu.q, vector.get_backend())
        if key != self._arrays_key:
            self._arrays_key = key
            self._arrays_flag = key[0] is not None and vector.numpy_active(key[0])
        return self._arrays_flag

    # -- per-command handlers --------------------------------------------------
    def _exec_act(self, cmd: Command) -> None:
        self.storage.activate(cmd.row)

    def _exec_pre(self, cmd: Command) -> None:
        self.storage.precharge()

    def _exec_rd(self, cmd: Command) -> None:
        # A plain RD sends data to chip I/O; nothing bank-side changes
        # (the access is still validated).
        self.storage.read_atom_array(cmd.row, cmd.col)

    def _exec_cu_read(self, cmd: Command) -> None:
        if self._use_arrays():
            self.buffers.write_array(
                cmd.buf, self.storage.read_atom_array(cmd.row, cmd.col))
        else:
            self.buffers.write(cmd.buf, self.storage.read_atom(cmd.row, cmd.col))

    def _exec_wr(self, cmd: Command) -> None:
        raise MappingError(
            "plain WR with host data is not used by the NTT mapping")

    def _exec_cu_write(self, cmd: Command) -> None:
        words = (self.buffers.peek_array(cmd.buf) if self._use_arrays()
                 else self.buffers.read(cmd.buf))
        self.storage.write_atom(cmd.row, cmd.col, words)

    def _exec_c1(self, cmd: Command) -> None:
        if self._use_arrays():
            out = self.cu.execute_c1(self.buffers.peek_array(cmd.buf),
                                     cmd.omega0, cmd.r_omega or 0)
            self.buffers.write_array(cmd.buf, out)
        else:
            out = self.cu.execute_c1(self.buffers.read(cmd.buf),
                                     cmd.omega0, cmd.r_omega or 0)
            self.buffers.write(cmd.buf, out)

    def _exec_c2(self, cmd: Command) -> None:
        if self._use_arrays():
            p_out, s_out = self.cu.execute_c2(
                self.buffers.peek_array(cmd.buf),
                self.buffers.peek_array(cmd.buf2),
                cmd.omega0, cmd.r_omega, gs=cmd.gs)
            self.buffers.write_array(cmd.buf, p_out)
            self.buffers.write_array(cmd.buf2, s_out)
        else:
            p_out, s_out = self.cu.execute_c2(
                self.buffers.read(cmd.buf), self.buffers.read(cmd.buf2),
                cmd.omega0, cmd.r_omega, gs=cmd.gs)
            self.buffers.write(cmd.buf, p_out)
            self.buffers.write(cmd.buf2, s_out)

    def _exec_c1n(self, cmd: Command) -> None:
        if self._use_arrays():
            out = self.cu.execute_c1n(self.buffers.peek_array(cmd.buf),
                                      cmd.zetas, gs=cmd.gs)
            self.buffers.write_array(cmd.buf, out)
        else:
            out = self.cu.execute_c1n(self.buffers.read(cmd.buf),
                                      cmd.zetas, gs=cmd.gs)
            self.buffers.write(cmd.buf, out)

    def _exec_param_write(self, cmd: Command) -> None:
        if self.pending_q is None:
            raise MappingError("PARAM_WRITE with no staged parameters")
        self.cu.set_modulus(self.pending_q)

    def _exec_load_scalar(self, cmd: Command) -> None:
        self.cu.load_scalar(self.buffers.read_lane(cmd.buf, cmd.lane))

    def _exec_bu_scalar(self, cmd: Command) -> None:
        b = self.buffers.read_lane(cmd.buf, cmd.lane)
        _, b_out = self.cu.bu_scalar(b, cmd.omega0)
        self.buffers.write_lane(cmd.buf, cmd.lane, b_out)

    def _exec_store_scalar(self, cmd: Command) -> None:
        self.buffers.write_lane(cmd.buf, cmd.lane, self.cu.store_scalar())

    def execute(self, cmd: Command) -> None:
        """Apply one command's data effect."""
        handler = self._dispatch.get(cmd.ctype)
        if handler is None:  # pragma: no cover - enum exhaustive
            raise MappingError(f"unknown command {cmd.ctype}")
        handler(cmd)

    def run(self, commands: Sequence[Command]) -> None:
        """Apply a whole program in order (the ground-truth path)."""
        if self.banks > 1:
            raise MappingError("per-command execution drives one bank")
        dispatch = self._dispatch
        for cmd in commands:
            dispatch[cmd.ctype](cmd)

    # -- compiled-stream execution --------------------------------------------
    def _stream_fusable(self, stream: CommandStream) -> bool:
        """Fused macro-ops need a plan and lane support for the modulus
        the program will compute under (the staged one when the program
        latches its own parameters, else the currently loaded one)."""
        if stream.plan is None or vector.get_backend() != "numpy":
            return False
        if stream.plan.max_buffer >= self.buffers.count:
            # Out-of-range buffer: the legacy loop raises at the
            # offending command, before any data effect.
            return False
        if stream.plan.reg_init is not None and self.cu.reg_a >= 2 ** 64:
            # Lane plans pool the scalar register as a uint64 version;
            # an oversized pre-program register value (only reachable by
            # hand-driving the CU) must keep the exact-int scalar path.
            return False
        if stream.plan.has_param:
            # The loaded modulus may still cover compute groups scheduled
            # before the first PARAM_WRITE, so it must be lane-safe too.
            return (self.pending_q is not None
                    and vector.lanes_supported(self.pending_q)
                    and (self.cu.q is None
                         or vector.lanes_supported(self.cu.q)))
        return self.cu.q is not None and vector.lanes_supported(self.cu.q)

    def lockstep_ok(self, stream: CommandStream) -> bool:
        """True when :meth:`run_stream` executes ``stream`` across the
        bank axis: an atom-mode plan the lane kernels cover.  A
        stacked bank runs nothing else; such programs run one bank at a
        time."""
        return self._stream_fusable(stream) and stream.plan.mode == "atom"

    def run_stream(self, stream: CommandStream) -> None:
        """Apply a compiled program via its fused macro-ops.

        Each plan op executes one whole dependency-depth group — e.g.
        every C1 of a butterfly-stage pass as a single stacked
        :class:`~repro.pim.cu.ComputeUnit` call, every CU_READ/CU_WRITE
        burst as one fancy-indexed gather/scatter against the cell
        array; Nb=1 scalar-µ-op programs run their LOAD/BU/STORE runs
        as stacked lane butterflies.  Data results, CU µ-op counters
        and raised errors are identical to :meth:`run` on
        ``stream.commands``; programs without a plan (or moduli outside
        the lane kernels) fall back to that loop.  A stacked bank runs
        the plan once for all its banks (see :meth:`lockstep_ok`).
        """
        plan = stream.plan
        if self.banks > 1 and not self.lockstep_ok(stream):
            raise MappingError(
                "stacked banks run atom-mode plans only")
        if not self._stream_fusable(stream):
            self.run(stream.commands)
            return
        if plan.mode == "lane":
            self._run_lane_plan(stream)
        else:
            self._run_pooled_plan(stream)

    def _plan_cells(self):
        """The cell view plan gathers/scatters index, and a function
        rebasing a plan's absolute row array into the row window."""
        row0 = self.storage.row0
        return (self.storage.atoms_view(),
                (lambda rows: rows - row0) if row0 else (lambda rows: rows))

    def _run_pooled_plan(self, stream: CommandStream) -> None:
        """Atom-mode plan: all virtual buffer versions live in one
        ``(banks, n_virtual, Na)`` array, so group results scatter
        straight into the pool — no per-row ``np.stack``.  Every op acts
        on all stacked banks at once: the CU kernels see
        ``(banks, k, Na)`` and share one twiddle pack."""
        plan = stream.plan
        cells, rebase = self._plan_cells()
        buffers = self.buffers
        cu = self.cu
        fuse_cache = stream.fuse_cache
        na = self.arch.words_per_atom
        pool = np.empty((self.banks, plan.n_virtual, na), dtype=np.uint64)
        for buf, vid in plan.init_versions:
            pool[:, vid] = buffers.peek_array(buf)

        for index, op in enumerate(plan.ops):
            kind = op[0]
            if kind == "read":
                _, rows_a, cols_a, vouts = op
                pool[:, vouts] = cells[:, rebase(rows_a), cols_a]
            elif kind == "write":
                _, rows_a, cols_a, vins = op
                cells[:, rebase(rows_a), cols_a] = pool[:, vins]
            elif kind == "c2":
                _, pins, sins, pouts, souts, omega0s, r_omegas, gs = op
                cache_key = (index, cu._require_modulus())
                w2d = fuse_cache.get(cache_key)
                if w2d is None:
                    w2d = fuse_cache[cache_key] = vector.c2_stack_wpack(
                        cache_key[1], omega0s, r_omegas, na)
                p_out, s_out = cu.execute_c2_stack(pool[:, pins],
                                                   pool[:, sins], w2d, gs=gs)
                pool[:, pouts] = p_out
                pool[:, souts] = s_out
            elif kind == "c1":
                _, vins, vouts, omegas = op
                cache_key = (index, cu._require_modulus())
                wpack = fuse_cache.get(cache_key)
                if wpack is None:
                    wpack = fuse_cache[cache_key] = vector.c1_stack_wpack(
                        cache_key[1], omegas, na)
                pool[:, vouts] = cu.execute_c1_stack(pool[:, vins], wpack)
            elif kind == "c1n":
                _, vins, vouts, zetas_rows, gs = op
                cache_key = (index, cu._require_modulus())
                z2d = fuse_cache.get(cache_key)
                if z2d is None:
                    z2d = fuse_cache[cache_key] = vector.c1n_stack_zpack(
                        cache_key[1], zetas_rows)
                pool[:, vouts] = cu.execute_c1n_stack(pool[:, vins], z2d,
                                                      gs=gs)
            else:  # param
                if self.pending_q is None:
                    raise MappingError("PARAM_WRITE with no staged parameters")
                cu.set_modulus(self.pending_q)

        # A stacked buffer file holds one (banks, Na) atom per buffer.
        final = pool if self.storage.stacked else pool[0]
        for buf, vid in plan.final_versions:
            buffers.write_array(buf, final[..., vid, :].copy())

    def _run_lane_plan(self, stream: CommandStream) -> None:
        """Lane-mode plan (Nb=1 scalar-µ-op programs): versions are
        single lanes plus the CU register, pooled in one 1-D array;
        LOAD/BU/STORE runs execute as stacked scalar ops with the exact
        per-µ-op counter semantics of the dispatch loop."""
        plan = stream.plan
        cells, rebase = self._plan_cells()
        cells = cells[0]
        buffers = self.buffers
        cu = self.cu
        fuse_cache = stream.fuse_cache
        na = self.arch.words_per_atom
        pool = np.empty(plan.n_virtual, dtype=np.uint64)
        for buf, first_vid in plan.lane_init:
            pool[first_vid:first_vid + na] = buffers.peek_array(buf)
        if plan.reg_init is not None:
            pool[plan.reg_init] = cu.reg_a

        for index, op in enumerate(plan.ops):
            kind = op[0]
            if kind == "bu":
                _, reg_vins, lane_vins, reg_vouts, lane_vouts, omegas = op
                cache_key = (index, cu._require_modulus())
                warr = fuse_cache.get(cache_key)
                if warr is None:
                    q = cache_key[1]
                    warr = fuse_cache[cache_key] = np.array(
                        [w % q for w in omegas], dtype=np.uint64)
                a_out, b_out = cu.execute_bu_stack(pool[reg_vins],
                                                   pool[lane_vins], warr)
                pool[reg_vouts] = a_out
                pool[lane_vouts] = b_out
            elif kind == "load":
                _, lane_vins, reg_vouts = op
                q = cu._require_modulus()
                pool[reg_vouts] = pool[lane_vins] % np.uint64(q)
                cu.load_uops += len(reg_vouts)
            elif kind == "store":
                _, reg_vins, lane_vouts = op
                cu._require_modulus()
                pool[lane_vouts] = pool[reg_vins]
                cu.store_uops += len(reg_vins)
            elif kind == "lread":
                _, rows_a, cols_a, vouts2d = op
                pool[vouts2d] = cells[rebase(rows_a), cols_a]
            elif kind == "lwrite":
                _, rows_a, cols_a, vins2d = op
                cells[rebase(rows_a), cols_a] = pool[vins2d]
            elif kind == "lc1":
                _, vins2d, vouts2d, omegas = op
                cache_key = (index, cu._require_modulus())
                wpack = fuse_cache.get(cache_key)
                if wpack is None:
                    wpack = fuse_cache[cache_key] = vector.c1_stack_wpack(
                        cache_key[1], omegas, na)
                pool[vouts2d] = cu.execute_c1_stack(pool[vins2d], wpack)
            else:  # param
                if self.pending_q is None:
                    raise MappingError("PARAM_WRITE with no staged parameters")
                cu.set_modulus(self.pending_q)

        for buf, vid_arr in plan.lane_final:
            buffers.write_array(buf, pool[vid_arr])
        if plan.reg_final is not None:
            cu.reg_a = int(pool[plan.reg_final])

    # -- host data path -------------------------------------------------------
    def load_polynomial(self, base_row: int, values: List[int]) -> None:
        """Host writes the (already bit-reversed) input into the bank; a
        stacked bank takes one ``(banks, n)`` array for all its banks."""
        self.storage.host_write_polynomial(base_row, values)

    def read_polynomial(self, base_row: int, length: int) -> List[int]:
        """Host reads the NTT result back (a ``(banks, length)`` array
        from a stacked bank)."""
        return self.storage.host_read_polynomial(base_row, length)
