"""The compiler's structure-of-arrays intermediate representation.

A :class:`StreamIR` is the columnar form of one command program: every
per-command integer field becomes one int64 NumPy column (``-1`` encodes
"field unused by this command"), the twiddle payloads stay Python-object
side tables (moduli above 2**63 overflow int64 on the pure-Python
backend), and dependencies flatten into a CSR-style
``dep_start/dep_end/dep_flat`` triple.  Every pass in
:mod:`repro.compile.passes` is a vectorized computation over these
columns — the per-command Python loop of the old monolithic compile
survives only as the ground-truth executor.

The mappers emit this IR directly (:class:`repro.mapping.program.ProgramBuilder`
appends integer rows and transposes them at build time), so
:class:`~repro.dram.commands.Command` objects are a *view*: built on
demand from the columns by :meth:`StreamIR.materialize_commands` and
exposed lazily through :class:`CommandView`, only for traces,
``describe()`` and the per-command reference interpreters.  An IR built
by :meth:`StreamIR.from_commands` (hand-built programs) keeps its source
command tuple instead; IRs built by the merge passes (interleave /
concat) carry a *recipe* over their source IRs.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Sequence as SequenceABC
from operator import attrgetter, is_not
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dram.commands import (
    CODE_CTYPES,
    CTYPE_CODES,
    NEEDS_BUF_TYPES,
    NEEDS_ROW_TYPES,
    SCALAR_TYPES,
    Command,
    CommandType,
)
from ..errors import MappingError

__all__ = ["StreamIR", "CommandView"]

_CTYPE = attrgetter("ctype")
_BANK = attrgetter("bank")
_ROW = attrgetter("row")
_COL = attrgetter("col")
_BUF = attrgetter("buf")
_BUF2 = attrgetter("buf2")
_LANE = attrgetter("lane")
_GS = attrgetter("gs")
_PAYLOAD = attrgetter("payload_words")
_OMEGA0 = attrgetter("omega0")
_R_OMEGA = attrgetter("r_omega")
_ZETAS = attrgetter("zetas")
_DEPS = attrgetter("deps")


def _code_mask(ctypes) -> np.ndarray:
    return np.array([ct in ctypes for ct in CODE_CTYPES], dtype=np.bool_)


def _unset(values):
    """``None`` -> ``-1`` (the columns' "field unused" encoding)."""
    return (-1 if v is None else v for v in values)


def _optional(column: np.ndarray) -> list:
    """The inverse of :func:`_unset` over one int64 column."""
    return [None if v < 0 else v for v in column.tolist()]


# Vectorized form of Command.__post_init__'s field checks: (types whose
# commands need the fields, IR columns that must be set, message).
_FIELD_RULES = (
    (_code_mask(NEEDS_ROW_TYPES), ("rows",), "requires a row"),
    (_code_mask({ct for ct in CommandType if ct.is_column}), ("cols",),
     "requires a column"),
    (_code_mask(NEEDS_BUF_TYPES), ("bufs",), "requires a buffer index"),
    (_code_mask({CommandType.C2}), ("bufs", "buf2s"),
     "requires two buffer indices"),
    (_code_mask(SCALAR_TYPES), ("bufs", "lanes"),
     "requires a buffer and a lane"),
)
_CODE_C1N = CTYPE_CODES[CommandType.C1N]


class StreamIR:
    """SoA columns + side tables for one command program."""

    __slots__ = (
        "n", "codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
        "gs", "payloads", "dep_start", "dep_end", "dep_flat", "omega0s",
        "r_omegas", "zetas", "has_omega0", "has_r_omega", "zeta_lens",
        "meta", "_deps", "_commands", "_merge_sources", "_merge_prog",
        "_merge_pos",
    )

    def __init__(self, *, n, codes, banks, rows, cols, bufs, buf2s, lanes,
                 gs, payloads, dep_start, dep_end, dep_flat, omega0s,
                 r_omegas, zetas, has_omega0, has_r_omega, zeta_lens,
                 deps: Optional[Tuple[Tuple[int, ...], ...]] = None,
                 commands: Optional[Tuple[Command, ...]] = None,
                 merge_sources=None, merge_prog=None, merge_pos=None):
        self.n = n
        self.codes = codes
        self.banks = banks
        self.rows = rows
        self.cols = cols
        self.bufs = bufs
        self.buf2s = buf2s
        self.lanes = lanes
        self.gs = gs
        self.payloads = payloads
        self.dep_start = dep_start
        self.dep_end = dep_end
        self.dep_flat = dep_flat
        self.omega0s = omega0s
        self.r_omegas = r_omegas
        self.zetas = zetas
        self.has_omega0 = has_omega0
        self.has_r_omega = has_r_omega
        self.zeta_lens = zeta_lens
        self.meta: dict = {}
        # Per-command dependency tuples, when the producer had them
        # anyway (builder / command-built IRs); merged IRs rebuild them
        # from the CSR triple on demand.
        self._deps = deps
        self._commands = commands
        # Merge recipe (interleave/concat built IRs): the source IRs
        # plus each merged row's (program, position) provenance.
        self._merge_sources = merge_sources
        self._merge_prog = merge_prog
        self._merge_pos = merge_pos

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_columns(cls, n: int, *, codes, banks, rows, cols, bufs, buf2s,
                     lanes, gs, payloads, omega0s, r_omegas, zetas, deps,
                     commands: Optional[Tuple[Command, ...]] = None
                     ) -> "StreamIR":
        """Array-ify per-command column iterables of length ``n``.

        Integer columns use ``-1`` for unused fields; ``omega0s`` /
        ``r_omegas`` / ``zetas`` / ``deps`` are per-command sequences
        (``None`` / ``()`` when unused) kept as Python tuples.
        """
        def ints(values):
            return np.fromiter(values, dtype=np.int64, count=n)

        omega0s, r_omegas = tuple(omega0s), tuple(r_omegas)
        zetas, deps = tuple(zetas), tuple(deps)
        dep_lens = ints(map(len, deps))
        dep_end = np.cumsum(dep_lens, dtype=np.int64)
        dep_flat = np.fromiter(itertools.chain.from_iterable(deps),
                               dtype=np.int64, count=int(dep_lens.sum()))
        return cls(
            n=n,
            codes=ints(codes),
            banks=ints(banks),
            rows=ints(rows),
            cols=ints(cols),
            bufs=ints(bufs),
            buf2s=ints(buf2s),
            lanes=ints(lanes),
            gs=np.fromiter(gs, dtype=np.bool_, count=n),
            payloads=ints(payloads),
            dep_start=dep_end - dep_lens,
            dep_end=dep_end,
            dep_flat=dep_flat,
            omega0s=omega0s,
            r_omegas=r_omegas,
            zetas=zetas,
            has_omega0=np.fromiter(map(is_not, omega0s, itertools.repeat(None)),
                                   dtype=np.bool_, count=n),
            has_r_omega=np.fromiter(
                map(is_not, r_omegas, itertools.repeat(None)),
                dtype=np.bool_, count=n),
            zeta_lens=ints(map(len, zetas)),
            deps=deps,
            commands=commands,
        )

    @classmethod
    def from_commands(cls, commands: Sequence[Command]) -> "StreamIR":
        """Columnarize a hand-built command program (one attribute pass
        per column, then C-level conversions).  Mapper programs never
        come through here — the builder emits the IR directly."""
        commands = tuple(commands)
        return cls.from_columns(
            len(commands),
            codes=map(CTYPE_CODES.__getitem__, map(_CTYPE, commands)),
            banks=map(_BANK, commands),
            rows=_unset(map(_ROW, commands)),
            cols=_unset(map(_COL, commands)),
            bufs=_unset(map(_BUF, commands)),
            buf2s=_unset(map(_BUF2, commands)),
            lanes=_unset(map(_LANE, commands)),
            gs=map(_GS, commands),
            payloads=map(_PAYLOAD, commands),
            omega0s=map(_OMEGA0, commands),
            r_omegas=map(_R_OMEGA, commands),
            zetas=map(_ZETAS, commands),
            deps=map(_DEPS, commands),
            commands=commands,
        )

    def validate(self) -> None:
        """The per-type field checks of ``Command.__post_init__``, run
        once over the columns; raises :class:`MappingError` naming the
        first malformed command."""
        codes = self.codes
        for mask, fields, message in _FIELD_RULES:
            bad = mask[codes]
            if not bad.any():
                continue
            unset = np.zeros(self.n, dtype=np.bool_)
            for name in fields:
                unset |= getattr(self, name) < 0
            _raise_first(bad & unset, codes, message)
        _raise_first((codes == _CODE_C1N) & (self.zeta_lens == 0), codes,
                     "requires its per-block zetas")

    # -- command materialization ----------------------------------------------
    @property
    def has_commands(self) -> bool:
        return self._commands is not None

    def materialize_commands(self) -> Tuple[Command, ...]:
        """The equivalent :class:`Command` tuple (built once, then kept).

        Free for IRs built from commands; builder IRs construct commands
        from their columns and merged IRs from their recipe.  Only the
        per-command reference paths, traces and ``describe()`` ever
        need this — the fused executor and the timing engine's stream
        loop run on the columns alone."""
        if self._commands is None:
            if self._merge_sources is not None:
                sources = [ir.materialize_commands()
                           for ir in self._merge_sources]
                replace = dataclasses.replace
                self._commands = tuple(
                    replace(sources[p][i], deps=deps)
                    for p, i, deps in zip(self._merge_prog.tolist(),
                                          self._merge_pos.tolist(),
                                          self.deps_list()))
            else:
                self._commands = tuple(map(
                    Command,
                    map(CODE_CTYPES.__getitem__, self.codes.tolist()),
                    self.banks.tolist(),
                    _optional(self.rows),
                    _optional(self.cols),
                    _optional(self.bufs),
                    _optional(self.buf2s),
                    _optional(self.lanes),
                    self.omega0s,
                    self.r_omegas,
                    self.payloads.tolist(),
                    self.gs.tolist(),
                    self.zetas,
                    self.deps_list()))
        return self._commands

    def deps_list(self):
        """Per-command dependency tuples (the timing loop's mirror)."""
        if self._deps is not None:
            return list(self._deps)
        starts = self.dep_start.tolist()
        ends = self.dep_end.tolist()
        flat = self.dep_flat.tolist()
        return [tuple(flat[s:e]) for s, e in zip(starts, ends)]

    # -- introspection --------------------------------------------------------
    def counts_by_type(self) -> dict:
        """``{command-type name: count}`` over the program."""
        counts = np.bincount(self.codes, minlength=len(CODE_CTYPES))
        return {ct.value: int(c)
                for ct, c in zip(CODE_CTYPES, counts) if c}

    def describe(self) -> str:
        """Human-readable IR dump (the ``repro compile --dump-ir`` body)."""
        lines = [f"StreamIR: {self.n} commands, "
                 f"{len(np.unique(self.banks))} bank(s)"]
        for name, count in sorted(self.counts_by_type().items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {name:<12} {count}")
        lines.append(f"  deps (flat)  {len(self.dep_flat)}")
        if self.meta:
            for key, value in sorted(self.meta.items()):
                lines.append(f"  meta {key} = {value}")
        return "\n".join(lines)


def _raise_first(bad: np.ndarray, codes: np.ndarray, message: str) -> None:
    if bad.any():
        index = int(np.argmax(bad))
        name = CODE_CTYPES[int(codes[index])].value
        raise MappingError(f"command {index}: {name} {message}")


class CommandView(SequenceABC):
    """A lazy, read-only ``Sequence[Command]`` over one :class:`StreamIR`.

    ``len()`` is O(1) (``ir.n``); the first indexing or iteration
    materializes the commands (kept on the IR).  Compares equal to the
    materialized tuple.
    """

    __slots__ = ("_ir",)

    def __init__(self, ir: StreamIR):
        self._ir = ir

    def __len__(self) -> int:
        return self._ir.n

    def __getitem__(self, index):
        return self._ir.materialize_commands()[index]

    def __iter__(self):
        return iter(self._ir.materialize_commands())

    def __eq__(self, other) -> bool:
        if isinstance(other, CommandView):
            other = other._ir.materialize_commands()
        return self._ir.materialize_commands() == other

    __hash__ = None

    def __repr__(self) -> str:
        return f"<CommandView of {self._ir.n} commands>"


# Re-exported for passes that need the code constants without reaching
# into repro.dram.stream.
CODE = {ct: CTYPE_CODES[ct] for ct in CommandType}
