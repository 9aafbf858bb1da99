"""The columnar mapper: bit-identity with the Command-based mapper it
replaced, the lazy ``Command`` view, and the builder's validation.

``tests/data/mapping_golden_digests.json`` holds sha256 digests of every
IR column, side table and command of the programs in :data:`CASES`,
recorded from the Command-based mapper (the program as ``Command``
dataclasses, columnarized by ``StreamIR.from_commands``).  Re-record
them — only when a mapping change is intended — with::

    PYTHONPATH=src python tests/test_mapping_columnar.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.arith import NttParams, find_ntt_prime
from repro.compile.ir import StreamIR
from repro.dram import HBM2E_ARCH, CommandType
from repro.errors import MappingError
from repro.mapping import ProgramBuilder
from repro.mapping.mapper import MapperOptions
from repro.mapping.program_cache import (
    clear_program_cache,
    cyclic_program,
    negacyclic_program,
    program_cache_info,
)
from repro.ntt.negacyclic import NegacyclicParams
from repro.pim import PimParams

DIGESTS = Path(__file__).parent / "data" / "mapping_golden_digests.json"

INT_COLUMNS = ("codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
               "gs", "dep_start", "dep_end", "dep_flat", "has_omega0",
               "has_r_omega", "zeta_lens")
SIDE_TABLES = ("omega0s", "r_omegas", "zetas")

CASES = (
    [f"cyclic n={n} nb={nb}" for nb in (1, 2, 4)
     for n in (256, 512, 1024, 2048, 4096)]
    + ["cyclic n=2048 nb=2 in_place_update=False",
       "cyclic n=2048 nb=4 group_same_row=False",
       "cyclic n=1024 nb=2 bank=3 base_row=8",
       "negacyclic n=1024 nb=2 forward",
       "negacyclic n=1024 nb=2 inverse",
       "negacyclic n=4096 nb=4 forward",
       "negacyclic n=4096 nb=4 inverse"])


def _program(case: str):
    """The (freshly mapped) program a :data:`CASES` name describes."""
    kind, *words = case.split()
    fields = dict(w.split("=") for w in words if "=" in w)
    n, nb = int(fields["n"]), int(fields["nb"])
    pim = PimParams(nb_buffers=nb)
    base_row, bank = int(fields.get("base_row", 0)), int(fields.get("bank", 0))
    clear_program_cache()
    if kind == "negacyclic":
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        return negacyclic_program(ring, HBM2E_ARCH, pim, base_row, bank,
                                  inverse="inverse" in words)
    options = MapperOptions(
        in_place_update=fields.get("in_place_update") != "False",
        group_same_row=fields.get("group_same_row") != "False")
    return cyclic_program(NttParams(n, find_ntt_prime(n, 32)), HBM2E_ARCH,
                          pim, base_row, bank, options)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(ir, commands) -> dict:
    """Digests of ``ir``'s columns and side tables, the payload column
    (``payload_words`` per command) and the command objects."""
    out = {name: _sha(np.ascontiguousarray(getattr(ir, name),
                                           dtype=np.int64).tobytes())
           for name in INT_COLUMNS}
    out["payloads"] = _sha(np.array([c.payload_words for c in commands],
                                    dtype=np.int64).tobytes())
    for name in SIDE_TABLES:
        out[name] = _sha(repr(tuple(getattr(ir, name))).encode())
    out["commands"] = _sha("\n".join(map(repr, commands)).encode())
    out["n"] = len(commands)
    return out


def record() -> None:
    """Write the digests of the Command path (``program.commands`` ->
    ``StreamIR.from_commands``) for every case."""
    golden = {}
    for case in CASES:
        commands = tuple(_program(case).commands)
        golden[case] = _digests(StreamIR.from_commands(commands), commands)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


class TestBitIdentity:
    def test_every_case_recorded(self, golden):
        assert sorted(golden) == sorted(CASES)

    @pytest.mark.parametrize("case", CASES)
    def test_matches_command_based_mapper(self, golden, case):
        program = _program(case)
        ir = program.ir
        # Columns first, before anything materializes a Command.
        assert not ir.has_commands
        expected = golden[case]
        assert ir.n == expected["n"]
        got = _digests(ir, program.commands)
        payloads = _sha(np.ascontiguousarray(ir.payloads).tobytes())
        assert payloads == expected["payloads"]
        assert got == expected

    @pytest.mark.parametrize("case", ["cyclic n=1024 nb=1",
                                      "cyclic n=1024 nb=2",
                                      "negacyclic n=1024 nb=2 inverse"])
    def test_from_commands_round_trips(self, case):
        ir = _program(case).ir
        again = StreamIR.from_commands(ir.materialize_commands())
        for name in INT_COLUMNS + ("payloads",):
            assert np.array_equal(getattr(again, name), getattr(ir, name)), name
        for name in SIDE_TABLES:
            assert getattr(again, name) == getattr(ir, name), name
        assert again.deps_list() == ir.deps_list()


class TestLazyCommandView:
    def test_len_does_not_materialize(self):
        program = _program("cyclic n=4096 nb=1")
        assert len(program.commands) == program.ir.n == 165889
        assert not program.ir.has_commands

    def test_view_equals_materialized_tuple(self):
        program = _program("cyclic n=256 nb=2")
        view = program.commands
        materialized = program.ir.materialize_commands()
        assert view == materialized
        assert view[0].ctype is CommandType.PARAM_WRITE
        assert view[-1] == materialized[-1]
        assert tuple(view) == materialized
        assert list(view[2:5]) == list(materialized[2:5])
        # Materialized once, then shared.
        assert program.ir.materialize_commands() is materialized

    def test_merged_ir_materializes_from_source_irs(self):
        from repro.compile.lower import interleave_irs
        from repro.sim.multibank import interleave_programs

        clear_program_cache()
        pim = PimParams(nb_buffers=2)
        params = NttParams(256, find_ntt_prime(256, 32))
        programs = [cyclic_program(params, HBM2E_ARCH, pim, bank=k)
                    for k in range(3)]
        merged = interleave_irs([p.ir for p in programs])
        # The cold merge builds no Command objects.
        assert not any(p.ir.has_commands for p in programs)
        assert not merged.has_commands
        legacy = interleave_programs([p.commands for p in programs])
        assert merged.materialize_commands() == tuple(legacy)


class TestNb1CacheKey:
    def test_option_sets_share_one_entry_at_nb1(self):
        clear_program_cache()
        params = NttParams(256, find_ntt_prime(256, 32))
        pim = PimParams(nb_buffers=1)
        first = cyclic_program(params, HBM2E_ARCH, pim)
        second = cyclic_program(
            params, HBM2E_ARCH, pim,
            options=MapperOptions(in_place_update=False,
                                  group_same_row=False))
        assert second is first
        info = program_cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)

    def test_option_sets_still_differ_at_nb2(self):
        clear_program_cache()
        params = NttParams(2048, find_ntt_prime(2048, 32))
        pim = PimParams(nb_buffers=2)
        first = cyclic_program(params, HBM2E_ARCH, pim)
        second = cyclic_program(params, HBM2E_ARCH, pim,
                                options=MapperOptions(in_place_update=False))
        assert second is not first
        assert second.ir.n != first.ir.n


class TestBuilderValidation:
    """Malformed programs fail at emit or build, never deep in a bank."""

    def test_buffer_out_of_range(self):
        b = ProgramBuilder(0, 2)
        b.goto_row(0)
        with pytest.raises(MappingError, match="out of range"):
            b.cu_read(0, 0, 2)
        with pytest.raises(MappingError, match="out of range"):
            b.c2(0, -1, 1, 1)

    def test_column_access_needs_the_open_row(self):
        b = ProgramBuilder(0, 2)
        with pytest.raises(MappingError, match="cu_read of row 0"):
            b.cu_read(0, 0, 0)
        b.goto_row(1)
        with pytest.raises(MappingError, match="cu_write to row 0"):
            b.cu_write(0, 0, 0)

    def test_raw_emit_without_row_fails_at_build(self):
        b = ProgramBuilder(0, 2)
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        b.emit(CommandType.CU_READ, col=0, buf=0)
        with pytest.raises(MappingError, match="command 1: CU_READ requires a row"):
            b.build()

    @pytest.mark.parametrize("kwargs, message", [
        ({"ctype": CommandType.ACT}, "ACT requires a row"),
        ({"ctype": CommandType.CU_WRITE, "row": 0, "buf": 0},
         "CU_WRITE requires a column"),
        ({"ctype": CommandType.C1}, "C1 requires a buffer index"),
        ({"ctype": CommandType.C2, "buf": 0}, "C2 requires two buffer"),
        ({"ctype": CommandType.BU_SCALAR, "buf": 0},
         "BU_SCALAR requires a buffer and a lane"),
    ])
    def test_raw_emit_field_rules(self, kwargs, message):
        b = ProgramBuilder(0, 2)
        b.emit(**kwargs)
        with pytest.raises(MappingError, match=message):
            b.build()

    def test_c1n_without_zetas_fails_at_build(self):
        b = ProgramBuilder(0, 2)
        b.goto_row(0)
        b.cu_read(0, 0, 0)
        b.c1n(0, ())
        with pytest.raises(MappingError, match="C1N requires its per-block zetas"):
            b.build()

    def test_well_formed_program_builds(self):
        b = ProgramBuilder(5, 2)
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        b.goto_row(3)
        b.cu_read(3, 0, 0)
        b.c1(0, 7)
        b.cu_write(3, 0, 0)
        b.close_row()
        ir = b.build()
        assert ir.n == len(ir.materialize_commands()) == 6
        assert set(ir.banks.tolist()) == {5}
        assert [c.deps for c in ir.materialize_commands()] == [
            (), (), (), (2,), (3,), ()]
        # The builder hands its rows off at build.
        assert b._rows == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    record()
    print(f"wrote {DIGESTS}")
