"""The pass-based IR compiler: fuzzed and per-pass bit-identity against
the per-command reference interpreter, the merge passes against the
per-command mergers, Nb=1 lane fusion, and the public ``repro.compile``
API surface."""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    BankSpec,
    BatchRequest,
    CompiledProgram,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    Simulator,
    compile_request,
)
from repro.arith import NttParams, find_ntt_prime
from repro.arith.bitrev import bit_reverse_permute
from repro.compile.ir import StreamIR
from repro.compile.lower import concat_irs, interleave_irs
from repro.dram import HBM2E_ARCH, TimingEngine, compile_stream
from repro.dram.commands import Command, CommandType
from repro.errors import RequestValidationError
from repro.mapping.program_cache import cyclic_program, negacyclic_program
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.batch import concat_programs
from repro.sim.driver import NttPimDriver, SimConfig
from repro.sim.multibank import (
    TransformSpec,
    interleave_programs,
    normalize_specs,
)


def _bank_state(bank, base_row, n):
    cu = bank.cu
    return {
        "result": bank.read_polynomial(base_row, n),
        "buffers": [bank.buffers.read(b)
                    for b in range(bank.buffers.count)],
        "counters": (cu.bu_ops, cu.load_uops, cu.store_uops,
                     cu.twiddles_generated),
        "reg_a": cu.reg_a,
    }


def _run_legacy(config, q, commands, data, base_row, n):
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(config.base_row, list(data))
    bank.run(commands)
    return _bank_state(bank, base_row, n)


def _run_stream(config, q, stream, data, base_row, n):
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(config.base_row, list(data))
    bank.run_stream(stream)
    return _bank_state(bank, base_row, n)


def _transform_program(kind, n, nb):
    """``(config, q, program)`` of one ntt / intt / negacyclic transform."""
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    if kind == "negacyclic":
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        return config, ring.q, negacyclic_program(ring, config.arch,
                                                  config.pim, config.base_row)
    params = NttParams(n, find_ntt_prime(n, 32))
    if kind == "intt":
        params = params.inverse()
    return config, params.q, cyclic_program(params, config.arch, config.pim,
                                            config.base_row)


def _assert_matches_reference(config, q, commands, stream, data, base_row,
                              n):
    """``stream`` executes and times exactly like ``commands`` on the
    per-command reference (``PimBank.run`` / ``TimingEngine.simulate``)."""
    reference = _run_legacy(config, q, commands, data, base_row, n)
    fused = _run_stream(config, q, stream, data, base_row, n)
    assert fused == reference
    engine = TimingEngine(config.timing, config.arch,
                          compute=config.pim.compute_timing())
    by_cmd = engine.simulate(commands)
    by_stream = engine.simulate_stream(stream)
    assert by_stream.total_cycles == by_cmd.total_cycles
    assert by_stream.energy_nj == by_cmd.energy_nj
    assert by_stream.stats == by_cmd.stats


class TestReferenceBitIdentity:
    """The compile pipeline's fused stream must execute and time
    bit-identically to the per-command reference interpreter
    (``PimBank.run`` / ``TimingEngine.simulate``) on fuzzed shapes."""

    @given(log_n=st.integers(min_value=4, max_value=10),
           nb=st.sampled_from((1, 2, 4)),
           kind=st.sampled_from(("ntt", "intt", "negacyclic")),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_fused_stream_matches_reference(self, log_n, nb, kind, seed):
        # The merged negacyclic mapping needs an auxiliary buffer.
        assume(not (kind == "negacyclic" and nb == 1))
        n = 1 << log_n
        config, q, program = _transform_program(kind, n, nb)
        rng = random.Random(seed)
        data = [rng.randrange(q) for _ in range(n)]
        stream = compile_stream(program.ir, config.arch)
        _assert_matches_reference(config, q, program.commands, stream, data,
                                  program.result_base_row, n)


#: The pipeline's passes, in order.  They always run; the per-pass sweep
#: below names, for each, the program shape on which it has no work.
_PASSES = ("rename", "group", "lane_fuse", "pool", "interleave")


def _row_program(*body):
    """A one-row program: latch the modulus, open row 0, ``body``, close."""
    return [Command(CommandType.PARAM_WRITE), Command(CommandType.ACT, row=0),
            *body, Command(CommandType.PRE)]


def _cu_read(col, buf):
    return Command(CommandType.CU_READ, row=0, col=col, buf=buf)


def _cu_write(col, buf):
    return Command(CommandType.CU_WRITE, row=0, col=col, buf=buf)


def _sub_program(commands, keep):
    """``commands`` restricted to the indices ``keep``, dependencies
    remapped (those on dropped commands cut)."""
    new_index = {old: new for new, old in enumerate(keep)}
    return [dataclasses.replace(
                commands[i],
                deps=tuple(new_index[d] for d in commands[i].deps
                           if d in new_index))
            for i in keep]


def _pass_case(off):
    """``(config, q, commands, data, base_row, n, check)`` for one case
    of the per-pass sweep; ``check(stream, commands)`` asserts the shape
    really leaves the named pass without work."""
    rng = random.Random(str(off))
    if off in ((), ("lane_fuse",), ("interleave",)):
        n = 256
        kind, nb = {(): ("ntt", 2), ("lane_fuse",): ("intt", 4),
                    ("interleave",): ("negacyclic", 2)}[off]
        config, q, program = _transform_program(kind, n, nb)
        commands = program.commands
        data = [rng.randrange(q) for _ in range(n)]
        base_row = program.result_base_row
    else:
        n = 64
        config = SimConfig()
        q = find_ntt_prime(n, 32)
        data = [rng.randrange(q) for _ in range(n)]
        base_row = config.base_row
        commands = {
            # A row copy: no buffer is written twice, so there is no
            # WAR/WAW hazard to rename away.
            ("rename",): _row_program(_cu_read(0, 0), _cu_read(1, 1),
                                      _cu_write(2, 0), _cu_write(3, 1)),
            # A serial chain: every command depends on the one before.
            ("group",): _row_program(
                _cu_read(0, 0),
                Command(CommandType.C1, buf=0, omega0=3),
                Command(CommandType.C1, buf=0, omega0=5),
                _cu_write(0, 0), _cu_read(0, 0), _cu_write(1, 0)),
            # Host column reads only: nothing enters the buffer pool.
            ("pool",): _row_program(Command(CommandType.RD, row=0, col=0),
                                    Command(CommandType.RD, row=0, col=1)),
        }[off]

    def check(stream, commands):
        plan, stats = stream.plan, stream.pass_stats
        assert plan is not None, stream.fallback_reason
        if off == ():
            assert stats["groups"] < len(commands) // 4
        elif off == ("rename",):
            final = {vid for _, vid in plan.final_versions}
            assert final == set(range(plan.n_virtual))
        elif off == ("group",):
            assert stats["groups"] == len(plan.ops) == len(commands) - 2
        elif off == ("lane_fuse",):
            assert stats["mode"] == "atom"
        elif off == ("pool",):
            assert plan.n_virtual == 0
            assert [op[0] for op in plan.ops] == ["param"]
        else:
            assert stream.nbanks == 1
            alone = interleave_irs([StreamIR.from_commands(commands)])
            assert alone.materialize_commands() == tuple(commands)

    return config, q, commands, data, base_row, n, check


class TestPerPassBitIdentity:
    """Per-pass bit-identity against the per-command reference.

    The passes no longer toggle, so a pass is "off" only on a program
    that gives it no work: ``off0`` is the n=256 NTT the sweep has
    always started from, and each following case is a program that
    leaves one pass idle (checked against the plan) while the others
    still run."""

    @pytest.mark.parametrize("off", [()] + [(p,) for p in _PASSES])
    def test_each_pass_toggled_off(self, off):
        config, q, commands, data, base_row, n, check = _pass_case(off)
        stream = compile_stream(commands, config.arch)
        check(stream, commands)
        _assert_matches_reference(config, q, commands, stream, data,
                                   base_row, n)

    def test_all_subsets_on_a_small_program(self):
        # Every subset of five of the small program's read-compute-write
        # blocks (32 programs) is itself a valid program, each with its
        # own hazard pattern for the renaming and grouping passes.
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        commands = program.commands
        starts = [i for i, cmd in enumerate(commands)
                  if cmd.ctype is CommandType.CU_READ
                  and commands[i - 1].ctype is not CommandType.CU_READ]
        ends = starts[1:] + [len(commands) - 1]
        blocks = [range(lo, hi) for lo, hi in zip(starts, ends)]
        picked = [blocks[round(k * (len(blocks) - 1) / 4)]
                  for k in range(5)]
        assert len(set(picked)) == 5
        head = range(starts[0])
        tail = range(ends[-1], len(commands))
        data = bit_reverse_permute([(5 * i + 1) % q for i in range(n)])
        for r in range(len(picked) + 1):
            for subset in itertools.combinations(picked, r):
                keep = [i for part in (head, *subset, tail) for i in part]
                sub = _sub_program(commands, keep)
                stream = compile_stream(sub, config.arch)
                assert stream.plan is not None, stream.fallback_reason
                _assert_matches_reference(config, q, sub, stream, data,
                                          program.result_base_row, n)


class TestLaneFusion:
    """Nb=1 µ-op programs fuse through the lane-granular renaming pass."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_fuzzed_nb1_equivalence(self, n):
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        assert stream.plan is not None, stream.fallback_reason
        assert stream.plan.mode == "lane"
        rng = random.Random(n)
        for _ in range(3):
            data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])
            legacy = _run_legacy(config, q, program.commands, data,
                                 program.result_base_row, n)
            fused = _run_stream(config, q, stream, data,
                                program.result_base_row, n)
            assert fused == legacy

    def test_lane_pass_off_falls_back(self):
        # Lane fusion does not cover C2: the Nb=1 NTT carrying one extra
        # C2 runs per-command, identically to the reference.
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        cmds = list(NttPimDriver(config).map_commands(NttParams(n, q)))
        c2 = Command(CommandType.C2, buf=0, buf2=0, omega0=3, r_omega=3)
        mixed = cmds[:-1] + [c2, cmds[-1]]
        off = compile_stream(mixed, HBM2E_ARCH)
        assert off.plan is None
        assert "per-command" in off.fallback_reason
        data = bit_reverse_permute([(3 * i + 2) % q for i in range(n)])
        _assert_matches_reference(config, q, mixed, off, data,
                                  config.base_row, n)


class TestMergePasses:
    """interleave/concat on the SoA IR reproduce the legacy command-level
    mergers command for command."""

    def test_interleave_matches_legacy(self):
        n = 256
        config = SimConfig()
        specs = normalize_specs(
            [TransformSpec(kind="ntt",
                           params=NttParams(n, find_ntt_prime(n, 32))),
             TransformSpec(kind="negacyclic",
                           ring=NegacyclicParams(
                               n, find_ntt_prime(n, 32, negacyclic=True)))],
            banks=2)
        programs = [s.program(config, k) for k, s in enumerate(specs)]
        merged_legacy = interleave_programs([p.commands for p in programs])
        ir = interleave_irs([StreamIR.from_commands(p.commands)
                             for p in programs])
        assert ir.materialize_commands() == tuple(merged_legacy)

    def test_concat_matches_legacy(self):
        n = 128
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        merged_legacy = concat_programs([program.commands] * 3)
        ir = concat_irs([StreamIR.from_commands(program.commands)] * 3)
        assert ir.materialize_commands() == tuple(merged_legacy)

    def test_mixed_kind_interleave_matches_two_separate_runs(self):
        n = 256
        q_c = find_ntt_prime(n, 32)
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        rng = random.Random(42)
        rows = [[rng.randrange(q_c) for _ in range(n)],
                [rng.randrange(ring.q) for _ in range(n)]]
        mixed = MultiBankRequest(
            specs=(BankSpec(params=NttParams(n, q_c)),
                   BankSpec(ring=ring)),
            inputs=tuple(tuple(r) for r in rows))
        merged = Simulator().run(mixed)
        assert merged.verified
        cyc = Simulator().run(NttRequest(params=NttParams(n, q_c),
                                         values=tuple(rows[0])))
        neg = Simulator().run(NegacyclicRequest(ring=ring,
                                                values=tuple(rows[1])))
        assert list(merged.outputs[0]) == list(cyc.values)
        assert list(merged.outputs[1]) == list(neg.values)


class TestCompileRequestApi:
    def test_ntt_request_compiles_fused(self):
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)))
        cp = compile_request(req)
        assert isinstance(cp, CompiledProgram)
        assert cp.fused
        assert cp.ir.n == len(cp.stream.commands)
        assert cp.key is not None
        assert "StreamIR" in cp.describe()

    def test_compiled_stream_is_the_one_the_simulator_runs(self):
        Simulator.clear_caches()
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)),
                         values=tuple(range(1, n + 1)))
        compile_request(req)
        response = Simulator().run(req)
        assert response.verified
        assert response.cache["stream"]["misses"] == 0  # compile warmed it

    def test_multibank_request_carries_parts(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               inputs=((1,) * n, (2,) * n))
        cp = compile_request(req)
        assert len(cp.parts) == 2
        assert cp.ir.meta.get("merge") == "interleave"
        assert cp.ir.n == sum(len(part.commands) for part in cp.parts)

    def test_batch_request_concatenates(self):
        n = 128
        q = find_ntt_prime(n, 32)
        req = BatchRequest(params=NttParams(n, q),
                           inputs=((1,) * n, (2,) * n, (3,) * n))
        cp = compile_request(req)
        assert len(cp.parts) == 3
        assert cp.ir.meta.get("merge") == "concat"

    def test_non_stream_request_rejected(self):
        n = 256
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        req = FheOpRequest(ring=ring, op="forward", a=(1,) * n)
        with pytest.raises(RequestValidationError, match="no stream"):
            compile_request(req)


class TestBankSpec:
    def test_homogeneous_requests_still_work(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               inputs=((1,) * n, (2,) * n))
        req.validate()
        specs = req.bank_specs()
        assert len(specs) == 2
        assert all(s.params.n == n and s.params.q == q for s in specs)

    def test_specs_and_params_are_exclusive(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               specs=(BankSpec(params=NttParams(n, q)),),
                               inputs=((1,) * n,))
        with pytest.raises(RequestValidationError, match="specs"):
            req.validate()

    def test_spec_count_must_match_inputs(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(specs=(BankSpec(params=NttParams(n, q)),),
                               inputs=((1,) * n, (2,) * n))
        with pytest.raises(RequestValidationError, match="specs"):
            req.validate()

    def test_per_bank_length_checked_against_its_spec(self):
        n = 256
        q = find_ntt_prime(n, 32)
        ring = NegacyclicParams(128, find_ntt_prime(128, 32, negacyclic=True))
        req = MultiBankRequest(specs=(BankSpec(params=NttParams(n, q)),
                                      BankSpec(ring=ring)),
                               inputs=((1,) * n, (2,) * n))  # bank 1 != 128
        with pytest.raises(RequestValidationError, match="bank 1"):
            req.validate()

    def test_bank_spec_needs_exactly_one_kind(self):
        with pytest.raises(RequestValidationError, match="exactly one"):
            BankSpec().validate()

    def test_per_bank_inverse_round_trips(self):
        n = 256
        q = find_ntt_prime(n, 32)
        rng = random.Random(9)
        data = [rng.randrange(q) for _ in range(n)]
        fwd = Simulator().run(NttRequest(params=NttParams(n, q),
                                         values=tuple(data)))
        req = MultiBankRequest(
            specs=(BankSpec(params=NttParams(n, q)),
                   BankSpec(params=NttParams(n, q), inverse=True)),
            inputs=(tuple(data), tuple(fwd.values)))
        response = Simulator().run(req)
        assert response.verified
        assert list(response.outputs[1]) == list(data)


class TestIrConstruction:
    def test_ir_row_matches_columns(self):
        n = 128
        q = find_ntt_prime(n, 32)
        cmds = NttPimDriver().map_commands(NttParams(n, q))
        ir = StreamIR.from_commands(cmds)
        assert ir.n == len(cmds)
        for i in (0, 1, len(cmds) // 2, len(cmds) - 1):
            cmd = cmds[i]
            assert ir.rows[i] == (-1 if cmd.row is None else cmd.row)
            assert ir.bufs[i] == (-1 if cmd.buf is None else cmd.buf)
            assert bool(ir.gs[i]) == cmd.gs
            assert bool(ir.has_omega0[i]) == (cmd.omega0 is not None)
        assert int(ir.zeta_lens.sum()) == sum(len(c.zetas) for c in cmds)
        assert np.array_equal(ir.dep_end - ir.dep_start,
                              np.array([len(c.deps) for c in cmds]))
