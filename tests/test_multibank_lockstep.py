"""Lockstep multi-bank execution: each same-spec group of a dispatch runs
as one stacked bank, bit-identical to per-bank per-command execution.

The reference is the per-command interpreter (``PimBank.run``) on one
ordinary bank per request, fed the bank's own program; cycles come from
the per-command timing interpreter over the round-robin merge.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.arith import NttParams, find_ntt_prime, use_backend
from repro.arith.bitrev import bit_reverse_permute
from repro.dram.engine import TimingEngine
from repro.dram.stream import cached_stream
from repro.errors import FunctionalMismatch, MappingError
from repro.ntt import NegacyclicParams
from repro.ntt.merged import merged_negacyclic_intt, merged_negacyclic_ntt
from repro.ntt.reference import intt, ntt
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import SimConfig
from repro.sim.multibank import (
    TransformSpec,
    _row_window,
    _run_multibank,
    interleave_programs,
)

N = 64
Q_DIRECT = find_ntt_prime(2 * N, 32)                    # q < 2**32
Q_MONT = find_ntt_prime(2 * N, 61)                      # odd, >= 2**32
Q_WIDE = find_ntt_prime(N, 64)                          # no lane support
assert Q_MONT >= 1 << 32 and Q_WIDE >= 1 << 63


def _specs(kind, q, banks):
    ring = NegacyclicParams(N, q)
    params = NttParams(N, q)
    table = {
        "ntt": TransformSpec(params=params),
        "intt": TransformSpec(params=params, inverse=True),
        "nega": TransformSpec(kind="negacyclic", ring=ring),
        "inega": TransformSpec(kind="negacyclic", ring=ring, inverse=True),
    }
    if kind == "mixed":
        order = ["ntt", "inega", "intt", "nega"]
        return [table[order[k % 4]] for k in range(banks)]
    return [table[kind]] * banks


def _counters(bank):
    cu = bank.cu
    return (cu.bu_ops, cu.load_uops, cu.store_uops, cu.twiddles_generated)


def _reference(spec, config, k, values):
    """One bank through the per-command interpreter: (finalized output,
    CU counters)."""
    program = spec.program(config, k)
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(spec.q)
    layout = ([v % spec.q for v in values] if spec.kind == "negacyclic"
              else bit_reverse_permute(list(values)))
    bank.load_polynomial(config.base_row, layout)
    bank.run(program.commands)
    out = bank.read_polynomial(program.result_base_row, spec.n)
    if spec.inverse:
        n_inv = spec.cyclic_params.n_inv
        out = [(v * n_inv) % spec.q for v in out]
    return out, _counters(bank)


def _reference_cycles(specs, config):
    programs = [s.program(config, k) for k, s in enumerate(specs)]
    commands = (programs[0].commands if len(programs) == 1 else
                interleave_programs([p.commands for p in programs]))
    engine = TimingEngine(config.timing, config.arch,
                          compute=config.pim.compute_timing(),
                          energy=config.energy)
    return engine.simulate(commands).total_cycles


def _inputs(banks, q, seed):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(N)] for _ in range(banks)]


#: (kind, Nb) pairs: the merged negacyclic mapping needs Nb >= 2, and
#: Nb=1 (lane-mode plans, which run bank by bank) maps cyclic NTTs only.
KIND_NB = ([(kind, nb) for kind in ("ntt", "intt", "nega", "inega", "mixed")
            for nb in (2, 4)] + [("ntt", 1), ("intt", 1)])


class TestDifferential:
    @pytest.mark.parametrize("kind,nb", KIND_NB)
    @pytest.mark.parametrize("banks", [1, 2, 8])
    def test_matches_per_bank_interpreter(self, kind, nb, banks):
        config = SimConfig(pim=PimParams(nb_buffers=nb))
        specs = _specs(kind, Q_DIRECT, banks)
        inputs = _inputs(banks, Q_DIRECT, seed=banks * 10 + nb)
        result = _run_multibank(inputs, specs, config)
        reference = [_reference(s, config, k, values)
                     for k, (s, values) in enumerate(zip(specs, inputs))]
        assert result.outputs == [out for out, _ in reference]
        assert result.bu_ops == sum(c[0] for _, c in reference)
        assert result.verified
        assert result.cycles == _reference_cycles(specs, config)

    @pytest.mark.parametrize("kind,nb", [("mixed", 2), ("intt", 1)])
    def test_row_window_off_row_zero(self, kind, nb):
        # base_row > 0: the window starts past row 0, so every executor
        # (pooled, lane, per-command) rebases the plan's absolute rows.
        config = SimConfig(pim=PimParams(nb_buffers=nb), base_row=5)
        specs = _specs(kind, Q_DIRECT, 4)
        inputs = _inputs(4, Q_DIRECT, seed=5)
        result = _run_multibank(inputs, specs, config)
        assert result.verified
        assert result.outputs == [_reference(s, config, k, values)[0]
                                  for k, (s, values)
                                  in enumerate(zip(specs, inputs))]

    @pytest.mark.parametrize("kind", ["ntt", "inega", "mixed"])
    def test_montgomery_modulus(self, kind):
        config = SimConfig(pim=PimParams(nb_buffers=2))
        specs = _specs(kind, Q_MONT, 8)
        inputs = _inputs(8, Q_MONT, seed=7)
        result = _run_multibank(inputs, specs, config)
        assert result.verified
        assert result.outputs == [_reference(s, config, k, values)[0]
                                  for k, (s, values)
                                  in enumerate(zip(specs, inputs))]

    @pytest.mark.parametrize("base_row", [0, 5])
    def test_lane_unsupported_modulus_falls_back(self, base_row):
        n = 16
        config = SimConfig(pim=PimParams(nb_buffers=2), base_row=base_row)
        spec = TransformSpec(params=NttParams(n, Q_WIDE))
        program = spec.program(config, 0)
        stream = cached_stream(program.ir, config.arch, key=program.key)
        stacked = PimBank(config.arch, config.pim, banks=2)
        stacked.set_parameters(Q_WIDE)
        assert not stacked.lockstep_ok(stream)
        with pytest.raises(MappingError):
            stacked.run_stream(stream)
        rng = random.Random(3)
        inputs = [[rng.randrange(Q_WIDE) for _ in range(n)]
                  for _ in range(2)]
        result = _run_multibank(inputs, spec, config)
        assert result.verified
        for k, values in enumerate(inputs):
            bank = PimBank(config.arch, config.pim)
            bank.set_parameters(Q_WIDE)
            bank.load_polynomial(base_row, bit_reverse_permute(list(values)))
            bank.run(spec.program(config, k).commands)
            assert result.outputs[k] == bank.read_polynomial(
                program.result_base_row, n)


class TestStackedBank:
    """PimBank-level: one stacked run equals B per-command runs, every
    CU counter included (the Barrett regime is only reachable with an
    even modulus, which no NTT admits, so it is driven directly).  The
    stacked kernels are the numpy backend's, whatever the default."""

    @pytest.fixture(autouse=True)
    def _numpy_backend(self):
        with use_backend("numpy"):
            yield

    @pytest.mark.parametrize("q,montgomery", [
        (Q_DIRECT, True), (Q_MONT, True), ((1 << 60) + 2, False)])
    @pytest.mark.parametrize("nb", [2, 4])
    def test_counters_and_cells(self, q, montgomery, nb):
        config = SimConfig(pim=PimParams(nb_buffers=nb,
                                         use_montgomery=montgomery))
        spec = TransformSpec(params=NttParams(N, Q_DIRECT))
        program = spec.program(config, 0)
        stream = cached_stream(program.ir, config.arch, key=program.key)
        rng = np.random.default_rng(nb)
        data = rng.integers(0, q, size=(5, N), dtype=np.uint64)
        stacked = PimBank(config.arch, config.pim, banks=5,
                          rows=_row_window(stream, program, config, N))
        stacked.set_parameters(q)
        stacked.load_polynomial(0, data)
        assert stacked.lockstep_ok(stream)
        stacked.run_stream(stream)
        got = stacked.read_polynomial(program.result_base_row, N)
        totals = np.zeros(4, dtype=np.int64)
        for k in range(5):
            bank = PimBank(config.arch, config.pim)
            bank.set_parameters(q)
            bank.load_polynomial(0, data[k].tolist())
            bank.run(program.commands)
            assert got[k].tolist() == bank.read_polynomial(
                program.result_base_row, N)
            totals += _counters(bank)
            for b in range(nb):  # each bank's buffer file is restored
                assert (stacked.buffers.peek_array(b)[k].tolist()
                        == bank.buffers.read(b))
        assert _counters(stacked) == tuple(totals)

    def test_stacked_bank_refuses_per_command_run(self):
        config = SimConfig()
        program = TransformSpec(params=NttParams(N, Q_DIRECT)).program(
            config, 0)
        with pytest.raises(MappingError):
            PimBank(config.arch, config.pim, banks=2).run(program.commands)


class TestLockstepInvariants:
    @pytest.mark.parametrize("kind,nb", [kn for kn in KIND_NB
                                         if kn[0] != "mixed"])
    def test_bank_programs_differ_only_in_bank_field(self, kind, nb):
        config = SimConfig(pim=PimParams(nb_buffers=nb))
        spec = _specs(kind, Q_DIRECT, 1)[0]
        base = spec.program(config, 0)
        base_stream = cached_stream(base.ir, config.arch, key=base.key)
        for k in (1, 5):
            other = spec.program(config, k)
            assert [c.bank for c in other.commands] == [k] * len(
                other.commands)
            assert [dataclasses.replace(c, bank=0)
                    for c in other.commands] == list(base.commands)
            stream = cached_stream(other.ir, config.arch, key=other.key)
            assert _plan_signature(stream.plan) == _plan_signature(
                base_stream.plan)
            assert other.result_base_row == base.result_base_row

    @pytest.mark.parametrize("n,nb", [(64, 2), (512, 1), (512, 4),
                                      (1024, 2)])
    def test_row_window_covers_plan_and_host_io(self, n, nb):
        q = find_ntt_prime(2 * n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=nb), base_row=3)
        for spec in (TransformSpec(params=NttParams(n, q)),
                     TransformSpec(params=NttParams(n, q), inverse=True)):
            program = spec.program(config, 0)
            stream = cached_stream(program.ir, config.arch, key=program.key)
            lo, hi = _row_window(stream, program, config, n)
            touched = set()
            for op in stream.plan.ops:
                if op[0] in ("read", "write", "lread", "lwrite"):
                    touched.update(int(r) for r in op[1])
            span = -(-n // config.arch.words_per_row)
            touched.update(range(config.base_row, config.base_row + span))
            touched.update(range(program.result_base_row,
                                 program.result_base_row + span))
            assert lo <= min(touched) and max(touched) < hi
            assert hi - lo == max(touched) - min(touched) + 1


def _plan_signature(plan):
    def norm(value):
        if isinstance(value, np.ndarray):
            return ("array", value.shape, tuple(value.ravel().tolist()))
        if isinstance(value, (list, tuple)):
            return tuple(norm(v) for v in value)
        return value
    return (norm(plan.ops), plan.n_virtual, norm(plan.init_versions),
            norm(plan.final_versions), plan.has_param, plan.max_buffer,
            plan.mode, plan.pooled, norm(plan.lane_init),
            norm(plan.lane_final), plan.reg_init, plan.reg_final)


class TestVerifyFailure:
    def test_names_the_failing_bank(self, monkeypatch):
        config = SimConfig(pim=PimParams(nb_buffers=2))
        # Spec groups in first-seen order: ntt [0, 4], inverse
        # negacyclic [1, 5], inverse ntt [2, 6], negacyclic [3, 7]; the
        # banks are read back in that order, stacked or one at a time.
        specs = _specs("mixed", Q_DIRECT, 8)
        inputs = _inputs(8, Q_DIRECT, seed=11)
        original = PimBank.read_polynomial
        rows_read = [0]

        def corrupt_bank6(self, base_row, length):
            out = original(self, base_row, length)
            first = rows_read[0]
            rows_read[0] += len(out)
            if first <= 5 < rows_read[0]:  # read-order row 5 is bank 6
                out[5 - first, 5] ^= 1
            return out

        monkeypatch.setattr(PimBank, "read_polynomial", corrupt_bank6)
        with pytest.raises(FunctionalMismatch) as info:
            _run_multibank(inputs, specs, config)
        assert str(info.value) == (
            "multi-bank result wrong on bank 6 (inverse ntt)")


class TestBatchedGolden:
    """The golden entry points take a leading axis: a ``(B, N)`` array
    gives the rows of ``B`` one-row calls, on either backend."""

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("q", [Q_DIRECT, Q_MONT, Q_WIDE])
    def test_rows_match_single_calls(self, backend, q):
        n = 16
        params = NttParams(n, q)
        rng = random.Random(q % 1000)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
        batch = np.array(rows, dtype=np.uint64)
        golden = [(ntt, params), (intt, params)]
        if (q - 1) % (2 * n) == 0:
            ring = NegacyclicParams(n, q)
            golden += [(merged_negacyclic_ntt, ring),
                       (merged_negacyclic_intt, ring)]
        with use_backend(backend):
            for fn, shape in golden:
                assert fn(batch, shape) == [fn(row, shape) for row in rows]
        assert bit_reverse_permute(batch).tolist() == [
            bit_reverse_permute(row) for row in rows]
