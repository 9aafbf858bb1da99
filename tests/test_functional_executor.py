"""Every transform runs on the one lockstep executor
(``repro.sim.multibank.run_lockstep``): single cyclic and negacyclic
transforms, inverse transforms, batches and FHE ring ops.  Each stays
bit-identical to the per-command reference — ``PimBank.run`` on one
ordinary bank per transform for values and butterfly counts,
``TimingEngine.simulate`` for cycles and energy.
"""

import importlib
import random

import numpy as np
import pytest

from repro.api import FheOpRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.arith.bitrev import bit_reverse_permute
from repro.dram.engine import TimingEngine
from repro.errors import FunctionalMismatch
from repro.fhe import PimFheAccelerator
from repro.mapping.program_cache import cyclic_program, negacyclic_program
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim import NttPimDriver, SimConfig, concat_programs
from repro.sim.batch import _run_batch, compile_batch

#: (N, Nb) shapes: Nb=1 (lane plans) and Nb=2/4 (pooled atom plans).
CYCLIC_SHAPES = [(64, 1), (64, 2), (256, 4), (1024, 1), (1024, 2),
                 (1024, 4)]
#: The merged negacyclic mapping needs Nb >= 2.
NEGACYCLIC_SHAPES = [(64, 2), (64, 4), (256, 2), (1024, 2), (1024, 4)]


def _config(nb):
    return SimConfig(pim=PimParams(nb_buffers=nb))


def _ring(n):
    return NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))


def _vector(n, q, seed):
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(n)]


def _interpret(config, program, q, layout):
    """One ordinary bank through the per-command interpreter: the raw
    read-back and the butterfly µ-ops."""
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(config.base_row, list(layout))
    bank.run(program.commands)
    return (bank.read_polynomial(program.result_base_row, len(layout)),
            bank.cu.bu_ops)


def _simulate(config, commands):
    engine = TimingEngine(config.timing, config.arch,
                          compute=config.pim.compute_timing(),
                          energy=config.energy)
    return engine.simulate(commands)


def _scale(values, table, q):
    return [(v * s) % q for v, s in zip(values, table)]


def _powers(base, n, q):
    return [pow(base, i, q) for i in range(n)]


def _cyclic(config, params, values, inverse=False):
    """Reference (output, bu_ops, schedule) of one cyclic transform."""
    ntt = params.inverse() if inverse else params
    program = cyclic_program(ntt, config.arch, config.pim, config.base_row,
                             0, config.mapper_options)
    out, bu_ops = _interpret(config, program, params.q,
                             bit_reverse_permute(list(values)))
    if inverse:
        out = [(v * params.n_inv) % params.q for v in out]
    return out, bu_ops, _simulate(config, program.commands)


def _negacyclic(config, ring, values, inverse=False):
    program = negacyclic_program(ring, config.arch, config.pim,
                                 config.base_row, inverse=inverse)
    out, bu_ops = _interpret(config, program, ring.q,
                             [v % ring.q for v in values])
    if inverse:
        out = [(v * ring.cyclic.n_inv) % ring.q for v in out]
    return out, bu_ops, _simulate(config, program.commands)


def _hosted(config, ring, values, inverse=False):
    """The paper-faithful negacyclic transform: host psi scaling around
    a cyclic transform (psi^-i and 1/N after the inverse)."""
    n, q = ring.n, ring.q
    if not inverse:
        return _cyclic(config, ring.cyclic,
                       _scale(values, _powers(ring.psi, n, q), q))
    out, bu_ops, schedule = _cyclic(config, ring.cyclic, values,
                                    inverse=True)
    return (_scale(out, _powers(ring.psi_inv, n, q), q), bu_ops, schedule)


def _assert_run(result, out, bu_ops, schedule):
    assert result.output == out
    assert result.bu_ops == bu_ops
    assert result.cycles == schedule.total_cycles
    assert result.energy_nj == schedule.energy_nj
    assert result.verified


class TestDriverPaths:
    @pytest.mark.parametrize("n,nb", CYCLIC_SHAPES)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_cyclic(self, n, nb, inverse):
        config = _config(nb)
        params = NttParams(n, find_ntt_prime(n, 32))
        values = _vector(n, params.q, seed=n + nb)
        driver = NttPimDriver(config)
        run = (driver._run_intt if inverse else driver._run_ntt)(values,
                                                                 params)
        _assert_run(run, *_cyclic(config, params, values, inverse))

    @pytest.mark.parametrize("n,nb", NEGACYCLIC_SHAPES)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_negacyclic(self, n, nb, inverse):
        config = _config(nb)
        ring = _ring(n)
        values = _vector(n, ring.q, seed=2 * n + nb)
        driver = NttPimDriver(config)
        run = (driver._run_negacyclic_intt(values, ring) if inverse
               else driver._run_negacyclic_ntt(values, ring))
        _assert_run(run, *_negacyclic(config, ring, values, inverse))

    @pytest.mark.parametrize("n,nb", [(64, 1), (256, 2), (1024, 4)])
    def test_batch(self, n, nb):
        config = _config(nb)
        params = NttParams(n, find_ntt_prime(n, 32))
        inputs = [_vector(n, params.q, seed=k) for k in range(3)]
        result = _run_batch(inputs, params, config)
        references = [_cyclic(config, params, values) for values in inputs]
        assert result.outputs == [out for out, _, _ in references]
        assert result.bu_ops == sum(bu for _, bu, _ in references)
        programs, _, _, _ = compile_batch(params, 3, config)
        schedule = _simulate(config, concat_programs(
            [p.commands for p in programs]))
        assert result.cycles == schedule.total_cycles
        assert result.schedule.energy_nj == schedule.energy_nj
        assert result.verified


class TestFheOps:
    @staticmethod
    def _reference(config, ring, native):
        return ((lambda v, inverse=False: _negacyclic(config, ring, v,
                                                      inverse))
                if native else
                (lambda v, inverse=False: _hosted(config, ring, v, inverse)))

    def _check(self, config, request, expected):
        """``expected`` is a list of per-transform reference runs; the
        last one's output is the op's result."""
        acc = PimFheAccelerator(request.ring, config, native=request.native)
        op = getattr(acc, request.op)
        out = (op(request.a, request.b) if request.op == "multiply"
               else op(request.a))
        response = Simulator(config).run(request)
        assert out == response.values == expected[-1][0]
        assert acc.stats.total_bu_ops == sum(bu for _, bu, _ in expected)
        assert response.cycles == sum(s.total_cycles for _, _, s in expected)
        assert response.energy_nj == pytest.approx(
            sum(s.energy_nj for _, _, s in expected), rel=1e-12)
        assert response.metrics["transforms"] == len(expected)
        assert response.verified

    @pytest.mark.parametrize("n,nb", NEGACYCLIC_SHAPES)
    @pytest.mark.parametrize("native", [False, True])
    @pytest.mark.parametrize("op", ["forward", "inverse"])
    def test_single_transform(self, n, nb, native, op):
        config = _config(nb)
        ring = _ring(n)
        a = _vector(n, ring.q, seed=n * nb)
        reference = self._reference(config, ring, native)
        self._check(config, FheOpRequest(ring=ring, op=op, a=a,
                                         native=native),
                    [reference(a, inverse=op == "inverse")])

    @pytest.mark.parametrize("n,nb,native", [
        (64, 1, False), (64, 2, False), (256, 4, False), (1024, 2, False),
        (64, 2, True), (256, 4, True), (1024, 2, True)])
    def test_multiply(self, n, nb, native):
        config = _config(nb)
        ring = _ring(n)
        a, b = _vector(n, ring.q, seed=n), _vector(n, ring.q, seed=n + 1)
        reference = self._reference(config, ring, native)
        fa, fb = reference(a), reference(b)
        product = [(x * y) % ring.q for x, y in zip(fa[0], fb[0])]
        self._check(config, FheOpRequest(ring=ring, op="multiply", a=a, b=b,
                                         native=native),
                    [fa, fb, reference(product, inverse=True)])


class TestGoldenCalls:
    def test_hosted_multiply_checks_each_golden_once(self, monkeypatch):
        """A verified hosted product runs one batched golden forward
        over both operands and one golden inverse of the product — the
        ring-product check reuses the (verified) forwards."""
        merged = importlib.import_module("repro.ntt.merged")
        negacyclic = importlib.import_module("repro.ntt.negacyclic")
        multibank = importlib.import_module("repro.sim.multibank")
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(values, params):
                calls.append((name, np.shape(values)))
                return original(values, params)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("reference_ntt", "reference_intt"):
            spy(multibank, name)
        for name in ("negacyclic_ntt", "negacyclic_intt"):
            spy(negacyclic, name)
        for name in ("merged_negacyclic_ntt", "merged_negacyclic_intt"):
            spy(merged, name)
        n = 256
        ring = _ring(n)
        response = Simulator().run(FheOpRequest(
            ring=ring, op="multiply", a=_vector(n, ring.q, seed=1),
            b=_vector(n, ring.q, seed=2)))
        assert response.verified
        assert calls == [("reference_ntt", (2, n)),
                         ("negacyclic_intt", (n,))]


class TestHostedInverseVerified:
    def _request(self, n=64):
        ring = _ring(n)
        return FheOpRequest(ring=ring, op="inverse",
                            a=_vector(n, ring.q, seed=5))

    def test_matches_golden_inverse(self):
        from repro.ntt.negacyclic import negacyclic_intt
        request = self._request()
        response = Simulator().run(request)
        assert response.verified
        assert response.values == negacyclic_intt(list(request.a),
                                                   request.ring)

    def _corrupt_reads(self, monkeypatch):
        original = PimBank.read_polynomial

        def corrupted(self, base_row, length):
            out = original(self, base_row, length)
            out[0, 3] ^= 1
            return out
        monkeypatch.setattr(PimBank, "read_polynomial", corrupted)

    def test_corrupted_read_raises(self, monkeypatch):
        self._corrupt_reads(monkeypatch)
        with pytest.raises(FunctionalMismatch):
            Simulator().run(self._request())

    def test_corrupted_read_passes_unverified(self, monkeypatch):
        self._corrupt_reads(monkeypatch)
        response = Simulator(SimConfig(verify=False)).run(self._request())
        assert not response.verified


class TestTimingOnly:
    @pytest.mark.parametrize("native", [False, True])
    def test_multiply_without_function(self, native):
        """``functional=False`` times all three transforms and moves no
        data."""
        ring = _ring(64)
        config = SimConfig(functional=False, verify=False)
        request = FheOpRequest(ring=ring, op="multiply", native=native,
                               a=_vector(64, ring.q, seed=1),
                               b=_vector(64, ring.q, seed=2))
        timed = Simulator(config).run(request)
        full = Simulator().run(request)
        assert timed.cycles == full.cycles
        assert timed.metrics["transforms"] == 3
        assert not timed.verified
