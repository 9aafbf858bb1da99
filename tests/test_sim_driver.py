"""Tests for the front-end driver and result records."""

import random

import pytest

from repro.arith import NttParams, find_ntt_prime
from repro.errors import FunctionalMismatch
from repro.ntt import intt, ntt
from repro.pim import PimParams
from repro.pim.bank_pim import PimBank
from repro.sim import NttPimDriver, SimConfig

Q = find_ntt_prime(4096, 32)


class TestRunNtt:
    def test_runs_and_verifies(self):
        rng = random.Random(1)
        n = 256
        x = [rng.randrange(Q) for _ in range(n)]
        result = NttPimDriver()._run_ntt(x, NttParams(n, Q))
        assert result.verified
        assert result.n == n
        assert result.output == ntt(x, NttParams(n, Q))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            NttPimDriver()._run_ntt([1, 2, 3], NttParams(256, Q))

    def test_result_metrics_consistent(self):
        result = NttPimDriver()._run_ntt([0] * 256, NttParams(256, Q))
        assert result.cycles > 0
        assert result.latency_us == pytest.approx(result.latency_ns / 1000)
        assert result.energy_nj > 0
        assert result.command_count > 0
        assert result.activations == 1
        assert "verified=yes" in result.summary()

    def test_functional_off_skips_data(self):
        config = SimConfig(functional=False, verify=False)
        result = NttPimDriver(config)._run_ntt([0] * 256, NttParams(256, Q))
        assert result.output == []
        assert not result.verified
        assert result.cycles > 0

    def test_timing_identical_with_and_without_functional(self):
        on = NttPimDriver(SimConfig())._run_ntt([0] * 512, NttParams(512, Q))
        off = NttPimDriver(SimConfig(functional=False, verify=False))._run_ntt(
            [0] * 512, NttParams(512, Q))
        assert on.cycles == off.cycles

    def test_bu_op_count_matches_theory(self):
        n = 512
        result = NttPimDriver()._run_ntt([0] * n, NttParams(n, Q))
        # N/2 * log N butterflies exactly — full data reuse, no recompute.
        assert result.bu_ops == (n // 2) * 9

    def test_verification_catches_corruption(self, monkeypatch):
        """A corrupted PIM result must raise."""
        n = 256
        original = PimBank.read_polynomial

        def corrupted(self, base_row, length):
            out = original(self, base_row, length)
            out[..., 7] ^= 1
            return out

        monkeypatch.setattr(PimBank, "read_polynomial", corrupted)
        with pytest.raises(FunctionalMismatch):
            NttPimDriver()._run_ntt([0] * n, NttParams(n, Q))


class TestInverse:
    def test_intt_roundtrip_via_pim(self):
        rng = random.Random(2)
        n = 256
        params = NttParams(n, Q)
        x = [rng.randrange(Q) for _ in range(n)]
        driver = NttPimDriver()
        fwd = driver._run_ntt(x, params)
        inv = driver._run_intt(fwd.output, params)
        assert inv.output == x

    def test_intt_matches_reference(self):
        rng = random.Random(3)
        n = 512
        params = NttParams(n, Q)
        y = [rng.randrange(Q) for _ in range(n)]
        inv = NttPimDriver()._run_intt(y, params)
        assert inv.output == intt(y, params)


class TestFrequencyScaling:
    def test_lower_clock_slower_in_ns_but_tolerant(self):
        base = SimConfig(pim=PimParams(nb_buffers=2),
                         functional=False, verify=False)
        n, params = 2048, NttParams(2048, Q)
        t1200 = NttPimDriver(base)._run_ntt([0] * n, params)
        t300 = NttPimDriver(base.at_frequency(300.0))._run_ntt([0] * n, params)
        slowdown = t300.latency_ns / t1200.latency_ns
        assert 1.0 < slowdown < 2.5  # paper: ~1.65x for a 4x clock drop

    def test_config_frequency_propagates(self):
        config = SimConfig().at_frequency(600.0)
        assert config.timing.freq_mhz == 600.0
