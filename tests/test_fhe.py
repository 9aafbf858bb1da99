"""Tests for the RLWE/BFV layer and the PIM-backed FHE accelerator."""

import random

import pytest

from repro.arith import find_ntt_prime
from repro.fhe import PimFheAccelerator, RlweParams, RlweScheme
from repro.ntt import NegacyclicParams, naive_negacyclic_convolution
from repro.pim import PimParams
from repro.sim import SimConfig

N = 64
Q = find_ntt_prime(N, 32, negacyclic=True)
T = 257


def scheme(seed=0):
    return RlweScheme(RlweParams(N, Q, T), random.Random(seed))


class TestRlweParams:
    def test_delta(self):
        p = RlweParams(N, Q, T)
        assert p.delta == Q // T

    def test_bad_plaintext_modulus(self):
        with pytest.raises(ValueError):
            RlweParams(N, Q, 1)
        with pytest.raises(ValueError):
            RlweParams(N, Q, Q + 1)

    def test_even_q_rejected(self):
        with pytest.raises(ValueError):
            RlweParams(N, 65536, 257)


class TestEncryptDecrypt:
    def test_roundtrip(self):
        s = scheme(1)
        keys = s.keygen()
        msg = [random.Random(2).randrange(T) for _ in range(N)]
        ct = s.encrypt(msg, keys)
        assert s.decrypt(ct, keys) == msg

    def test_zero_message(self):
        s = scheme(3)
        keys = s.keygen()
        ct = s.encrypt([0] * N, keys)
        assert s.decrypt(ct, keys) == [0] * N

    def test_short_message_padded(self):
        s = scheme(4)
        keys = s.keygen()
        ct = s.encrypt([5, 6], keys)
        out = s.decrypt(ct, keys)
        assert out[:2] == [5, 6]
        assert all(v == 0 for v in out[2:])

    def test_message_too_long(self):
        s = scheme(5)
        keys = s.keygen()
        with pytest.raises(ValueError):
            s.encrypt([0] * (N + 1), keys)

    def test_ciphertexts_randomized(self):
        s = scheme(6)
        keys = s.keygen()
        msg = [1] * N
        a = s.encrypt(msg, keys)
        b = s.encrypt(msg, keys)
        assert a.c0.coefficients != b.c0.coefficients

    def test_noise_budget_positive_fresh(self):
        s = scheme(7)
        keys = s.keygen()
        msg = [9] * N
        ct = s.encrypt(msg, keys)
        assert s.noise_budget_bits(ct, keys, msg) > 1.0


class TestHomomorphicOps:
    def test_addition(self):
        s = scheme(8)
        keys = s.keygen()
        rng = random.Random(9)
        m1 = [rng.randrange(T) for _ in range(N)]
        m2 = [rng.randrange(T) for _ in range(N)]
        ct = s.add(s.encrypt(m1, keys), s.encrypt(m2, keys))
        assert s.decrypt(ct, keys) == [(a + b) % T for a, b in zip(m1, m2)]

    def test_subtraction(self):
        s = scheme(10)
        keys = s.keygen()
        m1 = [5] * N
        m2 = [3] * N
        ct = s.encrypt(m1, keys) - s.encrypt(m2, keys)
        assert s.decrypt(ct, keys) == [2] * N

    def test_plain_multiplication_by_monomial(self):
        """ct * X rotates coefficients with negacyclic wraparound."""
        s = scheme(11)
        keys = s.keygen()
        msg = [1, 2] + [0] * (N - 2)
        plain = [0, 1] + [0] * (N - 2)  # the polynomial X
        ct = s.multiply_plain(s.encrypt(msg, keys), plain)
        out = s.decrypt(ct, keys)
        assert out[1] == 1 and out[2] == 2

    def test_plain_multiplication_by_constant(self):
        s = scheme(12)
        keys = s.keygen()
        msg = [7] + [0] * (N - 1)
        ct = s.multiply_plain(s.encrypt(msg, keys), [3])
        assert s.decrypt(ct, keys)[0] == 21 % T


class TestPimFheAccelerator:
    def _ring(self):
        return NegacyclicParams(256, find_ntt_prime(256, 32, negacyclic=True))

    def test_multiply_matches_schoolbook(self):
        ring = self._ring()
        acc = PimFheAccelerator(ring, SimConfig(pim=PimParams(nb_buffers=2)))
        rng = random.Random(13)
        a = [rng.randrange(ring.q) for _ in range(ring.n)]
        b = [rng.randrange(ring.q) for _ in range(ring.n)]
        assert acc.multiply(a, b) == naive_negacyclic_convolution(a, b, ring.q)

    def test_stats_accumulate(self):
        ring = self._ring()
        acc = PimFheAccelerator(ring, SimConfig(pim=PimParams(nb_buffers=4)))
        a = [1] * ring.n
        b = [2] * ring.n
        acc.multiply(a, b)
        assert acc.stats.transforms == 3  # 2 forward + 1 inverse
        assert acc.stats.total_latency_us > 0
        assert acc.stats.total_energy_nj > 0
        assert len(acc.stats.per_call_us) == 3

    def test_forward_inverse_roundtrip(self):
        ring = self._ring()
        acc = PimFheAccelerator(ring)
        rng = random.Random(14)
        a = [rng.randrange(ring.q) for _ in range(ring.n)]
        assert acc.inverse(acc.forward(a)) == a

    def test_ring_tables_shared_across_accelerators(self):
        """The hosted transform's host passes are per-ring tables built
        once: psi^i and psi^-i * N^-1 as read-only uint64 lanes, and one
        inverse cyclic parameter set."""
        from repro.arith import mod_inverse
        from repro.ntt.negacyclic import twist_tables
        ring = self._ring()
        twin = NegacyclicParams(ring.n, ring.q, ring.psi)
        forward, inverse = twist_tables(ring)
        assert twist_tables(twin)[0] is forward
        assert twist_tables(twin)[1] is inverse
        assert not forward.flags.writeable and not inverse.flags.writeable
        n_inv = mod_inverse(ring.n, ring.q)
        assert forward.tolist() == [pow(ring.psi, i, ring.q)
                                    for i in range(ring.n)]
        assert inverse.tolist() == [pow(ring.psi_inv, i, ring.q) * n_inv
                                    % ring.q for i in range(ring.n)]
        assert ring.cyclic.inverse() is twin.cyclic.inverse()
