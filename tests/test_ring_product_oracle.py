"""The golden ring-product oracles and the ``kyber_kem`` check built on them.

``naive_cyclic_convolution`` / ``naive_negacyclic_convolution`` compute the
exact product by Kronecker substitution (one big-int multiply).  Here they
are held against a literal O(N²) double loop kept in this file as the
independent oracle, across lengths that are and are not powers of two and
moduli from 1 to beyond 64 bits.  The incomplete-NTT twiddle tables are
held against the on-the-fly formula they replaced, and the ``kyber_kem``
handler is shown to still verify every product.
"""

import dataclasses
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import KyberKemRequest, Simulator
from repro.arith.modmath import mod_inverse, mod_pow
from repro.errors import FunctionalMismatch, RequestValidationError
from repro.ntt import (
    IncompleteNttParams,
    block_zeta_exponent,
    incomplete_params,
    naive_cyclic_convolution,
    naive_negacyclic_convolution,
)
from repro.sim.driver import SimConfig

# By module path: the top-level ``repro.ntt`` attribute is the transform
# function, not the package.
ntt_package = importlib.import_module("repro.ntt")
incomplete = importlib.import_module("repro.ntt.incomplete")

KYBER_Q = 3329
#: 1, 2, 17, Kyber's prime, a 30-bit NTT prime, the Mersenne prime
#: 2^61 - 1 and a modulus above 2^64: slots from 1 byte to over 16.
MODULI = (1, 2, 17, KYBER_Q, 998244353, (1 << 61) - 1, (1 << 64) + 13)


def _loop_product(a, b, q, wrap):
    """Literal schoolbook product mod ``X^n - wrap`` (wrap = 1 cyclic,
    -1 negacyclic) — the independent oracle."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += a[i] * b[j]
            else:
                out[k - n] += wrap * a[i] * b[j]
    return [v % q for v in out]


@st.composite
def _operands(draw):
    q = draw(st.sampled_from(MODULI))
    n = draw(st.integers(min_value=1, max_value=64))
    # Negative and unreduced coefficients: the oracle reduces them itself.
    coeff = st.integers(min_value=-3 * q - 5, max_value=3 * q + 5)
    a = draw(st.lists(coeff, min_size=n, max_size=n))
    b = draw(st.lists(coeff, min_size=n, max_size=n))
    return a, b, q


@settings(max_examples=200, deadline=None)
@given(_operands())
def test_products_match_double_loop(case):
    a, b, q = case
    assert naive_negacyclic_convolution(a, b, q) == _loop_product(a, b, q, -1)
    n = len(a)
    if n & (n - 1) == 0:
        assert naive_cyclic_convolution(a, b, q) == _loop_product(a, b, q, 1)
    else:
        with pytest.raises(ValueError, match="power of two"):
            naive_cyclic_convolution(a, b, q)


@pytest.mark.parametrize("q", MODULI)
def test_worst_case_coefficients_do_not_carry(q):
    """All coefficients at q-1 make every slot of the product as large as
    it can get — the slot-width bound's tight case."""
    n = 256
    a = b = [q - 1] * n
    assert naive_negacyclic_convolution(a, b, q) == _loop_product(a, b, q, -1)
    assert naive_cyclic_convolution(a, b, q) == _loop_product(a, b, q, 1)


def test_empty_input():
    assert naive_negacyclic_convolution([], [], KYBER_Q) == []
    with pytest.raises(ValueError, match="power of two"):
        naive_cyclic_convolution([], [], KYBER_Q)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length mismatch"):
        naive_negacyclic_convolution([1, 2, 3], [1, 2], KYBER_Q)
    with pytest.raises(ValueError, match="length mismatch"):
        naive_cyclic_convolution([1, 2], [1], KYBER_Q)


@pytest.mark.parametrize("depth", [2, 4, 8])
def test_zeta_tables_match_on_the_fly_values(depth):
    n = 256
    params = IncompleteNttParams(n, KYBER_Q, depth)
    psi = params.psi_effective
    psi_inv = mod_inverse(psi, KYBER_Q)
    lengths = []
    length = n // 2
    while length >= depth:
        lengths.append(length)
        exps = [block_zeta_exponent(n, length, start)
                for start in range(0, n, 2 * length)]
        assert params.forward_zetas[length] == tuple(
            mod_pow(psi, exp // depth, KYBER_Q) for exp in exps)
        assert params.inverse_zetas[length] == tuple(
            mod_pow(psi_inv, exp // depth, KYBER_Q) for exp in exps)
        length >>= 1
    assert sorted(params.forward_zetas) == sorted(lengths)
    for slot in range(n // depth):
        base = mod_pow(psi, block_zeta_exponent(
            n, depth, (slot // 2) * 2 * depth) // depth, KYBER_Q)
        assert params.slot_zeta(slot) == (
            base if slot % 2 == 0 else (KYBER_Q - base) % KYBER_Q)
    assert params.scale == mod_inverse(n // depth, KYBER_Q)


def _kem_request(seed, depth=2, n=256, q=KYBER_Q):
    rng = random.Random(seed)
    return KyberKemRequest(a=[rng.randrange(q) for _ in range(n)],
                           b=[rng.randrange(q) for _ in range(n)],
                           n=n, q=q, depth=depth)


def test_requests_of_one_shape_share_cached_params(monkeypatch):
    built = []

    class Counting(IncompleteNttParams):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(incomplete, "IncompleteNttParams", Counting)
    incomplete_params.cache_clear()
    try:
        sim = Simulator()
        first = sim.run(_kem_request(1))
        second = sim.run(_kem_request(2))
        assert first.verified and second.verified
        assert built == [(256, KYBER_Q, 2)]
        assert incomplete_params(256, KYBER_Q, 2) is incomplete_params(
            256, KYBER_Q, 2)
    finally:
        incomplete_params.cache_clear()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("field, value", [
    ("n", 256.0), ("q", 3329.0), ("depth", 2.0), ("depth", True),
])
def test_non_integer_shape_rejected(field, value, warm):
    """``256.0`` and ``True`` hash like ``256`` and ``1``: validation must
    refuse them whether or not the integer shape is already cached."""
    incomplete_params.cache_clear()
    try:
        if warm:
            incomplete_params(256, KYBER_Q, 2)
        request = dataclasses.replace(_kem_request(6), **{field: value})
        with pytest.raises(RequestValidationError, match="integer"):
            request.validate()
    finally:
        incomplete_params.cache_clear()


class TestKemCheckInForce:
    @staticmethod
    def _flip_one_coefficient(monkeypatch):
        real = incomplete.incomplete_intt

        def corrupted(values, params):
            out = real(values, params)
            out[7] = (out[7] + 1) % params.q
            return out

        monkeypatch.setattr(incomplete, "incomplete_intt", corrupted)

    def test_wrong_product_raises_when_verified(self, monkeypatch):
        self._flip_one_coefficient(monkeypatch)
        with pytest.raises(FunctionalMismatch):
            Simulator().run(_kem_request(3))

    def test_wrong_product_passes_unverified(self, monkeypatch):
        self._flip_one_coefficient(monkeypatch)
        response = Simulator(SimConfig(verify=False)).run(_kem_request(3))
        assert not response.verified

    def test_oracle_called_by_name_once_per_request(self, monkeypatch):
        """The handler resolves ``repro.ntt.naive_negacyclic_convolution``
        at call time, so a wrapper installed there sees every check."""
        calls = []
        real = ntt_package.naive_negacyclic_convolution

        def counting(a, b, q):
            calls.append(q)
            return real(a, b, q)

        monkeypatch.setattr(ntt_package, "naive_negacyclic_convolution",
                            counting)
        sim = Simulator()
        for seed in (4, 5):
            assert sim.run(_kem_request(seed)).verified
        assert calls == [KYBER_Q, KYBER_Q]


@pytest.mark.parametrize("depth, cycles, energy_nj", [
    (2, 3786, 2.49895),
    (4, 1707, 2.142325),
])
def test_kem_response_golden(depth, cycles, energy_nj):
    """Values equal the double-loop oracle; cycles and energy are this
    seed's fixed figures — how the host checks the product must never
    move the priced PIM timing."""
    request = _kem_request(13, depth=depth)
    response = Simulator().run(request)
    assert response.verified
    assert response.values == _loop_product(request.a, request.b,
                                            KYBER_Q, -1)
    assert response.cycles == cycles
    assert response.energy_nj == energy_nj
