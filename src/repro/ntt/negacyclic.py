"""Negacyclic NTT for the FHE ring ``R_q = Z_q[X]/(X^N + 1)`` (Sec. II.B).

Multiplication in ``R_q`` is a *negacyclic* convolution.  With a ``2N``-th
root of unity ``psi`` (``psi^2 = omega``), pre-scaling coefficient ``i``
by ``psi^i`` turns it into the cyclic case handled by the plain NTT:

    NegaNTT(a)   = NTT(psi^i * a_i)
    NegaINTT(A)  = psi^{-i} * INTT(A)_i
    a *_nega b   = NegaINTT(NegaNTT(a) ⊙ NegaNTT(b))
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..arith.modmath import mod_inverse, mod_mul_vec, mod_pow
from ..arith.roots import NttParams, is_primitive_root_of_unity, root_of_unity
from .reference import _kronecker_product, intt, ntt

__all__ = [
    "NegacyclicParams",
    "psi_power_table",
    "twist_tables",
    "negacyclic_ntt",
    "negacyclic_intt",
    "negacyclic_convolution",
    "naive_negacyclic_convolution",
]


class NegacyclicParams:
    """(N, q, psi) with ``psi`` a primitive 2N-th root; ``omega = psi^2``."""

    def __init__(self, n: int, q: int, psi: int | None = None):
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} does not support length-{n} negacyclic NTT")
        self.n = n
        self.q = q
        self.psi = root_of_unity(2 * n, q) if psi is None else psi % q
        if not is_primitive_root_of_unity(self.psi, 2 * n, q):
            raise ValueError(f"psi={psi} is not a primitive {2 * n}-th root mod {q}")
        self.psi_inv = mod_inverse(self.psi, q)
        self.cyclic = NttParams(n, q, mod_pow(self.psi, 2, q))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NegacyclicParams(n={self.n}, q={self.q}, psi={self.psi})"


@lru_cache(maxsize=64)
def psi_power_table(base: int, n: int, q: int) -> Tuple[int, ...]:
    """``(base^0, base^1, ..., base^(n-1)) mod q`` — the pre/post scaling
    vector of the decomposed negacyclic transform, computed once per
    ``(base, n, q)`` instead of once per call."""
    powers = [1] * n
    for i in range(1, n):
        powers[i] = (powers[i - 1] * base) % q
    return tuple(powers)


@lru_cache(maxsize=64)
def _twist_tables(psi: int, n: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    n_inv = mod_inverse(n, q)
    post = [(p * n_inv) % q for p in psi_power_table(mod_inverse(psi, q), n, q)]
    forward = np.array(psi_power_table(psi, n, q), dtype=np.uint64)
    inverse = np.array(post, dtype=np.uint64)
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def twist_tables(ring: NegacyclicParams) -> Tuple[np.ndarray, np.ndarray]:
    """The host passes of the decomposed (hosted) transform as read-only
    uint64 lanes: ``psi^i`` (forward pre-scale) and ``psi^-i * N^-1``
    (inverse post-scale, the 1/N folded in).  Built once per
    ``(psi, n, q)`` ring and shared by every request on it."""
    return _twist_tables(ring.psi, ring.n, ring.q)


def negacyclic_ntt(values: Sequence[int], params: NegacyclicParams) -> List[int]:
    """Forward negacyclic transform (psi pre-scaling + cyclic NTT)."""
    q = params.q
    scaled = mod_mul_vec(values, psi_power_table(params.psi, params.n, q), q)
    return ntt(scaled, params.cyclic)


def negacyclic_intt(values: Sequence[int], params: NegacyclicParams) -> List[int]:
    """Inverse negacyclic transform (cyclic INTT + psi^{-i} post-scaling)."""
    q = params.q
    raw = intt(values, params.cyclic)
    return mod_mul_vec(raw, psi_power_table(params.psi_inv, params.n, q), q)


def negacyclic_convolution(a: Sequence[int], b: Sequence[int],
                           params: NegacyclicParams) -> List[int]:
    """Product in ``Z_q[X]/(X^N+1)`` via the transform (Eq. 1 of the paper)."""
    fa = negacyclic_ntt(a, params)
    fb = negacyclic_ntt(b, params)
    prod = [(x * y) % params.q for x, y in zip(fa, fb)]
    return negacyclic_intt(prod, params)


def naive_negacyclic_convolution(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """Schoolbook product with ``X^N = -1`` reduction, for verification:
    the exact Kronecker-substitution product with coefficient ``i + N``
    subtracted from ``i``.  Any length, any ``q >= 1``; operands may be
    negative or unreduced."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    c = _kronecker_product(a, b, q)
    return [(c[i] - c[i + n]) % q for i in range(n)]
