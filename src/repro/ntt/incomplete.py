"""Incomplete (truncated) negacyclic NTT — Kyber's trick, generalized.

A *full* negacyclic NTT needs a 2N-th root of unity (``2N | q - 1``).
When the modulus has less 2-adicity (e.g. Kyber's q = 3329 with
q - 1 = 2^8 * 13), one stops the transform ``d`` stages early: the ring
factors into N/2^d quadratic-or-larger polynomials ``X^k - zeta`` and
"pointwise" multiplication becomes small schoolbook products per slot.

This extends the PIM story: the truncated stages are exactly the *last*
(smallest-stride) stages, i.e. the intra-atom work — an incomplete
transform simply ends before (or partway through) C1N, and the base-case
products are short vector ops the CU can also host.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..arith import vector
from ..arith.modmath import mod_inverse, mod_pow
from ..arith.roots import is_primitive_root_of_unity, root_of_unity
from .merged import block_zeta_exponent

__all__ = ["IncompleteNttParams", "incomplete_params", "incomplete_ntt",
           "incomplete_intt", "incomplete_basemul"]


class IncompleteNttParams:
    """(N, q, depth): transform stopping after ``log N - log depth``
    stages, leaving slots of ``depth`` coefficients.

    Requires a primitive ``2N/depth``-th root of unity; ``depth = 1``
    recovers the full merged transform.  Every block twiddle the
    transforms touch is tabulated once, here: ``forward_zetas[length]``
    holds the zeta of each stride-``length`` block in start order
    (block ``start // (2 * length)``), ``inverse_zetas`` their inverses.
    """

    def __init__(self, n: int, q: int, depth: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"N must be a power of two, got {n}")
        if depth < 1 or depth & (depth - 1) or depth > n // 2:
            raise ValueError(f"depth must be a power of two <= N/2, got {depth}")
        order = 2 * n // depth
        if (q - 1) % order != 0:
            raise ValueError(
                f"q={q} lacks a primitive {order}-th root (depth {depth})")
        self.n = n
        self.q = q
        self.depth = depth
        #: psi plays the role of the 2N-th root of the *virtual* full
        #: transform: exponents are always multiples of depth, so only
        #: psi^depth (an order-2N/depth element) need exist.
        self.psi_effective = root_of_unity(order, q)
        assert is_primitive_root_of_unity(self.psi_effective, order, q)
        psi_inv = mod_inverse(self.psi_effective, q)
        self.forward_zetas: Dict[int, Tuple[int, ...]] = {}
        self.inverse_zetas: Dict[int, Tuple[int, ...]] = {}
        length = n // 2
        while length >= depth:
            exps = [block_zeta_exponent(n, length, start)
                    for start in range(0, n, 2 * length)]
            if any(exp % depth for exp in exps):
                raise AssertionError("truncated stage touched a deep zeta")
            self.forward_zetas[length] = tuple(
                mod_pow(self.psi_effective, exp // depth, q) for exp in exps)
            self.inverse_zetas[length] = tuple(
                mod_pow(psi_inv, exp // depth, q) for exp in exps)
            length >>= 1
        #: ``X^depth = zeta`` per base-case slot (see :meth:`slot_zeta`).
        last = self.forward_zetas[depth]
        self.slot_zetas = tuple(
            last[slot // 2] if slot % 2 == 0 else (q - last[slot // 2]) % q
            for slot in range(n // depth))
        #: The inverse's ``(N/depth)^-1`` scale.
        self.scale = mod_inverse(n // depth, q)
        #: The same tables as uint64 lanes (the NumPy path).
        self.forward_zeta_lanes, self.inverse_zeta_lanes = (
            {length: np.array(zetas, dtype=np.uint64)
             for length, zetas in table.items()}
            for table in (self.forward_zetas, self.inverse_zetas))
        self.slot_zeta_lanes = np.array(self.slot_zetas, dtype=np.uint64)

    def slot_zeta(self, slot: int) -> int:
        """The ``X^depth = zeta`` constant of base-case slot ``slot``.

        Adjacent slots share a magnitude with opposite signs: the last
        executed stage split ``X^2d - z^2`` into ``X^d - z`` (even slot)
        and ``X^d + z`` (odd slot) — Kyber's ``±zetas[64+i]`` pattern.
        """
        return self.slot_zetas[slot]


@lru_cache(maxsize=32)
def incomplete_params(n: int, q: int, depth: int) -> IncompleteNttParams:
    """The shared :class:`IncompleteNttParams` of one ``(n, q, depth)``
    shape: its root search and twiddle tables are built once, not per
    request, and every caller shares the instance (read-only).  Invalid
    shapes raise ``ValueError`` (never cached)."""
    return IncompleteNttParams(n, q, depth)


def incomplete_ntt(values: Sequence[int],
                   params: IncompleteNttParams) -> List[int]:
    """Forward truncated transform: stops once blocks reach ``depth``."""
    n, q = params.n, params.q
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    if vector.numpy_active(q):
        return _incomplete_ntt_lanes(values, params)
    x = [v % q for v in values]
    length = n // 2
    while length >= params.depth:
        for block, zeta in enumerate(params.forward_zetas[length]):
            start = 2 * length * block
            for j in range(start, start + length):
                t = (zeta * x[j + length]) % q
                x[j + length] = (x[j] - t) % q
                x[j] = (x[j] + t) % q
        length >>= 1
    return x


def _incomplete_ntt_lanes(values: Sequence[int],
                          params: IncompleteNttParams) -> List[int]:
    """:func:`incomplete_ntt` stage by stage on uint64 lanes: each stage
    is one ``(blocks, 2, length)`` view with one zeta per block."""
    q = params.q
    x = vector._as_lanes(values, q)
    length = params.n // 2
    while length >= params.depth:
        blocks = x.reshape(-1, 2, length)
        top = blocks[:, 0].copy()  # the writes below go through the view
        t = vector.mod_mul_arr(params.forward_zeta_lanes[length][:, None],
                               blocks[:, 1], q)
        blocks[:, 0] = vector.mod_add_arr(top, t, q)
        blocks[:, 1] = vector.mod_sub_arr(top, t, q)
        length >>= 1
    return x.tolist()


def incomplete_intt(values: Sequence[int],
                    params: IncompleteNttParams) -> List[int]:
    """Inverse truncated transform with the (N/depth)^-1 scale."""
    n, q = params.n, params.q
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    if vector.numpy_active(q):
        return _incomplete_intt_lanes(values, params)
    x = [v % q for v in values]
    length = params.depth
    while length < n:
        for block, zeta_inv in enumerate(params.inverse_zetas[length]):
            start = 2 * length * block
            for j in range(start, start + length):
                a, b = x[j], x[j + length]
                x[j] = (a + b) % q
                x[j + length] = ((a - b) * zeta_inv) % q
        length <<= 1
    scale = params.scale
    return [(v * scale) % q for v in x]


def _incomplete_intt_lanes(values: Sequence[int],
                           params: IncompleteNttParams) -> List[int]:
    """:func:`incomplete_intt` stage by stage on uint64 lanes."""
    q = params.q
    x = vector._as_lanes(values, q)
    length = params.depth
    while length < params.n:
        blocks = x.reshape(-1, 2, length)
        top, bottom = blocks[:, 0].copy(), blocks[:, 1].copy()
        blocks[:, 0] = vector.mod_add_arr(top, bottom, q)
        blocks[:, 1] = vector.mod_mul_arr(
            vector.mod_sub_arr(top, bottom, q),
            params.inverse_zeta_lanes[length][:, None], q)
        length <<= 1
    return vector.mod_mul_arr(x, np.uint64(params.scale), q).tolist()


def incomplete_basemul(a_hat: Sequence[int], b_hat: Sequence[int],
                       params: IncompleteNttParams) -> List[int]:
    """Slot-wise product: schoolbook multiply in ``Z_q[X]/(X^d - zeta)``
    per slot (Kyber's basemul, generalized to any depth)."""
    n, q, d = params.n, params.q, params.depth
    if len(a_hat) != n or len(b_hat) != n:
        raise ValueError("operands must be full transform-domain vectors")
    if vector.numpy_active(q):
        return _incomplete_basemul_lanes(a_hat, b_hat, params)
    out = [0] * n
    for slot, zeta in enumerate(params.slot_zetas):
        base = slot * d
        for i in range(d):
            for j in range(d):
                prod = a_hat[base + i] * b_hat[base + j] % q
                k = i + j
                if k < d:
                    out[base + k] = (out[base + k] + prod) % q
                else:
                    out[base + k - d] = (out[base + k - d]
                                         + prod * zeta) % q
    return out


def _incomplete_basemul_lanes(a_hat: Sequence[int], b_hat: Sequence[int],
                              params: IncompleteNttParams) -> List[int]:
    """:func:`incomplete_basemul` over all slots at once: coefficient
    ``i`` of ``a`` times all of ``b`` accumulates into columns
    ``i .. i+d-1`` of a ``(slots, 2d)`` product, whose top half then
    wraps back times each slot's zeta."""
    q, d = params.q, params.depth
    a = vector._as_lanes(a_hat, q).reshape(-1, d)
    b = vector._as_lanes(b_hat, q).reshape(-1, d)
    acc = np.zeros((a.shape[0], 2 * d), dtype=np.uint64)
    for i in range(d):
        acc[:, i:i + d] = vector.mod_add_arr(
            acc[:, i:i + d], vector.mod_mul_arr(a[:, i:i + 1], b, q), q)
    wrapped = vector.mod_mul_arr(params.slot_zeta_lanes[:, None],
                                 acc[:, d:], q)
    return vector.mod_add_arr(acc[:, :d], wrapped, q).reshape(-1).tolist()
