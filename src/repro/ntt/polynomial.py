"""Polynomials over ``R_q = Z_q[X]/(X^N + 1)`` — the FHE data type.

A thin, explicit wrapper: coefficients are a list of ints in ``[0, q)``;
multiplication goes through the negacyclic NTT, cross-checked by the
exact schoolbook product (one Kronecker-substitution big-int multiply,
no transform).  The FHE layer (:mod:`repro.fhe`) builds ciphertexts
out of these.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from .negacyclic import (
    NegacyclicParams,
    naive_negacyclic_convolution,
    negacyclic_convolution,
)

__all__ = ["Polynomial"]


class Polynomial:
    """Element of ``Z_q[X]/(X^N + 1)``."""

    def __init__(self, coefficients: Sequence[int], params: NegacyclicParams):
        if len(coefficients) != params.n:
            raise ValueError(
                f"expected {params.n} coefficients, got {len(coefficients)}")
        self.params = params
        self.coefficients: List[int] = [c % params.q for c in coefficients]

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, params: NegacyclicParams) -> "Polynomial":
        """The additive identity."""
        return cls([0] * params.n, params)

    @classmethod
    def one(cls, params: NegacyclicParams) -> "Polynomial":
        """The multiplicative identity."""
        return cls([1] + [0] * (params.n - 1), params)

    @classmethod
    def monomial(cls, degree: int, params: NegacyclicParams,
                 coefficient: int = 1) -> "Polynomial":
        """``coefficient * X^degree`` (degree reduced mod 2N with sign)."""
        degree %= 2 * params.n
        sign = 1
        if degree >= params.n:
            degree -= params.n
            sign = -1
        coeffs = [0] * params.n
        coeffs[degree] = (sign * coefficient) % params.q
        return cls(coeffs, params)

    @classmethod
    def random_uniform(cls, params: NegacyclicParams,
                       rng: random.Random | None = None) -> "Polynomial":
        """Uniformly random element (used for RLWE public randomness)."""
        rng = rng or random
        return cls([rng.randrange(params.q) for _ in range(params.n)], params)

    @classmethod
    def random_ternary(cls, params: NegacyclicParams,
                       rng: random.Random | None = None) -> "Polynomial":
        """Coefficients in {-1, 0, 1} (typical RLWE secret distribution)."""
        rng = rng or random
        return cls([rng.choice((-1, 0, 1)) for _ in range(params.n)], params)

    @classmethod
    def random_noise(cls, params: NegacyclicParams, bound: int = 3,
                     rng: random.Random | None = None) -> "Polynomial":
        """Small bounded noise, stand-in for a discrete Gaussian."""
        rng = rng or random
        return cls([rng.randint(-bound, bound) for _ in range(params.n)], params)

    # -- ring operations ---------------------------------------------------
    def _check_compatible(self, other: "Polynomial") -> None:
        if self.params.n != other.params.n or self.params.q != other.params.q:
            raise ValueError("polynomials come from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.params.q
        return Polynomial(
            [(a + b) % q for a, b in zip(self.coefficients, other.coefficients)],
            self.params)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        q = self.params.q
        return Polynomial(
            [(a - b) % q for a, b in zip(self.coefficients, other.coefficients)],
            self.params)

    def __neg__(self) -> "Polynomial":
        q = self.params.q
        return Polynomial([(-a) % q for a in self.coefficients], self.params)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_compatible(other)
        return Polynomial(
            negacyclic_convolution(self.coefficients, other.coefficients,
                                   self.params),
            self.params)

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by an integer scalar."""
        q = self.params.q
        return Polynomial([(scalar * a) % q for a in self.coefficients], self.params)

    def mul_schoolbook(self, other: "Polynomial") -> "Polynomial":
        """Transform-free exact product (Kronecker substitution) — the
        verification path for ``__mul__``."""
        self._check_compatible(other)
        return Polynomial(
            naive_negacyclic_convolution(self.coefficients, other.coefficients,
                                         self.params.q),
            self.params)

    # -- comparisons / utilities -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.params.n == other.params.n
                and self.params.q == other.params.q
                and self.coefficients == other.coefficients)

    def __hash__(self):  # pragma: no cover - polynomials are not dict keys
        return hash((self.params.n, self.params.q, tuple(self.coefficients)))

    def centered(self) -> List[int]:
        """Coefficients lifted to ``(-q/2, q/2]`` — used for decoding."""
        q = self.params.q
        return [c - q if c > q // 2 else c for c in self.coefficients]

    def infinity_norm(self) -> int:
        """Max absolute centered coefficient (noise-budget measurements)."""
        return max((abs(c) for c in self.centered()), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        head = ", ".join(str(c) for c in self.coefficients[:4])
        return f"Polynomial(n={self.params.n}, q={self.params.q}, [{head}, ...])"
