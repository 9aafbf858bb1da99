"""FHE polynomial operations routed through the PIM simulator.

This is the bridge the paper's introduction motivates: FHE ring
multiplications are NTT -> pointwise -> INTT, and the NTTs run on the
PIM.  The negacyclic pre/post scalings (psi powers) are element-wise
host passes, matching the paper's CPU-side bit-reversal assumption.

:class:`PimFheAccelerator` keeps an account of simulated PIM time and
energy, so examples can report "what the PIM did" for an end-to-end
homomorphic workload.  The facade's ``fhe`` workload
(:class:`repro.api.FheOpRequest`) is built on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..arith.modmath import mod_mul_vec
from ..ntt.negacyclic import NegacyclicParams
from ..sim.driver import NttPimDriver, SimConfig
from ..sim.multibank import TransformSpec

__all__ = ["PimTransformStats", "PimFheAccelerator"]


@dataclass
class PimTransformStats:
    """Aggregate of all PIM transforms issued by an accelerator."""

    transforms: int = 0
    total_cycles: int = 0
    total_latency_us: float = 0.0
    total_energy_nj: float = 0.0
    total_activations: int = 0
    #: DRAM commands issued across all transforms (the command-bus
    #: traffic the serving layer's shared-bus model charges).
    total_commands: int = 0
    #: Butterfly µ-ops the banks executed (functional runs).
    total_bu_ops: int = 0
    per_call_us: List[float] = field(default_factory=list)


class PimFheAccelerator:
    """Runs negacyclic ring multiplications with NTTs on the simulated PIM.

    Two modes:

    * ``native=False`` (paper-faithful): host psi-prescaling and bit
      reversal, cyclic NTT on the PIM;
    * ``native=True`` (extension): the merged negacyclic transform runs
      entirely on the PIM via the C1N/zeta mapping — no host scaling or
      permutation passes (see :mod:`repro.mapping.negacyclic_mapper`).

    Every transform runs on the driver's lockstep executor and, with
    ``config.verify`` on, is checked against its golden model.  A ring
    product's two forward transforms share one ring, so they run as one
    two-bank group with one batched golden check; its inverse is checked
    against the golden inverse of the pointwise product — with both
    forwards equal to their golden models, that is the check of the
    whole ring product.  Timing stays per transform: each one is charged
    its own single-bank run.
    """

    def __init__(self, ring: NegacyclicParams, config: SimConfig | None = None,
                 native: bool = False):
        self.ring = ring
        self.driver = NttPimDriver(config or SimConfig())
        self.cyclic = ring.cyclic  # NttParams of the underlying cyclic NTT
        self.native = native
        self.stats = PimTransformStats()
        kind = "negacyclic" if native else "hosted"
        self._forward = TransformSpec(kind=kind, ring=ring)
        self._inverse = TransformSpec(kind=kind, ring=ring, inverse=True)

    def _record(self, result) -> None:
        self.stats.transforms += 1
        self.stats.total_cycles += result.cycles
        self.stats.total_latency_us += result.latency_us
        self.stats.total_energy_nj += result.energy_nj
        self.stats.total_activations += result.activations
        self.stats.total_commands += result.command_count
        self.stats.total_bu_ops += result.bu_ops
        self.stats.per_call_us.append(result.latency_us)

    def _run(self, spec: TransformSpec,
             rows: Sequence[Sequence[int]]) -> List[List[int]]:
        results = self.driver._run_transforms(spec, rows)
        for result in results:
            self._record(result)
        return [result.output for result in results]

    def forward(self, coefficients: Sequence[int]) -> List[int]:
        """Negacyclic forward transform on the PIM."""
        return self._run(self._forward, [coefficients])[0]

    def inverse(self, values: Sequence[int]) -> List[int]:
        """Negacyclic inverse transform (PIM transform; 1/N — and in the
        paper-faithful mode psi^-i — applied host-side)."""
        return self._run(self._inverse, [values])[0]

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Full ring product: 2 forward NTTs (one lockstep pair),
        pointwise, 1 inverse."""
        fa, fb = self._run(self._forward, [a, b])
        if not self.driver.config.functional:
            # Timing-only runs carry no data: time the inverse on zeros.
            return self.inverse([0] * self.ring.n)
        return self.inverse(mod_mul_vec(fa, fb, self.ring.q))
