"""Host times in reference seconds, steady on a shared CPU.

On a VM whose physical cores are shared with other tenants the same
work can take 1.7x as long from one half-minute to the next, so raw wall
times of two runs of the same code differ by more than the regressions
the benchmark must catch.  A :class:`Timer` runs a fixed calibration
kernel right before and right after each timed unit; the unit's wall
time scaled by ``REFERENCE_S`` over the mean kernel time is its time on
a CPU of the reference speed.  Raw wall times are kept beside the scaled
ones.  The kernel is benchmark code, so a change to the simulator moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

__all__ = ["REFERENCE_S", "kernel_seconds", "reference", "Timer"]

#: The kernel's time on the reference CPU (an uncontended 2-vCPU Intel
#: Xeon VM); it only sets the scale of reference seconds.
REFERENCE_S = 0.009

_Q = 998_244_353
_N = 512
_TWIDDLES = [pow(3, (_Q - 1) // _N * i, _Q) for i in range(_N // 2)]


def kernel_seconds() -> float:
    """Wall time of the calibration kernel: eight radix-2 NTTs of length
    512 over Python integers.  Of the kernels tried it tracked the
    slowdowns of all three workloads best (integer arithmetic and list
    indexing, like the simulator's host-side Python)."""
    start = time.perf_counter()
    for _ in range(8):
        a = list(range(_N))
        m = 1
        while m < _N:
            step = _N // (2 * m)
            for s in range(0, _N, 2 * m):
                for j in range(m):
                    u = a[s + j]
                    v = a[s + j + m] * _TWIDDLES[j * step] % _Q
                    a[s + j] = (u + v) % _Q
                    a[s + j + m] = (u - v) % _Q
            m *= 2
    return time.perf_counter() - start


def reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference seconds, given the kernel times around it."""
    return wall_s * 2.0 * REFERENCE_S / (before_s + after_s)


class Timer:
    """Times units of work, raw and in reference seconds.  Units timed
    back to back share the kernel run between them."""

    def __init__(self):
        self.raw: List[float] = []
        self.ref: List[float] = []
        self._after: Optional[float] = None

    def __call__(self, fn: Callable, *args):
        before = self._after if self._after is not None else kernel_seconds()
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._after = kernel_seconds()
        self.raw.append(wall)
        self.ref.append(reference(wall, before, self._after))
        return result
