"""A fixed reference kernel that gauges the machine's speed during a run.

The speed of a shared machine swings by up to 2x, in spells that can
outlast a whole run. A block of the kernel is timed after each of the
workload's cycles, and the run scales its times by REF_NS over the
kernel's fastest time per call, so that every time metric reads as on the
reference machine at full speed. A block lasts about as long as one call
of the workload (its `cal_reps`), so that the fastest block and the
fastest call of a pool entry are minima over as many samples of as long a
stretch of time: a brief fast spell is caught by both or by neither.
The kernel mixes what the package spends its time on: interpreter integer
and float work (the SplitMix64 generator, the chart code) and small
numpy calls on 4x4 complex matrices (the measures and the walk). It uses
nothing from xtangle, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# fastest kernel time on the reference machine: 2 vCPU of an
# Intel Xeon, Python 3.11, numpy 2.4, OpenBLAS with one thread
REF_NS = 770_000

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
SPINS = 300
SOLVES = 25

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
RHO = _M @ _M.conj().T / np.trace(_M @ _M.conj().T).real


def kernel() -> float:
    """One fixed unit of mixed interpreter and small-numpy work."""
    x, total = 1, 0.0
    for _ in range(SPINS):
        x = (x + GOLDEN) & MASK
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        u = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
        total += (u * (1.0 - u)) ** 0.5
    rho = RHO
    for _ in range(SOLVES):
        w, v = np.linalg.eigh(rho)
        rho = (v * np.sqrt(np.abs(w))) @ v.conj().T
        rho = rho @ rho.conj().T
        rho = rho / np.trace(rho).real
        total += float(np.abs(rho - rho.T).max())
    return total


def time_kernel(reps: int = 1) -> int:
    """Wall time of `reps` kernel calls in a row, in ns."""
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        kernel()
    return time.perf_counter_ns() - t0
