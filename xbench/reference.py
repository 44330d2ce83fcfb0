"""Reference values the verifiers compare against, written from the spec.

The SplitMix64/Box-Muller generator below follows the frozen stream
specification in the project README, not the package source, so a change
to the package's generator that alters a single bit shows as a failed draw.
The X-state checks rebuild the density matrix from the chart formulas in
`xtangle.xstate`'s module docstring with plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# tolerances of the package's own gates; the verifiers use these, no looser
GATE_TOL = 1e-9          # X form, spectrum, measure, W rho W^dagger = state
UNITARY_TOL = 1e-10      # matrix_core.is_unitary default
PSD_TOL = 1e-10          # matrix_core.is_density_matrix eigenvalue floor
TRACE_TOL = 1e-12        # matrix_core.is_density_matrix trace gate
HERMITIAN_TOL = 1e-12    # matrix_core.is_density_matrix Hermiticity gate
PHYS_SLACK = 1e-12       # xstate positivity / separability slack
RANK_TOL = 1e-9          # xstate.numerical_rank threshold

OFF_X = ((0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def child_seed(seed: int, index: int) -> int:
    """Output mix applied to seed + (index + 1) * golden, modulo 2^64."""
    return _mix((seed + (index + 1) * GOLDEN) & MASK64)


def normals(seed: int, count: int) -> list[float]:
    """`count` unit normals: Box-Muller, cosine first, sine cached."""
    state = seed & MASK64
    out: list[float] = []
    while len(out) < count:
        state = (state + GOLDEN) & MASK64
        u1 = ((_mix(state) >> 11) + 1) * 2.0 ** -53
        state = (state + GOLDEN) & MASK64
        u2 = (_mix(state) >> 11) * 2.0 ** -53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return out[:count]


def ginibre(seed: int, rows: int, cols: int) -> np.ndarray:
    """Complex Gaussian matrix filled row-major, real part before imaginary."""
    g = normals(seed, 2 * rows * cols)
    return np.array([complex(g[2 * k], g[2 * k + 1]) for k in range(rows * cols)]
                    ).reshape(rows, cols)


def density(seed: int, kind: str) -> np.ndarray:
    """random_density's draw for `kind`, rebuilt from the spec."""
    cols = {"hilbert_schmidt": 4, "pure_haar": 1, "rank_1": 1, "rank_2": 2,
            "rank_3": 3, "rank_4": 4}[kind]
    g = ginibre(seed, 4, cols)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def unitary(seed: int) -> np.ndarray:
    """random_unitary's draw: QR of a 4x4 Ginibre matrix, phases fixed by R."""
    q, r = np.linalg.qr(ginibre(seed, 4, 4))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def unitarity_residual(u: np.ndarray) -> float:
    return float(np.abs(u.conj().T @ u - np.eye(4)).max())


def off_x_mass(m: np.ndarray) -> float:
    return max(abs(m[i, j]) for i, j in OFF_X)


def x_density(p) -> np.ndarray:
    """Density matrix of X parameters p, from the chart formulas."""
    st2, ct2 = math.sin(p.theta) ** 2, math.cos(p.theta) ** 2
    sp2, cp2 = math.sin(p.phi) ** 2, math.cos(p.phi) ** 2
    ss2, cs2 = math.sin(p.psi) ** 2, math.cos(p.psi) ** 2
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1] = ct2, st2 * cp2
    m[2, 2], m[3, 3] = st2 * sp2 * cs2, st2 * sp2 * ss2
    m[0, 3] = math.sqrt(max(p.x, 0.0)) * np.exp(1j * p.mu)
    m[1, 2] = math.sqrt(max(p.y, 0.0)) * np.exp(1j * p.nu)
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def xparams_problem(p, constraint: str) -> str:
    """"" when p is a physical X-state meeting `constraint`, else the reason."""
    half_pi, two_pi = 0.5 * math.pi, 2.0 * math.pi
    if not all(-PHYS_SLACK <= v <= half_pi + PHYS_SLACK for v in (p.theta, p.phi, p.psi)):
        return "angle outside [0, pi/2]"
    if not all(-PHYS_SLACK <= v <= two_pi + PHYS_SLACK for v in (p.mu, p.nu)):
        return "phase outside [0, 2 pi]"
    if p.x < -PHYS_SLACK or p.y < -PHYS_SLACK:
        return "negative coherence weight"
    m = x_density(p)
    evals = np.linalg.eigvalsh(m)
    if abs(np.trace(m).real - 1.0) > TRACE_TOL or evals.min() < -PSD_TOL:
        return "not a density matrix"
    outer_gap = abs(m[0, 3]) ** 2 - (m[1, 1] * m[2, 2]).real
    inner_gap = abs(m[1, 2]) ** 2 - (m[0, 0] * m[3, 3]).real
    if constraint == "entangled" and max(outer_gap, inner_gap) <= 0.0:
        return "not entangled"
    if constraint == "separable" and max(outer_gap, inner_gap) > PHYS_SLACK:
        return "not separable"
    if constraint.startswith("rank_"):
        want = int(constraint.split("_")[1])
        got = int((evals > RANK_TOL).sum())
        if got != want:
            return f"rank {got}, wanted {want}"
    return ""


def density_problem(m: np.ndarray, rank: int | None) -> str:
    """"" when m is a 4x4 density matrix (of `rank`, if given), else the reason."""
    if m.shape != (4, 4) or not np.isfinite(m).all():
        return "not a finite 4x4 matrix"
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
        return "not Hermitian"
    if abs(np.trace(m) - 1.0) > TRACE_TOL:
        return "trace differs from 1"
    evals = np.linalg.eigvalsh(m)
    if evals.min() < -PSD_TOL:
        return "negative eigenvalue"
    if rank is not None and int((evals > RANK_TOL).sum()) != rank:
        return f"rank differs from {rank}"
    return ""
