"""Entanglement and mixedness measures.

Purity, concurrence (general and X-specialized), entanglement of
formation, negativity (general and X-specialized), and a continuity
bound for the relative entropy of entanglement. X-specialized forms are
closed-form in the matrix entries and agree with the general routes to
1e-10 on valid inputs.
"""

from __future__ import annotations

import numpy as np

from .matrix_core import Spectrum, as_matrix, hermitian_eig, partial_transpose, trace_norm
from .xstate import DEFAULT_TOL, NotXFormError, XParams, coeffs, is_physical, is_x_form
from .xstate import UnphysicalError

# (sigma_y (x) sigma_y): real, anti-diagonal (-1, 1, 1, -1)
SPIN_FLIP = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])

# eigenvalues at or below this are eigensolver noise on a unit-trace 4x4
# matrix; their square roots would otherwise reach the spin-flip roots
EIG_FLOOR = 4.0 * np.finfo(float).eps


class OutOfRegimeError(ValueError):
    """Continuity bound requested outside its validity region."""


def floored(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues with those at or below EIG_FLOOR set to exactly 0."""
    return np.where(vals > EIG_FLOOR, vals, 0.0)


def purity_general(rho) -> float:
    """tr rho^2, in [1/4, 1] for a valid state."""
    m = as_matrix(rho)
    return float((m @ m).trace().real)


def purity_x(p: XParams) -> float:
    """Closed-form purity 1 - 2(BC + G - y + H - x) in the derived scalars."""
    if not is_physical(p):
        raise UnphysicalError("purity_x requires physical parameters")
    co = coeffs(p)
    return 1.0 - 2.0 * (co.b_cal * co.c_cal + co.g_cal - p.y + co.h_cal - p.x)


def concurrence_from_eig(spec: Spectrum) -> float:
    """Concurrence of the state with eigendecomposition spec.

    With K = sqrt(rho) (sy x sy) sqrt(rho)*, the Hermitian product
    K K^dagger equals sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), so
    the decreasing singular values of K are the four roots entering the
    concurrence. Taking them from an SVD keeps vanishing roots at
    absolute round-off instead of the square root of eigenvalue noise.
    """
    s = (spec.eigvecs * np.sqrt(floored(spec.values))) @ spec.eigvecs.conj().T
    k = s @ SPIN_FLIP @ s.conj()
    roots = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def concurrence_general(rho) -> float:
    """Concurrence via the spin-flipped product; see concurrence_from_eig."""
    return concurrence_from_eig(hermitian_eig(rho))


def concurrence_x(rho, tol: float = DEFAULT_TOL) -> float:
    """Closed-form concurrence for X-form input.

    2 max[0, |inner coherence| - sqrt(d1 d4), |outer coherence| - sqrt(d2 d3)].
    """
    m = as_matrix(rho)
    if not is_x_form(m, tol):
        raise NotXFormError("concurrence_x requires an X-form matrix")
    d1, d2, d3, d4 = (m[i, i].real for i in range(4))
    inner = abs(m[2, 1]) - np.sqrt(max(d4 * d1, 0.0))
    outer = abs(m[3, 0]) - np.sqrt(max(d3 * d2, 0.0))
    return float(2.0 * max(0.0, inner, outer))


def binary_entropy(t: float) -> float:
    """-t log2 t - (1-t) log2 (1-t), with the 0 log 0 = 0 convention."""
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-t * np.log2(t) - (1.0 - t) * np.log2(1.0 - t))


def eof(rho) -> float:
    """Entanglement of formation: binary entropy of (1 + sqrt(1 - C^2))/2."""
    c = concurrence_general(rho)
    return binary_entropy(0.5 * (1.0 + np.sqrt(max(1.0 - c * c, 0.0))))


def negativity_general(rho) -> float:
    """Minus the smallest partial-transpose eigenvalue, floored at 0."""
    pt = partial_transpose(as_matrix(rho))
    return float(max(0.0, -np.linalg.eigvalsh(pt).min()))


def negativity_x(rho, tol: float = DEFAULT_TOL) -> float:
    """Closed-form negativity for X-form input.

    The partial transpose swaps the two coherences, so its eigenvalue
    pairs mix each diagonal block with the opposite coherence:

        t1 = (d2 + d3)/2 - sqrt(((d2 - d3)/2)^2 + |outer|^2)
        t2 = (d1 + d4)/2 - sqrt(((d1 - d4)/2)^2 + |inner|^2)

    and the negativity is -min(0, t1, t2).
    """
    m = as_matrix(rho)
    if not is_x_form(m, tol):
        raise NotXFormError("negativity_x requires an X-form matrix")
    d1, d2, d3, d4 = (m[i, i].real for i in range(4))
    t1 = 0.5 * (d2 + d3) - np.sqrt((0.5 * (d2 - d3)) ** 2 + abs(m[3, 0]) ** 2)
    t2 = 0.5 * (d1 + d4) - np.sqrt((0.5 * (d1 - d4)) ** 2 + abs(m[2, 1]) ** 2)
    return float(-min(0.0, t1, t2) + 0.0)


def fannes_ree_bound(rho1, rho2) -> float:
    """Continuity bound on the relative entropy of entanglement.

    For trace distance t = ||rho1 - rho2||_tr <= 1/3 the difference of the
    two relative entropies of entanglement is at most 8t - 2t log2(t).
    """
    t = trace_norm(as_matrix(rho1) - as_matrix(rho2))
    if t > 1.0 / 3.0 + 1e-12:
        raise OutOfRegimeError(f"trace distance {t:.6g} exceeds 1/3")
    if t <= 0.0:
        return 0.0
    return float(8.0 * t - 2.0 * t * np.log2(t))
