"""Entanglement and mixedness measures.

Purity, concurrence (general and X-specialized), entanglement of
formation, negativity (general and X-specialized), and a continuity
bound for the relative entropy of entanglement. X-specialized forms are
closed-form in the matrix entries and agree with the general routes to
within matrix_core.SOLVER_TOL on valid inputs. The general routes raise
ValueError for a non-finite entry, the X-form routes for a non-finite
entry they read.
"""

from __future__ import annotations

import math

import numpy as np

from .matrix_core import (
    EIG_FLOOR,
    NON_FINITE,
    ROUNDOFF,
    Spectrum,
    as_matrix,
    hermitian_eig,
    partial_transpose,
    trace_norm,
)
from .xstate import (
    NotXFormError,
    UnphysicalError,
    XParams,
    coeffs,
    is_physical,
    is_x_form,
    partial_transpose_lows,
)

# (sigma_y (x) sigma_y): real, anti-diagonal (-1, 1, 1, -1)
SPIN_FLIP = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


class OutOfRegimeError(ValueError):
    """Continuity bound requested outside its validity region."""


def floored(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues with those at or below EIG_FLOOR set to exactly 0."""
    return np.where(vals > EIG_FLOOR, vals, 0.0)


def purity_general(rho) -> float:
    """tr rho^2, in [1/4, 1] for a valid state."""
    m = as_matrix(rho)
    purity = float((m @ m).trace().real)
    if not math.isfinite(purity):
        raise ValueError(NON_FINITE)
    return purity


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


def concurrence_x(rho) -> float:
    """Closed-form concurrence for X-form input.

    2 max[0, |inner coherence| - sqrt(d1 d4), |outer coherence| - sqrt(d2 d3)].

    Reads the diagonal and the lower coherences (2,1) and (3,0), and
    raises ValueError for a non-finite one; a non-finite entry it does
    not read goes unchecked, as does any asymmetry of a non-Hermitian
    input.
    """
    m = as_matrix(rho)
    if not is_x_form(m):
        raise NotXFormError("concurrence_x requires an X-form matrix")
    d1, d2, d3, d4 = (m[i, i].real for i in range(4))
    h = d4 * d1
    g = d3 * d2
    inner = abs(m[2, 1]) - np.sqrt(max(h, 0.0))
    outer = abs(m[3, 0]) - np.sqrt(max(g, 0.0))
    # the products too: max(-inf, 0.0) would hide a diagonal -inf
    if not math.isfinite(inner + outer + h + g):
        raise ValueError(NON_FINITE)
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
    try:
        lowest = float(np.linalg.eigvalsh(pt).min())
    except np.linalg.LinAlgError:
        lowest = math.nan
    # a non-finite entry ends here as LinAlgError, NaN or inf; max(0.0, nan) is 0.0
    if not math.isfinite(lowest):
        raise ValueError(NON_FINITE)
    return max(0.0, -lowest)


def negativity_x(rho) -> float:
    """Closed-form negativity for X-form input.

    -min(0, t1, t2) for the lower partial-transpose eigenvalues of
    xstate.partial_transpose_lows, with b = d2 + d3, c = d1 + d4,
    g_low = d2 - d3, h_low = d1 - d4, x = |outer|^2 and y = |inner|^2.

    Reads the diagonal and the lower coherences (2,1) and (3,0), and
    raises ValueError for a non-finite one; a non-finite entry it does
    not read goes unchecked, as does any asymmetry of a non-Hermitian
    input.
    """
    m = as_matrix(rho)
    if not is_x_form(m):
        raise NotXFormError("negativity_x requires an X-form matrix")
    d1, d2, d3, d4 = (m[i, i].real for i in range(4))
    t1, t2 = partial_transpose_lows(d2 + d3, d1 + d4, d2 - d3, d1 - d4,
                                    abs(m[3, 0]) ** 2, abs(m[2, 1]) ** 2)
    if not math.isfinite(t1 + t2):
        raise ValueError(NON_FINITE)
    return float(-min(0.0, t1, t2) + 0.0)


def fannes_ree_bound(rho1, rho2) -> float:
    """Continuity bound on the relative entropy of entanglement.

    For trace distance t = ||rho1 - rho2||_tr <= 1/3 the difference of the
    two relative entropies of entanglement is at most 8t - 2t log2(t).
    """
    t = trace_norm(as_matrix(rho1) - as_matrix(rho2))
    if t > 1.0 / 3.0 + ROUNDOFF:
        raise OutOfRegimeError(f"trace distance {t:.6g} exceeds 1/3")
    if t <= 0.0:
        return 0.0
    return float(8.0 * t - 2.0 * t * np.log2(t))
