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
    _physical_coeffs,
    block_eigvals,
    is_x_form,
    partial_transpose_lows,
)

# (sigma_y (x) sigma_y) is real and anti-diagonal (-1, 1, 1, -1), so a
# product s (sigma_y (x) sigma_y) is s with its columns reversed, times these
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


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
    try:
        co, _ = _physical_coeffs(p)
    except UnphysicalError:
        raise UnphysicalError("purity_x requires physical parameters") from None
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
    k = (s[:, ::-1] * _FLIP_SIGNS) @ s.conj()
    roots = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def concurrence_general(rho) -> float:
    """Concurrence via the spin-flipped product; see concurrence_from_eig."""
    return concurrence_from_eig(hermitian_eig(rho))


def _floored_block(d_a: float, d_b: float, c: float) -> tuple[float, float]:
    """(coherence, sqrt(d_a d_b)) of the block [[d_a, c], [c*, d_b]], |c| = c,
    with its eigenvalues (xstate.block_eigvals) floored at EIG_FLOOR as
    concurrence_from_eig floors a spectrum.

    A floored lower eigenvalue leaves the rank-1 part lam+ v v^dagger,
    whose coherence and diagonal root are both lam+ |v_a v_b| = lam+ c /
    (lam+ - lam-), because (lam+ - d_a)(lam+ - d_b) = c^2. Unfloored,
    that root is the square root of diagonal round-off.
    """
    hi, lo = block_eigvals(d_a, d_b, c)
    if lo > EIG_FLOOR:
        return c, math.sqrt(max(d_a * d_b, 0.0))
    if hi <= EIG_FLOOR:
        return 0.0, 0.0
    root = hi * c / (hi - lo)
    return root, root


def _x_concurrence(d1: float, d2: float, d3: float, d4: float,
                   outer: float, inner: float) -> float:
    """Concurrence of the X-state with diagonal d1..d4 and coherence
    magnitudes outer = |rho_14|, inner = |rho_23|; see concurrence_x.
    """
    outer, root_14 = _floored_block(d1, d4, outer)
    inner, root_23 = _floored_block(d2, d3, inner)
    return 2.0 * max(0.0, inner - root_14, outer - root_23)


def concurrence_x(rho) -> float:
    """Closed-form concurrence for X-form input.

    2 max[0, |inner coherence| - sqrt(d1 d4), |outer coherence| - sqrt(d2 d3)],
    with each 2x2 block's eigenvalues at or below EIG_FLOOR taken as 0,
    the floor concurrence_from_eig applies to a spectrum (see
    _floored_block): without it a rank-deficient state's sqrt(d1 d4)
    reads the square root of diagonal round-off.

    Reads the diagonal and the lower coherences (2,1) and (3,0), and
    raises ValueError for a non-finite one; a non-finite entry it does
    not read goes unchecked, as does any asymmetry of a non-Hermitian
    input.
    """
    m = as_matrix(rho)
    if not is_x_form(m):
        raise NotXFormError("concurrence_x requires an X-form matrix")
    d1, d2, d3, d4 = m.diagonal().real.tolist()
    outer, inner = float(abs(m[3, 0])), float(abs(m[2, 1]))
    if not math.isfinite(d1 + d2 + d3 + d4 + outer + inner):
        raise ValueError(NON_FINITE)
    return _x_concurrence(d1, d2, d3, d4, outer, inner)


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
    return _x_negativity(d1, d2, d3, d4, abs(m[3, 0]) ** 2, abs(m[2, 1]) ** 2)


def _x_negativity(d1: float, d2: float, d3: float, d4: float,
                  x: float, y: float) -> float:
    """Negativity of the X-state with diagonal d1..d4 and squared coherences
    x = |rho_14|^2, y = |rho_23|^2; ValueError if it is not finite.
    """
    t1, t2 = partial_transpose_lows(d2 + d3, d1 + d4, d2 - d3, d1 - d4, x, y)
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
