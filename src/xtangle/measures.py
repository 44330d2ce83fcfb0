"""Entanglement and mixedness measures.

Purity, concurrence (general and X-specialized), entanglement of
formation, negativity (general and X-specialized), and a continuity
bound for the relative entropy of entanglement. X-specialized forms are
closed-form in the matrix entries and agree with the general routes to
within matrix_core.SOLVER_TOL on valid inputs. Every route raises
ValueError for a non-finite entry.
"""

from __future__ import annotations

import math

import numpy as np

from .matrix_core import (
    EIG_FLOOR,
    NON_FINITE,
    _hermitian_matrix,
    _read_edge,
    as_matrix,
    hermitian_eig,
    partial_transpose,
    trace_norm,
)
from .xstate import (
    XParams,
    _physical_coeffs,
    _x_entries,
    block_eigvals,
    partial_transpose_lows,
)

__all__ = ["OutOfRegimeError", "binary_entropy", "concurrence_general", "concurrence_x", "eof",
           "fannes_ree_bound", "negativity_general", "negativity_x", "purity_general",
           "purity_x"]

# (sigma_y (x) sigma_y) is real and anti-diagonal (-1, 1, 1, -1), so a
# product s (sigma_y (x) sigma_y) is s with its columns reversed, times
# these. Stored complex, as numpy casts real factors of a complex product
# anyway: the same bits without the cast.
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0], dtype=complex)


class OutOfRegimeError(ValueError):
    """Continuity bound requested outside its validity region."""


def floored(vals: np.ndarray) -> list[float]:
    """Eigenvalues as a list of floats, those at or below EIG_FLOOR set to exactly 0."""
    return [v if v > EIG_FLOOR else 0.0 for v in vals.tolist()]


def purity_general(rho) -> float:
    """tr rho^2, in [1/4, 1] for a valid state.

    Behind hermitian_eig's gate: ValueError for a non-finite entry,
    NonHermitianError for asymmetry above SOLVER_TOL.
    """
    m = _hermitian_matrix(rho)
    purity = float((m @ m).trace().real)
    if not math.isfinite(purity):
        raise ValueError(NON_FINITE)
    return purity


def purity_x(p: XParams) -> float:
    """Closed-form purity 1 - 2(BC + G - y + H - x) in the derived scalars."""
    co, _, x, y = _physical_coeffs(p)
    return 1.0 - 2.0 * (co.b_cal * co.c_cal + co.g_cal - y + co.h_cal - x)


def concurrence_from_eig(values: list[float], eigvecs: np.ndarray) -> float:
    """Concurrence of the state with eigenvalues values, already floored
    (see floored), and matching eigenvector columns eigvecs.

    With K = sqrt(rho) (sy x sy) sqrt(rho)*, the Hermitian product
    K K^dagger equals sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), so
    the decreasing singular values of K are the four roots entering the
    concurrence (Wootters, PRL 80, 2245 (1998)). Taking them from an SVD
    keeps vanishing roots at absolute round-off instead of the square
    root of eigenvalue noise.
    """
    roots = np.array([math.sqrt(v) for v in values], dtype=complex)
    s = (eigvecs * roots) @ eigvecs.conj().T
    k = (s[:, ::-1] * _FLIP_SIGNS) @ s.conj()
    r1, r2, r3, r4 = np.linalg.svd(k, compute_uv=False).tolist()
    return max(0.0, r1 - r2 - r3 - r4)


def concurrence_general(rho) -> float:
    """Concurrence via the spin-flipped product; see concurrence_from_eig."""
    spec = hermitian_eig(rho)
    return concurrence_from_eig(floored(spec.values), spec.eigvecs)


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


def concurrence_x(rho) -> float:
    """Closed-form concurrence for X-form input.

    2 max[0, |rho_23| - sqrt(d1 d4), |rho_14| - sqrt(d2 d3)], with each
    2x2 block's eigenvalues at or below EIG_FLOOR taken as 0, the floor
    concurrence_from_eig applies to a spectrum (see _floored_block):
    without it a rank-deficient state's sqrt(d1 d4) reads the square
    root of diagonal round-off.

    Reads the matrix through xstate._x_entries: ValueError for any
    non-finite entry, NotXFormError for an off-X entry above DEFAULT_TOL,
    NonHermitianError for a coherence pair asymmetric beyond SOLVER_TOL;
    the coherences are the upper ones (0,3) and (1,2).
    """
    d1, d2, d3, d4, rho_14, rho_23 = _x_entries(rho)
    outer, root_14 = _floored_block(d1, d4, abs(rho_14))
    inner, root_23 = _floored_block(d2, d3, abs(rho_23))
    return 2.0 * max(0.0, inner - root_14, outer - root_23)


def binary_entropy(t: float) -> float:
    """-t log2 t - (1-t) log2 (1-t), with 0 log 0 = 0; ValueError for a non-finite t."""
    if not math.isfinite(t):
        raise ValueError(NON_FINITE)
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return float(-t * np.log2(t) - (1.0 - t) * np.log2(1.0 - t))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a two-qubit state of concurrence c:
    the binary entropy of (1 + sqrt(1 - c^2))/2.

    c is read on [0, 1] through matrix_core._read_edge: a value within
    ROUNDOFF outside reads as the edge; any other, NaN included, raises
    ValueError.
    """
    c = _read_edge(c, 0.0, 1.0, ValueError, "concurrence {value!r} outside [0, 1]")
    return binary_entropy(0.5 * (1.0 + np.sqrt(1.0 - c * c)))


def eof(rho) -> float:
    """Entanglement of formation; see eof_from_concurrence."""
    return eof_from_concurrence(concurrence_general(rho))


def negativity_general(rho) -> float:
    """Minus the smallest partial-transpose eigenvalue, floored at 0.

    Behind hermitian_eig's gate: ValueError for a non-finite entry,
    NonHermitianError for asymmetry above SOLVER_TOL; the eigensolver
    would read only one triangle of a non-Hermitian matrix.
    """
    return _pt_negativity(_hermitian_matrix(rho))


def _pt_negativity(m: np.ndarray) -> float:
    """negativity_general of a 4x4 matrix that has passed its gate."""
    lowest = float(np.linalg.eigvalsh(partial_transpose(m)).min())
    # finite entries near the float maximum can overflow; max(0.0, nan) is 0.0
    if not math.isfinite(lowest):
        raise ValueError(NON_FINITE)
    return max(0.0, -lowest)


def negativity_x(rho) -> float:
    """Closed-form negativity for X-form input.

    -min(0, t1, t2) for the lower partial-transpose eigenvalues of
    xstate.partial_transpose_lows, with b = d2 + d3, c = d1 + d4,
    g_low = d2 - d3, h_low = d1 - d4, x = |rho_14|^2 and y = |rho_23|^2.

    Reads the matrix through xstate._x_entries: ValueError for any
    non-finite entry, NotXFormError for an off-X entry above DEFAULT_TOL,
    NonHermitianError for a coherence pair asymmetric beyond SOLVER_TOL;
    the coherences are the upper ones (0,3) and (1,2).
    """
    d1, d2, d3, d4, rho_14, rho_23 = _x_entries(rho)
    t1, t2 = partial_transpose_lows(d2 + d3, d1 + d4, d2 - d3, d1 - d4,
                                    abs(rho_14) ** 2, abs(rho_23) ** 2)
    return float(-min(0.0, t1, t2) + 0.0)


def fannes_ree_bound(rho1, rho2) -> float:
    """Continuity bound on the relative entropy of entanglement.

    For trace distance t = ||rho1 - rho2||_tr <= 1/3 the difference of the
    two relative entropies of entanglement is at most 8t - 2t log2(t); a
    t within ROUNDOFF above 1/3 reads as 1/3.
    """
    t = _read_edge(trace_norm(as_matrix(rho1) - as_matrix(rho2)), 0.0, 1.0 / 3.0,
                   OutOfRegimeError, "trace distance {value:.6g} exceeds 1/3")
    if t <= 0.0:
        return 0.0
    return float(8.0 * t - 2.0 * t * np.log2(t))
