"""Entanglement and mixedness measures.

Purity, concurrence (general and X-specialized), entanglement of
formation, negativity (general and X-specialized), and a continuity
bound for the relative entropy of entanglement. X-specialized forms are
closed-form in the matrix entries and agree with the general routes to
within matrix_core.SOLVER_TOL on valid inputs. Every route raises
ValueError for a non-finite or out-of-scale input (see
matrix_core._scale_problem).
"""

from __future__ import annotations

import math

import numpy as np

from .matrix_core import (
    EIG_FLOOR,
    NON_FINITE,
    Spectrum,
    _PT_INDEX,
    _eigvalsh,
    _hermitian_read,
    _numpy_non_real,
    _read,
    _read_edge,
    _svdvals,
    _trace_norm,
    hermitian_eig,
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


def floored(vals: list[float]) -> list[float]:
    """The eigenvalues vals, a list of floats (a spectrum's
    values.tolist()), with those at or below EIG_FLOOR set to exactly 0."""
    return [v if v > EIG_FLOOR else 0.0 for v in vals]


def purity_general(rho) -> float:
    """tr rho^2, in [1/4, 1] for a valid state.

    Behind hermitian_eig's gate: ValueError for a non-finite or
    out-of-scale input, NonHermitianError for asymmetry above SOLVER_TOL.
    """
    return _purity(_hermitian_read(rho)[0])


def _purity(m: np.ndarray) -> float:
    """purity_general of a 4x4 matrix that has passed its gate, unread."""
    return float(m.dot(m).trace().real)


def purity_x(p: XParams) -> float:
    """Closed-form purity 1 - 2(BC + G - y + H - x) in the derived scalars."""
    co, _, x, y = _physical_coeffs(p)
    return 1.0 - 2.0 * (co.b_cal * co.c_cal + co.g_cal - y + co.h_cal - x)


def concurrence_from_eig(values: list[float], eigvecs: np.ndarray,
                         adjoint: np.ndarray) -> float:
    """Concurrence of the state with eigenvalues values, already floored
    (see floored), matching eigenvector columns eigvecs, and their
    adjoint eigvecs^dagger as the caller holds it. The eigenpairs are
    hermitian_eig's: one eigh of the state as given when it equals its
    adjoint exactly, otherwise of its Hermitian part.

    With K = sqrt(rho) (sy x sy) sqrt(rho)*, the Hermitian product
    K K^dagger equals sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho), so
    the decreasing singular values of K are the four roots entering the
    concurrence (Wootters, PRL 80, 2245 (1998)). Taking them from an SVD
    keeps vanishing roots at absolute round-off instead of the square
    root of eigenvalue noise.
    """
    roots = np.array([math.sqrt(v) for v in values], dtype=complex)
    s = (eigvecs * roots).dot(adjoint)
    k = (s[:, ::-1] * _FLIP_SIGNS).dot(s.conj())
    r1, r2, r3, r4 = _svdvals(k).tolist()
    return max(0.0, r1 - r2 - r3 - r4)


def concurrence_general(rho) -> float:
    """Concurrence via the spin-flipped product; see concurrence_from_eig."""
    return _spectrum_concurrence(hermitian_eig(rho))


def _spectrum_concurrence(spec: Spectrum) -> float:
    """Concurrence of the state whose solved spectrum is spec
    (hermitian_eig's or density_spectrum's): concurrence_from_eig of its
    floored values, its eigenvectors and their adjoint."""
    return concurrence_from_eig(floored(spec.values.tolist()), spec.eigvecs,
                                spec.eigvecs.conj().T)


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

    Reads the matrix through xstate._x_entries: ValueError for a
    non-finite or out-of-scale input, NotXFormError for an off-X entry
    above DEFAULT_TOL, NonHermitianError for a coherence pair or a
    diagonal entry non-Hermitian beyond SOLVER_TOL; the coherences are
    the upper ones (0,3) and (1,2).
    """
    return _concurrence_of(*_x_entries(rho))


def _concurrence_of(d1, d2, d3, d4, rho_14, rho_23) -> float:
    """concurrence_x of the X entries (xstate._x_entries' tuple), not read."""
    outer, root_14 = _floored_block(d1, d4, abs(rho_14))
    inner, root_23 = _floored_block(d2, d3, abs(rho_23))
    return 2.0 * max(0.0, inner - root_14, outer - root_23)


def binary_entropy(t: float) -> float:
    """-t log2 t - (1-t) log2 (1-t), with 0 log 0 = 0; ValueError for a t
    that is non-finite or a Python int too large for a float (NON_FINITE)
    or not a real number (naming it), a complex numpy value included,
    which math.isfinite takes as its real part with a ComplexWarning."""
    if type(t) is not float and _numpy_non_real(t):
        raise ValueError(f"probability {t!r} is not a real number")
    try:
        if not math.isfinite(t):
            raise ValueError(NON_FINITE)
    except OverflowError:
        raise ValueError(NON_FINITE) from None
    except TypeError:
        raise ValueError(f"probability {t!r} is not a real number") from None
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

    Behind hermitian_eig's gate: ValueError for a non-finite or
    out-of-scale input, NonHermitianError for asymmetry above SOLVER_TOL;
    the eigensolver would read only one triangle of a non-Hermitian
    matrix.
    """
    return _pt_negativity(_hermitian_read(rho)[0])


def _pt_negativity(m: np.ndarray) -> float:
    """negativity_general of a 4x4 matrix that has passed its gate; its
    partial transpose is taken without partial_transpose's scale read.

    One values-only solve of the partial transpose of m as given, not of
    its Hermitian part: its first value, the solver's output being
    ascending, is the lowest."""
    return max(0.0, -_eigvalsh(m.take(_PT_INDEX)).item(0))


def negativity_x(rho) -> float:
    """Closed-form negativity for X-form input.

    -min(0, t1, t2) for the lower partial-transpose eigenvalues of
    xstate.partial_transpose_lows, with b = d2 + d3, c = d1 + d4,
    g_low = d2 - d3, h_low = d1 - d4, x = |rho_14|^2 and y = |rho_23|^2.

    Reads the matrix through xstate._x_entries: ValueError for a
    non-finite or out-of-scale input, NotXFormError for an off-X entry
    above DEFAULT_TOL, NonHermitianError for a coherence pair or a
    diagonal entry non-Hermitian beyond SOLVER_TOL; the coherences are
    the upper ones (0,3) and (1,2).
    """
    return _negativity_of(*_x_entries(rho))


def _negativity_of(d1, d2, d3, d4, rho_14, rho_23) -> float:
    """negativity_x of the X entries (xstate._x_entries' tuple), not read."""
    t1, t2 = partial_transpose_lows(d2 + d3, d1 + d4, d2 - d3, d1 - d4,
                                    abs(rho_14) ** 2, abs(rho_23) ** 2, math.sqrt)
    return float(-min(0.0, t1, t2) + 0.0)


def fannes_ree_bound(rho1, rho2) -> float:
    """Continuity bound on the relative entropy of entanglement.

    For trace distance t = ||rho1 - rho2||_tr <= 1/3 the difference of the
    two relative entropies of entanglement is at most 8t - 2t log2(t); a
    t within ROUNDOFF above 1/3 reads as 1/3. Each argument is read once
    (matrix_core._read), and their difference, whose entry magnitudes sum
    to at most 2 ENTRY_SCALE, goes unread to the SVD.
    """
    # each read on its own: their difference can cancel an out-of-scale
    # pair, or meet inf - inf
    t = _read_edge(_trace_norm(_read(rho1)[0] - _read(rho2)[0]), 0.0, 1.0 / 3.0,
                   OutOfRegimeError, "trace distance {value:.6g} exceeds 1/3")
    if t <= 0.0:
        return 0.0
    return float(8.0 * t - 2.0 * t * np.log2(t))
