"""Fixed-size complex linear algebra for 4x4 matrices.

Validation, eigendecomposition, partial transpose, trace norm and unitary
conjugation, and the table of tolerances used throughout the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NonHermitianError", "Spectrum", "as_matrix", "conjugate", "hermitian_eig",
           "hermitian_eigvals", "is_density_matrix", "is_unitary", "partial_transpose",
           "trace_norm"]

# Tolerances, one entry per role, all absolute. This is the only module
# that defines any; the others import the entries they use by name.

# Round-off slack on unit-scale inputs and bounds: the Hermiticity and
# unit-trace gates of a density matrix; the chart's positivity and
# angle-range slack; the snap of a walk target to its ceiling; the lead
# eigenvector component; and every closed range whose admitted
# out-of-range values read as its edge (_read_edge): the minimal-set
# domains, the chart's weights at 0, tau's range [0, 1], the walk target
# and the 1/3 edge of the continuity bound.
# About 4500 ulps of 1: room for the round-off of a short chain of
# products and square roots, far below any physical scale.
ROUNDOFF = 1e-12
# Gates on computed eigenvalues and matrix products: the PSD floor of a
# density matrix, unitarity, the Hermiticity hermitian_eig accepts (it
# takes conjugated states u rho u^dagger with their round-off asymmetry),
# the chart's separability test and the CLI's PPT test on the negativity,
# which are one rule. 100 x ROUNDOFF, to leave room for the eigensolver's
# and the products' error on top of the input's.
SOLVER_TOL = 1e-10
# User-facing comparisons: the default tol of the X-form, chart and
# rank/kind tests and of the CLI's --tol, which also gates the sweep's
# checks; the eigenvalue threshold of the numerical rank; the branch check
# of a walk solution against its state; the purity-1 test of the rank-1
# constructions. Loose enough for quantities computed through several
# eigendecompositions.
DEFAULT_TOL = 1e-9
# Eigenvalues at or below this are eigensolver noise on a unit-trace 4x4
# matrix and are taken as exactly 0; their square roots would otherwise
# reach the concurrence's spin-flip roots. The X-state concurrence floors
# the closed-form eigenvalues of its two 2x2 blocks the same way.
EIG_FLOOR = 4.0 * np.finfo(float).eps
# A squared sine of the chart at or below this is a degenerate diagonal,
# whose remaining angles are set to 0.
DEGENERATE = 1e-15

# the reason given wherever a NaN or infinite entry is rejected
NON_FINITE = "non-finite entry"


def _read_edge(value, lo, hi, error, message):
    """value on the closed range [lo, hi], the package's one edge rule.

    A value inside the range is returned as is; one within ROUNDOFF
    outside it reads as that edge. Anything else, NaN included, raises
    error(message.format(value=value, lo=lo, hi=hi)).
    """
    if lo <= value <= hi:
        return value
    if lo - ROUNDOFF <= value <= hi + ROUNDOFF:
        return lo if value < lo else hi
    raise error(message.format(value=value, lo=lo, hi=hi))


class NonHermitianError(ValueError):
    """Raised when an operation requiring a Hermitian matrix gets one that is not."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-ascending plus the matching eigenvector columns.

    values[i] pairs with eigvecs[:, i]; eigvecs is unitary.
    """

    values: np.ndarray
    eigvecs: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce to a complex 4x4 ndarray, rejecting any other shape."""
    m = np.asarray(a, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def _finite_entries(m: np.ndarray) -> list[complex] | None:
    """The 16 entries of a 4x4 matrix, row-major, from one tolist(); None
    if an entry is NaN or infinite.

    One isfinite on their sum; the entries one by one only when it fails,
    because finite entries near the float maximum can overflow the sum.
    The package's one finiteness read of a 4x4 matrix's entries in Python.
    """
    e = m.ravel().tolist()
    if not cmath.isfinite(sum(e)) and not all(map(cmath.isfinite, e)):
        return None
    return e


def _entry_gate(m: np.ndarray) -> tuple[float, complex] | None:
    """(Hermitian deviation, trace) of a 4x4 matrix, read in one tolist()
    by the shared finiteness read _finite_entries; None if an entry is
    NaN or infinite.

    The deviation is the largest entry of |m - m^dagger|: |e_ij - conj e_ji|
    over the six off-diagonal pairs and 2 |Im e_ii| on the diagonal. Python's
    complex abs can differ from numpy's in the last bit, which moves a
    verdict only for a deviation within an ulp of its tolerance. The trace
    is summed as numpy's pairwise sum does, (e_00 + e_11) + (e_22 + e_33)
    + 0, so it prints the same. The one entry gate of _entry_problem and
    _hermitian_part.
    """
    # finiteness first: max() drops a NaN that is not its first argument
    e = _finite_entries(m)
    if e is None:
        return None
    e00, e01, e02, e03, e10, e11, e12, e13, e20, e21, e22, e23, e30, e31, e32, e33 = e
    try:
        dev = max(abs(e01 - e10.conjugate()), abs(e02 - e20.conjugate()),
                  abs(e03 - e30.conjugate()), abs(e12 - e21.conjugate()),
                  abs(e13 - e31.conjugate()), abs(e23 - e32.conjugate()),
                  2.0 * abs(e00.imag), 2.0 * abs(e11.imag),
                  2.0 * abs(e22.imag), 2.0 * abs(e33.imag))
    except OverflowError:
        # abs() raises where numpy's elementwise form reads inf
        dev = math.inf
    return dev, (e00 + e11) + (e22 + e33) + 0j


def _entry_problem(m: np.ndarray) -> str:
    """Finiteness, Hermiticity and unit trace at ROUNDOFF; "" when all hold."""
    gate = _entry_gate(m)
    if gate is None:
        return NON_FINITE
    dev, tr = gate
    if dev > ROUNDOFF:
        return "not Hermitian"
    if abs(tr - 1.0) > ROUNDOFF:
        return f"trace {tr:.17g} differs from 1"
    return ""


def _psd_problem(lowest: float) -> str:
    """Positive semidefiniteness from the smallest eigenvalue; "" when it
    holds. A NaN or infinite one, as the eigensolver gives when entries
    near the float maximum overflow its arithmetic, fails as non-finite."""
    if lowest >= -SOLVER_TOL:
        return ""
    if not math.isfinite(lowest):
        return "non-finite eigenvalue"
    return f"negative eigenvalue {lowest:.3e}"


def is_density_matrix(a) -> tuple[bool, str]:
    """Check finiteness, Hermiticity, unit trace and positive semidefiniteness.

    Returns (ok, reason). reason is "" when ok, otherwise it names the
    failed check. Hermiticity and trace are held to ROUNDOFF, the lowest
    eigenvalue to -SOLVER_TOL.
    """
    try:
        m = as_matrix(a)
    except ValueError as exc:
        return False, str(exc)
    why = _entry_problem(m) or _psd_problem(np.linalg.eigvalsh(m).min())
    return not why, why


def _hermitian_gate(deviation: float) -> None:
    """NonHermitianError for an asymmetry |m - m^dagger| above SOLVER_TOL,
    the Hermiticity every route taking a Hermitian matrix accepts."""
    if deviation > SOLVER_TOL:
        raise NonHermitianError(f"matrix is not Hermitian within {SOLVER_TOL:g}")


def _hermitian_matrix(a) -> np.ndarray:
    """as_matrix(a) behind the entry gate of the Hermitian routes.

    Raises ValueError for a non-finite entry and NonHermitianError for
    asymmetry above SOLVER_TOL (see _entry_gate).
    """
    m = as_matrix(a)
    gate = _entry_gate(m)
    if gate is None:
        raise ValueError(NON_FINITE)
    _hermitian_gate(gate[0])
    return m


def _hermitian_part(a) -> np.ndarray:
    """The symmetrised 4x4 matrix of a Hermitian input, behind the
    eigensolvers' entry gate (_hermitian_matrix)."""
    m = _hermitian_matrix(a)
    return 0.5 * (m + m.conj().T)


def _sorted_eigh(m: np.ndarray) -> Spectrum:
    """hermitian_eig's solve and ordering, for an already symmetrised matrix.

    The columns are reversed once. Each one's lead entry is found in
    Python, from the first row alone when all four of its entries pass,
    and the phases are divided out in one numpy step: numpy's complex
    division differs from Python's in the last bits.
    """
    vals, vecs = np.linalg.eigh(m)
    vecs = vecs[:, ::-1]
    lead = vecs[0]
    if not min(map(abs, lead.tolist())) > ROUNDOFF:
        # a unit column always has an entry of magnitude >= 1/2
        lead = np.array([next(z for z in col if abs(z) > ROUNDOFF)
                         for col in vecs.T.tolist()])
    return Spectrum(values=vals[::-1], eigvecs=vecs / (lead / np.abs(lead)))


def hermitian_eig(a) -> Spectrum:
    """Eigendecomposition of a Hermitian 4x4 matrix, sorted non-ascending.

    One eigh of the symmetrised matrix. Ties are broken by the solver's
    deterministic output order; each eigenvector's first component of
    magnitude > ROUNDOFF is rotated to the positive real axis, in one
    division over the columns, so repeated calls give identical columns.
    Raises ValueError for a non-finite entry and NonHermitianError for
    asymmetry above SOLVER_TOL; the entries are read once, in Python (see
    _entry_gate).
    """
    return _sorted_eigh(_hermitian_part(a))


def hermitian_eigvals(a) -> np.ndarray:
    """The values of hermitian_eig(a), non-ascending, from a values-only solve.

    Same gate as hermitian_eig: ValueError for a non-finite entry,
    NonHermitianError for asymmetry above SOLVER_TOL.
    """
    return np.linalg.eigvalsh(_hermitian_part(a))[::-1]


def density_spectrum(a) -> Spectrum:
    """hermitian_eig of a density matrix, validated from that one eigensolve.

    Runs the checks of is_density_matrix and raises ValueError naming the
    failed check: the entry checks (finiteness, Hermiticity and unit
    trace at ROUNDOFF) from one read of the entries (_entry_gate), then
    the PSD floor on the returned spectrum's smallest value. Those entry
    checks are stricter than hermitian_eig's gate, so the symmetrised
    matrix goes to the solve without that gate. The values and vectors
    are those of hermitian_eig(a), bit for bit.
    """
    m = as_matrix(a)
    why = _entry_problem(m)
    if why:
        raise ValueError(f"not a density matrix: {why}")
    spec = _sorted_eigh(0.5 * (m + m.conj().T))
    why = _psd_problem(spec.values[-1])
    if why:
        raise ValueError(f"not a density matrix: {why}")
    return spec


# flat indices of the partial transpose: entry (2i+j, 2k+l) <- (2i+l, 2k+j)
_PT_INDEX = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_transpose(a) -> np.ndarray:
    """Transpose the second qubit: entry (2i+j, 2k+l) -> (2i+l, 2k+j)."""
    return as_matrix(a).take(_PT_INDEX)


def trace_norm(a) -> float:
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|)."""
    m = as_matrix(a)
    # checked first: LAPACK prints argument errors for an infinite entry
    if not np.isfinite(m).all():
        raise ValueError(NON_FINITE)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def is_unitary(u) -> bool:
    """True iff u'u = I within SOLVER_TOL."""
    m = as_matrix(u)
    return bool(np.abs(m.conj().T @ m - np.eye(4)).max() <= SOLVER_TOL)


def conjugate(rho, u) -> np.ndarray:
    """Unitary conjugation u rho u'. Preserves the spectrum; rejects a non-finite entry."""
    r = as_matrix(rho)
    m = as_matrix(u)
    if _finite_entries(r) is None or _finite_entries(m) is None:
        raise ValueError(NON_FINITE)
    return m @ r @ m.conj().T
