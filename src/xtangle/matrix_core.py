"""Fixed-size complex linear algebra for 4x4 matrices.

Validation, eigendecomposition, partial transpose, trace norm and unitary
conjugation, and the table of tolerances used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerances, one entry per role, all absolute. This is the only module
# that defines any; the others import the entries they use by name.

# Round-off slack on unit-scale inputs and bounds: the Hermiticity and
# unit-trace gates of a density matrix; the chart's positivity,
# separability and angle-range slack; the domain edges of the minimal-set
# scalars and constructions; tau's range [0, 1]; the snap of a walk
# target to its ceiling; the concurrence an "entangled" draw must exceed;
# the lead eigenvector component; the 1/3 edge of the continuity bound.
# About 4500 ulps of 1: room for the round-off of a short chain of
# products and square roots, far below any physical scale.
ROUNDOFF = 1e-12
# Gates on computed eigenvalues and matrix products: the PSD floor of a
# density matrix, unitarity, the Hermiticity hermitian_eig accepts (it
# takes conjugated states u rho u^dagger with their round-off asymmetry),
# and the CLI's PPT test on the negativity. 100 x ROUNDOFF, to leave room
# for the eigensolver's and the products' error on top of the input's.
SOLVER_TOL = 1e-10
# User-facing comparisons: the default tol of the X-form, chart and rank
# tests and of the CLI's --tol, which also gates the sweep's checks; the
# branch check of a walk solution against
# its state; the purity-1 test of the rank-1 constructions. Loose enough
# for quantities computed through several eigendecompositions.
DEFAULT_TOL = 1e-9
# Eigenvalues at or below this are eigensolver noise on a unit-trace 4x4
# matrix and are taken as exactly 0; their square roots would otherwise
# reach the concurrence's spin-flip roots.
EIG_FLOOR = 4.0 * np.finfo(float).eps
# Negative square-root arguments down to -SQRT_CLAMP in the minimal-set
# scalars are boundary round-off and clamp to 0; below that they raise.
SQRT_CLAMP = 1e-14
# A squared sine of the chart at or below this is a degenerate diagonal,
# whose remaining angles are set to 0.
DEGENERATE = 1e-15

# the reason given wherever a NaN or infinite entry is rejected
NON_FINITE = "non-finite entry"


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


def _entry_problem(m: np.ndarray) -> str:
    """Finiteness, Hermiticity and unit trace; "" when all hold."""
    if not np.isfinite(m).all():
        return NON_FINITE
    if np.abs(m - m.conj().T).max() > ROUNDOFF:
        return "not Hermitian"
    tr = m.trace()
    if abs(tr - 1.0) > ROUNDOFF:
        return f"trace {tr:.17g} differs from 1"
    return ""


def _psd_problem(lowest: float, tol: float) -> str:
    """Positive semidefiniteness from the smallest eigenvalue; "" when it holds."""
    if lowest < -max(tol, SOLVER_TOL):
        return f"negative eigenvalue {lowest:.3e}"
    return ""


def is_density_matrix(a, tol: float = SOLVER_TOL) -> tuple[bool, str]:
    """Check finiteness, Hermiticity, unit trace and positive semidefiniteness.

    Returns (ok, reason). reason is "" when ok, otherwise it names the
    failed check. Hermiticity and trace are held to fixed tight tolerances;
    tol only loosens the eigenvalue floor.
    """
    try:
        m = as_matrix(a)
    except ValueError as exc:
        return False, str(exc)
    why = _entry_problem(m) or _psd_problem(np.linalg.eigvalsh(m).min(), tol)
    return not why, why


def _hermitian_part(a) -> np.ndarray:
    """The symmetrised 4x4 matrix of a Hermitian input, the eigensolvers' entry gate.

    Raises ValueError for a non-finite entry and NonHermitianError for
    asymmetry above SOLVER_TOL.
    """
    m = as_matrix(a)
    # a non-finite entry makes dev NaN or inf, so one test gates both
    dev = np.abs(m - m.conj().T).max()
    if not dev <= SOLVER_TOL:
        if not np.isfinite(m).all():
            raise ValueError(NON_FINITE)
        raise NonHermitianError(f"matrix is not Hermitian within {SOLVER_TOL:g}")
    return 0.5 * (m + m.conj().T)


def hermitian_eig(a) -> Spectrum:
    """Eigendecomposition of a Hermitian 4x4 matrix, sorted non-ascending.

    Ties are broken by the solver's deterministic output order; each
    eigenvector's first component of magnitude > ROUNDOFF is rotated to
    the positive real axis so repeated calls give identical columns.
    Raises ValueError for a non-finite entry and NonHermitianError for
    asymmetry above SOLVER_TOL.
    """
    vals, vecs = np.linalg.eigh(_hermitian_part(a))
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    # a unit column always has an entry of magnitude >= 1/2, so lead != 0
    lead = vecs[(np.abs(vecs) > ROUNDOFF).argmax(axis=0), np.arange(4)]
    return Spectrum(values=vals, eigvecs=vecs / (lead / np.abs(lead)))


def hermitian_eigvals(a) -> np.ndarray:
    """The values of hermitian_eig(a), non-ascending, from a values-only solve.

    Same gate as hermitian_eig: ValueError for a non-finite entry,
    NonHermitianError for asymmetry above SOLVER_TOL.
    """
    return np.linalg.eigvalsh(_hermitian_part(a))[::-1]


def density_spectrum(a) -> Spectrum:
    """hermitian_eig of a density matrix, validated from that one eigensolve.

    Runs the checks of is_density_matrix at its default tolerance, the
    eigenvalue floor on the returned spectrum's smallest value, and raises
    ValueError naming the failed check.
    """
    m = as_matrix(a)
    why = _entry_problem(m)
    if why:
        raise ValueError(f"not a density matrix: {why}")
    spec = hermitian_eig(m)
    why = _psd_problem(spec.values[-1], SOLVER_TOL)
    if why:
        raise ValueError(f"not a density matrix: {why}")
    return spec


def partial_transpose(a) -> np.ndarray:
    """Transpose the second qubit: entry (2i+j, 2k+l) -> (2i+l, 2k+j)."""
    m = as_matrix(a)
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def trace_norm(a) -> float:
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|)."""
    m = as_matrix(a)
    # checked first: LAPACK prints argument errors for an infinite entry
    if not np.isfinite(m).all():
        raise ValueError(NON_FINITE)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def is_unitary(u, tol: float = SOLVER_TOL) -> bool:
    """True iff u'u = I within tol."""
    m = as_matrix(u)
    return bool(np.abs(m.conj().T @ m - np.eye(4)).max() <= tol)


def conjugate(rho, u) -> np.ndarray:
    """Unitary conjugation u rho u'. Preserves the spectrum."""
    r = as_matrix(rho)
    m = as_matrix(u)
    return m @ r @ m.conj().T
