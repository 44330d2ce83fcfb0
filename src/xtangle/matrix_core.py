"""Fixed-size complex linear algebra for 4x4 matrices.

Validation, eigendecomposition, partial transpose, trace norm and unitary
conjugation, with the tolerances used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10

# looser gate for eigendecomposition inputs (accepts conjugation round-off)
EIG_HERMITIAN_TOL = 1e-10


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
        return "non-finite entry"
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
        return "not Hermitian"
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        return f"trace {tr:.17g} differs from 1"
    return ""


def _psd_problem(lowest: float, tol: float) -> str:
    """Positive semidefiniteness from the smallest eigenvalue; "" when it holds."""
    if lowest < -max(tol, PSD_TOL):
        return f"negative eigenvalue {lowest:.3e}"
    return ""


def is_density_matrix(a, tol: float = PSD_TOL) -> tuple[bool, str]:
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


def hermitian_eig(a) -> Spectrum:
    """Eigendecomposition of a Hermitian 4x4 matrix, sorted non-ascending.

    Ties are broken by the solver's deterministic output order; each
    eigenvector's first component of magnitude > 1e-12 is rotated to the
    positive real axis so repeated calls give identical columns.
    """
    m = as_matrix(a)
    if np.abs(m - m.conj().T).max() > EIG_HERMITIAN_TOL:
        raise NonHermitianError("matrix is not Hermitian within 1e-10")
    m = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    # a unit column always has an entry of magnitude >= 1/2, so lead != 0
    lead = vecs[(np.abs(vecs) > 1e-12).argmax(axis=0), np.arange(4)]
    return Spectrum(values=vals, eigvecs=vecs / (lead / np.abs(lead)))


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
    why = _psd_problem(spec.values[-1], PSD_TOL)
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
    return float(np.linalg.svd(m, compute_uv=False).sum())


def is_unitary(u, tol: float = UNITARY_TOL) -> bool:
    """True iff u'u = I within tol."""
    m = as_matrix(u)
    return bool(np.abs(m.conj().T @ m - np.eye(4)).max() <= tol)


def conjugate(rho, u) -> np.ndarray:
    """Unitary conjugation u rho u'. Preserves the spectrum."""
    r = as_matrix(rho)
    m = as_matrix(u)
    return m @ r @ m.conj().T
