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


def is_density_matrix(a, tol: float = PSD_TOL) -> tuple[bool, str]:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    Returns (ok, reason). reason is "" when ok, otherwise it names the
    failed check. Hermiticity and trace are held to fixed tight tolerances;
    tol only loosens the eigenvalue floor.
    """
    try:
        m = as_matrix(a)
    except ValueError as exc:
        return False, str(exc)
    if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
        return False, "not Hermitian"
    tr = m.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        return False, f"trace {tr:.17g} differs from 1"
    evals = np.linalg.eigvalsh(m)
    if evals.min() < -max(tol, PSD_TOL):
        return False, f"negative eigenvalue {evals.min():.3e}"
    return True, ""


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
