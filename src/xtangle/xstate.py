"""Seven-parameter X-state coordinates.

An X-state is a two-qubit density matrix whose only nonzero entries sit on
the main diagonal and the anti-diagonal. The coordinate chart used here is

    diag = (cos^2 theta,
            sin^2 theta cos^2 phi,
            sin^2 theta sin^2 phi cos^2 psi,
            sin^2 theta sin^2 phi sin^2 psi)

with anti-diagonal coherences sqrt(x) e^{i mu} (outer corners) and
sqrt(y) e^{i nu} (inner corners). theta, phi, psi in [0, pi/2]; x, y >= 0;
mu, nu in [0, 2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DEGENERATE,
    NON_FINITE,
    ROUNDOFF,
    as_matrix,
    hermitian_eigvals,
)

TWO_PI = 2.0 * np.pi

# (row, col) pairs that must vanish for the X shape
OFF_X_INDICES = (
    (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2),
)


class UnphysicalError(ValueError):
    """Parameter set maps to a matrix with a negative eigenvalue."""


class NotXFormError(ValueError):
    """Matrix has weight outside the main and anti-diagonals."""


@dataclass(frozen=True)
class XParams:
    """The seven X-state coordinates."""

    theta: float
    phi: float
    psi: float
    x: float
    y: float
    mu: float = 0.0
    nu: float = 0.0


@dataclass(frozen=True)
class XCoeffs:
    """Scalars derived from the diagonal.

    b_cal = d2 + d3, c_cal = d1 + d4 = 1 - b_cal,
    g_cal = d2 * d3, h_cal = d1 * d4,
    g_low = d2 - d3, h_low = d1 - d4,
    where (d1, d2, d3, d4) is the diagonal. They satisfy
    g_low^2 + 4 g_cal = b_cal^2 and h_low^2 + 4 h_cal = c_cal^2.
    """

    b_cal: float
    c_cal: float
    g_cal: float
    h_cal: float
    g_low: float
    h_low: float


# every (rank, kind) class an X-state can fall in
RANK_KIND_PAIRS = frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)})


@dataclass(frozen=True)
class RankClass:
    """Rank in {1,2,3,4} and which boundary configuration produced it."""

    rank: int
    kind: int

    def __post_init__(self) -> None:
        if (self.rank, self.kind) not in RANK_KIND_PAIRS:
            raise ValueError(f"no rank-{self.rank} class of kind {self.kind}")


@dataclass(frozen=True)
class CharPolyCoeffs:
    """Coefficients of lam^4 - a1 lam^3 + a2 lam^2 - a3 lam + a4."""

    a1: float
    a2: float
    a3: float
    a4: float


def validate_params(p: XParams) -> None:
    """Range-check angles, phases and coherence weights."""
    half_pi = 0.5 * np.pi
    for name in ("theta", "phi", "psi"):
        v = getattr(p, name)
        if not (-ROUNDOFF <= v <= half_pi + ROUNDOFF):
            raise ValueError(f"{name}={v!r} outside [0, pi/2]")
    for name in ("mu", "nu"):
        v = getattr(p, name)
        if not (-ROUNDOFF <= v <= TWO_PI + ROUNDOFF):
            raise ValueError(f"{name}={v!r} outside [0, 2 pi]")
    if p.x < -ROUNDOFF or p.y < -ROUNDOFF:
        raise ValueError(f"negative coherence weight x={p.x!r} y={p.y!r}")


def diagonal(p: XParams) -> tuple[float, float, float, float]:
    """The four diagonal entries implied by (theta, phi, psi)."""
    st2 = np.sin(p.theta) ** 2
    ct2 = 1.0 - st2
    sp2 = np.sin(p.phi) ** 2
    cp2 = 1.0 - sp2
    ss2 = np.sin(p.psi) ** 2
    cs2 = 1.0 - ss2
    return (ct2, st2 * cp2, st2 * sp2 * cs2, st2 * sp2 * ss2)


def coeffs(p: XParams) -> XCoeffs:
    """Derived diagonal scalars; see XCoeffs."""
    d1, d2, d3, d4 = diagonal(p)
    b = d2 + d3
    return XCoeffs(
        b_cal=b,
        c_cal=1.0 - b,
        g_cal=d2 * d3,
        h_cal=d1 * d4,
        g_low=d2 - d3,
        h_low=d1 - d4,
    )


def is_physical(p: XParams) -> bool:
    """True iff x <= h_cal and y <= g_cal (within slack): all eigenvalues >= 0."""
    validate_params(p)
    co = coeffs(p)
    return bool(p.x <= co.h_cal + ROUNDOFF and p.y <= co.g_cal + ROUNDOFF)


def to_density(p: XParams) -> np.ndarray:
    """Assemble the 4x4 density matrix for physical parameters."""
    validate_params(p)
    co = coeffs(p)
    if p.x > co.h_cal + ROUNDOFF or p.y > co.g_cal + ROUNDOFF:
        raise UnphysicalError(
            f"x={p.x!r} (max {co.h_cal!r}) or y={p.y!r} (max {co.g_cal!r}) "
            "exceeds the positivity range"
        )
    d1, d2, d3, d4 = diagonal(p)
    cx = np.sqrt(max(p.x, 0.0)) * np.exp(1j * p.mu)
    cy = np.sqrt(max(p.y, 0.0)) * np.exp(1j * p.nu)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = d1, d2, d3, d4
    m[0, 3] = cx
    m[3, 0] = np.conj(cx)
    m[1, 2] = cy
    m[2, 1] = np.conj(cy)
    return m


def is_x_form(rho, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-X entry has magnitude <= tol."""
    m = as_matrix(rho)
    return bool(all(abs(m[i, j]) <= tol for i, j in OFF_X_INDICES))


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def params_from_entries(d1, d2, d3, d4, coh_outer, coh_inner,
                        tol: float = DEFAULT_TOL) -> XParams:
    """Invert the chart from diagonal entries and complex coherences.

    Convention at degenerate diagonals: theta = arccos(sqrt(d1)); if
    sin(theta) vanishes, phi = psi = 0; if sin(phi) vanishes, psi = 0.
    Phases below the coherence magnitude tol are set to 0. Raises
    ValueError for a non-finite argument, read from the sum of the
    diagonal and the squared coherences.
    """
    x = abs(coh_outer) ** 2
    y = abs(coh_inner) ** 2
    if not math.isfinite(d1 + d2 + d3 + d4 + x + y):
        raise ValueError(NON_FINITE)
    theta = np.arccos(np.sqrt(_clamp01(d1)))
    st2 = 1.0 - _clamp01(d1)
    if st2 <= DEGENERATE:
        phi = 0.0
        psi = 0.0
    else:
        phi = np.arccos(np.sqrt(_clamp01(d2 / st2)))
        sp2 = st2 * _clamp01(1.0 - d2 / st2)
        if sp2 <= DEGENERATE:
            psi = 0.0
        else:
            psi = np.arccos(np.sqrt(_clamp01(d3 / sp2)))
    mu = float(np.angle(coh_outer)) % TWO_PI if abs(coh_outer) >= tol else 0.0
    nu = float(np.angle(coh_inner)) % TWO_PI if abs(coh_inner) >= tol else 0.0
    return XParams(theta=float(theta), phi=float(phi), psi=float(psi),
                   x=float(x), y=float(y), mu=mu, nu=nu)


def from_density(rho, tol: float = DEFAULT_TOL) -> XParams:
    """Invert to_density. Requires the input to be X-form within tol.

    Reads the diagonal and the upper coherences (0,3) and (1,2), and
    raises ValueError for a non-finite one; a non-finite entry it does
    not read goes unchecked, as does any asymmetry of a non-Hermitian
    input.
    """
    m = as_matrix(rho)
    if not is_x_form(m, tol):
        worst = max(abs(m[i, j]) for i, j in OFF_X_INDICES)
        raise NotXFormError(f"off-X entry of magnitude {worst:.3e} exceeds {tol:.3e}")
    return params_from_entries(
        m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real,
        m[0, 3], m[1, 2], tol=tol,
    )


def char_poly(p: XParams) -> CharPolyCoeffs:
    """Characteristic-polynomial coefficients in closed form."""
    validate_params(p)
    co = coeffs(p)
    b, c, g, h = co.b_cal, co.c_cal, co.g_cal, co.h_cal
    x, y = p.x, p.y
    return CharPolyCoeffs(
        a1=1.0,
        a2=b * c + g + h - x - y,
        a3=b * h + c * g - x * b - y * c,
        a4=h * g - y * h - x * g + x * y,
    )


def classify_rank(p: XParams, tol: float = DEFAULT_TOL) -> RankClass:
    """Rank and kind from the boundary configuration of (x, y, b_cal, c_cal).

    Equality tests use the absolute tolerance tol. The most degenerate
    configurations are tested first so that overlapping tolerance bands
    resolve to the lowest rank.
    """
    if not is_physical(p):
        raise UnphysicalError("cannot classify an unphysical parameter set")
    co = coeffs(p)
    x_at_top = abs(p.x - co.h_cal) <= tol
    y_at_top = abs(p.y - co.g_cal) <= tol
    x_zero = p.x <= tol
    y_zero = p.y <= tol
    b_zero = co.b_cal <= tol
    c_zero = co.c_cal <= tol

    if x_at_top and y_zero and b_zero:
        return RankClass(1, 1)
    if x_zero and y_at_top and c_zero:
        return RankClass(1, 2)
    if y_zero and b_zero:
        return RankClass(2, 1)
    if x_zero and c_zero:
        return RankClass(2, 2)
    if x_at_top and y_at_top:
        return RankClass(2, 3)
    if y_at_top:
        return RankClass(3, 1)
    if x_at_top:
        return RankClass(3, 2)
    return RankClass(4, 1)


def is_separable(p: XParams) -> bool:
    """True iff both coherence weights fit under min(g_cal, h_cal).

    Equivalent to positivity of the partial transpose, which for two
    qubits decides separability exactly.
    """
    if not is_physical(p):
        raise UnphysicalError("separability is defined for physical states only")
    co = coeffs(p)
    lim = min(co.g_cal, co.h_cal) + ROUNDOFF
    return bool(p.x <= lim and p.y <= lim)


def numerical_rank(rho, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol."""
    return int((hermitian_eigvals(rho) > tol).sum())
