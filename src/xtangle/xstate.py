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

This module also owns the X matrix layout: _x_entries is the package's
only reader of an X matrix and _x_matrix its only builder.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DEGENERATE,
    NON_FINITE,
    ROUNDOFF,
    SOLVER_TOL,
    as_matrix,
    hermitian_eigvals,
)

TWO_PI = 2.0 * np.pi


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
    if not (p.x >= -ROUNDOFF and p.y >= -ROUNDOFF):
        raise ValueError(f"coherence weight x={p.x!r} y={p.y!r} is negative or NaN")


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
    return _coeffs_of(*diagonal(p))


def _coeffs_of(d1: float, d2: float, d3: float, d4: float) -> XCoeffs:
    """XCoeffs of the diagonal (d1, d2, d3, d4)."""
    b = d2 + d3
    return XCoeffs(
        b_cal=b,
        c_cal=1.0 - b,
        g_cal=d2 * d3,
        h_cal=d1 * d4,
        g_low=d2 - d3,
        h_low=d1 - d4,
    )


def _physical_coeffs(p: XParams) -> tuple[XCoeffs, tuple[float, float, float, float]]:
    """(coeffs(p), diagonal(p)) of valid parameters whose matrix has no
    negative eigenvalue, from one evaluation of the chart.

    Runs validate_params, then raises UnphysicalError unless x <= h_cal
    and y <= g_cal within ROUNDOFF; a NaN weight fails the test too.
    """
    validate_params(p)
    d = diagonal(p)
    co = _coeffs_of(*d)
    if not (p.x <= co.h_cal + ROUNDOFF and p.y <= co.g_cal + ROUNDOFF):
        raise UnphysicalError(
            f"x={p.x!r} (max {co.h_cal!r}) or y={p.y!r} (max {co.g_cal!r}) "
            "exceeds the positivity range"
        )
    return co, d


def partial_transpose_lows(b, c, g_low, h_low, x, y):
    """The lower eigenvalues (t1, t2) of the two blocks of the partial transpose.

    The partial transpose of an X-state swaps its coherences, so each
    diagonal block meets the opposite coherence weight:

        t1 = b/2 - sqrt((g_low/2)^2 + x),  t2 = c/2 - sqrt((h_low/2)^2 + y)

    Both are returned, not their minimum, which would drop a NaN.
    """
    t1 = 0.5 * b - np.sqrt((0.5 * g_low) ** 2 + x)
    t2 = 0.5 * c - np.sqrt((0.5 * h_low) ** 2 + y)
    return t1, t2


def block_eigvals(d_a: float, d_b: float, c: float) -> tuple[float, float]:
    """Eigenvalues (hi, lo) of an X-state block [[d_a, c], [c*, d_b]] with |c| = c.

        (d_a + d_b)/2 +- sqrt(((d_a - d_b)/2)^2 + c^2)

    The outer block is (d1, d4, |rho_14|), the inner (d2, d3, |rho_23|);
    together they are the X-state's spectrum.
    """
    half = 0.5 * (d_a - d_b)
    r = math.sqrt(half * half + c * c)
    mid = 0.5 * (d_a + d_b)
    return mid + r, mid - r


def is_physical(p: XParams) -> bool:
    """True iff x <= h_cal and y <= g_cal (within slack): all eigenvalues >= 0."""
    try:
        _physical_coeffs(p)
    except UnphysicalError:
        return False
    return True


def _x_matrix(d1, d2, d3, d4, rho_14, rho_23) -> np.ndarray:
    """The X matrix with diagonal d1..d4 and upper coherences rho_14, rho_23.

    The only place the package writes the X layout. Each lower coherence
    is np.conj of the upper one as passed: a real coherence stays real,
    so its lower entry's imaginary part is +0.0, where conjugating it
    after storing it as complex would give -0.0.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = d1, d2, d3, d4
    m[0, 3], m[3, 0] = rho_14, np.conj(rho_14)
    m[1, 2], m[2, 1] = rho_23, np.conj(rho_23)
    return m


def _off_x_worst(e: list) -> float:
    """The largest off-X magnitude among the 16 row-major entries e; NaN
    if an off-X entry is NaN."""
    _, e01, e02, _, e10, _, _, e13, e20, _, _, e23, _, e31, e32, _ = e
    mags = (abs(e01), abs(e02), abs(e10), abs(e13), abs(e20), abs(e23), abs(e31), abs(e32))
    # max() keeps a NaN only in first place; the sum keeps it anywhere
    return math.nan if math.isnan(sum(mags)) else max(mags)


def _x_entries(rho, tol: float = DEFAULT_TOL) -> tuple[float, float, float, float, complex, complex]:
    """(d1, d2, d3, d4, rho_14, rho_23) of an X-form matrix.

    The only place the package reads the X layout: all 16 entries in one
    tolist(). Raises ValueError(NON_FINITE) if any entry is NaN or
    infinite, then NotXFormError naming the largest off-X magnitude if it
    exceeds tol. Returns the real diagonal and the upper coherences (0,3)
    and (1,2); on an exactly Hermitian matrix the lower ones have the same
    magnitudes, bit for bit. Asymmetry of a non-Hermitian input is not
    checked.
    """
    e = as_matrix(rho).ravel().tolist()
    # one isfinite on the sum; entries one by one only when it fails,
    # because finite entries near the float maximum can overflow the sum
    if not cmath.isfinite(sum(e)) and not all(map(cmath.isfinite, e)):
        raise ValueError(NON_FINITE)
    worst = _off_x_worst(e)
    if not worst <= tol:
        raise NotXFormError(f"off-X entry of magnitude {worst:.3e} exceeds {tol:.3e}")
    d1, _, _, rho_14, _, d2, rho_23, _, _, _, d3, _, _, _, _, d4 = e
    return d1.real, d2.real, d3.real, d4.real, rho_14, rho_23


def to_density(p: XParams) -> np.ndarray:
    """Assemble the 4x4 density matrix for physical parameters."""
    _, (d1, d2, d3, d4) = _physical_coeffs(p)
    return _x_matrix(d1, d2, d3, d4,
                     np.sqrt(max(p.x, 0.0)) * np.exp(1j * p.mu),
                     np.sqrt(max(p.y, 0.0)) * np.exp(1j * p.nu))


def is_x_form(rho, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-X entry has magnitude <= tol; a NaN one fails."""
    return bool(_off_x_worst(as_matrix(rho).ravel().tolist()) <= tol)


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

    Reads the matrix through _x_entries: ValueError for any non-finite
    entry, NotXFormError for an off-X entry above tol; the phases come
    from the upper coherences (0,3) and (1,2).
    """
    return params_from_entries(*_x_entries(rho, tol), tol=tol)


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
    co, _ = _physical_coeffs(p)
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
    """True iff the partial transpose's lowest eigenvalue is >= -SOLVER_TOL.

    The positive-partial-transpose test, which for two qubits decides
    separability exactly, taken in closed form from the chart (see
    partial_transpose_lows) at the scale of negativity_general(rho) <=
    SOLVER_TOL. Raises UnphysicalError for unphysical parameters.
    """
    co, _ = _physical_coeffs(p)
    # a weight in [-ROUNDOFF, 0) passes validation; to_density reads it as 0
    t1, t2 = partial_transpose_lows(co.b_cal, co.c_cal, co.g_low, co.h_low,
                                    max(p.x, 0.0), max(p.y, 0.0))
    return bool(min(t1, t2) >= -SOLVER_TOL)


def numerical_rank(rho) -> int:
    """Number of eigenvalues above DEFAULT_TOL."""
    return int((hermitian_eigvals(rho) > DEFAULT_TOL).sum())
