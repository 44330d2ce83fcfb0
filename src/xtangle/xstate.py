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

The chart and its walk (universality) run on Python floats: math's and
cmath's cos, sin, sqrt and exp gave numpy 2.4's bits on 3x10^5 inputs
each (x86-64); the chart's inverse (_params_of) keeps np.arccos, and
takes its phases with np.arctan2 of the imaginary and real parts, which
is np.angle's own arithmetic on the same float64 values without its
wrapper. math.acos missed np.arccos on 27,044 of 3x10^5 inputs and
cmath.phase missed np.angle on 21,879: both still differ in the last bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DEGENERATE,
    NON_FINITE,
    ROUNDOFF,
    SOLVER_TOL,
    _hermitian_gate,
    _read,
    _read_edge,
    _read_tol,
    _record,
    _scan,
    hermitian_eigvals,
)

__all__ = ["CharPolyCoeffs", "NotXFormError", "RankClass", "UnphysicalError", "XCoeffs",
           "XParams", "char_poly", "classify_rank", "coeffs", "diagonal", "from_density",
           "is_physical", "is_separable", "is_x_form", "numerical_rank", "to_density",
           "validate_params"]

TWO_PI = 2.0 * np.pi
# the tops of the chart's angle range [0, pi/2] and phase range [0, 2 pi],
# with their ROUNDOFF slack
_ANGLE_TOP = 0.5 * np.pi + ROUNDOFF
_PHASE_TOP = TWO_PI + ROUNDOFF


class UnphysicalError(ValueError):
    """Parameter set maps to a matrix with a negative eigenvalue."""


class NotXFormError(ValueError):
    """Matrix has weight outside the main and anti-diagonals."""


@_record
class XParams:
    """The seven X-state coordinates."""

    theta: float
    phi: float
    psi: float
    x: float
    y: float
    mu: float = 0.0
    nu: float = 0.0


@_record
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


# every (rank, kind) class an X-state can fall in; see classify_rank
RANK_KIND_PAIRS = frozenset({(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)})


@_record
class RankClass:
    """Rank in {1,2,3,4} and which boundary configuration produced it."""

    rank: int
    kind: int

    def __post_init__(self) -> None:
        if (self.rank, self.kind) not in RANK_KIND_PAIRS:
            raise ValueError(f"no rank-{self.rank} class of kind {self.kind}")


@_record
class CharPolyCoeffs:
    """Coefficients of lam^4 - a1 lam^3 + a2 lam^2 - a3 lam + a4."""

    a1: float
    a2: float
    a3: float
    a4: float


def validate_params(p: XParams) -> None:
    """Read p through the chart (_physical_coeffs): ValueError for an
    angle, phase or weight out of range, UnphysicalError for a point
    outside the positivity range."""
    _physical_coeffs(p)


def _finite_angles(*angles: float) -> None:
    """ValueError(NON_FINITE) unless every angle is finite; a Python int
    too large for a float, on which math.isfinite overflows, is not. An
    angle that is not a real number (a str, None, a complex or an array),
    which math.isfinite rejects with a TypeError, raises ValueError
    naming it."""
    try:
        if all(map(math.isfinite, angles)):
            return
    except OverflowError:
        pass
    except TypeError:
        # the angles before the first one math.isfinite rejects are finite
        for a in angles:
            try:
                math.isfinite(a)
            except TypeError:
                raise ValueError(f"angle {a!r} is not a real number") from None
    raise ValueError(NON_FINITE)


def diagonal(p: XParams) -> tuple[float, float, float, float]:
    """The four diagonal entries implied by (theta, phi, psi), of a point
    read through the chart (_physical_coeffs), which raises as
    validate_params does."""
    return _physical_coeffs(p)[1]


def _diagonal_of(theta: float, phi: float, psi: float) -> tuple[float, float, float, float]:
    """diagonal of the angles (theta, phi, psi), as Python floats.

    math.sin(a) ** 2 gives np.sin(a) ** 2 bit for bit, and Python floats
    keep the chart's arithmetic downstream off numpy scalars. Squaring by
    s * s would not: it rounds differently from ** 2 on some angles. The
    angles are not checked: its callers gate them or draw them in range.
    """
    st2 = math.sin(theta) ** 2
    ct2 = 1.0 - st2
    sp2 = math.sin(phi) ** 2
    cp2 = 1.0 - sp2
    ss2 = math.sin(psi) ** 2
    cs2 = 1.0 - ss2
    return (ct2, st2 * cp2, st2 * sp2 * cs2, st2 * sp2 * ss2)


def coeffs(p: XParams) -> XCoeffs:
    """Derived diagonal scalars; see XCoeffs. Read as diagonal is."""
    return _physical_coeffs(p)[0]


def _coeffs_of(d1: float, d2: float, d3: float, d4: float) -> XCoeffs:
    """XCoeffs of the diagonal (d1, d2, d3, d4)."""
    b = d2 + d3
    # positional: b_cal, c_cal, g_cal, h_cal, g_low, h_low
    return XCoeffs(b, 1.0 - b, d2 * d3, d1 * d4, d2 - d3, d1 - d4)


def _within_positivity(co: XCoeffs, x, y):
    """x <= h_cal and y <= g_cal within ROUNDOFF, the chart's positivity
    range; on floats or elementwise on arrays. A NaN weight fails."""
    return (x <= co.h_cal + ROUNDOFF) & (y <= co.g_cal + ROUNDOFF)


def _physical_coeffs(p: XParams) -> tuple[XCoeffs, tuple[float, ...], float, float]:
    """(coeffs(p), diagonal(p), x, y): the chart's one reader of a point,
    behind every public route that takes an XParams.

    Raises ValueError naming a point that lacks the seven fields, one that
    is not an XParams; then for an angle or phase that is NaN or infinite
    (NON_FINITE) or not a real number (_finite_angles), then for an angle
    outside [0, pi/2] or a phase outside [0, 2 pi] by more than ROUNDOFF,
    then for a weight below 0 by more than ROUNDOFF or NaN; a weight in
    [-ROUNDOFF, 0) reads as 0 (matrix_core._read_edge). Then raises
    UnphysicalError unless x <= h_cal and y <= g_cal within ROUNDOFF, the
    positivity range, which an infinite weight or a Python int too large
    for a float is outside.
    """
    try:
        theta, phi, psi, x, y, mu, nu = p.theta, p.phi, p.psi, p.x, p.y, p.mu, p.nu
    except AttributeError:
        raise ValueError(f"point {p!r} is not an XParams") from None
    _finite_angles(theta, phi, psi, mu, nu)
    if not (-ROUNDOFF <= theta <= _ANGLE_TOP and -ROUNDOFF <= phi <= _ANGLE_TOP
            and -ROUNDOFF <= psi <= _ANGLE_TOP
            and -ROUNDOFF <= mu <= _PHASE_TOP and -ROUNDOFF <= nu <= _PHASE_TOP):
        # the same comparisons again, one name at a time, to name the first
        for name in ("theta", "phi", "psi"):
            v = getattr(p, name)
            if not (-ROUNDOFF <= v <= _ANGLE_TOP):
                raise ValueError(f"{name}={v!r} outside [0, pi/2]")
        for name in ("mu", "nu"):
            v = getattr(p, name)
            if not (-ROUNDOFF <= v <= _PHASE_TOP):
                raise ValueError(f"{name}={v!r} outside [0, 2 pi]")
    x = _read_edge(x, 0.0, math.inf, ValueError, "weight x={value!r} is negative or NaN")
    y = _read_edge(y, 0.0, math.inf, ValueError, "weight y={value!r} is negative or NaN")
    d = _diagonal_of(theta, phi, psi)
    co = _coeffs_of(*d)
    if not _within_positivity(co, x, y):
        raise UnphysicalError(
            f"x={p.x!r} (max {co.h_cal!r}) or y={p.y!r} (max {co.g_cal!r}) "
            "exceeds the positivity range"
        )
    return co, d, x, y


def partial_transpose_lows(b, c, g_low, h_low, x, y, sqrt=np.sqrt):
    """The lower eigenvalues (t1, t2) of the two blocks of the partial transpose.

    The partial transpose of an X-state swaps its coherences, so each
    diagonal block meets the opposite coherence weight:

        t1 = b/2 - sqrt((g_low/2)^2 + x),  t2 = c/2 - sqrt((h_low/2)^2 + y)

    Both are returned, not their minimum, which would drop a NaN. sqrt is
    np.sqrt on arrays; the scalar rules pass math.sqrt, which on Python
    floats rounds the same and costs no numpy scalar call.
    """
    t1 = 0.5 * b - sqrt((0.5 * g_low) ** 2 + x)
    t2 = 0.5 * c - sqrt((0.5 * h_low) ** 2 + y)
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
    is the upper one as passed, conjugated by its own .conjugate() (no
    numpy scalar is built; np.conj gives the same bits): a real coherence
    stays real, so its lower entry's imaginary part is +0.0, where
    conjugating it after storing it as complex would give -0.0.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 1], m[2, 2], m[3, 3] = d1, d2, d3, d4
    m[0, 3], m[3, 0] = rho_14, rho_14.conjugate()
    m[1, 2], m[2, 1] = rho_23, rho_23.conjugate()
    return m


def _off_x_worst(e: list) -> float:
    """The largest off-X magnitude among the 16 admitted row-major entries e."""
    _, e01, e02, _, e10, _, _, e13, e20, _, _, e23, _, e31, e32, _ = e
    return max(abs(e01), abs(e02), abs(e10), abs(e13), abs(e20), abs(e23), abs(e31), abs(e32))


def _x_entries(rho, tol: float = DEFAULT_TOL) -> tuple[float, float, float, float, complex, complex]:
    """(d1, d2, d3, d4, rho_14, rho_23) of an X-form matrix.

    The only place the package reads the X layout: all 16 entries in one
    tolist(), through matrix_core._read. Raises ValueError for a wrong
    shape or a non-finite or out-of-scale input, then NotXFormError naming
    the largest off-X magnitude if it exceeds tol, then NonHermitianError
    if a coherence differs from the conjugate of its mirror, or a diagonal
    entry from its own conjugate, by more than SOLVER_TOL: the X entries'
    part of matrix_core._entry_gate's deviation. Returns the real
    diagonal and the upper coherences (0,3) and (1,2).
    """
    e = _read(rho)[1]
    worst = _off_x_worst(e)
    if not worst <= tol:
        raise NotXFormError(f"off-X entry of magnitude {worst:.3e} exceeds {tol:.3e}")
    d1, _, _, rho_14, _, d2, rho_23, _, _, rho_32, d3, _, rho_41, _, _, d4 = e
    _hermitian_gate(max(abs(rho_14 - rho_41.conjugate()), abs(rho_23 - rho_32.conjugate()),
                        2.0 * abs(d1.imag), 2.0 * abs(d2.imag),
                        2.0 * abs(d3.imag), 2.0 * abs(d4.imag)))
    return d1.real, d2.real, d3.real, d4.real, rho_14, rho_23


def _point_entries(d, x: float, y: float, mu: float, nu: float) -> tuple:
    """(d1, d2, d3, d4, rho_14, rho_23) of the chart point with diagonal d,
    weights x, y >= 0 and phases mu, nu: the entries to_density writes,
    rho_14 = sqrt(x) e^{i mu} and rho_23 = sqrt(y) e^{i nu}. Unread."""
    return (*d, math.sqrt(x) * cmath.exp(1j * mu), math.sqrt(y) * cmath.exp(1j * nu))


def _point_density(p: XParams) -> tuple[XCoeffs, float, float, np.ndarray]:
    """(co, x, y, rho) of physical parameters p from one read of the chart
    (_physical_coeffs): coeffs(p) and the weights as read, which the
    rank/kind and separability rules take (_rank_class, _entangled_outer),
    and to_density(p), the matrix of its entries (_point_entries)."""
    co, d, x, y = _physical_coeffs(p)
    return co, x, y, _x_matrix(*_point_entries(d, x, y, p.mu, p.nu))


def to_density(p: XParams) -> np.ndarray:
    """Assemble the 4x4 density matrix for physical parameters."""
    return _point_density(p)[3]


def is_x_form(rho, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-X entry has magnitude <= tol; False for an input
    whose scale matrix_core._scan rejects, a Python int too large for a
    float included. ValueError for a tol outside (0, inf)
    (matrix_core._read_tol)."""
    _read_tol(tol)
    _, e, why = _scan(rho)
    return not why and bool(_off_x_worst(e) <= tol)


def _clamp01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


def _params_of(d1, d2, d3, d4, coh_outer, coh_inner, tol: float = DEFAULT_TOL) -> XParams:
    """The chart's one inverse, of a diagonal (d1, d2, d3, d4) and the
    complex coherences rho_14 and rho_23 that the package read
    (from_density) or computed (conjugate_x) itself. Unread.

    Convention at degenerate diagonals: theta = arccos(sqrt(d1)); if
    sin(theta) vanishes, phi = psi = 0; if sin(phi) vanishes, psi = 0.
    Phases below the coherence magnitude tol are set to 0.
    """
    x = abs(coh_outer) ** 2
    y = abs(coh_inner) ** 2
    # np.arccos, and np.angle's arithmetic, np.arctan2 of the imaginary and
    # real parts, without its wrapper: math.acos and cmath.phase differ in
    # the last bit
    theta = np.arccos(math.sqrt(_clamp01(d1)))
    st2 = 1.0 - _clamp01(d1)
    if st2 <= DEGENERATE:
        phi = 0.0
        psi = 0.0
    else:
        phi = np.arccos(math.sqrt(_clamp01(d2 / st2)))
        sp2 = st2 * _clamp01(1.0 - d2 / st2)
        if sp2 <= DEGENERATE:
            psi = 0.0
        else:
            psi = np.arccos(math.sqrt(_clamp01(d3 / sp2)))
    mu = (float(np.arctan2(coh_outer.imag, coh_outer.real)) % TWO_PI
          if abs(coh_outer) >= tol else 0.0)
    nu = (float(np.arctan2(coh_inner.imag, coh_inner.real)) % TWO_PI
          if abs(coh_inner) >= tol else 0.0)
    # positional: theta, phi, psi, x, y, mu, nu
    return XParams(float(theta), float(phi), float(psi), float(x), float(y), mu, nu)


def from_density(rho, tol: float = DEFAULT_TOL) -> XParams:
    """Invert to_density. Requires the input to be X-form within tol.

    Reads tol first (matrix_core._read_tol): ValueError outside (0, inf).
    Reads the matrix through _x_entries: ValueError for a non-finite or
    out-of-scale input, NotXFormError for an off-X entry above tol,
    NonHermitianError for a coherence pair or a diagonal entry
    non-Hermitian beyond SOLVER_TOL; the phases come from the upper
    coherences (0,3) and (1,2). Then reads the diagonal: each entry on
    [0, 1] and their sum, the trace, on [1, 1] (matrix_core._read_edge).
    Outside them by more than ROUNDOFF they raise UnphysicalError, as the
    chart has no point for such a matrix. Then inverts them (_params_of).
    """
    *d, rho_14, rho_23 = _x_entries(rho, _read_tol(tol))
    read = [_read_edge(v, 0.0, 1.0, UnphysicalError, "diagonal entry {value!r} outside [0, 1]")
            for v in d]
    _read_edge(sum(d), 1.0, 1.0, UnphysicalError, "trace {value!r} is not 1")
    return _params_of(*read, rho_14, rho_23, tol)


def char_poly(p: XParams) -> CharPolyCoeffs:
    """Characteristic-polynomial coefficients in closed form, of a point
    read through the chart (_physical_coeffs), which raises as
    validate_params does."""
    co, _, x, y = _physical_coeffs(p)
    b, c, g, h = co.b_cal, co.c_cal, co.g_cal, co.h_cal
    return CharPolyCoeffs(
        a1=1.0,
        a2=b * c + g + h - x - y,
        a3=b * h + c * g - x * b - y * c,
        a4=h * g - y * h - x * g + x * y,
    )


# the classes of _rank_conditions' seven conditions in order, then the
# class where none holds: the sorted pairs, most degenerate first
_RANK_CLASSES = tuple(RankClass(*pair) for pair in sorted(RANK_KIND_PAIRS))


def _rank_conditions(co: XCoeffs, x, y, tol: float) -> tuple:
    """The conditions of ranks/kinds 11, 12, 21, 22, 23, 31 and 32, in
    that order, on floats or elementwise on arrays: conjunctions of x at
    its top h_cal, y at its top g_cal, and x, y, b_cal and c_cal at 0,
    each within the absolute tol."""
    x_top = abs(x - co.h_cal) <= tol
    y_top = abs(y - co.g_cal) <= tol
    x_zero = x <= tol
    y_zero = y <= tol
    b_zero = co.b_cal <= tol
    c_zero = co.c_cal <= tol
    return (x_top & y_zero & b_zero, x_zero & y_top & c_zero, y_zero & b_zero,
            x_zero & c_zero, x_top & y_top, y_top, x_top)


def classify_rank(p: XParams, tol: float = DEFAULT_TOL) -> RankClass:
    """Rank and kind from the boundary configuration of (x, y, b_cal, c_cal).

    The class of the first condition of _rank_conditions that holds, else
    rank 4 kind 1. The most degenerate configurations come first, so that
    overlapping tolerance bands resolve to the lowest rank. Raises
    ValueError for a tol outside (0, inf) (matrix_core._read_tol), then
    UnphysicalError for unphysical parameters.
    """
    _read_tol(tol)
    co, _, x, y = _physical_coeffs(p)
    return _rank_class(co, x, y, tol)


def _rank_class(co: XCoeffs, x: float, y: float, tol: float) -> RankClass:
    """classify_rank's rule on a physical state's XCoeffs co and weights:
    the class of the first condition that holds, else rank 4."""
    for held, rank_class in zip(_rank_conditions(co, x, y, tol), _RANK_CLASSES):
        if held:
            return rank_class
    return _RANK_CLASSES[-1]


def _classify_arrays(co: XCoeffs, x, y) -> np.ndarray:
    """The classes of X-states given elementwise by the XCoeffs co of
    their diagonals and their weights x = |rho_14|^2 and y = |rho_23|^2,
    as an integer array of indices into _RANK_CLASSES.

    classify_rank's rule at DEFAULT_TOL on arrays of entries rather than
    on chart parameters. Raises UnphysicalError, as _physical_coeffs
    does, if any state has x above h_cal or y above g_cal by more than
    ROUNDOFF, or a NaN weight.
    """
    if not np.all(_within_positivity(co, x, y)):
        raise UnphysicalError("a coherence weight exceeds the positivity range")
    held = _rank_conditions(co, x, y, DEFAULT_TOL)
    # the index of the first condition that holds, else 7: written last to first
    first = np.full(np.shape(held[0]), 7)
    for i in range(6, -1, -1):
        first[held[i]] = i
    return first


def is_separable(p: XParams) -> bool:
    """True iff the partial transpose's lowest eigenvalue is >= -SOLVER_TOL.

    The positive-partial-transpose test, which for two qubits decides
    separability exactly, taken in closed form from the chart (see
    partial_transpose_lows) at the scale of negativity_general(rho) <=
    SOLVER_TOL. Raises UnphysicalError for unphysical parameters.
    """
    co, _, x, y = _physical_coeffs(p)
    return _entangled_outer(co, x, y) is None


def _entangled_outer(co: XCoeffs, x: float, y: float) -> bool | None:
    """None where is_separable's rule holds on a physical state's XCoeffs
    co and weights; else whether the lower partial-transpose eigenvalue
    is t1, the outer coherence's (see partial_transpose_lows)."""
    t1, t2 = partial_transpose_lows(co.b_cal, co.c_cal, co.g_low, co.h_low, x, y, math.sqrt)
    if min(t1, t2) >= -SOLVER_TOL:
        return None
    return bool(t1 <= t2)


def _rank_above_tol(values: np.ndarray) -> int:
    """Number of the eigenvalues values above DEFAULT_TOL."""
    return int((values > DEFAULT_TOL).sum())


def numerical_rank(rho) -> int:
    """Number of eigenvalues above DEFAULT_TOL."""
    return _rank_above_tol(hermitian_eigvals(rho))
