"""Fixed-size complex linear algebra for 4x4 matrices.

Validation, eigendecomposition, partial transpose, trace norm and unitary
conjugation, and the table of tolerances used throughout the package.
Every LAPACK call of the package goes through the solver layer here,
_eigh, _eigvalsh, _svdvals and _qr: numpy.linalg's own gufuncs, called
without its wrappers' per-call checks, with the same results bit for bit
and the same LinAlgError on a failure, under one error state built at
import.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import LinAlgError, _umath_linalg

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
# which are one rule. 100 x ROUNDOFF, to leave room for the solvers'
# (_eigh, _eigvalsh, _svdvals) and the products' error on top of the
# input's.
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

# The input scale (_scale_problem): the most the 16 entry magnitudes of an
# admitted 4x4 input may sum to. A density matrix's sum to at most 4 and a
# unitary's to at most 8. No route forms more than a product of three
# admitted matrices, conjugate's u rho u^dagger, whose entries stay below
# ENTRY_SCALE**3 = 1e300 < 1.8e308, the float maximum: no sum, product or
# eigensolve of an admitted input overflows.
ENTRY_SCALE = 1e100

# the reasons given wherever an input is rejected by its scale read
NON_FINITE = "non-finite entry"
OUT_OF_SCALE = f"entry magnitudes sum above {ENTRY_SCALE:g}"


# The solver layer calls numpy.linalg's gufuncs for complex input without
# its wrappers, whose checks and casts cost about as much as LAPACK on a
# 4x4. Every caller passes a complex 4x4, which is what the wrappers would
# hand on, so the outputs are theirs bit for bit. The error state is
# numpy.linalg's: a LAPACK failure, which the gufuncs flag as an invalid
# value, raises LinAlgError with numpy.linalg's message, and every other
# floating-point error is ignored. It is built once, at import; each solve
# sets it on numpy's error-state context variable, which is per thread,
# and restores the caller's after, on a failure too. The state raises
# FloatingPointError, turned into LinAlgError here, instead of calling a
# handler: numpy keeps it in a capsule the garbage collector cannot see
# into, so a handler of this module's would keep each dropped copy of the
# module alive. Its buffer size is the one at import, where numpy.linalg's
# wrappers take the caller's.
_LAPACK_STATE = _make_extobj(all="ignore", invalid="raise")


def _lapack_errors(message: str):
    """Decorate a solver to run under _LAPACK_STATE, raising
    LinAlgError(message) on a LAPACK failure."""
    def decorate(solver):
        @functools.wraps(solver)
        def solve(m):
            token = _extobj_contextvar.set(_LAPACK_STATE)
            try:
                return solver(m)
            except FloatingPointError:
                raise LinAlgError(message) from None
            finally:
                _extobj_contextvar.reset(token)
        return solve
    return decorate


@_lapack_errors("Eigenvalues did not converge")
def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.eigh(m): ascending eigenvalues and eigenvector columns."""
    return _umath_linalg.eigh_lo(m, signature="D->dD")


@_lapack_errors("Eigenvalues did not converge")
def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """numpy.linalg.eigvalsh(m): ascending eigenvalues."""
    return _umath_linalg.eigvalsh_lo(m, signature="D->d")


@_lapack_errors("SVD did not converge")
def _svdvals(m: np.ndarray) -> np.ndarray:
    """numpy.linalg.svd(m, compute_uv=False): descending singular values."""
    return _umath_linalg.svd(m, signature="D->d")


@_lapack_errors("Incorrect argument found while performing QR factorization")
def _qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy.linalg.qr(m)'s Q and the diagonal of its R. The factorization
    writes R over its input, so m is copied."""
    a = m.copy()
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    return _umath_linalg.qr_reduced(a, tau, signature="DD->D"), a.diagonal()


def _read_edge(value, lo, hi, error, message):
    """value on the closed range [lo, hi], the package's one edge rule.

    A value inside the range is returned as is; one within ROUNDOFF
    outside it reads as that edge. Anything else, NaN and values that are
    not real numbers (a str, None, a complex, an array) included, raises
    error(message.format(value=value, lo=lo, hi=hi)).
    """
    # an array of one value compares as that value, but is not a number
    if not (isinstance(value, np.ndarray) and value.ndim):
        try:
            if lo <= value <= hi:
                return value
            if lo - ROUNDOFF <= value <= hi + ROUNDOFF:
                return lo if value < lo else hi
        except (TypeError, ValueError):
            # not comparable with a float
            pass
    raise error(message.format(value=value, lo=lo, hi=hi))


def _read_tol(tol):
    """tol as a tolerance: a real number in (0, inf), the range of every
    tol keyword and of the CLI's --tol. Anything else, NaN and an array
    included, raises ValueError naming it."""
    # an array of one value compares as that value, but is not a number
    if not (isinstance(tol, np.ndarray) and tol.ndim):
        try:
            if 0.0 < tol < np.inf:
                return tol
        except (TypeError, ValueError):
            # not comparable with a float
            pass
    raise ValueError(f"tol={tol!r} is not a number in (0, inf)")


class NonHermitianError(ValueError):
    """Raised when an operation requiring a Hermitian matrix gets one that is not."""


def _record(cls):
    """cls as a frozen dataclass whose __init__ writes the instance dict
    in one update, the package's one way to declare a record.

    dataclass's frozen __init__ sets each field through
    object.__setattr__, about 1 us a record; writing the dict has the
    same effect, as no field name has a data descriptor on its class. The
    __init__ is compiled once, at import, with dataclass's signature:
    the fields in order, positional or keyword, their defaults taken from
    the fields, and __post_init__ called when cls defines one. Everything
    else is dataclass's own: equality, hash, repr, the frozen
    __setattr__ and __delattr__, replace, copy and pickle.
    """
    cls = dataclasses.dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cls)
    defaults = {f"_default_{f.name}": f.default for f in fields
                if f.default is not dataclasses.MISSING}
    params = ", ".join(f.name if f.default is dataclasses.MISSING
                       else f"{f.name}=_default_{f.name}" for f in fields)
    writes = ", ".join(f"{f.name}={f.name}" for f in fields)
    post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    # the defaults reach the def by value, through its namespace, not by repr
    exec(f"def __init__(self, {params}):\n    self.__dict__.update({writes}){post}", defaults)
    init = defaults["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__init__ = init
    return cls


@_record
class Spectrum:
    """Eigenvalues sorted non-ascending plus the matching eigenvector columns.

    values[i] pairs with eigvecs[:, i]; eigvecs is unitary.
    """

    values: np.ndarray
    eigvecs: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce to a complex 4x4 ndarray, rejecting any other shape. Entries
    numpy cannot read as complex numbers (a str, an object) raise
    ValueError naming the input, where numpy raised its own message or a
    bare TypeError. A Python int too large for a float raises the scale
    read's ValueError(OUT_OF_SCALE), where numpy raised a bare
    OverflowError. The coercion of _scan, without its scale verdict."""
    m = _scan(a)[0]
    if m is None:
        raise ValueError(OUT_OF_SCALE)
    return m


def _scale_problem(values) -> str:
    """Why the Python numbers values are rejected: NON_FINITE for a NaN or
    infinite value, else OUT_OF_SCALE if their magnitudes sum above
    ENTRY_SCALE; "" when they are admitted.

    The package's one input-scale read: of a 4x4 matrix's 16 entries, from
    one tolist() (_scan), and of the four values of mems_from_spectrum.
    Only a rejected input is sorted into its reason.
    """
    try:
        if sum(map(abs, values)) <= ENTRY_SCALE:
            return ""
    except OverflowError:
        # abs() of a finite complex value near the float maximum raises
        pass
    return OUT_OF_SCALE if all(map(cmath.isfinite, values)) else NON_FINITE


def _scan(a) -> tuple[np.ndarray | None, list[complex] | None, str]:
    """(m, e, why): the package's one 4x4 reader. m is the input coerced
    to a complex 4x4 ndarray, e its 16 row-major entries from one
    tolist(), and why the input scale's verdict (_scale_problem): "",
    NON_FINITE or OUT_OF_SCALE. A Python int too large for a float is
    OUT_OF_SCALE with m and e None, found in the one coercion step. A
    wrong shape, or entries numpy cannot read as complex numbers, raise
    ValueError (as_matrix).

    Its consumers take why as they need it: _read raises it, the
    predicates is_unitary and xstate.is_x_form answer False for it, and
    the density check (_density_problem) returns it."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"matrix {a!r} is not an array of numbers") from None
    except OverflowError:
        return None, None, OUT_OF_SCALE
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    e = m.ravel().tolist()
    return m, e, _scale_problem(e)


def _read(a) -> tuple[np.ndarray, list[complex]]:
    """(m, e) of _scan(a) for the routes that take any admitted 4x4:
    ValueError naming its reason for an input it rejects."""
    m, e, why = _scan(a)
    if why:
        raise ValueError(why)
    return m, e


def _entry_gate(e: list[complex]) -> tuple[float, complex]:
    """(Hermitian deviation, trace) of a 4x4 matrix from its 16 row-major
    entries e, admitted by _scale_problem.

    The deviation is the largest entry of |m - m^dagger|: |e_ij - conj e_ji|
    over the six off-diagonal pairs and 2 |Im e_ii| on the diagonal. Python's
    complex abs can differ from numpy's in the last bit, which moves a
    verdict only for a deviation within an ulp of its tolerance. The trace
    is summed as numpy's pairwise sum does, (e_00 + e_11) + (e_22 + e_33)
    + 0, so it prints the same. The one entry gate of _density_problem and
    _hermitian_read.
    """
    e00, e01, e02, e03, e10, e11, e12, e13, e20, e21, e22, e23, e30, e31, e32, e33 = e
    dev = max(abs(e01 - e10.conjugate()), abs(e02 - e20.conjugate()),
              abs(e03 - e30.conjugate()), abs(e12 - e21.conjugate()),
              abs(e13 - e31.conjugate()), abs(e23 - e32.conjugate()),
              2.0 * abs(e00.imag), 2.0 * abs(e11.imag),
              2.0 * abs(e22.imag), 2.0 * abs(e33.imag))
    return dev, (e00 + e11) + (e22 + e33) + 0j


def _solve_input(m: np.ndarray, deviation: float) -> np.ndarray:
    """The matrix the eigensolvers take for m, whose Hermitian deviation
    (_entry_gate) is deviation: m as given when it equals its adjoint
    exactly (deviation 0.0), otherwise its Hermitian part
    0.5 (m + m^dagger). For an exactly Hermitian m the two are equal
    entry for entry, m + m^dagger being 2 m without rounding, and can
    differ only in the signs of zero parts; the solve skips building the
    second."""
    return m if deviation == 0.0 else 0.5 * (m + m.conj().T)


# the column indices of a 4x4 matrix, for picking one entry per column
_COLUMNS = np.arange(4)


def _sorted_eigh(m: np.ndarray, deviation: float) -> Spectrum:
    """hermitian_eig's solve and ordering, for a matrix m past its gate
    and its Hermitian deviation (_entry_gate).

    One eigh of m as given when it equals its adjoint exactly, otherwise
    of its Hermitian part (_solve_input). The columns are reversed once.
    Each one's lead entry is the first row's when all four of those pass,
    checked in Python; otherwise, as on every X-state, whose first row
    holds exact zeros, each column's first entry above ROUNDOFF, found in
    one numpy step. The phases are divided out in one numpy step: numpy's
    complex division differs from Python's in the last bits.
    """
    vals, vecs = _eigh(_solve_input(m, deviation))
    vecs = vecs[:, ::-1]
    lead = vecs[0]
    if not min(map(abs, lead.tolist())) > ROUNDOFF:
        # a unit column always has an entry of magnitude >= 1/2
        lead = vecs[(np.abs(vecs) > ROUNDOFF).argmax(axis=0), _COLUMNS]
    return Spectrum(vals[::-1], vecs / (lead / np.abs(lead)))


def _density_problem(a) -> tuple[str, np.ndarray | None, Spectrum | None]:
    """(why, m, spectrum): the one density check of is_density_matrix,
    density_spectrum and universality.counterpart_details, on the raw
    input a. why names the first failed check, "" when all hold: the
    input scale (_scan), Hermiticity and unit trace at ROUNDOFF from the
    same entries (_entry_gate), then the PSD floor -SOLVER_TOL on the
    smallest value of one eigh (_sorted_eigh, of m as given when its
    deviation is 0.0, else of its Hermitian part), whose spectrum is
    returned with m, the coerced input; None where a check before the
    solve fails. A wrong shape or entries that are not numbers raise
    as_matrix's ValueError."""
    m, e, why = _scan(a)
    if why:
        return why, m, None
    dev, tr = _entry_gate(e)
    if dev > ROUNDOFF:
        return "not Hermitian", m, None
    if abs(tr - 1.0) > ROUNDOFF:
        return f"trace {tr:.17g} differs from 1", m, None
    spec = _sorted_eigh(m, dev)
    lowest = spec.values[-1]
    return ("" if lowest >= -SOLVER_TOL else f"negative eigenvalue {lowest:.3e}"), m, spec


def is_density_matrix(a) -> tuple[bool, str]:
    """Check the input scale, Hermiticity, unit trace and positive
    semidefiniteness.

    Returns (ok, reason). reason is "" when ok, otherwise it names the
    failed check: a wrong shape or entries that are not numbers
    (as_matrix), NON_FINITE or OUT_OF_SCALE (see _scale_problem), then
    Hermiticity and trace held to ROUNDOFF and the lowest eigenvalue to
    -SOLVER_TOL. It is density_spectrum's one check (_density_problem),
    so the two agree on every input. A LAPACK failure raises.
    """
    try:
        why = _density_problem(a)[0]
    except LinAlgError:
        raise
    except ValueError as exc:
        return False, str(exc)
    return not why, why


def _hermitian_gate(deviation: float) -> None:
    """NonHermitianError for an asymmetry |m - m^dagger| above SOLVER_TOL,
    the Hermiticity every route taking a Hermitian matrix accepts."""
    if deviation > SOLVER_TOL:
        raise NonHermitianError(f"matrix is not Hermitian within {SOLVER_TOL:g}")


def _hermitian_read(a) -> tuple[np.ndarray, float]:
    """(as_matrix(a), its Hermitian deviation) behind the entry gate of
    the Hermitian routes.

    Raises ValueError for a non-finite or out-of-scale input (_read), then
    NonHermitianError for asymmetry above SOLVER_TOL (see _entry_gate).
    """
    m, e = _read(a)
    dev = _entry_gate(e)[0]
    _hermitian_gate(dev)
    return m, dev


def hermitian_eig(a) -> Spectrum:
    """Eigendecomposition of a Hermitian 4x4 matrix, sorted non-ascending.

    One eigh of the matrix as given when it equals its adjoint exactly,
    otherwise of its Hermitian part 0.5 (a + a^dagger): the two are equal
    entry for entry on an exactly Hermitian input, so the only possible
    difference is the sign of a zero (see _solve_input). Ties are broken
    by the solver's deterministic output order; each eigenvector's first
    component of magnitude > ROUNDOFF is rotated to the positive real
    axis, in one division over the columns, so repeated calls give
    identical columns. Raises ValueError for a non-finite or out-of-scale
    input and NonHermitianError for asymmetry above SOLVER_TOL; the
    entries are read once, in Python (see _read and _entry_gate).
    """
    return _sorted_eigh(*_hermitian_read(a))


def hermitian_eigvals(a) -> np.ndarray:
    """hermitian_eig(a)'s values, non-ascending, from a values-only solve
    of the same matrix, a as given or its Hermitian part (see
    hermitian_eig): equal within round-off, not bit for bit.

    Same gate as hermitian_eig: ValueError for a non-finite or
    out-of-scale input, NonHermitianError for asymmetry above SOLVER_TOL.
    """
    return _sorted_eigvals(*_hermitian_read(a))


def _sorted_eigvals(m: np.ndarray, deviation: float) -> np.ndarray:
    """hermitian_eigvals' solve, non-ascending, for a matrix m past its
    gate and its Hermitian deviation (_entry_gate), as _sorted_eigh is
    hermitian_eig's."""
    return _eigvalsh(_solve_input(m, deviation))[::-1]


def density_spectrum(a) -> Spectrum:
    """hermitian_eig of a density matrix, validated from that one eigensolve.

    Runs is_density_matrix's one check (_density_problem) and raises
    ValueError "not a density matrix: " and the failed check's reason, a
    Python int too large for a float's OUT_OF_SCALE included
    (_density_read); a wrong shape or entries that are not numbers
    raise as_matrix's ValueError. The entry checks are
    stricter than hermitian_eig's gate, which the solve skips. The one
    eigh is of the matrix as given when it equals its adjoint exactly,
    otherwise of its Hermitian part, with the sign of a zero as the only
    possible difference (see _solve_input); the values and vectors are
    those of hermitian_eig(a), bit for bit.
    """
    return _density_read(a)[1]


def _density_read(a) -> tuple[np.ndarray, Spectrum]:
    """(m, spectrum) of _density_problem(a) for the routes that take a
    density matrix (density_spectrum, universality.counterpart_details):
    ValueError "not a density matrix: " and the reason for an input it
    rejects."""
    why, m, spec = _density_problem(a)
    if why:
        raise ValueError(f"not a density matrix: {why}")
    return m, spec


# flat indices of the partial transpose: entry (2i+j, 2k+l) <- (2i+l, 2k+j)
_PT_INDEX = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_transpose(a) -> np.ndarray:
    """Transpose the second qubit: entry (2i+j, 2k+l) -> (2i+l, 2k+j).

    Raises ValueError for a non-finite or out-of-scale input (see
    _scale_problem).
    """
    return _read(a)[0].take(_PT_INDEX)


def trace_norm(a) -> float:
    """Sum of singular values (for Hermitian input: sum of |eigenvalues|)."""
    # read first: LAPACK prints argument errors for an infinite entry
    return _trace_norm(_read(a)[0])


def _trace_norm(m: np.ndarray) -> float:
    """trace_norm of a finite 4x4 matrix, without trace_norm's scale read."""
    return float(_svdvals(m).sum())


# Products are written a.dot(b): on these 4x4 operands it reaches the same
# BLAS zgemm as a @ b, bit for bit, without matmul's ~0.45 us gufunc dispatch.
def is_unitary(u) -> bool:
    """True iff u'u = I within SOLVER_TOL; False for an input whose scale
    _scan rejects, a Python int too large for a float included."""
    m, _, why = _scan(u)
    return not why and bool(np.abs(m.conj().T.dot(m) - np.eye(4)).max() <= SOLVER_TOL)


def conjugate(rho, u) -> np.ndarray:
    """Unitary conjugation u rho u'. Preserves the spectrum; reads both
    arguments through _read."""
    r, m = _read(rho)[0], _read(u)[0]
    return m.dot(r).dot(m.conj().T)
