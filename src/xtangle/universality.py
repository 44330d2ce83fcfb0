"""Spectrum-preserving conversion of any two-qubit state to an X-state.

The pipeline has two legs. First, a basis change built from the input's
eigenvectors lands on the maximally entangled mixed state (MEMS) with the
same spectrum; that state is X-form and carries the largest concurrence
and negativity of the whole unitary orbit. Second, a one-parameter family
of block rotations inside the X manifold walks either measure down from
the MEMS value, monotonically in effect, until it matches the input's
value. Composing the two legs gives a single unitary whose conjugation of
the input is an X-state with the same spectrum and the same chosen
measure.

Block rotations mix the outer levels (1,4) or the inner levels (2,3)
only, so they keep X-form. Walking the outer coherence from x down to a
target t uses a rotation angle whose doubled cosine and sine are

    cos 2b = (sqrt(t x) + (h/2) sqrt(X+ - t)) / X+
    sin 2b = (sqrt(x (X+ - t)) - (h/2) sqrt(t)) / X+

with h the outer population difference and X+ = (h/2)^2 + x the orbit
ceiling. Along tau in [0, 1] the coherence is

    x_tau = (h/2 sin(2 b tau) - sqrt(x) cos(2 b tau))^2,

which starts at x, ends exactly at t, and never drops below t (for
negative h it transiently rises above x, bounded by X+; the measure
formulas remain exact there). The inner-coherence leg is identical with
(y, g, H) in place of (x, h, G).

The walk is solved by inverting these formulas rather than by a search.
Along the path the concurrence is 2 (sqrt(x_tau) - sqrt(G)) and the
negativity sqrt((B/2)^2 + x_tau - G) - B/2, with B the partner block sum,
so a target value fixes the coherence t the walk must reach. The half
angle above, taken with that t, is the rotation reaching it, and its
ratio to the full angle b is the tau of the target.

For the conversion both legs are closed forms in the input's eigenvalues
l1 >= l2 >= l3 >= l4, those at or below matrix_core.EIG_FLOOR taken as 0,
so one eigendecomposition of the input serves the validation, the basis
change, the concurrence target and the walk. The MEMS has diagonal
(l4, (l1 + l3)/2, (l1 + l3)/2, l2) and inner coherence (l1 - l3)/2. Its
inner block is exactly degenerate (g = 0), and its inner product
((l1 + l3)/2)^2 is never below the outer one l2 l4, so the walk rotates
the inner block from coherence a = ((l1 - l3)/2)^2, population
difference 0, down to the floor l2 l4, with partner sum l2 + l4. The
ceilings are

    C = max(0, l1 - l3 - 2 sqrt(l2 l4)),
    N = max(0, sqrt(((l1 - l3)/2)^2 + ((l2 - l4)/2)^2) - (l2 + l4)/2),

and the rotation reaching a target value has

    cos 2b = (C + 2 sqrt(l2 l4)) / (l1 - l3)             (concurrence C),
    cos 2b = 2 sqrt((N + l2)(N + l4)) / (l1 - l3)        (negativity N).

A conversion therefore reports branch "g_zero", or "already_separable"
when the chosen measure's ceiling is exactly 0 and there is nothing to
walk. Its rotation R is x_unitary(0, 0, b tau, 0), the inner block
rotated by b tau, the walk's angle at the target's tau. So the
X-counterpart is the rotated MEMS, and one writer each gives it at that
angle: _mems_entries its entries, in real closed form, from the
eigenvalues as solved, not floored; _mems_basis the product R O of the
rotation and the basis change O onto the MEMS. The unitary is
W = (R O) V^dagger, with V the eigenvectors, and W rho W^dagger equals
the output within round-off. The output's off-X entries are exactly 0
and its measure is taken from its entries, unread. At angle 0 both
writers are exact (cos 0 = 1, sin 0 = 0), so verstraete_unitary and
mems_from_spectrum, their angle-0 cases, are a conversion at tau = 0
bit for bit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    OUT_OF_SCALE,
    ROUNDOFF,
    Spectrum,
    _density_read,
    _read_edge,
    _record,
    _scale_problem,
    hermitian_eig,
)
from .measures import (
    _concurrence_of,
    _negativity_of,
    _pt_negativity,
    concurrence_from_eig,
    floored,
)
from .xstate import (
    XCoeffs,
    XParams,
    _diagonal_of,
    _entangled_outer,
    _finite_angles,
    _params_of,
    _physical_coeffs,
    _point_entries,
    _x_matrix,
)

__all__ = ["CounterpartResult", "DisentangleSolution", "PathPoint", "TargetOutOfRangeError",
           "concurrence_along", "conjugate_x", "counterpart_details", "disentangle_params",
           "evolve", "mems_from_spectrum", "negativity_along", "solve_tau", "verstraete_unitary",
           "x_unitary"]

# the measures a conversion or a walk can hold fixed
MEASURES = ("concurrence", "negativity")

# the MEMS basis change's nonzero entries off e2 and e4 (_mems_basis)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# the walk's tau gate, read through matrix_core._read_edge; a NaN fails it
_TAU = "tau {value!r} outside [0, 1]"


class TargetOutOfRangeError(ValueError):
    """Requested measure value not reachable along the path."""


def _measure_name(measure) -> str:
    """measure as the one of MEASURES it names: the one read of a measure
    name, by counterpart_details and the walk's solve (_path_inputs).
    Anything else, an array of names or a one-element array of a valid
    name included, raises ValueError naming it."""
    if isinstance(measure, str) and measure in MEASURES:
        return MEASURES[MEASURES.index(measure)]
    raise ValueError(f"unknown measure {measure!r}")


@_record
class DisentangleSolution:
    """Block-rotation angles removing all entanglement at tau = 1.

    Exactly one of b1 (outer) and b3 (inner) is nonzero; b2 and b4 pin
    the rotation phases to the coherence phases. x_plus and x_minus are
    the orbit ceiling and floor (h/2)^2 +- x of the active block,
    z_minus is sin^2(2 b) of the selected rotation and s_tilde the sign
    of its cos(2 b), carried as 0 whenever the active population
    difference vanishes (degenerate blocks admit both root signs); both
    are zero for an already separable input.
    """

    b1: float
    b2: float
    b3: float
    b4: float
    x_plus: float
    x_minus: float
    z_minus: float
    s_tilde: int
    branch: str


@_record
class PathPoint:
    """State of the walk at one tau, with both measures evaluated."""

    tau: float
    params: XParams
    concurrence: float
    negativity: float


@_record
class CounterpartResult:
    """Full record of one conversion.

    state is the X-state built in closed form (see counterpart_details),
    the MEMS of spectrum with its inner block rotated by the walk's angle:
    its off-X entries are exactly 0 and it equals unitary @ input @
    unitary^dagger within round-off. At tau = 0 state and unitary are
    mems_from_spectrum(spectrum) and verstraete_unitary(input), bit for
    bit. tau is the path parameter,
    target the input's measure value, achieved the output's, clip the
    amount (if any) the target exceeded the MEMS ceiling by and was
    cut back; nonzero clip only ever reflects numerical noise. branch is
    "g_zero" when the walk rotates the MEMS's exactly degenerate inner
    block, and "already_separable" (tau = 0, the MEMS itself) when the
    MEMS ceiling of the chosen measure is exactly 0. spectrum holds the
    input's eigenvalues, non-ascending, which the state shares.

    achieved is measured in closed form from the state's two 2x2
    blocks, as measures.concurrence_x or measures.negativity_x measure
    them, bit for bit, but from the entries as written, unread; the
    former takes each block's eigenvalues at or below
    matrix_core.EIG_FLOOR as 0, the floor concurrence_from_eig applies
    to the target.
    """

    state: np.ndarray
    unitary: np.ndarray
    tau: float
    branch: str
    measure: str
    target: float
    achieved: float
    clip: float
    spectrum: np.ndarray


def x_unitary(b1: float, b2: float = 0.0, b3: float = 0.0, b4: float = 0.0) -> np.ndarray:
    """Unitary rotating the outer block by b1 and the inner block by b3,
    with phases b2 and b4. Raises ValueError for an angle that is
    non-finite or not a real number (xstate._finite_angles).
    """
    _finite_angles(b1, b2, b3, b4)
    c1, s1 = math.cos(b1), math.sin(b1)
    c3, s3 = math.cos(b3), math.sin(b3)
    # numpy phases keep -s / e numpy's division; Python's rounds differently
    e2, e4 = np.exp(1j * b2), np.exp(1j * b4)
    v = np.zeros((4, 4), dtype=complex)
    v[0, 0] = v[3, 3] = c1
    v[0, 3] = e2 * s1
    v[3, 0] = -s1 / e2
    v[1, 1] = v[2, 2] = c3
    v[1, 2] = e4 * s3
    v[2, 1] = -s3 / e4
    return v


def conjugate_x(p: XParams, b1: float, b2: float = 0.0,
                b3: float = 0.0, b4: float = 0.0) -> XParams:
    """Parameters of V rho V^dagger for the block rotation V(b1..b4).

    Closed form; equals from_density(conjugate(to_density(p), V)) up to
    round-off. Reads p as to_density does (xstate._physical_coeffs):
    ValueError for an invalid point, UnphysicalError for one outside the
    positivity range. Then raises ValueError for an angle that is
    non-finite or not a real number, as x_unitary does. The rotated
    entries go to the chart's inverse unread (xstate._params_of).
    """
    _, (d1, d2, d3, d4), x, y = _physical_coeffs(p)
    _finite_angles(b1, b2, b3, b4)
    d1n, d4n, outer = _rotated_block(d1, d4, math.sqrt(x), p.mu, b1, b2)
    d2n, d3n, inner = _rotated_block(d2, d3, math.sqrt(y), p.nu, b3, b4)
    return _params_of(d1n, d2n, d3n, d4n, outer, inner)


def _rotated_block(d_a, d_b, root, phase, b, b_phase):
    """(d_a', d_b', coherence') of the block [[d_a, root e^{i phase}], [.., d_b]]
    after conjugate_x's rotation by the angle b with phase b_phase."""
    c, s = math.cos(b), math.sin(b)
    shift = root * math.sin(2.0 * b) * math.cos(b_phase - phase)
    return (c * c * d_a + s * s * d_b + shift,
            s * s * d_a + c * c * d_b - shift,
            c * c * root * cmath.exp(1j * phase)
            - s * s * root * cmath.exp(1j * (2.0 * b_phase - phase))
            - c * s * (d_a - d_b) * cmath.exp(1j * b_phase))


def _half_angle(a: float, tgt: float, dd: float) -> tuple[float, float, float]:
    """Rotation half-angle taking coherence a down to tgt along the
    monotone-in-effect root; returns (b, cos 2b, sin 2b).

    a > 0 and tgt >= 0: every caller walks a coherence down from above
    its floor, a product of populations. dd is the population difference
    of the block. The returned branch keeps the running coherence at or
    above tgt for every intermediate angle; the quadratic's other root
    crosses zero first when dd < 0.
    """
    xp = (0.5 * dd) ** 2 + a
    head = max(xp - tgt, 0.0)
    c2b = (math.sqrt(tgt * a) + 0.5 * dd * math.sqrt(head)) / xp
    s2b = (math.sqrt(a * head) - 0.5 * dd * math.sqrt(tgt)) / xp
    return 0.5 * math.atan2(s2b, c2b), c2b, s2b


def _leg(cf: XCoeffs, x: float, y: float, outer: bool) -> tuple[float, float, float, float]:
    """(coherence, population difference, floor, partner sum) of the walk
    on the outer coherence x or the inner one y of a state with XCoeffs cf."""
    return (x, cf.h_low, cf.g_cal, cf.b_cal) if outer else (y, cf.g_low, cf.h_cal, cf.c_cal)


def disentangle_params(p: XParams) -> DisentangleSolution:
    """Angles of the block rotation separating p at tau = 1.

    A state with dominant outer product (H >= G) carries entanglement
    only in its outer coherence, so an outer rotation bringing x down to
    G separates it; the opposite ordering is handled by the mirrored
    inner rotation. Conservation of the block invariants guarantees the
    untouched coherence stays admissible throughout. Within the
    positivity slack either coherence can exceed its floor whatever the
    ordering, so an entangled state's leg is the coherence whose
    partial-transpose eigenvalue is the lower one; a separable state's
    follows the ordering.

    Every state xstate.is_separable accepts is labelled
    "already_separable". That is the partial-transpose test at
    SOLVER_TOL, so the label also covers states of negativity up to
    1e-10 whose concurrence reaches about 2 sqrt(SOLVER_TOL b), roughly
    2e-5, with b the population sum of the block opposite the coherence
    (b_cal for the outer coherence, c_cal for the inner).
    """
    cf, _, x, y = _physical_coeffs(p)
    entangled_outer = _entangled_outer(cf, x, y)
    outer_leg = cf.h_cal >= cf.g_cal if entangled_outer is None else entangled_outer
    a, dd, tgt, _ = _leg(cf, x, y, outer_leg)
    b = z_minus = 0.0
    s_tilde = 0
    if entangled_outer is None:
        branch = "already_separable"
    else:
        b, c2b, s2b = _half_angle(a, tgt, dd)
        z_minus = s2b * s2b
        if dd != 0.0:
            s_tilde = 1 if c2b >= 0.0 else -1
        if outer_leg:
            branch = "h_zero" if dd == 0.0 else "HgtG"
        else:
            branch = "g_zero" if dd == 0.0 else "GgtH"
    return DisentangleSolution(
        b1=b if outer_leg else 0.0, b2=p.mu, b3=0.0 if outer_leg else b, b4=p.nu,
        x_plus=(0.5 * dd) ** 2 + a, x_minus=(0.5 * dd) ** 2 - a,
        z_minus=z_minus, s_tilde=s_tilde, branch=branch,
    )


def _solution_angles(sol: DisentangleSolution) -> tuple[str, float, float, float, float]:
    """(branch, b1, b2, b3, b4) of a walk solution, its one read. Raises
    ValueError naming a sol that lacks those fields, one that is not a
    DisentangleSolution."""
    try:
        return sol.branch, sol.b1, sol.b2, sol.b3, sol.b4
    except AttributeError:
        raise ValueError(f"solution {sol!r} is not a DisentangleSolution") from None


def evolve(p: XParams, sol: DisentangleSolution, tau: float) -> PathPoint:
    """The walk's point at tau in [0, 1], with both measures.

    Reads tau, then sol (_solution_angles), then p once, in conjugate_x.
    The rotated point q is physical by construction, so its entries are
    taken as to_density writes them (xstate._point_entries), unread, and
    measured by the closed forms of concurrence_x and negativity_x: no
    4x4 matrix is built.
    """
    tau = _read_edge(tau, 0.0, 1.0, ValueError, _TAU)
    _, b1, b2, b3, b4 = _solution_angles(sol)
    q = conjugate_x(p, b1 * tau, b2, b3 * tau, b4)
    e = _point_entries(_diagonal_of(q.theta, q.phi, q.psi), q.x, q.y, q.mu, q.nu)
    return PathPoint(tau, q, _concurrence_of(*e), _negativity_of(*e))


def _path_inputs(p: XParams, sol: DisentangleSolution,
                 measure: str) -> tuple[float, float, float, float, float]:
    """(coherence, population difference, floor target, partner sum, angle)
    of the walk's leg (_leg), from one read of the chart
    (xstate._physical_coeffs), which runs on every label; all 0 on
    "already_separable". Raises ValueError for a measure name not in
    MEASURES (_measure_name), then for a sol that is not a
    DisentangleSolution (_solution_angles), then for a branch no solution
    carries, or one whose leg's own population product is below its floor
    by more than DEFAULT_TOL."""
    _measure_name(measure)
    cf, _, x, y = _physical_coeffs(p)
    branch, b1, _, b3, _ = _solution_angles(sol)
    if branch == "already_separable":
        return 0.0, 0.0, 0.0, 0.0, 0.0
    outer = branch in ("HgtG", "h_zero")
    if not outer and branch not in ("GgtH", "g_zero"):
        raise ValueError(f"unknown solution branch {branch!r}")
    a, dd, floor, partner = _leg(cf, x, y, outer)
    if (cf.h_cal if outer else cf.g_cal) < floor - DEFAULT_TOL:
        raise ValueError("solution branch does not match the state")
    return a, dd, floor, partner, b1 if outer else b3


def _coherence_at(a: float, dd: float, b: float, tau: float) -> float:
    r = 0.5 * dd * math.sin(2.0 * b * tau) - math.sqrt(a) * math.cos(2.0 * b * tau)
    return r * r


# x is a squared coherence and floor a product of two populations, both
# >= 0, so no square root below meets a negative argument
def _measure_at(x: float, floor: float, partner: float, measure: str) -> float:
    if measure == "concurrence":
        return 2.0 * max(0.0, math.sqrt(x) - math.sqrt(floor))
    half = 0.5 * partner
    return max(0.0, math.sqrt(max(half * half + x - floor, 0.0)) - half)


def _along(p: XParams, sol: DisentangleSolution, tau: float, measure: str) -> float:
    """The measure ("concurrence" or "negativity") of the walk at tau, in
    closed form, behind evolve's tau gate.

    0 on the "already_separable" label, whose states (see
    disentangle_params) can carry concurrence up to about 2e-5 and
    negativity up to SOLVER_TOL.
    """
    tau = _read_edge(tau, 0.0, 1.0, ValueError, _TAU)
    a, dd, floor, partner, b = _path_inputs(p, sol, measure)
    return _measure_at(_coherence_at(a, dd, b, tau), floor, partner, measure)


def concurrence_along(p: XParams, sol: DisentangleSolution, tau: float) -> float:
    """Concurrence of the walk at tau in [0, 1], in closed form; see _along."""
    return _along(p, sol, tau, "concurrence")


def negativity_along(p: XParams, sol: DisentangleSolution, tau: float) -> float:
    """Negativity of the walk at tau in [0, 1], in closed form; see _along."""
    return _along(p, sol, tau, "negativity")


def _walk_tau(a: float, dd: float, floor: float, partner: float, b: float,
              ceiling: float, target: float, measure: str) -> float:
    """tau at which a walk with ceiling > 0 brings the measure to target.

    Target 0 gives tau = 1 and a target within ROUNDOFF of the
    ceiling tau = 0, both exactly: the walk is flat at tau = 0, where a
    last-ulp miss of the ceiling would otherwise be read as a finite angle.
    """
    if target <= 0.0:
        return 1.0
    if target >= ceiling - ROUNDOFF:
        return 0.0
    if measure == "concurrence":
        x_t = floor + target * (math.sqrt(floor) + 0.25 * target)
    else:
        x_t = floor + target * (target + partner)
    return float(min(max(_half_angle(a, x_t, dd)[0] / b, 0.0), 1.0))


def solve_tau(p: XParams, sol: DisentangleSolution, target: float,
              measure: str = "concurrence") -> float:
    """tau at which the chosen measure equals target.

    Inverts the path formula in closed form: the target fixes the
    coherence x_t the walk must reach, concurrence C through
    x_t = floor + C (sqrt(floor) + C/4) and negativity N through
    x_t = floor + N (N + B) with B the partner block sum. tau is the
    ratio of the half angle reaching x_t to the full path angle, clamped
    to [0, 1]. A target within ROUNDOFF outside [0, starting value]
    reads as that edge (matrix_core._read_edge). Target 0 gives tau = 1
    exactly, and a target within ROUNDOFF of the walk's starting value
    gives tau = 0 exactly.
    """
    a, dd, floor, partner, b = _path_inputs(p, sol, measure)
    value0 = _measure_at(_coherence_at(a, dd, b, 0.0), floor, partner, measure)
    target = _read_edge(target, 0.0, value0, TargetOutOfRangeError,
                        "target {value!r} outside [0, {hi!r}] for " + measure)
    if value0 == 0.0:
        return 0.0
    return _walk_tau(a, dd, floor, partner, b, value0, target, measure)


def _mems_basis(angle: float) -> np.ndarray:
    """R(angle) O: O maps diag(l1..l4), non-ascending, onto the MEMS of
    that spectrum, and R = x_unitary(0, 0, angle, 0) rotates its inner
    block. The real rows e4, (p, 0, q, 0), (q, 0, -p, 0) and e2, with
    p, q = (cos angle +- sin angle) / sqrt 2; at angle 0, p = q = 1/sqrt 2
    exactly, so R(0) O is O."""
    c, s = math.cos(angle), math.sin(angle)
    p, q = (c + s) * _INV_SQRT2, (c - s) * _INV_SQRT2
    ro = np.zeros((4, 4), dtype=complex)
    ro[0, 3] = ro[3, 1] = 1.0
    ro[1, 0], ro[1, 2], ro[2, 0], ro[2, 2] = p, q, q, -p
    return ro


def _mems_entries(r1, r2, r3, r4, angle: float) -> tuple:
    """(d1, d2, d3, d4, rho_14, rho_23) of the MEMS of the eigenvalues
    r1 >= r2 >= r3 >= r4 with its inner block rotated by angle, the state
    _mems_basis(angle) takes diag(r1..r4) to: diagonal
    (r4, m + h sin 2a, m - h sin 2a, r2) and real inner coherence
    h cos 2a, with m = (r1 + r3)/2 and h = (r1 - r3)/2. At angle 0,
    sin 0 = 0 and cos 0 = 1 exactly, so these are the MEMS's own entries.
    Unread."""
    m, h = 0.5 * (r1 + r3), 0.5 * (r1 - r3)
    shift = h * math.sin(2.0 * angle)
    return r4, m + shift, m - shift, r2, 0.0, h * math.cos(2.0 * angle)


# O, the basis change onto the MEMS: _mems_basis at angle 0, written once
_MEMS_BASIS_0 = _mems_basis(0.0)


def verstraete_unitary(rho: np.ndarray) -> np.ndarray:
    """Unitary taking rho to the maximally entangled mixed state (MEMS) of
    its spectrum: _mems_basis(0) @ V^dagger, V the eigenvectors of rho,
    which is a conversion's unitary at tau = 0, bit for bit."""
    return _MEMS_BASIS_0.dot(hermitian_eig(rho).eigvecs.conj().T)


def mems_from_spectrum(spectrum) -> np.ndarray:
    """Maximally entangled mixed X-state with the given four eigenvalues:
    _mems_entries at angle 0, which is a conversion's state at tau = 0,
    bit for bit.

    Raises ValueError naming a spectrum numpy cannot read as real numbers,
    a complex array included, then for four values that are non-finite or
    out of scale, read as one input by matrix_core._scale_problem, a
    Python int too large for a float included.
    """
    try:
        if np.iscomplexobj(spectrum):
            # the cast would drop the imaginary parts with only a ComplexWarning
            raise TypeError
        vals = np.asarray(spectrum, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"spectrum {spectrum!r} is not an array of real numbers") from None
    except OverflowError:
        raise ValueError(OUT_OF_SCALE) from None
    if vals.shape != (4,):
        raise ValueError("spectrum must hold exactly four values")
    why = _scale_problem(vals.tolist())
    if why:
        raise ValueError(why)
    return _x_matrix(*_mems_entries(*np.sort(vals)[::-1].tolist(), 0.0))


def counterpart_details(rho: np.ndarray, measure: str = "concurrence") -> CounterpartResult:
    """Convert rho to an X-state of equal spectrum and equal measure.

    The reads, then the conversion (_counterpart). The measure name is
    read first (_measure_name): anything but one of the MEASURES strings
    raises ValueError before rho is read or solved, as solve_tau reads
    it. rho is coerced and its entries read once, by density_spectrum's
    check (matrix_core._density_read), which raises its "not a density
    matrix: " ValueError, and the conversion takes the matrix as coerced
    and that check's one eigendecomposition: of rho as given when it
    equals its adjoint exactly, otherwise of its Hermitian part, with the
    sign of a zero as the only possible difference.
    """
    measure = _measure_name(measure)
    return _counterpart(*_density_read(rho), measure)


def _counterpart(rho: np.ndarray, spec: Spectrum, measure: str) -> CounterpartResult:
    """counterpart_details of a matrix past its reads: rho as coerced and
    density-checked, spec its density_spectrum and measure one of
    MEASURES. Neither is read again, so one solve of rho serves a
    conversion under each measure.

    Everything but a negativity target comes from spec: two LAPACK calls
    per conversion, spec's matrix_core._eigh and a _svdvals (concurrence
    target) or an _eigvalsh of rho's partial transpose (negativity
    target). The solve is read once: one list of its values feeds the
    floor and the state's entries, and one V^dagger the concurrence
    target and the unitary. See the module docstring for the walk. At the
    walk's angle the state is _mems_entries of the eigenvalues as solved
    and the unitary _mems_basis @ V^dagger: off-X entries exactly 0, and
    the measure achieved (see CounterpartResult). The target can exceed
    the MEMS ceiling only through numerical noise; any excess is clipped
    and reported.
    """
    # the solve read once: its values as one list and V^dagger as one array
    solved = spec.values.tolist()
    values = floored(solved)
    adjoint = spec.eigvecs.conj().T
    if measure == "concurrence":
        target = concurrence_from_eig(values, spec.eigvecs, adjoint)
        measure_of = _concurrence_of
    else:
        # rho passed the density checks, which are stricter than its gate
        target = _pt_negativity(rho)
        measure_of = _negativity_of

    # the MEMS walk: inner coherence ((l1 - l3)/2)^2 over an exactly
    # degenerate inner block, floor l2 l4 and partner sum l2 + l4
    l1, l2, l3, l4 = values
    a = (0.5 * (l1 - l3)) ** 2
    floor, partner = l2 * l4, l2 + l4
    ceiling = _measure_at(a, floor, partner, measure)
    clip = max(0.0, target - ceiling)
    if ceiling == 0.0:
        branch, tau, angle = "already_separable", 0.0, 0.0
    else:
        b = _half_angle(a, floor, 0.0)[0]
        branch = "g_zero"
        tau = _walk_tau(a, 0.0, floor, partner, b, ceiling,
                        min(target, ceiling), measure)
        angle = b * tau

    # the values as solved, not floored: W rho W^dagger equals the state
    # within round-off even for a value in [-SOLVER_TOL, 0)
    entries = _mems_entries(*solved, angle)
    achieved = measure_of(*entries)
    # positional: state, unitary, tau, branch, measure, target, achieved,
    # clip, spectrum
    return CounterpartResult(_x_matrix(*entries), _mems_basis(angle).dot(adjoint),
                             tau, branch, measure, target, achieved, clip, spec.values)
