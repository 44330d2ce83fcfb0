"""A minimal family of X-states covering every admissible (purity, concurrence).

For each purity p in [1/3, 1] and concurrence c up to the admissible
maximum cp_boundary(p), exactly one member state is returned:

    p = 1          -> pure state rho1(c), rank 1
    p in [5/9, 1[  -> rho2(u(p), c), rank 2
    p in [1/3, 5/9[-> rho3(w(p, c), c), rank 3

together with the boundary scalars, alternative parametric constructions
for specific rank/kind targets, and diagram data emission.

Rounding is monotone, so no square root meets a negative argument once
its inputs pass their range gates (1 - 2p is exact for p in [1/2, 1]).
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .matrix_core import DEFAULT_TOL, ROUNDOFF, _read_edge, _record
from .xstate import (
    _RANK_CLASSES,
    XParams,
    _classify_arrays,
    _coeffs_of,
    _x_matrix,
    partial_transpose_lows,
)

__all__ = ["BoundaryScalars", "DomainError", "OutOfDiagramError", "boundary_scalars",
           "cp_boundary", "diagram_csv", "diagram_data", "minset_state", "scalar_q", "scalar_r",
           "scalar_u", "scalar_v", "scalar_w", "scalar_z", "theorem_params"]

P_RANK2_MIN = 5.0 / 9.0
P_SEP_MAX = 1.0 / 3.0
# diagram_data's kinds: "cp" adds the boundary scalars to "negativity_purity"'s columns
DIAGRAM_KINDS = ("cp", "negativity_purity")
# the rank and kind of each class of xstate._classify_arrays: diagram_data's
# ints and diagram_csv's text
_CLASS_PAIRS = tuple((rc.rank, rc.kind) for rc in _RANK_CLASSES)
_CLASS_TEXT = tuple(f"{rc.rank},{rc.kind}" for rc in _RANK_CLASSES)

# messages of ranges read through _read_edge, which reads a value within
# ROUNDOFF outside a range as its edge
_STATES = "purity {value!r} outside [1/4, 1]"
_RANK2 = "purity {value!r} outside [1/2, 1]"
_RANK3_C = "rank 3 cannot reach concurrence {value!r} > v={hi!r}"
_W_C = "w undefined: concurrence {value!r} outside [0, v] = [0, {hi!r}]"


class DomainError(ValueError):
    """Requested scalar or construction outside its validity region."""


class OutOfDiagramError(ValueError):
    """Concurrence above the admissible maximum for the given purity."""


@_record
class BoundaryScalars:
    """Auxiliary scalars of the constructions; None where undefined."""

    u: float | None
    v: float | None
    w: float | None
    z: float | None
    q: float | None
    r: float | None


def scalar_u(p: float) -> float:
    """(1 + sqrt(2p - 1))/2 for p >= 1/2, from scalar_q."""
    return 0.5 * (1.0 + scalar_q(p))


def scalar_v(p: float) -> float:
    """sqrt(2p - 2/3) for p >= 1/3."""
    p = _read_edge(p, P_SEP_MAX, 1.0, DomainError, "v undefined at purity {value!r}")
    return math.sqrt(2.0 * p - 2.0 / 3.0)


def scalar_w(p: float, c: float) -> float:
    """1/3 - sqrt((v^2 - c^2)/3)/2 for c in [0, v(p)], a weight in [0, 1/3].

    c and the weight are both read through _read_edge, so a c within
    ROUNDOFF outside [0, v] reads as its edge, and the round-off below 0
    of the weight at purity 1 and c = 0 reads as 0.
    """
    v = scalar_v(p)
    c = _read_edge(c, 0.0, v, DomainError, _W_C)
    w = 1.0 / 3.0 - 0.5 * math.sqrt((v * v - c * c) / 3.0)
    return _read_edge(w, 0.0, 1.0 / 3.0, DomainError, "w={value!r} outside [0, 1/3]")


def scalar_z(p: float, c: float) -> float:
    """Rank-3 inner-coherence angle parameter: 4/3 - 2w when 2p <= 1 + c^2, else 2w."""
    w = scalar_w(p, c)
    if 2.0 * p <= 1.0 + c * c:
        return 4.0 / 3.0 - 2.0 * w
    return 2.0 * w


def scalar_q(p: float) -> float:
    """sqrt(2p - 1): concurrence ceiling of the rank-2 kind-1/2 family."""
    p = _read_edge(p, 0.5, 1.0, DomainError, _RANK2)
    return math.sqrt(2.0 * p - 1.0)


def scalar_r(p: float) -> float:
    """sqrt(2) sqrt(1 - 2p + q): rank-3 outer-family ceiling above 5/9, from scalar_q."""
    p = _read_edge(p, 0.5, 1.0, DomainError, _RANK2)
    return math.sqrt(2.0) * math.sqrt(1.0 - 2.0 * p + scalar_q(p))


def boundary_scalars(p: float, c: float) -> BoundaryScalars:
    """All six scalars at (p, c); out-of-domain entries are None.

    A p outside [1/4, 1], or a c that is not a real number, NaN included,
    raises DomainError naming it (the edge rule); a real c outside
    [0, v(p)] leaves w and z None.
    """
    p = _read_edge(p, 0.25, 1.0, DomainError, _STATES)
    c = _read_edge(c, -math.inf, math.inf, DomainError,
                   "concurrence {value!r} is not a real number")
    u, v, q, r = _cp_tail(p, cp_boundary(p)) if p >= P_SEP_MAX - ROUNDOFF else (None,) * 4
    try:
        w, z = scalar_w(p, c), scalar_z(p, c)
    except DomainError:
        w = z = None
    return BoundaryScalars(u, v, w, z, q, r)


def _cp_tail(p: float, top: float) -> tuple:
    """u, v, q, r at a purity p from 1/3 on, None where undefined, given its
    ceiling top = cp_boundary(p): v below 5/9 and u from 5/9 on."""
    if p < 0.5 - ROUNDOFF:
        return None, top, None, None
    u, v = (scalar_u(p), top) if p < P_RANK2_MIN else (top, scalar_v(p))
    return u, v, scalar_q(p), scalar_r(p)


def cp_boundary(p: float) -> float:
    """Maximal concurrence achievable at purity p.

    0 for p <= 1/3 (all such states are separable), v(p) up to 5/9 and
    u(p) from 5/9 on; the two branches agree (= 2/3) at the junction.
    """
    p = _read_edge(p, 0.25, 1.0, DomainError, _STATES)
    if p <= P_SEP_MAX:
        return 0.0
    if p >= P_RANK2_MIN:
        return scalar_u(p)
    return scalar_v(p)


def _member_entries(p: np.ndarray, c: np.ndarray, top) -> tuple[np.ndarray, ...]:
    """(d1, d2, d3, d4, rho_14, rho_23) of the members at purities p and
    concurrences c, each an array shaped like c.

    p is an ascending 1-D array of purities in [1/3, 1], the 1-D sequence
    top holds their ceilings cp_boundary(p), and c holds one row of
    concurrences in [0, top] per purity. The coherences are real. Rows with p < 5/9 give
    the rank-3 member

        (1 - 2w, w, 0, w), rho_14 = c/2,                w = scalar_w(p, c),

    rows with 5/9 <= p < 1 the rank-2 member

        (1 - u, (u + s)/2, (u - s)/2, 0), rho_23 = c/2, s = sqrt(u^2 - c^2),

    and rows with p >= 1 the pure member

        ((1 + s)/2, 0, 0, (1 - s)/2), rho_14 = c/2,     s = sqrt(1 - c^2),

    where the ceiling is v = scalar_v(p) below 5/9 (0 = v(1/3) at 1/3) and
    u = scalar_u(p) from 5/9 on. Nothing is read again: a purity or
    concurrence outside its range is the caller's error.
    """
    d1, d2, d3, d4, rho_14, rho_23 = np.zeros((6,) + c.shape)
    lo, hi = np.searchsorted(p, (P_RANK2_MIN, 1.0))
    top = np.array(top)[:, None]
    # each square root below is of top^2 - c^2 (1 - c^2 at purity 1)
    gap, half_c = top * top - c * c, 0.5 * c
    # a batch of one (minset_state) fills one slice; the empty ones are skipped
    if lo > 0:
        w = 1.0 / 3.0 - 0.5 * np.sqrt(gap[:lo] / 3.0)
        d1[:lo] = 1.0 - 2.0 * w
        d2[:lo] = d4[:lo] = w
        rho_14[:lo] = half_c[:lo]
    if hi > lo:
        u, s = top[lo:hi], np.sqrt(gap[lo:hi])
        d1[lo:hi] = 1.0 - u
        d2[lo:hi] = 0.5 * (u + s)
        d3[lo:hi] = 0.5 * (u - s)
        rho_23[lo:hi] = half_c[lo:hi]
    if hi < len(p):
        s = np.sqrt(gap[hi:])
        d1[hi:] = 0.5 * (1.0 + s)
        d4[hi:] = 0.5 * (1.0 - s)
        rho_14[hi:] = half_c[hi:]
    return d1, d2, d3, d4, rho_14, rho_23


def minset_state(p: float, c: float) -> np.ndarray:
    """The member state with purity p and concurrence c.

    p = 1 gives the pure rank-1 member; p in [5/9, 1[ the rank-2 member;
    p in [1/3, 5/9[ the rank-3 member (see _member_entries, of which
    this is a batch of one).
    """
    p = _read_edge(p, P_SEP_MAX, 1.0, DomainError, "purity {value!r} outside [1/3, 1]")
    top = cp_boundary(p)
    c = _read_edge(c, 0.0, top, OutOfDiagramError,
                   "concurrence {value!r} outside [0, cp_boundary(p)] = [0, {hi!r}]")
    return _x_matrix(*(e.item() for e in _member_entries(np.array([p]), np.array([[c]]), [top])))


def theorem_params(p: float, c: float, variant: str) -> XParams:
    """Parametric construction hitting purity p and concurrence c.

    variant selects the target rank/kind:
      r1k1: rank 1 kind 1 (outer coherence), p = 1 only
      r1k2: rank 1 kind 2 (inner coherence), p = 1 only
      r2k3: rank 2 kind 3, p in [1/2, 1[, c <= u(p)
      r3k1: rank 3 kind 1, p in [1/3, 5/9[ with c <= v(p),
            extended to p in [5/9, 1[ with c < r(p)
      r3k2: rank 3 kind 2, p in [1/2, 5/9[, c <= v(p)

    The fields are Python floats. A p that is not a real number, NaN
    included, raises DomainError naming it (the edge rule).
    """
    half_pi = 0.5 * np.pi
    c = _read_edge(c, 0.0, 1.0, DomainError, "concurrence {value!r} outside [0, 1]")
    p = _read_edge(p, -math.inf, math.inf, DomainError, "purity {value!r} is not a real number")

    if variant in ("r1k1", "r1k2") and not abs(p - 1.0) <= DEFAULT_TOL:
        raise DomainError(f"{variant} exists only at purity 1")
    if variant == "r1k1":
        return XParams(theta=float(0.5 * np.arcsin(c)), phi=half_pi, psi=half_pi,
                       x=c * c / 4.0, y=0.0)
    if variant == "r1k2":
        return XParams(theta=half_pi, phi=float(0.5 * np.arcsin(c)), psi=0.0,
                       x=0.0, y=c * c / 4.0)
    if variant == "r2k3":
        if not (0.5 - ROUNDOFF <= p < 1.0 - ROUNDOFF):
            raise DomainError(f"r2k3 needs purity in [1/2, 1[, got {p!r}")
        u = scalar_u(p)
        c = _read_edge(c, 0.0, u, DomainError, "r2k3 cannot reach concurrence {value!r} > u={hi!r}")
        return XParams(theta=float(np.arcsin(np.sqrt(u))), phi=float(0.5 * np.arcsin(c / u)),
                       psi=0.0, x=0.0, y=c * c / 4.0)
    if variant == "r3k1":
        if not (P_SEP_MAX - ROUNDOFF <= p < 1.0 - ROUNDOFF):
            raise DomainError(f"r3k1 needs purity in [1/3, 1[, got {p!r}")
        if p < P_RANK2_MIN:
            c = _read_edge(c, 0.0, scalar_v(p), DomainError, _RANK3_C)
        else:
            lim = scalar_r(p)
            # at c = r the outer weight hits its positivity ceiling and the
            # rank drops to 2, so the boundary itself is excluded
            if c >= lim:
                raise DomainError(f"r3k1 above 5/9 needs concurrence < r={lim!r}")
        w = scalar_w(p, c)
        return XParams(theta=float(np.arcsin(np.sqrt(2.0 * w))), phi=0.25 * np.pi,
                       psi=half_pi, x=c * c / 4.0, y=0.0)
    if variant == "r3k2":
        if not (0.5 - ROUNDOFF <= p < P_RANK2_MIN):
            raise DomainError(f"r3k2 needs purity in [1/2, 5/9[, got {p!r}")
        c = _read_edge(c, 0.0, scalar_v(p), DomainError, _RANK3_C)
        z = _read_edge(scalar_z(p, c), 0.0, 1.0, DomainError, "r3k2 z={value!r} outside [0, 1]")
        return XParams(theta=float(np.arcsin(np.sqrt(z))), phi=0.25 * np.pi,
                       psi=0.0, x=0.0, y=c * c / 4.0)
    raise DomainError(f"unknown variant {variant!r}")


def _diagram_pass(kind: str, grid_n: int) -> tuple:
    """diagram_data's grid as (ps, tails, c, negativity, classes), for n = grid_n.

    ps lists the purities; tails, for each, the cells its rows end with
    (the cp kind's u, v, q, r, none for negativity_purity); c and
    negativity are (n, n) float arrays, a row per purity, and classes the
    (n, n) integer array of each cell's class, an index into
    xstate._RANK_CLASSES (xstate._classify_arrays). Raises ValueError for
    an unknown kind or a grid_n that is not an integer of at least 2.

    The whole grid is one array pass over the members' entries
    (_member_entries), with no matrix and no chart: the negativity comes
    from xstate.partial_transpose_lows and the class from
    xstate._classify_arrays, classify_rank's rule on arrays. Each
    purity's ceiling cp_boundary(p) is computed once, to lay out its
    concurrences and build its members, and as its cp tail's u or v.
    """
    if kind not in DIAGRAM_KINDS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    try:
        n = operator.index(grid_n)
    except TypeError:
        raise ValueError(f"grid_n={grid_n!r} is not an integer") from None
    if n < 2:
        raise ValueError("grid_n must be at least 2")
    ps = np.linspace(P_SEP_MAX, 1.0, n).tolist()
    tops = [cp_boundary(p) for p in ps]
    # row i is np.linspace(0.0, tops[i], n) byte for byte, ending exactly at its ceiling
    c = np.arange(n) * (np.array(tops) / (n - 1))[:, None]
    c[:, -1] = tops
    d1, d2, d3, d4, rho_14, rho_23 = _member_entries(np.array(ps), c, tops)
    x, y = rho_14 * rho_14, rho_23 * rho_23
    co = _coeffs_of(d1, d2, d3, d4)
    t1, t2 = partial_transpose_lows(co.b_cal, d1 + d4, co.g_low, co.h_low, x, y)
    negativity = -np.minimum(np.minimum(t1, t2), 0.0) + 0.0
    tails = list(map(_cp_tail, ps, tops)) if kind == "cp" else [()] * n
    return ps, tails, c, negativity, _classify_arrays(co, x, y)


def diagram_data(kind: str, grid_n: int) -> list[tuple]:
    """Grid rows for the diagram CSVs.

    Row-major: purity outer (uniform on [1/3, 1]), concurrence inner
    (uniform on [0, cp_boundary(p)]). Each row carries the member state's
    negativity and classified rank/kind; kind="cp" appends the boundary
    scalars u, v, q, r (None where undefined). The cells are Python
    floats and ints. grid_n is read as an integer (operator.index) of at
    least 2; anything else raises ValueError.

    The rows are the grid pass's columns (_diagram_pass), its classes
    read as ranks and kinds through _CLASS_PAIRS: those of
    classify_rank(from_density(minset_state(p, c))) and, to round-off,
    negativity_x(minset_state(p, c)), whose squares are libm pow, not products.
    """
    ps, tails, c, negativity, classes = _diagram_pass(kind, grid_n)
    columns = zip(ps, tails, c.tolist(), negativity.tolist(), classes.tolist())
    return [(p, ci, neg, *_CLASS_PAIRS[k], *tail) for p, tail, *row in columns
            for ci, neg, k in zip(*row)]


def diagram_csv(kind: str, grid_n: int) -> str:
    """CSV text for diagram_data: 12 significant digits, LF line endings.

    Formatted from the grid pass's columns (_diagram_pass) one purity at
    a time: its n lines are one template, filled by one % from its c and
    negativity floats and its classes' rank,kind text (_CLASS_TEXT),
    interleaved in one list; the cells its rows share (p and the cp
    kind's u, v, q, r) are written into the template once.
    """
    ps, tails, c, negativity, classes = _diagram_pass(kind, grid_n)
    text = ["p,c,negativity,rank,kind" + (",u,v,q,r" if kind == "cp" else "") + "\n"]
    cells = [None] * (3 * len(ps))
    for p, tail, cs, negs, ks in zip(ps, tails, c.tolist(), negativity.tolist(), classes.tolist()):
        cells[::3], cells[1::3], cells[2::3] = cs, negs, [_CLASS_TEXT[k] for k in ks]
        ends = "".join(["," if val is None else ",%.12g" % val for val in tail])
        line = "%.12g" % p + ",%.12g,%.12g,%s" + ends + "\n"
        text.append(line * len(ps) % tuple(cells))
    return "".join(text)
