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
from dataclasses import dataclass

import numpy as np

from .matrix_core import DEFAULT_TOL, ROUNDOFF, _read_edge
from .xstate import (
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


@dataclass(frozen=True)
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
    """Rank-3 inner-coherence construction angle parameter.

    4/3 - 2w when 2p <= 1 + c^2, else 2w.
    """
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
    """All six scalars at (p, c); out-of-domain entries are None."""
    p = _read_edge(p, 0.25, 1.0, DomainError, _STATES)
    return BoundaryScalars(
        u=_or_none(scalar_u, p),
        v=_or_none(scalar_v, p),
        w=_or_none(scalar_w, p, c),
        z=_or_none(scalar_z, p, c),
        q=_or_none(scalar_q, p),
        r=_or_none(scalar_r, p),
    )


def _or_none(fn, *args):
    """fn(*args), or None where it raises DomainError."""
    try:
        return fn(*args)
    except DomainError:
        return None


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


def _member_entries(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """(d1, d2, d3, d4, rho_14, rho_23) of the members at purities p and
    concurrences c, each an array shaped like c.

    p is an ascending 1-D array of purities and c holds one row of
    concurrences in [0, cp_boundary(p)] per purity. The coherences are
    real. Rows with p < 5/9 give the rank-3 member

        (1 - 2w, w, 0, w), rho_14 = c/2,                w = scalar_w(p, c),

    rows with 5/9 <= p < 1 the rank-2 member

        (1 - u, (u + s)/2, (u - s)/2, 0), rho_23 = c/2, s = sqrt(u^2 - c^2),

    with u = scalar_u(p), and rows with p >= 1 the pure member

        ((1 + s)/2, 0, 0, (1 - s)/2), rho_14 = c/2,     s = sqrt(1 - c^2),

    The purity scalars are taken once per row; a DomainError is raised
    where scalar_u or scalar_v raises one. The concurrences are not read
    again: a c outside its row's range is the caller's error.
    """
    d1, d2, d3, d4, rho_14, rho_23 = np.zeros((6,) + c.shape)
    lo, hi = np.searchsorted(p, (P_RANK2_MIN, 1.0))
    # a batch of one (minset_state) fills one slice; the empty ones are skipped
    if lo > 0:
        c3 = c[:lo]
        v = np.array([scalar_v(x) for x in p[:lo].tolist()])[:, None]
        w = 1.0 / 3.0 - 0.5 * np.sqrt((v * v - c3 * c3) / 3.0)
        d1[:lo] = 1.0 - 2.0 * w
        d2[:lo] = w
        d4[:lo] = w
        rho_14[:lo] = 0.5 * c3
    if hi > lo:
        u = np.array([scalar_u(x) for x in p[lo:hi].tolist()])[:, None]
        c2 = c[lo:hi]
        s = np.sqrt(u * u - c2 * c2)
        d1[lo:hi] = 1.0 - u
        d2[lo:hi] = 0.5 * (u + s)
        d3[lo:hi] = 0.5 * (u - s)
        rho_23[lo:hi] = 0.5 * c2
    if hi < len(p):
        c1 = c[hi:]
        s = np.sqrt(1.0 - c1 * c1)
        d1[hi:] = 0.5 * (1.0 + s)
        d4[hi:] = 0.5 * (1.0 - s)
        rho_14[hi:] = 0.5 * c1
    return d1, d2, d3, d4, rho_14, rho_23


def minset_state(p: float, c: float) -> np.ndarray:
    """The member state with purity p and concurrence c.

    p = 1 gives the pure rank-1 member; p in [5/9, 1[ the rank-2 member;
    p in [1/3, 5/9[ the rank-3 member (see _member_entries, of which
    this is a batch of one).
    """
    p = _read_edge(p, P_SEP_MAX, 1.0, DomainError, "purity {value!r} outside [1/3, 1]")
    c = _read_edge(c, 0.0, cp_boundary(p), OutOfDiagramError,
                   "concurrence {value!r} outside [0, cp_boundary(p)] = [0, {hi!r}]")
    return _x_matrix(*(e.item() for e in _member_entries(np.array([p]), np.array([[c]]))))


def theorem_params(p: float, c: float, variant: str) -> XParams:
    """Parametric construction hitting purity p and concurrence c.

    variant selects the target rank/kind:
      r1k1: rank 1 kind 1 (outer coherence), p = 1 only
      r1k2: rank 1 kind 2 (inner coherence), p = 1 only
      r2k3: rank 2 kind 3, p in [1/2, 1[, c <= u(p)
      r3k1: rank 3 kind 1, p in [1/3, 5/9[ with c <= v(p),
            extended to p in [5/9, 1[ with c < r(p)
      r3k2: rank 3 kind 2, p in [1/2, 5/9[, c <= v(p)

    The fields are Python floats.
    """
    half_pi = 0.5 * np.pi
    c = _read_edge(c, 0.0, 1.0, DomainError, "concurrence {value!r} outside [0, 1]")

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
        if c > z + ROUNDOFF:
            raise DomainError(f"r3k2 cannot realize ({p!r}, {c!r}): z={z!r}")
        return XParams(theta=float(np.arcsin(np.sqrt(z))), phi=0.25 * np.pi,
                       psi=0.0, x=0.0, y=c * c / 4.0)
    raise DomainError(f"unknown variant {variant!r}")


def diagram_data(kind: str, grid_n: int) -> list[tuple]:
    """Grid rows for the diagram CSVs.

    Row-major: purity outer (uniform on [1/3, 1]), concurrence inner
    (uniform on [0, cp_boundary(p)]). Each row carries the member state's
    negativity and classified rank/kind; kind="cp" appends the boundary
    scalars u, v, q, r (None where undefined). The cells are Python
    floats and ints.

    The whole grid is one array pass over the members' entries
    (_member_entries), with no matrix and no chart: the negativity comes
    from xstate.partial_transpose_lows and the rank/kind from
    xstate._classify_arrays, classify_rank's rule on arrays. The values
    are those of classify_rank(from_density(minset_state(p, c))) and,
    to round-off, negativity_x(minset_state(p, c)): its squares are libm
    pow, these are products.
    """
    if kind not in DIAGRAM_KINDS:
        raise ValueError(f"unknown diagram kind {kind!r}")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    ps = np.linspace(P_SEP_MAX, 1.0, grid_n)
    # one linspace per row: a linspace over an array of stops rounds differently
    c = np.array([np.linspace(0.0, cp_boundary(p), grid_n) for p in ps.tolist()])
    d1, d2, d3, d4, rho_14, rho_23 = _member_entries(ps, c)
    x = rho_14 * rho_14
    y = rho_23 * rho_23
    co = _coeffs_of(d1, d2, d3, d4)
    t1, t2 = partial_transpose_lows(co.b_cal, d1 + d4, co.g_low, co.h_low, x, y)
    neg = -np.minimum(np.minimum(t1, t2), 0.0) + 0.0
    rank, rkind = _classify_arrays(co, x, y)

    rows = []
    for p, c_row, neg_row, rank_row, kind_row in zip(
            ps.tolist(), c.tolist(), neg.tolist(), rank.tolist(), rkind.tolist()):
        tail = ()
        if kind == "cp":
            tail = tuple(_or_none(fn, p) for fn in (scalar_u, scalar_v, scalar_q, scalar_r))
        rows.extend((p, cc, nn, rr, kk) + tail
                    for cc, nn, rr, kk in zip(c_row, neg_row, rank_row, kind_row))
    return rows


def _cell(val) -> str:
    return "" if val is None else f"{val:.12g}"


def diagram_csv(kind: str, grid_n: int) -> str:
    """CSV text for diagram_data: 12 significant digits, LF line endings.

    The cells a purity's row shares (p and the cp kind's u, v, q, r) are
    formatted once per purity.
    """
    rows = diagram_data(kind, grid_n)
    header = "p,c,negativity,rank,kind"
    if kind == "cp":
        header += ",u,v,q,r"
    lines = [header]
    for start in range(0, len(rows), grid_n):
        first = rows[start]
        tail = "".join("," + _cell(val) for val in first[5:])
        line = _cell(first[0]) + ",%.12g,%.12g,%d,%d" + tail
        lines.extend(line % row[1:5] for row in rows[start:start + grid_n])
    return "\n".join(lines) + "\n"
