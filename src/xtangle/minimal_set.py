"""A minimal family of X-states covering every admissible (purity, concurrence).

For each purity p in [1/3, 1] and concurrence c up to the admissible
maximum cp_boundary(p), exactly one member state is returned:

    p = 1          -> pure state rho1(c), rank 1
    p in [5/9, 1[  -> rho2(u(p), c), rank 2
    p in [1/3, 5/9[-> rho3(w(p, c), c), rank 3

together with the boundary scalars, alternative parametric constructions
for specific rank/kind targets, and diagram data emission.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrix_core import DEFAULT_TOL, ROUNDOFF, SQRT_CLAMP
from .measures import negativity_x
from .xstate import XParams, classify_rank, from_density

P_RANK2_MIN = 5.0 / 9.0
P_SEP_MAX = 1.0 / 3.0


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


def _sqrt_clamped(val: float) -> float:
    if val < 0.0:
        if val < -SQRT_CLAMP:
            raise DomainError(f"negative square-root argument {val:.3e}")
        val = 0.0
    return float(np.sqrt(val))


def scalar_u(p: float) -> float:
    """(1 + sqrt(2p - 1))/2 for p >= 1/2."""
    if p < 0.5 - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"u undefined at purity {p!r}")
    return 0.5 * (1.0 + _sqrt_clamped(2.0 * p - 1.0))


def scalar_v(p: float) -> float:
    """sqrt(2p - 2/3) for p >= 1/3."""
    if p < P_SEP_MAX - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"v undefined at purity {p!r}")
    return _sqrt_clamped(2.0 * p - 2.0 / 3.0)


def scalar_w(p: float, c: float) -> float:
    """1/3 - sqrt((v^2 - c^2)/3)/2, defined for c <= v(p)."""
    v = scalar_v(p)
    if c > v + ROUNDOFF:
        raise DomainError(f"w undefined: concurrence {c!r} exceeds v={v!r}")
    return 1.0 / 3.0 - 0.5 * _sqrt_clamped((v * v - c * c) / 3.0)


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
    if p < 0.5 - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"q undefined at purity {p!r}")
    return _sqrt_clamped(2.0 * p - 1.0)


def scalar_r(p: float) -> float:
    """sqrt(2) sqrt(1 - 2p + sqrt(2p - 1)): rank-3 outer-family ceiling above 5/9."""
    if p < 0.5 - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"r undefined at purity {p!r}")
    q = _sqrt_clamped(2.0 * p - 1.0)
    return float(np.sqrt(2.0) * _sqrt_clamped(1.0 - 2.0 * p + q))


def boundary_scalars(p: float, c: float) -> BoundaryScalars:
    """All six scalars at (p, c); out-of-domain entries are None."""
    if p < 0.25 - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"purity {p!r} outside [1/4, 1]")

    def _try(fn, *args):
        try:
            return fn(*args)
        except DomainError:
            return None

    return BoundaryScalars(
        u=_try(scalar_u, p),
        v=_try(scalar_v, p),
        w=_try(scalar_w, p, c),
        z=_try(scalar_z, p, c),
        q=_try(scalar_q, p),
        r=_try(scalar_r, p),
    )


def cp_boundary(p: float) -> float:
    """Maximal concurrence achievable at purity p.

    0 for p <= 1/3 (all such states are separable), v(p) up to 5/9 and
    u(p) from 5/9 on; the two branches agree (= 2/3) at the junction.
    """
    if p < 0.25 - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"purity {p!r} outside [1/4, 1]")
    if p <= P_SEP_MAX:
        return 0.0
    if p >= P_RANK2_MIN:
        return min(scalar_u(p), 1.0)
    return scalar_v(p)


def _rho1(c: float) -> np.ndarray:
    s = _sqrt_clamped(1.0 - c * c)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 0.5 * (1.0 + s)
    m[3, 3] = 0.5 * (1.0 - s)
    m[0, 3] = m[3, 0] = 0.5 * c
    return m


def _rho2(u: float, c: float) -> np.ndarray:
    s = _sqrt_clamped(u * u - c * c)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - u
    m[1, 1] = 0.5 * (u + s)
    m[2, 2] = 0.5 * (u - s)
    m[1, 2] = m[2, 1] = 0.5 * c
    return m


def _rho3(w: float, c: float) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - 2.0 * w
    m[1, 1] = w
    m[3, 3] = w
    m[0, 3] = m[3, 0] = 0.5 * c
    return m


def minset_state(p: float, c: float) -> np.ndarray:
    """The member state with purity p and concurrence c.

    p = 1 gives the pure rank-1 member; p in [5/9, 1[ the rank-2 member;
    p in [1/3, 5/9[ the rank-3 member.
    """
    if p < P_SEP_MAX - ROUNDOFF or p > 1.0 + ROUNDOFF:
        raise DomainError(f"purity {p!r} outside [1/3, 1]")
    if c < -ROUNDOFF:
        raise OutOfDiagramError(f"negative concurrence {c!r}")
    cmax = cp_boundary(p)
    if c > cmax + ROUNDOFF:
        raise OutOfDiagramError(
            f"concurrence {c!r} exceeds the maximum {cmax!r} at purity {p!r}"
        )
    if p >= 1.0:
        return _rho1(min(c, 1.0))
    if p >= P_RANK2_MIN:
        return _rho2(scalar_u(p), c)
    return _rho3(scalar_w(p, c), c)


def theorem_params(p: float, c: float, variant: str) -> XParams:
    """Parametric construction hitting purity p and concurrence c.

    variant selects the target rank/kind:
      r1k1: rank 1 kind 1 (outer coherence), p = 1 only
      r1k2: rank 1 kind 2 (inner coherence), p = 1 only
      r2k3: rank 2 kind 3, p in [1/2, 1[, c <= u(p)
      r3k1: rank 3 kind 1, p in [1/3, 5/9[ with c <= v(p),
            extended to p in [5/9, 1[ with c < r(p)
      r3k2: rank 3 kind 2, p in [1/2, 5/9[, c <= v(p)
    """
    half_pi = 0.5 * np.pi
    if c < -ROUNDOFF or c > 1.0 + ROUNDOFF:
        raise DomainError(f"concurrence {c!r} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)

    if variant == "r1k1":
        if abs(p - 1.0) > DEFAULT_TOL:
            raise DomainError("r1k1 exists only at purity 1")
        return XParams(theta=0.5 * np.arcsin(c), phi=half_pi, psi=half_pi,
                       x=c * c / 4.0, y=0.0)
    if variant == "r1k2":
        if abs(p - 1.0) > DEFAULT_TOL:
            raise DomainError("r1k2 exists only at purity 1")
        return XParams(theta=half_pi, phi=0.5 * np.arcsin(c), psi=0.0,
                       x=0.0, y=c * c / 4.0)
    if variant == "r2k3":
        if p < 0.5 - ROUNDOFF or p >= 1.0 - ROUNDOFF:
            raise DomainError(f"r2k3 needs purity in [1/2, 1[, got {p!r}")
        u = scalar_u(p)
        if c > u + ROUNDOFF:
            raise DomainError(f"r2k3 cannot reach concurrence {c!r} > u={u!r}")
        return XParams(theta=np.arcsin(_min_sqrt(u)), phi=0.5 * np.arcsin(min(c / u, 1.0)),
                       psi=0.0, x=0.0, y=c * c / 4.0)
    if variant == "r3k1":
        if p < P_SEP_MAX - ROUNDOFF or p >= 1.0 - ROUNDOFF:
            raise DomainError(f"r3k1 needs purity in [1/3, 1[, got {p!r}")
        if p < P_RANK2_MIN:
            lim = scalar_v(p)
            if c > lim + ROUNDOFF:
                raise DomainError(f"r3k1 cannot reach concurrence {c!r} > v={lim!r}")
        else:
            lim = scalar_r(p)
            # at c = r the outer weight hits its positivity ceiling and the
            # rank drops to 2, so the boundary itself is excluded
            if c >= lim:
                raise DomainError(f"r3k1 above 5/9 needs concurrence < r={lim!r}")
        w = scalar_w(p, c)
        return XParams(theta=np.arcsin(_min_sqrt(2.0 * w)), phi=0.25 * np.pi,
                       psi=half_pi, x=c * c / 4.0, y=0.0)
    if variant == "r3k2":
        if p < 0.5 - ROUNDOFF or p >= P_RANK2_MIN:
            raise DomainError(f"r3k2 needs purity in [1/2, 5/9[, got {p!r}")
        lim = scalar_v(p)
        if c > lim + ROUNDOFF:
            raise DomainError(f"r3k2 cannot reach concurrence {c!r} > v={lim!r}")
        z = scalar_z(p, c)
        if z > 1.0 + ROUNDOFF or c > z + ROUNDOFF:
            raise DomainError(f"r3k2 cannot realize ({p!r}, {c!r}): z={z!r}")
        return XParams(theta=np.arcsin(_min_sqrt(z)), phi=0.25 * np.pi,
                       psi=0.0, x=0.0, y=c * c / 4.0)
    raise DomainError(f"unknown variant {variant!r}")


def _min_sqrt(val: float) -> float:
    return float(np.sqrt(min(max(val, 0.0), 1.0)))


def diagram_data(kind: str, grid_n: int) -> list[tuple]:
    """Grid rows for the diagram CSVs.

    Row-major: purity outer (uniform on [1/3, 1]), concurrence inner
    (uniform on [0, cp_boundary(p)]). Each row carries the member state's
    negativity and classified rank/kind; kind="cp" appends the boundary
    scalars u, v, q, r (None where undefined).
    """
    if kind not in ("cp", "negativity_purity"):
        raise ValueError(f"unknown diagram kind {kind!r}")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    rows = []
    for p in np.linspace(P_SEP_MAX, 1.0, grid_n):
        cmax = cp_boundary(p)
        scal = boundary_scalars(p, 0.0)
        for c in np.linspace(0.0, cmax, grid_n):
            state = minset_state(p, c)
            neg = negativity_x(state)
            rk = classify_rank(from_density(state))
            if kind == "cp":
                rows.append((p, c, neg, rk.rank, rk.kind,
                             scal.u, scal.v, scal.q, scal.r))
            else:
                rows.append((p, c, neg, rk.rank, rk.kind))
    return rows


def diagram_csv(kind: str, grid_n: int) -> str:
    """CSV text for diagram_data: 12 significant digits, LF line endings."""
    rows = diagram_data(kind, grid_n)
    header = "p,c,negativity,rank,kind"
    if kind == "cp":
        header += ",u,v,q,r"
    lines = [header]
    for row in rows:
        cells = []
        for val in row:
            if val is None:
                cells.append("")
            elif isinstance(val, (int, np.integer)):
                cells.append(str(int(val)))
            else:
                cells.append(f"{float(val):.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
