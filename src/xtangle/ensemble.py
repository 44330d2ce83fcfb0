"""Seeded random states, parameters, and unitaries for tests and sweeps.

The generator is pinned forever so that a seed printed by a failing
sweep reproduces the draw on any platform:

  * SplitMix64 core: state advances by the golden-gamma constant
    0x9E3779B97F4A7C15 modulo 2^64; the output mix is the standard
    xor-shift-multiply finalizer with constants 0xBF58476D1CE4E5B9
    (shift 30) and 0x94D049BB133111EB (shifts 27, 31).
  * uniform() in [0, 1): top 53 bits of next_u64 scaled by 2^-53.
  * normal(): Box-Muller on u1 in (0, 1] (top 53 bits plus one, scaled)
    and u2 in [0, 1); the cosine point is returned first, the sine
    point cached for the next call.
  * child_seed(seed, index): splitmix finalizer applied to
    (seed + (index + 1) * golden) modulo 2^64.
  * Complex Gaussian matrices are filled row-major, real part before
    imaginary part, each a unit normal.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .matrix_core import DEFAULT_TOL, ROUNDOFF
from .xstate import (
    RANK_KIND_PAIRS,
    RankClass,
    XParams,
    classify_rank,
    coeffs,
    is_separable,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# keep pinned diagonals comfortably away from the classifier tolerance
_ANGLE_LO = 0.15
_ANGLE_HI = 0.5 * math.pi - 0.15
_FRACTION_LO = 0.05
_FRACTION_HI = 0.95


class ConstraintInfeasibleError(ValueError):
    """No draw satisfying the constraint was found (or can exist)."""


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def normal(self) -> float:
        if self._cached_normal is not None:
            g = self._cached_normal
            self._cached_normal = None
            return g
        u1 = ((self.next_u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._cached_normal = radius * math.sin(angle)
        return radius * math.cos(angle)


def child_seed(seed: int, index: int) -> int:
    """Independent stream seed number `index` derived from `seed`."""
    z = (seed + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _ginibre(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    m = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            m[i, j] = complex(rng.normal(), rng.normal())
    return m


def random_density(seed: int, measure_kind: str = "hilbert_schmidt") -> np.ndarray:
    """Random density matrix: Hilbert-Schmidt, Haar-pure, or fixed rank.

    measure_kind is one of hilbert_schmidt, pure_haar, rank_1 .. rank_4.
    hilbert_schmidt and rank_4 draw G G^dagger / tr for a square Ginibre
    G; rank_k uses a 4 x k Ginibre; pure_haar normalizes a Gaussian
    vector.
    """
    rng = SplitMix64(seed)
    if measure_kind == "pure_haar":
        v = _ginibre(rng, 4, 1)
        rho = v @ v.conj().T
        return rho / np.trace(rho).real
    if measure_kind == "hilbert_schmidt":
        cols = 4
    else:
        m = re.fullmatch(r"rank_([1-4])", measure_kind)
        if not m:
            raise ValueError(f"unknown ensemble kind {measure_kind!r}")
        cols = int(m.group(1))
    g = _ginibre(rng, 4, cols)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _draw_angles(rng: SplitMix64, interior: bool) -> tuple[float, float, float]:
    if interior:
        return (rng.uniform(_ANGLE_LO, _ANGLE_HI),
                rng.uniform(_ANGLE_LO, _ANGLE_HI),
                rng.uniform(_ANGLE_LO, _ANGLE_HI))
    half_pi = 0.5 * math.pi
    return rng.uniform(0.0, half_pi), rng.uniform(0.0, half_pi), rng.uniform(0.0, half_pi)


def _pinned_draw(rng: SplitMix64, rank: int, kind: int) -> XParams:
    two_pi = 2.0 * math.pi
    half_pi = 0.5 * math.pi
    mu = rng.uniform(0.0, two_pi)
    nu = rng.uniform(0.0, two_pi)
    theta, phi, psi = _draw_angles(rng, interior=True)
    frac = rng.uniform(_FRACTION_LO, _FRACTION_HI)
    frac2 = rng.uniform(_FRACTION_LO, _FRACTION_HI)

    if (rank, kind) == (1, 1):
        p = XParams(theta, half_pi, half_pi, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(theta, half_pi, half_pi, cf.h_cal, 0.0, mu, nu)
    if (rank, kind) == (1, 2):
        p = XParams(half_pi, phi, 0.0, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(half_pi, phi, 0.0, 0.0, cf.g_cal, mu, nu)
    if (rank, kind) == (2, 1):
        p = XParams(theta, half_pi, half_pi, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(theta, half_pi, half_pi, frac * cf.h_cal, 0.0, mu, nu)
    if (rank, kind) == (2, 2):
        p = XParams(half_pi, phi, 0.0, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(half_pi, phi, 0.0, 0.0, frac * cf.g_cal, mu, nu)
    if (rank, kind) == (2, 3):
        p = XParams(theta, phi, psi, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(theta, phi, psi, cf.h_cal, cf.g_cal, mu, nu)
    if (rank, kind) == (3, 1):
        p = XParams(theta, phi, psi, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(theta, phi, psi, frac * cf.h_cal, cf.g_cal, mu, nu)
    if (rank, kind) == (3, 2):
        p = XParams(theta, phi, psi, 0.0, 0.0, mu, nu)
        cf = coeffs(p)
        return XParams(theta, phi, psi, cf.h_cal, frac * cf.g_cal, mu, nu)
    # (4, 1): random_xparams passes only classes in RANK_KIND_PAIRS
    p = XParams(theta, phi, psi, 0.0, 0.0, mu, nu)
    cf = coeffs(p)
    return XParams(theta, phi, psi, frac * cf.h_cal, frac2 * cf.g_cal, mu, nu)


_RANK_KIND_RE = re.compile(r"rank_([1-4])_kind_([1-3])")


def random_xparams(seed: int, constraint: str = "any", tol: float = DEFAULT_TOL,
                   max_tries: int = 10_000) -> XParams:
    """Random physical X-state parameters under a constraint.

    constraint: "any", "entangled", "separable", or "rank_R_kind_K".
    Every draw is verified (classification for rank/kind targets) and
    redrawn on failure; after max_tries the constraint is declared
    infeasible.
    """
    rng = SplitMix64(seed)
    two_pi = 2.0 * math.pi
    want: tuple[int, int] | None = None
    if constraint not in ("any", "entangled", "separable"):
        m = _RANK_KIND_RE.fullmatch(constraint)
        if not m:
            raise ValueError(f"unknown constraint {constraint!r}")
        want = (int(m.group(1)), int(m.group(2)))
        if want not in RANK_KIND_PAIRS:
            raise ConstraintInfeasibleError(
                f"no X-state has rank {want[0]} with kind {want[1]}"
            )

    for _ in range(max_tries):
        if want is not None:
            p = _pinned_draw(rng, *want)
            if classify_rank(p, tol=tol) == RankClass(*want):
                return p
            continue

        theta, phi, psi = _draw_angles(rng, interior=False)
        mu = rng.uniform(0.0, two_pi)
        nu = rng.uniform(0.0, two_pi)
        base = XParams(theta, phi, psi, 0.0, 0.0, mu, nu)
        cf = coeffs(base)
        if constraint == "separable":
            cap = min(cf.g_cal, cf.h_cal)
            p = XParams(theta, phi, psi, rng.uniform(0.0, cap),
                        rng.uniform(0.0, cap), mu, nu)
            if is_separable(p):
                return p
            continue
        p = XParams(theta, phi, psi, rng.uniform(0.0, cf.h_cal),
                    rng.uniform(0.0, cf.g_cal), mu, nu)
        if constraint == "any":
            return p
        conc = 2.0 * max(math.sqrt(p.x) - math.sqrt(cf.g_cal),
                         math.sqrt(p.y) - math.sqrt(cf.h_cal))
        if conc > ROUNDOFF:
            return p
    raise ConstraintInfeasibleError(
        f"no draw met {constraint!r} within {max_tries} tries (seed {seed})"
    )


def random_unitary(seed: int) -> np.ndarray:
    """Haar-distributed 4 x 4 unitary (QR of a Ginibre matrix)."""
    g = _ginibre(SplitMix64(seed), 4, 4)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
