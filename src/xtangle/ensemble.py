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
  * random_xparams draws read seven uniforms, as one block (_uniforms):
    free draws theta, phi, psi, mu, nu, x, y; pinned draws mu, nu,
    theta, phi, psi and two fractions. Try t of an entangled draw reads
    words 7 t + 1 .. 7 t + 7.

A seed (and child_seed's index) is read once, through operator.index,
so a bool or a numpy integer reads as its int, taken modulo 2^64; any
other value raises TypeError naming the parameter.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .matrix_core import _qr, _read_edge
from .xstate import RANK_KIND_PAIRS, TWO_PI, XParams, _coeffs_of, _diagonal_of, _entangled_outer

__all__ = ["ConstraintInfeasibleError", "SplitMix64", "child_seed", "random_density",
           "random_unitary", "random_xparams"]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# the scale taking the top 53 bits of a word to [0, 1)
_ULP53 = 2.0 ** -53

_HALF_PI = 0.5 * math.pi
# keep pinned draws away from the classifier tolerance: on this box
# g_cal >= 2.4e-7 and h_cal >= 1.08e-5, so every classify_rank condition a
# pinned draw must fail misses its DEFAULT_TOL band by >= 12 DEFAULT_TOL
# (least for classes (3, 2) and (4, 1), where g_cal - y = 0.05 g_cal).
# Interior angles are drawn on [0.15, pi/2 - 0.15], fractions on
# [0.05, 0.95], each as lo + span u.
_ANGLE_LO = 0.15
_ANGLE_SPAN = (_HALF_PI - 0.15) - _ANGLE_LO
_FRACTION_LO = 0.05
_FRACTION_SPAN = 0.95 - _FRACTION_LO
# the finite floats, the range of a bound of SplitMix64.uniform
_FINITE = (-float(np.finfo(float).max), float(np.finfo(float).max))

# draws random_xparams makes before declaring a constraint infeasible
MAX_TRIES = 10_000


class ConstraintInfeasibleError(ValueError):
    """No draw satisfying the constraint was found (or can exist)."""


def _read_int(value, name: str) -> int:
    """value as a Python int, read through operator.index; TypeError
    naming the parameter for a value that is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} {value!r} is not an integer") from None


def _mix(z: int) -> int:
    """The output mix of the stream state z (0 <= z < 2^64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = _read_int(seed, "seed") & MASK64
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _mix(self._state)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """lo + (hi - lo) u for the next word's u in [0, 1); hi < lo is
        allowed. A bound that is not a finite real number (NaN, an
        infinity, a complex, an array, a str) raises ValueError naming it."""
        lo = _read_edge(lo, *_FINITE, ValueError, "lo={value!r} is not a finite real number")
        hi = _read_edge(hi, *_FINITE, ValueError, "hi={value!r} is not a finite real number")
        return lo + (hi - lo) * ((self.next_u64() >> 11) * _ULP53)

    def normal(self) -> float:
        if self._cached_normal is not None:
            g = self._cached_normal
            self._cached_normal = None
            return g
        u1 = ((self.next_u64() >> 11) + 1) * _ULP53
        u2 = (self.next_u64() >> 11) * _ULP53
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._cached_normal = radius * math.sin(angle)
        return radius * math.cos(angle)


def child_seed(seed: int, index: int) -> int:
    """Independent stream seed number `index` derived from `seed`: the
    first output of the generator seeded at seed + index * golden, mixed
    here as next_u64 mixes it, without building the generator."""
    return _mix((_read_int(seed, "seed") + (_read_int(index, "index") + 1) * GOLDEN) & MASK64)


def _uniforms(state: int, k: int) -> list[float]:
    """The next k uniforms in [0, 1) of the stream at state `state` (a
    Python int, read modulo 2^64): SplitMix64(state).uniform() k times,
    bit for bit, with the output mix inlined in one loop on the bare
    state and no generator built."""
    out = []
    for _ in range(k):
        state = (state + GOLDEN) & MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        out.append(((z ^ (z >> 31)) >> 11) * _ULP53)
    return out


# Word k of the stream seeded at s is the mix of its state after k steps,
# s + k * golden modulo 2^64. _STEPS holds k * golden for k = 1 .. 32, the
# words of the largest draw, a 4 x 4 Ginibre matrix. numpy's per-call cost
# is the same for 8 words as for 32, and less with an array operand than
# with a scalar one, so every draw mixes the whole block against the
# constants laid out as blocks and reads the words it needs.
_BLOCK = 32
_STEPS = np.array([k * GOLDEN & MASK64 for k in range(1, _BLOCK + 1)], dtype=np.uint64)
_M1, _M2, _R11, _R27, _R30, _R31 = (np.full(_BLOCK, c, dtype=np.uint64)
                                    for c in (_MIX1, _MIX2, 11, 27, 30, 31))


def _ginibre(seed: int, rows: int, cols: int) -> np.ndarray:
    """The rows x cols complex Gaussian matrix of the stream seeded at seed.

    Bit for bit the matrix filled row-major with
    complex(rng.normal(), rng.normal()) from rng = SplitMix64(seed): an
    entry is one Box-Muller pair, its cosine point the real part. The
    words come from one uint64 pass (2 rows cols <= _BLOCK); Box-Muller
    runs on Python floats, since np.log is not math.log to the last bit.
    """
    z = np.add(_STEPS, _read_int(seed, "seed") & MASK64)  # uint64 wraps modulo 2^64
    z ^= z >> _R30
    z *= _M1
    z ^= z >> _R27
    z *= _M2
    z ^= z >> _R31
    words = iter((z >> _R11).tolist()[:2 * rows * cols])
    parts = []
    for a, b in zip(words, words):
        radius = math.sqrt(-2.0 * math.log((a + 1) * _ULP53))
        angle = 2.0 * math.pi * (b * _ULP53)
        parts.append(radius * math.cos(angle))
        parts.append(radius * math.sin(angle))
    return np.array(parts).view(complex).reshape(rows, cols)


# random_density's kinds and the columns of their Ginibre matrices
_GINIBRE_COLS = {"hilbert_schmidt": 4, "pure_haar": 1,
                 **{f"rank_{k}": k for k in range(1, 5)}}


def random_density(seed: int, measure_kind: str = "hilbert_schmidt") -> np.ndarray:
    """Random density matrix: Hilbert-Schmidt, Haar-pure, or fixed rank.

    measure_kind is one of hilbert_schmidt, pure_haar, rank_1 .. rank_4;
    any other value raises ValueError naming it.
    hilbert_schmidt and rank_4 draw G G^dagger / tr for a square Ginibre
    G; rank_k uses a 4 x k Ginibre; pure_haar is the rank_1 draw, a
    normalized Gaussian vector.
    """
    try:
        cols = _GINIBRE_COLS[measure_kind]
    except (KeyError, TypeError):
        # TypeError: an unhashable kind, such as a list
        raise ValueError(f"unknown ensemble kind {measure_kind!r}") from None
    g = _ginibre(seed, 4, cols)
    rho = g.dot(g.conj().T)
    # np.trace(rho).real bit for bit: numpy's sum order (see _entry_gate)
    e00, e11, e22, e33 = rho.diagonal().tolist()
    return rho / ((e00 + e11) + (e22 + e33) + 0j).real


# the values a pinned draw's chart reads: its three interior angles and
# two fractions, drawn, and the pins
_PIN_READS = ("theta", "phi", "psi", "frac", "frac2", "pi/2", "0", "1")
# (rank, kind) -> the reads of its theta, phi and psi and of the factors
# taking x from h_cal and y from g_cal
_PINNED_DRAWS = {pair: operator.itemgetter(*map(_PIN_READS.index, row.split())) for pair, row in {
    (1, 1): "theta pi/2 pi/2 1 0",
    (1, 2): "pi/2 phi 0 0 1",
    (2, 1): "theta pi/2 pi/2 frac 0",
    (2, 2): "pi/2 phi 0 0 frac",
    (2, 3): "theta phi psi 1 1",
    (3, 1): "theta phi psi frac 1",
    (3, 2): "theta phi psi 1 frac",
    (4, 1): "theta phi psi frac frac2",
}.items()}


def _pinned_draw(u: list[float], rank: int, kind: int) -> XParams:
    """The draw in the class (rank, kind) of the seven uniforms u, read as
    mu, nu, theta, phi, psi, frac, frac2: its pins set x or y to exactly
    0 or their tops and b_cal or c_cal to exactly 0, and the margin of
    _ANGLE_LO's box keeps every other classify_rank condition from holding."""
    mu, nu, theta, phi, psi, frac, frac2 = u
    theta, phi, psi, x_factor, y_factor = _PINNED_DRAWS[rank, kind]((
        _ANGLE_LO + _ANGLE_SPAN * theta, _ANGLE_LO + _ANGLE_SPAN * phi,
        _ANGLE_LO + _ANGLE_SPAN * psi, _FRACTION_LO + _FRACTION_SPAN * frac,
        _FRACTION_LO + _FRACTION_SPAN * frac2, _HALF_PI, 0.0, 1.0))
    cf = _coeffs_of(*_diagonal_of(theta, phi, psi))
    return XParams(theta, phi, psi, x_factor * cf.h_cal, y_factor * cf.g_cal,
                   TWO_PI * mu, TWO_PI * nu)


def _free_draw(u: list[float], separable: bool) -> tuple:
    """(XParams, the XCoeffs of its diagonal) of the draw over the whole
    chart of the seven uniforms u, read as theta, phi, psi, mu, nu, x, y.
    separable caps both weights below min(g_cal, h_cal), so both partial-
    transpose lows are >= 0, as g_low^2 + 4 g_cal = b_cal^2 (and for h)."""
    theta, phi, psi = _HALF_PI * u[0], _HALF_PI * u[1], _HALF_PI * u[2]
    cf = _coeffs_of(*_diagonal_of(theta, phi, psi))
    x_cap, y_cap = (min(cf.g_cal, cf.h_cal),) * 2 if separable else (cf.h_cal, cf.g_cal)
    return XParams(theta, phi, psi, x_cap * u[5], y_cap * u[6], TWO_PI * u[3], TWO_PI * u[4]), cf


# every "rank_R_kind_K" constraint random_xparams reads, R in 1..4, K in 1..3
_RANK_KINDS = {f"rank_{r}_kind_{k}": (r, k) for r in range(1, 5) for k in range(1, 4)}
# the feasible ones, sorted: the CLI's classify check indexes them by seed % 8
RANK_KIND_TARGETS = tuple(name for name, pair in _RANK_KINDS.items() if pair in RANK_KIND_PAIRS)


def random_xparams(seed: int, constraint: str = "any") -> XParams:
    """Random physical X-state parameters under a constraint.

    constraint: "any", "entangled", "separable", or "rank_R_kind_K".
    "any", "separable" and every rank/kind target are drawn in their
    class by construction (_free_draw, _pinned_draw). Only an "entangled"
    draw is tested, by is_separable's rule (xstate._entangled_outer) on
    the chart it was drawn from, and redrawn on failure; after MAX_TRIES
    tries it is declared infeasible. Any other constraint raises
    ValueError naming it.
    """
    state = _read_int(seed, "seed")
    if constraint in ("any", "separable"):
        return _free_draw(_uniforms(state, 7), constraint == "separable")[0]
    if constraint == "entangled":
        # try t reads words 7 t + 1 .. 7 t + 7 of the stream
        for t in range(MAX_TRIES):
            p, cf = _free_draw(_uniforms(state + 7 * t * GOLDEN, 7), False)
            if _entangled_outer(cf, p.x, p.y) is not None:
                return p
        raise ConstraintInfeasibleError(
            f"no draw met {constraint!r} within {MAX_TRIES} tries (seed {seed})"
        )
    try:
        want = _RANK_KINDS[constraint]
    except (KeyError, TypeError):
        # TypeError: an unhashable constraint, such as a list
        raise ValueError(f"unknown constraint {constraint!r}") from None
    if want not in RANK_KIND_PAIRS:
        raise ConstraintInfeasibleError(f"no X-state has rank {want[0]} with kind {want[1]}")
    return _pinned_draw(_uniforms(state, 7), *want)


def random_unitary(seed: int) -> np.ndarray:
    """Haar-distributed 4 x 4 unitary: Q of the QR of a Ginibre matrix, its
    columns rotated by the phases of R's diagonal. The QR is the solver
    layer's (matrix_core._qr), numpy.linalg.qr's factors bit for bit."""
    q, d = _qr(_ginibre(seed, 4, 4))
    return q * (d / np.abs(d))
