"""The premises that let the sweep and the chart's inverse skip work, bit for bit.

- hermitian_eig finds each eigenvector's lead entry, when the first row
  holds one at or below ROUNDOFF (as on every X-state), in one numpy
  step; the Python column scan it replaced is kept here as the oracle.
- xstate._params_of takes its phases as np.arctan2 of the imaginary and
  real parts, which is np.angle's arithmetic without its wrapper.
- An X matrix the package writes (xstate._x_matrix) has a Hermitian
  deviation of exactly 0.0 and reads back as the entries it was written
  from, so a sweep check may solve it as written and measure those
  entries unread.
- random_xparams reads each draw's seven uniforms as one block
  (ensemble._uniforms) and builds the chart point from them; the per-word
  SplitMix64.uniform draws it replaced are kept here as the oracle.
"""

import math

import numpy as np
import pytest

from xtangle import (
    SplitMix64,
    XParams,
    child_seed,
    concurrence_general,
    conjugate_x,
    counterpart_details,
    from_density,
    hermitian_eig,
    hermitian_eigvals,
    mems_from_spectrum,
    random_density,
    random_xparams,
    to_density,
    universality,
)
from xtangle.ensemble import GOLDEN, MAX_TRIES, RANK_KIND_TARGETS, _read_int, _uniforms
from xtangle.matrix_core import (
    DEFAULT_TOL,
    ROUNDOFF,
    _eigh,
    _entry_gate,
    _hermitian_read,
    _solve_input,
    _sorted_eigh,
    _sorted_eigvals,
)
from xtangle.measures import _spectrum_concurrence
from xtangle.xstate import (
    _coeffs_of,
    _diagonal_of,
    _entangled_outer,
    _physical_coeffs,
    _point_entries,
    _x_entries,
    _x_matrix,
)

CONSTRAINTS = ("any", "entangled", "separable", *RANK_KIND_TARGETS)
KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
TWO_PI = 2.0 * math.pi


# ---- the eigenvector lead ----------------------------------------------------

def _column_scan_eigvecs(a):
    """hermitian_eig(a)'s eigenvectors with each column's lead found by
    the Python column scan: the first row's entries when all pass, else
    each column's first entry of magnitude above ROUNDOFF."""
    m, dev = _hermitian_read(a)
    vecs = _eigh(_solve_input(m, dev))[1][:, ::-1]
    lead = vecs[0]
    if not min(map(abs, lead.tolist())) > ROUNDOFF:
        lead = np.array([next(z for z in col if abs(z) > ROUNDOFF)
                         for col in vecs.T.tolist()])
    return vecs / (lead / np.abs(lead))


def _lead_matrices():
    for i in range(8 * len(CONSTRAINTS)):
        yield to_density(random_xparams(child_seed(41, i), CONSTRAINTS[i % len(CONSTRAINTS)]))
    for i in range(16):
        rho = random_density(child_seed(42, i), KINDS[i % len(KINDS)])
        for measure in universality.MEASURES:
            yield counterpart_details(rho, measure).state
        yield mems_from_spectrum(hermitian_eigvals(rho))
    yield np.eye(4) / 4
    yield np.diag([0.4, 0.2, 0.2, 0.2])
    yield np.diag([0.5, 0.0, 0.5, 0.0])


def test_vectorized_lead_is_the_column_scan():
    scanned = 0
    for m in _lead_matrices():
        first_row = _eigh(_solve_input(*_hermitian_read(m)))[1][0, ::-1].tolist()
        scanned += not min(map(abs, first_row)) > ROUNDOFF
        assert hermitian_eig(m).eigvecs.tobytes() == _column_scan_eigvecs(m).tobytes(), m
    # the X-states, whose first row holds exact zeros, take the scan
    assert scanned >= 8 * len(CONSTRAINTS) + 3 * 16 + 3


# ---- the phases of the chart's inverse ---------------------------------------

def _phase_oracle(z, tol):
    """_params_of's phase of the coherence z through np.angle."""
    return float(np.angle(z)) % TWO_PI if abs(z) >= tol else 0.0


def _edge_coherences(tol):
    """Coherences on both axes, with signed-zero parts, at magnitudes
    about the tol threshold and at 0.2."""
    for r in (math.nextafter(tol, 0.0), tol, math.nextafter(tol, 1.0), 0.2):
        for z in (complex(r, 0.0), complex(r, -0.0), complex(-r, 0.0), complex(-r, -0.0),
                  complex(0.0, r), complex(-0.0, r), complex(0.0, -r), complex(-0.0, -r),
                  complex(r, r), complex(-r, -r)):
            yield z


def test_arctan2_is_np_angle_bit_for_bit():
    for z in _edge_coherences(DEFAULT_TOL):
        got = np.arctan2(z.imag, z.real)
        assert got.tobytes() == np.angle(z).tobytes(), z


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-3])
def test_from_density_phases_match_np_angle(tol):
    for z in _edge_coherences(tol):
        # each coherence at each corner, the other at 0.1 on the real axis
        for outer, inner in ((z, 0.1 + 0j), (0.1 + 0j, z)):
            p = from_density(_x_matrix(0.25, 0.25, 0.25, 0.25, outer, inner), tol)
            assert (p.mu, p.nu) == (_phase_oracle(outer, tol), _phase_oracle(inner, tol)), z


def test_conjugate_x_phases_match_np_angle(monkeypatch):
    coherences = []
    params_of = universality._params_of

    def recorded(d1, d2, d3, d4, outer, inner, tol=DEFAULT_TOL):
        coherences.append((outer, inner))
        return params_of(d1, d2, d3, d4, outer, inner, tol)

    monkeypatch.setattr(universality, "_params_of", recorded)
    rotations = [(0.0, 0.0, 0.0, 0.0), (0.5 * math.pi, 0.0, 0.5 * math.pi, 0.0),
                 (0.0, 0.5 * math.pi, 0.0, math.pi), (0.3, 1.1, 0.7, 4.0)]
    points = [XParams(0.8, 0.7, 0.6, 0.01, 0.002, mu, nu)
              for mu, nu in ((0.0, 0.0), (0.5 * math.pi, math.pi), (math.pi, 1.5 * math.pi))]
    points += [random_xparams(child_seed(43, i), CONSTRAINTS[i % len(CONSTRAINTS)])
               for i in range(4 * len(CONSTRAINTS))]
    for p in points:
        for b in rotations:
            q = conjugate_x(p, *b)
            outer, inner = coherences[-1]
            for z in (outer, inner):
                assert np.arctan2(z.imag, z.real).tobytes() == np.angle(z).tobytes(), z
            assert (q.mu, q.nu) == (_phase_oracle(outer, DEFAULT_TOL),
                                    _phase_oracle(inner, DEFAULT_TOL))
    assert len(coherences) == len(points) * len(rotations)


# ---- the X matrices the package writes ---------------------------------------

def _chart_entries():
    for i in range(8 * len(CONSTRAINTS)):
        p = random_xparams(child_seed(44, i), CONSTRAINTS[i % len(CONSTRAINTS)])
        _, d, x, y = _physical_coeffs(p)
        yield _point_entries(d, x, y, p.mu, p.nu)


def _conversion_entries(monkeypatch):
    written = []
    x_matrix = universality._x_matrix

    def recorded(*e):
        written.append(e)
        return x_matrix(*e)

    monkeypatch.setattr(universality, "_x_matrix", recorded)
    for i in range(16):
        rho = random_density(child_seed(45, i), KINDS[i % len(KINDS)])
        for measure in universality.MEASURES:
            counterpart_details(rho, measure)
    assert len(written) == 32
    return written


def test_written_x_matrix_is_exactly_hermitian(monkeypatch):
    for e in [*_chart_entries(), *_conversion_entries(monkeypatch)]:
        assert _entry_gate(_x_matrix(*e).ravel().tolist())[0] == 0.0, e


def test_written_chart_point_reads_back_as_its_entries():
    # the measures check's closed forms take the entries it wrote
    for e in _chart_entries():
        assert repr(_x_entries(_x_matrix(*e))) == repr(e), e


def test_written_x_matrix_solved_as_written_is_the_general_route():
    # the measures and classify checks' solves, against the public routes
    for e in _chart_entries():
        rho = _x_matrix(*e)
        assert _spectrum_concurrence(_sorted_eigh(rho, 0.0)) == concurrence_general(rho)
        assert _sorted_eigvals(rho, 0.0).tobytes() == hermitian_eigvals(rho).tobytes()


# ---- the chart draws' block of seven words ------------------------------------

_HALF_PI = 0.5 * math.pi
_ANGLE_LO, _ANGLE_HI = 0.15, _HALF_PI - 0.15
_FRACTION_LO, _FRACTION_HI = 0.05, 0.95


def _draw_angles(rng, interior):
    lo, hi = (_ANGLE_LO, _ANGLE_HI) if interior else (0.0, _HALF_PI)
    return rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi)


# (rank, kind) -> the (theta, phi, psi) pins (None keeps the drawn angle)
# and the factors taking x from h_cal and y from g_cal: a number, or the
# name of a drawn fraction
_PINNED_DRAWS = {
    (1, 1): ((None, _HALF_PI, _HALF_PI), 1.0, 0.0),
    (1, 2): ((_HALF_PI, None, 0.0), 0.0, 1.0),
    (2, 1): ((None, _HALF_PI, _HALF_PI), "frac", 0.0),
    (2, 2): ((_HALF_PI, None, 0.0), 0.0, "frac"),
    (2, 3): ((None, None, None), 1.0, 1.0),
    (3, 1): ((None, None, None), "frac", 1.0),
    (3, 2): ((None, None, None), 1.0, "frac"),
    (4, 1): ((None, None, None), "frac", "frac2"),
}


def _pinned_draw(rng, rank, kind):
    mu = rng.uniform(0.0, TWO_PI)
    nu = rng.uniform(0.0, TWO_PI)
    drawn = _draw_angles(rng, interior=True)
    fractions = {"frac": rng.uniform(_FRACTION_LO, _FRACTION_HI),
                 "frac2": rng.uniform(_FRACTION_LO, _FRACTION_HI)}
    pins, x_factor, y_factor = _PINNED_DRAWS[rank, kind]
    theta, phi, psi = (a if pin is None else pin for a, pin in zip(drawn, pins))
    cf = _coeffs_of(*_diagonal_of(theta, phi, psi))
    return XParams(theta, phi, psi,
                   fractions.get(x_factor, x_factor) * cf.h_cal,
                   fractions.get(y_factor, y_factor) * cf.g_cal, mu, nu)


def _free_draw(rng, separable):
    theta, phi, psi = _draw_angles(rng, interior=False)
    mu = rng.uniform(0.0, TWO_PI)
    nu = rng.uniform(0.0, TWO_PI)
    cf = _coeffs_of(*_diagonal_of(theta, phi, psi))
    x_cap, y_cap = (min(cf.g_cal, cf.h_cal),) * 2 if separable else (cf.h_cal, cf.g_cal)
    return XParams(theta, phi, psi, rng.uniform(0.0, x_cap), rng.uniform(0.0, y_cap), mu, nu), cf


def _per_word_xparams(seed, constraint):
    """random_xparams(seed, constraint) drawn one SplitMix64.uniform call
    at a time, its draws as they were written before the block reader."""
    rng = SplitMix64(seed)
    if constraint in ("any", "separable"):
        return _free_draw(rng, constraint == "separable")[0]
    if constraint == "entangled":
        for _ in range(MAX_TRIES):
            p, cf = _free_draw(rng, False)
            if _entangled_outer(cf, p.x, p.y) is not None:
                return p
        raise AssertionError(f"no entangled draw for seed {seed}")
    rank, kind = map(int, constraint.split("_")[1::2])
    return _pinned_draw(rng, rank, kind)


def test_block_draws_are_the_per_word_draws():
    # 20,000 child seeds x the eleven constraints, compared by the repr of
    # the record, which is that of every field; an entangled draw's
    # retries read the blocks that follow, as the per-word stream did
    for i in range(20_000):
        seed = child_seed(44, i)
        for constraint in CONSTRAINTS:
            got, want = random_xparams(seed, constraint), _per_word_xparams(seed, constraint)
            assert repr(got) == repr(want), (seed, constraint)


@pytest.mark.parametrize("k", [0, 1, 7, 33])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -3, True, np.uint64(5)],
                         ids=["0", "1", "2^64-1", "-3", "True", "uint64_5"])
def test_block_reader_is_the_uniform_stream(seed, k):
    # random_xparams hands the block reader its seed read as an int
    rng = SplitMix64(seed)
    want = [rng.uniform() for _ in range(k)]
    assert [repr(u) for u in _uniforms(_read_int(seed, "seed"), k)] == [repr(u) for u in want]


def test_conservation_angles_are_the_streams_next_four_uniforms():
    # the sweep's conservation check seeds its draw with the stream's first
    # word and reads its angles as the block of the next four
    for i in range(200):
        seed = child_seed(45, i)
        rng = SplitMix64(seed)
        rng.next_u64()
        want = [rng.uniform(0.0, TWO_PI) for _ in range(4)]
        got = [TWO_PI * u for u in _uniforms(seed + GOLDEN, 4)]
        assert [repr(a) for a in got] == [repr(a) for a in want], seed
