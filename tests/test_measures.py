"""Purity, concurrence, entanglement of formation, negativity, Fannes bound."""

import re

import numpy as np
import pytest

from xtangle import (
    NonHermitianError,
    NotXFormError,
    OutOfRegimeError,
    binary_entropy,
    concurrence_general,
    concurrence_x,
    eof,
    fannes_ree_bound,
    from_density,
    is_separable,
    is_x_form,
    negativity_general,
    negativity_x,
    partial_transpose,
    purity_general,
    purity_x,
    random_density,
    random_xparams,
    to_density,
    trace_norm,
)
from xtangle.matrix_core import EIG_FLOOR, OUT_OF_SCALE, SOLVER_TOL, density_spectrum
from xtangle.measures import concurrence_from_eig, floored

from reference_states import (
    BELL_PHI_PLUS,
    M30A,
    M30A_NEGATIVITY,
    M30B,
    M30B_NEGATIVITY,
    M40,
    M40_CONCURRENCE,
    M40_NEGATIVITY,
    M40_PURITY,
    MAX_MIXED,
    pure_outer,
    random_density_np,
)


def test_purity():
    assert purity_general(MAX_MIXED) == pytest.approx(0.25, abs=1e-14)
    assert purity_general(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-14)
    assert purity_general(M40) == pytest.approx(M40_PURITY, abs=1e-12)


def test_purity_x_matches_trace():
    for i in range(200):
        p = random_xparams(5000 + i)
        assert purity_x(p) == pytest.approx(purity_general(to_density(p)), abs=1e-12)


def test_concurrence_reference():
    assert concurrence_general(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_general(MAX_MIXED) == pytest.approx(0.0, abs=1e-12)
    assert concurrence_general(M40) == pytest.approx(M40_CONCURRENCE, abs=1e-12)
    assert concurrence_general(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)) == 0.0


def _concurrence_from_eig_oracle(values, eigvecs):
    # the array form it replaced: real roots and signs, cast by numpy
    s = (eigvecs * np.sqrt(values)) @ eigvecs.conj().T
    k = (s[:, ::-1] * np.array([-1.0, 1.0, 1.0, -1.0])) @ s.conj()
    roots = np.linalg.svd(k, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


@pytest.mark.parametrize("kind", ["hilbert_schmidt", "pure_haar", "rank_2", "rank_3", "rank_4"])
def test_concurrence_from_eig_matches_array_form_bitwise(kind):
    for seed in range(80):
        spec = density_spectrum(random_density(seed, kind))
        values = np.where(spec.values > EIG_FLOOR, spec.values, 0.0)
        assert floored(spec.values.tolist()) == values.tolist()
        got = concurrence_from_eig(floored(spec.values.tolist()), spec.eigvecs,
                                   spec.eigvecs.conj().T)
        assert got.hex() == _concurrence_from_eig_oracle(values, spec.eigvecs).hex()


def test_concurrence_x_pure_family():
    for c in (0.0, 0.3, 0.7, 1.0):
        assert concurrence_x(pure_outer(c)) == pytest.approx(c, abs=1e-12)


def test_concurrence_x_reference():
    assert concurrence_x(M30A) == pytest.approx(M40_CONCURRENCE, abs=1e-12)
    assert concurrence_x(M30B) == pytest.approx(M40_CONCURRENCE, abs=1e-12)


def test_concurrence_x_matches_general():
    for i in range(300):
        rho = to_density(random_xparams(6000 + i))
        assert concurrence_x(rho) == pytest.approx(
            concurrence_general(rho), abs=1e-10)


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-14)
    assert binary_entropy(0.9) == pytest.approx(0.4689955935892812, abs=1e-13)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
def test_binary_entropy_rejects_a_non_finite_argument(t):
    # a NaN reached log2 and came back as nan
    with pytest.raises(ValueError, match="^non-finite entry$"):
        binary_entropy(t)


def test_eof():
    assert eof(BELL_PHI_PLUS) == pytest.approx(1.0, abs=1e-12)
    assert eof(MAX_MIXED) == pytest.approx(0.0, abs=1e-12)
    # C = 0.6 -> (1 + sqrt(1 - 0.36)) / 2 = 0.9
    assert eof(pure_outer(0.6)) == pytest.approx(0.4689955935892812, abs=1e-12)


def test_eof_monotone_in_concurrence():
    grid = [eof(pure_outer(c)) for c in np.linspace(0.0, 1.0, 101)]
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_negativity_reference():
    assert negativity_general(BELL_PHI_PLUS) == pytest.approx(0.5, abs=1e-12)
    assert negativity_general(MAX_MIXED) == pytest.approx(0.0, abs=1e-12)
    assert negativity_general(M40) == pytest.approx(M40_NEGATIVITY, abs=1e-12)
    assert negativity_x(M30A) == pytest.approx(M30A_NEGATIVITY, abs=1e-12)
    assert negativity_x(M30B) == pytest.approx(M30B_NEGATIVITY, abs=1e-12)


def test_negativity_trace_norm_form():
    rng = np.random.default_rng(31)
    for _ in range(100):
        rho = random_density_np(rng)
        alt = (trace_norm(partial_transpose(rho)) - 1.0) / 2.0
        assert negativity_general(rho) == pytest.approx(max(0.0, alt), abs=1e-11)


def test_negativity_x_matches_general():
    for i in range(300):
        rho = to_density(random_xparams(7000 + i))
        assert negativity_x(rho) == pytest.approx(
            negativity_general(rho), abs=1e-10)
    assert negativity_x(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)) == 0.0


def test_local_unitary_invariance():
    rng = np.random.default_rng(32)
    for _ in range(50):
        rho = random_density_np(rng)
        u1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = np.kron(u1, u2)
        out = u @ rho @ u.conj().T
        assert concurrence_general(out) == pytest.approx(
            concurrence_general(rho), abs=1e-9)
        assert negativity_general(out) == pytest.approx(
            negativity_general(rho), abs=1e-9)


def test_zero_iff_separable():
    for i in range(300):
        p = random_xparams(8000 + i)
        rho = to_density(p)
        conc = concurrence_x(rho) > 1e-9
        neg = negativity_x(rho) > 1e-9
        assert conc == neg == (not is_separable(p))


def test_fannes_bound():
    a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    assert fannes_ree_bound(a, a) == 0.0
    b = np.diag([5.0 / 6.0, 1.0 / 6.0, 0.0, 0.0]).astype(complex)
    # t = 1/3 exactly: 8/3 - (2/3) log2(1/3)
    assert fannes_ree_bound(a, b) == pytest.approx(3.7233083338141038, abs=1e-12)
    c = np.diag([0.8, 0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(OutOfRegimeError):
        fannes_ree_bound(a, c)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
@pytest.mark.parametrize("where", [(1, 1), (0, 0), (0, 3), (1, 0)],
                         ids=["diagonal", "corner_diagonal", "coherence", "off_x"])
@pytest.mark.parametrize("fn", [concurrence_x, negativity_x, from_density],
                         ids=lambda fn: fn.__name__)
def test_x_form_non_finite_entry_raises(fn, where, value):
    # the mirrored entry is set too, so a finite matrix would be Hermitian;
    # an off-X NaN is reported as non-finite, not as an off-X magnitude
    m = MAX_MIXED.astype(complex)
    m[where] = m[where[::-1]] = value
    with pytest.raises(ValueError, match="^non-finite entry$"):
        fn(m)


@pytest.mark.parametrize("fn", [concurrence_x, negativity_x, from_density],
                         ids=lambda fn: fn.__name__)
def test_x_form_lower_coherence_non_finite_raises(fn):
    # every X-form route reads all 16 entries, not only those it computes with
    m = MAX_MIXED.astype(complex)
    m[3, 0] = np.nan
    with pytest.raises(ValueError, match="^non-finite entry$"):
        fn(m)


@pytest.mark.parametrize("where", [(0, 1), (0, 2), (1, 0), (1, 3),
                                   (2, 0), (2, 3), (3, 1), (3, 2)], ids=str)
def test_is_x_form_false_on_nan_off_x(where):
    # max() skips a NaN that is not the first off-X magnitude
    m = MAX_MIXED.astype(complex)
    m[where] = np.nan
    assert not is_x_form(m)
    assert not is_x_form(m, tol=np.finfo(float).max)
    m[where] = np.inf
    assert not is_x_form(m)


def test_from_density_nan_tol_accepts_no_matrix():
    # the tol is read before the matrix (matrix_core._read_tol)
    with pytest.raises(ValueError, match=r"^tol=nan is not a number in \(0, inf\)$"):
        from_density(MAX_MIXED, tol=np.nan)


@pytest.mark.parametrize("fn", [concurrence_x, negativity_x, from_density],
                         ids=lambda fn: fn.__name__)
def test_x_form_error_names_largest_off_x_entry(fn):
    m = MAX_MIXED.astype(complex)
    m[0, 1] = m[1, 0] = 0.1
    m[3, 2] = m[2, 3] = 0.3j
    with pytest.raises(NotXFormError, match="^off-X entry of magnitude 3.000e-01 exceeds 1.000e-09$"):
        fn(m)


# a finite complex entry whose magnitude overflows Python's abs
HUGE = complex(1.5e308, 1.5e308)
X_READERS = [concurrence_x, negativity_x, from_density]


def test_overflowing_off_x_entry_is_not_x_form():
    m = MAX_MIXED.astype(complex)
    m[0, 1] = HUGE
    m[1, 0] = HUGE.conjugate()
    assert not is_x_form(m)
    for fn in X_READERS:
        with pytest.raises(ValueError, match=f"^{re.escape(OUT_OF_SCALE)}$"):
            fn(m)


def test_overflowing_coherence_asymmetry_is_not_hermitian():
    m = MAX_MIXED.astype(complex)
    m[0, 3] = HUGE
    # the off-X entries are 0, but the input is out of scale before any
    # X-form or Hermiticity test
    assert not is_x_form(m)
    for fn in X_READERS:
        with pytest.raises(ValueError, match=f"^{re.escape(OUT_OF_SCALE)}$"):
            fn(m)


HERMITIAN_ROUTES = [negativity_general, purity_general, concurrence_x, negativity_x,
                    from_density]


@pytest.mark.parametrize("where", [(0, 3), (3, 0)], ids=["above", "below"])
@pytest.mark.parametrize("fn", HERMITIAN_ROUTES, ids=lambda fn: fn.__name__)
def test_half_a_coherence_is_not_hermitian(fn, where):
    # one corner of the outer coherence: a route reading half the matrix
    # would set the X routes against the eigensolver (0.054 against 0.0
    # above the diagonal, 0.0 against 0.65 below)
    m = MAX_MIXED.astype(complex)
    m[where] = 0.3
    with pytest.raises(NonHermitianError):
        fn(m)


@pytest.mark.parametrize("fn", HERMITIAN_ROUTES, ids=lambda fn: fn.__name__)
def test_hermitian_gate_is_solver_tol(fn):
    # a coherence pair asymmetric within SOLVER_TOL passes, beyond it fails
    # on the diagonal the deviation is 2 |Im d_i|
    for i, j, dev in ((0, 3, SOLVER_TOL), (2, 1, 1j * SOLVER_TOL), (1, 1, 0.5j * SOLVER_TOL)):
        m = to_density(random_xparams(41, "entangled"))
        m[i, j] += 0.9 * dev
        fn(m)
        m[i, j] += 1.2 * dev
        with pytest.raises(NonHermitianError):
            fn(m)


@pytest.mark.parametrize("fn", [*HERMITIAN_ROUTES, concurrence_general],
                         ids=lambda fn: fn.__name__)
def test_imaginary_diagonal_is_not_hermitian(fn):
    # the X routes gave 0.0 and a chart point here, the general ones raised
    m = MAX_MIXED.astype(complex)
    m[0, 0] += 0.3j
    with pytest.raises(NonHermitianError):
        fn(m)
