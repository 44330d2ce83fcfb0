"""Eigendecomposition, partial transpose, trace norm, conjugation."""

import numpy as np
import pytest

from xtangle import (
    NonHermitianError,
    as_matrix,
    concurrence_general,
    conjugate,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    is_unitary,
    negativity_general,
    partial_transpose,
    purity_general,
    random_density,
    trace_norm,
)
from xtangle.matrix_core import density_spectrum

from reference_states import (
    BELL_PHI_PLUS,
    M40,
    M40_SPECTRUM,
    MAX_MIXED,
    random_density_np,
    random_hermitian,
)


def test_eig_identity():
    spec = hermitian_eig(MAX_MIXED)
    np.testing.assert_allclose(spec.values, [0.25] * 4, atol=1e-14)
    np.testing.assert_allclose(
        spec.eigvecs @ spec.eigvecs.conj().T, np.eye(4), atol=1e-12)


def test_eig_diagonal_order():
    spec = hermitian_eig(np.diag([0.1, 0.4, 0.2, 0.3]))
    np.testing.assert_allclose(spec.values, [0.4, 0.3, 0.2, 0.1], atol=1e-15)


def test_eig_m40_frozen():
    spec = hermitian_eig(M40)
    np.testing.assert_allclose(spec.values, M40_SPECTRUM, atol=1e-12)


def test_eig_contract_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_hermitian(rng)
        spec = hermitian_eig(a)
        scale = max(1.0, np.linalg.norm(a, 2))
        # residual bound, non-ascending order, orthonormal columns
        res = a @ spec.eigvecs - spec.eigvecs * spec.values
        assert np.max(np.abs(res)) <= 1e-11 * scale
        assert np.all(np.diff(spec.values) <= 1e-14)
        np.testing.assert_allclose(
            spec.eigvecs.conj().T @ spec.eigvecs, np.eye(4), atol=1e-12)
        rebuilt = (spec.eigvecs * spec.values) @ spec.eigvecs.conj().T
        np.testing.assert_allclose(rebuilt, a, atol=1e-10 * scale)


def test_eig_phase_convention():
    # first significant component of each eigenvector is positive real
    rng = np.random.default_rng(12)
    for _ in range(50):
        spec = hermitian_eig(random_hermitian(rng))
        for k in range(4):
            col = spec.eigvecs[:, k]
            lead = col[np.argmax(np.abs(col) > 1e-12)]
            assert lead.real > 0.0
            assert abs(lead.imag) <= 1e-12


def test_eig_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.5
    with pytest.raises(NonHermitianError):
        hermitian_eig(bad)


def test_eigvals_rejects_non_hermitian():
    # eigvalsh alone would read one triangle and accept this
    bad = MAX_MIXED.astype(complex)
    bad[0, 1] = 0.5
    with pytest.raises(NonHermitianError):
        hermitian_eigvals(bad)


@pytest.mark.parametrize("kind", ["hilbert_schmidt", "rank_1", "rank_2", "rank_3", "pure_haar"])
def test_eigvals_match_eig(kind):
    for seed in range(50):
        rho = random_density(seed, kind)
        np.testing.assert_allclose(
            hermitian_eigvals(rho), hermitian_eig(rho).values, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(
        hermitian_eigvals(MAX_MIXED), hermitian_eig(MAX_MIXED).values, rtol=0.0, atol=1e-14)


def test_partial_transpose_product_diagonal():
    d = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_allclose(partial_transpose(d), d, atol=0.0)


def test_partial_transpose_bell():
    pt = partial_transpose(BELL_PHI_PLUS)
    vals = np.sort(np.linalg.eigvalsh(pt))
    np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)


def test_partial_transpose_swaps_x_coherences():
    m = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(m, 0.25)
    m[0, 3] = 0.1 + 0.02j
    m[3, 0] = np.conj(m[0, 3])
    m[1, 2] = 0.05 - 0.01j
    m[2, 1] = np.conj(m[1, 2])
    pt = partial_transpose(m)
    assert pt[1, 2] == m[0, 3]
    assert pt[0, 3] == m[1, 2]
    np.testing.assert_allclose(np.diag(pt), np.diag(m), atol=0.0)


def test_partial_transpose_involution():
    rng = np.random.default_rng(13)
    for _ in range(100):
        rho = random_density_np(rng)
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(rho)), rho)


def test_partial_transpose_at_most_one_negative():
    # two-qubit PT has at most one negative eigenvalue
    rng = np.random.default_rng(14)
    for _ in range(2000):
        rho = random_density_np(rng)
        vals = np.linalg.eigvalsh(partial_transpose(rho))
        assert np.sum(vals < -1e-12) <= 1


def test_trace_norm():
    assert trace_norm(np.eye(4)) == pytest.approx(4.0, abs=1e-13)
    assert trace_norm(np.diag([0.5, -0.5, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-13)
    rng = np.random.default_rng(15)
    for _ in range(50):
        rho = random_density_np(rng)
        assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(16)
    a = random_hermitian(rng)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert trace_norm(q @ a @ q.conj().T) == pytest.approx(trace_norm(a), abs=1e-11)


def test_is_unitary():
    assert is_unitary(np.eye(4))
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert is_unitary(q)
    assert not is_unitary(q * 1.001)


def test_conjugate():
    rng = np.random.default_rng(18)
    rho = random_density_np(rng)
    np.testing.assert_allclose(conjugate(rho, np.eye(4)), rho, atol=1e-15)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    out = conjugate(rho, q)
    np.testing.assert_allclose(conjugate(out, q.conj().T), rho, atol=1e-13)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-12)


@pytest.mark.parametrize("which", ["rho", "u"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_conjugate_rejects_a_non_finite_entry(which, value):
    # a NaN matrix came back as a NaN matrix
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = value
    args = (bad, np.eye(4)) if which == "rho" else (MAX_MIXED, bad)
    with pytest.raises(ValueError, match="^non-finite entry$"):
        conjugate(*args)


def test_is_density_matrix():
    ok, _ = is_density_matrix(MAX_MIXED)
    assert ok
    ok, why = is_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    assert not ok and why
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.3
    ok, _ = is_density_matrix(bad)
    assert not ok
    ok, _ = is_density_matrix(np.eye(4))
    assert not ok  # trace 4
    # finite and Hermitian, but the block [[1/4, z], [z*, 1/4]] has the
    # eigenvalue 1/4 - |z| < 0; eigvalsh overflows and returns four NaNs
    bad[0, 1] = complex(1.5e308, 1.5e308)
    bad[1, 0] = bad[0, 1].conjugate()
    assert is_density_matrix(bad) == (False, "non-finite eigenvalue")


def test_as_matrix_shape_guard():
    with pytest.raises(ValueError):
        as_matrix(np.eye(3))


def _non_finite_inputs():
    all_nan = np.full((4, 4), np.nan, dtype=complex)
    diag_nan = MAX_MIXED.astype(complex)
    diag_nan[1, 1] = np.nan
    off_inf = MAX_MIXED.astype(complex)
    off_inf[0, 3] = off_inf[3, 0] = np.inf
    return all_nan, diag_nan, off_inf


def test_is_density_matrix_rejects_non_finite():
    for m in _non_finite_inputs():
        assert is_density_matrix(m) == (False, "non-finite entry")
        with pytest.raises(ValueError, match="non-finite entry"):
            density_spectrum(m)


# numpy warns of the invalid arithmetic a NaN or inf entry causes
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
@pytest.mark.parametrize("where", [(1, 1), (0, 3)], ids=["diagonal", "off_diagonal"])
@pytest.mark.parametrize("fn", [hermitian_eig, concurrence_general, negativity_general,
                                trace_norm, purity_general, hermitian_eigvals],
                         ids=lambda fn: fn.__name__)
def test_non_finite_entry_raises(fn, where, value):
    m = MAX_MIXED.astype(complex)
    m[where] = m[where[::-1]] = value
    with pytest.raises(ValueError, match="^non-finite entry$"):
        fn(m)


def test_density_spectrum_shares_checks():
    not_hermitian = MAX_MIXED.astype(complex)
    not_hermitian[0, 1] = 0.3
    cases = (np.diag([1.5, -0.5, 0.0, 0.0]), not_hermitian, np.eye(4),
             np.diag([0.5, 0.5, 1e-9, -1e-9]))
    for m in cases:
        ok, why = is_density_matrix(m)
        assert not ok
        with pytest.raises(ValueError) as err:
            density_spectrum(m)
        assert str(err.value) == f"not a density matrix: {why}"
    spec = density_spectrum(M40)
    np.testing.assert_array_equal(spec.values, hermitian_eig(M40).values)
    np.testing.assert_array_equal(spec.eigvecs, hermitian_eig(M40).eigvecs)
