"""Eigendecomposition, partial transpose, trace norm, conjugation."""

import numpy as np
import pytest

from xtangle import (
    NonHermitianError,
    as_matrix,
    child_seed,
    concurrence_general,
    conjugate,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    is_unitary,
    mems_from_spectrum,
    negativity_general,
    partial_transpose,
    purity_general,
    random_density,
    random_unitary,
    random_xparams,
    to_density,
    trace_norm,
)
from xtangle.matrix_core import (
    OUT_OF_SCALE,
    ROUNDOFF,
    SOLVER_TOL,
    _eigvalsh,
    density_spectrum,
)

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
    # finite and Hermitian, but its entry magnitudes overflow: out of scale
    bad[0, 1] = complex(1.5e308, 1.5e308)
    bad[1, 0] = bad[0, 1].conjugate()
    assert is_density_matrix(bad) == (False, OUT_OF_SCALE)


def test_as_matrix_shape_guard():
    with pytest.raises(ValueError):
        as_matrix(np.eye(3))


def test_is_density_matrix_names_a_wrong_shape():
    assert is_density_matrix(np.eye(3)) == (False, "expected a 4x4 matrix, got shape (3, 3)")


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


# a state whose lowest eigenvalue sits 3e-13 below the PSD floor -1e-10
_FLOOR_U = random_unitary(5)
_NEAR_FLOOR = (_FLOOR_U @ np.diag([0.5, 0.3, 0.2 + 1e-10 + 3e-13, -1e-10 - 3e-13])
               @ _FLOOR_U.conj().T)


def _near_floor(k):
    """_NEAR_FLOOR with a complex asymmetry of 4e-13 to 8e-13, inside the
    Hermiticity gate ROUNDOFF, added to one lower-triangle entry m[3, j]."""
    rng = np.random.default_rng(k)
    m = _NEAR_FLOOR.copy()
    m[3, rng.integers(3)] += 4e-13 * (1.0 + rng.random()) * np.exp(2j * np.pi * rng.random())
    return m


def test_is_density_matrix_agrees_with_density_spectrum_at_the_floor():
    # the raw matrix's lower triangle and its symmetrised form differ in
    # their lowest eigenvalue by up to the asymmetry: one check of one
    # solve gives both routes one verdict and one reason
    raw_admitted = 0
    for k in range(2000):
        m = _near_floor(k)
        assert np.abs(m - m.conj().T).max() <= ROUNDOFF
        try:
            density_spectrum(m)
            want = (True, "")
        except ValueError as exc:
            want = (False, str(exc).removeprefix("not a density matrix: "))
        assert is_density_matrix(m) == want, k
        raw_admitted += bool(np.linalg.eigvalsh(m).min() >= -SOLVER_TOL)
    # the set holds inputs a solve of the raw lower triangle admits
    assert raw_admitted > 0


# The solve input: a matrix that equals its adjoint exactly goes to LAPACK
# as given, any other admitted one as its Hermitian part.

def _hermitian_part(m):
    return 0.5 * (m + m.conj().T)


def _bits(spec):
    return spec.values.tobytes(), spec.eigvecs.tobytes()


CONVERT_KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
_SEEDED = {kind: [random_density(child_seed(11, i), kind) for i in range(12)]
           for kind in CONVERT_KINDS}
_X_STATES = [to_density(random_xparams(child_seed(12, i))) for i in range(12)]
_DIAGONAL = [np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), MAX_MIXED.astype(complex)]
EXACT_INPUTS = {
    **_SEEDED,
    "x_state": _X_STATES,
    "mems": [mems_from_spectrum(hermitian_eigvals(m)) for m in _SEEDED["hilbert_schmidt"]],
    "diagonal": _DIAGONAL,
}
# exactly Hermitian by value, with -0.0 parts where their Hermitian part has +0.0
NEGATIVE_ZERO_INPUTS = {
    "seeded_conj": [m.conj() for ms in _SEEDED.values() for m in ms],
    "real_part_conj": [m.real.astype(complex).conj() for ms in _SEEDED.values() for m in ms],
    "x_state_conj": [m.conj() for m in _X_STATES],
    "diagonal_conj": [m.conj() for m in _DIAGONAL],
}


@pytest.mark.parametrize("family", EXACT_INPUTS)
def test_an_exactly_hermitian_input_solves_as_its_hermitian_part_bitwise(family):
    for m in EXACT_INPUTS[family]:
        h = _hermitian_part(m)
        assert m.tobytes() == h.tobytes()
        assert hermitian_eigvals(m).tobytes() == _eigvalsh(h)[::-1].tobytes()
        assert _bits(hermitian_eig(m)) == _bits(hermitian_eig(h))
        assert _bits(density_spectrum(m)) == _bits(density_spectrum(h))


@pytest.mark.parametrize("family", NEGATIVE_ZERO_INPUTS)
def test_an_input_with_negative_zeros_solves_as_its_hermitian_part_by_value(family):
    # only the sign of a zero can differ, in the eigenvector entries
    for m in NEGATIVE_ZERO_INPUTS[family]:
        h = _hermitian_part(m)
        assert np.array_equal(m, h) and m.tobytes() != h.tobytes()
        assert np.array_equal(hermitian_eigvals(m), _eigvalsh(h)[::-1])
        for got, want in ((hermitian_eig(m), hermitian_eig(h)),
                          (density_spectrum(m), density_spectrum(h))):
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.eigvecs, want.eigvecs)


_NEAR_HERMITIAN = {
    "conjugated": [conjugate(m, random_unitary(child_seed(13, i)))
                   for i, m in enumerate(_SEEDED["hilbert_schmidt"] + _SEEDED["rank_2"])],
    "near_floor": [_near_floor(k) for k in range(12)],
}


@pytest.mark.parametrize("family", _NEAR_HERMITIAN)
def test_a_near_hermitian_input_solves_as_its_hermitian_part(family, solver_inputs):
    routes = (hermitian_eig, hermitian_eigvals, is_density_matrix)
    for m in _NEAR_HERMITIAN[family]:
        assert not np.array_equal(m, m.conj().T)
        want = _hermitian_part(m).tobytes()
        for route in routes:
            solver_inputs.clear()
            route(m)
            assert [(name, a.tobytes()) for name, a in solver_inputs] == [
                ("eigvalsh" if route is hermitian_eigvals else "eigh", want)]


def test_negativity_reads_the_lowest_partial_transpose_eigenvalue_bitwise():
    states = ([m for ms in _SEEDED.values() for m in ms]
              + [to_density(random_xparams(child_seed(14, i), "separable")) for i in range(12)]
              + _DIAGONAL)
    got = [negativity_general(rho) for rho in states]
    want = [max(0.0, -float(np.linalg.eigvalsh(partial_transpose(rho)).min())) for rho in states]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    assert 0.0 in got and max(got) > 0.0
