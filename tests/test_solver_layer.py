"""matrix_core's solver layer: numpy.linalg's results without its wrappers."""

import io
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from xtangle import (
    cli,
    concurrence_general,
    counterpart_details,
    fannes_ree_bound,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    negativity_general,
    numerical_rank,
    partial_transpose,
    random_density,
    trace_norm,
)
from xtangle.matrix_core import _eigh, _eigvalsh, _svdvals
from xtangle.measures import _FLIP_SIGNS, floored

from reference_states import BELL_PHI_PLUS, MAX_MIXED

KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
STATES = {
    **{f"{kind}_{seed}": random_density(seed, kind) for kind in KINDS for seed in (3, 17)},
    "max_mixed": MAX_MIXED,
    "rank_2_diag": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
    "rank_3_diag": np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex),
    "bell": BELL_PHI_PLUS,
}


def wootters_k(rho):
    """sqrt(rho) (sy x sy) sqrt(rho)*, the matrix whose singular values
    concurrence_from_eig takes, built as it builds it."""
    spec = hermitian_eig(rho)
    roots = np.array([np.sqrt(v) for v in floored(spec.values)], dtype=complex)
    s = (spec.eigvecs * roots) @ spec.eigvecs.conj().T
    return (s[:, ::-1] * _FLIP_SIGNS) @ s.conj()


INPUTS = {
    **STATES,
    **{f"{name}_pt": partial_transpose(rho) for name, rho in STATES.items()},
    **{f"{name}_k": wootters_k(rho) for name, rho in STATES.items()},
}


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", INPUTS)
def test_solvers_match_numpy_linalg_bitwise(name):
    m = INPUTS[name]
    vals, vecs = _eigh(m)
    want = np.linalg.eigh(m)
    assert same_bytes(vals, want.eigenvalues)
    assert same_bytes(vecs, want.eigenvectors)
    assert same_bytes(_eigvalsh(m), np.linalg.eigvalsh(m))
    assert same_bytes(_svdvals(m), np.linalg.svd(m, compute_uv=False))


@pytest.mark.parametrize("solver, numpy_fn", [
    (_eigh, np.linalg.eigh),
    (_eigvalsh, np.linalg.eigvalsh),
    (_svdvals, lambda m: np.linalg.svd(m, compute_uv=False)),
])
def test_a_failed_solve_raises_linalgerror_as_numpy_does(solver, numpy_fn):
    # all-NaN input: LAPACK fails to converge. A numpy that renamed the
    # gufuncs behind the solvers fails this test, not a silent one.
    nan = np.full((4, 4), np.nan, dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError) as want:
            numpy_fn(nan)
        with pytest.raises(np.linalg.LinAlgError) as got:
            solver(nan)
    assert caught == []
    assert str(got.value) == str(want.value)


def _results():
    """The package's solver-backed results on a few states, and the CLI's
    sweep output."""
    rho, sigma = STATES["hilbert_schmidt_3"], STATES["rank_3_17"]
    out = []
    for state in (rho, sigma, STATES["rank_2_diag"], BELL_PHI_PLUS):
        for measure in ("concurrence", "negativity"):
            res = counterpart_details(state, measure)
            out.append((res.state.tobytes(), res.tau, res.achieved, res.branch))
        out += [concurrence_general(state), negativity_general(state),
                is_density_matrix(state), hermitian_eigvals(state).tobytes(),
                numerical_rank(state), trace_norm(state)]
    out.append(fannes_ree_bound(rho, 0.9 * rho + 0.025 * np.eye(4)))
    buf = io.StringIO()
    with redirect_stdout(buf):
        out.append(cli.main(["sweep", "--count", "3", "all"]))
    out.append(buf.getvalue())
    return out


def test_no_route_calls_the_numpy_linalg_wrappers(monkeypatch):
    want = _results()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg wrapper called")

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert _results() == want
