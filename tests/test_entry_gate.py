"""The 4x4 entry gate and eigen layer against their former numpy forms.

The entry checks are read from one tolist() in Python (matrix_core
._scale_problem, then _entry_gate) and the eigenvector phases are divided
out in one step.
The numpy bodies they replaced are kept here as oracles: the verdicts,
exception types and messages, and the eigen layer's bits, must match.
"""

import itertools
import math

import numpy as np
import pytest

from xtangle import (
    NonHermitianError,
    as_matrix,
    counterpart_details,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    minset_state,
    random_density,
    random_unitary,
    random_xparams,
    to_density,
)
from xtangle.matrix_core import (
    ENTRY_SCALE,
    NON_FINITE,
    OUT_OF_SCALE,
    ROUNDOFF,
    SOLVER_TOL,
    Spectrum,
    density_spectrum,
)

from reference_states import M40


# ---- the former numpy bodies, as oracles ------------------------------------

def _scale_problem_oracle(m):
    # numpy's abs reads an overflowing magnitude as inf, with a warning
    with np.errstate(all="ignore"):
        if not np.isfinite(m).all():
            return NON_FINITE
        if np.abs(m).sum() > ENTRY_SCALE:
            return OUT_OF_SCALE
    return ""


def _entry_problem_oracle(m):
    why = _scale_problem_oracle(m)
    if why:
        return why
    if np.abs(m - m.conj().T).max() > ROUNDOFF:
        return "not Hermitian"
    tr = m.trace()
    if abs(tr - 1.0) > ROUNDOFF:
        return f"trace {tr:.17g} differs from 1"
    return ""


def _hermitian_part_oracle(a):
    m = as_matrix(a)
    why = _scale_problem_oracle(m)
    if why:
        raise ValueError(why)
    dev = np.abs(m - m.conj().T).max()
    if not dev <= SOLVER_TOL:
        raise NonHermitianError(f"matrix is not Hermitian within {SOLVER_TOL:g}")
    return 0.5 * (m + m.conj().T)


def _sorted_eigh_oracle(m):
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    lead = vecs[(np.abs(vecs) > ROUNDOFF).argmax(axis=0), np.arange(4)]
    return Spectrum(values=vals, eigvecs=vecs / (lead / np.abs(lead)))


def _psd_problem_oracle(lowest):
    if lowest >= -SOLVER_TOL:
        return ""
    return f"negative eigenvalue {lowest:.3e}"


def _density_spectrum_oracle(a):
    m = as_matrix(a)
    why = _entry_problem_oracle(m)
    if why:
        raise ValueError(f"not a density matrix: {why}")
    spec = _sorted_eigh_oracle(0.5 * (m + m.conj().T))
    why = _psd_problem_oracle(spec.values[-1])
    if why:
        raise ValueError(f"not a density matrix: {why}")
    return spec


def _is_density_matrix_oracle(a):
    # density_spectrum's verdict: the two routes share one check
    try:
        _density_spectrum_oracle(a)
    except ValueError as exc:
        return False, str(exc).removeprefix("not a density matrix: ")
    return True, ""


def _hermitian_eig_oracle(a):
    return _sorted_eigh_oracle(_hermitian_part_oracle(a))


def _hermitian_eigvals_oracle(a):
    return np.linalg.eigvalsh(_hermitian_part_oracle(a))[::-1]


# ---- the gate-equivalence table ---------------------------------------------

def _bits(value):
    """A comparable form of a return value, bit for bit."""
    if isinstance(value, Spectrum):
        return value.values.tobytes(), value.eigvecs.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value


def _outcome(fn, m):
    try:
        return "ok", _bits(fn(m))
    except ValueError as exc:
        return type(exc), str(exc)


# an exactly Hermitian base: (a + a^dagger)/2 is, bit for bit
_BASE = 0.5 * (M40 + M40.conj().T)
_OFF_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _with(i, j, value):
    m = _BASE.copy()
    m[i, j] = value
    return m


def _table():
    cases = {}
    values = {"nan": math.nan, "inf": math.inf, "neg_inf": -math.inf,
              "nan_real": complex(math.nan, 0.0)}
    for (name, value), (i, j) in itertools.product(values.items(),
                                                   itertools.product(range(4), repeat=2)):
        cases[f"{name}@{i}{j}"] = _with(i, j, value)
    for tol, scale in itertools.product((ROUNDOFF, SOLVER_TOL), (0.5, 2.0)):
        dev = scale * tol
        for i, j in _OFF_PAIRS:
            cases[f"asym_re_{scale}x{tol:g}@{i}{j}"] = _with(i, j, _BASE[i, j] + dev)
            cases[f"asym_im_{scale}x{tol:g}@{i}{j}"] = _with(i, j, _BASE[i, j] + 1j * dev)
        for i in range(4):
            # |m - m^dagger| reads twice the imaginary part on the diagonal
            cases[f"diag_im_{scale}x{tol:g}@{i}"] = _with(i, i, _BASE[i, i] + 0.5j * dev)
    # a finite entry whose magnitude overflows: out of scale
    cases["asym_overflow@01"] = _with(0, 1, complex(1.5e308, 1.5e308))
    for scale, sign in itertools.product((0.5, 2.0), (1.0, -1.0)):
        cases[f"trace_{sign * scale:+}xROUNDOFF"] = _with(0, 0, _BASE[0, 0] + sign * scale * ROUNDOFF)
    # the message prints the trace to 17 digits, which shows the order of
    # its sum: random diagonals, so that every order gives a different last bit
    for seed in range(24):
        rho = random_density(seed)
        m = 0.5 * (rho + rho.conj().T)
        m[seed % 4, seed % 4] += (2.0 if seed % 2 else -2.0) * ROUNDOFF
        cases[f"trace_2xROUNDOFF_seed{seed}"] = m
    # numpy's sum turns a -0 imaginary part into +0, which the message shows
    m = _BASE + 0.0
    for i in range(4):
        m[i, i] = complex(m[i, i].real + (2.0 * ROUNDOFF if i == 0 else 0.0), -0.0)
    cases["trace_2xROUNDOFF_negative_zero_imag"] = m
    cases["valid"] = _BASE
    return cases


_CASES = _table()

_PAIRS = [
    (is_density_matrix, _is_density_matrix_oracle),
    (density_spectrum, _density_spectrum_oracle),
    (hermitian_eig, _hermitian_eig_oracle),
    (hermitian_eigvals, _hermitian_eigvals_oracle),
]


@pytest.mark.parametrize("name", sorted(_CASES))
def test_gate_matches_numpy_oracle(name):
    m = _CASES[name]
    for fn, oracle in _PAIRS:
        assert _outcome(fn, m) == _outcome(oracle, m), fn.__name__
    # the conversion's gate is density_spectrum's: the same rejection, or none
    want = _outcome(_density_spectrum_oracle, m)
    for measure in ("concurrence", "negativity"):
        got = _outcome(lambda a: counterpart_details(a, measure), m)
        if want[0] == "ok":
            assert got[0] == "ok", got
        else:
            assert got == want


def test_table_covers_every_verdict():
    verdicts = {_outcome(_density_spectrum_oracle, m)[1] for m in _CASES.values()
                if _outcome(_density_spectrum_oracle, m)[0] != "ok"}
    assert "not a density matrix: non-finite entry" in verdicts
    assert f"not a density matrix: {OUT_OF_SCALE}" in verdicts
    assert "not a density matrix: not Hermitian" in verdicts
    assert any(v.startswith("not a density matrix: trace ") for v in verdicts)
    eig = {_outcome(_hermitian_eig_oracle, m)[0] for m in _CASES.values()}
    assert eig == {"ok", ValueError, NonHermitianError}


# ---- the bitwise tie of the phase step --------------------------------------

_KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
_DEGENERATE = ([0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
               [0.4, 0.3, 0.3, 0.0], [0.6, 0.2, 0.2, 0.0], [1 / 3, 1 / 3, 1 / 3, 0.0])


def _tie_states():
    for seed in range(60):
        for kind in _KINDS:
            yield random_density(seed, kind)
    for seed, spectrum in itertools.product(range(20), _DEGENERATE):
        u = random_unitary(seed)
        yield u @ np.diag(spectrum).astype(complex) @ u.conj().T
    # exact zeros in the vectors, so the lead is not always the first entry
    for spectrum in _DEGENERATE:
        yield np.diag(spectrum[::-1]).astype(complex)
    for seed in range(40):
        yield to_density(random_xparams(seed, "any"))
    yield minset_state(0.6, 0.3)
    yield minset_state(1.0, 1.0)


def test_phase_step_matches_argmax_lead_bitwise():
    n = 0
    for rho in _tie_states():
        m = 0.5 * (rho + rho.conj().T)
        want = _bits(_sorted_eigh_oracle(m))
        assert _bits(hermitian_eig(rho)) == want
        assert _bits(density_spectrum(rho)) == want
        n += 1
    assert n == 60 * len(_KINDS) + 20 * len(_DEGENERATE) + len(_DEGENERATE) + 40 + 2
