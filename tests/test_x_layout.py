"""Every X matrix the package builds, entry by entry and bit for bit.

to_density, mems_from_spectrum, minset_state and counterpart_details
share one builder. The first three are compared against matrices written
entry by entry here, including the sign of every zero: a real coherence conjugated after being stored as
complex gets an imaginary part of -0.0, which assert_allclose cannot see
but the CLI prints.
"""

import hashlib
import math

import numpy as np
import pytest

from xtangle import (
    child_seed,
    counterpart_details,
    cp_boundary,
    diagonal,
    mems_from_spectrum,
    minset_state,
    random_density,
    random_xparams,
    scalar_u,
    scalar_w,
    to_density,
)

P_JUNCTION = 5.0 / 9.0


def _written(d, upper, lower):
    """The X matrix with diagonal d, upper coherences upper = (rho_14, rho_23)
    and lower coherences lower = (rho_41, rho_32), one entry at a time."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = d[0]
    m[1, 1] = d[1]
    m[2, 2] = d[2]
    m[3, 3] = d[3]
    m[0, 3] = upper[0]
    m[1, 2] = upper[1]
    m[3, 0] = lower[0]
    m[2, 1] = lower[1]
    return m


def _to_density_written(p):
    cx = np.sqrt(max(p.x, 0.0)) * np.exp(1j * p.mu)
    cy = np.sqrt(max(p.y, 0.0)) * np.exp(1j * p.nu)
    return _written(diagonal(p), (cx, cy), (np.conj(cx), np.conj(cy)))


def _mems_written(spectrum):
    l1, l2, l3, l4 = np.sort(spectrum)[::-1]
    mid, coh = 0.5 * (l1 + l3), 0.5 * (l1 - l3)
    return _written((l4, mid, mid, l2), (0.0, coh), (0.0, coh))


def _minset_written(p, c):
    # the paper's three members; real coherences, equal on both sides
    if p >= 1.0:
        c = min(c, 1.0)
        s = math.sqrt(max(1.0 - c * c, 0.0))
        return _written((0.5 * (1.0 + s), 0.0, 0.0, 0.5 * (1.0 - s)),
                        (0.5 * c, 0.0), (0.5 * c, 0.0))
    if p >= P_JUNCTION:
        u = scalar_u(p)
        s = math.sqrt(max(u * u - c * c, 0.0))
        return _written((1.0 - u, 0.5 * (u + s), 0.5 * (u - s), 0.0),
                        (0.0, 0.5 * c), (0.0, 0.5 * c))
    w = scalar_w(p, c)
    return _written((1.0 - 2.0 * w, w, 0.0, w), (0.5 * c, 0.0), (0.5 * c, 0.0))


def _draws():
    return [random_xparams(child_seed(2026, i)) for i in range(200)]


def _grid():
    return [(p, c) for p in np.linspace(1.0 / 3.0, 1.0, 40)
            for c in np.linspace(0.0, cp_boundary(p), 40)]


def _assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def _digest(mats):
    h = hashlib.sha256()
    for m in mats:
        h.update(m.tobytes())
    return h.hexdigest()


def test_to_density_bitwise():
    for p in _draws():
        _assert_bitwise(to_density(p), _to_density_written(p))


def test_mems_from_spectrum_bitwise():
    for p in _draws():
        spectrum = np.linalg.eigvalsh(to_density(p))
        _assert_bitwise(mems_from_spectrum(spectrum), _mems_written(spectrum))


def test_minset_state_bitwise():
    for p, c in _grid():
        _assert_bitwise(minset_state(p, c), _minset_written(p, c))


@pytest.mark.parametrize("measure", ["concurrence", "negativity"])
def test_counterpart_details_imaginary_parts_are_plus_zero(measure):
    # the conversion's coherence is real (its walk's phases are 0), so no
    # entry's imaginary part is -0.0: the kinds of the convert workload,
    # then the maximally mixed state, which is already separable
    kinds = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
    states = [random_density(child_seed(2026, i), kinds[i % 4]) for i in range(40)]
    branches = set()
    for rho in states + [np.eye(4, dtype=complex) / 4.0]:
        res = counterpart_details(rho, measure)
        branches.add(res.branch)
        assert not np.signbit(res.state.imag).any()
        assert not res.state.imag.any()
    assert branches == {"g_zero", "already_separable"}


@pytest.mark.parametrize("build, digest", [
    (lambda: [to_density(p) for p in _draws()],
     "a7e7d890e33626fc047429f08dd19c96c5ceb337df82a9f46f339d8da62efa89"),
    (lambda: [mems_from_spectrum(np.linalg.eigvalsh(to_density(p))) for p in _draws()],
     "71ba08656815ace91412e5828e6db8abf1eadfb730a9857e99d49a95aee6eb54"),
    (lambda: [minset_state(p, c) for p, c in _grid()],
     "c5f2c6705592cb7a36474be336b207d1271d5089cb115871d63828bca07cbd8c"),
], ids=["to_density", "mems_from_spectrum", "minset_state"])
def test_builder_bytes_frozen(build, digest):
    assert _digest(build()) == digest
