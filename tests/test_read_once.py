"""Each public route reads each of its arguments once.

A read is one of the package's input gates: the scale read
(matrix_core._scale_problem), the chart's angle read
(xstate._valid_angles) and the X-layout read (xstate._x_entries). No
route reads a value the package computed itself, and the walk step
builds no 4x4 matrix (xstate._x_matrix): it measures the rotated point's
entries in closed form. The old walk step, which built the rotated
point's matrix and read it back through the X routes, is kept here as
the oracle its output must match bit for bit.
"""

import math

import numpy as np
import pytest

from xtangle import (
    PathPoint,
    XParams,
    child_seed,
    coeffs,
    concurrence_x,
    conjugate,
    conjugate_x,
    counterpart_details,
    disentangle_params,
    evolve,
    fannes_ree_bound,
    from_density,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    negativity_general,
    negativity_x,
    partial_transpose,
    purity_general,
    random_density,
    random_unitary,
    random_xparams,
    to_density,
    trace_norm,
)
from xtangle import cli, ensemble, matrix_core, measures, minimal_set, universality, xstate
from xtangle.ensemble import RANK_KIND_TARGETS
from xtangle.matrix_core import density_spectrum

CONSTRAINTS = ("any", "entangled", "separable", *RANK_KIND_TARGETS)
TAUS = (0.0, 0.25, 0.5, 1.0)


def _at_top(theta, phi, psi, outer):
    """The point of these angles with its outer (or inner) coherence at
    the top of its positivity range and the other one 0."""
    cf = coeffs(XParams(theta, phi, psi, 0.0, 0.0))
    return XParams(theta, phi, psi, cf.h_cal if outer else 0.0,
                   0.0 if outer else cf.g_cal, 0.7, 1.9)


# degenerate diagonals: theta = 0 (d = (1, 0, 0, 0)) and phi = 0 (d2 = 1 -
# d1, the rest 0), which force both coherences to 0; psi = 0 (d4 = 0) with
# the inner coherence at its top and psi = pi/2 (d3 = 0) with the outer
# one at its top; and bitwise-zero population differences on each leg
# (test_universality's H_ZERO and G_ZERO points)
DEGENERATE = (
    XParams(0.0, 0.7, 0.3, 0.0, 0.0, 1.0, 2.0),
    XParams(0.9, 0.0, 0.4, 0.0, 0.0, 0.5, 4.0),
    _at_top(0.9, 0.8, 0.0, outer=False),
    _at_top(1.1, 0.6, 0.5 * math.pi, outer=True),
    XParams(1.0, np.pi / 2, 0.6972247958331288, 0.06, 0.0, 0.4, 0.0),
    XParams(1.2, 0.8, 0.24051847828324935, 0.001, 0.12, 0.0, 5.0),
)


def _oracle_evolve(p, sol, tau):
    """The walk step through the rotated point's matrix: to_density of the
    rotated point, measured by concurrence_x and negativity_x."""
    q = conjugate_x(p, sol.b1 * tau, sol.b2, sol.b3 * tau, sol.b4)
    return PathPoint(tau, q, concurrence_x(to_density(q)), negativity_x(to_density(q)))


def _walk_points():
    for constraint in CONSTRAINTS:
        for i in range(8):
            yield random_xparams(child_seed(21, i), constraint)
    yield from DEGENERATE


@pytest.mark.parametrize("tau", TAUS)
def test_evolve_matches_the_matrix_route_bit_for_bit(tau):
    points = list(_walk_points())
    for p in points:
        sol = disentangle_params(p)
        assert repr(evolve(p, sol, tau)) == repr(_oracle_evolve(p, sol, tau)), p
    # the degenerate points do walk, on both legs
    branches = {disentangle_params(p).branch for p in DEGENERATE}
    assert branches == {"already_separable", "GgtH", "HgtG", "h_zero", "g_zero"}


READS = ("_scale_problem", "_valid_angles", "_x_entries", "_x_matrix")
MODULES = (matrix_core, xstate, measures, universality, ensemble, minimal_set, cli)


def _count_reads(monkeypatch, reads=READS):
    """{read: calls} for the reads, each wrapped in every module binding it."""
    calls = dict.fromkeys(reads, 0)
    for name in reads:
        owner = next(module for module in MODULES if hasattr(module, name))
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


WALK = random_xparams(child_seed(22, 0), "entangled")
SOL = disentangle_params(WALK)
RHO = to_density(WALK)
# within trace distance 1/3 of RHO: 0.1 ||RHO - sigma||_tr <= 0.2
NEAR = 0.9 * RHO + 0.1 * random_density(22)
U = random_unitary(22)

# route: (call, {read: calls per call}); an omitted read is 0
ROUTES = {
    # conjugate_x reads the walk's point through the chart; the rotated
    # entries and the point they give are not read
    "evolve": (lambda: evolve(WALK, SOL, 0.5), {"_valid_angles": 1}),
    "conjugate_x": (lambda: conjugate_x(WALK, 0.3, 0.1, 0.2, 0.4), {"_valid_angles": 1}),
    # the matrix once, in _x_entries; its entries go to the chart's inverse unread
    "from_density": (lambda: from_density(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    # each argument once; their difference goes to the SVD unread
    "fannes_ree_bound": (lambda: fannes_ree_bound(RHO, NEAR), {"_scale_problem": 2}),
    "concurrence_x": (lambda: concurrence_x(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    "negativity_x": (lambda: negativity_x(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    "to_density": (lambda: to_density(WALK), {"_valid_angles": 1, "_x_matrix": 1}),
    "partial_transpose": (lambda: partial_transpose(NEAR), {"_scale_problem": 1}),
    # the one density check reads the entries once, then solves
    "is_density_matrix": (lambda: is_density_matrix(NEAR), {"_scale_problem": 1}),
    "density_spectrum": (lambda: density_spectrum(NEAR), {"_scale_problem": 1}),
    "hermitian_eig": (lambda: hermitian_eig(NEAR), {"_scale_problem": 1}),
    "hermitian_eigvals": (lambda: hermitian_eigvals(NEAR), {"_scale_problem": 1}),
    "purity_general": (lambda: purity_general(NEAR), {"_scale_problem": 1}),
    "trace_norm": (lambda: trace_norm(NEAR), {"_scale_problem": 1}),
    # the state and the unitary, once each
    "conjugate": (lambda: conjugate(NEAR, U), {"_scale_problem": 2}),
    # the gated matrix's partial transpose is taken unread
    "negativity_general": (lambda: negativity_general(NEAR), {"_scale_problem": 1}),
    # the input once; the output is built in closed form and not read back
    "counterpart_negativity": (lambda: counterpart_details(NEAR, "negativity"),
                               {"_scale_problem": 1, "_x_matrix": 1}),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_reads_per_call(monkeypatch, route):
    call, want = ROUTES[route]
    calls = _count_reads(monkeypatch)
    call()
    assert calls == {name: want.get(name, 0) for name in READS}


def test_measure_command_reads_its_state_once(monkeypatch, tmp_path, capsys):
    # the density check reads the entries once, and is_x_form scans its
    # own layout; the purity and the negativity take the checked matrix
    # unread, where each re-ran the scale read and the entry gate
    path = str(tmp_path / "near.json")
    cli.write_state(path, NEAR)
    calls = _count_reads(monkeypatch, ("_scale_problem", "_entry_gate"))
    assert cli.main(["measure", "--in", path]) == 0
    assert calls == {"_scale_problem": 2, "_entry_gate": 1}
