"""Each public route reads each of its arguments once.

A read is one of the package's input gates: the scale read
(matrix_core._scale_problem), the chart read
(xstate._physical_coeffs) and the X-layout read (xstate._x_entries). No
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
    char_poly,
    child_seed,
    classify_rank,
    coeffs,
    concurrence_along,
    concurrence_general,
    concurrence_x,
    conjugate,
    conjugate_x,
    counterpart_details,
    diagonal,
    disentangle_params,
    evolve,
    fannes_ree_bound,
    from_density,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    is_physical,
    is_separable,
    is_x_form,
    negativity_along,
    negativity_general,
    negativity_x,
    numerical_rank,
    partial_transpose,
    purity_general,
    purity_x,
    random_density,
    random_unitary,
    random_xparams,
    solve_tau,
    to_density,
    trace_norm,
    validate_params,
    x_unitary,
)
from xtangle import cli, ensemble, matrix_core, measures, minimal_set, universality, xstate
from xtangle.ensemble import RANK_KIND_TARGETS
from xtangle.matrix_core import DEFAULT_TOL, SOLVER_TOL, density_spectrum

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


READS = ("_scale_problem", "_physical_coeffs", "_x_entries", "_x_matrix")
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
HALF_C0 = 0.5 * concurrence_along(WALK, SOL, 0.0)
RHO = to_density(WALK)
# within trace distance 1/3 of RHO: 0.1 ||RHO - sigma||_tr <= 0.2
NEAR = 0.9 * RHO + 0.1 * random_density(22)
U = random_unitary(22)

# route: (call, {read: calls per call}); an omitted read is 0
ROUTES = {
    # conjugate_x reads the walk's point through the chart; the rotated
    # entries and the point they give are not read
    "evolve": (lambda: evolve(WALK, SOL, 0.5), {"_physical_coeffs": 1}),
    "conjugate_x": (lambda: conjugate_x(WALK, 0.3, 0.1, 0.2, 0.4), {"_physical_coeffs": 1}),
    # the matrix once, in _x_entries; its entries go to the chart's inverse unread
    "from_density": (lambda: from_density(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    # each argument once; their difference goes to the SVD unread
    "fannes_ree_bound": (lambda: fannes_ree_bound(RHO, NEAR), {"_scale_problem": 2}),
    "concurrence_x": (lambda: concurrence_x(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    "negativity_x": (lambda: negativity_x(RHO), {"_scale_problem": 1, "_x_entries": 1}),
    "to_density": (lambda: to_density(WALK), {"_physical_coeffs": 1, "_x_matrix": 1}),
    # every other route that takes an XParams reads it once, through the
    # chart, and builds no matrix; the walk's solution is not read
    **{name: (lambda fn=fn: fn(WALK), {"_physical_coeffs": 1}) for name, fn in (
        ("validate_params", validate_params), ("diagonal", diagonal), ("coeffs", coeffs),
        ("char_poly", char_poly), ("is_physical", is_physical), ("purity_x", purity_x),
        ("classify_rank", classify_rank), ("is_separable", is_separable),
        ("disentangle_params", disentangle_params))},
    "solve_tau": (lambda: solve_tau(WALK, SOL, HALF_C0), {"_physical_coeffs": 1}),
    "concurrence_along": (lambda: concurrence_along(WALK, SOL, 0.5), {"_physical_coeffs": 1}),
    "negativity_along": (lambda: negativity_along(WALK, SOL, 0.5), {"_physical_coeffs": 1}),
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


def test_classify_command_reads_its_point_once(monkeypatch, tmp_path, capsys):
    # one chart read serves the rank/kind, the separability and the
    # printed coefficients, where classify_rank, coeffs and is_separable
    # each read the point; the density check and from_density's X read
    # each read the matrix
    path = str(tmp_path / "walk.json")
    cli.write_state(path, RHO)
    calls = _count_reads(monkeypatch, ("_scale_problem", "_physical_coeffs"))
    assert cli.main(["classify", "--in", path]) == 0
    assert calls == {"_scale_problem": 2, "_physical_coeffs": 1}


# ---- the sweep ---------------------------------------------------------------
# Each check reads and solves every state it builds once. The checks
# before that change, which passed those states through the public gated
# routes again, are kept here as the oracle their verdicts must match.

def _oracle_measures(seed, tol):
    p = random_xparams(seed, "any")
    rho = to_density(p)
    return (abs(concurrence_x(rho) - concurrence_general(rho)) <= tol
            and abs(negativity_x(rho) - negativity_general(rho)) <= tol)


def _oracle_classify(seed, tol):
    p = random_xparams(seed, RANK_KIND_TARGETS[seed % 8])
    rho = to_density(p)
    rk = classify_rank(p)
    if rk.rank != numerical_rank(rho):
        return False
    return is_separable(p) == (negativity_general(rho) <= SOLVER_TOL)


def _oracle_conservation(seed, tol):
    rng = ensemble.SplitMix64(seed)
    p = random_xparams(rng.next_u64(), "any")
    angles = [rng.uniform(0.0, 2.0 * np.pi) for _ in range(4)]
    q = conjugate_x(p, *angles)
    a, b = coeffs(p), coeffs(q)
    direct = from_density(conjugate(to_density(p), x_unitary(*angles)))
    return (abs(a.b_cal - b.b_cal) <= tol
            and abs(a.c_cal - b.c_cal) <= tol
            and abs((a.g_cal - p.y) - (b.g_cal - q.y)) <= tol
            and abs((a.h_cal - p.x) - (b.h_cal - q.x)) <= tol
            and abs(direct.x - q.x) <= tol and abs(direct.y - q.y) <= tol)


def _oracle_disentangle(seed, tol):
    p = random_xparams(seed, "entangled")
    sol = disentangle_params(p)
    q = evolve(p, sol, 1.0).params
    return is_separable(q) and negativity_general(to_density(q)) <= SOLVER_TOL


def _oracle_counterpart(seed, tol):
    rho = random_density(seed)
    for measure in universality.MEASURES:
        res = counterpart_details(rho, measure)
        out = res.state
        if not is_x_form(out, tol=tol):
            return False
        if float(np.abs(hermitian_eigvals(out) - res.spectrum).max()) > tol:
            return False
        general = concurrence_general if measure == "concurrence" else negativity_general
        if abs(general(out) - res.target) > tol:
            return False
    return True


ORACLES = {
    "measures": _oracle_measures,
    "classify": _oracle_classify,
    "conservation": _oracle_conservation,
    "disentangle": _oracle_disentangle,
    "counterpart": _oracle_counterpart,
}
VERDICT_SEEDS = [child_seed(11, i) for i in range(1000)]


def _verdict(check, seed, tol):
    """The check's verdict as the sweep reports it: True, False or the
    type of the exception it raised."""
    try:
        return bool(check(seed, tol))
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-30], ids=["default_tol", "1e-30"])
@pytest.mark.parametrize("name", cli.SWEEP_CHECKS)
def test_sweep_checks_give_the_oracles_verdicts(name, tol):
    check, oracle = cli._CHECK_FNS[name], ORACLES[name]
    verdicts = [_verdict(check, seed, tol) for seed in VERDICT_SEEDS]
    assert verdicts == [_verdict(oracle, seed, tol) for seed in VERDICT_SEEDS]
    if tol == DEFAULT_TOL:
        assert all(v is True for v in verdicts)


def test_sweep_counterpart_spectrum_residual_moves_by_round_off_only(monkeypatch):
    # the concurrence side's output spectrum now comes from the eigh that
    # also gives its general concurrence, in place of an eigvalsh; the
    # records, the negativity side and both measures are the oracle's bit
    # for bit (see test_sweep_checks_give_the_oracles_verdicts at 1e-30)
    solved, records = [], []
    eig, convert = cli._sorted_eigh, universality._counterpart

    def recorded_eig(m, deviation):
        solved.append((m, eig(m, deviation)))
        return solved[-1][1]

    def recorded_convert(rho, spec, measure):
        records.append(convert(rho, spec, measure))
        return records[-1]

    monkeypatch.setattr(cli, "_sorted_eigh", recorded_eig)
    monkeypatch.setattr(universality, "_counterpart", recorded_convert)
    for seed in VERDICT_SEEDS[:200]:
        assert cli._check_counterpart(seed, DEFAULT_TOL)
    assert len(solved) == 200 and len(records) == 400
    worst = max(float(np.abs(spec.values - hermitian_eigvals(out)).max()) for out, spec in solved)
    assert worst <= 1e-15
    for i, seed in enumerate(VERDICT_SEEDS[:200]):
        rho = random_density(seed)
        for j, measure in enumerate(universality.MEASURES):
            assert repr(records[2 * i + j]) == repr(counterpart_details(rho, measure))


# check: {read or solve: calls per seed}, an omitted one 0. The drawn point
# is read once through the chart (xstate._physical_coeffs), and an X matrix
# the check wrote (xstate._x_matrix) is neither read nor gated again: its
# Hermitian deviation is exactly 0.0, so the general solves take it as
# written. The conversion's output is read once (matrix_core._scan), and
# that read serves its X-form verdict and its entry gate. The conservation
# check's rotated point and the disentangle check's walk are read through
# the public chart routes.
SWEEP_READS = ("_scale_problem", "_entry_gate", "_physical_coeffs", "_x_entries")
SWEEP_COUNTS = {
    "measures": {"_physical_coeffs": 1, "eigh": 1, "svd": 1, "eigvalsh": 1},
    "classify": {"_physical_coeffs": 1, "eigvalsh": 2},
    "conservation": {"_scale_problem": 1, "_physical_coeffs": 3, "_x_entries": 1},
    "disentangle": {"_physical_coeffs": 3, "eigvalsh": 1},
    # rho's density check and one solve serve both conversions; each output
    # is read once, for its X form and its entry gate, and solved once
    "counterpart": {"_scale_problem": 3, "_entry_gate": 3, "eigh": 2, "svd": 2, "eigvalsh": 3},
}


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("check", [*cli.SWEEP_CHECKS, "all"])
def test_sweep_reads_and_solves_per_seed(monkeypatch, solver_calls, capsys, check, seed):
    calls = _count_reads(monkeypatch, SWEEP_READS)
    assert cli.main(["sweep", "--count", "1", "--seed", str(seed), check]) == 0
    counted = {name: n for name, n in (calls | solver_calls).items() if n}
    names = cli.SWEEP_CHECKS if check == "all" else (check,)
    want = {}
    for name in names:
        for key, n in SWEEP_COUNTS[name].items():
            want[key] = want.get(key, 0) + n
    assert counted == want


@pytest.mark.parametrize("count", [0, 1, 3])
@pytest.mark.parametrize("check", ["all", "classify"])
def test_sweep_derives_each_child_seed_once(monkeypatch, capsys, check, count):
    # one child seed per state, shared by every check the run makes
    derived = []

    def counted(seed, index):
        derived.append((seed, index))
        return child_seed(seed, index)

    monkeypatch.setattr(ensemble, "child_seed", counted)
    assert cli.main(["sweep", "--count", str(count), "--seed", "5", check]) == 0
    assert derived == [(5, i) for i in range(count)]
