"""Block rotations, disentangling walk, measure paths, X-counterpart."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtangle import (
    TargetOutOfRangeError,
    UnphysicalError,
    XParams,
    child_seed,
    coeffs,
    concurrence_along,
    concurrence_general,
    concurrence_x,
    conjugate,
    conjugate_x,
    counterpart_details,
    disentangle_params,
    evolve,
    from_density,
    hermitian_eig,
    hermitian_eigvals,
    is_separable,
    is_unitary,
    is_x_form,
    mems_from_spectrum,
    negativity_along,
    negativity_general,
    negativity_x,
    partial_transpose,
    random_density,
    random_unitary,
    random_xparams,
    solve_tau,
    to_density,
    verstraete_unitary,
    x_unitary,
)
from xtangle.matrix_core import SOLVER_TOL

from reference_states import BELL_PHI_PLUS, M40, MAX_MIXED, random_density_np

# directly constructed parameter sets whose active population difference
# is a bitwise zero (found by ulp search; see the angle values)
H_ZERO_PARAMS = XParams(1.0, np.pi / 2, 0.6972247958331288, 0.06, 0.0, 0.4, 0.0)
G_ZERO_PARAMS = XParams(1.2, 0.8, 0.24051847828324935, 0.001, 0.12, 0.0, 5.0)


def entangled_draw(i):
    return random_xparams(child_seed(90, i), "entangled")


def test_x_unitary_identity():
    np.testing.assert_allclose(x_unitary(0.0), np.eye(4), atol=0.0)


def test_x_unitary_outer_flip():
    v = x_unitary(np.pi / 2)
    np.testing.assert_allclose(
        v,
        [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [-1, 0, 0, 0]],
        atol=1e-15)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("slot", range(4))
def test_x_unitary_rejects_a_non_finite_angle(slot, value):
    # x_unitary(nan) returned a NaN matrix
    angles = [0.1, 0.2, 0.3, 0.4]
    angles[slot] = value
    with pytest.raises(ValueError, match="^non-finite entry$"):
        x_unitary(*angles)


def test_x_unitary_unitarity():
    rng = np.random.default_rng(41)
    for _ in range(50):
        b = rng.uniform(0.0, 2.0 * np.pi, 4)
        assert is_unitary(x_unitary(*b))


def test_x_unitary_preserves_x_form():
    rng = np.random.default_rng(42)
    for i in range(50):
        rho = to_density(random_xparams(9000 + i))
        b = rng.uniform(0.0, 2.0 * np.pi, 4)
        assert is_x_form(conjugate(rho, x_unitary(*b)), tol=1e-12)


# sha256 of test_x_unitary_frozen's matrices and test_walk_frozen's outputs
X_UNITARY_SHA256 = "4a3273f32a994f5db73152494b9cc80ea6a3c22b67a02108ab6d1a7f60a79ca8"
WALK_SHA256 = "9713d6c2c58597b0bb7bb114ea350a8d1c9491d0b5a9ac94cc89dc2e78a5b0b8"


def test_x_unitary_frozen():
    # x_unitary's bytes: seeded quadruples with nonzero phases, then the
    # conversion's rotation x_unitary(0, 0, angle, 0) at edge angles and
    # at angles spread over the scales 10^-k
    rng = np.random.default_rng(12)
    h = hashlib.sha256()
    for b in rng.uniform(-np.pi, np.pi, (500, 4)).tolist():
        h.update(x_unitary(*b).tobytes())
    angles = [0.0, -0.0, 5e-324, 1e-300, np.pi / 4, np.pi / 2, -np.pi / 2]
    angles += rng.uniform(-np.pi, np.pi, 500).tolist()
    angles += (rng.uniform(0.0, 1.0, 200) * 10.0 ** -rng.integers(0, 300, 200)).tolist()
    for angle in angles:
        h.update(x_unitary(0.0, 0.0, angle, 0.0).tobytes())
    assert h.hexdigest() == X_UNITARY_SHA256


def test_walk_frozen():
    # the walk's outputs bit for bit on 64 entangled draws: conjugate_x at
    # seeded angles, the solution, evolve at tau = 1/2 and solve_tau at half
    # the starting value of each measure
    rng = np.random.default_rng(13)
    h = hashlib.sha256()
    for i in range(64):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        h.update(repr((conjugate_x(p, *rng.uniform(0.0, 2.0 * np.pi, 4).tolist()),
                       sol, evolve(p, sol, 0.5))).encode())
        for measure, along in (("concurrence", concurrence_along),
                               ("negativity", negativity_along)):
            h.update(repr(solve_tau(p, sol, 0.5 * along(p, sol, 0.0), measure)).encode())
    assert h.hexdigest() == WALK_SHA256


@pytest.mark.parametrize("angles", [(np.inf,), (0.1, np.nan), (0.1, 0.0, -np.inf)],
                         ids=["b1_inf", "b2_nan", "b3_minus_inf"])
def test_conjugate_x_rejects_a_non_finite_angle(angles):
    with pytest.raises(ValueError, match="^non-finite entry$"):
        conjugate_x(entangled_draw(0), *angles)


def test_conjugate_x_identity():
    p = entangled_draw(1)
    q = conjugate_x(p, 0.0, 0.0, 0.0, 0.0)
    assert q.x == pytest.approx(p.x, abs=1e-15)
    assert q.y == pytest.approx(p.y, abs=1e-15)
    np.testing.assert_allclose(to_density(q), to_density(p), atol=1e-13)


def test_conjugate_x_matches_matrix_oracle():
    rng = np.random.default_rng(43)
    for i in range(100):
        p = random_xparams(9100 + i)
        b = rng.uniform(0.0, 2.0 * np.pi, 4)
        q = conjugate_x(p, *b)
        oracle = conjugate(to_density(p), x_unitary(*b))
        np.testing.assert_allclose(to_density(q), oracle, atol=1e-12)


def test_conjugate_x_conservation():
    rng = np.random.default_rng(44)
    for i in range(100):
        p = random_xparams(9200 + i)
        cf = coeffs(p)
        b = rng.uniform(0.0, 2.0 * np.pi, 4)
        q = conjugate_x(p, *b)
        cq = coeffs(q)
        assert cq.b_cal == pytest.approx(cf.b_cal, abs=1e-10)
        assert cq.c_cal == pytest.approx(cf.c_cal, abs=1e-10)
        assert cq.g_cal - q.y == pytest.approx(cf.g_cal - p.y, abs=1e-10)
        assert cq.h_cal - q.x == pytest.approx(cf.h_cal - p.x, abs=1e-10)


def test_disentangle_separable_input():
    p = random_xparams(9300, "separable")
    sol = disentangle_params(p)
    assert sol.branch == "already_separable"
    assert sol.b1 == 0.0 and sol.b3 == 0.0
    assert sol.s_tilde == 0 and sol.z_minus == 0.0


def test_disentangle_picks_the_entangled_leg_inside_the_slack():
    # h_cal >= g_cal, yet y exceeds h_cal by 4e-13, inside the positivity
    # slack: the inner coherence carries the entanglement, and an outer
    # rotation would leave the state entangled
    total, product = 0.999, 2.5e-7 - 5e-13
    root = math.sqrt(total * total - 4.0 * product)
    d2, d3 = 0.5 * (total + root), 0.5 * (total - root)
    rho = np.diag([5e-4, d2, d3, 5e-4]).astype(complex)
    rho[1, 2] = rho[2, 1] = math.sqrt(d2 * d3 + 9e-13)
    p = from_density(rho)
    cf = coeffs(p)
    assert cf.h_cal >= cf.g_cal and p.y > cf.h_cal
    assert negativity_general(to_density(p)) > 1e-10
    sol = disentangle_params(p)
    assert (sol.branch, sol.b1) == ("GgtH", 0.0)
    assert sol.z_minus < 1e-15
    end = evolve(p, sol, 1.0).params
    assert is_separable(end)
    assert negativity_general(to_density(end)) <= 1e-10


def test_unknown_branch_is_an_error():
    # read as all zeros, an unknown label would give measures 0.0 along the
    # walk and a solve_tau range error naming [0, 0.0]
    p = entangled_draw(0)
    sol = dataclasses.replace(disentangle_params(p), branch="bogus")
    for call in (lambda: concurrence_along(p, sol, 0.5), lambda: negativity_along(p, sol, 0.5),
                 lambda: solve_tau(p, sol, 0.1)):
        with pytest.raises(ValueError, match="unknown solution branch 'bogus'"):
            call()


def test_disentangle_reaches_separability():
    for i in range(120):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        assert sol.branch in ("HgtG", "GgtH", "h_zero", "g_zero")
        assert (sol.b1 == 0.0) != (sol.b3 == 0.0)  # exactly one active leg
        end = evolve(p, sol, 1.0)
        assert is_separable(end.params)
        assert end.concurrence <= 1e-10
        # PPT oracle on the full matrix
        ptmin = np.linalg.eigvalsh(partial_transpose(to_density(end.params))).min()
        assert ptmin >= -1e-10


def test_disentangle_moves_active_weight_to_floor():
    for i in range(60):
        p = entangled_draw(i)
        cf = coeffs(p)
        sol = disentangle_params(p)
        end = evolve(p, sol, 1.0).params
        if sol.branch in ("HgtG", "h_zero"):
            assert end.x == pytest.approx(cf.g_cal, abs=1e-10)
            assert end.y == pytest.approx(p.y, abs=1e-12)
        else:
            assert end.y == pytest.approx(cf.h_cal, abs=1e-10)
            assert end.x == pytest.approx(p.x, abs=1e-12)


def test_disentangle_bitwise_h_zero():
    cf = coeffs(H_ZERO_PARAMS)
    assert cf.h_low == 0.0
    sol = disentangle_params(H_ZERO_PARAMS)
    assert sol.branch == "h_zero"
    assert sol.s_tilde == 0
    # degenerate outer block: cos(2 b1) = +sqrt(G/x)
    assert np.cos(2.0 * sol.b1) == pytest.approx(
        np.sqrt(cf.g_cal / H_ZERO_PARAMS.x), abs=1e-12)
    assert is_separable(evolve(H_ZERO_PARAMS, sol, 1.0).params)


def test_disentangle_bitwise_g_zero():
    cf = coeffs(G_ZERO_PARAMS)
    assert cf.g_low == 0.0
    sol = disentangle_params(G_ZERO_PARAMS)
    assert sol.branch == "g_zero"
    assert sol.s_tilde == 0
    assert np.cos(2.0 * sol.b3) == pytest.approx(
        np.sqrt(cf.h_cal / G_ZERO_PARAMS.y), abs=1e-12)
    assert is_separable(evolve(G_ZERO_PARAMS, sol, 1.0).params)


def test_disentangle_mems_branch():
    mems = mems_from_spectrum((0.55, 0.25, 0.15, 0.05))
    sol = disentangle_params(from_density(mems))
    assert sol.branch == "GgtH"
    assert sol.b1 == 0.0 and sol.b3 != 0.0


def test_evolve_endpoints():
    p = entangled_draw(7)
    sol = disentangle_params(p)
    start = evolve(p, sol, 0.0)
    rho = to_density(p)
    assert start.concurrence == pytest.approx(concurrence_x(rho), abs=1e-12)
    np.testing.assert_allclose(to_density(start.params), rho, atol=1e-12)
    with pytest.raises(ValueError):
        evolve(p, sol, 1.5)
    with pytest.raises(ValueError):
        evolve(p, sol, -0.2)


def test_evolve_halfway_matrix_oracle():
    for i in range(40):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        pt = evolve(p, sol, 0.5)
        v = x_unitary(sol.b1 * 0.5, sol.b2, sol.b3 * 0.5, sol.b4)
        oracle = conjugate(to_density(p), v)
        np.testing.assert_allclose(to_density(pt.params), oracle, atol=1e-10)


def test_evolve_spectrum_invariant():
    p = entangled_draw(8)
    sol = disentangle_params(p)
    base = hermitian_eig(to_density(p)).values
    for tau in np.linspace(0.0, 1.0, 11):
        vals = hermitian_eig(to_density(evolve(p, sol, tau).params)).values
        np.testing.assert_allclose(vals, base, atol=1e-9)


def test_along_formulas_match_full_matrix():
    for i in range(30):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        for tau in np.linspace(0.0, 1.0, 101):
            rho = to_density(evolve(p, sol, tau).params)
            assert concurrence_along(p, sol, tau) == pytest.approx(
                concurrence_general(rho), abs=1e-10)
            assert negativity_along(p, sol, tau) == pytest.approx(
                negativity_general(rho), abs=1e-10)


def test_along_rejects_branch_mismatch():
    # draw 9 walks the inner leg and draw 0 the outer one, so each is
    # relabelled onto the other leg
    for i in (9, 0):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        wrong = "GgtH" if sol.branch in ("HgtG", "h_zero") else "HgtG"
        bad = type(sol)(b1=sol.b3, b2=sol.b2, b3=sol.b1, b4=sol.b4,
                        x_plus=sol.x_plus, x_minus=sol.x_minus,
                        z_minus=sol.z_minus, s_tilde=sol.s_tilde, branch=wrong)
        with pytest.raises(ValueError):
            concurrence_along(p, bad, 0.5)


@pytest.mark.parametrize("route", [
    lambda p, sol: concurrence_along(p, sol, 0.5),
    lambda p, sol: negativity_along(p, sol, 0.5),
    lambda p, sol: solve_tau(p, sol, 0.0),
], ids=["concurrence_along", "negativity_along", "solve_tau"])
def test_walk_readers_read_the_point_on_the_separable_label(route):
    # the label carries no angle to walk, yet the point is read as evolve reads it
    sol = disentangle_params(random_xparams(9300, "separable"))
    assert sol.branch == "already_separable"
    for p, error, match in (
        (XParams(np.nan, 0.8, 0.9, 0.0, 0.0), ValueError, "^non-finite entry$"),
        (XParams(0.7, 0.8, 0.9, 5.0, 0.0), UnphysicalError, "exceeds the positivity range$"),
    ):
        with pytest.raises(error, match=match) as walked:
            evolve(p, sol, 0.5)
        with pytest.raises(error, match=match) as read:
            route(p, sol)
        assert (type(read.value), str(read.value)) == (type(walked.value), str(walked.value))


def test_solve_tau_endpoints():
    p = entangled_draw(10)
    sol = disentangle_params(p)
    c0 = concurrence_along(p, sol, 0.0)
    assert solve_tau(p, sol, c0, "concurrence") == 0.0
    assert solve_tau(p, sol, 0.0, "concurrence") == 1.0
    n0 = negativity_along(p, sol, 0.0)
    assert solve_tau(p, sol, n0, "negativity") == 0.0
    assert solve_tau(p, sol, 0.0, "negativity") == 1.0
    with pytest.raises(TargetOutOfRangeError):
        solve_tau(p, sol, c0 + 0.1, "concurrence")
    with pytest.raises(TargetOutOfRangeError):
        solve_tau(p, sol, -0.1, "concurrence")
    with pytest.raises(ValueError):
        solve_tau(p, sol, 0.5 * c0, "fidelity")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 5.0, -1.0],
                         ids=["nan", "inf", "neg_inf", "above", "below"])
@pytest.mark.parametrize("call, error, names", [
    (evolve, ValueError, "tau"),
    (concurrence_along, ValueError, "tau"),
    (negativity_along, ValueError, "tau"),
    (solve_tau, TargetOutOfRangeError, "target"),
], ids=["evolve", "concurrence_along", "negativity_along", "solve_tau"])
def test_walk_rejects_a_value_outside_its_range(call, error, names, value):
    # each gate is not (lo <= value <= hi), which a NaN fails; before, the
    # *_along functions read a NaN tau as 0 and evaluated tau = 5 off the walk
    p = random_xparams(3, "entangled")
    with pytest.raises(error, match=names):
        call(p, disentangle_params(p), value)


def test_solve_tau_interior():
    for i in range(40):
        p = entangled_draw(i)
        sol = disentangle_params(p)
        for measure, fn in (("concurrence", concurrence_along),
                            ("negativity", negativity_along)):
            v0 = fn(p, sol, 0.0)
            for frac in (0.25, 0.5, 0.75):
                tau = solve_tau(p, sol, frac * v0, measure)
                assert 0.0 <= tau <= 1.0
                assert fn(p, sol, tau) == pytest.approx(frac * v0, abs=1e-10)


def test_verstraete_unitary_reference():
    # any pure state maps onto the inner Bell state
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    u = verstraete_unitary(pure)
    assert is_unitary(u)
    out = conjugate(pure, u)
    assert concurrence_general(out) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(conjugate(MAX_MIXED, verstraete_unitary(MAX_MIXED)),
                               MAX_MIXED, atol=1e-12)


def test_verstraete_unitary_hits_mems():
    rng = np.random.default_rng(45)
    for i in range(50):
        rho = random_density_np(rng)
        u = verstraete_unitary(rho)
        assert is_unitary(u)
        out = conjugate(rho, u)
        target = mems_from_spectrum(hermitian_eig(rho).values)
        np.testing.assert_allclose(out, target, atol=1e-9)


def _tau_zero_inputs():
    """States whose conversion stops at tau = 0: I/4 and low-purity
    mixtures, whose MEMS is separable (already_separable), and MEMS
    inputs, as they are and under a seeded local unitary, which keeps
    them at their own ceiling (g_zero). diag(0.5, 0.5, 0, 0) is a product
    state, so it walks to tau = 1; its spectrum's MEMS, of rank 2 with
    l1 = l2, is taken instead."""
    mems = [mems_from_spectrum(s) for s in ((0.5, 0.5, 0.0, 0.0), (0.55, 0.25, 0.15, 0.05),
                                            (0.7, 0.2, 0.1, 0.0))]
    rng = np.random.default_rng(29)
    rotated = []
    for m in mems[1:]:
        u1, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u2, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        rotated.append(conjugate(m, np.kron(u1, u2)))
    mixtures = [0.2 * random_density(child_seed(30, i)) + 0.8 * MAX_MIXED for i in range(3)]
    return [MAX_MIXED, *mems, *rotated, *mixtures]


@pytest.mark.parametrize("measure", ["concurrence", "negativity"])
def test_counterpart_at_tau_zero_is_the_mems_and_its_unitary(measure):
    # the conversion's writers at angle 0 are mems_from_spectrum and
    # verstraete_unitary, byte for byte
    branches = set()
    for rho in _tau_zero_inputs():
        res = counterpart_details(rho, measure)
        assert res.tau == 0.0
        branches.add(res.branch)
        assert res.state.tobytes() == mems_from_spectrum(res.spectrum).tobytes()
        assert res.unitary.tobytes() == verstraete_unitary(rho).tobytes()
    assert branches == {"already_separable", "g_zero"}


def test_mems_from_spectrum_reference():
    m = mems_from_spectrum((0.4, 0.3, 0.2, 0.1))
    np.testing.assert_allclose(np.diag(m).real, [0.1, 0.3, 0.3, 0.3], atol=1e-15)
    assert m[1, 2] == pytest.approx(0.1, abs=1e-15)
    # order-insensitive
    np.testing.assert_allclose(m, mems_from_spectrum((0.1, 0.3, 0.2, 0.4)), atol=0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
def test_mems_from_spectrum_rejects_non_finite(value):
    with pytest.raises(ValueError, match="^non-finite entry$"):
        mems_from_spectrum([value, 0.3, 0.3, 0.4])


@pytest.mark.parametrize("spectrum", [(0.5, 0.3, 0.2), (0.25,) * 5, [[0.5, 0.5], [0.0, 0.0]]],
                         ids=["three", "five", "2x2"])
def test_mems_from_spectrum_rejects_a_spectrum_not_of_four(spectrum):
    with pytest.raises(ValueError, match="^spectrum must hold exactly four values$"):
        mems_from_spectrum(spectrum)


def test_counterpart_rejects_an_unknown_measure():
    with pytest.raises(ValueError, match="^unknown measure 'bogus'$"):
        counterpart_details(M40, "bogus")


@pytest.mark.parametrize("rho", [MAX_MIXED, np.full((4, 4), np.nan),
                                 np.diag([1.5, -0.5, 0.0, 0.0]), "a"],
                         ids=["density", "nan", "negative", "str"])
def test_counterpart_checks_the_measure_name_before_the_matrix(solver_calls, rho):
    # the name was checked after the solve: one eigh for a density matrix,
    # and a bad matrix's reason in place of the name's
    with pytest.raises(ValueError, match="^unknown measure 'bogus'$"):
        counterpart_details(rho, "bogus")
    assert sum(solver_calls.values()) == 0, solver_calls


def test_counterpart_bell():
    res = counterpart_details(BELL_PHI_PLUS, "concurrence")
    assert res.tau == 0.0
    assert res.achieved == pytest.approx(1.0, abs=1e-12)
    assert is_x_form(res.state, tol=1e-10)


def test_counterpart_max_mixed():
    res = counterpart_details(MAX_MIXED, "negativity")
    np.testing.assert_allclose(res.state, MAX_MIXED, atol=1e-12)
    assert is_unitary(res.unitary)


def test_counterpart_m40():
    for measure, fn in (("concurrence", concurrence_general),
                        ("negativity", negativity_general)):
        res = counterpart_details(M40, measure)
        assert is_x_form(res.state, tol=1e-9)
        np.testing.assert_allclose(hermitian_eig(res.state).values,
                                   hermitian_eig(M40).values, atol=1e-9)
        assert res.achieved == pytest.approx(fn(M40), abs=1e-9)
        np.testing.assert_allclose(conjugate(M40, res.unitary), res.state,
                                   atol=1e-12)


def test_counterpart_separable_input():
    # spectrum whose MEMS is entangled: the walk must run to the end
    rho = np.diag([0.55, 0.25, 0.15, 0.05]).astype(complex)
    res = counterpart_details(rho, "concurrence")
    assert res.target == 0.0
    assert res.tau == pytest.approx(1.0, abs=1e-12)
    assert concurrence_general(res.state) <= 1e-10
    # spectrum whose MEMS is itself separable: nothing to undo
    quiet = counterpart_details(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex),
                                "concurrence")
    assert quiet.tau == 0.0
    assert quiet.branch == "already_separable"


def test_counterpart_random_smoke():
    # rank-deficient draws are where round-off eigenvalues reach the
    # spin-flip roots of the concurrence
    kinds = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
    for i in range(25):
        rho = random_density(child_seed(91, i), kinds[i % 4])
        for measure, fn in (("concurrence", concurrence_general),
                            ("negativity", negativity_general)):
            res = counterpart_details(rho, measure)
            assert is_x_form(res.state, tol=1e-9)
            np.testing.assert_allclose(hermitian_eig(res.state).values,
                                       hermitian_eig(rho).values, atol=1e-9)
            assert abs(res.achieved - fn(rho)) <= 1e-9
            assert res.clip <= 1e-9


# sha256 of test_counterpart_frozen's outputs, and of its walks alone:
# (tau, target, branch, clip), which the closed-form output left unmoved
COUNTERPART_SHA256 = "e3449cd0572849243a81c771621eab92551f39780b9b83d7f7e25eed9eb58401"
COUNTERPART_WALK_SHA256 = "cb127e65a2d5645f8cb87f8a419d4a1eebb3450dedbc68da530c872018342164"


def test_counterpart_frozen():
    # the conversion's outputs bit for bit: 64 seeded states over the kinds
    # of test_counterpart_random_smoke, both measures
    kinds = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
    h, walk = hashlib.sha256(), hashlib.sha256()
    for i in range(64):
        rho = random_density(child_seed(12, i), kinds[i % 4])
        for measure in ("concurrence", "negativity"):
            res = counterpart_details(rho, measure)
            h.update(res.state.tobytes() + res.unitary.tobytes())
            h.update(repr((res.tau, res.target, res.achieved)).encode())
            walk.update(repr((res.tau, res.target, res.branch, res.clip)).encode())
    assert h.hexdigest() == COUNTERPART_SHA256
    assert walk.hexdigest() == COUNTERPART_WALK_SHA256


def test_counterpart_near_separable_spectrum():
    # the MEMS of this spectrum has concurrence 1.8e-6 and a squared
    # coherence of 8.1e-13, inside the separability slack of the X chart
    d = np.array([1.0 / 3.0 + 9e-7, 1.0 / 3.0, 1.0 / 3.0 - 9e-7, 0.0])
    rho = np.diag(d / d.sum()).astype(complex)
    for measure, fn in (("concurrence", concurrence_general),
                        ("negativity", negativity_general)):
        res = counterpart_details(rho, measure)
        assert abs(fn(res.state) - fn(rho)) <= 1e-9
        assert res.target == 0.0 and res.tau == 1.0


def test_counterpart_measures_its_state_in_closed_form():
    # achieved and concurrence_x floor each block's eigenvalues at
    # EIG_FLOOR, as the general route floors a spectrum; unfloored, the
    # square root of diagonal round-off moved concurrence_x by up to 8e-9
    kinds = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
    inputs = [random_density(child_seed(93, i), kinds[i % 6]) for i in range(120)]
    inputs += [MAX_MIXED, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
               np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex), BELL_PHI_PLUS]
    for rho in inputs:
        for measure, fn in (("concurrence", concurrence_general),
                            ("negativity", negativity_general)):
            res = counterpart_details(rho, measure)
            assert abs(res.achieved - fn(res.state)) <= 1e-12
            assert abs(concurrence_x(res.state)
                       - concurrence_general(res.state)) <= 1e-12
            np.testing.assert_array_equal(res.spectrum, hermitian_eig(rho).values)


# the entries off the diagonal and the anti-diagonal
OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


def test_counterpart_output_is_closed_form():
    # the output is written from the solved spectrum, not computed as
    # W rho W^dagger: its off-X entries are exactly 0 and its measure is
    # the X route's bit for bit, while conjugation, unitarity and the
    # spectrum hold within round-off, also for an admitted input whose
    # lowest solved eigenvalue is negative
    kinds = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
    inputs = [random_density(child_seed(94, i), kinds[i % 6]) for i in range(60)]
    inputs += [MAX_MIXED, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
               np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex), BELL_PHI_PLUS]
    u = random_unitary(94)
    below = u @ np.diag([0.5, 0.3, 0.2 + 0.5 * SOLVER_TOL, -0.5 * SOLVER_TOL]) @ u.conj().T
    assert hermitian_eig(below).values[-1] < 0.0
    inputs.append(below)
    for rho in inputs:
        for measure, fn in (("concurrence", concurrence_x), ("negativity", negativity_x)):
            res = counterpart_details(rho, measure)
            w, state = res.unitary, res.state
            assert not state[OFF_X].any()
            assert res.achieved == fn(state)
            assert np.abs(w @ rho @ w.conj().T - state).max() <= 1e-12
            assert np.abs(w @ w.conj().T - np.eye(4)).max() <= 1e-12
            assert np.abs(hermitian_eigvals(state) - res.spectrum).max() <= 1e-12


def test_counterpart_rejects_non_finite():
    rho = MAX_MIXED.astype(complex)
    rho[2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        counterpart_details(rho, "concurrence")


def test_solve_tau_snaps_to_the_ceiling():
    p = entangled_draw(11)
    sol = disentangle_params(p)
    for measure, fn in (("concurrence", concurrence_along),
                        ("negativity", negativity_along)):
        v0 = fn(p, sol, 0.0)
        assert solve_tau(p, sol, v0 - 0.5e-12, measure) == 0.0
        assert solve_tau(p, sol, v0 - 2e-12, measure) > 0.0


def _reference_counterpart(rho, measure):
    """The X-chart route: MEMS parameters, general walk, solved tau."""
    u = verstraete_unitary(rho)
    pm = from_density(conjugate(rho, u))
    sol = disentangle_params(pm)
    if measure == "concurrence":
        target, ceiling = concurrence_general(rho), concurrence_along(pm, sol, 0.0)
    else:
        target, ceiling = negativity_general(rho), negativity_along(pm, sol, 0.0)
    tau = solve_tau(pm, sol, min(target, ceiling), measure)
    w = x_unitary(sol.b1 * tau, sol.b2, sol.b3 * tau, sol.b4) @ u
    return conjugate(rho, w), tau


SOLVER_CALLS = {"concurrence": {"eigh": 1, "svd": 1},
                "negativity": {"eigh": 1, "eigvalsh": 1}}


def test_counterpart_matches_chart_route(solver_calls):
    kinds = ("hilbert_schmidt", "rank_1", "rank_2", "rank_3", "pure_haar")
    inputs = [random_density(child_seed(92, i), kinds[i % 5]) for i in range(40)]
    inputs += [MAX_MIXED, np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
               np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex), BELL_PHI_PLUS]
    for rho in inputs:
        for measure, fn in (("concurrence", concurrence_general),
                            ("negativity", negativity_general)):
            solver_calls.clear()
            res = counterpart_details(rho, measure)
            assert solver_calls == SOLVER_CALLS[measure]
            state, tau = _reference_counterpart(rho, measure)
            np.testing.assert_allclose(res.state, state, rtol=0.0, atol=1e-10)
            assert abs(res.tau - tau) <= 1e-9
            assert abs(res.achieved - fn(state)) <= 1e-12
            assert res.branch in ("g_zero", "already_separable")


# exactly degenerate spectra: positions 0..3 take the levels named here,
# so equal indices are equal eigenvalues; a level may be 0 (rank-deficient)
DEGENERATE_PATTERNS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
                       (0, 0, 1, 2), (0, 1, 1, 2), (0, 1, 2, 2))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    pattern=st.sampled_from(DEGENERATE_PATTERNS),
    levels=st.lists(st.sampled_from((0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0)),
                    min_size=3, max_size=3),
    seed=st.integers(0, 2 ** 64 - 1),
)
def test_counterpart_invariants_on_degenerate_spectra(pattern, levels, seed):
    spectrum = np.array([levels[i] for i in pattern])
    if not spectrum.any():  # all levels in use are 0: take I/4
        spectrum = np.ones(4)
    spectrum /= spectrum.sum()
    u = random_unitary(seed)
    rho = u @ np.diag(spectrum) @ u.conj().T
    spec_in = hermitian_eig(rho).values
    for measure, fn in (("concurrence", concurrence_general),
                        ("negativity", negativity_general)):
        res = counterpart_details(rho, measure)
        w, state = res.unitary, res.state
        assert np.abs(hermitian_eig(state).values - spec_in).max() <= 1e-12
        assert abs(fn(state) - fn(rho)) <= 1e-12
        assert is_x_form(state, tol=1e-12)
        assert np.abs(w @ w.conj().T - np.eye(4)).max() <= 1e-12
        assert np.abs(w @ rho @ w.conj().T - state).max() <= 1e-12
