"""X-state chart: coefficients, construction, inversion, classification."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from xtangle import (
    RankClass,
    UnphysicalError,
    XCoeffs,
    XParams,
    char_poly,
    child_seed,
    classify_rank,
    coeffs,
    concurrence_along,
    conjugate_x,
    diagonal,
    disentangle_params,
    evolve,
    from_density,
    is_physical,
    is_separable,
    is_x_form,
    minset_state,
    negativity_along,
    numerical_rank,
    purity_x,
    random_xparams,
    solve_tau,
    to_density,
    validate_params,
)
from xtangle.matrix_core import DEFAULT_TOL
from xtangle.xstate import _RANK_CLASSES, _classify_arrays, _rank_class

from reference_states import BELL_PHI_PLUS, M30A, M40, MAX_MIXED, pure_outer


def test_coeffs_inner_bell_corner():
    # equal outer populations, empty inner block
    p = XParams(np.pi / 4, np.pi / 2, np.pi / 2, 0.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(diagonal(p), [0.5, 0.0, 0.0, 0.5], atol=1e-15)
    cf = coeffs(p)
    assert cf.h_cal == pytest.approx(0.25, abs=1e-15)
    assert cf.b_cal == pytest.approx(0.0, abs=1e-15)
    assert cf.g_cal == pytest.approx(0.0, abs=1e-15)


def test_coeffs_ground_state():
    p = XParams(0.0, 0.3, 0.7, 0.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(diagonal(p), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    cf = coeffs(p)
    assert cf.h_low == pytest.approx(1.0, abs=1e-15)
    assert cf.g_low == pytest.approx(0.0, abs=1e-15)


def test_coeffs_identities():
    rng = np.random.default_rng(21)
    for _ in range(300):
        th, ph, ps = rng.uniform(0.0, np.pi / 2, 3)
        p = XParams(th, ph, ps, 0.0, 0.0, 0.0, 0.0)
        cf = coeffs(p)
        d = diagonal(p)
        assert sum(d) == pytest.approx(1.0, abs=1e-12)
        assert cf.b_cal + cf.c_cal == pytest.approx(1.0, abs=1e-12)
        assert cf.g_low**2 + 4.0 * cf.g_cal == pytest.approx(cf.b_cal**2, abs=1e-12)
        assert cf.h_low**2 + 4.0 * cf.h_cal == pytest.approx(cf.c_cal**2, abs=1e-12)


def test_to_density_diagonal():
    p = XParams(0.2, 0.9, 1.1, 0.0, 0.0, 0.0, 0.0)
    rho = to_density(p)
    np.testing.assert_allclose(np.diag(np.diag(rho)), rho, atol=0.0)
    np.testing.assert_allclose(np.diag(rho).real, diagonal(p), atol=1e-15)


def test_to_density_pure_outer():
    c = 0.6
    p = XParams(0.5 * np.arcsin(c), np.pi / 2, np.pi / 2, c * c / 4.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(to_density(p), pure_outer(c), atol=1e-15)


def test_to_density_phases():
    p = XParams(0.7, 0.8, 0.9, 0.04, 0.01, 1.2, 4.1)
    rho = to_density(p)
    assert rho[0, 3] == pytest.approx(np.sqrt(0.04) * np.exp(1.2j), abs=1e-15)
    assert rho[1, 2] == pytest.approx(np.sqrt(0.01) * np.exp(4.1j), abs=1e-15)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("route", [to_density, lambda p: conjugate_x(p, 0.1)],
                         ids=["to_density", "conjugate_x"])
def test_to_density_rejects_excess_coherence(route):
    p = XParams(np.pi / 4, np.pi / 2, np.pi / 2, 0.26, 0.0, 0.0, 0.0)  # x > H = 1/4
    assert not is_physical(p)
    with pytest.raises(UnphysicalError):
        route(p)


def test_from_density_round_trip():
    rng = np.random.default_rng(22)
    for i in range(200):
        p = random_xparams(1000 + i)
        rho = to_density(p)
        back = to_density(from_density(rho))
        np.testing.assert_allclose(back, rho, atol=1e-12)
    # convention check: all population in |00> maps to theta = 0
    q = from_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    assert q.theta == pytest.approx(0.0, abs=1e-12)


def test_from_density_mems_inner_coherence():
    rho = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(rho, [0.1, 0.3, 0.3, 0.3])
    rho[1, 2] = rho[2, 1] = 0.1
    p = from_density(rho)
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert np.sqrt(p.y) == pytest.approx(0.1, abs=1e-12)


def test_from_density_rejects_off_x():
    with pytest.raises(Exception):
        from_density(M40)


@pytest.mark.parametrize("diag", [
    (1.5, -0.5, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5), (0.5, 0.6, -0.1, 0.0),
    (0.4, 0.3, 0.2, 5.0), (0.4, 0.3, 0.2, -7.0),
], ids=["entry_above_1", "trace_2", "entry_below_0", "d4_above_1", "d4_below_0"])
def test_from_density_rejects_a_diagonal_the_chart_cannot_hold(diag):
    # the first three came back as the chart of another matrix: |00>,
    # diag(.5, .5, 0, 0) twice; the chart's inverse never reads d4, so the
    # last two pin that from_density's diagonal read does
    with pytest.raises(UnphysicalError):
        from_density(np.diag(diag).astype(complex))


def test_from_density_reads_the_roundoff_outside_the_diagonal_range_as_the_edge():
    rho = np.diag([1.0 + 5e-13, 0.0, 0.0, -5e-13]).astype(complex)
    assert from_density(rho) == from_density(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


# params_from_entries, the chart's deleted second inverse, shared its
# diagonal read with from_density; the read now lives in from_density
# alone, and these two tests keep their names and pin it there.
@pytest.mark.parametrize("diag, message", [
    ((1.5, -0.5, 0.0, 0.0), "diagonal entry 1.5 outside [0, 1]"),
    ((0.5, 0.5, 0.5, 0.5), "trace 2.0 is not 1"),
    ((0.5, 0.6, -0.1, 0.0), "diagonal entry -0.1 outside [0, 1]"),
], ids=["entry_above_1", "trace_2", "entry_below_0"])
def test_params_from_entries_reads_its_diagonal_as_from_density_does(diag, message):
    # the read names the first entry, else the trace, that it rejects
    with pytest.raises(UnphysicalError) as got:
        from_density(np.diag(diag).astype(complex))
    assert str(got.value) == message


def test_params_from_entries_reads_the_roundoff_outside_the_diagonal_range_as_the_edge():
    # each basis population, with the round-off above 1 on it and below 0
    # on every other entry in turn, reads as that basis state
    for k, j in itertools.permutations(range(4), 2):
        d = np.zeros(4)
        d[k], d[j] = 1.0 + 5e-13, -5e-13
        edge = np.zeros(4)
        edge[k] = 1.0
        assert from_density(np.diag(d).astype(complex)) == from_density(np.diag(edge).astype(complex))


def test_char_poly_max_mixed():
    p = from_density(MAX_MIXED)
    cp = char_poly(p)
    assert cp.a1 == pytest.approx(1.0, abs=1e-15)
    assert cp.a2 == pytest.approx(3.0 / 8.0, abs=1e-14)
    assert cp.a3 == pytest.approx(1.0 / 16.0, abs=1e-14)
    assert cp.a4 == pytest.approx(1.0 / 256.0, abs=1e-14)


def test_char_poly_pure():
    p = from_density(BELL_PHI_PLUS)
    cp = char_poly(p)
    assert cp.a2 == pytest.approx(0.0, abs=1e-14)
    assert cp.a3 == pytest.approx(0.0, abs=1e-14)
    assert cp.a4 == pytest.approx(0.0, abs=1e-14)


def test_char_poly_matches_spectrum():
    for i in range(200):
        p = random_xparams(2000 + i)
        cp = char_poly(p)
        assert min(cp.a2, cp.a3, cp.a4) >= -1e-12
        lam = np.linalg.eigvalsh(to_density(p))
        roots = np.sort(np.roots([1.0, -cp.a1, cp.a2, -cp.a3, cp.a4]).real)
        np.testing.assert_allclose(roots, lam, atol=1e-9)


def test_classify_rank_pure_corners():
    c = 0.8
    outer = XParams(0.5 * np.arcsin(c), np.pi / 2, np.pi / 2, c * c / 4.0, 0.0, 0.0, 0.0)
    assert classify_rank(outer) == RankClass(1, 1)
    inner = XParams(np.pi / 2, 0.5 * np.arcsin(c), 0.0, 0.0, c * c / 4.0, 0.0, 0.0)
    assert classify_rank(inner) == RankClass(1, 2)


def test_classify_rank_double_saturation():
    p = XParams(0.7, 0.8, 0.9, 0.0, 0.0, 0.0, 0.0)
    cf = coeffs(p)
    sat = XParams(0.7, 0.8, 0.9, cf.h_cal, cf.g_cal, 0.0, 0.0)
    assert classify_rank(sat) == RankClass(2, 3)


def test_classify_rank_interior():
    p = XParams(0.7, 0.8, 0.9, 0.0, 0.0, 0.0, 0.0)
    cf = coeffs(p)
    assert classify_rank(XParams(0.7, 0.8, 0.9, 0.5 * cf.h_cal, 0.5 * cf.g_cal,
                                 0.0, 0.0)) == RankClass(4, 1)
    assert classify_rank(XParams(0.7, 0.8, 0.9, cf.h_cal, 0.5 * cf.g_cal,
                                 0.0, 0.0)) == RankClass(3, 2)
    assert classify_rank(XParams(0.7, 0.8, 0.9, 0.5 * cf.h_cal, cf.g_cal,
                                 0.0, 0.0)) == RankClass(3, 1)


RANK_KIND_TARGETS = (
    "rank_1_kind_1", "rank_1_kind_2", "rank_2_kind_1", "rank_2_kind_2",
    "rank_2_kind_3", "rank_3_kind_1", "rank_3_kind_2", "rank_4_kind_1",
)


def test_classify_rank_matches_numerical_rank():
    # verified rank/kind draws keep the chart tolerance and the eigenvalue
    # threshold commensurate (interior angle band bounds the amplification)
    for i in range(400):
        p = random_xparams(3000 + i, RANK_KIND_TARGETS[i % 8])
        rc = classify_rank(p)
        assert rc.rank == numerical_rank(to_density(p))


def test_rank_class_rejects_invalid_pairs():
    for rank, kind in [(1, 3), (3, 3), (4, 2), (4, 3)]:
        with pytest.raises(ValueError):
            RankClass(rank, kind)


def test_is_separable():
    # zero coherences always separable
    p = XParams(0.7, 0.8, 0.9, 0.0, 0.0, 0.0, 0.0)
    assert is_separable(p)
    # PPT cross-check on random draws
    from xtangle import partial_transpose
    agree = 0
    for i in range(500):
        q = random_xparams(4000 + i)
        ppt = np.linalg.eigvalsh(partial_transpose(to_density(q))).min() >= -1e-10
        agree += is_separable(q) == ppt
    assert agree == 500


def test_is_x_form():
    assert is_x_form(M30A)
    assert is_x_form(MAX_MIXED)
    assert not is_x_form(M40)


def test_numerical_rank_reference():
    assert numerical_rank(M40) == 3
    assert numerical_rank(BELL_PHI_PLUS) == 1
    assert numerical_rank(MAX_MIXED) == 4


@pytest.mark.parametrize("field", ["x", "y"])
@pytest.mark.parametrize("fn", [
    to_density, char_poly, lambda p: conjugate_x(p, 0.1), classify_rank,
    is_separable, is_physical,
], ids=["to_density", "char_poly", "conjugate_x", "classify_rank",
        "is_separable", "is_physical"])
def test_nan_coherence_weight_raises(fn, field):
    p = XParams(0.7, 0.8, 0.9, 0.0, 0.0)
    with pytest.raises(ValueError):
        fn(dataclasses.replace(p, **{field: float("nan")}))


CHART_ROUTES = [diagonal, coeffs, to_density, is_physical, char_poly, validate_params,
                lambda p: conjugate_x(p, 0.1)]
CHART_ROUTE_IDS = ["diagonal", "coeffs", "to_density", "is_physical", "char_poly",
                   "validate_params", "conjugate_x"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("field", ["theta", "phi", "psi", "mu", "nu"])
@pytest.mark.parametrize("fn", CHART_ROUTES, ids=CHART_ROUTE_IDS)
def test_chart_reader_rejects_a_non_finite_angle(fn, field, value):
    # a NaN angle gave NaN entries and an infinite one a bare math domain
    # error; the range check named it "theta=nan outside [0, pi/2]"
    p = dataclasses.replace(XParams(0.7, 0.8, 0.9, 0.0, 0.0), **{field: value})
    with pytest.raises(ValueError, match="^non-finite entry$"):
        fn(p)


@pytest.mark.parametrize("field, value, message", [
    ("theta", 2.0, "theta=2.0 outside [0, pi/2]"),
    ("psi", -0.5, "psi=-0.5 outside [0, pi/2]"),
    ("mu", 7.0, "mu=7.0 outside [0, 2 pi]"),
    ("nu", -1.0, "nu=-1.0 outside [0, 2 pi]"),
], ids=["theta", "psi", "mu", "nu"])
@pytest.mark.parametrize("fn", CHART_ROUTES, ids=CHART_ROUTE_IDS)
def test_chart_route_rejects_an_angle_out_of_range(fn, field, value, message):
    # diagonal and coeffs accepted theta = 2.0
    p = dataclasses.replace(XParams(0.7, 0.8, 0.9, 0.0, 0.0), **{field: value})
    with pytest.raises(ValueError) as err:
        fn(p)
    assert str(err.value) == message


# every public route that takes an XParams; the walk's routes take the
# solution of a valid point
WALK = random_xparams(child_seed(33, 0), "entangled")
SOL = disentangle_params(WALK)
XPARAMS_ROUTES = dict(zip(CHART_ROUTE_IDS, CHART_ROUTES)) | {
    "purity_x": purity_x,
    "is_separable": is_separable,
    "classify_rank": classify_rank,
    "evolve": lambda p: evolve(p, SOL, 0.5),
    "disentangle_params": disentangle_params,
    "solve_tau": lambda p: solve_tau(p, SOL, 0.0),
    "concurrence_along": lambda p: concurrence_along(p, SOL, 0.5),
    "negativity_along": lambda p: negativity_along(p, SOL, 0.5),
}
# points outside the positivity range x <= h_cal (h_cal = d1 d4 ~ 6e-4 here)
UNPHYSICAL = {
    "inf_weight": XParams(0.3, 0.3, 0.3, math.inf, 0.0),
    "huge_int_weight": XParams(0.3, 0.3, 0.3, 10**400, 0.0),
    "above_ceiling": XParams(0.3, 0.3, 0.3, 0.5, 0.0),
}


@pytest.mark.parametrize("point", sorted(UNPHYSICAL))
@pytest.mark.parametrize("route", sorted(XPARAMS_ROUTES))
def test_every_chart_route_rejects_a_point_outside_positivity(route, point):
    # validate_params, diagonal and coeffs accepted all three points, and
    # char_poly gave a4=nan for the infinite weight and raised a bare
    # OverflowError for the huge int
    fn, p = XPARAMS_ROUTES[route], UNPHYSICAL[point]
    if fn is is_physical:
        assert fn(p) is False
    else:
        with pytest.raises(UnphysicalError):
            fn(p)


# points that are not an XParams, on which each route raised a bare AttributeError
NOT_POINTS = {"int": 1, "none": None, "tuple": (0.1,) * 7}


@pytest.mark.parametrize("point", sorted(NOT_POINTS))
@pytest.mark.parametrize("route", sorted(XPARAMS_ROUTES))
def test_every_chart_route_rejects_a_point_that_is_not_an_xparams(route, point):
    p = NOT_POINTS[point]
    with pytest.raises(ValueError) as err:
        XPARAMS_ROUTES[route](p)
    assert type(err.value) is ValueError
    assert str(err.value) == f"point {p!r} is not an XParams"


# the rank rule on every combination of its six tests: bit i of the index
# is test i of (x at h_cal, y at g_cal, x at 0, y at 0, b_cal at 0,
# c_cal at 0); frozen from the rule's table form
RANK_RULE_TABLE = (
    (4, 1), (3, 2), (3, 1), (2, 3), (4, 1), (3, 2), (3, 1), (2, 3),
    (4, 1), (3, 2), (3, 1), (2, 3), (4, 1), (3, 2), (3, 1), (2, 3),
    (4, 1), (3, 2), (3, 1), (2, 3), (4, 1), (3, 2), (3, 1), (2, 3),
    (2, 1), (1, 1), (2, 1), (1, 1), (2, 1), (1, 1), (2, 1), (1, 1),
    (4, 1), (3, 2), (3, 1), (2, 3), (2, 2), (2, 2), (1, 2), (1, 2),
    (4, 1), (3, 2), (3, 1), (2, 3), (2, 2), (2, 2), (1, 2), (1, 2),
    (4, 1), (3, 2), (3, 1), (2, 3), (2, 2), (2, 2), (1, 2), (1, 2),
    (2, 1), (1, 1), (2, 1), (1, 1), (2, 1), (1, 1), (1, 2), (1, 1),
)
# (weight, its top) by (at top, at 0); every pair is within positivity
WEIGHT_TESTS = {(0, 0): (0.2, 0.5), (1, 0): (0.5, 0.5), (0, 1): (0.0, 0.5), (1, 1): (0.0, 0.0)}


def _crafted(index):
    """(XCoeffs, x, y) setting the six tests as the bits of index."""
    bit = [index >> i & 1 for i in range(6)]
    x, h = WEIGHT_TESTS[bit[0], bit[2]]
    y, g = WEIGHT_TESTS[bit[1], bit[3]]
    b, c = (0.0 if bit[4] else 0.5), (0.0 if bit[5] else 0.5)
    return XCoeffs(b_cal=b, c_cal=c, g_cal=g, h_cal=h, g_low=0.0, h_low=0.0), x, y


def test_rank_rule_on_every_test_combination():
    crafted = [_crafted(i) for i in range(64)]
    for (co, x, y), want in zip(crafted, RANK_RULE_TABLE):
        rc = _rank_class(co, x, y, DEFAULT_TOL)
        assert (rc.rank, rc.kind) == want, (co, x, y)
    cos, xs, ys = zip(*crafted)
    stacked = XCoeffs(*map(np.array, zip(*map(dataclasses.astuple, cos))))
    classes = _classify_arrays(stacked, np.array(xs), np.array(ys))
    assert [(_RANK_CLASSES[i].rank, _RANK_CLASSES[i].kind)
            for i in classes.tolist()] == list(RANK_RULE_TABLE)


# an array of one value compared as that value and was taken as the tol,
# and a complex numpy value compared by its real part
@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf, -np.inf, "1e-9", 1j,
                                 np.array([1e-9]), np.complex128(1e-9 + 1j)], ids=repr)
@pytest.mark.parametrize("route", [
    lambda tol: classify_rank(from_density(minset_state(1.0, 0.6)), tol=tol),
    lambda tol: is_x_form(MAX_MIXED, tol=tol),
    lambda tol: from_density(MAX_MIXED, tol=tol),
], ids=["classify_rank", "is_x_form", "from_density"])
def test_tol_keywords_are_read(route, tol):
    # classify_rank gave RankClass(4, 1) at tol nan or -1 (rank 1 at the
    # default), is_x_form False, from_density "... exceeds nan"
    message = f"tol={tol!r} is not a number in (0, inf)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        route(tol)
