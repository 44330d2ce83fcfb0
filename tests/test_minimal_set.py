"""Minimal set S_X: boundary scalars, member construction, diagram data."""

import hashlib

import numpy as np
import pytest

from xtangle import (
    DomainError,
    OutOfDiagramError,
    RankClass,
    UnphysicalError,
    boundary_scalars,
    classify_rank,
    concurrence_general,
    cp_boundary,
    diagram_csv,
    diagram_data,
    from_density,
    hermitian_eig,
    minset_state,
    negativity_x,
    numerical_rank,
    purity_general,
    scalar_q,
    scalar_r,
    scalar_u,
    scalar_v,
    scalar_w,
    scalar_z,
    theorem_params,
    to_density,
    trace_norm,
)
from xtangle.matrix_core import DEFAULT_TOL, ROUNDOFF
from xtangle.xstate import _classify_arrays, _coeffs_of

from reference_states import (
    BELL_PHI_PLUS,
    M30A,
    M30A_SPECTRUM,
    M30B,
    M30B_SPECTRUM,
    M40,
    M40_SPECTRUM,
)

P_JUNCTION = 5.0 / 9.0


def test_scalar_values():
    assert scalar_u(1.0) == pytest.approx(1.0, abs=1e-15)
    assert scalar_u(P_JUNCTION) == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert scalar_v(P_JUNCTION) == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert scalar_v(1.0 / 3.0) == pytest.approx(0.0, abs=1e-7)
    assert scalar_w(1.0 / 3.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert scalar_q(0.7) == pytest.approx(0.6324555320336759, abs=1e-15)
    assert scalar_q(0.5) == pytest.approx(0.0, abs=1e-15)


def test_scalar_domains():
    with pytest.raises(DomainError):
        scalar_u(0.4)
    with pytest.raises(DomainError):
        scalar_v(0.3)
    with pytest.raises(DomainError):
        scalar_w(0.6, 0.9)  # c above v(p)
    with pytest.raises(DomainError):
        scalar_q(0.45)


@pytest.mark.parametrize("below", [1e-13, ROUNDOFF], ids=["1e-13", "ROUNDOFF"])
def test_scalars_accept_the_roundoff_below_their_edge(below):
    # each range test admits ROUNDOFF below the edge, where 2p - 2 edge
    # reaches -2 ROUNDOFF; the scalar returns its value at the edge
    third, half = 1.0 / 3.0 - below, 0.5 - below
    assert scalar_v(third) == 0.0
    assert scalar_w(third, 0.0) == 1.0 / 3.0
    assert scalar_u(half) == 0.5
    assert scalar_q(half) == 0.0
    assert scalar_r(half) == 0.0
    assert cp_boundary(third) == 0.0
    edge = boundary_scalars(half, 0.0)
    assert (edge.u, edge.q, edge.r) == (0.5, 0.0, 0.0)
    np.testing.assert_array_equal(minset_state(third, 0.0), minset_state(1.0 / 3.0, 0.0))


def test_members_accept_the_roundoff_above_their_ceiling():
    # minset_state admits a concurrence ROUNDOFF above cp_boundary; the
    # member there is the one at the ceiling
    for p in (0.5, 0.7):
        cmax = cp_boundary(p)
        np.testing.assert_allclose(minset_state(p, cmax + 0.9 * ROUNDOFF),
                                   minset_state(p, cmax), atol=ROUNDOFF)
    v = scalar_v(0.5)
    assert scalar_w(0.5, v + 0.9 * ROUNDOFF) == scalar_w(0.5, v) == 1.0 / 3.0


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: scalar_u(NAN),
    lambda: scalar_v(NAN),
    lambda: scalar_q(NAN),
    lambda: scalar_r(NAN),
    lambda: scalar_w(0.6, NAN),
    lambda: scalar_w(NAN, 0.3),
    lambda: scalar_z(0.6, NAN),
    lambda: boundary_scalars(NAN, 0.3),
    lambda: cp_boundary(NAN),
    lambda: minset_state(NAN, 0.3),
    lambda: theorem_params(0.6, NAN, "r2k3"),
    lambda: theorem_params(NAN, 0.3, "r1k1"),
    lambda: theorem_params(NAN, 0.3, "r1k2"),
    lambda: theorem_params(NAN, 0.3, "r2k3"),
    lambda: theorem_params(NAN, 0.3, "r3k1"),
    lambda: theorem_params(NAN, 0.3, "r3k2"),
], ids=["u", "v", "q", "r", "w_c", "w_p", "z_c", "boundary_scalars", "cp_boundary",
        "minset_p", "theorem_c", "r1k1_p", "r1k2_p", "r2k3_p", "r3k1_p", "r3k2_p"])
def test_nan_argument_raises_domain_error(call):
    # each range test is not (lo <= v <= hi), which a NaN fails
    with pytest.raises(DomainError):
        call()


def test_minset_state_nan_concurrence_is_out_of_diagram():
    with pytest.raises(OutOfDiagramError):
        minset_state(0.6, NAN)


def test_boundary_scalars_partial():
    s = boundary_scalars(0.4, 0.1)
    assert s.u is None  # u needs p >= 1/2
    assert s.v is not None
    assert s.w is not None
    t = boundary_scalars(0.8, 0.2)
    assert t.u is not None and t.q is not None and t.r is not None


def test_cp_boundary():
    assert cp_boundary(1.0) == pytest.approx(1.0, abs=1e-15)
    assert cp_boundary(1.0 / 3.0) == pytest.approx(0.0, abs=1e-7)
    assert cp_boundary(0.30) == 0.0
    lo = cp_boundary(P_JUNCTION - 1e-13)
    hi = cp_boundary(P_JUNCTION + 1e-13)
    assert lo == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert abs(hi - lo) <= 1e-12
    with pytest.raises(DomainError):
        cp_boundary(0.2)
    with pytest.raises(DomainError):
        cp_boundary(1.1)


def test_minset_state_bell():
    np.testing.assert_allclose(minset_state(1.0, 1.0), BELL_PHI_PLUS, atol=1e-15)


def test_minset_state_reference():
    np.testing.assert_allclose(minset_state(0.54, 0.4), M30A, atol=1e-12)


def test_minset_state_measures_grid():
    for p in np.linspace(1.0 / 3.0, 1.0, 12):
        cmax = cp_boundary(p)
        for c in np.linspace(0.0, cmax, 12):
            rho = minset_state(p, c)
            assert purity_general(rho) == pytest.approx(p, abs=1e-10)
            assert concurrence_general(rho) == pytest.approx(c, abs=1e-10)


def test_minset_state_ranks():
    assert numerical_rank(minset_state(1.0, 0.7)) == 1
    assert numerical_rank(minset_state(0.7, 0.5)) == 2
    assert numerical_rank(minset_state(0.45, 0.2)) == 3


def test_minset_state_rejects_outside():
    with pytest.raises(OutOfDiagramError):
        minset_state(0.6, 0.9)


def test_minset_injective_on_grid():
    seen = []
    for p in np.linspace(0.40, 1.0, 8):
        for c in np.linspace(0.0, cp_boundary(p), 8):
            seen.append(minset_state(p, c))
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert trace_norm(seen[i] - seen[j]) > 1e-12


def test_theorem_params_r1k1():
    p = theorem_params(1.0, 0.6, "r1k1")
    assert classify_rank(p) == RankClass(1, 1)
    rho = to_density(p)
    assert purity_general(rho) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_general(rho) == pytest.approx(0.6, abs=1e-12)
    # c = 0: pure product state
    rho0 = to_density(theorem_params(1.0, 0.0, "r1k1"))
    assert concurrence_general(rho0) == pytest.approx(0.0, abs=1e-12)
    assert numerical_rank(rho0) == 1


def test_theorem_params_r1k2():
    p = theorem_params(1.0, 0.6, "r1k2")
    assert classify_rank(p) == RankClass(1, 2)
    rho = to_density(p)
    assert purity_general(rho) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_general(rho) == pytest.approx(0.6, abs=1e-12)


def test_theorem_params_r2k3():
    p = theorem_params(0.7, 0.5, "r2k3")
    assert classify_rank(p) == RankClass(2, 3)
    rho = to_density(p)
    assert purity_general(rho) == pytest.approx(0.7, abs=1e-12)
    assert concurrence_general(rho) == pytest.approx(0.5, abs=1e-12)


def test_theorem_params_r3k1():
    p = theorem_params(0.54, 0.4, "r3k1")
    np.testing.assert_allclose(to_density(p), M30A, atol=1e-12)
    assert classify_rank(p).rank == 3


def test_theorem_params_r3k1_upper_cutoff():
    # above the junction the outer weight hits its ceiling at c = r(p)
    r = scalar_r(0.7)
    q = theorem_params(0.7, r - 1e-3, "r3k1")
    assert classify_rank(q).rank == 3
    with pytest.raises(DomainError):
        theorem_params(0.7, r, "r3k1")


def test_theorem_params_r3k2():
    p = theorem_params(0.54, 0.4, "r3k2")
    np.testing.assert_allclose(to_density(p), M30B, atol=1e-12)
    # both z-branches of the quadratic: 2p <= 1 + c^2 and 2p > 1 + c^2
    lo = theorem_params(0.5, 0.3, "r3k2")       # 2p = 1.0 <= 1.09
    hi = theorem_params(0.52, 0.1, "r3k2")      # 2p = 1.04 > 1.01
    for params, (pp, cc) in ((lo, (0.5, 0.3)), (hi, (0.52, 0.1))):
        rho = to_density(params)
        assert purity_general(rho) == pytest.approx(pp, abs=1e-10)
        assert concurrence_general(rho) == pytest.approx(cc, abs=1e-10)
        assert classify_rank(params).rank == 3


def test_theorem_params_unknown_variant():
    with pytest.raises(ValueError):
        theorem_params(0.7, 0.1, "r4k1")


def test_rank2_kind12_cmax():
    # q(p) is the rank-2 kind-1/2 concurrence ceiling; it reaches 1 at p = 1
    assert scalar_q(1.0) == pytest.approx(1.0, abs=1e-15)


def test_q_below_u():
    for p in np.linspace(0.5 + 1e-6, 1.0 - 1e-6, 200):
        assert scalar_q(p) < scalar_u(p)


def test_three_matrix_spectra_distinct():
    spectra = [
        hermitian_eig(m).values for m in (M40, M30A, M30B)
    ]
    np.testing.assert_allclose(spectra[0], M40_SPECTRUM, atol=1e-12)
    np.testing.assert_allclose(spectra[1], M30A_SPECTRUM, atol=1e-12)
    np.testing.assert_allclose(spectra[2], M30B_SPECTRUM, atol=1e-12)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(spectra[i] - spectra[j])) > 1e-3


def test_rank2_spectrum_determined_by_purity():
    # for spectra (a, 1-a, 0, 0) the purity determines a uniquely
    for a in np.linspace(0.5, 1.0, 50):
        p = a * a + (1.0 - a) ** 2
        assert scalar_u(p) == pytest.approx(a, abs=1e-10)


def test_diagram_data_cp():
    rows = diagram_data("cp", 5)
    assert len(rows) == 25
    for (p, c, neg, rank, kind, u, v, q, r) in rows:
        assert c <= cp_boundary(p) + 1e-12
        assert neg >= 0.0
        assert (rank, kind) in {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
                                (3, 1), (3, 2), (4, 1)}
    # boundary column matches cp_boundary: last c in each p-group
    assert rows[-1][1] == pytest.approx(cp_boundary(1.0), abs=1e-12)


def test_diagram_data_fig3_facts():
    rows = diagram_data("negativity_purity", 25)
    groups: dict = {}
    for (p, c, neg, rank, kind) in rows:
        groups.setdefault(p, []).append((c, neg))
    exceed = 0
    for p, cells in groups.items():
        cells.sort()
        negs = [n for _, n in cells]
        if p > P_JUNCTION + 1e-12:
            assert int(np.argmax(negs)) == len(negs) - 1
        elif max(negs) > negs[-1] + 1e-12:
            exceed += 1
    assert exceed > 0


def test_diagram_data_rejects():
    with pytest.raises(ValueError):
        diagram_data("volume", 5)
    with pytest.raises(ValueError):
        diagram_data("cp", 1)


@pytest.mark.parametrize("kind, digest", [
    ("cp", "a825812bdad08aed8df5f222a6ff17e07a3a46a20ec28e60394ebbfbb4eedff8"),
    ("negativity_purity", "9c09820131783290d6801eed3608722f23f903799f131c2e824fee7a919991ee"),
])
def test_diagram_csv_frozen(kind, digest):
    # the full diagrams at grid 40, byte for byte
    assert hashlib.sha256(diagram_csv(kind, 40).encode()).hexdigest() == digest


def test_diagram_csv_format():
    text = diagram_csv("cp", 3)
    lines = text.split("\n")
    assert lines[0] == "p,c,negativity,rank,kind,u,v,q,r"
    assert lines[-1] == ""  # trailing newline
    assert len(lines) == 1 + 9 + 1
    # u, v empty where undefined (p = 1/3 row)
    first = lines[1].split(",")
    assert first[5] == ""  # u undefined below 1/2
    text2 = diagram_csv("negativity_purity", 3)
    assert text2.split("\n")[0] == "p,c,negativity,rank,kind"
    # determinism
    assert diagram_csv("cp", 3) == text


def _scalar_route(grid_n):
    """(p, c, negativity, rank, kind) of every diagram cell, each member
    built as a matrix and measured through the public scalar routes."""
    cells = []
    for p in np.linspace(1.0 / 3.0, 1.0, grid_n):
        for c in np.linspace(0.0, cp_boundary(p), grid_n):
            state = minset_state(p, c)
            rk = classify_rank(from_density(state))
            cells.append((float(p), float(c), negativity_x(state), rk.rank, rk.kind))
    return cells


@pytest.mark.parametrize("grid_n", range(2, 61))
def test_diagram_data_matches_scalar_route(grid_n):
    want = _scalar_route(grid_n)
    for kind in ("cp", "negativity_purity"):
        rows = diagram_data(kind, grid_n)
        assert len(rows) == len(want)
        for row, (p, c, neg, rank, rkind) in zip(rows, want):
            assert (row[0].hex(), row[1].hex()) == (p.hex(), c.hex())
            assert (row[3], row[4]) == (rank, rkind)
            assert abs(row[2] - neg) <= 1e-15


def test_diagram_data_cells_are_python_numbers():
    for row in diagram_data("cp", 7):
        assert [type(v) for v in row[:5]] == [float, float, float, int, int]
        assert all(v is None or type(v) is float for v in row[5:])


# (d1, d2, d3, d4, x, y) for the eight classes, then pairs straddling a
# DEFAULT_TOL band edge, the inside member first
T = DEFAULT_TOL
IN, OUT = 1.0 - 1e-3, 1.0 + 1e-3
MEMBERS = [
    ((0.7, 0.0, 0.0, 0.3, 0.21, 0.0), (1, 1)),
    ((0.0, 0.6, 0.4, 0.0, 0.0, 0.24), (1, 2)),
    ((0.7, 0.0, 0.0, 0.3, 0.1, 0.0), (2, 1)),
    ((0.0, 0.6, 0.4, 0.0, 0.0, 0.1), (2, 2)),
    ((0.4, 0.2, 0.3, 0.1, 0.04, 0.06), (2, 3)),
    ((0.4, 0.2, 0.3, 0.1, 0.01, 0.06), (3, 1)),
    ((0.4, 0.2, 0.3, 0.1, 0.04, 0.01), (3, 2)),
    ((0.4, 0.2, 0.3, 0.1, 0.01, 0.01), (4, 1)),
    # x at the top of its range
    ((0.7, 0.0, 0.0, 0.3, 0.21 - T * IN, 0.0), (1, 1)),
    ((0.7, 0.0, 0.0, 0.3, 0.21 - T * OUT, 0.0), (2, 1)),
    ((0.4, 0.2, 0.3, 0.1, 0.04 - T * IN, 0.06), (2, 3)),
    ((0.4, 0.2, 0.3, 0.1, 0.04 - T * OUT, 0.06), (3, 1)),
    # y at the top of its range
    ((0.0, 0.6, 0.4, 0.0, 0.0, 0.24 - T * IN), (1, 2)),
    ((0.0, 0.6, 0.4, 0.0, 0.0, 0.24 - T * OUT), (2, 2)),
    ((0.4, 0.2, 0.3, 0.1, 0.04, 0.06 - T * IN), (2, 3)),
    ((0.4, 0.2, 0.3, 0.1, 0.04, 0.06 - T * OUT), (3, 2)),
    # b = d2 + d3 at zero
    ((0.7 - T * IN, 0.5 * T * IN, 0.5 * T * IN, 0.3, 0.1, 0.0), (2, 1)),
    ((0.7 - T * OUT, 0.5 * T * OUT, 0.5 * T * OUT, 0.3, 0.1, 0.0), (3, 1)),
    # c = 1 - b at zero
    ((0.5 * T * IN, 0.6, 0.4 - T * IN, 0.5 * T * IN, 0.0, 0.1), (2, 2)),
    ((0.5 * T * OUT, 0.6, 0.4 - T * OUT, 0.5 * T * OUT, 0.0, 0.1), (3, 2)),
]


def _x_state(d1, d2, d3, d4, x, y):
    m = np.diag([d1, d2, d3, d4]).astype(complex)
    m[0, 3] = m[3, 0] = np.sqrt(x)
    m[1, 2] = m[2, 1] = np.sqrt(y)
    return m


def test_classify_arrays_matches_classify_rank():
    # the diagram's array classification against the scalar route, one
    # member of each class and both sides of each band edge at once
    entries = np.array([m for m, _ in MEMBERS]).T
    ranks, kinds = _classify_arrays(_coeffs_of(*entries[:4]), entries[4], entries[5])
    for (member, want), rank, kind in zip(MEMBERS, ranks.tolist(), kinds.tolist()):
        got = classify_rank(from_density(_x_state(*member)))
        assert (got.rank, got.kind) == (rank, kind) == want, member


def test_classify_arrays_rejects_unphysical():
    # x above d1 d4 by more than ROUNDOFF in one member of three
    entries = np.array([m for m, _ in MEMBERS[:3]]).T
    entries[4, 1] += 1e-9
    with pytest.raises(UnphysicalError):
        _classify_arrays(_coeffs_of(*entries[:4]), entries[4], entries[5])
