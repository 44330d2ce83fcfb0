"""Minimal set S_X: boundary scalars, member construction, diagram data."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xtangle import minimal_set
from xtangle import (
    BoundaryScalars,
    DomainError,
    OutOfDiagramError,
    RankClass,
    UnphysicalError,
    XParams,
    boundary_scalars,
    child_seed,
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
    random_density,
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
from xtangle.matrix_core import DEFAULT_TOL, ROUNDOFF, SOLVER_TOL
from xtangle.xstate import _RANK_CLASSES, _classify_arrays, _coeffs_of

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
    # reaches -2 ROUNDOFF; the scalar returns its value at the edge. It
    # admits ROUNDOFF above 1 too, where r reads p as 1: 1 - 2p + q would
    # reach the square root at about 1 - p
    third, half, top = 1.0 / 3.0 - below, 0.5 - below, 1.0 + below
    assert scalar_v(third) == 0.0
    assert scalar_w(third, 0.0) == 1.0 / 3.0
    assert scalar_u(half) == 0.5
    assert scalar_q(half) == 0.0
    assert scalar_r(half) == 0.0
    assert scalar_r(top) == scalar_r(1.0) == 0.0
    assert cp_boundary(third) == 0.0
    edge = boundary_scalars(half, 0.0)
    assert (edge.u, edge.q, edge.r) == (0.5, 0.0, 0.0)
    assert boundary_scalars(top, 0.0).r == boundary_scalars(1.0, 0.0).r == 0.0
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


# grid 13 puts purities on 1/2 and 5/9, where the edge rule and the
# rank-2/rank-3 split meet
@pytest.mark.parametrize("kind, grid_n, digest", [
    ("cp", 13, "a31122b14dcd8dea63bf6d1603e1a34a3f8766b486cbbb2b4b43dbb415dae88d"),
    ("cp", 101, "e40152e1a9f392f050a738fd85340f2e4788bde4814709496d9567b287ce81bc"),
    ("negativity_purity", 13, "b3cf4a0dcc2008cec0b981187adbcab26cc14272af84f2e03035b5c1f6c7e9b8"),
    ("negativity_purity", 101, "55f57313bc64049afffc51c633bc0fd0dcb7c25613dd22f95d8d5e28e11d9002"),
])
def test_diagram_csv_frozen_at_the_junctions(kind, grid_n, digest):
    assert hashlib.sha256(diagram_csv(kind, grid_n).encode()).hexdigest() == digest


@pytest.mark.parametrize("kind, grid_n, digest", [
    ("cp", 2, "1fb57b987ea21b961e250769ec50630452f589d6d76f3bf9dac6ff1df2dcd116"),
    ("cp", 3, "475c269155f72acd10641fbbc0c7a00dcd05bd5c9b9d7ecc470249f363480cbe"),
    ("cp", 40, "c575796d6c5a02d5b239481b5cf10b063c02ddf545431646e40b351494238fa6"),
    ("negativity_purity", 2, "f3a115d7f5044ccf1d9737aabc49f5207e056f2d634ded107b862d048993dd64"),
    ("negativity_purity", 3, "52bb895c8d4ab4e14016aecb6f064ce377e2b5711f20a7a1830b660335b38580"),
    ("negativity_purity", 40, "32de81bd428db66e9f6b39b5f732a09d77e7f6c2f765da8763dc53492907ba24"),
    # purities on 1/2 and 5/9 at grid 13
    ("cp", 13, "f8d1644e08df3f5565e013e577d61f0150370c7e1c1f06804419775eda40df42"),
    ("cp", 101, "819f0f7c5699dad27ccb5ce990b2b9096cdf2f76b90826aad41fd7afa19173a5"),
    ("negativity_purity", 13, "d8bdd1078361907140fad1f758a58ed272115a174d1bae38d65994deb42d7b62"),
    ("negativity_purity", 101, "c2c74cd3f78b5675be4d43b6abd84c9a93acb693ca290bd61b9154ac1e223390"),
])
def test_diagram_data_frozen(kind, grid_n, digest):
    # every cell at full precision (repr), the cp kind's u, v, q, r included
    assert hashlib.sha256(repr(diagram_data(kind, grid_n)).encode()).hexdigest() == digest


@pytest.mark.parametrize("grid_n", [*range(2, 201), 256, 400, 1000])
def test_diagram_concurrences_are_linspace_rows(grid_n):
    # the pass lays out the grid in one product; each row must still be
    # the per-purity np.linspace, byte for byte
    ps, _, grid, _, _ = minimal_set._diagram_pass("negativity_purity", grid_n)
    for p, row in zip(ps, grid):
        assert row.tobytes() == np.linspace(0.0, cp_boundary(p), grid_n).tobytes()


@pytest.mark.parametrize("p, c, digest", [
    (1.0 / 3.0, 0.0, "54630e2b4274b0fbe7ded52e70ae42dd7b42de78bb1366b0225da6721ca87409"),
    (0.45, 0.2, "a82892ac1d67af3298ee86317c791d06203a76aaeaa9af803ded2e557edd2205"),
    (P_JUNCTION, 0.0, "4855db90fcbf9ab7402366658c9958ec02d44298b29b5e3b8f9b8d6008cc7e9e"),
    (P_JUNCTION, 2.0 / 3.0, "6fe31cab65467c6e878b099b9967528b5d1c534d6ab033fffa4f13e63fa59504"),
    (0.7, 0.3, "d1dba828ac64a4cf5a8ded6f52ff4e34c274a98c1ec2387dde23f91428bc739b"),
    (1.0, 0.0, "8034367eec76495180b08e634d0bf4236b83a30d9ce7be3fd843fe8860f4de41"),
    (1.0, 0.6, "839f67f8e8400ac167b90bddd3c420935b43f55b9f63a277b3972d6569e724f5"),
    (1.0, 1.0, "765c6024b5d7e983de2e17ee52973a5dd074746b1811b4a75464400a70e98228"),
])
def test_minset_state_frozen(p, c, digest):
    # one member of each rank, both sides of the junction 5/9 at its ceiling 2/3
    assert hashlib.sha256(minset_state(p, c).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("grid_n", [2.5, 20.0, "20", None, 1j, np.float64(20.0)],
                         ids=["2.5", "20.0", "str", "None", "1j", "float64"])
@pytest.mark.parametrize("route", [diagram_data, diagram_csv])
def test_diagram_grid_n_must_be_an_integer(route, grid_n):
    # 2.5 raised a TypeError from inside np.linspace, "20" one from the
    # comparison with 2
    with pytest.raises(ValueError) as err:
        route("cp", grid_n)
    assert str(err.value) == f"grid_n={grid_n!r} is not an integer"


@pytest.mark.parametrize("route", [diagram_data, diagram_csv])
def test_diagram_grid_n_reads_integers(route):
    assert route("cp", np.int64(20)) == route("cp", 20)
    for grid_n in (1, 0, -3, True, np.int64(1)):
        with pytest.raises(ValueError, match=r"^grid_n must be at least 2$"):
            route("cp", grid_n)


def _counting(fn, calls):
    def counted(*args):
        calls.append(fn.__name__)
        return fn(*args)
    return counted


@pytest.mark.parametrize("call, counted, want", [
    (lambda: diagram_csv("negativity_purity", 20), ("scalar_u", "scalar_v"), 19),
    (lambda: diagram_data("negativity_purity", 20), ("scalar_u", "scalar_v"), 19),
    # the cp kind's u and v columns take the ceiling where it is theirs (v
    # below 5/9, u from 5/9 on) and add 15 calls: v at the 13 purities from
    # 5/9 on and u at the two in [1/2, 5/9[
    (lambda: diagram_csv("cp", 20), ("scalar_u", "scalar_v"), 34),
    (lambda: minset_state(0.7, 0.3), ("scalar_u",), 1),
], ids=["csv_negativity_purity", "data_negativity_purity", "csv_cp", "minset_state"])
def test_each_ceiling_is_computed_once(monkeypatch, call, counted, want):
    # each purity's ceiling cp_boundary(p) lays out its concurrences and
    # builds its members; the CSV comes from the grid pass, not from
    # diagram_data's rows
    calls = []
    for name in counted:
        monkeypatch.setattr(minimal_set, name, _counting(getattr(minimal_set, name), calls))
    # diagram_csv builds no rows; the calls above name this module's
    # diagram_data, not minimal_set's
    monkeypatch.setattr(minimal_set, "diagram_data", None)
    call()
    assert len(calls) == want


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


def _naive_cell(v) -> str:
    if v is None:
        return ""
    return "%d" % v if type(v) is int else "%.12g" % v


def _naive_csv(kind, grid_n):
    """diagram_data's rows written one cell at a time: %.12g floats, %d
    ints, "" for None, joined by commas, LF line endings."""
    lines = ["p,c,negativity,rank,kind" + (",u,v,q,r" if kind == "cp" else "")]
    lines += [",".join(map(_naive_cell, row)) for row in diagram_data(kind, grid_n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", minimal_set.DIAGRAM_KINDS)
@pytest.mark.parametrize("grid_n", [*range(2, 61), 101])
def test_diagram_csv_writes_the_diagram_data_rows(kind, grid_n):
    # the CSV against the rows it writes, without the sha256 pins; line by
    # line, so that a failure reports its first line, not a diff of the texts
    got, want = diagram_csv(kind, grid_n).split("\n"), _naive_csv(kind, grid_n).split("\n")
    assert len(got) == len(want)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


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
    classes = _classify_arrays(_coeffs_of(*entries[:4]), entries[4], entries[5])
    for (member, want), i in zip(MEMBERS, classes.tolist()):
        got = classify_rank(from_density(_x_state(*member)))
        assert got == _RANK_CLASSES[i] and (got.rank, got.kind) == want, member


def test_classify_arrays_rejects_unphysical():
    # x above d1 d4 by more than ROUNDOFF in one member of three
    entries = np.array([m for m, _ in MEMBERS[:3]]).T
    entries[4, 1] += 1e-9
    with pytest.raises(UnphysicalError):
        _classify_arrays(_coeffs_of(*entries[:4]), entries[4], entries[5])



VARIANTS = ("r1k1", "r1k2", "r2k3", "r3k1", "r3k2")
# sha256 of test_scalars_frozen's outputs
SCALARS_SHA256 = "bf51f4d54fa414cf4091197e2f6dc291d501403b529c545ca2eb003a11a71440"


def _frozen_purities():
    """63 purities spread over [1/3, 1], then 1/3, 1/2, 5/9 and 1, each
    with the 50 floats either side of it."""
    out = []
    for p in np.linspace(1.0 / 3.0, 1.0, 63).tolist() + [1.0 / 3.0, 0.5, P_JUNCTION, 1.0]:
        below = above = p
        out.append(p)
        for _ in range(50):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
            out += [below, above]
    return out


def _where_defined(fn, *args):
    """fn(*args), or None where it raises DomainError."""
    try:
        return fn(*args)
    except DomainError:
        return None


def _frozen_outputs(p):
    """cp_boundary(p), then at the concurrences 0, half that ceiling and
    the ceiling: boundary_scalars, every theorem_params variant (None
    where undefined) and minset_state."""
    cmax = cp_boundary(p)
    out = [cmax]
    for c in (0.0, 0.5 * cmax, cmax):
        out.append(boundary_scalars(p, c))
        out += [_where_defined(theorem_params, p, c, variant) for variant in VARIANTS]
        out.append(minset_state(p, c))
    return out


def test_scalars_frozen():
    # the minimal set's outputs bit for bit: reprs, and a member's bytes
    h = hashlib.sha256()
    for p in _frozen_purities():
        for v in _frozen_outputs(p):
            h.update(v.tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    assert h.hexdigest() == SCALARS_SHA256


def test_scalars_are_python_floats():
    for p in _frozen_purities()[::7]:
        found = [_where_defined(fn, p) for fn in (scalar_u, scalar_v, scalar_q, scalar_r)]
        for v in _frozen_outputs(p):
            if isinstance(v, (BoundaryScalars, XParams)):
                found += dataclasses.astuple(v)
            elif not isinstance(v, np.ndarray):
                found.append(v)
        cmax = cp_boundary(p)
        found += [_where_defined(fn, p, c) for fn in (scalar_w, scalar_z) for c in (0.0, cmax)]
        assert all(v is None or type(v) is float for v in found), p


DENSITY_KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**16),
       kind=st.sampled_from(DENSITY_KINDS))
# purity below 1/3, which about 1 in 1,500 draws reaches
@example(seed=909, index=267, kind="hilbert_schmidt")
@example(seed=909, index=346, kind="rank_4")
def test_every_seeded_state_has_its_point_in_the_minimal_set(seed, index, kind):
    # the paper's last claim: the minimal set's members and the points of
    # the CP diagram of generic states correspond one to one
    rho = random_density(child_seed(seed, index), kind)
    p, c = purity_general(rho), concurrence_general(rho)
    assert c <= cp_boundary(p) + SOLVER_TOL
    if p < 1.0 / 3.0:
        assert c <= SOLVER_TOL
    else:
        member = minset_state(p, c)
        assert abs(purity_general(member) - p) <= SOLVER_TOL
        assert abs(concurrence_general(member) - c) <= SOLVER_TOL
