"""Minimal set S_X: boundary scalars, member construction, diagram data."""

import numpy as np
import pytest

from xtangle import (
    DomainError,
    OutOfDiagramError,
    RankClass,
    boundary_scalars,
    classify_rank,
    concurrence_general,
    cp_boundary,
    diagram_csv,
    diagram_data,
    from_density,
    hermitian_eig,
    minset_state,
    numerical_rank,
    purity_general,
    scalar_q,
    scalar_r,
    scalar_u,
    scalar_v,
    scalar_w,
    theorem_params,
    to_density,
    trace_norm,
)

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
