"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines. Every expected value is either a frozen reference or an
independently computed oracle; nothing is read back from the functions
under test.
"""

import time

import numpy as np
import pytest

import xtangle as xt

from reference_states import (
    M30A,
    M30B,
    M40,
)

MASTER = 20260819

SPIN_FLIP = np.diag([-1.0, 1.0, 1.0, -1.0])[::-1].copy()

RANK_KIND_TARGETS = (
    "rank_1_kind_1", "rank_1_kind_2", "rank_2_kind_1", "rank_2_kind_2",
    "rank_2_kind_3", "rank_3_kind_1", "rank_3_kind_2", "rank_4_kind_1",
)


def batched_partial_transpose(stack):
    n = stack.shape[0]
    return stack.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)


def batched_concurrence(stack):
    """Wootters concurrence for a (n, 4, 4) stack, independent route."""
    vals, vecs = np.linalg.eigh(stack)
    vals = np.clip(vals, 0.0, None)
    roots = np.einsum("nik,nk,njk->nij", vecs, np.sqrt(vals), vecs.conj())
    k = roots @ SPIN_FLIP @ roots.conj()
    s = np.linalg.svd(k, compute_uv=False)
    return np.maximum(0.0, s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3])


def batched_negativity(stack):
    vals = np.linalg.eigvalsh(batched_partial_transpose(stack))
    return np.maximum(0.0, -np.sum(np.minimum(vals, 0.0), axis=1))


def test_criterion_1_paper_regression():
    assert xt.purity_general(M40) == pytest.approx(0.54, abs=1e-12)
    assert xt.concurrence_general(M40) == pytest.approx(0.4, abs=1e-12)
    np.testing.assert_allclose(xt.minset_state(0.54, 0.4), M30A, atol=1e-12)
    spectra = [xt.hermitian_eig(m).values for m in (M40, M30A, M30B)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(spectra[i] - spectra[j])) > 1e-3
    print("PASS criterion 1: reference matrices reproduce purity 0.54, "
          "concurrence 0.4, the 1/30 counterpart, and distinct spectra")


def test_criterion_2_formula_equivalence():
    t0 = time.monotonic()
    worst_c = worst_n = 0.0
    for i in range(10_000):
        rho = xt.to_density(xt.random_xparams(xt.child_seed(MASTER, i)))
        worst_c = max(worst_c, abs(xt.concurrence_x(rho)
                                   - xt.concurrence_general(rho)))
        worst_n = max(worst_n, abs(xt.negativity_x(rho)
                                   - xt.negativity_general(rho)))
    assert worst_c <= 1e-10
    assert worst_n <= 1e-10
    assert time.monotonic() - t0 < 60.0
    print(f"PASS criterion 2: 10^4 X-states, max |C_x - C_gen| = {worst_c:.2e}, "
          f"max |N_x - N_gen| = {worst_n:.2e} (both <= 1e-10)")


def test_criterion_3_classification_oracles():
    t0 = time.monotonic()
    hits = 0
    n = 10_000
    for i in range(n):
        p = xt.random_xparams(xt.child_seed(MASTER + 1, i),
                              RANK_KIND_TARGETS[i % 8])
        rho = xt.to_density(p)
        rank_ok = xt.classify_rank(p).rank == xt.numerical_rank(rho)
        ppt = np.linalg.eigvalsh(xt.partial_transpose(rho)).min() >= -1e-10
        sep_ok = xt.is_separable(p) == ppt
        hits += rank_ok and sep_ok
    assert hits == n
    assert time.monotonic() - t0 < 60.0
    print(f"PASS criterion 3: {n} draws across all rank/kind boundaries, "
          "classify_rank and is_separable agree with the numerical oracles "
          "in 100% of cases")


def test_criterion_4_minimal_set_sweep():
    t0 = time.monotonic()
    cells = bad = 0
    for p in np.linspace(1.0 / 3.0, 1.0, 40):
        cmax = xt.cp_boundary(p)
        expected_rank = 1 if p >= 1.0 else (2 if p >= 5.0 / 9.0 else 3)
        for c in np.linspace(0.0, cmax, 40):
            rho = xt.minset_state(p, c)
            ok, _ = xt.is_density_matrix(rho)
            good = (ok
                    and abs(xt.purity_general(rho) - p) <= 1e-10
                    and abs(xt.concurrence_general(rho) - c) <= 1e-10
                    and xt.numerical_rank(rho) == expected_rank)
            cells += 1
            bad += not good
    assert cells == 1600 and bad == 0
    assert time.monotonic() - t0 < 60.0
    print("PASS criterion 4: 40x40 admissible grid, purity and concurrence "
          "within 1e-10 and the family's stated rank in 100% of cells")


def test_criterion_5_universality_pipeline():
    t0 = time.monotonic()
    for i in range(1000):
        rho = xt.random_density(xt.child_seed(MASTER + 2, i))
        base = xt.hermitian_eig(rho).values
        for measure, fn in (("concurrence", xt.concurrence_general),
                            ("negativity", xt.negativity_general)):
            state = xt.counterpart_details(rho, measure).state
            assert xt.is_x_form(state, tol=1e-9)
            assert np.max(np.abs(xt.hermitian_eig(state).values - base)) <= 1e-9
            assert abs(fn(state) - fn(rho)) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 5: 10^3 Hilbert-Schmidt states x both measures, "
          f"X-form counterparts with spectrum and measure within 1e-9 "
          f"({elapsed:.1f} s)")


def _forced_near_degenerate(rng, side):
    """Entangled XParams with |h| (side=outer) or |g| (side=inner) < 1e-8."""
    while True:
        if side == "outer":
            phi = rng.uniform(0.5, 0.5 * np.pi - 0.05)
            psi = rng.uniform(1.0, 0.5 * np.pi - 0.05)
            theta = np.arctan(1.0 / (np.sin(phi) * np.sin(psi)))
        else:
            theta = rng.uniform(1.2, 0.5 * np.pi - 0.05)
            psi = rng.uniform(0.1, 1.0)
            phi = np.arctan(1.0 / np.cos(psi))
        base = xt.XParams(theta, phi, psi, 0.0, 0.0,
                          rng.uniform(0.0, 2.0 * np.pi),
                          rng.uniform(0.0, 2.0 * np.pi))
        cf = xt.coeffs(base)
        frac = rng.uniform(0.2, 0.95)
        if side == "outer":
            if abs(cf.h_low) >= 1e-8 or cf.h_cal <= cf.g_cal:
                continue
            x = cf.g_cal + frac * (cf.h_cal - cf.g_cal)
            p = xt.XParams(theta, phi, psi, x, 0.0, base.mu, base.nu)
        else:
            if abs(cf.g_low) >= 1e-8 or cf.g_cal <= cf.h_cal:
                continue
            y = cf.h_cal + frac * (cf.g_cal - cf.h_cal)
            p = xt.XParams(theta, phi, psi, 0.0, y, base.mu, base.nu)
        if xt.is_physical(p) and not xt.is_separable(p):
            return p


def test_criterion_6_disentangling_walk():
    t0 = time.monotonic()
    rng = xt.SplitMix64(xt.child_seed(MASTER + 3, 0))
    draws = []
    for i in range(4000):
        draws.append(xt.random_xparams(xt.child_seed(MASTER + 3, 1 + i),
                                       "entangled"))
    for _ in range(3000):
        draws.append(_forced_near_degenerate(rng, "outer"))
    for _ in range(3000):
        draws.append(_forced_near_degenerate(rng, "inner"))

    seen = set()
    for p in draws:
        cf = xt.coeffs(p)
        sol = xt.disentangle_params(p)
        seen.add(sol.branch)
        end = xt.evolve(p, sol, 1.0).params
        assert xt.is_separable(end)
        rho = xt.to_density(end)
        # The endpoint sits ON the separability boundary. A chart-level
        # floor error d <= 1e-10 shows up in the PT spectrum as
        # (T - sqrt(T^2 + 4d))/2 for PT-block trace T, so the eigenvalue
        # floor must scale with the smaller block trace; a fixed cutoff
        # is unattainable for near-pure states.
        ce = xt.coeffs(end)
        tmin = min(ce.b_cal, ce.c_cal)
        floor = 0.5 * (tmin - np.sqrt(tmin * tmin + 4e-10)) - 1e-12
        assert np.linalg.eigvalsh(xt.partial_transpose(rho)).min() >= floor
        for tau in (0.25, 0.5, 0.75, 1.0):
            q = xt.conjugate_x(p, sol.b1 * tau, sol.b2, sol.b3 * tau, sol.b4)
            cq = xt.coeffs(q)
            assert abs(cq.b_cal - cf.b_cal) <= 1e-10
            assert abs(cq.c_cal - cf.c_cal) <= 1e-10
            assert abs((cq.g_cal - q.y) - (cf.g_cal - p.y)) <= 1e-10
            assert abs((cq.h_cal - q.x) - (cf.h_cal - p.x)) <= 1e-10
    assert {"HgtG", "GgtH"} <= seen
    assert time.monotonic() - t0 < 60.0
    print("PASS criterion 6: 10^4 entangled parameter sets (both branches, "
          "forced near-degenerate blocks) disentangle to separable/PPT states "
          "with conservation laws within 1e-10 along the walk")


def test_criterion_7_mems_extremality():
    t0 = time.monotonic()
    n_spec, n_uni = 1000, 100
    rng = xt.SplitMix64(xt.child_seed(MASTER + 4, 0))
    spectra = np.empty((n_spec, 4))
    for i in range(n_spec):
        lam = np.array([-np.log(1.0 - rng.uniform()) for _ in range(4)])
        lam = np.sort(lam / lam.sum())[::-1]
        spectra[i] = lam
    unitaries = np.stack([xt.random_unitary(xt.child_seed(MASTER + 4, 1 + i))
                          for i in range(n_uni)])

    l1, l2, l3, l4 = spectra.T
    c_mems = np.maximum(0.0, l1 - l3 - 2.0 * np.sqrt(l2 * l4))
    n_mems = np.maximum(
        0.0,
        np.sqrt((0.5 * (l2 - l4)) ** 2 + (0.5 * (l1 - l3)) ** 2)
        - 0.5 * (l2 + l4))

    # ceilings cross-checked against the package on a sample
    for i in range(0, n_spec, 97):
        mems = xt.mems_from_spectrum(spectra[i])
        assert xt.concurrence_x(mems) == pytest.approx(c_mems[i], abs=1e-12)
        assert xt.negativity_x(mems) == pytest.approx(n_mems[i], abs=1e-12)

    worst = -1.0
    checked = 0
    for j in range(n_uni):
        u = unitaries[j]
        stack = np.einsum("ij,nj,kj->nik", u, spectra, u.conj())
        conc = batched_concurrence(stack)
        neg = batched_negativity(stack)
        worst = max(worst, np.max(conc - c_mems), np.max(neg - n_mems))
        assert np.all(conc <= c_mems + 1e-9)
        assert np.all(neg <= n_mems + 1e-9)
        checked += stack.shape[0]
        if j == 0:
            # batched oracle agrees with the package routines
            for i in range(0, n_spec, 211):
                assert conc[i] == pytest.approx(
                    xt.concurrence_general(stack[i]), abs=1e-10)
                assert neg[i] == pytest.approx(
                    xt.negativity_general(stack[i]), abs=1e-10)
    assert checked == n_spec * n_uni
    assert time.monotonic() - t0 < 60.0
    print(f"PASS criterion 7: 10^3 spectra x 10^2 unitaries, no conjugation "
          f"exceeds the MEMS ceiling (max excess {worst:.2e} <= 1e-9)")


def test_criterion_8_paths_and_solver():
    t0 = time.monotonic()
    taus = np.linspace(0.0, 1.0, 101)
    for i in range(100):
        p = xt.random_xparams(xt.child_seed(MASTER + 5, i), "entangled")
        sol = xt.disentangle_params(p)
        for tau in taus:
            rho = xt.to_density(xt.evolve(p, sol, tau).params)
            assert abs(xt.concurrence_along(p, sol, tau)
                       - xt.concurrence_general(rho)) <= 1e-10
            assert abs(xt.negativity_along(p, sol, tau)
                       - xt.negativity_general(rho)) <= 1e-10
        for measure, fn in (("concurrence", xt.concurrence_along),
                            ("negativity", xt.negativity_along)):
            v0 = fn(p, sol, 0.0)
            for k in range(1, 11):
                target = v0 * k / 11.0
                tau = xt.solve_tau(p, sol, target, measure)
                assert abs(fn(p, sol, tau) - target) <= 1e-10
    assert time.monotonic() - t0 < 60.0
    print("PASS criterion 8: closed-form paths match full-matrix oracles on "
          "101-point grids and solve_tau hits 10 interior targets per state "
          "within 1e-10 on 10^2 entangled states")


def test_criterion_9_boundary_consistency():
    lo = xt.cp_boundary(5.0 / 9.0 - 1e-13)
    hi = xt.cp_boundary(5.0 / 9.0 + 1e-13)
    assert lo == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert hi == pytest.approx(2.0 / 3.0, abs=1e-12)

    for p in np.linspace(0.5, 1.0, 200)[1:-1]:
        assert xt.scalar_q(p) < xt.scalar_u(p)

    rows = xt.diagram_data("negativity_purity", 40)
    groups: dict = {}
    for (p, c, neg, rank, kind) in rows:
        groups.setdefault(p, []).append((c, neg))
    exceed = 0
    for p, cells in groups.items():
        cells.sort()
        negs = [n for _, n in cells]
        if p > 5.0 / 9.0 + 1e-12:
            assert int(np.argmax(negs)) == len(negs) - 1
        elif max(negs) > negs[-1] + 1e-12:
            exceed += 1
    assert exceed > 0
    print("PASS criterion 9: cp_boundary continuous at p = 5/9, q < u across "
          "]1/2, 1[, and the diagram reproduces the qualitative "
          "negativity-vs-purity facts")
