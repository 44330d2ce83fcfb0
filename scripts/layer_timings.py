"""Microseconds per call of the package's layers.

Times hermitian_eig, hermitian_eigvals, density_spectrum,
is_density_matrix, partial_transpose, trace_norm, purity_general,
concurrence_general, negativity_general, counterpart_details (both
measures) and verstraete_unitary on 64 seeded states, mems_from_spectrum
on their spectra, conjugate on each of them with a seeded unitary, and
hermitian_eig, hermitian_eigvals and density_spectrum again on those
conjugated states (rows *_conjugated), which are Hermitian only within
round-off and so are solved as their Hermitian part, where the seeded
states, exactly Hermitian, go to the solver as given; fannes_ree_bound
on each paired with its mix 0.9 rho + 0.1 I/4 (a trace distance of at
most 0.15); random_density and random_unitary on their 64 seeds, and
is_unitary on those unitaries;
random_xparams on 64 seeds cycling its eleven constraints;
disentangle_params and solve_tau (half the starting value, the two
measures in turn) on 64 seeded entangled X-state draws; conjugate_x
(four seeded angles), evolve (tau = 1/2 of the disentangling walk),
to_density, is_separable, validate_params, diagonal, coeffs and
char_poly on those draws, and from_density, concurrence_x and
negativity_x on their matrices; x_unitary at the same four angles;
classify_rank on 64 seeded draws over the eight rank/kind classes; and
cp_boundary, boundary_scalars (concurrence 0) and
minset_state (half the ceiling) at 64 purities spread over [1/3, 1],
the edges 1/3, 5/9 and 1 among them; and diagram_csv (both kinds) and
diagram_data ("cp") on the 20x20 grid, and diagram_csv("cp", 100), one
input each; and each check of `xtangle sweep` (rows sweep_measures ...
sweep_counterpart, the functions cli._CHECK_FNS runs) on 64 child seeds
at the default tol, microseconds per seed; and the construction of two
records (rows record_xparams and record_counterpart_result) from the
field values of the 64 entangled draws and of the 64 states' conversions
(the two measures in turn). Prints one JSON object
{name: us_per_call}. Each input's time is its fastest of 100 calls,
and a layer's figure is the mean of those over its inputs. Each round
calls every layer on every input, so a slow spell of a shared machine
falls on all layers alike. Import the package
under test through PYTHONPATH:

    PYTHONPATH=src python3 scripts/layer_timings.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np

import xtangle as xt
from xtangle import cli
from xtangle.ensemble import RANK_KIND_TARGETS
from xtangle.matrix_core import DEFAULT_TOL, density_spectrum
from xtangle.universality import MEASURES

KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
CONSTRAINTS = ("any", "entangled", "separable", *RANK_KIND_TARGETS)
STARTS = {"concurrence": xt.concurrence_along, "negativity": xt.negativity_along}
STATES = 64
ROUNDS = 100
# the diagram grid, the one the benchmark's diagram workload draws
GRID = 20


def layers() -> dict:
    """{name: (function, its argument tuples)}: STATES inputs each, one
    for the diagram, whose calls are deterministic and cost the same."""
    seeds = [xt.child_seed(1, i) for i in range(STATES)]
    kinds = [KINDS[i % len(KINDS)] for i in range(STATES)]
    states = [(xt.random_density(s, k),) for s, k in zip(seeds, kinds)]
    unitaries = [(xt.random_unitary(s),) for s in seeds]
    conjugated = [(xt.conjugate(rho, u),) for (rho,), (u,) in zip(states, unitaries)]
    walks = [xt.random_xparams(xt.child_seed(2, i), "entangled") for i in range(STATES)]
    sols = [xt.disentangle_params(p) for p in walks]
    walk_states = [(xt.to_density(p),) for p in walks]
    targets = []
    for i, (p, sol) in enumerate(zip(walks, sols)):
        measure = MEASURES[i % 2]
        targets.append((p, sol, 0.5 * STARTS[measure](p, sol, 0.0), measure))
    rng = xt.SplitMix64(4)
    angles = [[rng.uniform(0.0, 2.0 * math.pi) for _ in range(4)] for _ in range(STATES)]
    purities = [(1.0 + 2.0 * i / (STATES - 1)) / 3.0 for i in range(STATES)]
    purities[21] = 5.0 / 9.0
    classes = [(xt.random_xparams(xt.child_seed(3, i), RANK_KIND_TARGETS[i % len(RANK_KIND_TARGETS)]),)
               for i in range(STATES)]
    check_seeds = [(xt.child_seed(5, i), DEFAULT_TOL) for i in range(STATES)]
    conversions = [xt.counterpart_details(rho, MEASURES[i % 2]) for i, (rho,) in enumerate(states)]
    return {
        "hermitian_eig": (xt.hermitian_eig, states),
        "hermitian_eigvals": (xt.hermitian_eigvals, states),
        "density_spectrum": (density_spectrum, states),
        "hermitian_eig_conjugated": (xt.hermitian_eig, conjugated),
        "hermitian_eigvals_conjugated": (xt.hermitian_eigvals, conjugated),
        "density_spectrum_conjugated": (density_spectrum, conjugated),
        "is_density_matrix": (xt.is_density_matrix, states),
        "partial_transpose": (xt.partial_transpose, states),
        "trace_norm": (xt.trace_norm, states),
        "purity_general": (xt.purity_general, states),
        "conjugate": (xt.conjugate, [(rho, u) for (rho,), (u,) in zip(states, unitaries)]),
        "is_unitary": (xt.is_unitary, unitaries),
        "concurrence_general": (xt.concurrence_general, states),
        "negativity_general": (xt.negativity_general, states),
        "fannes_ree_bound": (xt.fannes_ree_bound,
                             [(rho, 0.9 * rho + 0.025 * np.eye(4)) for (rho,) in states]),
        "counterpart_details_concurrence": (
            lambda rho: xt.counterpart_details(rho, "concurrence"), states),
        "counterpart_details_negativity": (
            lambda rho: xt.counterpart_details(rho, "negativity"), states),
        "verstraete_unitary": (xt.verstraete_unitary, states),
        "mems_from_spectrum": (xt.mems_from_spectrum,
                               [(xt.hermitian_eigvals(rho),) for (rho,) in states]),
        "random_density": (xt.random_density, list(zip(seeds, kinds))),
        "random_unitary": (xt.random_unitary, [(s,) for s in seeds]),
        "random_xparams": (xt.random_xparams,
                           [(s, CONSTRAINTS[i % len(CONSTRAINTS)]) for i, s in enumerate(seeds)]),
        "disentangle_params": (xt.disentangle_params, [(p,) for p in walks]),
        "solve_tau": (xt.solve_tau, targets),
        "conjugate_x": (xt.conjugate_x, [(p, *b) for p, b in zip(walks, angles)]),
        "x_unitary": (xt.x_unitary, [tuple(b) for b in angles]),
        "evolve": (xt.evolve, [(p, sol, 0.5) for p, sol in zip(walks, sols)]),
        "to_density": (xt.to_density, [(p,) for p in walks]),
        "from_density": (xt.from_density, walk_states),
        "concurrence_x": (xt.concurrence_x, walk_states),
        "negativity_x": (xt.negativity_x, walk_states),
        "is_separable": (xt.is_separable, [(p,) for p in walks]),
        "validate_params": (xt.validate_params, [(p,) for p in walks]),
        "diagonal": (xt.diagonal, [(p,) for p in walks]),
        "coeffs": (xt.coeffs, [(p,) for p in walks]),
        "char_poly": (xt.char_poly, [(p,) for p in walks]),
        "classify_rank": (xt.classify_rank, classes),
        "cp_boundary": (xt.cp_boundary, [(p,) for p in purities]),
        "boundary_scalars": (xt.boundary_scalars, [(p, 0.0) for p in purities]),
        "minset_state": (xt.minset_state,
                         [(p, 0.5 * xt.cp_boundary(p)) for p in purities]),
        "diagram_csv_cp": (xt.diagram_csv, [("cp", GRID)]),
        "diagram_csv_negativity_purity": (xt.diagram_csv, [("negativity_purity", GRID)]),
        "diagram_data_cp": (xt.diagram_data, [("cp", GRID)]),
        "diagram_csv_cp_100": (xt.diagram_csv, [("cp", 100)]),
        **{f"sweep_{name}": (check, check_seeds) for name, check in cli._CHECK_FNS.items()},
        "record_xparams": (xt.XParams, [field_values(p) for p in walks]),
        "record_counterpart_result": (xt.CounterpartResult,
                                      [field_values(r) for r in conversions]),
    }


def field_values(record) -> tuple:
    """record's field values in order, the arguments that rebuild it."""
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def main() -> None:
    timed = layers()
    clock = time.perf_counter
    best = {name: [float("inf")] * len(inputs) for name, (_, inputs) in timed.items()}
    for _ in range(ROUNDS):
        for name, (fn, inputs) in timed.items():
            row = best[name]
            for i, args in enumerate(inputs):
                t0 = clock()
                fn(*args)
                row[i] = min(row[i], clock() - t0)
    print(json.dumps({name: 1e6 * sum(row) / len(row) for name, row in best.items()}))


if __name__ == "__main__":
    main()
