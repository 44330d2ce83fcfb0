"""Microseconds per call of the package's layers.

Times hermitian_eig, density_spectrum, is_density_matrix,
concurrence_general, negativity_general and counterpart_details (both
measures) on 64 seeded states; random_density and random_unitary on their
64 seeds; random_xparams on 64 seeds cycling its eleven constraints;
disentangle_params and solve_tau (half the starting value, the two
measures in turn) on 64 seeded entangled X-state draws; conjugate_x
(four seeded angles), evolve (tau = 1/2 of the disentangling walk),
to_density and is_separable on those draws; x_unitary at the same four
angles; classify_rank on 64 seeded draws over the eight rank/kind
classes; and cp_boundary, boundary_scalars (concurrence 0) and
minset_state (half the ceiling) at 64 purities spread over [1/3, 1],
the edges 1/3, 5/9 and 1 among them. Prints one JSON
object {name: us_per_call}. Each input's time is its fastest of 100 calls,
and a layer's figure is the mean of those over the inputs. Each round
calls every layer on every input, so a slow spell of a shared machine
falls on all layers alike. Import the package under test through
PYTHONPATH:

    PYTHONPATH=src python3 scripts/layer_timings.py
"""

from __future__ import annotations

import json
import math
import time

import xtangle as xt
from xtangle.ensemble import RANK_KIND_TARGETS
from xtangle.matrix_core import density_spectrum
from xtangle.universality import MEASURES

KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
CONSTRAINTS = ("any", "entangled", "separable", *RANK_KIND_TARGETS)
STARTS = {"concurrence": xt.concurrence_along, "negativity": xt.negativity_along}
STATES = 64
ROUNDS = 100


def layers() -> dict:
    """{name: (function, its argument tuples)}, STATES inputs each."""
    seeds = [xt.child_seed(1, i) for i in range(STATES)]
    kinds = [KINDS[i % len(KINDS)] for i in range(STATES)]
    states = [(xt.random_density(s, k),) for s, k in zip(seeds, kinds)]
    walks = [xt.random_xparams(xt.child_seed(2, i), "entangled") for i in range(STATES)]
    sols = [xt.disentangle_params(p) for p in walks]
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
    return {
        "hermitian_eig": (xt.hermitian_eig, states),
        "density_spectrum": (density_spectrum, states),
        "is_density_matrix": (xt.is_density_matrix, states),
        "concurrence_general": (xt.concurrence_general, states),
        "negativity_general": (xt.negativity_general, states),
        "counterpart_details_concurrence": (
            lambda rho: xt.counterpart_details(rho, "concurrence"), states),
        "counterpart_details_negativity": (
            lambda rho: xt.counterpart_details(rho, "negativity"), states),
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
        "is_separable": (xt.is_separable, [(p,) for p in walks]),
        "classify_rank": (xt.classify_rank, classes),
        "cp_boundary": (xt.cp_boundary, [(p,) for p in purities]),
        "boundary_scalars": (xt.boundary_scalars, [(p, 0.0) for p in purities]),
        "minset_state": (xt.minset_state,
                         [(p, 0.5 * xt.cp_boundary(p)) for p in purities]),
    }


def main() -> None:
    timed = layers()
    clock = time.perf_counter
    best = {name: [float("inf")] * STATES for name in timed}
    for _ in range(ROUNDS):
        for name, (fn, inputs) in timed.items():
            row = best[name]
            for i, args in enumerate(inputs):
                t0 = clock()
                fn(*args)
                row[i] = min(row[i], clock() - t0)
    print(json.dumps({name: 1e6 * sum(row) / STATES for name, row in best.items()}))


if __name__ == "__main__":
    main()
