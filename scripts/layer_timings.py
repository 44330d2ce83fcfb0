"""Microseconds per call of the package's layers.

Times hermitian_eig, density_spectrum, is_density_matrix,
concurrence_general, negativity_general and counterpart_details (both
measures) on 64 seeded states; random_density on their 64 seeds;
disentangle_params and solve_tau (half the starting value, the two
measures in turn) on 64 seeded entangled X-state draws; and classify_rank
on 64 seeded draws over the eight rank/kind classes. Prints one JSON
object {name: us_per_call}. Each input's time is its fastest of 100 calls,
and a layer's figure is the mean of those over the inputs. Each round
calls every layer on every input, so a slow spell of a shared machine
falls on all layers alike. Import the package under test through
PYTHONPATH:

    PYTHONPATH=src python3 scripts/layer_timings.py
"""

from __future__ import annotations

import json
import time

import xtangle as xt
from xtangle.matrix_core import density_spectrum
from xtangle.xstate import RANK_KIND_PAIRS

KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
CLASSES = tuple(f"rank_{r}_kind_{k}" for r, k in sorted(RANK_KIND_PAIRS))
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
        measure = ("concurrence", "negativity")[i % 2]
        targets.append((p, sol, 0.5 * STARTS[measure](p, sol, 0.0), measure))
    classes = [(xt.random_xparams(xt.child_seed(3, i), CLASSES[i % len(CLASSES)]),)
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
        "disentangle_params": (xt.disentangle_params, [(p,) for p in walks]),
        "solve_tau": (xt.solve_tau, targets),
        "classify_rank": (xt.classify_rank, classes),
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
