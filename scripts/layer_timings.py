"""Microseconds per call of the 4x4 eigen layer and the conversion.

Times hermitian_eig, density_spectrum, is_density_matrix,
concurrence_general, negativity_general and counterpart_details (both
measures) on 64 seeded states, and prints one JSON object
{name: us_per_call}. Each state's time is its fastest of 100 calls, and a
layer's figure is the mean of those over the states. Each round calls
every layer on every state, so a slow spell of a shared machine falls on
all layers alike. Import the package under test through PYTHONPATH:

    PYTHONPATH=src python3 scripts/layer_timings.py
"""

from __future__ import annotations

import json
import time

import xtangle as xt
from xtangle.matrix_core import density_spectrum

KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
STATES = 64
ROUNDS = 100

LAYERS = {
    "hermitian_eig": xt.hermitian_eig,
    "density_spectrum": density_spectrum,
    "is_density_matrix": xt.is_density_matrix,
    "concurrence_general": xt.concurrence_general,
    "negativity_general": xt.negativity_general,
    "counterpart_details_concurrence": lambda rho: xt.counterpart_details(rho, "concurrence"),
    "counterpart_details_negativity": lambda rho: xt.counterpart_details(rho, "negativity"),
}


def main() -> None:
    states = [xt.random_density(xt.child_seed(1, i), KINDS[i % len(KINDS)])
              for i in range(STATES)]
    clock = time.perf_counter
    best = {name: [float("inf")] * STATES for name in LAYERS}
    for _ in range(ROUNDS):
        for name, fn in LAYERS.items():
            row = best[name]
            for i, rho in enumerate(states):
                t0 = clock()
                fn(rho)
                row[i] = min(row[i], clock() - t0)
    print(json.dumps({name: 1e6 * sum(row) / STATES for name, row in best.items()}))


if __name__ == "__main__":
    main()
