import os
import sys
from collections import Counter

import pytest

from xtangle import matrix_core

sys.path.insert(0, os.path.dirname(__file__))

# matrix_core's solver layer, by the numpy.linalg function each one stands for
SOLVERS = {"_eigh": "eigh", "_eigvalsh": "eigvalsh", "_svdvals": "svd", "_qr": "qr"}


def _wrap_solvers(monkeypatch, record):
    """Wrap each solver of matrix_core in every xtangle module that binds
    it, calling record(name, m) with its numpy.linalg name (SOLVERS) and
    its argument before each solve."""
    modules = [mod for name, mod in sys.modules.items()
               if name == "xtangle" or name.startswith("xtangle.")]
    for attr, name in SOLVERS.items():
        solver = getattr(matrix_core, attr)

        def wrapped(m, _solver=solver, _name=name):
            record(_name, m)
            return _solver(m)

        for mod in modules:
            if getattr(mod, attr, None) is solver:
                monkeypatch.setattr(mod, attr, wrapped)


@pytest.fixture
def solver_calls(monkeypatch):
    """A Counter of the LAPACK solves made during the test, keyed eigh,
    eigvalsh, svd and qr: each solver of matrix_core is wrapped in every
    xtangle module that binds it."""
    counts = Counter()
    _wrap_solvers(monkeypatch, lambda name, m: counts.update((name,)))
    return counts


@pytest.fixture
def solver_inputs(monkeypatch):
    """A list of (name, copy of the argument) of the LAPACK solves made
    during the test, the solvers wrapped as solver_calls wraps them."""
    inputs = []
    _wrap_solvers(monkeypatch, lambda name, m: inputs.append((name, m.copy())))
    return inputs
