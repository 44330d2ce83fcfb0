import os
import sys
from collections import Counter

import pytest

from xtangle import matrix_core

sys.path.insert(0, os.path.dirname(__file__))

# matrix_core's solver layer, by the numpy.linalg function each one stands for
SOLVERS = {"_eigh": "eigh", "_eigvalsh": "eigvalsh", "_svdvals": "svd", "_qr": "qr"}


@pytest.fixture
def solver_calls(monkeypatch):
    """A Counter of the LAPACK solves made during the test, keyed eigh,
    eigvalsh, svd and qr: each solver of matrix_core is wrapped in every
    xtangle module that binds it."""
    counts = Counter()
    modules = [mod for name, mod in sys.modules.items()
               if name == "xtangle" or name.startswith("xtangle.")]
    for attr, name in SOLVERS.items():
        solver = getattr(matrix_core, attr)

        def counted(m, _solver=solver, _name=name):
            counts[_name] += 1
            return _solver(m)

        for mod in modules:
            if getattr(mod, attr, None) is solver:
                monkeypatch.setattr(mod, attr, counted)
    return counts
