"""Every tolerance of the package sits in matrix_core's table.

The guard parses each module of the package. Outside the table's own
assignments it fails on a float literal of magnitude below 1e-6 (a bare
tolerance) and on a module-level assignment to a name ending in _TOL,
_SLACK, _FLOOR or _CLAMP (a tolerance defined elsewhere). Importing an
entry by name is how the other modules use the table.
"""

import ast
from pathlib import Path

import numpy as np

from xtangle import matrix_core

PACKAGE = Path(matrix_core.__file__).resolve().parent

# the table's entries and their values: a change here changes behaviour
TABLE = {
    "ROUNDOFF": 1e-12,
    "SOLVER_TOL": 1e-10,
    "DEFAULT_TOL": 1e-9,
    "EIG_FLOOR": 4.0 * np.finfo(float).eps,
    "SQRT_CLAMP": 1e-14,
    "DEGENERATE": 1e-15,
}
MAX_ENTRIES = 7
TOL_SUFFIXES = ("_TOL", "_SLACK", "_FLOOR", "_CLAMP")
SMALL = 1e-6


def _assignments(tree):
    """(statement, assigned names) for each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        yield node, names


def _is_table_entry(path, names):
    return path.name == "matrix_core.py" and bool(names) and set(names) <= set(TABLE)


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_table = set()
    found = []
    for node, names in _assignments(tree):
        if _is_table_entry(path, names):
            in_table.update(id(n) for n in ast.walk(node))
            continue
        found += [f"{path.name}:{node.lineno}: assigns {name}"
                  for name in names if name.endswith(TOL_SUFFIXES)]
    for n in ast.walk(tree):
        if (isinstance(n, ast.Constant) and isinstance(n.value, float)
                and 0.0 < abs(n.value) < SMALL and id(n) not in in_table):
            found.append(f"{path.name}:{n.lineno}: literal {n.value!r}")
    return found


def test_no_tolerance_outside_the_table():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _violations(path)]
    assert not found, "tolerances outside matrix_core's table:\n" + "\n".join(found)


def test_table_entries_values_and_comments():
    path = PACKAGE / "matrix_core.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    entries = {}
    for node, names in _assignments(ast.parse("\n".join(lines))):
        if _is_table_entry(path, names):
            # the comment saying what the entry gates and why sits right above it
            assert lines[node.lineno - 2].lstrip().startswith("#"), names
            entries.update(dict.fromkeys(names))
    assert set(entries) == set(TABLE)
    assert len(entries) <= MAX_ENTRIES
    for name, value in TABLE.items():
        assert isinstance(getattr(matrix_core, name), float)
        assert getattr(matrix_core, name) == value, name
