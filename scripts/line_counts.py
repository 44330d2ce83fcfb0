"""Line counts of the package's modules, in two forms.

For each module of src/xtangle, "all" is its number of lines and "code"
the number of those that are not blank, not a comment and not part of a
docstring (that of the module, a class or a function, found with ast).
Prints one JSON object {"modules": {file: {"all": n, "code": n}},
"total": {"all": n, "code": n}}. Takes no options:

    python3 scripts/line_counts.py
"""

import ast
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xtangle")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, of every docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: str) -> dict[str, int]:
    """{"all": lines, "code": code-only lines} of the Python file at path."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return {"all": len(lines), "code": code}


def main() -> None:
    modules = {name: counts(os.path.join(PACKAGE, name))
               for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    total = {key: sum(c[key] for c in modules.values()) for key in ("all", "code")}
    print(json.dumps({"modules": modules, "total": total}, indent=1))


if __name__ == "__main__":
    main()
