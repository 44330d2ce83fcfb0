"""scripts/line_counts.py counts every module of the package.

The script is loaded by path, as tests/test_layer_timings.py loads its
script, and its one JSON object is checked against the files.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "line_counts.py")
PACKAGE = os.path.join(ROOT, "src", "xtangle")


def test_line_counts_cover_every_module(capsys):
    spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main()
    report = json.loads(capsys.readouterr().out)
    modules = report["modules"]
    assert sorted(modules) == sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py"))
    for name, count in modules.items():
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            assert count["all"] == len(fh.read().splitlines()), name
        assert 0 < count["code"] <= count["all"], name
    assert report["total"] == {key: sum(c[key] for c in modules.values())
                               for key in ("all", "code")}
