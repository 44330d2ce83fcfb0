"""scripts/layer_timings.py runs against the package's current names.

The script is loaded by path and run for one round, so a renamed or
removed public name fails here rather than in the next timing run.
"""

import importlib.util
import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "layer_timings.py")


def test_layer_timings_times_every_layer(capsys):
    spec = importlib.util.spec_from_file_location("layer_timings", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.ROUNDS = 1
    script.main()
    timings = json.loads(capsys.readouterr().out)
    assert sorted(timings) == sorted(script.layers())
    assert all(math.isfinite(us) and us > 0.0 for us in timings.values()), timings
