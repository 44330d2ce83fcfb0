"""The benchmark's own checks: verifiers reject corrupted outputs, the tracer
adds up, and a run prints its result in the documented format.

    python3 -m pytest xbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import xtangle
import xtangle.cli
from run import ROOT, Tally
from tracer import Tracer, layer_metrics
from workloads import Check, Convert, Diagram, Sample, Sweep

SEED = 3
ORIGINAL_EIG = xtangle.matrix_core.hermitian_eig


@pytest.fixture(scope="module")
def convert():
    return Convert(xtangle, xtangle.cli, SEED)


def _busy(ns: int) -> None:
    end = time.perf_counter_ns() + ns
    while time.perf_counter_ns() < end:
        pass


def test_convert_accepts_a_correct_conversion(convert):
    spec = convert.spec(1)  # hilbert_schmidt state, negativity
    assert convert.verify(spec, convert.call(spec)) == Check(1, 0, 0)


def test_convert_rejects_off_x_entry(convert):
    spec = convert.spec(1)
    res = convert.call(spec)
    state = res.state.copy()
    state[0, 1] += 1e-8
    state[1, 0] += 1e-8
    bad = dataclasses.replace(res, state=state)
    assert convert.verify(spec, bad) == Check(1, 1, 1)


def test_convert_rejects_non_unitary_w(convert):
    spec = convert.spec(1)
    res = convert.call(spec)
    bad = dataclasses.replace(res, unitary=res.unitary * (1.0 + 1e-9))
    assert convert.verify(spec, bad) == Check(1, 1, 1)


def test_convert_counts_the_known_concurrence_defect(convert):
    # rank-deficient concurrence conversions that miss only the measure gate
    # fail, but are the documented defect rather than an unexpected failure
    checks = [convert.verify(convert.spec(i), convert.call(convert.spec(i)))
              for i in range(0, 64, 2)]
    assert any(c == Check(1, 1, 0) for c in checks)
    assert all(c.unexpected == 0 for c in checks)
    assert 0.0 < convert.max_measure_residual <= 1e-7


def test_sweep_verifier():
    sweep = Sweep(xtangle, xtangle.cli, SEED)
    argv = sweep.spec(0)
    n = sweep.items_per_call
    assert sweep.verify(argv, sweep.call(argv)) == Check(n, 0, 0)
    failing = "ok measures (count=4)\nFAIL classify seed=1\nFAIL classify seed=2\n2 failure(s)\n"
    assert sweep.verify(argv, (4, failing)) == Check(n, 2, 2)
    assert sweep.verify(argv, (0, "")) == Check(n, n, n)
    assert sweep.verify(argv, (1, "")) == Check(n, n, n)


@pytest.mark.parametrize("kind", Diagram.KINDS)
def test_diagram_rejects_a_wrong_cell(kind):
    diagram = Diagram(xtangle, xtangle.cli, SEED)
    text = diagram.call(kind)
    assert diagram.verify(kind, text) == Check(400, 0, 0)
    lines = text.split("\n")
    cells = lines[7].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[7] = ",".join(cells)
    assert diagram.verify(kind, "\n".join(lines)) == Check(400, 1, 1)
    cells = lines[9].split(",")
    cells[3] = "4" if cells[3] != "4" else "3"
    lines[9] = ",".join(cells)
    assert diagram.verify(kind, "\n".join(lines)) == Check(400, 2, 2)
    assert diagram.verify(kind, text.replace("\n", "\r\n")) == Check(400, 400, 400)
    assert diagram.verify(kind, text[: text.rindex("\n", 0, -1) + 1]) == Check(400, 1, 1)


def test_sample_accepts_every_draw_kind():
    sample = Sample(xtangle, xtangle.cli, SEED)
    for i in range(36):
        spec = sample.spec(i)
        assert sample.verify(spec, sample.call(spec)) == Check(1, 0, 0), spec


def test_sample_rejects_perturbed_draws():
    sample = Sample(xtangle, xtangle.cli, SEED)
    for i in range(18):
        spec = sample.spec(i)
        out = sample.call(spec)
        if spec[0] == "random_xparams":
            continue
        bumped = out.copy()
        bumped[1, 1] = np.nextafter(bumped[1, 1].real, 2.0)
        assert sample.verify(spec, bumped) == Check(1, 1, 1), spec


def test_sample_rejects_xparams_outside_the_constraint():
    sample = Sample(xtangle, xtangle.cli, SEED)
    spec = next(sample.spec(i) for i in range(18) if sample.spec(i)[1][1:] == ("entangled",))
    p = sample.call(spec)
    separable = dataclasses.replace(p, x=0.0, y=0.0)
    assert sample.verify(spec, separable) == Check(1, 1, 1)
    unphysical = dataclasses.replace(p, x=1.0)
    assert sample.verify(spec, unphysical) == Check(1, 1, 1)


def test_reference_generator_matches_the_frozen_vectors():
    # seed-42 normals frozen in tests/test_ensemble.py
    assert ref.normals(42, 4) == [0.4147197504315305, 0.6526812221519427,
                                  -0.8918862136277562, 1.3268335628141064]
    assert ref.child_seed(7, 3) == xtangle.child_seed(7, 3)


def test_tracer_self_times_add_up_on_a_nested_toy_call():
    tracer = Tracer()

    def leaf():
        _busy(200_000)

    def failing():
        raise ValueError("toy")

    traced_leaf = tracer.wrap("inner.leaf", leaf)
    traced_failing = tracer.wrap("inner.failing", failing)

    def outer():
        _busy(300_000)
        traced_leaf()
        traced_leaf()
        try:
            traced_failing()
        except ValueError:
            pass

    traced_outer = tracer.wrap("outer.run", outer)
    tracer.on = True
    t0 = time.perf_counter_ns()
    traced_outer()
    wall = time.perf_counter_ns() - t0
    tracer.on = False
    traced_outer()  # not recorded while off

    s = tracer.summary()
    by = s["by_name"]
    assert [by[n]["calls"] for n in ("outer.run", "inner.leaf", "inner.failing")] == [1, 2, 1]
    outer_span, *children = tracer.spans
    child_ns = sum(c[2] - c[1] for c in children)
    assert by["outer.run"]["self_ns"] == (outer_span[2] - outer_span[1]) - child_ns
    assert sum(r["self_ns"] for r in by.values()) == s["root_ns"] <= wall
    assert by["outer.run"]["self_ns"] >= 300_000
    assert by["inner.leaf"]["self_ns"] >= 400_000
    assert by["inner.failing"]["errors"] == 1
    assert s["pairs"][("outer.run", "inner.leaf")] == 2


def _traced_counts(n_calls: int) -> dict:
    wl = Convert(xtangle, xtangle.cli, SEED)
    tracer = Tracer()
    with tracer.installed():
        assert xtangle.cli.hermitian_eig is not ORIGINAL_EIG
        for i in range(n_calls):
            tracer.item, tracer.on = i, True
            wl.call(wl.spec(i))
            tracer.on = False
    metrics = layer_metrics(tracer.summary(), n_calls)
    return {k: v for k, (v, _unit) in metrics.items() if not k.endswith(("_ms", "_us"))}


def test_tracer_counts_repeat_exactly_and_uninstall_restores():
    originals = (xtangle.cli.hermitian_eig, xtangle.universality.solve_tau,
                 xtangle.counterpart_details, xtangle.matrix_core.np)
    first, second = _traced_counts(16), _traced_counts(16)
    assert first == second
    assert first["universality.counterpart_details.calls"] == 16
    assert first["universality.path_evals_per_solve"] > 0
    assert first["linalg.calls_per_item"] > 0
    assert (xtangle.cli.hermitian_eig, xtangle.universality.solve_tau,
            xtangle.counterpart_details, xtangle.matrix_core.np) == originals


def test_tally_counts_each_pool_entry_once():
    tally = Tally(2)
    for _ in range(3):
        tally.add(0, 10, Check(1, 1, 0))
        tally.add(1, 20, Check(1, 0, 0))
    assert (tally.attempted, tally.failed, tally.call_items) == (2, 1, 6)
    assert tally.inconsistent == 0
    tally.add(1, 5, Check(1, 1, 1))
    assert (tally.failed, tally.inconsistent, tally.unexpected) == (2, 1, 1)
    assert tally.best_ns == [10, 5]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "xbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_result_line():
    proc = _run(ROOT, "--workload", "sample", "--seed", "5", "--seconds", "0.2",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "xbench", tmp_path / "xbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "convert", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
