"""CLI commands, file formats, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from xtangle import cli
from xtangle import (
    concurrence_general,
    eof,
    is_density_matrix,
    is_x_form,
    minset_state,
    negativity_general,
    numerical_rank,
    purity_general,
    random_density,
)
from xtangle.matrix_core import SOLVER_TOL

from reference_states import BELL_PHI_PLUS, M30A, M30B, M40, MAX_MIXED

EXPECTED_MEASURE_KEYS = {"purity", "concurrence", "entanglement_of_formation",
                         "negativity", "x_form", "rank", "separable"}


def write_json(path, matrix):
    cli.write_state(str(path), np.asarray(matrix, dtype=complex))
    return str(path)


def parse_report(captured):
    out = {}
    for line in captured.strip().split("\n"):
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def test_measure_m40(tmp_path, capsys):
    path = write_json(tmp_path / "m40.json", M40)
    assert cli.main(["measure", "--in", path]) == 0
    rep = parse_report(capsys.readouterr().out)
    assert set(rep) == EXPECTED_MEASURE_KEYS
    assert float(rep["purity"]) == pytest.approx(0.54, abs=1e-12)
    assert float(rep["concurrence"]) == pytest.approx(0.4, abs=1e-12)
    assert rep["x_form"] == "false"
    assert rep["rank"] == "3"
    assert rep["separable"] == "false"


def test_measure_max_mixed(tmp_path, capsys):
    path = write_json(tmp_path / "mm.json", MAX_MIXED)
    assert cli.main(["measure", "--in", path]) == 0
    rep = parse_report(capsys.readouterr().out)
    assert float(rep["purity"]) == pytest.approx(0.25, abs=1e-12)
    assert float(rep["concurrence"]) == 0.0
    assert float(rep["negativity"]) == 0.0
    assert rep["separable"] == "true"


def test_counterpart_both_measures(tmp_path, capsys):
    path = write_json(tmp_path / "in.json", M40)
    for preserve in ("concurrence", "negativity"):
        out = str(tmp_path / f"out_{preserve}.json")
        code = cli.main(["counterpart", "--in", path,
                         "--preserve", preserve, "--out", out])
        assert code == 0
        rep = parse_report(capsys.readouterr().out)
        assert float(rep["measure_delta"]) < 1e-9
        assert float(rep["spectrum_delta"]) < 1e-9
        assert rep["measure"] == preserve
        # output file carries matrix and unitary and round-trips losslessly
        with open(out) as fh:
            obj = json.load(fh)
        assert "unitary" in obj
        matrix = cli.read_state(out)
        written = np.array([[complex(re, im) for re, im in row]
                            for row in obj["matrix"]])
        np.testing.assert_array_equal(matrix, written)


def test_counterpart_rejects_non_density_and_tol(tmp_path, capsys):
    path = write_json(tmp_path / "notdensity.json", np.diag([1.5, -0.5, 0.0, 0.0]))
    out = str(tmp_path / "out.json")
    assert cli.main(["counterpart", "--in", path, "--out", out]) == 3
    assert capsys.readouterr().err == (
        "invalid state: not a density matrix: negative eigenvalue -5.000e-01\n")
    good = write_json(tmp_path / "m40.json", M40)
    assert cli.main(["counterpart", "--in", good, "--out", out, "--tol", "1e-9"]) == 1


@pytest.mark.parametrize("preserve, count", [("concurrence", 2), ("negativity", 2)])
def test_counterpart_solver_calls(tmp_path, capsys, solver_calls, preserve, count):
    # the conversion's own calls: the input's spectrum comes with the record
    # and the output's from its two blocks
    path = write_json(tmp_path / "in.json", M40)
    solver_calls.clear()
    assert cli.main(["counterpart", "--in", path, "--preserve", preserve,
                     "--out", str(tmp_path / "out.json")]) == 0
    assert sum(solver_calls.values()) == count, solver_calls


@pytest.mark.parametrize("name, state", [
    ("m40", M40), ("m30a", M30A), ("m30b", M30B), ("bell", BELL_PHI_PLUS),
    ("max_mixed", MAX_MIXED), ("minset", minset_state(0.6, 0.3)),
    *((f"random_{kind}", random_density(5, kind))
      for kind in ("hilbert_schmidt", "pure_haar", "rank_2", "rank_3")),
])
def test_measure_report_is_the_measures(tmp_path, capsys, name, state):
    # the report read from one spectrum prints what the separate measure
    # functions give, byte for byte
    path = write_json(tmp_path / f"{name}.json", state)
    rho = cli.read_state(path)
    neg = negativity_general(rho)
    want = "".join(f"{key}: {cli._fmt(value)}\n" for key, value in [
        ("purity", purity_general(rho)),
        ("concurrence", concurrence_general(rho)),
        ("entanglement_of_formation", eof(rho)),
        ("negativity", neg),
        ("x_form", is_x_form(rho)),
        ("rank", numerical_rank(rho)),
        ("separable", neg <= SOLVER_TOL),
    ])
    assert cli.main(["measure", "--in", path]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name, state", [("m40", M40), ("max_mixed", MAX_MIXED)])
def test_measure_solver_calls(tmp_path, capsys, solver_calls, name, state):
    # one eigh for the validation, rank and concurrence, whose svd is the
    # second; the negativity's eigvalsh is the third
    path = write_json(tmp_path / f"{name}.json", state)
    solver_calls.clear()
    assert cli.main(["measure", "--in", path]) == 0
    assert solver_calls == {"eigh": 1, "eigvalsh": 1, "svd": 1}, solver_calls


def test_counterpart_lossless_roundtrip(tmp_path):
    rho = random_density(42)
    path = write_json(tmp_path / "r.json", rho)
    np.testing.assert_array_equal(cli.read_state(path), rho)


def test_minset_matches_reference(tmp_path, capsys):
    out = str(tmp_path / "minset.json")
    assert cli.main(["minset", "--purity", "0.54", "--concurrence", "0.4",
                     "--out", out]) == 0
    capsys.readouterr()
    np.testing.assert_allclose(cli.read_state(out), M30A, atol=1e-12)


def test_minset_stdout(capsys):
    assert cli.main(["minset", "--purity", "0.54", "--concurrence", "0.4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    got = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
    np.testing.assert_allclose(got, minset_state(0.54, 0.4), atol=0.0)


@pytest.mark.parametrize("purity, concurrence", [("nan", "0.3"), ("0.6", "nan")])
def test_minset_nan_argument_exits_invalid(capsys, purity, concurrence):
    # a NaN fails every domain test instead of printing NaN, which is not JSON
    assert cli.main(["minset", "--purity", purity, "--concurrence", concurrence]) == 3
    assert capsys.readouterr().out == ""


def test_classify(tmp_path, capsys):
    path = write_json(tmp_path / "x.json", M30A)
    assert cli.main(["classify", "--in", path]) == 0
    rep = parse_report(capsys.readouterr().out)
    assert rep["rank"] == "3"
    assert rep["kind"] == "1"
    assert rep["separable"] == "false"


def test_diagram(tmp_path, capsys):
    out = str(tmp_path / "d.csv")
    assert cli.main(["diagram", "--kind", "cp", "--grid", "4",
                     "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().split("\n")
    assert lines[0] == "p,c,negativity,rank,kind,u,v,q,r"
    assert len(lines) == 1 + 16 + 1
    capsys.readouterr()
    assert cli.main(["diagram", "--kind", "negativity_purity", "--grid", "3"]) == 0
    text = capsys.readouterr().out
    assert text.split("\n")[0] == "p,c,negativity,rank,kind"


def test_sweep_ok(capsys):
    assert cli.main(["sweep", "--count", "6", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    for name in cli.SWEEP_CHECKS:
        assert f"ok {name}" in out


def test_sweep_single_check(capsys):
    assert cli.main(["sweep", "measures", "--count", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ok measures" in out
    assert "classify" not in out


def test_sweep_tol_gates_counterpart(capsys):
    # a conversion's off-X entries are exactly 0, so its X-form gate passes
    # at 1e-30; the spectrum gate fails it first, as the output's solved
    # eigenvalues differ from the input's by round-off (2.1e-17 on seed 7's
    # first state), and the measure gate would too
    assert cli.main(["sweep", "counterpart", "--count", "2", "--seed", "7",
                     "--tol", "1e-30"]) == 4
    assert "FAIL counterpart" in capsys.readouterr().out


def test_sweep_classify_fails_on_a_rank_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "numerical_rank", lambda rho: 0)
    assert cli.main(["sweep", "classify", "--count", "1", "--seed", "5"]) == 4
    seed = cli.ensemble.child_seed(5, 0)
    assert capsys.readouterr().out.splitlines() == [f"FAIL classify seed={seed}", "1 failure(s)"]


def _off_x(res):
    state = res.state.copy()
    state[0, 1] = 1e-6
    return dataclasses.replace(res, state=state)


@pytest.mark.parametrize("fault", [
    _off_x,
    lambda res: dataclasses.replace(res, spectrum=res.spectrum + 1e-6),
    lambda res: dataclasses.replace(res, target=res.target + 1e-6),
], ids=["off_x_state", "spectrum", "target"])
def test_sweep_counterpart_fails_on_a_faulty_record(monkeypatch, capsys, fault):
    convert = cli.universality.counterpart_details
    monkeypatch.setattr(cli.universality, "counterpart_details",
                        lambda rho, measure: fault(convert(rho, measure)))
    assert cli.main(["sweep", "--count", "1", "--seed", "3", "counterpart"]) == 4
    seed = cli.ensemble.child_seed(3, 0)
    assert capsys.readouterr().out.splitlines() == [f"FAIL counterpart seed={seed}", "1 failure(s)"]


def test_rank_kind_targets_order():
    # the classify check picks RANK_KIND_TARGETS[seed % 8]
    assert cli.RANK_KIND_TARGETS == (
        "rank_1_kind_1", "rank_1_kind_2", "rank_2_kind_1", "rank_2_kind_2",
        "rank_2_kind_3", "rank_3_kind_1", "rank_3_kind_2", "rank_4_kind_1",
    )


def test_sweep_failure_exit_and_seed(monkeypatch, capsys):
    from xtangle.ensemble import child_seed

    monkeypatch.setitem(cli._CHECK_FNS, "measures", lambda seed, tol: seed % 2)
    assert cli.main(["sweep", "measures", "--count", "3", "--seed", "7"]) == 4
    out = capsys.readouterr().out
    bad = [child_seed(7, i) for i in range(3) if child_seed(7, i) % 2 == 0]
    for seed in bad:
        assert f"FAIL measures seed={seed}" in out
    assert f"{len(bad)} failure(s)" in out


def test_sweep_reports_each_check(monkeypatch, capsys):
    # a failing check does not hide the ok line of the checks after it
    monkeypatch.setitem(cli._CHECK_FNS, "measures", lambda seed, tol: False)
    assert cli.main(["sweep", "measures", "classify", "--count", "2", "--seed", "7"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"FAIL measures seed={cli.ensemble.child_seed(7, i)}" for i in range(2)]
    assert lines[2:] == ["ok classify (count=2)", "2 failure(s)"]


def test_parser_reuse_runs_like_fresh_calls(capsys):
    assert cli.main(["sweep", "measures", "--count", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "ok measures (count=1)\n"
    # the default check list is not left holding the previous call's
    assert cli.main(["sweep", "--count", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"ok {name} (count=1)" for name in cli.SWEEP_CHECKS]
    assert cli.main(["sweep", "--count", "nope"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert cli.main(["sweep", "classify", "--count", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "ok classify (count=1)\n"


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import xtangle.cli\n"
        "assert not built, built\n"
        "xtangle.cli.main(['sweep', '--count', '0'])\n"
        "assert built\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_exit_usage(capsys):
    assert cli.main(["measure"]) == 1  # --in required
    capsys.readouterr()
    assert cli.main(["sweep", "nonsense", "--count", "2"]) == 1
    capsys.readouterr()
    assert cli.main(["bogus-command"]) == 1
    capsys.readouterr()


def test_exit_parse(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["measure", "--in", str(bad)]) == 2
    capsys.readouterr()
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 3] * 4}))
    assert cli.main(["measure", "--in", str(shape)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"data": []}))
    assert cli.main(["measure", "--in", str(missing)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name, state", [
    ("negative", np.diag([1.5, -0.5, 0.0, 0.0])),
    ("trace", np.diag([0.5, 0.5, 0.5, 0.0])),
    ("asymmetric", M40 + 1e-9 * np.eye(4, k=1)),
])
def test_measure_rejection_text(tmp_path, capsys, name, state):
    path = write_json(tmp_path / f"{name}.json", state)
    ok, why = is_density_matrix(cli.read_state(path))
    assert not ok
    # classify validates through density_spectrum, as measure does
    for command in ("measure", "classify"):
        assert cli.main([command, "--in", path]) == 3
        assert capsys.readouterr().err == f"invalid state: not a density matrix: {why}\n"


def test_exit_invalid_state(tmp_path, capsys):
    path = write_json(tmp_path / "notdensity.json",
                      np.diag([1.5, -0.5, 0.0, 0.0]))
    assert cli.main(["measure", "--in", str(path)]) == 3
    capsys.readouterr()
    # classify requires X form
    dense = write_json(tmp_path / "dense.json", M40)
    assert cli.main(["classify", "--in", dense]) == 3
    capsys.readouterr()
    # minset outside the admissible region
    assert cli.main(["minset", "--purity", "0.6", "--concurrence", "0.9"]) == 3
    capsys.readouterr()
    assert cli.main(["minset", "--purity", "0.1", "--concurrence", "0.0"]) == 3
    capsys.readouterr()


def test_exit_parse_cell_not_a_pair(tmp_path, capsys):
    path = tmp_path / "cell.json"
    matrix = cli._matrix_to_obj(MAX_MIXED)
    matrix[2][1] = [0.0, 0.0, 0.0]
    path.write_text(json.dumps({"matrix": matrix}))
    assert cli.main(["measure", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: entry (2,1) is not an [re, im] pair\n"


def test_exit_invalid_out_of_scale_state(tmp_path, capsys):
    # numpy warned of overflows before "Eigenvalues did not converge"
    m = MAX_MIXED.astype(complex)
    m[0, 1] = m[1, 0] = 1.5e308
    path = write_json(tmp_path / "huge.json", m)
    out = str(tmp_path / "x.json")
    for argv in (["measure"], ["counterpart", "--out", out], ["classify"]):
        assert cli.main(argv + ["--in", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid state: not a density matrix: "
                                "entry magnitudes sum above 1e+100\n")


def test_sweep_check_that_raises_fails_its_seed(monkeypatch, capsys):
    def broken(seed, tol):
        raise ZeroDivisionError(f"seed {seed}")

    monkeypatch.setitem(cli._CHECK_FNS, "classify", broken)
    assert cli.main(["sweep", "classify", "--count", "2", "--seed", "5"]) == 4
    seeds = [cli.ensemble.child_seed(5, i) for i in range(2)]
    assert capsys.readouterr().out.splitlines() == [
        *(f"FAIL classify seed={s}: ZeroDivisionError('seed {s}')" for s in seeds),
        "2 failure(s)"]


def test_help_exits_ok(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: xtangle")


def test_file_not_found(capsys):
    assert cli.main(["measure", "--in", "/nonexistent/state.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("cell", [
    "[NaN, 0.0]", "[0.25, Infinity]", "[-Infinity, 0.0]", "[1e999, 0.0]",
    "[true, 0.0]", "[0.25, false]", "[1" + "0" * 400 + ", 0.0]",
], ids=["nan", "inf", "neg_inf", "float_overflow", "true", "false", "huge_int"])
def test_exit_parse_non_finite_or_bool(tmp_path, capsys, cell):
    # MAX_MIXED with entry (0,0) replaced by the raw JSON text of cell
    text = json.dumps({"matrix": cli._matrix_to_obj(MAX_MIXED)})
    text = text.replace("[0.25, 0.0]", cell, 1)
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["measure", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "entry (0,0)" in err


@pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000], ids=["not_utf8", "deep"])
def test_exit_parse_undecodable_file(tmp_path, capsys, content):
    # a UnicodeDecodeError exited 3, a RecursionError raised out of main
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert cli.main(["measure", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {path}: invalid JSON: ")
    assert "Traceback" not in err


BAD_TOLS = ["nan", "-1", "0", "inf", "-inf", "abc"]


@pytest.mark.parametrize("argv", [
    *(["measure", "--in", "state.json", "--tol", t] for t in BAD_TOLS),
    *(["classify", "--in", "state.json", "--tol", t] for t in BAD_TOLS),
    *(["sweep", "--count", "2", "--tol", t, "classify"] for t in BAD_TOLS),
    *(["sweep", "--count", n, "classify"] for n in ["-5", "-1", "1.5", "abc"]),
    *(["diagram", "--grid", g] for g in ["0", "1", "-3", "2.5", "abc"]),
    ["minset", "--purity", "abc", "--concurrence", "0.1"],
    ["minset", "--purity", "0.6", "--concurrence", "abc"],
    ["counterpart", "--in", "state.json", "--out", "x.json", "--preserve", "entropy"],
], ids=" ".join)
def test_bad_option_value_is_a_usage_error(capsys, argv):
    # rejected while parsing, before any file is read or any check runs
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["counterpart", "--in", "IN"],
    ["minset", "--purity", "0.54", "--concurrence", "0.4"],
    ["diagram", "--grid", "3"],
], ids=lambda argv: argv[0])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    argv = [write_json(tmp_path / "in.json", M40) if a == "IN" else a for a in argv]
    out = str(tmp_path / "missing" / "out")
    assert cli.main(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write {out}: ")
    assert "Traceback" not in captured.err
