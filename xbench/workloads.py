"""The four workloads: inputs, the timed call, and the verifier behind failures.

Each workload is built once per set-up from the imported package and the
workload seed. It has a pool of `pool` distinct calls, which a run cycles
through. `spec(k)` gives the argument of pool entry k (untimed), `call`
is the timed call into a public entry point, looked up in the package
namespace at call time so that the tracer's wrappers are seen, and
`verify` checks its output outside the timed region, returning a `Check`.
`cal_reps` is the number of reference kernels (calibrate.py, about 0.8 ms
each) that last about as long as one call. All four are closed
loop: one caller, one call at a time.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import reference as ref

DATA = Path(__file__).resolve().parent / "data"

# A concurrence conversion of a rank-deficient input can miss the 1e-9
# measure gate by a few 1e-9, because concurrence_general takes square
# roots of round-off eigenvalues; that is a known defect of the program
# (see README.md). Such an item still counts as failed. It is not
# "unexpected" when the measure gate is the only one it misses and by no
# more than the square root of eigenvalue noise at 1e-14.
KNOWN_DEFECT_CAP = 1e-7


class Check(NamedTuple):
    """Outcome of verifying one call: items in it, failed, failed unexpectedly."""

    items: int
    failed: int
    unexpected: int


class Convert:
    """counterpart_details(rho, measure) on one state per call."""

    name = "convert"
    KINDS = ("hilbert_schmidt", "rank_3", "rank_2", "pure_haar")
    MEASURES = ("concurrence", "negativity")
    STATES = 128
    pool = 2 * STATES
    items_per_call = 1
    warmup_calls = 8
    trace_calls = pool
    cal_reps = 1

    def __init__(self, xt, cli, seed: int):
        self.xt = xt
        self.general = {"concurrence": xt.concurrence_general,
                        "negativity": xt.negativity_general}
        self.states = [xt.random_density(ref.child_seed(seed, i), self.KINDS[i % 4])
                       for i in range(self.STATES)]
        self.max_measure_residual = 0.0
        self.max_spectrum_residual = 0.0

    def spec(self, k: int):
        return self.states[k // 2], self.MEASURES[k % 2]

    def call(self, spec):
        return self.xt.counterpart_details(*spec)

    def verify(self, spec, res) -> Check:
        rho, measure = spec
        state, w = res.state, res.unitary
        general = self.general[measure]
        spectrum = float(np.abs(np.linalg.eigvalsh(state) - np.linalg.eigvalsh(rho)).max())
        delta = abs(general(state) - general(rho))
        self.max_measure_residual = max(self.max_measure_residual, delta)
        self.max_spectrum_residual = max(self.max_spectrum_residual, spectrum)
        missed = {name for name, bad in (
            ("x_form", ref.off_x_mass(state) > ref.GATE_TOL),
            ("spectrum", spectrum > ref.GATE_TOL),
            ("measure", delta > ref.GATE_TOL),
            ("unitary", ref.unitarity_residual(w) > ref.UNITARY_TOL),
            ("conjugation", np.abs(w @ rho @ w.conj().T - state).max() > ref.GATE_TOL),
        ) if bad}
        if not missed:
            return Check(1, 0, 0)
        known = (measure == "concurrence" and missed == {"measure"}
                 and delta <= KNOWN_DEFECT_CAP)
        return Check(1, 1, 0 if known else 1)


class Sweep:
    """In-process `xtangle sweep --count K --seed s all` on successive seeds."""

    name = "sweep"
    COUNT = 1
    CHECKS = ("measures", "classify", "conservation", "disentangle", "counterpart")
    pool = 64
    items_per_call = len(CHECKS) * COUNT
    warmup_calls = 1
    trace_calls = pool
    cal_reps = 4

    def __init__(self, xt, cli, seed: int):
        self.cli = cli
        self.base = seed << 20
        self.ok_lines = [f"ok {c} (count={self.COUNT})" for c in self.CHECKS]

    def spec(self, k: int):
        return ["sweep", "--count", str(self.COUNT), "--seed", str(self.base + k), "all"]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def verify(self, argv, res) -> Check:
        rc, text = res
        items = self.items_per_call
        lines = text.splitlines()
        fails = sum(line.startswith("FAIL ") for line in lines)
        if rc == 0 and lines == self.ok_lines:
            return Check(items, 0, 0)
        if rc == 4 and fails and lines[-1] == f"{fails} failure(s)":
            return Check(items, fails, fails)
        return Check(items, items, items)


def parse_csv(text: str) -> tuple[str, list[list[str]]] | None:
    """(header, rows) of an LF-terminated diagram CSV, None if malformed."""
    if not text.endswith("\n") or "\r" in text:
        return None
    lines = text[:-1].split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


RANK_KIND_COLUMNS = (3, 4)


def row_matches(row: list[str], want: list[str]) -> bool:
    """Rank and kind equal exactly; every other cell within 1e-9, or both empty."""
    if len(row) != len(want):
        return False
    for k, (a, b) in enumerate(zip(row, want)):
        if k in RANK_KIND_COLUMNS or a == "" or b == "":
            if a != b:
                return False
            continue
        try:
            if not abs(float(a) - float(b)) <= ref.GATE_TOL:
                return False
        except ValueError:
            return False
    return True


class Diagram:
    """diagram_csv(kind, GRID), alternating the two kinds; the seed is unused."""

    name = "diagram"
    KINDS = ("cp", "negativity_purity")
    GRID = 20
    pool = len(KINDS)
    items_per_call = GRID * GRID
    warmup_calls = 2
    trace_calls = 10 * pool
    cal_reps = 16

    def __init__(self, xt, cli, seed: int):
        self.xt = xt
        self.reference = {}
        for kind in self.KINDS:
            path = DATA / f"diagram_{kind}_{self.GRID}.csv"
            self.reference[kind] = parse_csv(path.read_text(encoding="utf-8"))

    def spec(self, k: int):
        return self.KINDS[k]

    def call(self, kind):
        return self.xt.diagram_csv(kind, self.GRID)

    def verify(self, kind, text) -> Check:
        want_header, want = self.reference[kind]
        parsed = parse_csv(text) if isinstance(text, str) else None
        if parsed is None or parsed[0] != want_header:
            return Check(len(want), len(want), len(want))
        rows = parsed[1]
        bad = sum(not row_matches(a, b) for a, b in zip(rows, want))
        bad += abs(len(rows) - len(want))
        return Check(max(len(rows), len(want)), bad, bad)


DENSITY_KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
XPARAM_CONSTRAINTS = ("any", "entangled", "separable",
                      "rank_1_kind_1", "rank_1_kind_2", "rank_2_kind_1", "rank_2_kind_2",
                      "rank_2_kind_3", "rank_3_kind_1", "rank_3_kind_2", "rank_4_kind_1")
DRAWS = (tuple(("random_density", k) for k in DENSITY_KINDS)
         + tuple(("random_xparams", c) for c in XPARAM_CONSTRAINTS)
         + (("random_unitary", None),))
DENSITY_RANK = {"pure_haar": 1, "rank_1": 1, "rank_2": 2, "rank_3": 3, "rank_4": 4}


class Sample:
    """One public ensemble draw per call, cycling through DRAWS."""

    name = "sample"
    pool = 16 * len(DRAWS)
    items_per_call = 1
    warmup_calls = len(DRAWS)
    trace_calls = 5 * pool
    cal_reps = 1

    def __init__(self, xt, cli, seed: int):
        self.xt = xt
        self.seed = seed

    def spec(self, k: int):
        fn, arg = DRAWS[k % len(DRAWS)]
        s = ref.child_seed(self.seed, k)
        return fn, (s,) if arg is None else (s, arg)

    def call(self, spec):
        fn, args = spec
        return getattr(self.xt, fn)(*args)

    def verify(self, spec, out) -> Check:
        fn, args = spec
        if fn == "random_density":
            seed, kind = args
            ok = (isinstance(out, np.ndarray)
                  and not ref.density_problem(out, DENSITY_RANK.get(kind))
                  and np.array_equal(out, ref.density(seed, kind)))
        elif fn == "random_unitary":
            ok = (isinstance(out, np.ndarray) and out.shape == (4, 4)
                  and ref.unitarity_residual(out) <= ref.UNITARY_TOL
                  and np.array_equal(out, ref.unitary(args[0])))
        else:
            ok = all(math.isfinite(getattr(out, f, math.nan))
                     for f in ("theta", "phi", "psi", "x", "y", "mu", "nu"))
            ok = ok and not ref.xparams_problem(out, args[1])
        return Check(1, 0, 0) if ok else Check(1, 1, 1)


WORKLOADS = {w.name: w for w in (Convert, Sweep, Diagram, Sample)}
