"""Outside-in tracer for xtangle.

The package itself is not edited. `Tracer.install` wraps each function in
`LAYERS` in every xtangle module namespace that binds it (`cli`,
`universality` and `measures` import names directly, and calls inside a
module go through its globals), and swaps each module's `np` for a copy of
numpy whose `numpy.linalg` functions are wrapped, so LAPACK calls made from
any xtangle module are counted as the `linalg` layer. Calls from the
benchmark's own verifiers are not recorded: they run with `on` false.

A span is [name id, start ns, end ns, parent span, item id, raised]. Spans
stay in memory until the run ends. Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types

import numpy

LAYERS = {
    "matrix_core": ("hermitian_eig", "is_density_matrix", "partial_transpose", "conjugate"),
    "measures": ("concurrence_general", "negativity_general", "concurrence_x", "negativity_x"),
    "xstate": ("coeffs", "from_density", "to_density", "classify_rank", "is_x_form"),
    "minimal_set": ("minset_state", "boundary_scalars", "cp_boundary", "diagram_data",
                    "diagram_csv"),
    "universality": ("counterpart_details", "verstraete_unitary", "disentangle_params",
                     "solve_tau", "conjugate_x", "evolve", "concurrence_along",
                     "negativity_along"),
    "ensemble": ("random_density", "random_xparams", "random_unitary"),
    "cli": ("main",),
}
PACKAGE = "xtangle"
LINALG = "linalg"
PATH_FNS = ("universality.concurrence_along", "universality.negativity_along")


class Tracer:
    """Records spans of wrapped calls while `on` is true."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.item = -1
        self.on = False
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] | None = None

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [nid, 0, 0, stack[-1] if stack else -1, self.item, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _replacements(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper), built once per tracer."""
        if self._wrappers is None:
            self._wrappers = {}
            for layer, fns in LAYERS.items():
                owner = sys.modules[f"{PACKAGE}.{layer}"]
                for fn_name in fns:
                    # a function the package no longer has reports zero calls
                    original = getattr(owner, fn_name, None)
                    if original is not None:
                        self._wrappers[id(original)] = (
                            original, self.wrap(f"{layer}.{fn_name}", original))
            linalg = types.ModuleType("numpy.linalg")
            vars(linalg).update(vars(numpy.linalg))
            for name in numpy.linalg.__all__:
                fn = getattr(numpy.linalg, name)
                if callable(fn) and not isinstance(fn, type):
                    setattr(linalg, name, self.wrap(f"{LINALG}.{name}", fn))
            proxy = types.ModuleType("numpy")
            vars(proxy).update(vars(numpy))
            proxy.linalg = linalg
            self._wrappers[id(numpy)] = (numpy, proxy)
        return self._wrappers

    def install(self) -> None:
        replacements = self._replacements()
        for name, mod in sorted(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                # keyed by id: module globals include unhashable values
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self) -> dict:
        """Per-name calls, self ns and escaped errors, plus parent-child counts.

        An error counts against a layer when the exception leaves a span of
        that layer for a caller outside it.
        """
        layer = [n.split(".", 1)[0] for n in self.names]
        child_ns = [0] * len(self.spans)
        for nid, t0, t1, parent, _item, _raised in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        errors = [0] * len(self.names)
        pairs: dict[tuple[str, str], int] = {}
        root_ns = 0
        for i, (nid, t0, t1, parent, _item, raised) in enumerate(self.spans):
            calls[nid] += 1
            self_ns[nid] += (t1 - t0) - child_ns[i]
            pname = self.names[self.spans[parent][0]] if parent >= 0 else ""
            if raised and (parent < 0 or layer[self.spans[parent][0]] != layer[nid]):
                errors[nid] += 1
            key = (pname, self.names[nid])
            pairs[key] = pairs.get(key, 0) + 1
            if parent < 0:
                root_ns += t1 - t0
        by_name = {name: {"calls": calls[nid], "self_ns": self_ns[nid], "errors": errors[nid]}
                   for nid, name in enumerate(self.names)}
        return {"by_name": by_name, "pairs": pairs, "root_ns": root_ns}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,item,raised\n")
            for i, (nid, t0, t1, parent, item, raised) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{t0},{t1},{parent},{item},{int(raised)}\n")


def layer_metrics(summary: dict, items: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a summary: name -> (value, unit)."""
    by_name, pairs = summary["by_name"], summary["pairs"]
    out: dict[str, tuple[float, str]] = {}

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    for layer, fns in LAYERS.items():
        rows = [by_name.get(f"{layer}.{fn}", {"calls": 0, "self_ns": 0, "errors": 0})
                for fn in fns]
        out[f"{layer}.calls"] = (sum(r["calls"] for r in rows), "count")
        out[f"{layer}.self_ms"] = (sum(r["self_ns"] for r in rows) / 1e6, "ms")
        out[f"{layer}.errors"] = (sum(r["errors"] for r in rows), "count")
        for fn, r in zip(fns, rows):
            out[f"{layer}.{fn}.calls"] = (r["calls"], "count")
            out[f"{layer}.{fn}.self_us"] = (per(r["self_ns"], r["calls"]) / 1e3, "us")

    linalg = [r for n, r in by_name.items() if n.startswith(LINALG + ".")]
    linalg_calls = sum(r["calls"] for r in linalg)
    out["linalg.calls"] = (linalg_calls, "count")
    out["linalg.self_ms"] = (sum(r["self_ns"] for r in linalg) / 1e6, "ms")
    out["linalg.calls_per_item"] = (per(linalg_calls, items), "calls/item")

    def calls(name: str) -> int:
        return by_name.get(name, {"calls": 0})["calls"]

    path_evals = sum(pairs.get(("universality.solve_tau", fn), 0) for fn in PATH_FNS)
    out["universality.path_evals_per_solve"] = (
        per(path_evals, calls("universality.solve_tau")), "evals/solve")
    out["xstate.coeffs_per_item"] = (per(calls("xstate.coeffs"), items), "calls/item")
    draws_coeffs = sum(n for (parent, child), n in pairs.items()
                       if child == "xstate.coeffs" and parent.startswith("ensemble."))
    out["ensemble.attempts_per_draw"] = (
        per(draws_coeffs, calls("ensemble.random_xparams")), "calls/draw")
    return out
