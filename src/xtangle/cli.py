"""Command-line frontend.

State files are JSON objects {"matrix": [[[re, im] x4] x4]}, row-major;
counterpart output files carry a second "unitary" key in the same
encoding. Floats are written with full round-trip precision. Diagram
files are CSV with 12 significant digits and LF line endings.

Exit codes: 0 ok, 1 usage (a bad option value, or an output file that
cannot be written), 2 parse, 3 invalid state, 4 check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import ensemble, minimal_set, universality
from .ensemble import RANK_KIND_TARGETS
from .matrix_core import (
    DEFAULT_TOL,
    SOLVER_TOL,
    _entry_gate,
    _hermitian_gate,
    _read_tol,
    _scan,
    _sorted_eigh,
    _sorted_eigvals,
    density_spectrum,
)
from .measures import (
    _concurrence_of,
    _negativity_of,
    _pt_negativity,
    _purity,
    _spectrum_concurrence,
    eof_from_concurrence,
)
from .xstate import (
    _entangled_outer,
    _off_x_worst,
    _physical_coeffs,
    _point_density,
    _point_entries,
    _rank_above_tol,
    _rank_class,
    _x_entries,
    _x_matrix,
    block_eigvals,
    coeffs,
    from_density,
    is_x_form,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CHECK = 4


class UsageError(Exception):
    pass


class ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _matrix_to_obj(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _is_finite_number(v) -> bool:
    # bool is an int subclass; an int too large for a float overflows
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _matrix_from_obj(obj) -> np.ndarray:
    if (not isinstance(obj, list) or len(obj) != 4
            or any(not isinstance(r, list) or len(r) != 4 for r in obj)):
        raise ParseError("matrix must be a 4x4 array of [re, im] pairs")
    m = np.empty((4, 4), dtype=complex)
    for i, row in enumerate(obj):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError(f"entry ({i},{j}) is not an [re, im] pair")
            if not all(_is_finite_number(v) for v in cell):
                raise ParseError(f"entry ({i},{j}) is not a pair of finite numbers")
            m[i, j] = complex(cell[0], cell[1])
    return m


def read_state(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # not UTF-8, or arrays nested past the recursion limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError(f"{path}: missing 'matrix' key")
    return _matrix_from_obj(doc["matrix"])


def _write_text(path: str, text: str) -> None:
    """Write text to path as is; UsageError if the file cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _emit(out_path: str | None, text: str) -> None:
    """Write text to out_path and print `out: FILE`, or else write it to stdout."""
    if out_path:
        _write_text(out_path, text)
        print(f"out: {out_path}")
    else:
        sys.stdout.write(text)


def _state_text(matrix: np.ndarray, unitary: np.ndarray | None = None) -> str:
    """The state file's JSON text, one line: the matrix, then the unitary if given."""
    doc = {"matrix": _matrix_to_obj(matrix)}
    if unitary is not None:
        doc["unitary"] = _matrix_to_obj(unitary)
    return json.dumps(doc) + "\n"


def write_state(path: str, matrix: np.ndarray, unitary: np.ndarray | None = None) -> None:
    _write_text(path, _state_text(matrix, unitary))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _report(pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {_fmt(value)}")


def cmd_measure(args) -> int:
    # three LAPACK calls: the input's eigh serves the validation, the rank
    # and the concurrence (one svd), and the negativity is one eigvalsh;
    # density_spectrum's "not a density matrix" ValueError exits 3. Its
    # entry checks are stricter than the measures' gate, so the purity and
    # the negativity take the matrix unread
    rho = read_state(args.in_path)
    spec = density_spectrum(rho)
    concurrence = _spectrum_concurrence(spec)
    neg = _pt_negativity(rho)
    _report([
        ("purity", _purity(rho)),
        ("concurrence", concurrence),
        ("entanglement_of_formation", eof_from_concurrence(concurrence)),
        ("negativity", neg),
        ("x_form", is_x_form(rho, tol=args.tol)),
        ("rank", _rank_above_tol(spec.values)),
        ("separable", neg <= SOLVER_TOL),
    ])
    return EXIT_OK


def cmd_counterpart(args) -> int:
    # counterpart_details validates; its "not a density matrix" ValueError exits 3
    rho = read_state(args.in_path)
    res = universality.counterpart_details(rho, measure=args.preserve)
    # the state is X-form, so its spectrum is that of its two 2x2 blocks
    d1, d2, d3, d4, rho_14, rho_23 = _x_entries(res.state)
    spec_out = sorted(block_eigvals(d1, d4, abs(rho_14))
                      + block_eigvals(d2, d3, abs(rho_23)), reverse=True)
    write_state(args.out_path, res.state, unitary=res.unitary)
    _report([
        ("measure", res.measure),
        ("branch", res.branch),
        ("tau", res.tau),
        ("target", res.target),
        ("achieved", res.achieved),
        ("measure_delta", abs(res.achieved - res.target)),
        ("spectrum_delta", float(np.abs(res.spectrum - spec_out).max())),
        ("clip", res.clip),
        ("out", args.out_path),
    ])
    return EXIT_OK


def cmd_minset(args) -> int:
    rho = minimal_set.minset_state(args.purity, args.concurrence)
    _emit(args.out_path, _state_text(rho))
    return EXIT_OK


def cmd_classify(args) -> int:
    # density_spectrum's "not a density matrix" ValueError exits 3
    rho = read_state(args.in_path)
    density_spectrum(rho)
    p = from_density(rho, tol=args.tol)
    # one chart read serves the rank/kind, separability and coefficients
    cf, _, x, y = _physical_coeffs(p)
    rk = _rank_class(cf, x, y, args.tol)
    _report([
        ("rank", rk.rank),
        ("kind", rk.kind),
        ("separable", _entangled_outer(cf, x, y) is None),
        ("x", p.x),
        ("y", p.y),
        ("g_cal", cf.g_cal),
        ("h_cal", cf.h_cal),
    ])
    return EXIT_OK


def cmd_diagram(args) -> int:
    _emit(args.out_path, minimal_set.diagram_csv(args.kind, args.grid))
    return EXIT_OK


# The checks read and solve each state they build once. A matrix the
# sweep wrote itself (xstate._x_matrix, through _point_density, and
# universality._counterpart) is taken unread where a public route would
# gate it again: _x_matrix writes each lower coherence as the conjugate of
# the upper one and a real diagonal, so its Hermitian deviation
# (matrix_core._entry_gate) is exactly 0.0 and the solvers take it as
# written. Each check still compares its chart identities with the
# general (LAPACK) routes.


def _check_measures(seed: int, tol: float) -> bool:
    p = ensemble.random_xparams(seed, "any")
    _, d, x, y = _physical_coeffs(p)
    # the entries written are those _x_entries would read back
    e = _point_entries(d, x, y, p.mu, p.nu)
    rho = _x_matrix(*e)
    general = _spectrum_concurrence(_sorted_eigh(rho, 0.0))
    return (abs(_concurrence_of(*e) - general) <= tol
            and abs(_negativity_of(*e) - _pt_negativity(rho)) <= tol)


def _check_classify(seed: int, tol: float) -> bool:
    # rank/kind targets keep the chart tolerance and the eigenvalue
    # threshold commensurate; unconstrained corner draws do not
    p = ensemble.random_xparams(seed, RANK_KIND_TARGETS[seed % 8])
    co, x, y, rho = _point_density(p)
    if _rank_class(co, x, y, DEFAULT_TOL).rank != _rank_above_tol(_sorted_eigvals(rho, 0.0)):
        return False
    return (_entangled_outer(co, x, y) is None) == (_pt_negativity(rho) <= SOLVER_TOL)


def _check_conservation(seed: int, tol: float) -> bool:
    # the stream's first word seeds the draw and its next four uniforms,
    # read as one block, are the angles: uniform(0.0, 2 pi) four times
    p = ensemble.random_xparams(ensemble.SplitMix64(seed).next_u64(), "any")
    angles = [2.0 * np.pi * u for u in ensemble._uniforms(seed + ensemble.GOLDEN, 4)]
    q = universality.conjugate_x(p, *angles)
    a, _, _, rho = _point_density(p)
    b = coeffs(q)
    u = universality.x_unitary(*angles)
    direct = from_density(u.dot(rho).dot(u.conj().T))
    return (abs(a.b_cal - b.b_cal) <= tol
            and abs(a.c_cal - b.c_cal) <= tol
            and abs((a.g_cal - p.y) - (b.g_cal - q.y)) <= tol
            and abs((a.h_cal - p.x) - (b.h_cal - q.x)) <= tol
            and abs(direct.x - q.x) <= tol and abs(direct.y - q.y) <= tol)


def _check_disentangle(seed: int, tol: float) -> bool:
    p = ensemble.random_xparams(seed, "entangled")
    sol = universality.disentangle_params(p)
    q = universality.evolve(p, sol, 1.0).params
    co, x, y, rho = _point_density(q)
    return _entangled_outer(co, x, y) is None and _pt_negativity(rho) <= SOLVER_TOL


def _check_counterpart(seed: int, tol: float) -> bool:
    rho = ensemble.random_density(seed)
    # one density check and solve of rho serves both conversions
    spec = density_spectrum(rho)
    for measure in universality.MEASURES:
        # the record holds rho's spectrum and measure from that solve (its
        # target is concurrence_general(rho) or negativity_general(rho) bit
        # for bit), so only the output is solved afresh; a wrong record
        # fails the check as a wrong output does
        res = universality._counterpart(rho, spec, measure)
        # one read of the output serves is_x_form's verdict and the
        # Hermitian routes' entry gate: hermitian_eig is
        # _sorted_eigh(*_hermitian_read(a)), the same solve
        m, e, why = _scan(res.state)
        if why or not _off_x_worst(e) <= tol:
            return False
        dev = _entry_gate(e)[0]
        _hermitian_gate(dev)
        if measure == "concurrence":
            solved = _sorted_eigh(m, dev)
            values, general = solved.values, _spectrum_concurrence(solved)
        else:
            values, general = _sorted_eigvals(m, dev), _pt_negativity(m)
        # a NaN residual fails: it is not <= tol
        if not (float(np.abs(values - res.spectrum).max()) <= tol
                and abs(general - res.target) <= tol):
            return False
    return True


_CHECK_FNS = {
    "measures": _check_measures,
    "classify": _check_classify,
    "conservation": _check_conservation,
    "disentangle": _check_disentangle,
    "counterpart": _check_counterpart,
}
# the check names, in the order "all" runs them
SWEEP_CHECKS = tuple(_CHECK_FNS)


def cmd_sweep(args) -> int:
    unknown = [c for c in args.checks if c != "all" and c not in SWEEP_CHECKS]
    if unknown:
        raise UsageError(f"unknown check(s) {unknown}; pick from {SWEEP_CHECKS}")
    names = list(SWEEP_CHECKS) if "all" in args.checks else list(args.checks)
    # each run's child seeds, derived once and shared by every check
    seeds = [ensemble.child_seed(args.seed, i) for i in range(args.count)]
    failures = 0
    for name in names:
        fn = _CHECK_FNS[name]
        failed = 0
        for child in seeds:
            try:
                ok = fn(child, args.tol)
            except Exception as exc:
                print(f"FAIL {name} seed={child}: {exc!r}")
                failed += 1
                continue
            if not ok:
                print(f"FAIL {name} seed={child}")
                failed += 1
        if not failed:
            print(f"ok {name} (count={args.count})")
        failures += failed
    if failures:
        print(f"{failures} failure(s)")
        return EXIT_CHECK
    return EXIT_OK


def _checked(convert, ok, requirement: str):
    """An argparse type: convert(text), which must satisfy ok; either
    may reject it by raising ValueError."""
    def parse(text: str):
        try:
            val = convert(text)
            if ok(val):
                return val
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return parse


# the library's tol rule, matrix_core._read_tol: a tol it returns is > 0
_tolerance = _checked(float, _read_tol, "must be a number in (0, inf)")
_count = _checked(int, lambda v: v >= 0, "must be an integer >= 0")
_grid = _checked(int, lambda v: v >= 2, "must be an integer >= 2")


@functools.cache
def _parsers() -> tuple[_Parser, dict[str, _Parser]]:
    """(the xtangle parser, {command: its parser}): the one parser tree
    and the choices of its add_subparsers action, built on the first
    main call of a process.

    Building them takes a large share of a short command's run time, and
    an argparse parser keeps no state between parse_args calls, so main
    reuses them. Not built at import: importing the module stays cheap.
    """
    parser = _Parser(prog="xtangle",
                     description="Two-qubit X-state measures and conversions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_in(p):
        p.add_argument("--in", dest="in_path", required=True, metavar="FILE")

    def add_tol(p):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)

    p = sub.add_parser("measure", help="entanglement report for a state file")
    add_in(p)
    add_tol(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("counterpart", help="X-counterpart of a state")
    add_in(p)
    p.add_argument("--preserve", choices=universality.MEASURES,
                   default="concurrence")
    p.add_argument("--out", dest="out_path", required=True, metavar="FILE")
    p.set_defaults(fn=cmd_counterpart)

    p = sub.add_parser("minset", help="minimal-set member for (purity, concurrence)")
    p.add_argument("--purity", type=float, required=True)
    p.add_argument("--concurrence", type=float, required=True)
    p.add_argument("--out", dest="out_path", metavar="FILE")
    p.set_defaults(fn=cmd_minset)

    p = sub.add_parser("classify", help="rank/kind classification of an X-state")
    add_in(p)
    add_tol(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("diagram", help="emit diagram CSV data")
    p.add_argument("--kind", choices=minimal_set.DIAGRAM_KINDS, default="cp")
    p.add_argument("--grid", type=_grid, default=40)
    p.add_argument("--out", dest="out_path", metavar="FILE")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("sweep", help="randomized invariant checks")
    p.add_argument("--count", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_tol(p)
    p.add_argument("checks", nargs="*", default=["all"], metavar="CHECK")
    p.set_defaults(fn=cmd_sweep)
    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands = _parsers()
        # a command word goes straight to its own parser, which reads the
        # rest as the top-level parser would hand it on; anything else (no
        # arguments, -h, --, an unknown word) is the top-level parser's
        command = commands.get(argv[0]) if argv else None
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # argparse exits after printing --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
