"""matrix_core's solver layer: numpy.linalg's results without its wrappers."""

import ast
import gc
import importlib.util
import io
import threading
import warnings
import weakref
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from xtangle import (
    cli,
    concurrence_general,
    counterpart_details,
    fannes_ree_bound,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    negativity_general,
    numerical_rank,
    partial_transpose,
    random_density,
    random_unitary,
    trace_norm,
)
from xtangle.ensemble import _ginibre
from xtangle.matrix_core import _eigh, _eigvalsh, _qr, _svdvals
from xtangle.measures import _FLIP_SIGNS, floored

from reference_states import BELL_PHI_PLUS, MAX_MIXED

KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
STATES = {
    **{f"{kind}_{seed}": random_density(seed, kind) for kind in KINDS for seed in (3, 17)},
    "max_mixed": MAX_MIXED,
    "rank_2_diag": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
    "rank_3_diag": np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex),
    "bell": BELL_PHI_PLUS,
}


def wootters_k(rho):
    """sqrt(rho) (sy x sy) sqrt(rho)*, the matrix whose singular values
    concurrence_from_eig takes, built as it builds it."""
    spec = hermitian_eig(rho)
    roots = np.array([np.sqrt(v) for v in floored(spec.values)], dtype=complex)
    s = (spec.eigvecs * roots) @ spec.eigvecs.conj().T
    return (s[:, ::-1] * _FLIP_SIGNS) @ s.conj()


INPUTS = {
    **STATES,
    **{f"{name}_pt": partial_transpose(rho) for name, rho in STATES.items()},
    **{f"{name}_k": wootters_k(rho) for name, rho in STATES.items()},
}


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", INPUTS)
def test_solvers_match_numpy_linalg_bitwise(name):
    m = INPUTS[name]
    vals, vecs = _eigh(m)
    want = np.linalg.eigh(m)
    assert same_bytes(vals, want.eigenvalues)
    assert same_bytes(vecs, want.eigenvectors)
    assert same_bytes(_eigvalsh(m), np.linalg.eigvalsh(m))
    assert same_bytes(_svdvals(m), np.linalg.svd(m, compute_uv=False))


def numpy_qr(m):
    """numpy.linalg.qr(m)'s Q and the diagonal of its R, as _qr returns them."""
    q, r = np.linalg.qr(m)
    return q, np.diagonal(r)


@pytest.mark.parametrize("seed", range(40))
def test_qr_matches_numpy_linalg_bitwise(seed):
    # the Ginibre draws random_unitary factors
    g = _ginibre(seed, 4, 4)
    kept = g.copy()
    (q, d), (want_q, want_d) = _qr(g), numpy_qr(g)
    assert same_bytes(q, want_q)
    assert same_bytes(d, want_d)
    assert same_bytes(g, kept)


@pytest.mark.parametrize("solver, numpy_fn", [
    (_eigh, np.linalg.eigh),
    (_eigvalsh, np.linalg.eigvalsh),
    (_svdvals, lambda m: np.linalg.svd(m, compute_uv=False)),
])
def test_a_failed_solve_raises_linalgerror_as_numpy_does(solver, numpy_fn):
    # all-NaN input: LAPACK fails to converge. A numpy that renamed the
    # gufuncs behind the solvers fails this test, not a silent one.
    nan = np.full((4, 4), np.nan, dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError) as want:
            numpy_fn(nan)
        with pytest.raises(np.linalg.LinAlgError) as got:
            solver(nan)
    assert caught == []
    assert str(got.value) == str(want.value)


def _outcome(solver, m):
    """solver(m)'s output bytes, or the message of the LinAlgError it
    raises."""
    try:
        out = solver(m)
    except np.linalg.LinAlgError as exc:
        return "LinAlgError: " + str(exc)
    return [(a.dtype, a.tobytes()) for a in (out if isinstance(out, tuple) else (out,))]


def test_a_nan_qr_does_what_numpy_linalg_qr_does():
    # numpy.linalg.qr returns NaN factors here rather than raising
    nan = np.full((4, 4), np.nan, dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        want, got = _outcome(numpy_qr, nan), _outcome(_qr, nan)
    assert caught == []
    assert got == want


LAYER_SOLVERS = (_eigh, _eigvalsh, _svdvals, _qr)
# a solve that succeeds, and one that raises LinAlgError in three solvers
ERRSTATE_INPUTS = (STATES["hilbert_schmidt_3"], np.full((4, 4), np.nan, dtype=complex))


def _solve_all():
    """Each solver's outcome on ERRSTATE_INPUTS, each paired with whether
    np.geterr() and np.geterrcall() are the same after the solve as
    before it."""
    out = []
    for m in ERRSTATE_INPUTS:
        for solver in LAYER_SOLVERS:
            before = np.geterr(), np.geterrcall()
            out.append((_outcome(solver, m), (np.geterr(), np.geterrcall()) == before))
    return out


def _under_a_raising_state():
    """_solve_all inside a caller's np.errstate(all="raise") with a call
    handler of its own."""
    def handler(err, flag):
        raise AssertionError("the caller's handler was called")

    with np.errstate(call=handler, all="raise"):
        return _solve_all()


def test_a_solve_keeps_the_callers_error_state():
    got = _solve_all()
    assert all(kept for _, kept in got)
    failed = [outcome for outcome, _ in got if isinstance(outcome, str)]
    assert failed == ["LinAlgError: Eigenvalues did not converge"] * 2 + [
        "LinAlgError: SVD did not converge"]


def test_a_raising_error_state_does_not_reach_the_solvers():
    assert _under_a_raising_state() == _solve_all()


def test_the_solvers_keep_the_error_state_in_a_thread():
    got = {}
    thread = threading.Thread(target=lambda: got.update(
        default=_solve_all(), raising=_under_a_raising_state()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    want = _solve_all()
    assert got == {"default": want, "raising": want}


def test_a_dropped_copy_of_the_solver_layer_is_collected():
    # numpy keeps an error state in a capsule that the garbage collector
    # cannot see into: a state holding a function of matrix_core would keep
    # each dropped copy of the module alive
    spec = importlib.util.find_spec("xtangle.matrix_core")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    solved = weakref.ref(module._eigh)
    module._eigh(MAX_MIXED)
    del module
    gc.collect()
    assert solved() is None


def _results():
    """The package's solver-backed results on a few states, a few seeded
    draws, and the CLI's sweep output."""
    rho, sigma = STATES["hilbert_schmidt_3"], STATES["rank_3_17"]
    out = []
    for state in (rho, sigma, STATES["rank_2_diag"], BELL_PHI_PLUS):
        for measure in ("concurrence", "negativity"):
            res = counterpart_details(state, measure)
            out.append((res.state.tobytes(), res.tau, res.achieved, res.branch))
        out += [concurrence_general(state), negativity_general(state),
                is_density_matrix(state), hermitian_eigvals(state).tobytes(),
                numerical_rank(state), trace_norm(state)]
    out.append(fannes_ree_bound(rho, 0.9 * rho + 0.025 * np.eye(4)))
    for seed in (5, 6):
        out += [random_unitary(seed).tobytes(), random_density(seed).tobytes()]
    buf = io.StringIO()
    with redirect_stdout(buf):
        out.append(cli.main(["sweep", "--count", "3", "all"]))
    out.append(buf.getvalue())
    return out


def test_no_route_calls_the_numpy_linalg_wrappers(monkeypatch):
    want = _results()

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg wrapper called")

    for name in ("eigh", "eigvalsh", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert _results() == want


# the numpy.linalg names the package may use: the solver layer's gufuncs
# and the error they raise
ALLOWED_LINALG = {"LinAlgError", "_umath_linalg"}
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xtangle"


def linalg_uses(source):
    """(line, name) of each numpy.linalg name the source uses but
    ALLOWED_LINALG, through an import or an attribute of numpy.linalg."""
    tree = ast.parse(source)
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or (alias.name.startswith("numpy.")
                                             and not alias.asname):
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg":
                    linalg_names.add(alias.asname)
                elif alias.name.startswith("numpy.linalg."):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                elif node.module == "numpy.linalg" and alias.name not in ALLOWED_LINALG:
                    found.append((node.lineno, alias.name))
                elif node.module.startswith("numpy.linalg."):
                    found.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr in ALLOWED_LINALG:
            continue
        owner = node.value
        if (isinstance(owner, ast.Name) and owner.id in linalg_names) or (
                isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                and isinstance(owner.value, ast.Name) and owner.value.id in numpy_names):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_the_package_calls_numpy_linalg_only_through_the_solver_layer():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert linalg_uses(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nq, r = np.linalg.qr(g)", [(2, "qr")]),
    ("import numpy\nnumpy.linalg.norm(g)", [(2, "norm")]),
    ("import numpy.linalg\nnumpy.linalg.svd(g)", [(2, "svd")]),
    ("import numpy.linalg as la\nla.eigh(g)", [(2, "eigh")]),
    ("from numpy import linalg\nlinalg.eigvalsh(g)", [(2, "eigvalsh")]),
    ("from numpy.linalg import qr, LinAlgError", [(1, "qr")]),
    ("from numpy.linalg._linalg import eigh", [(1, "numpy.linalg._linalg.eigh")]),
    ("import numpy as np\nfrom numpy.linalg import LinAlgError, _umath_linalg\n"
     "np.linalg.LinAlgError\n_umath_linalg.svd(g)\nnp.abs(g)", []),
])
def test_the_linalg_guard_sees_each_way_to_a_wrapper(source, found):
    assert linalg_uses(source) == found


def spelling_uses(source):
    """(line, what) of each spelling the package keeps one of: a matrix
    product written a @ b or a @= b, where it writes a.dot(b), and a class
    decorated with dataclass, where its records go through _record."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name == "dataclass":
                    found.append((dec.lineno, "dataclass"))
    return sorted(found)


def test_the_package_spells_products_and_records_one_way():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert spelling_uses(path.read_text(encoding="utf-8")) == [], path.name


# the output mix's first multiplier, by the names ensemble binds it to
# (_M1 is its numpy block) and as a literal
MIX_NAMES = {"_MIX1", "_M1"}
MIX1 = 0xBF58476D1CE4E5B9


def mix_spellings(source):
    """The names of the functions that apply the SplitMix64 output mix:
    those reading _MIX1 or _M1, or spelling its first multiplier."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Name) and inner.id in MIX_NAMES
                        or isinstance(inner, ast.Constant) and inner.value == MIX1):
                    found.add(getattr(node, "name", "<lambda>"))
    return sorted(found)


def test_the_package_spells_the_output_mix_three_times():
    # next_u64 and child_seed share the scalar _mix, the chart draws'
    # block loop inlines it and _ginibre mixes its words in numpy
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    spellings = [(path.name, name) for path in sources
                 for name in mix_spellings(path.read_text(encoding="utf-8"))]
    assert spellings == [("ensemble.py", "_ginibre"), ("ensemble.py", "_mix"),
                         ("ensemble.py", "_uniforms")]


@pytest.mark.parametrize("source, found", [
    ("def f(z):\n    return ((z ^ (z >> 30)) * _MIX1) & MASK64", ["f"]),
    ("class G:\n    def next_u64(self):\n        z = self.s\n        return z * _M1", ["next_u64"]),
    ("def f(z):\n    return z * 0xBF58476D1CE4E5B9", ["f"]),
    ("mix = lambda z: z * _MIX1", ["<lambda>"]),
    ("def outer(z):\n    def inner(w):\n        return w * _MIX1\n    return inner(z)",
     ["inner", "outer"]),
    # a call of the shared helper, the second multiplier and a read at
    # module level are not spellings
    ("def f(z):\n    return _mix(z)\ndef g(z):\n    return z * _MIX2\n"
     "_M1 = np.full(32, _MIX1)", []),
])
def test_the_mix_guard_sees_each_spelling(source, found):
    assert mix_spellings(source) == found


def caught_args_reads(source):
    """(line, name) of each read of a caught exception's .args: a handler
    that tells its errors apart by their messages, where the package's
    readers return their reason (matrix_core._scan)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.name:
            found += [(inner.lineno, node.name) for inner in ast.walk(node)
                      if isinstance(inner, ast.Attribute) and inner.attr == "args"
                      and isinstance(inner.value, ast.Name) and inner.value.id == node.name]
    return sorted(found)


def test_the_package_reads_no_caught_exceptions_args():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        assert caught_args_reads(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("source, found", [
    ("try:\n    f()\nexcept ValueError as exc:\n    if exc.args[0] == 'x':\n        pass",
     [(4, "exc")]),
    ("try:\n    f()\nexcept (TypeError, ValueError) as e:\n    raise\n"
     "except OSError as err:\n    g(err.args)", [(6, "err")]),
    # str() of the exception, the args of another object and a handler
    # without a name are not reads of its args
    ("try:\n    f()\nexcept ValueError as exc:\n    ok = False, str(exc)\n"
     "except TypeError:\n    ns.args\nparser.args", []),
])
def test_the_args_guard_sees_each_read(source, found):
    assert caught_args_reads(source) == found


@pytest.mark.parametrize("source, found", [
    ("c = a @ b", [(1, "@")]),
    ("c = a.dot(b)\nc @= b", [(2, "@")]),
    ("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n    x: int",
     [(2, "dataclass")]),
    ("import dataclasses\n@dataclasses.dataclass\nclass A:\n    x: int", [(2, "dataclass")]),
    ("@_record\nclass A:\n    x: int\n\n@functools.wraps(f)\ndef g(m):\n    return m.dot(m)",
     []),
])
def test_the_spelling_guard_sees_each_spelling(source, found):
    assert spelling_uses(source) == found


def _operand_layouts(seed):
    """Pairs of seeded complex 4x4 operands in the layouts the package
    multiplies: C order, a transposed adjoint and negative strides."""
    a, b = (_ginibre(seed + i, 4, 4) for i in (0, 1))
    return [(a, b), (a, b.conj().T), (a.conj().T, b), (a[:, ::-1], b),
            (a, b[::-1, ::-1]), (a[::-1].conj().T, b[:, ::-1])]


@pytest.mark.parametrize("seed", range(0, 200, 2))
def test_dot_gives_the_bytes_of_matmul(seed):
    for a, b in _operand_layouts(seed):
        assert same_bytes(a.dot(b), a @ b)
        assert same_bytes(a.dot(b).dot(a.conj().T), a @ b @ a.conj().T)
