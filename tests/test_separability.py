"""One separability rule: the chart's partial-transpose test at SOLVER_TOL.

is_separable must give the answer of negativity_general <= SOLVER_TOL,
the rule the CLI applies to any matrix, on seeded draws and on states
whose coherence sits just above the opposite block's product.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xtangle import (
    XParams,
    child_seed,
    cli,
    coeffs,
    disentangle_params,
    is_separable,
    negativity_general,
    random_xparams,
    to_density,
)
from xtangle.ensemble import RANK_KIND_TARGETS
from xtangle.matrix_core import SOLVER_TOL
from xtangle.xstate import params_from_entries

CONSTRAINTS = ("any", "entangled", "separable", *RANK_KIND_TARGETS)
# too close to the threshold for the two routes' round-off to settle
UNDECIDED = 1e-14

# an "entangled" draw with x - G = 5.8e-13, block trace 6.7e-4 and
# negativity 8.7e-10, once called separable by a slack on x
NEAR_SEED = child_seed(7, 2301)


def _agrees(p: XParams) -> bool:
    neg = negativity_general(to_density(p))
    if abs(neg - SOLVER_TOL) < UNDECIDED:
        return True
    return is_separable(p) == (neg <= SOLVER_TOL)


def test_agrees_with_negativity_on_seeded_draws():
    for constraint in CONSTRAINTS:
        for i in range(40):
            p = random_xparams(child_seed(8, i), constraint)
            assert _agrees(p), (constraint, i, p)


def _boundary_state(leg: str, delta: float, trace: float, split: float) -> XParams:
    """A coherence weight delta above the opposite block's product.

    leg "x": the inner block (d2, d3) has trace `trace` and the outer
    coherence weight is g_cal + delta; leg "y" mirrors it. The other
    block shares the rest evenly. `split` in [0, 1] scales the probed
    block's smaller share, capped so that its product stays below half
    the other block's and the state is physical.
    """
    rest = 1.0 - trace
    r = split * min(0.5, 0.125 * rest * rest / (trace * trace))
    near, far = (trace * r, trace * (1.0 - r)), (0.5 * rest, 0.5 * rest)
    if leg == "x":
        d1, d4 = far
        d2, d3 = near
    else:
        d1, d4 = near
        d2, d3 = far
    base = params_from_entries(d1, d2, d3, d4, 0.0, 0.0)
    cf = coeffs(base)
    if leg == "x":
        return XParams(base.theta, base.phi, base.psi, cf.g_cal + delta, 0.0)
    return XParams(base.theta, base.phi, base.psi, 0.0, cf.h_cal + delta)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    leg=st.sampled_from(("x", "y")),
    delta_exp=st.floats(-14.0, -8.0),
    trace_exp=st.floats(-4.0, math.log10(0.99)),
    split=st.floats(0.0, 1.0),
)
@example(leg="x", delta_exp=-12.0, trace_exp=-3.0, split=0.5)
@example(leg="y", delta_exp=-12.5, trace_exp=-3.5, split=0.0)
def test_agrees_with_negativity_at_the_boundary(leg, delta_exp, trace_exp, split):
    p = _boundary_state(leg, 10.0 ** delta_exp, 10.0 ** trace_exp, split)
    assert _agrees(p)


def test_near_separable_draw_is_entangled():
    p = random_xparams(NEAR_SEED, "entangled")
    assert not is_separable(p)
    assert disentangle_params(p).branch != "already_separable"
    assert cli._check_disentangle(NEAR_SEED, 1e-9)


@pytest.mark.parametrize("command", ["measure", "classify"])
def test_cli_reports_near_separable_draw_entangled(tmp_path, capsys, command):
    path = str(tmp_path / "near.json")
    cli.write_state(path, to_density(random_xparams(NEAR_SEED, "entangled")))
    assert cli.main([command, "--in", path]) == 0
    assert "separable: false" in capsys.readouterr().out.splitlines()
