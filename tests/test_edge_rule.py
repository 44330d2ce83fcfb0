"""The ROUNDOFF edge rule (matrix_core._read_edge) at every site it serves.

A value within ROUNDOFF outside a closed range reads as that edge, so its
result is the edge's, bit for bit; a value further out, or a NaN, raises
the site's error. The defect tests pin values in those bands that were
read inconsistently before the rule had one definition.
"""

import warnings

import numpy as np
import pytest

from xtangle import (
    DomainError,
    OutOfDiagramError,
    OutOfRegimeError,
    TargetOutOfRangeError,
    XParams,
    binary_entropy,
    boundary_scalars,
    concurrence_along,
    conjugate_x,
    cp_boundary,
    diagonal,
    disentangle_params,
    eof,
    evolve,
    fannes_ree_bound,
    hermitian_eig,
    is_physical,
    is_separable,
    mems_from_spectrum,
    minset_state,
    negativity_along,
    purity_x,
    random_density,
    random_xparams,
    scalar_q,
    scalar_r,
    scalar_u,
    scalar_v,
    scalar_w,
    scalar_z,
    solve_tau,
    theorem_params,
    to_density,
    validate_params,
    x_unitary,
)
from xtangle.matrix_core import NON_FINITE, OUT_OF_SCALE, ROUNDOFF, _read_edge
from xtangle.measures import eof_from_concurrence

NAN = float("nan")


def _bits(result):
    """The exact bits of a result: an array's bytes, repr of anything else."""
    return result.tobytes() if isinstance(result, np.ndarray) else repr(result)


def _x_at(x):
    # physical and separable at x = 0
    return XParams(0.7, 0.6, 0.5, x, 0.01, 0.3, 0.2)


def _y_at(y):
    # physical and separable at y = 0
    return XParams(0.7, 0.6, 0.5, 0.01, y, 0.3, 0.2)


def _inner_walk_at(x):
    # entangled through its inner coherence (branch "GgtH") at x = 0, so
    # the walk's leg reads the weights
    return XParams(0.7, 0.6, 0.5, x, 0.02, 0.3, 0.2)


WALK = random_xparams(3, "entangled")
SOL = disentangle_params(WALK)
C0 = concurrence_along(WALK, SOL, 0.0)
SOL_INNER = disentangle_params(_inner_walk_at(0.0))

# name: (call of one value, lower edge, upper edge or None, error)
SITES = {
    "scalar_q": (scalar_q, 0.5, 1.0, DomainError),
    "scalar_u": (scalar_u, 0.5, 1.0, DomainError),
    "scalar_v": (scalar_v, 1.0 / 3.0, 1.0, DomainError),
    "scalar_r": (scalar_r, 0.5, 1.0, DomainError),
    "cp_boundary": (cp_boundary, 0.25, 1.0, DomainError),
    "boundary_scalars": (lambda p: boundary_scalars(p, 0.0), 0.25, 1.0, DomainError),
    "scalar_w_c": (lambda c: scalar_w(0.5, c), 0.0, scalar_v(0.5), DomainError),
    "scalar_z_c": (lambda c: scalar_z(0.5, c), 0.0, scalar_v(0.5), DomainError),
    "minset_state_purity": (lambda p: minset_state(p, 0.0), 1.0 / 3.0, 1.0, DomainError),
    "minset_state_rank3": (lambda c: minset_state(0.45, c), 0.0, cp_boundary(0.45),
                           OutOfDiagramError),
    "minset_state_rank2": (lambda c: minset_state(0.7, c), 0.0, cp_boundary(0.7),
                           OutOfDiagramError),
    "minset_state_pure": (lambda c: minset_state(1.0, c), 0.0, 1.0, OutOfDiagramError),
    "theorem_params_r1k1": (lambda c: theorem_params(1.0, c, "r1k1"), 0.0, 1.0, DomainError),
    "theorem_params_r2k3": (lambda c: theorem_params(0.7, c, "r2k3"), 0.0, scalar_u(0.7),
                            DomainError),
    "theorem_params_r3k1": (lambda c: theorem_params(0.45, c, "r3k1"), 0.0, scalar_v(0.45),
                            DomainError),
    "theorem_params_r3k2": (lambda c: theorem_params(0.52, c, "r3k2"), 0.0, scalar_v(0.52),
                            DomainError),
    "validate_params_x": (lambda x: validate_params(_x_at(x)), 0.0, None, ValueError),
    "to_density_x": (lambda x: to_density(_x_at(x)), 0.0, None, ValueError),
    "to_density_y": (lambda y: to_density(_y_at(y)), 0.0, None, ValueError),
    "is_separable_x": (lambda x: is_separable(_x_at(x)), 0.0, None, ValueError),
    "purity_x_y": (lambda y: purity_x(_y_at(y)), 0.0, None, ValueError),
    "conjugate_x_x": (lambda x: conjugate_x(_x_at(x), 0.3, 0.1, 0.2, 0.4), 0.0, None,
                      ValueError),
    "conjugate_x_y": (lambda y: conjugate_x(_y_at(y), 0.3, 0.1, 0.2, 0.4), 0.0, None,
                      ValueError),
    "disentangle_params_x": (lambda x: disentangle_params(_inner_walk_at(x)), 0.0, None,
                             ValueError),
    "walk_leg_x": (lambda x: concurrence_along(_inner_walk_at(x), SOL_INNER, 0.5), 0.0, None,
                   ValueError),
    "evolve_x": (lambda x: evolve(_x_at(x), disentangle_params(_x_at(0.0)), 0.5), 0.0, None,
                 ValueError),
    "evolve_tau": (lambda t: evolve(WALK, SOL, t), 0.0, 1.0, ValueError),
    "concurrence_along_tau": (lambda t: concurrence_along(WALK, SOL, t), 0.0, 1.0, ValueError),
    "negativity_along_tau": (lambda t: negativity_along(WALK, SOL, t), 0.0, 1.0, ValueError),
    "solve_tau_target": (lambda t: solve_tau(WALK, SOL, t), 0.0, C0, TargetOutOfRangeError),
    "eof_from_concurrence": (eof_from_concurrence, 0.0, 1.0, ValueError),
    # trace distance t of diag(t, 0, 0, 0) and 0, which the SVD gives exactly
    "fannes_ree_bound": (lambda t: fannes_ree_bound(np.diag([t, 0.0, 0.0, 0.0]),
                                                    np.zeros((4, 4))),
                         None, 1.0 / 3.0, OutOfRegimeError),
}
# trace_norm rejects a NaN entry before the bound's range is read
NAN_ERRORS = {"fannes_ree_bound": ValueError}

EDGES = [(name, side) for name, (_, lo, hi, _) in SITES.items()
         for side, edge in (("lo", lo), ("hi", hi)) if edge is not None]


def _outside(side: str, edge: float, by: float) -> float:
    return edge - by if side == "lo" else edge + by


@pytest.mark.parametrize("name, side", EDGES, ids=[f"{n}-{s}" for n, s in EDGES])
def test_half_roundoff_outside_an_edge_reads_as_the_edge(name, side):
    call, lo, hi, _ = SITES[name]
    edge = lo if side == "lo" else hi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _bits(call(_outside(side, edge, 0.5 * ROUNDOFF))) == _bits(call(edge))


@pytest.mark.parametrize("name, side", EDGES, ids=[f"{n}-{s}" for n, s in EDGES])
def test_twice_roundoff_outside_an_edge_raises(name, side):
    call, lo, hi, error = SITES[name]
    edge = lo if side == "lo" else hi
    with pytest.raises(error):
        call(_outside(side, edge, 2.0 * ROUNDOFF))


@pytest.mark.parametrize("name", list(SITES))
def test_nan_raises(name):
    call, _, _, error = SITES[name]
    with pytest.raises(NAN_ERRORS.get(name, error)):
        call(NAN)


# name: (call passing a value that is not a real number, its site's error
# and message); each raised a bare TypeError from the range comparison,
# the array numpy's truth-value ValueError
NON_NUMBERS = {
    "minset_state_str": (lambda: minset_state("a", 0.0), DomainError,
                         "purity 'a' outside [1/3, 1]"),
    "cp_boundary_none": (lambda: cp_boundary(None), DomainError, "purity None outside [1/4, 1]"),
    "cp_boundary_complex": (lambda: cp_boundary(1j), DomainError, "purity 1j outside [1/4, 1]"),
    "scalar_w_none": (lambda: scalar_w(0.5, None), DomainError,
                      f"w undefined: concurrence None outside [0, v] = [0, {scalar_v(0.5)!r}]"),
    # each returned w = z = None
    "boundary_scalars_c_nan": (lambda: boundary_scalars(0.5, NAN), DomainError,
                               "concurrence nan is not a real number"),
    "boundary_scalars_c_str": (lambda: boundary_scalars(0.5, "a"), DomainError,
                               "concurrence 'a' is not a real number"),
    "boundary_scalars_c_none": (lambda: boundary_scalars(0.5, None), DomainError,
                                "concurrence None is not a real number"),
    "boundary_scalars_c_array": (lambda: boundary_scalars(0.5, np.array([0.1, 0.2])),
                                 DomainError,
                                 "concurrence array([0.1, 0.2]) is not a real number"),
    "theorem_params_str": (lambda: theorem_params(0.7, "a", "r2k3"), DomainError,
                           "concurrence 'a' outside [0, 1]"),
    # each variant's purity test; a complex at 1 passed the rank-1
    # variants' |p - 1| test
    "theorem_params_r1k1_p_str": (lambda: theorem_params("a", 0.2, "r1k1"), DomainError,
                                  "purity 'a' is not a real number"),
    "theorem_params_r1k2_p_complex": (lambda: theorem_params(1 + 0j, 0.2, "r1k2"), DomainError,
                                      "purity (1+0j) is not a real number"),
    "theorem_params_r2k3_p_none": (lambda: theorem_params(None, 0.2, "r2k3"), DomainError,
                                   "purity None is not a real number"),
    "theorem_params_r3k1_p_str": (lambda: theorem_params("a", 0.2, "r3k1"), DomainError,
                                  "purity 'a' is not a real number"),
    "theorem_params_r3k2_p_complex": (lambda: theorem_params(0.52j, 0.2, "r3k2"), DomainError,
                                      "purity 0.52j is not a real number"),
    "solve_tau_str": (lambda: solve_tau(WALK, SOL, "0.1"), TargetOutOfRangeError,
                      f"target '0.1' outside [0, {C0!r}] for concurrence"),
    "evolve_none": (lambda: evolve(WALK, SOL, None), ValueError, "tau None outside [0, 1]"),
    "concurrence_along_str": (lambda: concurrence_along(WALK, SOL, "x"), ValueError,
                              "tau 'x' outside [0, 1]"),
    "to_density_str": (lambda: to_density(XParams(0.3, 0.3, 0.3, "a", 0.0)), ValueError,
                       "weight x='a' is negative or NaN"),
    "eof_from_concurrence_str": (lambda: eof_from_concurrence("a"), ValueError,
                                 "concurrence 'a' outside [0, 1]"),
    # an array of several values has no truth value
    "minset_state_array": (lambda: minset_state(np.array([0.5, 0.6]), 0.0), DomainError,
                           "purity array([0.5, 0.6]) outside [1/3, 1]"),
    # the chart's angles and the rotation angles: math.isfinite's bare TypeError
    "to_density_angle_str": (lambda: to_density(XParams("a", 0.1, 0.1, 0.1, 0.1)), ValueError,
                             "angle 'a' is not a real number"),
    "diagonal_angle_none": (lambda: diagonal(XParams(0.1, None, 0.1, 0.0, 0.0)), ValueError,
                            "angle None is not a real number"),
    "diagonal_phase_complex": (lambda: diagonal(XParams(0.1, 0.1, 0.1, 0.0, 0.0, 1j)),
                               ValueError, "angle 1j is not a real number"),
    "x_unitary_str": (lambda: x_unitary("a"), ValueError, "angle 'a' is not a real number"),
    "x_unitary_array": (lambda: x_unitary(0.1, np.array([0.1, 0.2])), ValueError,
                        "angle array([0.1, 0.2]) is not a real number"),
    # compares as one value, but math.isfinite rejects it
    "x_unitary_one_element_array": (lambda: x_unitary(np.array([0.3])), ValueError,
                                    "angle array([0.3]) is not a real number"),
    "conjugate_x_str": (lambda: conjugate_x(WALK, 0.1, "a"), ValueError,
                        "angle 'a' is not a real number"),
    "binary_entropy_str": (lambda: binary_entropy("a"), ValueError,
                           "probability 'a' is not a real number"),
    # as_matrix: numpy's malformed-string ValueError, or a bare TypeError
    "eof_str": (lambda: eof("a"), ValueError, "matrix 'a' is not an array of numbers"),
    "eof_str_entries": (lambda: eof([["a"] * 4] * 4), ValueError,
                        f"matrix {[['a'] * 4] * 4!r} is not an array of numbers"),
    "eof_object_entry": (lambda: eof([[Ellipsis] * 4] * 4), ValueError,
                         f"matrix {[[Ellipsis] * 4] * 4!r} is not an array of numbers"),
    # a Python int too large for a float: a bare OverflowError from
    # as_matrix's np.asarray or from math.isfinite
    "eof_huge_int": (lambda: eof([[10**400] * 4] * 4), ValueError, OUT_OF_SCALE),
    "hermitian_eig_huge_int": (lambda: hermitian_eig([[10**400] * 4] * 4), ValueError,
                               OUT_OF_SCALE),
    "x_unitary_huge_int": (lambda: x_unitary(10**400), ValueError, NON_FINITE),
    "to_density_huge_int": (lambda: to_density(XParams(10**400, 0, 0, 0, 0)), ValueError,
                            NON_FINITE),
    "binary_entropy_huge_int": (lambda: binary_entropy(10**400), ValueError, NON_FINITE),
    # an unhashable name: a bare TypeError from the dict lookup
    "random_density_list": (lambda: random_density(1, ["x"]), ValueError,
                            "unknown ensemble kind ['x']"),
    "random_xparams_list": (lambda: random_xparams(1, ["any"]), ValueError,
                            "unknown constraint ['any']"),
    # an array of one value compares as that value: a bare TypeError where
    # math took it, or a silent array result
    "cp_boundary_one_element_array": (lambda: cp_boundary(np.array([0.6])), DomainError,
                                      "purity array([0.6]) outside [1/4, 1]"),
    "minset_state_one_element_array": (lambda: minset_state(np.array([0.6]), 0.0), DomainError,
                                       "purity array([0.6]) outside [1/3, 1]"),
    "minset_state_c_one_element_array": (lambda: minset_state(0.7, np.array([0.1])),
                                         OutOfDiagramError,
                                         "concurrence array([0.1]) outside [0, cp_boundary(p)]"
                                         f" = [0, {cp_boundary(0.7)!r}]"),
    **{f"scalar_{n}_one_element_array": (lambda fn=fn: fn(np.array([0.6])), DomainError, msg)
       for n, fn, msg in (("u", scalar_u, "purity array([0.6]) outside [1/2, 1]"),
                          ("v", scalar_v, "v undefined at purity array([0.6])"),
                          ("q", scalar_q, "purity array([0.6]) outside [1/2, 1]"),
                          ("r", scalar_r, "purity array([0.6]) outside [1/2, 1]"))},
    **{f"scalar_{n}_one_element_array": (
        lambda fn=fn: fn(0.5, np.array([0.1])), DomainError,
        f"w undefined: concurrence array([0.1]) outside [0, v] = [0, {scalar_v(0.5)!r}]")
       for n, fn in (("w", scalar_w), ("z", scalar_z))},
    "theorem_params_one_element_array": (lambda: theorem_params(0.7, np.array([0.1]), "r2k3"),
                                         DomainError, "concurrence array([0.1]) outside [0, 1]"),
    "theorem_params_p_one_element_array": (
        lambda: theorem_params(np.array([0.7]), 0.1, "r2k3"), DomainError,
        "purity array([0.7]) is not a real number"),
    "solve_tau_one_element_array": (lambda: solve_tau(WALK, SOL, np.array([0.1])),
                                    TargetOutOfRangeError,
                                    f"target array([0.1]) outside [0, {C0!r}] for concurrence"),
    "concurrence_along_one_element_array": (lambda: concurrence_along(WALK, SOL, np.array([0.5])),
                                            ValueError, "tau array([0.5]) outside [0, 1]"),
    "negativity_along_one_element_array": (lambda: negativity_along(WALK, SOL, np.array([0.5])),
                                           ValueError, "tau array([0.5]) outside [0, 1]"),
    # mems_from_spectrum: numpy's bare TypeError for a complex or an object
    "mems_from_spectrum_complex": (lambda: mems_from_spectrum([1j, 0, 0, 0]), ValueError,
                                   "spectrum [1j, 0, 0, 0] is not an array of real numbers"),
    "mems_from_spectrum_object": (lambda: mems_from_spectrum([Ellipsis, 0, 0, 0]), ValueError,
                                  "spectrum [Ellipsis, 0, 0, 0] is not an array of real numbers"),
    # a complex ndarray: numpy's cast dropped the imaginary parts with a ComplexWarning
    "mems_from_spectrum_complex_array": (
        lambda: mems_from_spectrum(np.array([0.4, 0.3, 0.2, 0.1 + 0j])), ValueError,
        "spectrum array([0.4+0.j, 0.3+0.j, 0.2+0.j, 0.1+0.j]) is not an array of real numbers"),
}


# fannes_ree_bound's call builds a matrix from its value
ARRAY_SITES = [name for name in SITES if name != "fannes_ree_bound"]


@pytest.mark.parametrize("name", ARRAY_SITES)
def test_an_array_of_one_value_raises_the_sites_error(name):
    # it compared as its value, then raised a bare TypeError where math
    # took it, or gave an array or a wrong result
    call, lo, hi, error = SITES[name]
    inside = (lo if hi is None else 0.5 * (lo + hi)) if lo is not None else hi
    with pytest.raises(ValueError) as err:
        call(np.array([inside]))
    assert type(err.value) is error


@pytest.mark.parametrize("spell", [np.complex128, np.array], ids=["scalar", "0-d array"])
@pytest.mark.parametrize("name", ARRAY_SITES)
def test_a_complex_numpy_value_raises_the_sites_error(name, spell):
    # numpy orders a complex value by its real part, so it passed the
    # range comparison, and math dropped its imaginary part with only a
    # ComplexWarning
    call, lo, hi, error = SITES[name]
    inside = (lo if hi is None else 0.5 * (lo + hi)) if lo is not None else hi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call(spell(inside + 0.1j))
    assert type(err.value) is error


@pytest.mark.parametrize("name", list(NON_NUMBERS))
def test_a_non_number_raises_the_sites_error(name):
    call, error, message = NON_NUMBERS[name]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_read_edge():
    assert _read_edge(0.5, 0.0, 1.0, ValueError, "{value}") == 0.5
    assert _read_edge(-0.5 * ROUNDOFF, 0.0, 1.0, ValueError, "{value}") == 0.0
    assert _read_edge(1.0 + ROUNDOFF, 0.0, 1.0, ValueError, "{value}") == 1.0
    # the message is formatted only when the value is rejected
    assert _read_edge(1.0, 0.0, 1.0, ValueError, "{no}") == 1.0
    with pytest.raises(KeyError):
        _read_edge(2.0, 0.0, 1.0, ValueError, "{no}")
    with pytest.raises(OutOfDiagramError, match=r"^2\.0 outside \[0\.0, 1\.0\]$"):
        _read_edge(2.0, 0.0, 1.0, OutOfDiagramError, "{value!r} outside [{lo!r}, {hi!r}]")


@pytest.mark.parametrize("c", [-0.5, 2.0])
def test_boundary_scalars_leave_w_and_z_none_for_a_real_c_outside_0_v(c):
    s = boundary_scalars(0.5, c)
    assert s.w is None and s.z is None
    assert s.v == scalar_v(0.5)


def test_boundary_scalars_read_a_purity_above_one_as_one():
    # v(p) read p above 1 as is, so w and z, weights of the rank-3
    # construction, went to -2.5e-13 and -5e-13 at p = 1 + 1e-12, and q
    # and u rose above 1
    above, edge = boundary_scalars(1.0 + 1e-12, 0.0), boundary_scalars(1.0, 0.0)
    assert above == edge
    assert (edge.u, edge.q) == (1.0, 1.0)


def test_a_negative_weight_within_roundoff_reads_as_zero_on_the_walk():
    # validate_params and to_density accepted x = -1e-13, while
    # conjugate_x took its square root: a RuntimeWarning and a NaN entry
    p, p0 = XParams(0.7, 0.6, 0.5, -1e-13, 0.01, 0.3, 0.2), _x_at(0.0)
    assert is_physical(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert conjugate_x(p, 0.3, 0.1, 0.2, 0.4) == conjugate_x(p0, 0.3, 0.1, 0.2, 0.4)
        sol, sol0 = disentangle_params(p), disentangle_params(p0)
        assert sol == sol0
        assert evolve(p, sol, 0.5) == evolve(p0, sol0, 0.5)


def test_minset_state_reads_a_concurrence_below_zero_as_zero():
    # rho_14 was c/2 = -5e-14 for c = -1e-13
    assert _bits(minset_state(0.5, -1e-13)) == _bits(minset_state(0.5, 0.0))


@pytest.mark.parametrize("p, variant, ceiling", [(0.7, "r2k3", scalar_u), (0.45, "r3k1", scalar_v)])
def test_theorem_params_read_a_concurrence_above_its_ceiling_as_the_ceiling(p, variant, ceiling):
    # phi (r2k3) or w (r3k1) came from the concurrence read as the ceiling,
    # but the weight c^2/4 from the concurrence as passed
    c = ceiling(p)
    assert theorem_params(p, c + 5e-13, variant) == theorem_params(p, c, variant)


@pytest.mark.parametrize("c", [-0.5, -5.0])
def test_scalar_w_and_z_reject_a_negative_concurrence(c):
    # w read c only from above: -0.5 gave w at c = 0.5, and -5.0 raised a
    # negative square-root argument instead of naming the range
    for fn in (scalar_w, scalar_z):
        with pytest.raises(DomainError, match=r"outside \[0, v\]"):
            fn(0.5, c)


def test_rank3_weights_are_zero_at_purity_one():
    # 1/3 - sqrt(v(1)^2/3)/2 rounds below 0: w was -5.55e-17, z -1.11e-16
    edge = boundary_scalars(1.0, 0.0)
    assert repr(scalar_w(1.0, 0.0)) == repr(edge.w) == "0.0"
    assert repr(scalar_z(1.0, 0.0)) == repr(edge.z) == "0.0"


@pytest.mark.parametrize("c", [2.0, float("inf"), -0.5])
def test_eof_from_concurrence_rejects_a_concurrence_outside_0_1(c):
    # max(1 - c*c, 0) read 2.0 and inf as 1
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        eof_from_concurrence(c)
    assert eof_from_concurrence(1.0 + 1e-13) == eof_from_concurrence(1.0) == 1.0
