"""The package's one input-scale rule.

Every 4x4 input, and the four values the MEMS is built from, is read
once by matrix_core._scale_problem: a NaN or infinite entry is
rejected as NON_FINITE, entry magnitudes summing above ENTRY_SCALE as
OUT_OF_SCALE. Every route then either gives that reason or, on an
admitted input, finite values or its own typed error, never a numpy
warning.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from xtangle import (
    CounterpartResult,
    OutOfRegimeError,
    Spectrum,
    XParams,
    concurrence_general,
    concurrence_x,
    conjugate,
    counterpart_details,
    eof,
    fannes_ree_bound,
    from_density,
    hermitian_eig,
    hermitian_eigvals,
    is_density_matrix,
    is_unitary,
    is_x_form,
    mems_from_spectrum,
    negativity_general,
    negativity_x,
    numerical_rank,
    partial_transpose,
    purity_general,
    random_density,
    random_unitary,
    random_xparams,
    to_density,
    trace_norm,
    verstraete_unitary,
)
from xtangle.matrix_core import (
    ENTRY_SCALE,
    NON_FINITE,
    OUT_OF_SCALE,
    _scale_problem,
    density_spectrum,
)
from xtangle.xstate import UnphysicalError

from reference_states import MAX_MIXED

PREFIXED = f"not a density matrix: {OUT_OF_SCALE}"

# routes that raise ValueError(reason) on a rejected 4x4 input, with the
# message they give for OUT_OF_SCALE
RAISING = {
    "hermitian_eig": (hermitian_eig, OUT_OF_SCALE),
    "hermitian_eigvals": (hermitian_eigvals, OUT_OF_SCALE),
    "density_spectrum": (density_spectrum, PREFIXED),
    "purity_general": (purity_general, OUT_OF_SCALE),
    "negativity_general": (negativity_general, OUT_OF_SCALE),
    "concurrence_general": (concurrence_general, OUT_OF_SCALE),
    "numerical_rank": (numerical_rank, OUT_OF_SCALE),
    "eof": (eof, OUT_OF_SCALE),
    "verstraete_unitary": (verstraete_unitary, OUT_OF_SCALE),
    "counterpart_concurrence": (lambda m: counterpart_details(m, "concurrence"), PREFIXED),
    "counterpart_negativity": (lambda m: counterpart_details(m, "negativity"), PREFIXED),
    "concurrence_x": (concurrence_x, OUT_OF_SCALE),
    "negativity_x": (negativity_x, OUT_OF_SCALE),
    "from_density": (from_density, OUT_OF_SCALE),
    "trace_norm": (trace_norm, OUT_OF_SCALE),
    "partial_transpose": (partial_transpose, OUT_OF_SCALE),
    "fannes_rho1": (lambda m: fannes_ree_bound(m, MAX_MIXED), OUT_OF_SCALE),
    # the difference of equal inputs is 0, which hid them
    "fannes_both": (lambda m: fannes_ree_bound(m, m), OUT_OF_SCALE),
    "conjugate_rho": (lambda m: conjugate(m, np.eye(4)), OUT_OF_SCALE),
    "conjugate_u": (lambda m: conjugate(MAX_MIXED, m), OUT_OF_SCALE),
}
# routes that answer a rejected input with False
PREDICATES = {"is_x_form": is_x_form, "is_unitary": is_unitary}


def _out_of_scale_inputs():
    # Hermitian with a finite entry whose magnitude overflows Python's abs
    huge = MAX_MIXED.astype(complex)
    huge[0, 1] = complex(1.5e308, 1.5e308)
    huge[1, 0] = huge[0, 1].conjugate()
    # Hermitian and X-form, with a coherence far above the scale
    coherence = MAX_MIXED.astype(complex)
    coherence[0, 3] = coherence[3, 0] = 1e200
    return {"huge_01": huge, "coherence_1e200": coherence}


OUT_OF_SCALE_INPUTS = _out_of_scale_inputs()


def _raises_exactly(fn, arg, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            fn(arg)
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("name", sorted(OUT_OF_SCALE_INPUTS))
@pytest.mark.parametrize("route", sorted(RAISING))
def test_out_of_scale_input_raises_its_reason(route, name):
    fn, message = RAISING[route]
    _raises_exactly(fn, OUT_OF_SCALE_INPUTS[name], message)


# and a Python int too large for a float, which as_matrix rejects
PREDICATE_INPUTS = OUT_OF_SCALE_INPUTS | {"huge_int": [[10**400] * 4] * 4}


@pytest.mark.parametrize("name", sorted(PREDICATE_INPUTS))
def test_out_of_scale_input_fails_the_predicates(name):
    m = PREDICATE_INPUTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_density_matrix(m) == (False, OUT_OF_SCALE)
        for fn in PREDICATES.values():
            assert fn(m) is False
        # a route's tolerance does not admit it either
        assert is_x_form(m, tol=np.finfo(float).max) is False


@pytest.mark.parametrize("spectrum", [(1e308, 1e308, 1e308, 0.0), (1e200, 0.25, 0.25, 0.25),
                                      (10**400, 0, 0, 0)],
                         ids=["sum_overflows", "1e200", "huge_int"])
def test_mems_from_spectrum_reads_its_four_values(spectrum):
    # the sum 1e308 + 1e308 warned of an overflow
    _raises_exactly(mems_from_spectrum, spectrum, OUT_OF_SCALE)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_fannes_ree_bound_reads_each_argument(value):
    # inf - inf warned of an invalid subtraction
    m = MAX_MIXED.astype(complex)
    m[0, 3] = m[3, 0] = value
    _raises_exactly(lambda a: fannes_ree_bound(a, a), m, NON_FINITE)
    _raises_exactly(lambda a: fannes_ree_bound(MAX_MIXED, a), m, NON_FINITE)


@pytest.mark.parametrize("value, reason", [
    (np.nan, NON_FINITE), (np.inf, NON_FINITE), (complex(0.0, -np.inf), NON_FINITE),
    (1e200, OUT_OF_SCALE), (complex(1.5e308, 1.5e308), OUT_OF_SCALE),
], ids=["nan", "inf", "imag_inf", "1e200", "huge"])
def test_partial_transpose_reads_its_input(value, reason):
    # it returned the NaN, inf or out-of-scale entries transposed
    m = MAX_MIXED.astype(complex)
    m[0, 3] = value
    _raises_exactly(partial_transpose, m, reason)
    assert partial_transpose(MAX_MIXED).tobytes() == MAX_MIXED.astype(complex).tobytes()


def test_fannes_ree_bound_does_not_read_the_difference():
    # two admitted arguments whose difference sums to 1.8e100: it is no
    # input, so the bound's range decides, as for (I, -I)
    m = np.full((4, 4), 0.9 * ENTRY_SCALE / 16)
    for a in (m, np.eye(4)):
        with pytest.raises(OutOfRegimeError, match="^trace distance .* exceeds 1/3$"):
            fannes_ree_bound(a, -a)


def test_scale_read_reasons():
    assert _scale_problem([ENTRY_SCALE] + [0.0] * 15) == ""
    assert _scale_problem([math.nextafter(ENTRY_SCALE, math.inf)]) == OUT_OF_SCALE
    assert _scale_problem([complex(1.5e308, 1.5e308)]) == OUT_OF_SCALE
    assert _scale_problem([1.5e308, 1.5e308]) == OUT_OF_SCALE
    # a NaN or infinite value is non-finite wherever it sits, whatever the rest
    for bad in (math.nan, math.inf, complex(0.0, -math.inf), complex(math.nan, 1e308)):
        assert _scale_problem([bad, 0.25]) == NON_FINITE
        assert _scale_problem([complex(1.5e308, 1.5e308), bad]) == NON_FINITE
    assert ENTRY_SCALE ** 3 < np.finfo(float).max


# ---- at the bound ------------------------------------------------------------

def _at_bound(m):
    """m scaled to half the bound, then its (3,3) entry, read last, set to
    the real value that brings its entry magnitudes to exactly
    ENTRY_SCALE: Hermitian and X-form inputs stay so."""
    out = m * (0.5 * ENTRY_SCALE / sum(map(abs, m.ravel().tolist())))
    d = ENTRY_SCALE - sum(map(abs, out.ravel().tolist()[:15]))
    for _ in range(64):
        out[3, 3] = d
        total = sum(map(abs, out.ravel().tolist()))
        if total == ENTRY_SCALE:
            return out
        d = math.nextafter(d, -math.inf if total > ENTRY_SCALE else math.inf)
    raise AssertionError("no (3,3) entry brings the sum to the bound")


def _just_above(m):
    """m with its (3,3) entry raised until its magnitudes sum to the next
    float above ENTRY_SCALE."""
    out = m.copy()
    while sum(map(abs, out.ravel().tolist())) <= ENTRY_SCALE:
        out[3, 3] = math.nextafter(out[3, 3].real, math.inf)
    assert sum(map(abs, out.ravel().tolist())) == math.nextafter(ENTRY_SCALE, math.inf)
    return out


def _bound_inputs():
    for seed in range(6):
        yield f"hermitian{seed}", _at_bound(random_density(seed))
        yield f"unitary{seed}", _at_bound(random_unitary(seed))
        yield f"x_form{seed}", _at_bound(to_density(random_xparams(seed, "entangled")))


BOUND_INPUTS = dict(_bound_inputs())


def _finite(value):
    if isinstance(value, Spectrum):
        return _finite(value.values) and _finite(value.eigvecs)
    if isinstance(value, CounterpartResult):
        return _finite(value.state) and _finite(value.unitary)
    if isinstance(value, XParams):
        return _finite(dataclasses.astuple(value))
    return bool(np.isfinite(np.asarray(value)).all())


@pytest.mark.parametrize("name", sorted(BOUND_INPUTS))
def test_at_the_bound_every_route_is_finite_or_typed(name):
    m = BOUND_INPUTS[name]
    assert sum(map(abs, m.ravel().tolist())) == ENTRY_SCALE
    assert _scale_problem(m.ravel().tolist()) == ""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route, (fn, _) in RAISING.items():
            try:
                value = fn(m)
            except ValueError as exc:
                # its own check, not the scale read
                assert str(exc) not in (OUT_OF_SCALE, NON_FINITE), route
                assert not str(exc).endswith(OUT_OF_SCALE), route
                continue
            assert _finite(value), route
        assert is_density_matrix(m)[1] not in (OUT_OF_SCALE, NON_FINITE)
        assert is_unitary(m) is False
        assert isinstance(is_x_form(m), bool)
        # the walk's bound on the product: both arguments at the bound
        for other in ("hermitian0", "unitary0", "x_form0"):
            assert _finite(conjugate(m, BOUND_INPUTS[other]))
            assert _finite(conjugate(BOUND_INPUTS[other], m))
        with pytest.raises(ValueError):
            fannes_ree_bound(m, 0.5 * m)


@pytest.mark.parametrize("name", sorted(BOUND_INPUTS))
def test_the_next_float_above_the_bound_is_out_of_scale(name):
    m = _just_above(BOUND_INPUTS[name])
    for route, (fn, message) in RAISING.items():
        if route != "fannes_rho1":
            _raises_exactly(fn, m, message)
    assert is_density_matrix(m) == (False, OUT_OF_SCALE)
    assert is_x_form(m) is False
    _raises_exactly(lambda u: conjugate(BOUND_INPUTS["hermitian0"], u), m, OUT_OF_SCALE)


def test_chart_and_mems_values_at_the_bound():
    above = math.nextafter(ENTRY_SCALE, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an at-scale diagonal entry is admitted by the scale read, then
        # has no chart point: the diagonal read's typed error
        with pytest.raises(UnphysicalError):
            from_density(np.diag([ENTRY_SCALE, 0.0, 0.0, 0.0]).astype(complex))
        assert _finite(mems_from_spectrum((ENTRY_SCALE, 0.0, 0.0, 0.0)))
    _raises_exactly(mems_from_spectrum, (0.0, 0.0, 0.0, above), OUT_OF_SCALE)
