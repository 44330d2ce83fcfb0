"""The package's records (matrix_core._record) behave as the frozen
dataclasses they were declared as, with only __init__ replaced."""

import copy
import dataclasses
import inspect
import pickle

import pytest

import xtangle
from xtangle import (
    BoundaryScalars,
    CharPolyCoeffs,
    CounterpartResult,
    DisentangleSolution,
    PathPoint,
    RankClass,
    Spectrum,
    XCoeffs,
    XParams,
)

# every record, with hashable field values: the records check no types
RECORDS = {
    XParams: (0.1, 0.2, 0.3, 0.04, 0.05, 0.6, 0.7),
    XCoeffs: (0.5, 0.5, 0.06, 0.04, 0.1, 0.3),
    RankClass: (2, 1),
    CharPolyCoeffs: (1.0, 0.2, 0.03, 0.004),
    Spectrum: ((0.4, 0.3, 0.2, 0.1), "eigvecs"),
    DisentangleSolution: (0.1, 0.2, 0.0, 0.0, 0.3, 0.1, 0.5, 1, "GgtH"),
    PathPoint: (0.5, XParams(0.1, 0.2, 0.3, 0.0, 0.0), 0.2, 0.1),
    CounterpartResult: ("state", "unitary", 0.5, "g_zero", "concurrence", 0.3, 0.3, 0.0,
                        (0.4, 0.3, 0.2, 0.1)),
    BoundaryScalars: (0.9, 0.8, None, None, 0.7, 0.6),
}


def twin(cls):
    """A @dataclass(frozen=True) built from cls's fields, as cls was
    declared before its records were built through _record."""
    fields = [(f.name, f.type) if f.default is dataclasses.MISSING
              else (f.name, f.type, dataclasses.field(default=f.default))
              for f in dataclasses.fields(cls)]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def _values(rec):
    """rec's field values, not recursed into as astuple does."""
    return tuple(getattr(rec, f.name) for f in dataclasses.fields(rec))


def _type_error(make):
    with pytest.raises(TypeError) as err:
        make()
    return str(err.value)


def test_every_record_of_the_package_is_listed():
    found = {obj for name in dir(xtangle) for obj in [getattr(xtangle, name)]
             if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert found == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_frozen_dataclass_twin(cls):
    values = RECORDS[cls]
    other, names = twin(cls), [f.name for f in dataclasses.fields(cls)]
    rec, ref = cls(*values), other(*values)
    # construction by position, by keyword and with the defaults
    assert _values(rec) == values
    assert cls(**dict(zip(names, values))) == rec
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    assert _values(cls(*values[:required])) == _values(other(*values[:required]))
    assert inspect.signature(cls) == inspect.signature(other)
    assert cls.__match_args__ == other.__match_args__
    # equality, hash and repr
    assert rec == cls(*values) and rec != ref
    assert hash(rec) == hash(ref)
    assert repr(rec) == repr(ref)
    # frozen
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, names[0], values[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(rec, names[0])
    assert _values(rec) == values
    # the dataclasses functions
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(other)]
    changed = dataclasses.replace(rec, **{names[-1]: values[0]})
    assert changed == cls(*values[:-1], values[0])
    assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
    # copies and pickles
    for got in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(got) is cls and got == rec
    # the TypeError of a missing, an extra and an unknown argument
    assert _type_error(cls) == _type_error(other)
    assert _type_error(lambda: cls(*values, 0)) == _type_error(lambda: other(*values, 0))
    assert _type_error(lambda: cls(*values, extra=0)) == _type_error(
        lambda: other(*values, extra=0))


def test_rank_class_still_checks_its_pair():
    with pytest.raises(ValueError, match="no rank-2 class of kind 4"):
        RankClass(2, 4)
    with pytest.raises(ValueError, match="no rank-2 class of kind 4"):
        twin(RankClass)(2, 4)
