"""The package's value types (``fock._Record``): constructor, immutability,
repr, equality, hashing and cached properties, as frozen dataclasses gave.

Each record class is built from a valid example, positionally and by
keyword, and probed for every behaviour its callers rely on.  The table
covers every record class of the package; a new one fails
``test_every_record_class_has_an_example`` until it is listed.
"""

import functools
import math

import numpy as np
import pytest

from condibeam import (beamsplitter, cats, conditional, fock, ordering, phasespace,
                       twomode)
from condibeam.fock import _Record

MODULES = (beamsplitter, cats, conditional, fock, ordering, phasespace, twomode)


def _grid(i):
    axis = phasespace.Axis("x", -1.0, 1.0 + i, 3)
    return phasespace.PhaseGrid(axis, axis)


def _y(i):
    bs = beamsplitter.BeamSplitterParams(math.pi / 4)
    return conditional.y_displaced_fock(1, i, 0.3, -0.2j, bs, fock.TruncationPolicy(16))


# class name -> (an example built from i = 0 or 1, the two differing in a
# field; its equality: "value" (fields all hashable), "array" (an array
# field, so unhashable) or "identity" (eq=False); its defaults; its cached
# properties)
EXAMPLES = {
    "TruncationPolicy": (lambda i: fock.TruncationPolicy(32 + i, 1e-9), "value",
                         {"tail_tol": 1e-9}, ()),
    "FockVector": (lambda i: fock.FockVector(np.arange(9.0) + i, 8), "array", {}, ()),
    "FockOperator": (lambda i: fock.FockOperator(np.eye(9) * (1 + i), 8), "array", {}, ()),
    "BandedOperator": (lambda i: fock.BandedOperator(np.ones((9, 3)) * (1 + i), 1, 8, 0.5),
                       "identity", {"tail": 0.0}, ("norm", "mat")),
    "DensityOperator": (lambda i: fock.DensityOperator(np.eye(9) / (9 + i), 8), "array", {},
                        ()),
    "Axis": (lambda i: phasespace.Axis("x", -1.0, 1.0 + i, 5), "value", {}, ()),
    "PhaseGrid": (_grid, "value", {}, ()),
    "GridFunction": (lambda i: phasespace.GridFunction(np.zeros((3, 3)) + i, _grid(0),
                                                       "husimi"), "array", {}, ()),
    "IntegrationSpec": (lambda i: phasespace.IntegrationSpec(4.0 + i, 0.02), "value", {}, ()),
    "BeamSplitterParams": (lambda i: beamsplitter.BeamSplitterParams(0.3 + i, 0.1, 0.2),
                           "value", {"phi_t": 0.0, "phi_r": 0.0}, ()),
    "OperatorPolynomial": (lambda i: beamsplitter.OperatorPolynomial((1.0, 0.5 + i)), "value",
                           {}, ()),
    "ReferencePrep": (lambda i: beamsplitter.ReferencePrep(
        beamsplitter.OperatorPolynomial.one(), 0.5j + i), "value", {"displacement": 0j}, ()),
    "TwoModeState": (lambda i: twomode.TwoModeState(np.ones((9, 9)) * (1 + i), 8), "array", {},
                     ()),
    "PhotonCountingPovm": (lambda i: twomode.PhotonCountingPovm(np.eye(9), 1.0 - i / 2, 8),
                           "array", {}, ()),
    "CatSpec": (lambda i: cats.CatSpec(2 + i, 1.0 + 0.5j, 1), "value", {"k": 1},
                ("chi_sum",)),
    "ConditionalOperator": (_y, "identity", {}, ("ref_mass", "band")),
    "OrderedMonomialSpec": (lambda i: ordering.OrderedMonomialSpec(1, 2 + i, 3.0), "value", {},
                            ()),
}


def test_every_record_class_has_an_example():
    found = {name for module in MODULES for name, obj in vars(module).items()
             if isinstance(obj, type) and issubclass(obj, _Record) and obj is not _Record
             and obj.__module__ == module.__name__}
    assert found == set(EXAMPLES)


def same_fields(a, b):
    """Every field of the record a is the same value as in b."""
    for name in type(a).__annotations__:
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y), name
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        elif isinstance(x, dict):
            assert x.keys() == y.keys()
            for key in x:
                np.testing.assert_array_equal(x[key], y[key])
        else:
            assert x == y or x is y, name


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_record(name):
    build, equality, defaults, cached = EXAMPLES[name]
    record = build(0)
    cls = type(record)
    assert cls.__name__ == name
    fields = list(cls.__annotations__)
    values = [getattr(record, field) for field in fields]

    # construction, positional and by keyword, and the defaults
    same_fields(cls(*values), record)
    same_fields(cls(**dict(zip(fields, values))), record)
    same_fields(cls(values[0], **dict(zip(fields[1:], values[1:]))), record)
    required = len(fields) - len(defaults)
    assert fields[required:] == list(defaults)
    for short in (cls(*values[:required]), cls(**dict(zip(fields[:required], values)))):
        assert {field: getattr(short, field) for field in defaults} == defaults

    # a call whose arguments do not match the fields
    with pytest.raises(TypeError, match="missing required argument"):
        cls()
    with pytest.raises(TypeError, match="missing required argument"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{fields[0]}'"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match="at most"):
        cls(*values, None)

    # immutable: assignment and deletion raise AttributeError
    for field in [*fields, "bogus"]:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, field, values[0])
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, field)
    same_fields(record, build(0))

    # the repr names the class and its fields, in order
    text = repr(record)
    assert text.startswith(f"{name}(") and text.endswith(")")
    positions = [text.index(f"{sep}{field}=")
                 for sep, field in zip(["("] + [", "] * len(fields), fields)]
    assert positions == sorted(positions)

    # equality and hashing
    other, twin = build(1), cls(*values)
    assert record == record and record != object()
    if equality == "value":
        assert record == twin and hash(record) == hash(twin) == hash(tuple(values))
        assert record != other
    elif equality == "array":
        # the fields compare as a tuple: equal where the frozen arrays are
        # shared, ambiguous where they differ, and an array is unhashable
        assert record == twin
        with pytest.raises(ValueError, match="ambiguous"):
            record == other
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert record != twin and record != other
        assert hash(record) == object.__hash__(record)

    # cached properties: computed once, kept in the instance dict
    for prop in cached:
        assert isinstance(vars(cls)[prop], functools.cached_property)
        first = getattr(record, prop)
        assert getattr(record, prop) is first and vars(record)[prop] is first
