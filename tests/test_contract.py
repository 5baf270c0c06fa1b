"""Domain contract of the unit and shift functions: over an edge-value grid,
each call returns finite floats or raises a coded MagicTrapError, never a
bare exception, inf or NaN."""
import itertools
import math

from magictrap.datafiles import depth_hz_from_mk, mk_from_depth_hz
from magictrap.dls import (
    TrapCoefficients,
    coeffs_from_atomic,
    dls,
    dls_minimum,
    effective_field,
    hz_from_kelvin,
    kelvin_from_hz,
    magic_depth,
    zero_crossing_field,
)
from magictrap.errors import MagicTrapError

EDGES = (0.0, -0.0, 5e-324, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308,
         math.inf, -math.inf, math.nan)


def outcome(function, *args):
    """function(*args), or None for a coded error; anything else raised
    fails the test."""
    try:
        return function(*args)
    except MagicTrapError as exc:
        assert exc.code != MagicTrapError.code, (function.__name__, args)
        return None


def assert_finite(value, *context):
    assert type(value) is float and math.isfinite(value), (value, *context)


def valid_coefficients():
    made = [outcome(TrapCoefficients, *betas)
            for betas in itertools.product(EDGES, repeat=3)]
    for coeffs in made:
        if coeffs is not None:
            for beta in (coeffs.beta1, coeffs.beta2, coeffs.beta4):
                assert_finite(beta, coeffs)
    return [coeffs for coeffs in made if coeffs is not None]


def test_coefficient_functions():
    for coeffs in valid_coefficients():
        field = outcome(zero_crossing_field, coeffs)
        if field is not None:
            assert_finite(field, coeffs)
        for b_field in EDGES:
            for function in (magic_depth, dls_minimum):
                value = outcome(function, coeffs, b_field)
                if value is not None:
                    assert_finite(value, function.__name__, coeffs, b_field)


def test_shift():
    # a zero and each size class of every coefficient: the full product of
    # valid coefficients with the grid would take over 0.1 s
    coefficients = [TrapCoefficients(*betas) for betas in itertools.product(
        (0.0, 1.0, -1e300, 1e308), (0.0, -1.0, 1e300), (0.0, 5e-324, 1.0, 1e308))]
    for coeffs in coefficients:
        for b_field, depth in itertools.product(EDGES, repeat=2):
            value = outcome(dls, coeffs, b_field, depth)
            if value is not None:
                assert_finite(value, coeffs, b_field, depth)


def test_atomic_and_field_functions():
    for ratio, other in itertools.product(EDGES, repeat=2):
        coeffs = outcome(coeffs_from_atomic, ratio, other)
        if coeffs is not None:
            for beta in (coeffs.beta1, coeffs.beta2, coeffs.beta4):
                assert_finite(beta, ratio, other)
        field = outcome(effective_field, ratio, other)
        if field is not None:
            assert_finite(field, ratio, other)


def test_unit_conversions():
    for function in (hz_from_kelvin, kelvin_from_hz, depth_hz_from_mk,
                     mk_from_depth_hz):
        for value in EDGES:
            result = outcome(function, value)
            if result is not None:
                assert math.isfinite(value), (function.__name__, value)
                assert_finite(result, function.__name__, value)
