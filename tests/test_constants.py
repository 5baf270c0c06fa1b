import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from magictrap.dls import (
    BOHR_MAGNETON_OVER_H,
    BOLTZMANN_KB,
    KB_OVER_H,
    PLANCK_H,
    RB87_HYPERFINE_NU0,
    hz_from_kelvin,
    kelvin_from_hz,
)
from magictrap.errors import InvalidArgumentError


def test_constants_positive():
    assert PLANCK_H > 0
    assert BOLTZMANN_KB > 0
    assert BOHR_MAGNETON_OVER_H > 0
    assert RB87_HYPERFINE_NU0 > 0


def test_kb_over_h_value():
    # 2.083661e10 Hz/K to 6 significant digits
    assert KB_OVER_H == pytest.approx(2.083661e10, rel=5e-7)


def test_zero_maps_to_zero():
    assert hz_from_kelvin(0.0) == 0.0
    assert kelvin_from_hz(0.0) == 0.0


def test_known_conversions():
    assert hz_from_kelvin(0.17e-3) == pytest.approx(3.5422e6, rel=1e-4)
    assert hz_from_kelvin(17e-6) == pytest.approx(3.5422e5, rel=1e-4)
    assert kelvin_from_hz(3.5422e6) == pytest.approx(1.70e-4, rel=1e-4)


def test_signed_conversion():
    assert hz_from_kelvin(-1e-3) == -hz_from_kelvin(1e-3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_nonfinite_rejected(bad):
    with pytest.raises(InvalidArgumentError):
        hz_from_kelvin(bad)
    with pytest.raises(InvalidArgumentError):
        kelvin_from_hz(bad)


@given(st.floats(min_value=1e-3, max_value=1e12),
       st.sampled_from([1.0, -1.0]))
def test_round_trip(magnitude, sign):
    x = sign * magnitude
    assert hz_from_kelvin(kelvin_from_hz(x)) == pytest.approx(x, rel=1e-12)
    assert kelvin_from_hz(hz_from_kelvin(x)) == pytest.approx(x, rel=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=-1e3, max_value=1e3))
def test_linearity(temperature, scale):
    lhs = hz_from_kelvin(scale * temperature)
    rhs = scale * hz_from_kelvin(temperature)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-6)
