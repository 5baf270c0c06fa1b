import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc

from magictrap import quadrature
from magictrap.errors import NumericalFailureError
from magictrap.quadrature import GAUSS_WEIGHTS, KRONROD_WEIGHTS, NODES, integrate


def test_rule_weights_sum_to_interval_length():
    assert KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)
    assert GAUSS_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("degree", range(0, 23, 2))
def test_kronrod_polynomial_exactness(degree):
    value = float((KRONROD_WEIGHTS * NODES**degree).sum())
    assert value == pytest.approx(2.0 / (degree + 1), abs=1e-12)


@pytest.mark.parametrize("degree", range(0, 14, 2))
def test_gauss_polynomial_exactness(degree):
    value = float((GAUSS_WEIGHTS * NODES[1::2] ** degree).sum())
    assert value == pytest.approx(2.0 / (degree + 1), abs=1e-12)


def test_exponential():
    (value,), _ = integrate(lambda x: np.exp(x)[None, :], 0.0, 3.0)
    assert value == pytest.approx(math.e**3 - 1.0, rel=1e-10)


def test_oscillatory_cosine():
    omega = 40.0
    (value,), _ = integrate(lambda x: np.cos(omega * x)[None, :], 0.0, 5.0,
                            rtol=1e-10, atol=1e-14)
    assert value == pytest.approx(math.sin(omega * 5.0) / omega, abs=1e-12)


def test_complex_phasor():
    # characteristic-function style integrand
    (value,), _ = integrate(lambda x: np.exp(1j * 7.0 * x)[None, :], 0.0, 2.0,
                            rtol=1e-10, atol=1e-14)
    exact = (np.exp(14j) - 1.0) / 7j
    assert abs(value - exact) < 1e-12


def test_gamma_density_tail():
    def density(x):
        return (0.5 * x * x * np.exp(-x))[None, :]

    (value,), _ = integrate(density, 0.0, 40.0, rtol=1e-10)
    assert value == pytest.approx(float(gammainc(3.0, 40.0)), rel=1e-9)


def test_stacked_components_share_partition():
    def stacked(x):
        return np.stack([np.exp(1j * 25.0 * x) * np.exp(-x),
                         np.exp(-x).astype(complex)])

    (num, den), _ = integrate(stacked, 0.0, 10.0, rtol=1e-9, atol=1e-13)
    exact_num = (1.0 - np.exp((25j - 1) * 10.0)) / (1.0 - 25j)
    assert abs(num - exact_num) < 1e-9
    assert den.real == pytest.approx(1.0 - math.exp(-10.0), rel=1e-9)


def test_degenerate_interval():
    values, errors = integrate(lambda x: np.exp(x)[None, :], 2.0, 2.0)
    assert values[0] == 0.0
    assert errors[0] == 0.0


def test_nonconvergence_reports_diagnostics(monkeypatch):
    def nasty(x):
        return np.cos(5e4 * x)[None, :]

    monkeypatch.setattr(quadrature, "MAX_PANELS", 32)
    with pytest.raises(NumericalFailureError) as info:
        integrate(nasty, 0.0, 10.0, rtol=1e-12, atol=1e-16)
    diagnostics = info.value.diagnostics
    assert diagnostics["panels"] > diagnostics["max_panels"] == 32
    assert diagnostics["error"][0] > diagnostics["tolerance"][0]


def test_start_past_the_cap_evaluates_nothing():
    calls = []

    def f(x):
        calls.append(x.size)
        return x[None, :]

    with pytest.raises(NumericalFailureError) as info:
        integrate(f, 0.0, 1.0, panels=quadrature.MAX_PANELS + 1)
    assert calls == []
    assert info.value.diagnostics["panels"] == quadrature.MAX_PANELS + 1


def test_memory_stays_bounded_at_large_panel_counts():
    # one array over all 2**18 panels of a two-component complex integrand
    # would take 126 MB
    def stacked(x):
        return np.stack([np.exp(1j * x), np.exp(-x).astype(complex)])

    tracemalloc.start()
    try:
        (num, den), _ = integrate(stacked, 0.0, 1.0, panels=2**18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert abs(num - (np.exp(1j) - 1.0) / 1j) < 1e-12
    assert den.real == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
