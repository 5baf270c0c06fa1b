import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def reference_integrate(f, a, b, rtol=1e-8, atol=0.0, panels=16):
    """Panel-by-panel GK15/G7 over the same partition, with separate K15 and
    G7 sums per panel: edges as np.linspace would place them, then each
    panel's midpoint and half-width. The fused pass must agree with it."""
    while panels <= quadrature.MAX_PANELS:
        step = (b - a) / panels
        values = errors = 0.0
        for start in range(0, panels, quadrature.CHUNK_PANELS):
            stop = min(start + quadrature.CHUNK_PANELS, panels)
            edges = np.arange(start, stop + 1) * step + a
            if stop == panels:
                edges[-1] = b
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            x = (mid[:, None] + half[:, None] * NODES[None, :]).ravel()
            fx = np.atleast_2d(f(x))
            fx = fx.reshape(fx.shape[0], mid.size, NODES.size)
            k15 = (fx * KRONROD_WEIGHTS).sum(axis=2) * half
            g7 = (fx[:, :, 1::2] * GAUSS_WEIGHTS).sum(axis=2) * half
            values = values + k15.sum(axis=1)
            errors = errors + np.abs(k15 - g7).sum(axis=1)
        tol = np.maximum(rtol * np.abs(values), atol)
        if np.all(errors <= tol):
            return values, errors
        panels *= 2
    raise NumericalFailureError("quadrature failed to converge",
                                diagnostics={"panels": int(panels)})


def wavy(decay, omega, depth):
    """Two smooth complex components whose real parts stay positive, so
    neither integral cancels. At 20 rad or more per panel K15 - G7 is a
    percent of each panel's value, far above rounding."""
    def f(x):
        return np.stack([np.exp(decay * x) * (1.0 + depth * np.exp(1j * omega * x)),
                         (1.0 + depth * np.cos(omega * x)).astype(complex)])
    return f


def mismatch(f, a, b, panels):
    """Largest relative gap of the values and of the error estimates
    between the fused pass and the reference, one pass each."""
    values, errors = integrate(f, a, b, atol=math.inf, panels=panels)
    ref_values, ref_errors = reference_integrate(f, a, b, atol=math.inf,
                                                 panels=panels)
    return (np.max(np.abs(values - ref_values) / np.abs(ref_values)),
            np.max(np.abs(errors - ref_errors) / ref_errors))


# Nodes placed by the two formulas differ in their last bits, which moves
# the phase by omega * ulp(x); few, wide panels keep that below the bounds.
@settings(deadline=None, derandomize=True)
@given(panels=st.integers(1, 200), chunk=st.integers(1, 256),
       a=st.floats(-0.5, 0.5), width=st.floats(0.5, 10.0),
       decay=st.floats(-1.0, 1.0), phase=st.floats(20.0, 30.0),
       depth=st.floats(0.3, 0.5))
def test_fused_pass_matches_panel_by_panel_reference(panels, chunk, a, width,
                                                    decay, phase, depth):
    # phase: radians the fast part turns across one panel; a: in widths
    f = wavy(decay, phase * panels / width, depth)
    with mock.patch.object(quadrature, "CHUNK_PANELS", chunk):
        value_gap, error_gap = mismatch(f, a * width, (a + 1.0) * width, panels)
    assert value_gap <= 1e-13
    assert error_gap <= 1e-10


@pytest.mark.parametrize("name", ["UNIT_KRONROD", "UNIT_ERROR"])
def test_a_wrong_weight_fails_the_reference_check(monkeypatch, name):
    weights = getattr(quadrature, name).copy()
    weights[3] *= 1.0 + 1e-9
    monkeypatch.setattr(quadrature, name, weights)
    value_gap, error_gap = mismatch(wavy(0.3, 200.0, 0.4), 0.0, 2.0, 16)
    assert value_gap > 1e-13 or error_gap > 1e-10


def logged(f, log):
    def wrapper(x):
        log.append(x.size)
        return f(x)
    return wrapper


@pytest.mark.parametrize("omega,rounds", [(2.0, 1), (35.0, 2)])
def test_call_log_matches_reference(omega, rounds):
    # converges on the first pass of 16 panels, or after one doubling
    f = wavy(-0.5, omega, 0.3)
    fused, reference = [], []
    values, errors = integrate(logged(f, fused), 0.0, 3.0, rtol=1e-10)
    ref_values, ref_errors = reference_integrate(logged(f, reference), 0.0, 3.0,
                                                 rtol=1e-10)
    assert fused == reference == [240 * 2**k for k in range(rounds)]
    assert np.max(np.abs(values - ref_values) / np.abs(ref_values)) <= 1e-13


def test_call_log_matches_reference_up_to_the_cap(monkeypatch):
    # 16 ... 4096 panels in one call each, then 8192 and 16384 in chunks
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2**14)
    f = wavy(0.0, 5e4, 0.3)
    fused, reference = [], []
    with pytest.raises(NumericalFailureError) as info:
        integrate(logged(f, fused), 0.0, 10.0, rtol=1e-12)
    with pytest.raises(NumericalFailureError) as ref_info:
        reference_integrate(logged(f, reference), 0.0, 10.0, rtol=1e-12)
    assert fused == reference
    chunk = 15 * quadrature.CHUNK_PANELS
    assert fused == [240 * 2**k for k in range(9)] + [chunk] * 6
    assert info.value.diagnostics["panels"] == ref_info.value.diagnostics["panels"]
