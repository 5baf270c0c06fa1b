import math
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
    (value,) = integrate(lambda x: np.exp(x)[None, :], panels=1)
    assert value == pytest.approx(math.e - 1.0, rel=1e-14)


def test_oscillatory_cosine():
    omega = 40.0
    (value,) = integrate(lambda x: np.cos(omega * x)[None, :], panels=16)
    assert value == pytest.approx(math.sin(omega) / omega, abs=1e-13)


def test_complex_phasor():
    # characteristic-function style integrand
    (value,) = integrate(lambda x: np.exp(14j * x)[None, :], panels=8)
    exact = (np.exp(14j) - 1.0) / 14j
    assert abs(value - exact) < 1e-13


def test_gamma_density_tail():
    # x**2/2 * exp(-x) over [0, 40], on x = 40 * u
    def density(u):
        return (40.0 * 0.5 * (40.0 * u) ** 2 * np.exp(-40.0 * u))[None, :]

    (value,) = integrate(density, panels=32)
    assert value == pytest.approx(float(gammainc(3.0, 40.0)), rel=1e-13)


def test_stacked_components_share_partition():
    # exp((25j - 1) * x) and exp(-x) over [0, 10], on x = 10 * u
    def stacked(u):
        x = 10.0 * u
        return 10.0 * np.stack([np.exp(1j * 25.0 * x) * np.exp(-x),
                                np.exp(-x).astype(complex)])

    num, den = integrate(stacked, panels=128)
    exact_num = (1.0 - np.exp((25j - 1) * 10.0)) / (1.0 - 25j)
    assert abs(num - exact_num) < 1e-12
    assert den.real == pytest.approx(1.0 - math.exp(-10.0), rel=1e-13)


def logged(f, log):
    def wrapper(x):
        log.append(x.size)
        fx = f(x)
        log.append(fx.shape)
        return fx
    return wrapper


def test_nonconvergence_reports_diagnostics():
    # the smooth component meets the tolerance, the fast one misses it, and
    # the one pass is all the integrand sees
    def mixed(x):
        return np.stack([np.exp(-x), np.cos(5e4 * x)])

    log = []
    with pytest.raises(NumericalFailureError) as info:
        integrate(logged(mixed, log), panels=32)
    assert info.value.code == "numerical-failure"
    assert log == [32 * 15, (2, 32 * 15)]
    diagnostics = info.value.diagnostics
    assert diagnostics["panels"] == 32
    (smooth_error, fast_error), (smooth_tol, fast_tol) = (
        diagnostics["error"], diagnostics["tolerance"])
    assert smooth_error <= smooth_tol
    assert fast_error > fast_tol == quadrature.ATOL


def reference_integrate(f, panels):
    """Panel-by-panel GK15/G7 over the same partition of [0, 1], with separate
    K15 and G7 sums per panel: edges as np.linspace would place them, then
    each panel's midpoint and half-width. Returns (values, errors) of the one
    pass, with no tolerance; the fused pass must agree with it."""
    edges = np.arange(panels + 1) * (1.0 / panels)
    edges[-1] = 1.0
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * NODES[None, :]).ravel()
    fx = np.atleast_2d(f(x))
    fx = fx.reshape(fx.shape[0], panels, NODES.size)
    k15 = (fx * KRONROD_WEIGHTS).sum(axis=2) * half
    g7 = (fx[:, :, 1::2] * GAUSS_WEIGHTS).sum(axis=2) * half
    return k15.sum(axis=1), np.abs(k15 - g7).sum(axis=1)


def one_pass(f, panels):
    """The fused pass's values and its error estimates, the latter read from
    the diagnostics of a call whose tolerance nothing can meet."""
    with mock.patch.object(quadrature, "ATOL", math.inf):
        values = integrate(f, panels=panels)
    with mock.patch.multiple(quadrature, RTOL=-math.inf, ATOL=-math.inf):
        with pytest.raises(NumericalFailureError) as info:
            integrate(f, panels=panels)
    return values, np.array(info.value.diagnostics["error"])


def wavy(decay, omega, depth):
    """Two smooth complex components whose real parts stay positive, so
    neither integral cancels. At 20 rad or more per panel K15 - G7 is a
    percent of each panel's value, far above rounding."""
    def f(x):
        return np.stack([np.exp(decay * x) * (1.0 + depth * np.exp(1j * omega * x)),
                         (1.0 + depth * np.cos(omega * x)).astype(complex)])
    return f


def mismatch(f, panels):
    """Largest relative gap of the values and of the error estimates
    between the fused pass and the reference."""
    values, errors = one_pass(f, panels)
    ref_values, ref_errors = reference_integrate(f, panels)
    return (np.max(np.abs(values - ref_values) / np.abs(ref_values)),
            np.max(np.abs(errors - ref_errors) / ref_errors))


# Nodes placed by the two formulas differ in their last bits, which moves
# the phase by omega * ulp(x); few, wide panels keep that below the bounds.
@settings(deadline=None, derandomize=True)
@given(panels=st.integers(1, 200), decay=st.floats(-1.0, 1.0),
       phase=st.floats(20.0, 30.0), depth=st.floats(0.3, 0.5))
def test_fused_pass_matches_panel_by_panel_reference(panels, decay, phase, depth):
    # phase: radians the fast part turns across one panel
    value_gap, error_gap = mismatch(wavy(decay, phase * panels, depth), panels)
    assert value_gap <= 1e-13
    assert error_gap <= 1e-10


@pytest.mark.parametrize("name", ["UNIT_KRONROD", "UNIT_ERROR"])
def test_a_wrong_weight_fails_the_reference_check(monkeypatch, name):
    weights = getattr(quadrature, name).copy()
    weights[3] *= 1.0 + 1e-9
    monkeypatch.setattr(quadrature, name, weights)
    value_gap, error_gap = mismatch(wavy(0.3, 400.0, 0.4), 16)
    assert value_gap > 1e-13 or error_gap > 1e-10


@pytest.mark.parametrize("omega,rows", [(2.0, 1), (35.0, 2)])
def test_call_log_matches_reference(omega, rows):
    # one call on the nodes of all 16 panels, whatever the number of rows
    def f(x):
        return wavy(-0.5, omega, 0.3)(x)[:rows]

    fused, reference = [], []
    values = integrate(logged(f, fused), panels=16)
    ref_values, _ = reference_integrate(logged(f, reference), panels=16)
    assert fused == reference == [16 * 15, (rows, 16 * 15)]
    assert values.shape == (rows,)
    assert np.max(np.abs(values - ref_values) / np.abs(ref_values)) <= 1e-13
