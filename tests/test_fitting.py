import ast
import cmath
import functools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from magictrap.dls import TrapCoefficients, dls, magic_depth
from magictrap.errors import (
    ConditioningError,
    ConventionViolationError,
    FitFailureError,
    FrequencyAmbiguityError,
    InvalidArgumentError,
    RankDeficiencyError,
)
from magictrap import fitting
from magictrap.fitting import (
    FitResult,
    fit_damped_sinusoid,
    fit_dls_global,
    fit_envelope,
    magic_depth_sigma,
    make_dls_dataset,
    synth_dls,
)
from magictrap.ramsey import TrapFieldConfig, t2_star, visibility

MEASURED = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
B_FIELDS = (2.8, 3.0, 3.115, 3.3)
DEPTHS = [-0.5e6 * k for k in range(1, 9)]
BETA1 = 3.47e-4


def clean_datasets():
    return [synth_dls(MEASURED, b, DEPTHS, 0.0, seed=0) for b in B_FIELDS]


def noisy_datasets(sigma, seed):
    return [synth_dls(MEASURED, b, DEPTHS, sigma, seed=seed + i)
            for i, b in enumerate(B_FIELDS)]


def sinusoid(t, v0=1.0, tau=0.206, delta=50.0, phi=0.0, offset=0.5):
    return offset + 0.5 * v0 * np.exp(-t / tau) * np.cos(
        2 * np.pi * delta * t + phi)


class TestDlsFit:
    def test_noiseless_recovery(self):
        fit = fit_dls_global(clean_datasets(), beta1_fixed=BETA1)
        assert fit.parameters["beta2"] == pytest.approx(-0.99e-4, rel=1e-9)
        assert fit.parameters["beta4"] == pytest.approx(4.6e-12, rel=1e-9)

    def test_free_beta1_mode(self):
        fit = fit_dls_global(clean_datasets(), beta1_fixed=None)
        assert fit.parameters["beta1"] == pytest.approx(BETA1, rel=1e-8)
        assert fit.parameters["beta2"] == pytest.approx(-0.99e-4, rel=1e-8)
        assert fit.parameters["beta4"] == pytest.approx(4.6e-12, rel=1e-8)

    @pytest.mark.parametrize("depth_hz,shifts,free,beta1", [
        # chi^2 overflows
        (1.0, [1e300, -1e300, 1e300, -1e300], True, "free"),
        # unweighted, stderr(beta4) overflows though chi^2 and the
        # parameters do not
        (1e-78, [1e153, -3e153, 3e153, -1e153], False, "fixed at 0.000347")])
    def test_past_float_range_is_an_invalid_argument(self, depth_hz, shifts,
                                                      free, beta1):
        depths = [-depth_hz * k for k in (1, 2, 3, 4)]
        datasets = [make_dls_dataset(b, depths, shifts) for b in (1.0, 2.0)]
        with pytest.raises(InvalidArgumentError) as info:
            fit_dls_global(datasets, None if free else BETA1)
        assert str(info.value) == f"shift fit is past float range (beta1 {beta1})"

    def test_noisy_estimates_within_bounds(self):
        for seed in range(10):
            fit = fit_dls_global(noisy_datasets(2.0, 100 + 31 * seed),
                                 beta1_fixed=BETA1)
            assert abs(fit.parameters["beta2"] + 0.99e-4) < 5 * fit.stderr("beta2")
            assert abs(fit.parameters["beta4"] - 4.6e-12) < 5 * fit.stderr("beta4")

    def test_single_field_degeneracy(self):
        datasets = [synth_dls(MEASURED, 3.115, DEPTHS, 0.0, seed=s)
                    for s in range(2)]
        with pytest.raises(RankDeficiencyError):
            fit_dls_global(datasets, beta1_fixed=BETA1)

    def test_near_singular_design(self):
        # freeing beta1 with two almost identical fields makes the U and
        # B*U columns collinear
        datasets = [synth_dls(MEASURED, 3.0, DEPTHS, 0.0, seed=0),
                    synth_dls(MEASURED, 3.0 + 1e-10, DEPTHS, 0.0, seed=1)]
        with pytest.raises(ConditioningError) as info:
            fit_dls_global(datasets, beta1_fixed=None)
        assert list(info.value.diagnostics) == ["condition_number"]
        assert info.value.diagnostics["condition_number"] > 1e12

    def test_stderrs_scale_with_noise(self):
        # with known per-point sigmas the covariance is (A' W A)^-1, so
        # doubling sigma exactly doubles every stderr and keeps the
        # correlation
        a = fit_dls_global(noisy_datasets(2.0, 5), beta1_fixed=BETA1)
        b = fit_dls_global(noisy_datasets(4.0, 5), beta1_fixed=BETA1)
        np.testing.assert_allclose(b.stderrs, 2.0 * np.array(a.stderrs), rtol=1e-9)
        np.testing.assert_allclose(b.correlation, a.correlation, rtol=1e-9)

    def test_chi2_per_dof_concentration(self):
        depths = list(np.linspace(-0.4e6, -5e6, 32))
        good = 0
        for seed in range(20):
            datasets = [synth_dls(MEASURED, b, depths, 2.0, seed=700 + 13 * seed + i)
                        for i, b in enumerate(B_FIELDS)]
            fit = fit_dls_global(datasets, beta1_fixed=BETA1)
            good += 0.5 <= fit.chi_square / fit.dof <= 1.5
        assert good >= 18

    def test_magic_depth_uncertainty_scaling(self):
        # clean shifts with a declared sigma column: the fitted values are
        # identical, so the propagated vertex uncertainty scales exactly
        def declared(sigma):
            return [make_dls_dataset(
                b, DEPTHS, [dls(MEASURED, b, d) for d in DEPTHS],
                [sigma] * len(DEPTHS)) for b in B_FIELDS]

        a = fit_dls_global(declared(2.0), beta1_fixed=BETA1)
        b = fit_dls_global(declared(4.0), beta1_fixed=BETA1)
        sigma_a = magic_depth_sigma(a, BETA1, 3.115)
        sigma_b = magic_depth_sigma(b, BETA1, 3.115)
        assert sigma_a > 0
        assert sigma_b == pytest.approx(2.0 * sigma_a, rel=1e-9)
        assert sigma_a < 0.2 * abs(magic_depth(MEASURED, 3.115))

    def test_sigma_of_a_result_built_from_lists(self):
        # sqrt(g' Cov g) with Cov = diag(s) C diag(s), written out for two
        # parameters; the correlation may be given as nested lists
        s2, s4, r = 3e-9, 2e-16, 0.7
        fit = FitResult({"beta2": MEASURED.beta2, "beta4": MEASURED.beta4},
                         (s2, s4), [[1.0, r], [r, 1.0]], 1.0, 1)
        g2 = -3.115 / (2.0 * MEASURED.beta4)
        g4 = -magic_depth(MEASURED, 3.115) / MEASURED.beta4
        expected = math.sqrt((g2 * s2) ** 2 + 2.0 * r * g2 * s2 * g4 * s4 + (g4 * s4) ** 2)
        assert magic_depth_sigma(fit, MEASURED.beta1, 3.115) == pytest.approx(expected, rel=1e-14)


class TestDampedSinusoidFit:
    def test_noiseless_recovery(self):
        t = np.linspace(0.0, 0.4, 100)
        fit = fit_damped_sinusoid(list(zip(t, sinusoid(t))))
        assert fit.parameters["v0"] == pytest.approx(1.0, rel=1e-6)
        assert fit.parameters["tau"] == pytest.approx(0.206, rel=1e-6)
        assert fit.parameters["delta"] == pytest.approx(50.0, rel=1e-6)
        assert abs(fit.parameters["phi"]) < 1e-6
        assert fit.parameters["offset"] == pytest.approx(0.5, rel=1e-6)

    @pytest.mark.parametrize("grid", ["uniform", "irregular"])
    def test_noiseless_recovery_general_phase(self, grid):
        if grid == "uniform":
            t = np.linspace(0.0, 0.42, 120)
        else:
            t = np.sort(np.random.default_rng(37).uniform(0.0, 0.42, 120))
        clean = sinusoid(t, v0=0.9, tau=0.205, delta=37.0, phi=0.7, offset=0.48)
        fit = fit_damped_sinusoid(list(zip(t, clean)))
        assert fit.parameters["tau"] == pytest.approx(0.205, rel=1e-6)
        assert fit.parameters["delta"] == pytest.approx(37.0, rel=1e-6)
        assert fit.parameters["phi"] == pytest.approx(0.7, abs=1e-6)

    def test_noisy_tau_within_three_sigma_mostly(self):
        hits = 0
        t = np.linspace(0.0, 0.4, 100)
        for seed in range(20):
            rng = np.random.default_rng(4000 + seed)
            noisy = sinusoid(t) + rng.normal(0.0, 0.05, t.size)
            fit = fit_damped_sinusoid([(ti, pi, 0.05)
                                       for ti, pi in zip(t, noisy)])
            hits += abs(fit.parameters["tau"] - 0.206) <= 3 * fit.stderr("tau")
        assert hits >= 18

    def test_time_origin_shift_invariance(self):
        # both runs land in the same minimum: chi^2 matches to 1e-12 and the
        # residual vectors to well under the noise scale; tau itself is only
        # pinned to ~1e-9 relative because the cost surface is flat there
        t = np.linspace(0.0, 0.4, 100)
        rng = np.random.default_rng(8)
        data = sinusoid(t) + rng.normal(0.0, 0.02, t.size)
        base = fit_damped_sinusoid([(ti, pi, 0.02) for ti, pi in zip(t, data)])
        shift = 0.05
        moved = fit_damped_sinusoid([(ti - shift, pi, 0.02)
                                     for ti, pi in zip(t, data)])
        assert moved.chi_square == pytest.approx(base.chi_square, rel=1e-12)
        assert moved.parameters["tau"] == pytest.approx(
            base.parameters["tau"], rel=1e-7)
        assert moved.parameters["delta"] == pytest.approx(
            base.parameters["delta"], rel=1e-9)

        def weighted_residuals(fit, times):
            p = fit.parameters
            model = (p["offset"] + 0.5 * p["v0"] * np.exp(-times / p["tau"])
                     * np.cos(2 * np.pi * p["delta"] * times + p["phi"]))
            return (model - data) / 0.02

        delta_r = weighted_residuals(base, t) - weighted_residuals(moved, t - shift)
        assert np.max(np.abs(delta_r)) < 1e-5
        # amplitude and phase transform with the shift: the moved model is
        # M(t' + shift), so v0 picks up exp(-shift/tau) and phi gains
        # 2*pi*delta*shift
        expected_v0 = base.parameters["v0"] * math.exp(
            -shift / base.parameters["tau"])
        assert moved.parameters["v0"] == pytest.approx(expected_v0, rel=1e-7)
        expected_phi = math.remainder(
            base.parameters["phi"] + 2 * math.pi * base.parameters["delta"] * shift,
            2 * math.pi)
        assert moved.parameters["phi"] == pytest.approx(expected_phi, abs=1e-7)

    def test_stderrs_past_float_range_after_the_solve(self, monkeypatch):
        # chi^2 at the start point is finite, J'J at the solution is not
        solves = []
        least_squares = fitting.least_squares
        monkeypatch.setattr(fitting, "least_squares",
                            lambda *a: solves.append(a) or least_squares(*a))
        t = np.linspace(0.0, 0.4, 50)
        p = sinusoid(t, v0=0.8, tau=0.2, delta=40.0)
        with pytest.raises(InvalidArgumentError) as info:
            fit_damped_sinusoid([(ti, pi, 1e-154) for ti, pi in zip(t, p)])
        assert str(info.value) == "damped-sinusoid fit is past float range"
        assert len(solves) == 1

    def test_too_few_samples(self):
        t = np.linspace(0.0, 0.4, 9)
        with pytest.raises(InvalidArgumentError):
            fit_damped_sinusoid(list(zip(t, sinusoid(t))))

    def test_underresolved_period(self):
        t = np.linspace(0.0, 0.4, 50)
        slow = 0.5 + 0.4 * np.cos(2 * np.pi * 1.0 * t)  # 0.4 of a period
        with pytest.raises(FrequencyAmbiguityError):
            fit_damped_sinusoid(list(zip(t, slow)))


def time_fit_samples(fit, c, noisy):
    """Samples of the model of `fit` at times x c, unweighted: the sinusoid
    plus 0.02 of noise, or the envelope times 1 + 0.01 of noise, the same
    draw at every c."""
    rng = np.random.default_rng(5)
    if fit == "damped-sinusoid":
        t = np.linspace(0.0, 0.4, 50)
        values = sinusoid(t, v0=0.8, tau=0.2, delta=40.0)
        values = values + noisy * rng.normal(0.0, 0.02, t.size)
    else:
        t = np.linspace(0.02, 1.0, 20)
        values = np.exp(-t / 0.3) * (1.0 + noisy * rng.normal(0.0, 0.01, t.size))
    return list(zip(t * c, values))


TIME_FITS = {"damped-sinusoid": fit_damped_sinusoid, "envelope": fit_envelope}


@functools.cache
def unit_scale_fit(fit):
    return TIME_FITS[fit](time_fit_samples(fit, 1.0, noisy=True))


@pytest.mark.parametrize("k", range(-300, 301, 20))
@pytest.mark.parametrize("fit", ["damped-sinusoid", "envelope"])
def test_fits_do_not_depend_on_the_time_unit(fit, k):
    # both models are scale-free in t (tau -> c tau, delta -> delta / c), so
    # times scaled by c = 10^k give tau * c and delta / c, and stderrs scaled
    # alike. Noisy stderrs stay normal floats at every k. Noiseless ones, a
    # rounding-level 1e-17 or so of the parameters, leave the normal range
    # near |k| = 300: there the fit is an invalid-argument, never a stderr of 0
    c = 10.0 ** k
    scale = {"tau": c, "delta": 1.0 / c}
    ref = unit_scale_fit(fit)
    noisy = TIME_FITS[fit](time_fit_samples(fit, c, noisy=True))
    for name in ref.names:
        stderr = ref.stderr(name) * scale.get(name, 1.0)
        assert noisy.stderr(name) == pytest.approx(stderr, rel=1e-8), name
        diff = noisy.parameters[name] - ref.parameters[name] * scale.get(name, 1.0)
        assert abs(diff) <= 1e-6 * stderr, name
    tau = 0.2 if fit == "damped-sinusoid" else 0.3
    try:
        result = TIME_FITS[fit](time_fit_samples(fit, c, noisy=False))
    except InvalidArgumentError as error:
        assert str(error) == f"{fit} fit is past float range"
        assert abs(k) > 280
        return
    assert 0.0 < min(result.stderrs) and max(result.stderrs) < math.inf
    assert result.parameters["tau"] / c == pytest.approx(tau, rel=1e-9)
    if fit == "damped-sinusoid":
        assert result.parameters["delta"] * c == pytest.approx(40.0, rel=1e-9)


def test_sinusoid_stderrs_are_scaled_before_they_are_mapped_to_the_time_unit():
    # noiseless: chi^2/dof shrinks the stderrs before they are mapped to the
    # input time unit, so stderr tau at times x 1e160 is a normal float
    c = 1e160
    t = np.linspace(0.0, 0.4, 50)
    result = fit_damped_sinusoid(list(zip(t * c, sinusoid(t, v0=0.8, tau=0.2, delta=40.0))))
    assert result.parameters["tau"] / c == pytest.approx(0.2, rel=1e-9)
    assert 0.0 < result.stderr("tau") < math.inf


@pytest.mark.parametrize("fit", [fit_damped_sinusoid, fit_envelope])
def test_times_spanning_past_float_range(fit):
    # every time is finite, their span is not
    t = 1.5e308 * np.linspace(-1.0, 1.0, 50)
    with pytest.raises(InvalidArgumentError,
                       match="^sample times must span a finite range$"):
        fit(list(zip(t, np.full(50, 0.5))))


@pytest.mark.parametrize("index,time", [(-1, 1e308), (0, -1e308), (20, 1e308)])
def test_one_time_past_the_spectrum_grid(index, time):
    # the other steps are subnormal in units of the span, so 0.5/dt is inf:
    # coded before the start point is built from a NaN grid
    t = np.linspace(0.0, 0.4, 50)
    p = sinusoid(t, v0=0.8, tau=0.2, delta=40.0)
    t[index] = time
    with pytest.raises(InvalidArgumentError, match="frequency grid is past float range"):
        fit_damped_sinusoid(list(zip(t, p)))


def grid_facts(t):
    """The span and the median step that fit_damped_sinusoid passes to its
    start-point helpers."""
    return t[-1] - t[0], fitting._median_step(t)


def direct_spectrum_peak(t, y, *_grid_facts):
    """The spectrum estimate as a direct 4096 x N DFT: the oracle for the
    factored kernel in fitting._spectrum_peak, which works out its span and
    median step itself."""
    span = t[-1] - t[0]
    dt = float(np.median(np.diff(t)))
    freqs = np.linspace(0.5 / span, 0.5 / dt, 4096)
    power = np.abs(np.exp(-2j * np.pi * np.outer(freqs, t)) @ y)
    k = int(np.argmax(power))
    if 0 < k < freqs.size - 1:
        p_m, p_0, p_p = power[k - 1], power[k], power[k + 1]
        denom = p_m - 2 * p_0 + p_p
        shift = 0.0 if denom == 0 else 0.5 * (p_m - p_p) / denom
        f0 = freqs[k] + shift * (freqs[1] - freqs[0])
    else:
        f0 = freqs[k]
    peak = np.exp(-2j * np.pi * f0 * t) @ y
    return float(f0), float(cmath.phase(peak))


@pytest.mark.parametrize("t", [
    np.array([0.0, 0.1, 0.3, 0.6]),                  # odd step count
    np.array([0.0, 0.1, 0.3, 0.6, 1.0]),             # even step count
    np.array([0.2, 0.7]),                            # a single step
    np.array([0.0, 0.1, 0.2, 0.2, 0.2, 0.3, 0.5]),   # repeated steps
    np.linspace(0.0, 0.4, 400),
    *(np.sort(np.random.default_rng(seed).uniform(0.0, 0.4, n))
      for seed, n in ((1, 399), (2, 400), (3, 701), (4, 1000)))])
def test_median_step_is_numpys_bit_for_bit(t):
    step = np.float64(fitting._median_step(t))
    assert step.view(np.int64) == np.median(np.diff(t)).view(np.int64)


def test_line_fit_matches_polyfit():
    # np.polyfit's SVD least squares is the oracle for the closed-form
    # centred regression of the log envelope
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 1000))
        t = np.sort(rng.uniform(0.0, 1.0, n)) * 2.0 ** rng.integers(-3, 4) \
            + rng.uniform(0.0, 2.0)
        u = rng.uniform(-5.0, 5.0) * t + rng.uniform(-3.0, 1.0) \
            + rng.normal(0.0, 0.3, n)
        slope, intercept = fitting._line_fit(t, u)
        ref_slope, ref_intercept = np.polyfit(t, u, 1)
        assert slope == pytest.approx(ref_slope, rel=1e-10, abs=0), seed
        assert intercept == pytest.approx(ref_intercept, rel=1e-10, abs=0), seed


def test_envelope_init_without_time_spread_starts_without_decay():
    # three samples at t = 0.5 are the only nonzero ones and the window is
    # one sample, so every kept point sits at one time, where np.polyfit
    # would warn and return an arbitrary slope
    t = np.sort(np.concatenate([np.linspace(0.0, 1.0, 21), [0.5, 0.5]]))
    y = np.where(t == 0.5, 0.3, 0.0)
    assert fitting._line_fit(np.full(3, 0.5), np.array([1.0, 2.0, 3.0])) == (0.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v0, tau0 = fitting._envelope_init(t, y, 20.0, *grid_facts(t))
    assert tau0 == 2.0 * (t[-1] - t[0])
    assert v0 == pytest.approx(4.0 * 0.3)


def test_envelope_init_of_a_single_burst_fits_every_nonzero_point():
    # a burst that decays within one sample: only t = 0 exceeds 5 % of the
    # peak, so the log-envelope line goes through every nonzero point and
    # finds the burst's decay time; one point alone would give 2 * span
    t = np.linspace(0.0, 1.0, 101)
    y = np.exp(-t / 0.002) * np.cos(2 * np.pi * 100.0 * t)
    v0, tau0 = fitting._envelope_init(t, y, 100.0, *grid_facts(t))
    assert tau0 == pytest.approx(0.002, rel=1e-9)
    assert 1e-3 * t[-1] <= tau0 <= 100.0 * t[-1]
    assert v0 == 2.0  # 4 * exp(0) at the upper clamp


def sample_times(n, grid, seed):
    if grid == "uniform":
        return np.linspace(0.0, 0.4, n)
    return np.sort(np.random.default_rng(seed).uniform(0.0, 0.4, n))


def phase_difference(a, b):
    return abs(math.remainder(a - b, 2 * math.pi))


class TestSpectrumPeak:
    @pytest.mark.parametrize("grid", ["uniform", "irregular"])
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_matches_direct_dft(self, n, grid):
        t = sample_times(n, grid, seed=n)
        rng = np.random.default_rng(1000 + n)
        # a fringe inside the band of every grid (f_hi >= 11 Hz at n = 10)
        y = sinusoid(t, delta=8.0 if n == 10 else 37.0, phi=0.7) - 0.5
        y = y + rng.normal(0.0, 0.05, n)
        f0, phi = fitting._spectrum_peak(t, y, *grid_facts(t))
        f_ref, phi_ref = direct_spectrum_peak(t, y)
        assert f0 == pytest.approx(f_ref, rel=1e-12, abs=0)
        assert phase_difference(phi, phi_ref) <= 1e-10

    def test_matches_direct_dft_on_late_bursts(self):
        # 1000 times in 10 short bursts starting at 5 s: large phases and a
        # median spacing far below the mean, for the running products
        rng = np.random.default_rng(1000)
        starts = np.sort(rng.uniform(0.0, 0.4, 10))
        t = 5.0 + np.sort((starts[:, None]
                           + rng.uniform(0.0, 0.01, (10, 100))).ravel())
        y = sinusoid(t - 5.0, delta=37.0, phi=0.7) - 0.5
        y = y + rng.normal(0.0, 0.05, t.size)
        f0, phi = fitting._spectrum_peak(t, y, *grid_facts(t))
        f_ref, phi_ref = direct_spectrum_peak(t, y)
        assert f0 == pytest.approx(f_ref, rel=1e-12, abs=0)
        assert phase_difference(phi, phi_ref) <= 1e-10

    def test_peak_on_first_grid_point(self):
        # a non-oscillating decay: the power falls from the lowest grid
        # frequency up, so there is no parabolic refinement
        t = np.linspace(0.0, 0.4, 100)
        y = np.exp(-t / 0.3)
        f0, phi = fitting._spectrum_peak(t, y, *grid_facts(t))
        f_ref, phi_ref = direct_spectrum_peak(t, y)
        assert f_ref == 0.5 / 0.4
        assert f0 == f_ref
        assert phase_difference(phi, phi_ref) <= 1e-10


@pytest.mark.parametrize("n, grid", [(100, "uniform"), (400, "uniform"),
                                     (700, "uniform"), (1000, "uniform"),
                                     (400, "irregular"), (1000, "irregular")])
def test_fit_agrees_with_direct_dft_start(n, grid, monkeypatch):
    # the factored spectrum moves the start point by rounding only, so LM
    # lands in the same minimum; stdout may differ in the last digits
    t = sample_times(n, grid, seed=4 * n)
    rng = np.random.default_rng(9000 + n)
    data = sinusoid(t, v0=0.9, tau=0.205, delta=37.0, phi=0.7, offset=0.48)
    data = data + rng.normal(0.0, 0.03, n)
    samples = [(ti, pi, 0.03) for ti, pi in zip(t, data)]
    fit = fit_damped_sinusoid(samples)
    monkeypatch.setattr(fitting, "_spectrum_peak", direct_spectrum_peak)
    ref = fit_damped_sinusoid(samples)
    assert fit.chi_square == pytest.approx(ref.chi_square, rel=1e-12, abs=0)
    for name in ref.names:
        diff = fit.parameters[name] - ref.parameters[name]
        if name == "phi":
            diff = math.remainder(diff, 2 * math.pi)
        assert abs(diff) <= 1e-4 * ref.stderr(name), name


def scipy_lm(fun, x0, max_nfev=None):
    """The oracle for fitting.least_squares: MINPACK's lm through scipy,
    given the same residuals, analytic Jacobian and tolerances."""
    from scipy.optimize import least_squares
    return least_squares(lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1],
                         method="lm", xtol=fitting.XTOL, ftol=fitting.FTOL,
                         gtol=fitting.GTOL, max_nfev=max_nfev)


def seeded_fringe(seed, n, grid):
    t = sample_times(n, grid, seed=10007 * seed + n)
    rng = np.random.default_rng([seed, n])
    data = sinusoid(t, v0=0.9, tau=0.205, delta=37.0, phi=0.7, offset=0.48)
    return [(ti, pi, 0.03) for ti, pi in zip(t, data + rng.normal(0.0, 0.03, n))]


class TestLevenbergMarquardt:
    def test_jacobian_matches_complex_step(self):
        rng = np.random.default_rng(11)
        for n, grid in [(100, "uniform"), (400, "irregular"), (1000, "irregular")]:
            t = sample_times(n, grid, seed=n)
            p = rng.uniform(0.0, 1.0, n)
            sig = rng.uniform(0.01, 0.1, n)
            x = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.05, 0.5),
                          rng.uniform(5.0, 80.0), rng.uniform(-4.0, 4.0),
                          rng.uniform(0.4, 0.6)])
            _, jac = fitting._damped_sinusoid(x, t, p, sig)
            for k in range(x.size):
                h = 1e-20 * max(1.0, abs(x[k]))
                shifted = x.astype(complex)
                shifted[k] += 1j * h
                column = fitting._damped_sinusoid(shifted, t, p, sig)[0].imag / h
                assert (np.linalg.norm(jac[:, k] - column)
                        <= 1e-10 * np.linalg.norm(column)), (n, k)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_fits_match_scipy_lm(self, seed, monkeypatch):
        # same start, residuals and Jacobian; only the solver differs
        for n in (100, 400, 700, 1000):
            for grid in ("uniform", "irregular"):
                samples = seeded_fringe(seed, n, grid)
                fit = fit_damped_sinusoid(samples)
                with monkeypatch.context() as patch:
                    patch.setattr(fitting, "least_squares", scipy_lm)
                    ref = fit_damped_sinusoid(samples)
                assert fit.chi_square == pytest.approx(ref.chi_square,
                                                       rel=1e-12, abs=0)
                for name in ref.names:
                    diff = fit.parameters[name] - ref.parameters[name]
                    if name == "phi":
                        diff = math.remainder(diff, 2 * math.pi)
                    assert abs(diff) <= 1e-5 * ref.stderr(name), (n, grid, name)

    def test_linear_problem(self):
        # the cost converges to FTOL; x to about sqrt(FTOL) of its spread
        rng = np.random.default_rng(3)
        a = rng.normal(size=(20, 3))
        b = a @ np.array([1.0, -2.0, 0.5]) + rng.normal(0.0, 0.1, 20)
        result = fitting.least_squares(lambda x: (a @ x - b, a), np.zeros(3))
        assert result.success is True
        exact = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(result.x, exact, rtol=1e-8)
        assert result.cost == pytest.approx(
            0.5 * np.sum((a @ exact - b) ** 2), rel=1e-12)
        np.testing.assert_allclose(result.fun, a @ result.x - b, rtol=0, atol=0)

    @pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan, 1e200])
    def test_start_past_float_range(self, x0):
        # cost inf or NaN at the start: raised after one evaluation, with no
        # numpy warning (the suite makes warnings errors)
        calls = []

        def fun(x):
            calls.append(x)
            return np.array([x[0] - 1.0, x[0]]), np.ones((2, 1))

        with pytest.raises(InvalidArgumentError, match="^least-squares start is past float range"):
            fitting.least_squares(fun, [x0])
        assert len(calls) == 1

    def test_start_with_a_non_finite_jacobian(self):
        with pytest.raises(InvalidArgumentError, match="^least-squares start is past float range"):
            fitting.least_squares(lambda x: (x - 1.0, np.full((1, 1), math.nan)), [0.0])

    def test_exhausted_evaluations(self, monkeypatch):
        # a cap of (5 + 1) / 3 = 2 evaluations for the fringe's 5 parameters
        monkeypatch.setattr(fitting, "NFEV_PER_PARAMETER", 1 / 3)
        samples = seeded_fringe(1, 100, "uniform")
        t, p, sig, _, unit = fitting._normalize_samples(samples)
        x0 = np.array([0.8, 0.25 / unit, 36.9 * unit, 0.6, 0.5])
        result = fitting.least_squares(
            lambda x: fitting._damped_sinusoid(x, t, p, sig), x0)
        assert result.success is False
        assert result.nfev == 2
        with pytest.raises(FitFailureError) as info:
            fit_damped_sinusoid(samples)
        assert info.value.diagnostics["nfev"] == 2
        assert set(info.value.diagnostics) == {"cost", "residual_rms", "nfev"}

    def test_non_positive_decay_time(self, monkeypatch):
        # the solver ends at -tau: a fit-failure that reports it in the
        # caller's time unit (times up to 0.4 s are fitted in units of 0.25 s)
        samples = seeded_fringe(1, 100, "uniform")
        ref = fit_damped_sinusoid(samples)
        solve = fitting.least_squares

        def negated_tau(fun, x0):
            result = solve(fun, x0)
            return replace(result, x=result.x * [1.0, -1.0, 1.0, 1.0, 1.0])

        monkeypatch.setattr(fitting, "least_squares", negated_tau)
        with pytest.raises(FitFailureError, match="non-positive") as info:
            fit_damped_sinusoid(samples)
        assert info.value.diagnostics == {"tau": -ref.parameters["tau"]}

    @pytest.mark.parametrize("flip", ["amplitude", "frequency"])
    def test_stderrs_after_sign_canonicalisation(self, flip, monkeypatch):
        # start at the mirror image of the usual start: (-V0, phi + pi) or
        # (-delta, -phi) is the same model, so the solver ends there and the
        # fit must map it back, stderrs and correlation included
        samples = seeded_fringe(3, 400, "uniform")
        ref = fit_damped_sinusoid(samples)
        solve = fitting.least_squares
        ends = []

        def mirrored(fun, x0, **kwargs):
            amp, tau, delta, phi, off = x0
            start = ([-amp, tau, delta, phi + math.pi, off] if flip == "amplitude"
                     else [amp, tau, -delta, -phi, off])
            result = solve(fun, np.array(start), **kwargs)
            ends.append(result.x)
            return result

        monkeypatch.setattr(fitting, "least_squares", mirrored)
        fit = fit_damped_sinusoid(samples)
        assert ends[0][0 if flip == "amplitude" else 2] < 0
        for name in ref.names:
            diff = fit.parameters[name] - ref.parameters[name]
            if name == "phi":
                diff = math.remainder(diff, 2 * math.pi)
            assert abs(diff) <= 1e-5 * ref.stderr(name), name
        np.testing.assert_allclose(fit.stderrs, ref.stderrs, rtol=1e-6)
        np.testing.assert_allclose(fit.correlation, ref.correlation, rtol=1e-6)


def test_no_module_imports_scipy():
    package = Path(fitting.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


def test_cli_fits_load_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from magictrap import cli\n"
        "from magictrap.datafiles import write_table\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "t = np.linspace(0.0, 0.4, 100)\n"
        "p = 0.5 + 0.5 * np.exp(-t / 0.206) * np.cos(2 * np.pi * 50.0 * t)\n"
        "write_table('trace.csv', ('t_s', 'p'), list(zip(t, p)))\n"
        "rows = [(b, d, -100.0 * d + 2e3 * b * d * d) for b in (2.8, 3.3)\n"
        "        for d in (0.05, 0.1, 0.15, 0.2)]\n"
        "write_table('shifts.csv', ('b_field_gauss', 'depth_mk', 'dls_hz'), rows)\n"
        "assert cli.main(['fit-ramsey', '--input', 'trace.csv']) == 0\n"
        "assert cli.main(['fit-dls', '--input', 'shifts.csv', '--beta1', '3.47e-4']) == 0\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = dict(line.split(" = ") for line in proc.stdout.splitlines())
    assert float(doc["delta"]) == pytest.approx(50.0, rel=1e-6)
    assert "beta4" in doc


def test_cli_import_loads_no_numpy_polynomial():
    # numpy.polynomial and laggauss cost about 7.5 ms: the Laguerre rule of
    # the thermal average is a table, so neither the import nor a first
    # thermal average loads it
    code = (
        "import sys\n"
        "import magictrap.cli\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
        "from magictrap.dls import TrapCoefficients, magic_depth\n"
        "from magictrap.ramsey import TrapFieldConfig, visibility\n"
        "coeffs = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)\n"
        "cfg = TrapFieldConfig(coeffs, 3.115, magic_depth(coeffs, 3.115), 17e-6)\n"
        "assert 0.0 < visibility(cfg, 0.1) < 1.0\n"
        "assert 'numpy.polynomial' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestEnvelopeFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 1.0, 6)
        v = np.exp(-t / 0.225)
        fit = fit_envelope(list(zip(t, v)))
        assert fit.parameters["tau"] == pytest.approx(0.225, rel=1e-9)

    def test_unit_start_is_consistent(self):
        # v(0) = 1 contributes nothing in log space
        t = [0.0, 0.1, 0.2, 0.3]
        v = [1.0] + [math.exp(-x / 0.5) for x in t[1:]]
        fit = fit_envelope(list(zip(t, v)))
        assert fit.parameters["tau"] == pytest.approx(0.5, rel=1e-9)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_envelope([(0.0, 1.0), (0.1, 0.5), (0.2, 0.0), (0.3, 0.1)])

    def test_no_decay_rejected(self):
        # v stuck at 1 gives a zero slope, which has no decay time
        with pytest.raises(FitFailureError):
            fit_envelope([(0.0, 1.0), (0.1, 1.0), (0.2, 1.0), (0.3, 1.0)])

    def test_all_times_zero_rank_deficient(self):
        with pytest.raises(RankDeficiencyError,
                           match="^a design column is identically zero$"):
            fit_envelope([(0.0, 0.9)] * 5)

    def test_sigma_past_float_range(self):
        t = np.linspace(0.02, 1.0, 20)
        with pytest.raises(InvalidArgumentError) as info:
            fit_envelope([(ti, math.exp(-ti / 0.3), 1e-300) for ti in t])
        assert str(info.value) == "envelope fit is past float range"

    def test_above_unity_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_envelope([(0.0, 1.0), (0.1, 1.2), (0.2, 0.7), (0.3, 0.5)])

    def test_against_thermal_envelope(self):
        # the true envelope is not exponential; the log fit lands within
        # 35% of the 1/e crossing
        cfg = TrapFieldConfig(MEASURED, 3.115, magic_depth(MEASURED, 3.115),
                              17e-6)
        times = np.linspace(0.0, 2.0, 9)
        values = [visibility(cfg, float(t)) for t in times]
        fit = fit_envelope(list(zip(times, values)))
        assert fit.parameters["tau"] == pytest.approx(t2_star(cfg), rel=0.35)


class TestSynthDls:
    def test_zero_noise_reproduces_model(self):
        ds = synth_dls(MEASURED, 3.115, DEPTHS, 0.0, seed=5)
        for depth, shift, _ in ds.points:
            assert shift == dls(MEASURED, 3.115, depth)

    def test_seed_determinism(self):
        a = synth_dls(MEASURED, 3.115, DEPTHS, 2.0, seed=5)
        b = synth_dls(MEASURED, 3.115, DEPTHS, 2.0, seed=5)
        assert a.points == b.points
        c = synth_dls(MEASURED, 3.115, DEPTHS, 2.0, seed=6)
        assert a.points != c.points

    def test_residual_variance_matches_noise(self):
        depths = [-1e6 - 5e3 * k for k in range(1000)]
        ds = synth_dls(MEASURED, 3.115, depths, 2.0, seed=7)
        residuals = [shift - dls(MEASURED, 3.115, depth)
                     for depth, shift, _ in ds.points]
        assert np.var(residuals) == pytest.approx(4.0, rel=0.2)

    def test_positive_depth_rejected(self):
        with pytest.raises(ConventionViolationError):
            synth_dls(MEASURED, 3.115, [1e6, -1e6, -2e6], 0.0, seed=1)


    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False, np.True_])
    def test_bad_seed_rejected_before_drawing(self, seed, monkeypatch):
        generators = []
        monkeypatch.setattr(np.random, "default_rng", generators.append)
        with pytest.raises(InvalidArgumentError) as info:
            synth_dls(MEASURED, 3.115, DEPTHS, 2.0, seed=seed)
        assert info.value.code == "invalid-argument"
        assert generators == []


class TestDatasetValidation:
    def test_minimum_points(self):
        with pytest.raises(InvalidArgumentError):
            make_dls_dataset(3.115, [-1e6, -2e6], [-100.0, -200.0])

    def test_bad_sigma(self):
        with pytest.raises(InvalidArgumentError):
            make_dls_dataset(3.115, [-1e6, -2e6, -3e6],
                             [-100.0, -200.0, -300.0], [1.0, 0.0, 1.0])


TEN_TIMES = np.linspace(0.0, 0.4, 10)


@pytest.mark.parametrize("call,error,message", [
    pytest.param(lambda: make_dls_dataset(3.115, DEPTHS[:3], [1.0, 2.0]),
                 InvalidArgumentError, "depths and shifts must match in length",
                 id="dataset-shifts-length"),
    pytest.param(lambda: make_dls_dataset(3.115, DEPTHS[:3], [1.0, 2.0, 3.0],
                                          [1.0, 1.0]),
                 InvalidArgumentError, "sigmas must match points in length",
                 id="dataset-sigmas-length"),
    pytest.param(lambda: make_dls_dataset(3.115, [-1e6, 1e6, -3e6], [1.0, 2.0, 3.0]),
                 ConventionViolationError, "trap depth must be <= 0 Hz",
                 id="dataset-positive-depth"),
    pytest.param(lambda: FitResult({"a": 1.0}, (1.0,), np.eye(2), 1.0, 1),
                 InvalidArgumentError, "stderrs and correlation must match parameters",
                 id="result-shape"),
    pytest.param(lambda: FitResult({"a": 1.0}, (1.0, 1.0), np.eye(1), 1.0, 1),
                 InvalidArgumentError, "stderrs and correlation must match parameters",
                 id="result-stderrs-shape"),
    pytest.param(lambda: FitResult({"a": 1.0, "b": 2.0}, (1.0, 1.0),
                                   np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0, 1),
                 InvalidArgumentError, "correlation must be symmetric",
                 id="result-asymmetric"),
    pytest.param(lambda: FitResult({"a": 1.0}, (1.0,), np.eye(1), 1.0, 0),
                 InvalidArgumentError, "dof must be >= 1", id="result-dof"),
    pytest.param(lambda: magic_depth_sigma(
                     FitResult({"beta2": -1e-4, "beta4": 0.0}, (1.0, 1.0), np.eye(2),
                               1.0, 1),
                     BETA1, 3.115),
                 InvalidArgumentError, "beta4 must be positive", id="sigma-beta4"),
    pytest.param(lambda: magic_depth_sigma(
                     FitResult({"beta2": -1e-4, "beta4": 4.6e-12}, (1e300, 1.0),
                               np.eye(2), 1.0, 1),
                     BETA1, 3.115),
                 InvalidArgumentError, "vertex-depth uncertainty is past float range",
                 id="sigma-past-float-range"),
    pytest.param(lambda: fit_damped_sinusoid(
                     [(t, 0.5, 0.0 if k == 3 else 0.1) for k, t in enumerate(TEN_TIMES)]),
                 InvalidArgumentError, "sigmas must be positive", id="sinusoid-zero-sigma"),
    pytest.param(lambda: fit_damped_sinusoid([(0.1, 0.05 * k) for k in range(10)]),
                 InvalidArgumentError, "times must be strictly increasing overall",
                 id="sinusoid-one-time"),
    pytest.param(lambda: fit_envelope([(0.0, 1.0), (0.1, 0.9), (0.2, 0.8)]),
                 InvalidArgumentError, "need at least 4 samples", id="envelope-3-samples"),
    pytest.param(lambda: synth_dls(MEASURED, 3.115, DEPTHS, -1.0, seed=0),
                 InvalidArgumentError, "noise sigma must be >= 0", id="synth-negative-noise")])
def test_coded_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestMalformedSamples:
    # rows must all be (t, v) or all (t, v, sigma); anything else is a coded
    # error, never a bare ValueError from unpacking a row
    @staticmethod
    def rows(width):
        t = np.linspace(0.0, 0.4, 100)
        return [[ti, pi, 0.01, 0.0][:width] for ti, pi in zip(t, sinusoid(t))]

    @pytest.mark.parametrize("fit", [fit_damped_sinusoid, fit_envelope])
    @pytest.mark.parametrize("width", [1, 4])
    def test_wrong_width(self, fit, width):
        with pytest.raises(InvalidArgumentError, match="rows of") as info:
            fit(self.rows(width))
        assert info.value.diagnostics["shape"] == (100, width)

    @pytest.mark.parametrize("fit", [fit_damped_sinusoid, fit_envelope])
    @pytest.mark.parametrize("malformed", ["mixed", "text", "flat"])
    def test_not_a_table(self, fit, malformed):
        rows = self.rows(3)
        if malformed == "mixed":
            rows[5] = rows[5][:2]
        elif malformed == "text":
            rows[5][1] = "high"
        else:
            rows = [r[0] for r in rows]
        with pytest.raises(InvalidArgumentError, match="rows of"):
            fit(rows)

    NOT_NUMERIC = "samples must be numeric rows of one width, (t, v) or (t, v, sigma)"
    NOT_ROWS = "samples must be rows of (t, v) or (t, v, sigma)"

    @pytest.mark.parametrize("malformed,message,diagnostics", [
        ("ragged", NOT_NUMERIC, {}),
        ("text", NOT_NUMERIC, {}),
        ("set", NOT_NUMERIC, {}),
        ("huge", NOT_NUMERIC, {}),
        ("width 1", NOT_ROWS, {"shape": (100, 1)}),
        ("width 4", NOT_ROWS, {"shape": (100, 4)}),
        ("width 0", NOT_ROWS, {"shape": (100, 0)}),
        ("flat", NOT_ROWS, {"shape": (100,)}),
        ("empty", NOT_ROWS, {"shape": (0,)})])
    def test_error_message(self, malformed, message, diagnostics):
        rows = self.rows(3)
        if malformed == "ragged":
            rows[5] = rows[5][:2]
        elif malformed == "text":
            rows[5][1] = "high"
        elif malformed == "set":  # a row with no order
            rows = [r[:2] for r in rows]
            rows[5] = set(rows[5])
        elif malformed == "huge":
            rows[5][0] = 10 ** 400  # an int past float range
        elif malformed.startswith("width"):
            rows = self.rows(4) if malformed == "width 4" else [
                r[:int(malformed[-1])] for r in rows]
        elif malformed == "flat":
            rows = [r[0] for r in rows]
        else:
            rows = []
        with pytest.raises(InvalidArgumentError) as info:
            fitting._normalize_samples(rows)
        assert (info.value.code, str(info.value)) == ("invalid-argument", message)
        assert info.value.diagnostics == diagnostics

    def test_tuples_lists_and_arrays_read_alike(self):
        rows = self.rows(3)[::-1]  # unsorted
        expected = fitting._normalize_samples(np.array(rows))
        for same in ([tuple(r) for r in rows], rows):
            for got, want in zip(fitting._normalize_samples(same), expected):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
class TestNonFiniteInputs:
    # each fitter names the column of a NaN or infinite cell before any
    # arithmetic can turn it into another error
    @pytest.mark.parametrize("fit", [fit_damped_sinusoid, fit_envelope])
    @pytest.mark.parametrize("column,name", [(0, "times"), (1, "values")])
    def test_samples(self, bad, fit, column, name):
        t = np.linspace(0.0, 0.4, 100)
        rows = [[ti, pi, 0.01] for ti, pi in zip(t, sinusoid(t))]
        rows[37][column] = bad
        with pytest.raises(InvalidArgumentError, match=f"sample {name} must be finite"):
            fit(rows)

    @pytest.mark.parametrize("column,name", [(0, "bias fields"), (1, "depths"),
                                             (2, "shifts")])
    def test_dls(self, bad, column, name):
        columns = [3.3, list(DEPTHS), [dls(MEASURED, 3.3, d) for d in DEPTHS]]
        if column == 0:
            columns[0] = bad
        else:
            columns[column][2] = bad
        # a depth goes through the shift model's own depth check
        message = "trap depth" if name == "depths" else name
        with pytest.raises(InvalidArgumentError, match=f"{message} must be finite"):
            fit_dls_global(clean_datasets()[:1] + [make_dls_dataset(*columns)],
                           BETA1)

    def test_dls_fixed_beta1(self, bad):
        with pytest.raises(InvalidArgumentError, match="beta1 must be finite"):
            fit_dls_global(clean_datasets(), bad)

