import ast
import cmath
import math
import os
import subprocess
import sys
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
        fit = fit_dls_global(clean_datasets(), beta1_fixed=0.0, free_beta1=True)
        assert fit.parameters["beta1"] == pytest.approx(BETA1, rel=1e-8)
        assert fit.parameters["beta2"] == pytest.approx(-0.99e-4, rel=1e-8)
        assert fit.parameters["beta4"] == pytest.approx(4.6e-12, rel=1e-8)

    @pytest.mark.parametrize("depth_hz,shifts,free,beta1", [
        # chi^2 overflows
        (1.0, [1e300, -1e300, 1e300, -1e300], True, "free"),
        # unweighted, the covariance overflows only once scaled by chi^2/dof
        (1e-73, [1e9, -1e9, 1e9, -2e9], False, "fixed at 0.000347")])
    def test_past_float_range_is_an_invalid_argument(self, depth_hz, shifts,
                                                      free, beta1):
        depths = [-depth_hz * k for k in (1, 2, 3, 4)]
        datasets = [make_dls_dataset(b, depths, shifts) for b in (1.0, 2.0)]
        with pytest.raises(InvalidArgumentError) as info:
            fit_dls_global(datasets, BETA1, free_beta1=free)
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
            fit_dls_global(datasets, beta1_fixed=0.0, free_beta1=True)
        assert list(info.value.diagnostics) == ["condition_number"]
        assert info.value.diagnostics["condition_number"] > 1e12

    def test_covariance_scales_with_noise(self):
        # with known per-point sigmas the covariance is (A' W A)^-1, so
        # doubling sigma exactly quadruples every variance
        a = fit_dls_global(noisy_datasets(2.0, 5), beta1_fixed=BETA1)
        b = fit_dls_global(noisy_datasets(4.0, 5), beta1_fixed=BETA1)
        np.testing.assert_allclose(b.covariance, 4.0 * a.covariance, rtol=1e-9)

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

    def test_covariance_past_float_range_after_the_solve(self, monkeypatch):
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


@pytest.mark.parametrize("k", range(-300, 301, 20))
@pytest.mark.parametrize("fit", ["damped-sinusoid", "envelope"])
def test_fits_do_not_depend_on_the_time_unit(fit, k):
    # both models are scale-free in t (tau -> c tau, delta -> delta / c), so
    # times scaled by c = 10^k give tau * c and delta / c, unless the result
    # in that unit leaves float range
    c = 10.0 ** k
    if fit == "damped-sinusoid":
        t = np.linspace(0.0, 0.4, 50)
        samples = list(zip(t * c, sinusoid(t, v0=0.8, tau=0.2, delta=40.0)))
        tau, exact = 0.2, abs(k) <= 140
    else:
        t = np.linspace(0.02, 1.0, 20)
        samples = list(zip(t * c, np.exp(-t / 0.3)))
        tau, exact = 0.3, k <= 140
    try:
        result = (fit_damped_sinusoid if fit == "damped-sinusoid"
                  else fit_envelope)(samples)
    except InvalidArgumentError as error:
        assert str(error) == f"{fit} fit is past float range"
        assert not exact
        return
    assert result.parameters["tau"] / c == pytest.approx(tau, rel=1e-9)
    if fit == "damped-sinusoid":
        assert result.parameters["delta"] * c == pytest.approx(40.0, rel=1e-9)


@pytest.mark.parametrize("fit", [fit_damped_sinusoid, fit_envelope])
def test_times_spanning_past_float_range(fit):
    # every time is finite, their span is not
    t = 1.5e308 * np.linspace(-1.0, 1.0, 50)
    with pytest.raises(InvalidArgumentError,
                       match="^sample times must span a finite range$"):
        fit(list(zip(t, np.full(50, 0.5))))


def direct_spectrum_peak(t, y):
    """The spectrum estimate as a direct 4096 x N DFT: the oracle for the
    factored kernel in fitting._spectrum_peak."""
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
        f0, phi = fitting._spectrum_peak(t, y)
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
        f0, phi = fitting._spectrum_peak(t, y)
        f_ref, phi_ref = direct_spectrum_peak(t, y)
        assert f0 == pytest.approx(f_ref, rel=1e-12, abs=0)
        assert phase_difference(phi, phi_ref) <= 1e-10

    def test_peak_on_first_grid_point(self):
        # a non-oscillating decay: the power falls from the lowest grid
        # frequency up, so there is no parabolic refinement
        t = np.linspace(0.0, 0.4, 100)
        y = np.exp(-t / 0.3)
        f0, phi = fitting._spectrum_peak(t, y)
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
        assert result.status in (1, 2, 3)
        exact = np.linalg.lstsq(a, b, rcond=None)[0]
        np.testing.assert_allclose(result.x, exact, rtol=1e-8)
        assert result.cost == pytest.approx(
            0.5 * np.sum((a @ exact - b) ** 2), rel=1e-12)
        np.testing.assert_allclose(result.fun, a @ result.x - b, rtol=0, atol=0)

    def test_exhausted_evaluations(self, monkeypatch):
        samples = seeded_fringe(1, 100, "uniform")
        t, p, sig, _, unit = fitting._normalize_samples(samples)
        x0 = np.array([0.8, 0.25 / unit, 36.9 * unit, 0.6, 0.5])
        result = fitting.least_squares(
            lambda x: fitting._damped_sinusoid(x, t, p, sig), x0, max_nfev=2)
        assert result.status == 0
        assert result.nfev == 2
        solve = fitting.least_squares
        monkeypatch.setattr(fitting, "least_squares",
                            lambda fun, x0: solve(fun, x0, max_nfev=2))
        with pytest.raises(FitFailureError) as info:
            fit_damped_sinusoid(samples)
        assert info.value.diagnostics["nfev"] == 2
        assert set(info.value.diagnostics) == {"cost", "residual_rms", "nfev"}

    @pytest.mark.parametrize("flip", ["amplitude", "frequency"])
    def test_covariance_after_sign_canonicalisation(self, flip, monkeypatch):
        # start at the mirror image of the usual start: (-V0, phi + pi) or
        # (-delta, -phi) is the same model, so the solver ends there and the
        # fit must map it back, covariance included
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
        np.testing.assert_allclose(fit.covariance, ref.covariance, rtol=1e-6)


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
        with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
            fit_dls_global(clean_datasets()[:1] + [make_dls_dataset(*columns)],
                           BETA1)

    def test_dls_fixed_beta1(self, bad):
        with pytest.raises(InvalidArgumentError, match="beta1 must be finite"):
            fit_dls_global(clean_datasets(), bad)
        assert fit_dls_global(clean_datasets(), bad, free_beta1=True).parameters[
            "beta1"] == pytest.approx(BETA1, rel=1e-6)

