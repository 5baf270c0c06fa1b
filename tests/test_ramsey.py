import math

import numpy as np
import pytest

from magictrap.constants import hz_from_kelvin
from magictrap.dls import TrapCoefficients, dls, dls_minimum, magic_depth
from magictrap.errors import (
    ConventionViolationError,
    InvalidArgumentError,
    OutOfRangeError,
    UnphysicalConfigurationError,
)
from magictrap.ramsey import (
    RamseyTrace,
    TrapFieldConfig,
    bottom_depth,
    coherence_vs_depth,
    combine_coherence,
    local_depth,
    ramsey_population,
    ramsey_trace,
    residual_shift,
    t2_star,
    visibility,
    visibility_curve,
)
from magictrap.thermal import sample, truncation_mass

MEASURED = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
B0 = 3.115
U_MAGIC = magic_depth(MEASURED, B0)


def config(temperature_k, ratio=1.0, detuning_hz=0.0, coeffs=MEASURED):
    return TrapFieldConfig(coeffs=coeffs, b_field_gauss=B0,
                           mean_depth_hz=ratio * U_MAGIC,
                           temperature_k=temperature_k,
                           detuning_hz=detuning_hz)


def trapezoid_population(cfg, t, n=300_000):
    """Dense-grid oracle for the thermal average, independent of the
    adaptive quadrature."""
    theta = hz_from_kelvin(cfg.temperature_k)
    u0 = cfg.mean_depth_hz - 1.5 * theta
    xmax = min(abs(u0) / theta, 60.0)
    x = np.linspace(0.0, xmax, n)
    weight = 0.5 * x * x * np.exp(-x)
    u = u0 + 0.5 * theta * x
    linear = cfg.coeffs.beta1 + cfg.coeffs.beta2 * cfg.b_field_gauss
    shift = (linear + cfg.coeffs.beta4 * u) * u
    p0 = 0.5 + 0.5 * np.cos(2 * np.pi * (cfg.detuning_hz + shift) * t)
    return float(np.trapezoid(weight * p0, x) / np.trapezoid(weight, x))


class TestDepthGeometry:
    def test_bottom_depth_value(self):
        value = bottom_depth(-4.1973e6, 17e-6)
        oracle = -4.1973e6 - 1.5 * hz_from_kelvin(17e-6)
        assert value == oracle
        assert value == pytest.approx(-4.7286e6, rel=1e-4)

    def test_cold_limit(self):
        assert bottom_depth(-4.1973e6, 1e-12) == pytest.approx(-4.1973e6,
                                                               rel=1e-8)

    def test_linear_in_temperature(self):
        u_a = -4.0e6
        d1 = u_a - bottom_depth(u_a, 10e-6)
        d2 = u_a - bottom_depth(u_a, 20e-6)
        assert d2 == pytest.approx(2.0 * d1, rel=1e-12)

    def test_hot_ensemble_rejected(self):
        # a nominal depth above the thermal offset leaves no trap at all
        with pytest.raises(UnphysicalConfigurationError):
            bottom_depth(1.0e6, 17e-6)

    def test_positive_mean_depth_rejected(self):
        with pytest.raises(ConventionViolationError):
            bottom_depth(1.0, 17e-6)

    def test_local_depth(self):
        u0 = -4.7286e6
        assert local_depth(u0, 0.0) == u0
        assert local_depth(u0, abs(u0)) == pytest.approx(u0 / 2.0, rel=1e-12)
        mean_e = 3.0 * hz_from_kelvin(17e-6)
        assert local_depth(bottom_depth(-4.1973e6, 17e-6), mean_e) == (
            pytest.approx(-4.1973e6, rel=1e-12))

    def test_local_depth_range(self):
        with pytest.raises(OutOfRangeError):
            local_depth(-4.7e6, -1.0)
        with pytest.raises(OutOfRangeError):
            local_depth(-4.7e6, 4.8e6)


class TestResidualShift:
    def test_zero_at_mean_energy(self):
        assert residual_shift(MEASURED, 17e-6, 3.0 * hz_from_kelvin(17e-6)) == 0.0

    def test_cold_atom_value(self):
        assert residual_shift(MEASURED, 17e-6, 0.0) == pytest.approx(1.299,
                                                                     abs=5e-4)

    def test_matches_full_parabola_at_magic(self):
        # vertex expansion equals the full model when U_a = U_M
        cfg = config(17e-6)
        u0 = cfg.bottom_depth_hz
        minimum = dls_minimum(MEASURED, B0)
        for energy in np.linspace(0.0, abs(u0) * 0.9, 13):
            full = dls(MEASURED, B0, local_depth(u0, energy)) - minimum
            expansion = residual_shift(MEASURED, 17e-6, energy)
            assert expansion == pytest.approx(full, rel=1e-9, abs=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(InvalidArgumentError):
            residual_shift(MEASURED, 17e-6, -1.0)


class TestRamseyPopulation:
    def test_unity_at_zero_time(self):
        assert ramsey_population(config(17e-6, detuning_hz=50.0), 0.0) == 1.0

    def test_cold_limit_reduces_to_single_atom(self):
        cfg = config(1e-9, detuning_hz=20.0)
        u0 = cfg.bottom_depth_hz
        for t in (0.01, 0.05, 0.2):
            single = 0.5 + 0.5 * math.cos(
                2 * math.pi * (20.0 + dls(MEASURED, B0, u0)) * t)
            assert ramsey_population(cfg, t) == pytest.approx(single, abs=1e-6)

    def test_against_trapezoid_oracle(self):
        for cfg, t in [(config(17e-6, detuning_hz=3.0), 0.1),
                       (config(25e-6, ratio=0.8), 0.05),
                       (config(8e-6, ratio=1.2, detuning_hz=40.0), 0.15)]:
            assert ramsey_population(cfg, t) == pytest.approx(
                trapezoid_population(cfg, t), abs=1e-7)

    def test_against_monte_carlo(self):
        cfg = config(17e-6, detuning_hz=10.0)
        t = 0.1
        n = 1_000_000
        energies = sample(cfg.ensemble, n, seed=99)
        u = cfg.bottom_depth_hz + 0.5 * energies
        linear = MEASURED.beta1 + MEASURED.beta2 * B0
        shift = (linear + MEASURED.beta4 * u) * u
        p0 = 0.5 + 0.5 * np.cos(2 * np.pi * (10.0 + shift) * t)
        standard_error = p0.std(ddof=1) / math.sqrt(n)
        assert abs(ramsey_population(cfg, t) - p0.mean()) < 4 * standard_error

    def test_bounded(self):
        cfg = config(30e-6, ratio=0.7, detuning_hz=80.0)
        for t in np.linspace(0.0, 0.3, 16):
            assert 0.0 <= ramsey_population(cfg, float(t)) <= 1.0

    def test_envelope_bound(self):
        cfg = config(17e-6, detuning_hz=25.0)
        for t in np.linspace(0.0, 1.0, 9):
            population = ramsey_population(cfg, float(t))
            envelope = visibility(cfg, float(t))
            assert abs(population - 0.5) <= 0.5 * envelope + 1e-9

    def test_literal_average_scales_by_mass(self):
        cfg = config(40e-6, ratio=0.6)  # heavy truncation
        mass = truncation_mass(cfg.ensemble)
        assert mass < 0.9
        assert ramsey_population(cfg, 0.0, renormalize=False) == (
            pytest.approx(mass, rel=1e-9))

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ramsey_population(config(17e-6), -0.1)


class TestVisibility:
    def test_unity_at_zero_time(self):
        assert visibility(config(17e-6), 0.0) == 1.0

    def test_bounded_by_one(self):
        cfg = config(20e-6, ratio=0.9)
        for t in np.linspace(0.0, 2.0, 11):
            assert visibility(cfg, float(t)) <= 1.0

    def test_detuning_invariance(self):
        t = 0.8
        assert visibility(config(17e-6, detuning_hz=0.0), t) == (
            visibility(config(17e-6, detuning_hz=100.0), t))

    def test_one_over_e_near_quoted_decay(self):
        # at the magic point and 17 uK the decay time is about 1.5 s
        assert visibility(config(17e-6), 1.5) == pytest.approx(1 / math.e,
                                                               rel=0.30)


class TestT2Star:
    def test_crossing_semantics(self):
        cfg = config(17e-6)
        t_cross = t2_star(cfg)
        assert visibility(cfg, t_cross) == pytest.approx(1 / math.e, rel=1e-3)
        assert visibility(cfg, 0.5 * t_cross) > 1 / math.e

    def test_magic_17uk_value(self):
        assert t2_star(config(17e-6)) == pytest.approx(1.5, rel=0.30)
        # frozen model value for regression
        assert t2_star(config(17e-6)) == pytest.approx(1.318, rel=2e-3)

    def test_zero_temperature_sentinel(self):
        assert t2_star(config(1e-9), horizon_s=50.0) == math.inf


class TestCombineCoherence:
    def test_quoted_composition(self):
        assert combine_coherence(4.0, 0.3, 1.5) == pytest.approx(
            0.23529411764705882, rel=1e-12)
        assert combine_coherence(4.0, 0.3, 6.6) == pytest.approx(
            0.26774847870182555, rel=1e-12)
        # rounded forms: 0.2353 s and 0.2678 s
        assert combine_coherence(4.0, 0.3, 1.5) == pytest.approx(0.2353,
                                                                 abs=1e-4)
        assert combine_coherence(4.0, 0.3, 6.6) == pytest.approx(0.2678,
                                                                 abs=1e-4)

    def test_infinite_passthrough(self):
        assert combine_coherence(math.inf, math.inf, 1.5) == 1.5
        assert combine_coherence(math.inf, math.inf, math.inf) == math.inf

    def test_never_exceeds_smallest(self):
        assert combine_coherence(4.0, 0.3, 1.5) < 0.3

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_invalid_inputs(self, bad):
        with pytest.raises(InvalidArgumentError):
            combine_coherence(bad, 0.3, 1.5)


class TestCoherenceCurve:
    def test_magic_point_value(self):
        curve = coherence_vs_depth(config(17e-6), [1.0], 4.0, 0.3)
        assert curve[0][0] == 1.0
        assert curve[0][1] == pytest.approx(0.2303, rel=2e-3)

    def test_sweeps_equal_their_scalar_calls(self):
        # unsorted inputs, so a reordered sweep cannot pass
        cfg = config(17e-6, ratio=0.8, detuning_hz=50.0)
        times = [0.3, 0.0, 1.7, 0.05, 0.3]
        for renormalize in (True, False):
            trace = ramsey_trace(cfg, times, renormalize)
            assert trace.times_s == tuple(times)
            assert trace.population == tuple(
                ramsey_population(cfg, t, renormalize) for t in times)
            curve = visibility_curve(cfg, times, renormalize)
            assert curve.times_s == tuple(times)
            assert curve.visibility == tuple(
                visibility(cfg, t, renormalize) for t in times)
        ratios = [1.2, 0.8, 1.0]
        assert coherence_vs_depth(config(17e-6), ratios, 4.0, 0.3) == [
            (r, combine_coherence(4.0, 0.3, t2_star(config(17e-6, ratio=r))))
            for r in ratios]

    def test_coarse_grid_peaks_at_magic(self):
        # grid step far above the thermal-skew shift: vertex wins
        ratios = [0.6, 0.8, 1.0, 1.2, 1.4]
        taus = [tau for _, tau in coherence_vs_depth(config(17e-6), ratios,
                                                     4.0, 0.3)]
        assert taus.index(max(taus)) == ratios.index(1.0)

    def test_fine_grid_peak_sits_one_step_low_at_17uk(self):
        # the truncated-Boltzmann mode reaches the parabola vertex when the
        # mean depth is about theta/2 short of magic, so on a 0.05 grid at
        # 17 uK the model optimum lands at 0.95, not 1.00
        theta = hz_from_kelvin(17e-6)
        predicted = 1.0 - theta / (2.0 * abs(U_MAGIC))
        assert predicted == pytest.approx(0.958, abs=2e-3)
        ratios = [0.90, 0.95, 1.00, 1.05]
        taus = [tau for _, tau in coherence_vs_depth(config(17e-6), ratios,
                                                     4.0, 0.3)]
        assert taus.index(max(taus)) == ratios.index(0.95)

    def test_fine_grid_peaks_at_magic_when_cold(self):
        ratios = [0.90, 0.95, 1.00, 1.05, 1.10]
        taus = [tau for _, tau in coherence_vs_depth(config(8e-6), ratios,
                                                     4.0, 0.3)]
        assert taus.index(max(taus)) == ratios.index(1.00)

    def test_bad_ratio_rejected(self):
        with pytest.raises(InvalidArgumentError):
            coherence_vs_depth(config(17e-6), [0.0, 1.0], 4.0, 0.3)


class TestTraceContainers:
    def test_ramsey_trace(self):
        cfg = config(17e-6, detuning_hz=25.0)
        trace = ramsey_trace(cfg, [0.0, 0.01, 0.02])
        assert trace.population[0] == 1.0
        assert len(trace.times_s) == 3

    def test_visibility_curve(self):
        curve = visibility_curve(config(17e-6), [0.0, 0.5])
        assert curve.visibility[0] == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RamseyTrace((0.0, 1.0), (0.5,), config(17e-6))
