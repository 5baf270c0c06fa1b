import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from magictrap import ramsey
from magictrap.dls import TrapCoefficients, dls, dls_minimum, hz_from_kelvin, magic_depth
from magictrap.errors import (
    ConventionViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    UnphysicalConfigurationError,
)
from magictrap.ramsey import (
    RamseyTrace,
    TrapFieldConfig,
    VisibilityCurve,
    coherence_vs_depth,
    combine_coherence,
    ramsey_population,
    ramsey_trace,
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
    steepest-descent kernel."""
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


def bottom_depth(mean_depth_hz, temperature_k):
    return TrapFieldConfig(MEASURED, B0, mean_depth_hz, temperature_k).bottom_depth_hz


#: 2/8/17/40 uK x ratios from 0.3 to 2.0, the grid the root solver is timed on
T2_GRID = [(temperature_uk, ratio) for temperature_uk in (2, 8, 17, 40)
           for ratio in (0.3, 0.5, 0.8, 0.95, 1.0, 1.05, 1.2, 1.5, 2.0)]


def tight_t2_star(cfg):
    """The first 1/e crossing of the same kernel by a rule independent of
    t2_star: a bracket by doubling from 1e-4 s, then bisection to 1e-14
    relative."""
    lo, hi = 0.0, 1e-4
    while visibility(cfg, hi) > 1 / math.e:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if visibility(cfg, mid) > 1 / math.e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def count_visibility_calls(monkeypatch):
    """Pass every module-level visibility call through, and return the
    list its times are appended to."""
    times = []
    monkeypatch.setattr(ramsey, "visibility",
                        lambda cfg, t: times.append(t) or visibility(cfg, t))
    return times


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

    def test_positive_mean_depth_rejected(self):
        # any positive mean depth breaks the signed convention, however far
        # above the thermal offset it lies
        for mean_depth_hz in (1.0, 1.0e6):
            with pytest.raises(ConventionViolationError) as info:
                bottom_depth(mean_depth_hz, 17e-6)
            assert info.value.code == "convention-violation"


class TestConfig:
    @pytest.mark.parametrize("args,message", [
        ((B0, -4e6, 0.0), "temperature must be positive"),
        ((B0, -4e6, -17e-6), "temperature must be positive"),
        ((B0, -4e6, math.nan), "temperature must be positive"),
        ((math.inf, -4e6, 17e-6), "b_field_gauss must be finite"),
        ((math.nan, -4e6, 17e-6), "b_field_gauss must be finite"),
        ((B0, -4e6, 17e-6, math.inf), "detuning_hz must be finite"),
        ((B0, -4e6, 17e-6, math.nan), "detuning_hz must be finite"),
        # +inf fails the finiteness check before the sign check
        ((B0, math.inf, 17e-6), "trap depth must be finite"),
        ((B0, -math.inf, 17e-6), "trap depth must be finite")])
    def test_invalid_fields_rejected(self, args, message):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            TrapFieldConfig(MEASURED, *args)

    def test_coherence_past_the_zero_crossing_is_unphysical(self):
        # at 4 G, past the zero crossing at 3.505 G, the vertex U_M lies
        # above zero, so no ratio of it is a trap depth
        base = TrapFieldConfig(MEASURED, 4.0, 0.0, 17e-6)
        with pytest.raises(UnphysicalConfigurationError,
                           match="magic depth is not a trap at this field"):
            coherence_vs_depth(base, [0.5, 1.0], 4.0, 0.3)

    def test_temperature_past_float_range_in_hz_rejected(self):
        # kB*T/h overflows above about 8.6e297 K
        with pytest.raises(InvalidArgumentError) as info:
            TrapFieldConfig(MEASURED, B0, -4e6, 1e300)
        assert info.value.code == "invalid-argument"

    def test_phase_per_second_past_float_range_rejected(self):
        # at 1e150 K the shift's spread over kB*T/h overflows per second;
        # at 1e140 K it does not, and the kernel still runs
        with pytest.raises(InvalidArgumentError) as info:
            TrapFieldConfig(MEASURED, B0, -4e6, 1e150)
        assert info.value.code == "invalid-argument"
        hot = TrapFieldConfig(MEASURED, B0, -4e6, 1e140)
        assert visibility(hot, 0.0) == 1.0
        assert 0.0 <= visibility(hot, 1.0) < 1e-200

    def test_spread_and_carrier_past_float_range_rejected(self):
        # at -1e160 Hz k1 and k2 are finite, but the spread x_end*|k1| and
        # the carrier rate overflow; at -1e150 Hz both are finite
        with pytest.raises(InvalidArgumentError) as info:
            TrapFieldConfig(MEASURED, B0, -1e160, 17e-6)
        assert info.value.code == "invalid-argument"
        deep = TrapFieldConfig(MEASURED, B0, -1e150, 17e-6)
        assert visibility(deep, 0.0) == 1.0
        assert ramsey_population(deep, 0.0) == 1.0


def residual_shift(temperature_k, energy_hz):
    """Vertex expansion of the shift of an atom of energy E when the mean
    depth sits at magic: beta4 * ((E - 3*kB*T/h)/2)**2 above the minimum."""
    return MEASURED.beta4 * (0.5 * (energy_hz - 3.0 * hz_from_kelvin(temperature_k))) ** 2


class TestResidualShift:
    """At the magic mean depth an atom of energy E sees the local depth
    U0 + E/2; its shift above the minimum is the vertex expansion."""

    def local_shift(self, energy_hz):
        cfg = config(17e-6)
        return (dls(MEASURED, B0, cfg.bottom_depth_hz + 0.5 * energy_hz)
                - dls_minimum(MEASURED, B0))

    def test_zero_at_mean_energy(self):
        assert self.local_shift(3.0 * hz_from_kelvin(17e-6)) == pytest.approx(0.0, abs=1e-9)

    def test_cold_atom_value(self):
        assert self.local_shift(0.0) == pytest.approx(1.299, abs=5e-4)

    def test_matches_full_parabola_at_magic(self):
        u0 = config(17e-6).bottom_depth_hz
        for energy in np.linspace(0.0, abs(u0) * 0.9, 13):
            assert self.local_shift(energy) == pytest.approx(
                residual_shift(17e-6, energy), rel=1e-9, abs=1e-12)


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
        # the literal average over the truncated density is mass * value
        assert mass * ramsey_population(cfg, 0.0) == mass

    @pytest.mark.parametrize("temperature_uk,ratio", [
        (40, 0.6), (17, 1.0), (2, 1.0), (8, 1.5)])
    def test_literal_average_matches_mass_scaled_form(self, temperature_uk,
                                                     ratio):
        # the raw density's mass is the closed form P(3, xmax). The raw
        # integrals are referenced to the shift at the trap bottom, so the
        # carrier adds it to the detuning
        cfg = config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0)
        mass = truncation_mass(cfg.ensemble)
        bottom_shift = dls(MEASURED, B0, cfg.bottom_depth_hz)
        for t in (0.0, 0.01, 0.3, 2.0, 30.0):
            num, den = ramsey._integrals([cfg._row(t)])[0]
            assert den == mass
            carrier = np.exp(2j * math.pi * (cfg.detuning_hz + bottom_shift) * t)
            population = mass * 0.5 * (1.0 + (carrier * num).real / den)
            envelope = mass * min(1.0, abs(num) / den)
            assert mass * ramsey_population(cfg, t) == (
                pytest.approx(population, abs=1e-10))
            assert mass * visibility(cfg, t) == (
                pytest.approx(envelope, abs=1e-10))

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ramsey_population(config(17e-6), -0.1)


class TestVisibility:
    def test_unity_at_zero_time(self):
        assert visibility(config(17e-6), 0.0) == 1.0
        assert visibility(config(40e-6, ratio=0.6), 0.0) == 1.0  # truncated

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
        assert t2_star(config(1e-9)) == math.inf

    def test_matches_a_tight_bisection(self):
        for temperature_uk, ratio in T2_GRID:
            cfg = config(temperature_uk * 1e-6, ratio=ratio)
            assert t2_star(cfg) == pytest.approx(tight_t2_star(cfg), rel=1e-10)

    def test_probe_count(self, monkeypatch):
        # the solve starts at the safe time and closes by regula falsi:
        # 7 to 13 probes each, 9.25 on average, where doubling from 1e-4 s
        # and bisecting to 1e-4 took 21 to 34
        probes = count_visibility_calls(monkeypatch)
        counts = []
        for temperature_uk, ratio in T2_GRID:
            probes.clear()
            t2_star(config(temperature_uk * 1e-6, ratio=ratio))
            counts.append(len(probes))
        assert min(counts) >= 2 and max(counts) <= 17
        assert sum(counts) <= 10 * len(counts)


class TestSafeTime:
    """_safe_time against the envelope and against an independent
    variance of the phase per second."""

    CONFIGS = [(temperature_uk, ratio, coeffs)
               for temperature_uk in (2, 8, 17, 40)
               for ratio in (0.3, 0.8, 1.0, 1.2, 2.0)
               for coeffs in (MEASURED, TrapCoefficients(MEASURED.beta1,
                                                         MEASURED.beta2, 0.0))]

    def test_envelope_above_one_over_e_below_it(self):
        for temperature_uk, ratio, coeffs in self.CONFIGS:
            cfg = config(temperature_uk * 1e-6, ratio=ratio, coeffs=coeffs)
            safe = ramsey._safe_time(cfg)
            for t in [safe * k / 16 for k in range(1, 16)] + [safe * (1 - 1e-9)]:
                assert visibility(cfg, t) > 1 / math.e

    def test_matches_the_variance_on_a_dense_grid(self):
        for temperature_uk, ratio, coeffs in self.CONFIGS:
            cfg = config(temperature_uk * 1e-6, ratio=ratio, coeffs=coeffs)
            theta = hz_from_kelvin(cfg.temperature_k)
            u0 = cfg.bottom_depth_hz
            x = np.linspace(0.0, min(abs(u0) / theta, 60.0), 200_001)
            weight = 0.5 * x * x * np.exp(-x)
            weight /= np.trapezoid(weight, x)
            linear = coeffs.beta1 + coeffs.beta2 * B0
            u = u0 + 0.5 * theta * x
            # phase per second from the trap bottom
            f = 2 * np.pi * ((linear + coeffs.beta4 * u) * u
                             - (linear + coeffs.beta4 * u0) * u0)
            mean = np.trapezoid(weight * f, x)
            var = np.trapezoid(weight * (f - mean) ** 2, x)
            assert ramsey._safe_time(cfg) == pytest.approx(
                math.sqrt(2 * (1 - 1 / math.e) / var), rel=1e-6)

    @pytest.mark.parametrize("cfg", [
        # no shift at all: the variance is 0
        TrapFieldConfig(TrapCoefficients(0.0, 0.0, 0.0), B0, U_MAGIC, 17e-6),
        # 1 nK at the magic depth: safe for 6e7 s
        config(1e-9)], ids=["shift-free", "past-horizon"])
    def test_infinite_root_without_a_probe(self, monkeypatch, cfg):
        assert ramsey._safe_time(cfg) > ramsey.T2_STAR_HORIZON_S
        probes = count_visibility_calls(monkeypatch)
        assert t2_star(cfg) == math.inf
        assert probes == []
        monkeypatch.setattr(ramsey, "_integrals", probes.append)
        assert ramsey._t2_stars([cfg, cfg]) == [math.inf, math.inf]
        assert probes == []

    def test_infinite_root_after_doubling_past_the_horizon(self, monkeypatch):
        # 0.15 uK at the magic depth: safe for 2655 s, inside the horizon,
        # and still above 1/e at the horizon itself
        cfg = config(0.15e-6)
        safe = ramsey._safe_time(cfg)
        assert safe < ramsey.T2_STAR_HORIZON_S
        assert visibility(cfg, ramsey.T2_STAR_HORIZON_S) > 1 / math.e
        probes = count_visibility_calls(monkeypatch)
        assert t2_star(cfg) == math.inf
        # the doubling's last step is cut to end at the horizon
        assert probes == [safe, 2.0 * safe, ramsey.T2_STAR_HORIZON_S]
        assert ramsey._t2_stars([cfg]) == [math.inf]

    def test_crossing_between_the_last_doubling_and_the_horizon(self, monkeypatch):
        # 0.2 uK at the magic depth: safe for 1493 s, above 1/e at four
        # times that and below it at the horizon, which a further doubling
        # would step over
        cfg = config(0.2e-6)
        safe = ramsey._safe_time(cfg)
        assert 8.0 * safe > ramsey.T2_STAR_HORIZON_S
        assert visibility(cfg, 4.0 * safe) > 1 / math.e
        assert visibility(cfg, ramsey.T2_STAR_HORIZON_S) < 1 / math.e
        probes = count_visibility_calls(monkeypatch)
        root = t2_star(cfg)
        assert probes[:4] == [safe, 2.0 * safe, 4.0 * safe, ramsey.T2_STAR_HORIZON_S]
        assert root == pytest.approx(tight_t2_star(cfg), rel=1e-10)
        assert ramsey._t2_stars([cfg]) == [root]


def integrate_spy(monkeypatch):
    """Pass every quadrature call of the kernel through, and return the
    list its panel counts are appended to."""
    panels, integrate = [], ramsey.integrate

    def spy(*args, **kwargs):
        panels.append(kwargs["panels"])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ramsey, "integrate", spy)
    return panels


class TestLockstep:
    """The batch paths against their scalar calls, bit for bit."""

    RATIOS = [round(0.5 + 0.05 * i, 2) for i in range(21)] + [0.3, 2.0]

    @pytest.mark.parametrize("temperature_uk", [2, 8, 17, 40])
    def test_lockstep_t2_star_equals_scalar(self, temperature_uk):
        configs = [config(temperature_uk * 1e-6, ratio=r) for r in self.RATIOS]
        assert ramsey._t2_stars(configs) == [t2_star(cfg) for cfg in configs]

    def test_horizon_reached_in_a_batch(self):
        cold = config(1e-9)
        assert t2_star(cold) == math.inf
        configs = [config(17e-6), cold, config(8e-6, ratio=1.2)]
        roots = ramsey._t2_stars(configs)
        assert roots == [t2_star(cfg) for cfg in configs]
        assert roots[1] == math.inf and math.isfinite(roots[0])

    def test_repeated_configs_are_solved_once(self, monkeypatch):
        first_crossings, sizes = ramsey._first_crossings, []

        def counted(envelope, configs):
            sizes.append(len(configs))
            return first_crossings(envelope, configs)

        monkeypatch.setattr(ramsey, "_first_crossings", counted)
        configs = [config(17e-6), config(8e-6), config(17e-6)]
        roots = ramsey._t2_stars(configs)
        assert sizes == [2]
        assert roots == [roots[0], roots[1], roots[0]]

    def test_repeated_ratios_equal_their_scalar_calls(self):
        ratios = [1.0, 0.8, 1.0]
        assert coherence_vs_depth(config(17e-6), ratios, 4.0, 0.3) == [
            (r, combine_coherence(4.0, 0.3, t2_star(config(17e-6, ratio=r))))
            for r in ratios]

    @pytest.mark.parametrize("temperature_uk", [2, 8, 17, 40])
    def test_visibility_curve_equals_scalar(self, temperature_uk, monkeypatch):
        times = [0.02 * i for i in range(101)]
        for ratio in (0.8, 1.0, 1.5):
            cfg = config(temperature_uk * 1e-6, ratio=ratio)
            assert visibility_curve(cfg, times).visibility == tuple(
                visibility(cfg, t) for t in times)
        # the grid mixes points with a segment end and points without: a
        # one-point call integrates only for a point with a segment end
        panels = integrate_spy(monkeypatch)
        segmented = []
        for t in times[1:]:
            panels.clear()
            ramsey._integrals([config(17e-6)._row(t)])
            segmented.append(bool(panels))
        assert any(segmented) and not all(segmented)

    def test_batch_kernel_equals_one_point_calls(self):
        # raw integrals, whose last bits the clipped envelope can hide:
        # configs and times interleaved in one batch
        times = [0.0] + [10.0 ** (k / 4) for k in range(-24, 13)] + [
            0.1 * k for k in range(1, 21)]
        rows = [config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0)._row(t)
                for t in times for temperature_uk in (2, 8, 17, 40)
                for ratio in (0.5, 1.0, 1.5, 2.0)]
        assert ramsey._integrals(rows) == [
            ramsey._integrals([row])[0] for row in rows]

    def test_segments_of_different_reach_in_one_batch(self, monkeypatch):
        # lower ends at Z with Re Z from 3.9 to 39, so four panel counts,
        # one quadrature call each
        rows = [cfg._row(t) for cfg, t in (
            config_at(z, 17) for z in (polar(3.9, 0), 10 + 7.9j, 20 - 7.9j, 39 + 1j))]
        panels = integrate_spy(monkeypatch)
        ramsey._integrals(rows)
        assert len(panels) == len(set(panels)) == 4
        assert ramsey._integrals(rows) == [
            ramsey._integrals([row])[0] for row in rows]


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 1e-320])  # 1/1e-320 = inf
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
        trace = ramsey_trace(cfg, times)
        assert trace.times_s == tuple(times)
        assert trace.population == tuple(ramsey_population(cfg, t) for t in times)
        curve = visibility_curve(cfg, times)
        assert curve.times_s == tuple(times)
        assert curve.visibility == tuple(visibility(cfg, t) for t in times)
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

    @pytest.mark.parametrize("t1_s,t2_prime_s", [
        (0.0, 0.3), (4.0, -1.0), (math.nan, 0.3)])
    def test_bad_coherence_times_rejected_before_any_solve(
            self, monkeypatch, t1_s, t2_prime_s):
        from magictrap import ramsey
        calls = []
        monkeypatch.setattr(ramsey, "_integrals", calls.append)
        with pytest.raises(InvalidArgumentError) as info:
            coherence_vs_depth(config(17e-6), [0.5, 1.0, 1.5], t1_s, t2_prime_s)
        assert info.value.code == "invalid-argument"
        assert calls == []


class TestLongTimes:
    """Once the ensemble has dephased the envelope is far below the
    relative tolerance of its own integral; it must still converge."""

    @pytest.mark.parametrize("temperature_uk", [2, 8, 17, 40])
    def test_sweep_stays_in_range(self, temperature_uk):
        points = [(ratio, t) for ratio in (0.3, 0.5, 1.0, 1.5, 2.0)
                  for t in (1.0, 10.0, 100.0)]
        points += [(0.5, 1000.0), (1.0, 1000.0)]
        for ratio, t in points:
            cfg = config(temperature_uk * 1e-6, ratio=ratio)
            assert 0.0 <= visibility(cfg, t) <= 1.0

    @pytest.mark.parametrize("temperature_uk", [2, 8, 17, 40])
    def test_linear_shift_matches_gamma_characteristic_function(
            self, temperature_uk):
        # beta4 = 0: the phase is omega*x with x ~ Gamma(3), so the envelope
        # is |(1 - i*omega)**-3| (Kuhr et al., PRA 72, 023406 (2005)) where
        # the truncation lies far beyond the density; at 40 uK the 1 mK trap
        # cuts it at x = 25 and leaves out 5e-9 of it, so only the 5 mK trap
        # is checked there. By 1000 s the shift at the bottom of the 5 mK
        # trap turns through about 2.5e7 rad, which the envelope must not see
        coeffs = TrapCoefficients(MEASURED.beta1, MEASURED.beta2, 0.0)
        linear = coeffs.beta1 + coeffs.beta2 * B0
        theta = hz_from_kelvin(temperature_uk * 1e-6)
        for depth_k, times in ((1e-3, (0.01, 0.1, 1.0, 10.0, 100.0, 1e4)),
                               (5e-3, (1000.0,))):
            cfg = TrapFieldConfig(coeffs=coeffs, b_field_gauss=B0,
                                  mean_depth_hz=-hz_from_kelvin(depth_k),
                                  temperature_k=temperature_uk * 1e-6)
            if truncation_mass(cfg.ensemble) < 1.0 - 1e-11:
                continue
            for t in times:
                omega = math.pi * t * linear * theta
                assert visibility(cfg, t) == pytest.approx(
                    (1.0 + omega * omega) ** -1.5, abs=1e-10)

    @pytest.mark.parametrize("temperature_uk,ratio,t", [
        (17, 1.0, 1.0), (40, 0.5, 1.0), (2, 1.5, 3.0), (25, 1.2, 0.3),
        (8, 0.6, 1.0), (2, 1.0, 10.0)])
    def test_against_mpmath(self, temperature_uk, ratio, t):
        mp = pytest.importorskip("mpmath")
        cfg = config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0)
        with mp.workdps(20):
            theta = mp.mpf(hz_from_kelvin(cfg.temperature_k))
            u0 = mp.mpf(cfg.bottom_depth_hz)
            xmax = abs(u0) / theta
            linear = mp.mpf(MEASURED.beta1) + mp.mpf(MEASURED.beta2) * mp.mpf(B0)

            def phase(x):
                u = u0 + theta * x / 2
                return 2 * mp.pi * t * (linear + mp.mpf(MEASURED.beta4) * u) * u

            # Gauss-Legendre panels of about 2 rad each, up to xmax
            n = int(abs(phase(xmax) - phase(0))
                    + abs(phase(xmax / 2) - phase(0))) // 2 + 8
            edges = [xmax * k / n for k in range(n + 1)]
            num = mp.quad(lambda x: x * x * mp.exp(-x) * mp.expj(phase(x)),
                          edges, method="gauss-legendre")
            den = mp.quad(lambda x: x * x * mp.exp(-x), [0, xmax])
            ratio_mp = num / den
            pop = (1 + mp.re(mp.expj(2 * mp.pi * 30 * t) * ratio_mp)) / 2
            assert visibility(cfg, t) == pytest.approx(float(abs(ratio_mp)),
                                                       abs=1e-10)
            assert ramsey_population(cfg, t) == pytest.approx(float(pop),
                                                              abs=1e-10)

    def test_t2_star_is_unchanged(self):
        # roots of the regula falsi solve, each also within 1e-10 of a tight
        # bisection of the same kernel
        frozen = {(2, 0.5): 0.38880702956797364, (8, 1.0): 5.950126696451509,
                  (8, 1.5): 0.09287974270104182, (17, 0.7): 0.08823479291253913,
                  (40, 0.3): 0.03185959051662812,
                  (40, 2.0): 0.008872868567548424}
        for (temperature_uk, ratio), value in frozen.items():
            cfg = config(temperature_uk * 1e-6, ratio=ratio)
            assert t2_star(cfg) == pytest.approx(value, rel=1e-9)
            assert value == pytest.approx(tight_t2_star(cfg), rel=1e-10)

    def test_phase_past_float_range_is_a_coded_failure(self):
        # a linear shift in a 5 mK trap at 40 uK: at 1e308 s its phase
        # spread over the density is past float range
        cfg = TrapFieldConfig(
            coeffs=TrapCoefficients(MEASURED.beta1, MEASURED.beta2, 0.0),
            b_field_gauss=B0, mean_depth_hz=-hz_from_kelvin(5e-3),
            temperature_k=40e-6)
        with pytest.raises(NumericalFailureError) as info:
            visibility(cfg, 1e308)
        assert info.value.code == "numerical-failure"
        assert info.value.diagnostics == {"phase": math.inf}

    def test_numpy_time_past_float_range_warns_nothing(self):
        shift_free = TrapFieldConfig(coeffs=TrapCoefficients(0.0, 0.0, 0.0),
                                     b_field_gauss=B0, mean_depth_hz=U_MAGIC,
                                     temperature_k=17e-6)
        t = np.float64(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (visibility, ramsey_population):
                with pytest.raises(NumericalFailureError) as info:
                    call(config(17e-6), t)
                assert type(info.value.diagnostics["phase"]) is float
                assert call(shift_free, t) == 1.0
            # the carrier of a detuned shift-free trap
            with pytest.raises(NumericalFailureError) as info:
                ramsey_population(replace(shift_free, detuning_hz=37.0), t)
            assert type(info.value.diagnostics["phase"]) is float

    def test_non_finite_time_rejected(self):
        for t in (math.inf, math.nan):
            with pytest.raises(InvalidArgumentError):
                visibility(config(17e-6), t)


def exact_average(cfg, t):
    """Thermal average of exp(i*phi) over the truncated density, in closed
    form with mpmath error functions. phi(x) = A*x + B*x**2 exactly in
    x = E/theta; A and B are read off the shift model at x = 1 and 2."""
    mp = pytest.importorskip("mpmath")
    c = cfg.coeffs
    with mp.workdps(40):
        theta = mp.mpf(hz_from_kelvin(cfg.temperature_k))
        u0 = mp.mpf(cfg.bottom_depth_hz)
        xmax = -u0 / theta
        linear = mp.mpf(c.beta1) + mp.mpf(c.beta2) * mp.mpf(cfg.b_field_gauss)

        def phase(x):
            u = u0 + theta * x / 2
            shift = (linear + mp.mpf(c.beta4) * u) * u
            return 2 * mp.pi * mp.mpf(t) * (shift - (linear + mp.mpf(c.beta4) * u0) * u0)

        a, b = 2 * phase(1) - phase(2) / 2, (phase(2) - 2 * phase(1)) / 2
        den = 1 - mp.exp(-xmax) * (1 + xmax + xmax * xmax / 2)
        c1 = mp.mpc(-1, a)
        if c.beta4 == 0 or t == 0:
            u = -c1 * xmax
            return (1 - mp.exp(-u) * (1 + u + u * u / 2)) / (-c1) ** 3 / den
        c2 = mp.mpc(0, b)
        x_star = -c1 / (2 * c2)
        # exp(q(x*)) times terms that cancel to about |x*|**3
        extra = int(abs(mp.re(c1 * c1 / (4 * c2))) / 2) + 3 * int(mp.log10(1 + abs(x_star)))
        with mp.workdps(40 + extra):
            root = mp.sqrt(-c2)

            def antiderivative(y):  # of (y + x*)**2/2 * exp(c2*y**2)
                gauss = mp.sqrt(mp.pi) / (2 * root) * mp.erf(root * y)
                g = mp.exp(c2 * y * y)
                return ((y * g - gauss) / (2 * c2) + x_star * g / c2
                        + x_star * x_star * gauss) / 2

            num = mp.exp(-c1 * c1 / (4 * c2)) * (
                antiderivative(xmax - x_star) - antiderivative(-x_star))
            return num / den


def polar(r, degrees):
    return r * cmath.exp(1j * math.radians(degrees))


def config_at(z, temperature_uk):
    """(config, t) whose lower end x = 0 has Z = q(0) - q(x*) = z in the
    kernel's branch rule: Z = 1j*w**2 with w = -(p1 + 1j)/(2*sqrt(p2))."""
    w = cmath.sqrt(-1j * z)
    if w.imag > 0:
        w = -w
    root_p2 = -0.5 / w.imag
    p1, p2 = -2.0 * root_p2 * w.real, root_p2 * root_p2
    theta = hz_from_kelvin(temperature_uk * 1e-6)
    t = p2 / (0.5 * math.pi * MEASURED.beta4 * theta * theta)
    linear = MEASURED.beta1 + MEASURED.beta2 * B0
    u0 = (p1 / (math.pi * theta * t) - linear) / (2.0 * MEASURED.beta4)
    return config(temperature_uk * 1e-6, ratio=(u0 + 1.5 * theta) / U_MAGIC,
                  detuning_hz=30.0), t


def assert_exact(cfg, t):
    mp = pytest.importorskip("mpmath")
    phasor = exact_average(cfg, t)
    bottom_shift = dls(cfg.coeffs, cfg.b_field_gauss, cfg.bottom_depth_hz)
    carrier = mp.expj(2 * mp.pi * (cfg.detuning_hz + bottom_shift) * t)
    assert visibility(cfg, t) == pytest.approx(float(abs(phasor)), abs=1e-10)
    assert ramsey_population(cfg, t) == pytest.approx(
        float((1 + mp.re(carrier * phasor)) / 2), abs=1e-10)


class TestKernelEdges:
    """The thermal average against a closed form where the kernel's branch
    rule switches: the disc |Z| <= 4, the box 0 < Re Z <= 40, |Im Z| <= 8,
    and the imaginary axis, from both sides."""

    @pytest.mark.parametrize("temperature_uk", [8, 17])
    @pytest.mark.parametrize("z", [
        polar(3.9, 0), polar(4.1, 0), polar(3.9, 60), polar(4.1, 60),
        polar(3.9, -90), polar(4.1, -90), polar(3.9, 180), polar(4.1, 180),
        polar(3.9, 135), polar(4.1, -135), polar(2.0, -100), polar(1.0, 180),
        39 + 1j, 41 + 1j, 39 - 1j, 41 - 1j,
        0.01 - 10j, -0.01 - 10j, 0.01 - 30j, -0.01 - 30j,
        10 + 7.9j, 10 + 8.1j, 20 - 7.9j, 20 - 8.1j],
        ids=lambda z: f"Z={z.real:.3g}{z.imag:+.3g}j")
    def test_lower_end_at(self, z, temperature_uk):
        assert_exact(*config_at(z, temperature_uk))

    @pytest.mark.parametrize("temperature_uk,ratio,t", [
        (17, 2.0, 0.021544),  # Z = 26.7 + 1.1j, off by 1.5e-9 on a Laguerre path
        (2, 1.0, 1.0), (8, 0.95, 0.0316), (12, 0.8, 0.316), (32, 0.5, 0.0316),
        (17, 1.0, 1e-8), (40, 0.5, 1e-8), (17, 1.0, 1e4), (40, 2.0, 1e4),
        (2, 1.5, 1e4)])
    def test_physical_points(self, temperature_uk, ratio, t):
        assert_exact(config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0), t)

    @pytest.mark.parametrize("temperature_uk,ratio,t", [
        (17, 1.0, 1e10), (8, 0.95, 1e200), (40, 2.0, 1e300)])
    def test_huge_times(self, temperature_uk, ratio, t):
        # q'(x)**2 overflows; the envelope falls as t**-0.5 from where the
        # ridge between the valleys crosses the energy range. (A float
        # carrier phase of 1e12 rad and more is itself off by 1e-4 rad.)
        cfg = config(temperature_uk * 1e-6, ratio=ratio)
        assert visibility(cfg, t) == pytest.approx(
            float(abs(exact_average(cfg, t))), abs=1e-10, rel=1e-9)

    def test_linear_shift(self):
        coeffs = TrapCoefficients(MEASURED.beta1, MEASURED.beta2, 0.0)
        for t in (1e-8, 0.3, 10.0):
            assert_exact(config(17e-6, ratio=0.6, detuning_hz=30.0, coeffs=coeffs), t)

    @pytest.mark.parametrize("beta4", [1e-25, 1e-30])
    @pytest.mark.parametrize("temperature_uk", [2, 17, 40])
    def test_saddle_term_that_underflows(self, monkeypatch, temperature_uk, beta4):
        # beta4 -> 0+ with the trap bottom 1.5x deeper than the vertex: the
        # two ends descend into opposite valleys, and the saddle term's
        # exp(q(x*)), Re q(x*) = p1/(2*p2) below -1e14, underflows to 0. The
        # shift is linear to 1e-13 over the density, so the envelope is
        # |(1 - i*p1)**-3| (Kuhr et al.) with p1 = pi*t*theta*dls'(U0)
        coeffs = TrapCoefficients(MEASURED.beta1, MEASURED.beta2, beta4)
        linear = coeffs.beta1 + coeffs.beta2 * B0
        cfg = TrapFieldConfig(coeffs, B0, 1.5 * linear / (-2.0 * beta4),
                              temperature_uk * 1e-6)
        theta = hz_from_kelvin(cfg.temperature_k)
        halves = []
        half_gaussian = ramsey._half_gaussian
        monkeypatch.setattr(ramsey, "_half_gaussian",
                            lambda *a: halves.append(half_gaussian(*a)) or halves[-1])
        for t in (1.0, 10.0, 100.0):
            p1 = math.pi * t * theta * (linear + 2.0 * beta4 * cfg.bottom_depth_hz)
            assert visibility(cfg, t) == pytest.approx((1.0 + p1 * p1) ** -1.5,
                                                       abs=1e-13, rel=1e-12)
        assert halves == [0.0] * 6

    @pytest.mark.parametrize("temperature_uk,ratio", [
        (1, 5), (2, 10), (2, 20), (2, 50), (8, 50)])
    def test_subnormal_times(self, temperature_uk, ratio):
        # the saddle x* ~ 1/(2*p2) lies near float range, so Z does too:
        # its modulus must not overflow. The envelope is 1 to rounding
        cfg = config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0)
        for t in (1e-321, 1e-318, 1e-315, 1e-310, 1e-307):
            assert 1.0 - 1e-15 <= visibility(cfg, t) <= 1.0
            assert 1.0 - 1e-15 <= ramsey_population(cfg, t) <= 1.0


def separable_s_rule():
    """Nodes and weights of S = sum(w_i**2), w uniform on the simplex: the
    mode-energy spread of a separable orbit. Its density is 2*pi/sqrt(3) on
    [1/3, 1/2] and (2/sqrt(3))*(pi - 3*arccos(1/sqrt(6*(S - 1/3)))) on
    [1/2, 1], which has a square-root kink at 1/2; 16 Gauss-Legendre nodes
    on each side, with S = 1/2 + u**2 on the right."""
    x, g = np.polynomial.legendre.leggauss(16)
    left_s, left_w = 5.0 / 12.0 + x / 12.0, g / 12.0 * 2.0 * math.pi / math.sqrt(3.0)
    half = 0.5 / math.sqrt(2.0)  # u runs over [0, 1/sqrt(2)]
    u = half * (x + 1.0)
    right_s = 0.5 + u * u
    density = 2.0 / math.sqrt(3.0) * (
        math.pi - 3.0 * np.arccos(1.0 / np.sqrt(6.0 * (right_s - 1.0 / 3.0))))
    right_w = g * half * density * 2.0 * u
    return np.concatenate([left_s, right_s]), np.concatenate([left_w, right_w])


def scaled_k2(cfg, s):
    """cfg with beta4 -> s*beta4 and beta1 -> beta1 - 2*(s - 1)*beta4*U0:
    k1 is unchanged and k2 scaled by s."""
    c, u0 = cfg.coeffs, cfg.bottom_depth_hz
    return replace(cfg, coeffs=TrapCoefficients(
        c.beta1 - 2.0 * (s - 1.0) * c.beta4 * u0, c.beta2, s * c.beta4))


class TestRowScaling:
    """A row with p2 scaled by s against the config whose k2 is scaled by s
    (the beta4 scaling oracle), and the mixed-orbit limit s = 5/4 of the
    orbit variance of the depth."""

    @pytest.mark.parametrize("s", [0.5, 1.25, 2.0])
    def test_scaled_row_equals_scaled_config(self, s):
        for temperature_uk, ratio in ((2, 1.0), (8, 1.0), (17, 0.8), (40, 1.5)):
            cfg = config(temperature_uk * 1e-6, ratio=ratio, detuning_hz=30.0)
            other = scaled_k2(cfg, s)
            carrier = 2.0 * math.pi * (other.detuning_hz + dls(
                other.coeffs, B0, other.bottom_depth_hz))
            for t in (0.01, 0.3, 1.0, 3.0):
                p1, p2, x_end, den = cfg._row(t)
                num, den = ramsey._integrals([(p1, s * p2, x_end, den)])[0]
                assert min(1.0, abs(num) / den) == pytest.approx(
                    visibility(other, t), abs=1e-13)
                population = 0.5 * (1.0 + (cmath.exp(1j * carrier * t) * num).real / den)
                assert population == pytest.approx(ramsey_population(other, t), abs=1e-13)

    def test_mixed_limit_t2_star_at_magic(self):
        # T2* at the vertex scales as 1/(beta4*theta**2): the ratio does
        # not depend on temperature
        for temperature_uk in (8, 16, 17):
            cfg = config(temperature_uk * 1e-6)
            assert t2_star(scaled_k2(cfg, 1.25)) / t2_star(cfg) == pytest.approx(
                1.0601, abs=1e-4)

    def test_separable_rule_moments(self):
        s, w = separable_s_rule()
        assert (w.sum(), w @ s, w @ s**2) == pytest.approx((1.0, 0.5, 4 / 15),
                                                           abs=1e-14)

    def test_separable_limit_t2_star_at_magic(self):
        # each S_j scales k2 by 1 + S_j/2; T2* at the vertex scales as
        # 1/(beta4*theta**2), so the ratio does not depend on temperature
        s, w = separable_s_rule()
        for temperature_uk in (8, 16, 17):
            cfg = config(temperature_uk * 1e-6)

            def envelope(t):
                p1, p2, x_end, den = cfg._row(t)
                rows = [(p1, p2 * (1.0 + sj / 2.0), x_end, den) for sj in s]
                return abs(sum(wj * num for wj, (num, _) in
                               zip(w, ramsey._integrals(rows)))) / den

            kernel = t2_star(cfg)
            lo, hi = 0.5 * kernel, kernel
            assert envelope(lo) > 1.0 / math.e > envelope(hi)
            for _ in range(20):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if envelope(mid) > 1.0 / math.e else (lo, mid)
            assert 0.5 * (lo + hi) / kernel == pytest.approx(0.9120, abs=2e-4)


def test_laguerre_table():
    from numpy.polynomial.laguerre import laggauss
    from magictrap.ramsey import LAGUERRE_NODES, LAGUERRE_WEIGHTS
    nodes, weights = laggauss(32)
    assert np.allclose(LAGUERRE_NODES, nodes, rtol=1e-13, atol=0)
    assert np.allclose(LAGUERRE_WEIGHTS, weights, rtol=1e-12, atol=0)
    # exact for polynomials of degree < 64: moments of exp(-s) are k!
    for k in (0, 1, 2, 5, 20, 40, 63):
        moment = (np.asarray(LAGUERRE_WEIGHTS) * np.asarray(LAGUERRE_NODES) ** k).sum()
        assert moment == pytest.approx(math.factorial(k), rel=1e-14)


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
            RamseyTrace((0.0, 1.0), (0.5,))

    @pytest.mark.parametrize("container", [RamseyTrace, VisibilityCurve])
    @pytest.mark.parametrize("times,values,message", [
        ((0.0,), (0.5, 0.4), "must match in length"),
        ((0.0, 1.0), (1.0, 1.5), "must lie in"),
        ((0.0, 1.0), (-0.1, 0.5), "must lie in")])
    def test_coded_errors(self, container, times, values, message):
        with pytest.raises(InvalidArgumentError, match=message):
            container(times, values)
