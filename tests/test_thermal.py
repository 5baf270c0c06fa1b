import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from magictrap import thermal
from magictrap.dls import hz_from_kelvin
from magictrap.errors import InvalidArgumentError
from magictrap.thermal import ThermalEnsemble, _gamma_p, sample, truncation_mass

T17 = 17e-6
THETA17 = hz_from_kelvin(T17)


def cdf(ens, energy_hz):
    """CDF of the truncated density, for the distribution-level tests:
    P(3, x) = 1 - e^-x (1 + x + x^2/2) written out over an array."""
    x = np.minimum(np.asarray(energy_hz, dtype=float), ens.truncation_hz) / ens.theta_hz
    x = np.minimum(x, 1e3)  # e^-x underflows beyond; inf * 0 would be nan
    return (1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x)) / truncation_mass(ens)


def raw_density(ens, energy_hz):
    """Untruncated density (1/Hz) x**2 e^-x / (2 theta), x = E/theta, at one
    energy; zero above the truncation."""
    if energy_hz > ens.truncation_hz:
        return 0.0
    x = energy_hz / ens.theta_hz
    return 0.5 * x * x * math.exp(-x) / ens.theta_hz


def quad_oracle(ens, integrand):
    """Independent quadrature of integrand(E) against the truncated density,
    renormalized by the package's truncation mass."""
    hi = ens.truncation_hz
    if math.isinf(hi):
        hi = 60.0 * ens.theta_hz
    value, _ = quad(lambda e: integrand(e) * raw_density(ens, e), 0.0, hi, limit=200)
    return value / truncation_mass(ens)


def moment_oracle(ens, k):
    """E[E**k] of the truncated density in closed form:
    (k+2)!/2 * theta**k * P(3+k, X)/P(3, X), with scipy's P."""
    x = ens.truncation_hz / ens.theta_hz
    return (math.factorial(k + 2) / 2.0 * ens.theta_hz ** k
            * gammainc(3 + k, x) / gammainc(3, x))


class GuardedGenerator:
    """numpy Generator stand-in whose random() refuses, before allocating,
    any request of more than `limit` values."""

    def __init__(self, seed, limit, requests):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._limit = limit
        self._requests = requests

    def random(self, size):
        count = math.prod(size) if isinstance(size, tuple) else size
        self._requests.append(count)
        assert count <= self._limit, f"asked for {count} values in one call"
        return self._rng.random(size)


class TestPdf:
    """The renormalized density integrates to 1: checks truncation_mass."""

    def test_untruncated_normalization(self):
        ens = ThermalEnsemble(T17)
        assert quad_oracle(ens, lambda e: 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("trunc_over_theta", [0.5, 1.0, 3.0, 10.0, 50.0])
    def test_renormalized_truncated_density(self, trunc_over_theta):
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        assert quad_oracle(ens, lambda e: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_raw_mode_integrates_to_mass(self):
        ens = ThermalEnsemble(T17, 3.0 * THETA17)
        raw, _ = quad(lambda e: raw_density(ens, e), 0.0, ens.truncation_hz, limit=200)
        assert raw == pytest.approx(truncation_mass(ens), rel=1e-9)


class TestTruncationMass:
    def test_untruncated(self):
        assert truncation_mass(ThermalEnsemble(T17)) == 1.0

    def test_three_theta(self):
        ens = ThermalEnsemble(T17, 3.0 * THETA17)
        assert truncation_mass(ens) == pytest.approx(0.57681, abs=1e-5)
        # agrees with the explicit closed form 1 - e^-x (1 + x + x^2/2)
        explicit = 1.0 - math.exp(-3.0) * (1.0 + 3.0 + 4.5)
        assert truncation_mass(ens) == pytest.approx(explicit, rel=1e-12)

    def test_zero_truncation(self):
        assert truncation_mass(ThermalEnsemble(T17, 0.0)) == 0.0

    @given(st.floats(min_value=0.1, max_value=20.0),
           st.floats(min_value=0.1, max_value=20.0))
    def test_monotone_in_truncation(self, a, b):
        lo, hi = sorted((a, b))
        assert (truncation_mass(ThermalEnsemble(T17, hi * THETA17))
                >= truncation_mass(ThermalEnsemble(T17, lo * THETA17)))

    @given(st.floats(min_value=1e-6, max_value=1e-4),
           st.floats(min_value=1e-6, max_value=1e-4))
    def test_monotone_in_inverse_temperature(self, t_a, t_b):
        cold, hot = sorted((t_a, t_b))
        trunc = 5.0 * THETA17
        assert (truncation_mass(ThermalEnsemble(cold, trunc))
                >= truncation_mass(ThermalEnsemble(hot, trunc)))


class TestIncompleteGamma:
    # log-spaced over [1e-8, 200], plus both sides of the x = 2 branch switch
    GRID = np.concatenate([np.geomspace(1e-8, 200.0, 400),
                           np.linspace(1.5, 2.5, 101),
                           [np.nextafter(2.0, 0.0), 2.0]])

    def values(self, a):
        return np.array([_gamma_p(a, float(x)) for x in self.GRID])

    @pytest.mark.parametrize("a", [3, 4])
    def test_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.gammainc(a, 0, mpmath.mpf(float(x)),
                                                  regularized=True))
                            for x in self.GRID])
        rel = np.abs(self.values(a) - ref) / ref
        assert rel.max() <= 1e-14

    @pytest.mark.parametrize("a", [3, 4])
    def test_matches_scipy(self, a):
        # scipy's own gammainc is off by up to 1.4e-14 from mpmath below
        # x ~ 1e-7, so this comparison carries that much on top of 1e-14
        from scipy.special import gammainc
        ref = gammainc(a, self.GRID)
        rel = np.abs(self.values(a) - ref) / ref
        assert rel.max() <= 2e-14

    @pytest.mark.parametrize("a", [3, 4])
    def test_endpoints(self, a):
        assert type(_gamma_p(a, 2.5)) is float
        assert _gamma_p(a, 0.0) == 0.0
        assert _gamma_p(a, 1e3) == 1.0
        assert _gamma_p(a, math.inf) == 1.0

    def test_cdf_of_infinite_truncation(self):
        ens = ThermalEnsemble(T17)
        assert cdf(ens, 0.0) == 0.0
        assert cdf(ens, math.inf) == 1.0


class TestMeanEnergy:
    """The closed-form moment oracles of the sampling tests agree with an
    independent quadrature of the density."""

    @pytest.mark.parametrize("trunc_over_theta", [1.0, 3.0, 12.0])
    def test_matches_quadrature_oracle(self, trunc_over_theta):
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        for k in (1, 2, 4):
            assert moment_oracle(ens, k) == pytest.approx(
                quad_oracle(ens, lambda e: e ** k), rel=1e-8)


class TestSampling:
    def test_deterministic_per_seed(self):
        ens = ThermalEnsemble(T17, 10.0 * THETA17)
        a = sample(ens, 5000, seed=42)
        b = sample(ens, 5000, seed=42)
        assert np.array_equal(a, b)
        c = sample(ens, 5000, seed=43)
        assert not np.array_equal(a, c)

    def test_mean_matches_clt_bound(self):
        n = 1_000_000
        ens = ThermalEnsemble(T17)
        draws = sample(ens, n, seed=7)
        standard_error = math.sqrt(3.0) * THETA17 / math.sqrt(n)
        assert abs(draws.mean() - 3.0 * THETA17) < 4.0 * standard_error

    def test_support_respected(self):
        ens = ThermalEnsemble(T17, 2.5 * THETA17)
        draws = sample(ens, 20_000, seed=3)
        assert draws.min() >= 0.0
        assert draws.max() <= ens.truncation_hz

    def test_empty_request_rejected(self):
        with pytest.raises(InvalidArgumentError):
            sample(ThermalEnsemble(T17), 0, seed=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, np.True_, "3", None])
    def test_non_integer_size_rejected_before_drawing(self, n, monkeypatch):
        requests = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: GuardedGenerator(seed, 0, requests))
        with pytest.raises(InvalidArgumentError) as info:
            sample(ThermalEnsemble(T17), n, seed=1)
        assert info.value.code == "invalid-argument"
        assert requests == []

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False, np.True_])
    def test_bad_seed_rejected_before_drawing(self, seed, monkeypatch):
        # None would draw from fresh OS entropy: not deterministic per seed
        generators = []
        monkeypatch.setattr(np.random, "default_rng", generators.append)
        with pytest.raises(InvalidArgumentError) as info:
            sample(ThermalEnsemble(T17), 5, seed=seed)
        assert info.value.code == "invalid-argument"
        assert generators == []

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_size_accepted(self, n):
        assert np.array_equal(sample(ThermalEnsemble(T17), n, seed=3),
                              sample(ThermalEnsemble(T17), 5, seed=3))

    @pytest.mark.parametrize("trunc_over_theta", [1.0, 3.0, 12.0, math.inf])
    def test_moments_match_closed_forms(self, trunc_over_theta):
        n = 200_000
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        draws = sample(ens, n, seed=17)
        m1, m2, m4 = (moment_oracle(ens, k) for k in (1, 2, 4))
        assert abs(draws.mean() - m1) < 4.0 * math.sqrt((m2 - m1 * m1) / n)
        assert abs(np.mean(draws * draws) - m2) < 4.0 * math.sqrt((m4 - m2 * m2) / n)

    @pytest.mark.parametrize("trunc_over_theta,n", [(0.0, 100_000), (0.05, 100_000),
                                                    (math.inf, thermal.DRAW_BUDGET + 1)])
    def test_shallow_truncation_raises_before_drawing(self, trunc_over_theta, n,
                                                      monkeypatch):
        # at 0.05 theta the mass is 2.0e-5: 1e5 energies would need 5e9 draws
        requests = []
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: GuardedGenerator(seed, 0, requests))
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        with pytest.raises(InvalidArgumentError) as info:
            sample(ens, n, seed=1)
        assert info.value.code == "invalid-argument"
        assert info.value.diagnostics["n"] == n
        assert info.value.diagnostics["mass"] == truncation_mass(ens)
        assert requests == []

    def test_large_request_draws_in_bounded_passes(self, monkeypatch):
        # mass 0.0144 at 0.5 theta: about 2.1e6 draws, so several passes
        requests = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: GuardedGenerator(
            seed, 3 * thermal.PASS_DRAWS, requests))
        ens = ThermalEnsemble(T17, 0.5 * THETA17)
        draws = sample(ens, 30_000, seed=2)
        assert len(requests) >= 2
        assert draws.size == 30_000
        assert 0.0 <= draws.min() <= draws.max() <= ens.truncation_hz

    @pytest.mark.parametrize("trunc_over_theta", [3.0, math.inf])
    def test_kolmogorov_smirnov(self, trunc_over_theta):
        n = 100_000
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        draws = np.sort(sample(ens, n, seed=11))
        model = cdf(ens, draws)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        distance = max(np.max(np.abs(empirical_hi - model)),
                       np.max(np.abs(model - empirical_lo)))
        critical_1pct = 1.6276 / math.sqrt(n)
        assert distance < critical_1pct


class TestValidation:
    def test_bad_temperature(self):
        with pytest.raises(InvalidArgumentError):
            ThermalEnsemble(0.0)
        with pytest.raises(InvalidArgumentError):
            ThermalEnsemble(-1e-6)

    def test_bad_truncation(self):
        with pytest.raises(InvalidArgumentError):
            ThermalEnsemble(T17, -1.0)
