import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from magictrap.constants import hz_from_kelvin
from magictrap.errors import InvalidArgumentError
from magictrap.thermal import (
    ThermalEnsemble,
    _gamma_p,
    cdf,
    mean_energy,
    pdf,
    sample,
    truncation_mass,
)

T17 = 17e-6
THETA17 = hz_from_kelvin(T17)


def quad_oracle(ens, integrand, upper=None):
    """Independent quadrature of integrand(E)*pdf(E) over the support."""
    hi = ens.truncation_hz if upper is None else upper
    if math.isinf(hi):
        hi = 60.0 * ens.theta_hz
    value, _ = quad(lambda e: integrand(e) * pdf(ens, e), 0.0, hi, limit=200)
    return value


class TestPdf:
    def test_zero_at_origin(self):
        ens = ThermalEnsemble(T17)
        assert pdf(ens, 0.0) == 0.0

    def test_mode_at_twice_theta(self):
        # derivative changes sign at E = 2 kB T / h
        ens = ThermalEnsemble(T17)
        mode = 2.0 * THETA17
        h = mode * 1e-5
        assert pdf(ens, mode - h) < pdf(ens, mode)
        assert pdf(ens, mode + h) < pdf(ens, mode)

    def test_untruncated_normalization(self):
        ens = ThermalEnsemble(T17)
        assert quad_oracle(ens, lambda e: 1.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("trunc_over_theta", [0.5, 1.0, 3.0, 10.0, 50.0])
    def test_renormalized_truncated_density(self, trunc_over_theta):
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        assert quad_oracle(ens, lambda e: 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_zero_beyond_truncation(self):
        ens = ThermalEnsemble(T17, 3.0 * THETA17)
        assert pdf(ens, 3.1 * THETA17) == 0.0

    def test_nonnegative(self):
        ens = ThermalEnsemble(T17, 5.0 * THETA17)
        grid = np.linspace(0.0, 8.0 * THETA17, 200)
        assert np.all(pdf(ens, grid) >= 0.0)

    def test_raw_mode_integrates_to_mass(self):
        ens = ThermalEnsemble(T17, 3.0 * THETA17)
        raw, _ = quad(lambda e: pdf(ens, e, renormalize=False), 0.0,
                      ens.truncation_hz, limit=200)
        assert raw == pytest.approx(truncation_mass(ens), rel=1e-9)

    def test_negative_energy_rejected(self):
        with pytest.raises(InvalidArgumentError):
            pdf(ThermalEnsemble(T17), -1.0)


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

    @pytest.mark.parametrize("a", [3, 4])
    def test_matches_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.gammainc(a, 0, mpmath.mpf(float(x)),
                                                  regularized=True))
                            for x in self.GRID])
        rel = np.abs(_gamma_p(a, self.GRID) - ref) / ref
        assert rel.max() <= 1e-14

    @pytest.mark.parametrize("a", [3, 4])
    def test_matches_scipy(self, a):
        # scipy's own gammainc is off by up to 1.4e-14 from mpmath below
        # x ~ 1e-7, so this comparison carries that much on top of 1e-14
        from scipy.special import gammainc
        ref = gammainc(a, self.GRID)
        rel = np.abs(_gamma_p(a, self.GRID) - ref) / ref
        assert rel.max() <= 2e-14

    @pytest.mark.parametrize("a", [3, 4])
    def test_endpoints(self, a):
        assert _gamma_p(a, 0.0) == 0.0
        assert _gamma_p(a, 1e3) == 1.0
        assert _gamma_p(a, math.inf) == 1.0

    def test_cdf_of_infinite_truncation(self):
        ens = ThermalEnsemble(T17)
        assert cdf(ens, 0.0) == 0.0
        assert cdf(ens, math.inf) == 1.0


class TestMeanEnergy:
    def test_untruncated_value(self):
        assert mean_energy(ThermalEnsemble(T17)) == pytest.approx(
            3.0 * THETA17, rel=1e-12)
        assert mean_energy(ThermalEnsemble(T17)) == pytest.approx(1.0627e6,
                                                                  rel=1e-4)

    @given(st.floats(min_value=1e-6, max_value=1e-3))
    def test_untruncated_ratio_is_three(self, temperature):
        ens = ThermalEnsemble(temperature)
        assert mean_energy(ens) / hz_from_kelvin(temperature) == pytest.approx(
            3.0, rel=1e-9)

    def test_truncation_lowers_mean(self):
        truncated = ThermalEnsemble(T17, 3.0 * THETA17)
        assert mean_energy(truncated) < 3.0 * THETA17

    @pytest.mark.parametrize("trunc_over_theta", [1.0, 3.0, 12.0])
    def test_matches_quadrature_oracle(self, trunc_over_theta):
        ens = ThermalEnsemble(T17, trunc_over_theta * THETA17)
        oracle = quad_oracle(ens, lambda e: e)
        assert mean_energy(ens) == pytest.approx(oracle, rel=1e-8)


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
