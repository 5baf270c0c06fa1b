"""Boltzmann energy distribution of atoms in a 3D harmonic trap, truncated
at the finite trap depth: density p(E) = E**2/(2*theta**3) * exp(-E/theta)
with theta = kB*T/h, renormalized over [0, truncation]. Energies in Hz.
"""
import math
from dataclasses import dataclass

import numpy as np

from .constants import hz_from_kelvin
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class ThermalEnsemble:
    temperature_k: float
    truncation_hz: float = math.inf

    def __post_init__(self):
        if not (self.temperature_k > 0 and math.isfinite(self.temperature_k)):
            raise InvalidArgumentError("temperature must be positive and finite")
        if math.isnan(self.truncation_hz) or self.truncation_hz < 0:
            raise InvalidArgumentError("truncation energy must be >= 0 (or inf)")

    @property
    def theta_hz(self) -> float:
        """Thermal energy scale kB*T/h."""
        return hz_from_kelvin(self.temperature_k)


def _gamma_p(a: int, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for integer order a and
    one float x >= 0.

    For x >= 2, P = 1 - e^-x * sum_{k<a} x^k/k!. Cancellation scales its
    rounding error by (1 - P)/P (52 for P(4, 1), 6 for P(4, 2)), so below
    x = 2 the series e^-x * sum_{k>=a} x^k/k! is used instead.
    """
    if x < 2.0:
        return math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(a, a + 25))
    x = min(x, 1e3)  # e^-x underflows beyond: P = 1 exactly
    return 1.0 - math.exp(-x) * sum(x ** k / math.factorial(k) for k in range(a))


def truncation_mass(ens: ThermalEnsemble) -> float:
    """Probability the untruncated density assigns to [0, truncation]."""
    return _gamma_p(3, ens.truncation_hz / ens.theta_hz)


def pdf(ens: ThermalEnsemble, energy_hz, renormalize: bool = True):
    """Density (1/Hz) at the given energy; zero above the truncation.

    With renormalize=True (default) the truncated density integrates to 1;
    with renormalize=False the raw untruncated form is returned, which is
    what a literal truncated-integral average uses.
    """
    e = np.asarray(energy_hz, dtype=float)
    if np.any(e < 0):
        raise InvalidArgumentError("energy must be >= 0")
    theta = ens.theta_hz
    x = e / theta
    raw = 0.5 * x * x * np.exp(-x) / theta
    raw = np.where(e > ens.truncation_hz, 0.0, raw)
    if renormalize:
        mass = truncation_mass(ens)
        if mass <= 0:
            raise InvalidArgumentError("zero-mass ensemble: truncation too small")
        raw = raw / mass
    if np.isscalar(energy_hz):
        return float(raw)
    return raw


def mean_energy(ens: ThermalEnsemble) -> float:
    """Mean energy in Hz: 3*theta untruncated, strictly less when truncated."""
    theta = ens.theta_hz
    x = ens.truncation_hz / theta
    mass = _gamma_p(3, x)
    if mass <= 0:
        raise InvalidArgumentError("zero-mass ensemble: truncation too small")
    return 3.0 * theta * _gamma_p(4, x) / mass


def sample(ens: ThermalEnsemble, n: int, seed: int) -> np.ndarray:
    """n i.i.d. energies (Hz) from the truncated density, deterministic per
    seed. Exact Gamma(3) draws of E/theta from the untruncated form,
    rejecting any beyond the truncation; acceptance rate is the truncation
    mass."""
    if n < 1:
        raise InvalidArgumentError("sample size must be >= 1")
    theta = ens.theta_hz
    xmax = ens.truncation_hz / theta
    mass = truncation_mass(ens)
    if mass < 1e-12:
        raise InvalidArgumentError("truncation mass too small to sample")
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    filled = 0
    for _ in range(10_000):
        if filled >= n:
            break
        batch = max(1024, int((n - filled) / mass * 1.2))
        x = rng.gamma(3.0, size=batch)
        x = x[x <= xmax]
        take = min(x.size, n - filled)
        out[filled:filled + take] = x[:take]
        filled += take
    if filled < n:
        raise InvalidArgumentError("sampler failed to fill request")
    return out * theta

