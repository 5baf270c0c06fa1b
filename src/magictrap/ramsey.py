"""Thermally averaged Ramsey signal of trapped clock qubits.

An atom of energy E (Hz) in a trap with bottom depth U0 sees the local
average depth U(E) = U0 + E/2 (harmonic approximation), hence a shift
dls(B, U(E)). Averaging the two-pulse Ramsey population

    P0(t) = 1/2 + cos(2*pi*(detuning + shift)*t)/2

over the truncated thermal density gives the inhomogeneous signal; the
modulus of the same average with the bare phasor exp(2j*pi*shift*t) is the
fringe visibility envelope, whose first 1/e crossing defines T2*.
"""
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import hz_from_kelvin
from .dls import TrapCoefficients, magic_depth
from .errors import (
    ConventionViolationError,
    InvalidArgumentError,
    OutOfRangeError,
    UnphysicalConfigurationError,
)
from .parallel import ordered_map
from .quadrature import integrate
from .thermal import ThermalEnsemble, truncation_mass

#: root-finding horizon for t2_star before returning the infinity sentinel
DEFAULT_HORIZON_S = 1e4
#: relative width of the final t2_star bracket
T2_STAR_REL_TOL = 1e-4


@dataclass(frozen=True)
class TrapFieldConfig:
    """Everything the thermal average needs: coefficients, bias field in
    gauss, thermal-average depth U_a (Hz, signed), atom temperature, and the
    pulse detuning from free-space resonance."""

    coeffs: TrapCoefficients
    b_field_gauss: float
    mean_depth_hz: float
    temperature_k: float
    detuning_hz: float = 0.0

    def __post_init__(self):
        if self.mean_depth_hz > 0:
            raise ConventionViolationError("mean depth must be <= 0 Hz (signed)")
        if not (self.temperature_k > 0):
            raise InvalidArgumentError("temperature must be positive")
        for name in ("b_field_gauss", "mean_depth_hz", "temperature_k", "detuning_hz"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")

    @property
    def bottom_depth_hz(self) -> float:
        return bottom_depth(self.mean_depth_hz, self.temperature_k)

    @property
    def ensemble(self) -> ThermalEnsemble:
        return ThermalEnsemble(self.temperature_k, abs(self.bottom_depth_hz))


@dataclass(frozen=True)
class RamseyTrace:
    times_s: tuple
    population: tuple
    config: TrapFieldConfig

    def __post_init__(self):
        if len(self.times_s) != len(self.population):
            raise InvalidArgumentError("times and population must match in length")
        if any(p < 0 or p > 1 for p in self.population):
            raise InvalidArgumentError("populations must lie in [0, 1]")


@dataclass(frozen=True)
class VisibilityCurve:
    times_s: tuple
    visibility: tuple

    def __post_init__(self):
        if len(self.times_s) != len(self.visibility):
            raise InvalidArgumentError("times and visibility must match in length")
        if any(v < 0 or v > 1 for v in self.visibility):
            raise InvalidArgumentError("visibility must lie in [0, 1]")


def bottom_depth(mean_depth_hz: float, temperature_k: float) -> float:
    """Depth at the trap minimum: U0 = U_a - (3/2)*kB*T/h, signed Hz."""
    u0 = mean_depth_hz - 1.5 * hz_from_kelvin(temperature_k)
    if u0 >= 0:
        raise UnphysicalConfigurationError("ensemble hotter than the trap")
    if mean_depth_hz > 0:
        raise ConventionViolationError("mean depth must be <= 0 Hz (signed)")
    return u0


def local_depth(bottom_depth_hz: float, energy_hz: float) -> float:
    """Average depth seen by an atom of energy E: U0 + E/2."""
    if energy_hz < 0 or energy_hz > abs(bottom_depth_hz):
        raise OutOfRangeError("energy must lie in [0, |U0|]")
    return bottom_depth_hz + 0.5 * energy_hz


def residual_shift(coeffs: TrapCoefficients, temperature_k: float,
                   energy_hz: float) -> float:
    """Residual quadratic shift of an atom at energy E when the mean depth
    sits at the vertex: beta4 * ((E - 3*kB*T/h)/2)**2."""
    if energy_hz < 0:
        raise InvalidArgumentError("energy must be >= 0")
    half_dev = 0.5 * (energy_hz - 3.0 * hz_from_kelvin(temperature_k))
    return coeffs.beta4 * half_dev * half_dev


def _raw_integrals(config: TrapFieldConfig, t_s: float):
    """Return (integral of p*exp(2j*pi*shift*t), integral of p) over the
    allowed energies, both un-renormalized, on one shared partition.

    Substitution x = E/theta conditions the domain; with the positive
    Kronrod weights the phasor integral can never exceed the density
    integral, so derived populations stay in [0, 1] exactly.
    """
    theta = hz_from_kelvin(config.temperature_k)
    u0 = config.bottom_depth_hz
    xmax = abs(u0) / theta
    c = config.coeffs
    linear = c.beta1 + c.beta2 * config.b_field_gauss
    two_pi_t = 2.0 * math.pi * t_s

    def integrand(x):
        u = u0 + 0.5 * theta * x
        shift = (linear + c.beta4 * u) * u
        weight = 0.5 * x * x * np.exp(-x)
        return np.stack([weight * np.exp(1j * two_pi_t * shift),
                         weight.astype(complex)])

    (num, den), _ = integrate(integrand, 0.0, xmax, rtol=1e-8, atol=1e-13)
    return num, den.real


def ramsey_population(config: TrapFieldConfig, t_s: float,
                      renormalize: bool = True) -> float:
    """Thermally averaged Ramsey population at free-evolution time t."""
    if t_s < 0:
        raise InvalidArgumentError("time must be >= 0")
    num, den = _raw_integrals(config, t_s)
    carrier = np.exp(2j * math.pi * config.detuning_hz * t_s)
    if renormalize:
        value = 0.5 * (1.0 + (carrier * num).real / den)
    else:
        mass = truncation_mass(config.ensemble)
        value = mass * 0.5 * (1.0 + (carrier * num).real / den)
    # |num| <= den holds exactly (positive weights); clip only round-off
    return float(min(1.0, max(0.0, value)))


def visibility(config: TrapFieldConfig, t_s: float,
               renormalize: bool = True) -> float:
    """Ramsey fringe envelope: modulus of the thermal dephasing
    characteristic function. The detuning drops out exactly."""
    if t_s < 0:
        raise InvalidArgumentError("time must be >= 0")
    num, den = _raw_integrals(config, t_s)
    scale = 1.0 if renormalize else truncation_mass(config.ensemble)
    return float(min(1.0, abs(num) / den)) * scale


def t2_star(config: TrapFieldConfig, horizon_s: float = DEFAULT_HORIZON_S) -> float:
    """First time the visibility envelope falls to 1/e of its t=0 value,
    by bracket doubling then bisection to T2_STAR_REL_TOL. Returns math.inf
    if the envelope stays above 1/e out to the horizon."""
    target = visibility(config, 0.0) / math.e
    lo = 0.0
    hi = 1e-4
    while visibility(config, hi) > target:
        lo = hi
        hi *= 2.0
        if hi > horizon_s:
            return math.inf
    for _ in range(200):
        if hi - lo <= T2_STAR_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if visibility(config, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def combine_coherence(t1_s: float, t2_prime_s: float, t2_star_s: float) -> float:
    """Total Ramsey decay time: 1/tau = 1/T1 + 1/T2' + 1/T2*.

    Infinite contributions are allowed and drop out.
    """
    for name, value in (("t1_s", t1_s), ("t2_prime_s", t2_prime_s),
                        ("t2_star_s", t2_star_s)):
        if math.isnan(value) or value <= 0:
            raise InvalidArgumentError(f"{name} must be positive")
    rate = 0.0
    for value in (t1_s, t2_prime_s, t2_star_s):
        if not math.isinf(value):
            rate += 1.0 / value
    return math.inf if rate == 0.0 else 1.0 / rate


def coherence_vs_depth(base: TrapFieldConfig, ratios, t1_s: float,
                       t2_prime_s: float):
    """Coherence time tau versus depth ratio U_a/U_M at fixed field and
    temperature. Returns [(ratio, tau_s), ...] in input order."""
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise InvalidArgumentError("depth ratios must be positive")
    u_magic = magic_depth(base.coeffs, base.b_field_gauss)
    if u_magic >= 0:
        raise UnphysicalConfigurationError("magic depth is not a trap at this field")

    def one(ratio):
        cfg = replace(base, mean_depth_hz=ratio * u_magic)
        return ratio, combine_coherence(t1_s, t2_prime_s, t2_star(cfg))

    return ordered_map(one, ratios)


def ramsey_trace(config: TrapFieldConfig, times_s,
                 renormalize: bool = True) -> RamseyTrace:
    pops = ordered_map(lambda t: ramsey_population(config, t, renormalize), times_s)
    return RamseyTrace(tuple(float(t) for t in times_s), tuple(pops), config)


def visibility_curve(config: TrapFieldConfig, times_s,
                     renormalize: bool = True) -> VisibilityCurve:
    vis = ordered_map(lambda t: visibility(config, t, renormalize), times_s)
    return VisibilityCurve(tuple(float(t) for t in times_s), tuple(vis))
