"""Thermally averaged Ramsey signal of trapped clock qubits.

An atom of energy E (Hz) in a trap with bottom depth U0 sees the local
average depth U(E) = U0 + E/2 (harmonic approximation), hence a shift
dls(B, U(E)). Averaging the two-pulse Ramsey population

    P0(t) = 1/2 + cos(2*pi*(detuning + shift)*t)/2

over the truncated thermal density gives the inhomogeneous signal; the
modulus of the same average with the bare phasor exp(2j*pi*shift*t) is the
fringe visibility envelope, whose first 1/e crossing defines T2*.
"""
import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import hz_from_kelvin
from .dls import TrapCoefficients, dls, magic_depth
from .errors import (
    ConventionViolationError,
    InvalidArgumentError,
    NumericalFailureError,
    UnphysicalConfigurationError,
)
from .parallel import ordered_map
from .quadrature import MAX_PANELS, integrate
from .thermal import ThermalEnsemble

#: root-finding horizon for t2_star before returning the infinity sentinel
DEFAULT_HORIZON_S = 1e4
#: relative width of the final t2_star bracket
T2_STAR_REL_TOL = 1e-4
#: upper end of x = E/theta; the Gamma(3) mass beyond it is about 7e-12
X_CUT = 32.0
#: phase (rad) the thermal-average phasor may turn across one panel
PANEL_PHASE = 3.0


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


def residual_shift(coeffs: TrapCoefficients, temperature_k: float,
                   energy_hz: float) -> float:
    """Residual quadratic shift of an atom at energy E when the mean depth
    sits at the vertex: beta4 * ((E - 3*kB*T/h)/2)**2."""
    if energy_hz < 0:
        raise InvalidArgumentError("energy must be >= 0")
    half_dev = 0.5 * (energy_hz - 3.0 * hz_from_kelvin(temperature_k))
    return coeffs.beta4 * half_dev * half_dev


def _raw_integrals(config: TrapFieldConfig, t_s: float):
    """Return (integral of p*exp(1j*phi), integral of p) over the allowed
    energies, both un-renormalized, on one shared partition.

    phi = 2*pi*t*(dls(U) - dls(U0)) is the phase from the trap bottom: with
    x = E/theta it is (p1 + p2*x)*x exactly, p1 = pi*t*theta*(beta1 +
    beta2*B + 2*beta4*U0) and p2 = pi*t*beta4*theta**2/2. The same two
    numbers size the partition; with positive weights the phasor integral
    never exceeds the density integral, so populations stay in [0, 1].
    """
    if not 0 <= t_s < math.inf:
        raise InvalidArgumentError("time must be finite and >= 0")
    theta = hz_from_kelvin(config.temperature_k)
    u0 = config.bottom_depth_hz
    x_end = min(abs(u0) / theta, X_CUT)
    c = config.coeffs
    # per second first, so that a zero coefficient stays 0 at any finite t
    k1 = math.pi * theta * (c.beta1 + c.beta2 * config.b_field_gauss + 2.0 * c.beta4 * u0)
    k2 = 0.5 * math.pi * c.beta4 * theta * theta
    p1, p2 = k1 * t_s, k2 * t_s
    # the slope p1 + 2*p2*x is largest in modulus at one end of [0, x_end]
    phase = t_s * (x_end * max(abs(k1), abs(k1 + 2.0 * k2 * x_end)))
    # past float range (inf or nan) there is no panel count to ask for
    if not phase <= PANEL_PHASE * MAX_PANELS:
        raise NumericalFailureError("phase spread past the panel cap", diagnostics={
            "phase": phase, "panels": phase / PANEL_PHASE, "max_panels": MAX_PANELS})
    panels = max(16, math.ceil(phase / PANEL_PHASE))

    def integrand(x):
        rows = np.empty((2, x.size), complex)  # phasor row, density row
        rows[1] = 0.5 * x * x * np.exp(-x)
        np.exp(1j * ((p1 + p2 * x) * x), out=rows[0])
        rows[0] *= rows[1]
        return rows

    # den <= 1, so atol is in visibility units: rtol*|num| alone goes to 0
    (num, den), _ = integrate(integrand, 0.0, x_end, atol=1e-10, panels=panels)
    return num, den.real


def ramsey_population(config: TrapFieldConfig, t_s: float,
                      renormalize: bool = True) -> float:
    """Thermally averaged Ramsey population at free-evolution time t."""
    num, den = _raw_integrals(config, t_s)
    # the carrier: detuning plus the bottom shift that _raw_integrals leaves out
    bottom = dls(config.coeffs, config.b_field_gauss, config.bottom_depth_hz)
    phase = t_s * (2.0 * math.pi * (config.detuning_hz + bottom))
    if not math.isfinite(phase):
        raise NumericalFailureError("Ramsey carrier phase is not finite",
                                    diagnostics={"phase": phase})
    # den is the mass of the raw density on the nodes: the literal average
    # over them is the renormalized one scaled by it
    mixed = (cmath.exp(1j * phase) * num).real
    value = 0.5 * (1.0 + mixed / den) if renormalize else 0.5 * (den + mixed)
    # |num| <= den holds exactly (positive weights); clip only round-off
    return float(min(1.0, max(0.0, value)))


def visibility(config: TrapFieldConfig, t_s: float,
               renormalize: bool = True) -> float:
    """Ramsey fringe envelope: modulus of the thermal dephasing
    characteristic function. The detuning drops out exactly."""
    num, den = _raw_integrals(config, t_s)
    return float(min(1.0, abs(num) / den) if renormalize else min(abs(num), den))


def t2_star(config: TrapFieldConfig, horizon_s: float = DEFAULT_HORIZON_S) -> float:
    """First time the visibility envelope falls to 1/e, by bracket doubling
    then bisection to T2_STAR_REL_TOL. Returns math.inf if the envelope
    stays above 1/e out to the horizon."""
    # the envelope is 1 at t = 0 exactly: there the phasor row of
    # _raw_integrals is the density row
    target = 1.0 / math.e
    lo = 0.0
    hi = 1e-4
    while visibility(config, hi) > target:
        lo = hi
        hi *= 2.0
        if hi > horizon_s:
            return math.inf
    while hi - lo > T2_STAR_REL_TOL * hi:
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
    combine_coherence(t1_s, t2_prime_s, math.inf)  # checks T1, T2' before any solve
    u_magic = magic_depth(base.coeffs, base.b_field_gauss)
    if u_magic >= 0:
        raise UnphysicalConfigurationError("magic depth is not a trap at this field")

    def one(ratio):
        cfg = replace(base, mean_depth_hz=ratio * u_magic)
        return ratio, combine_coherence(t1_s, t2_prime_s, t2_star(cfg))

    return ordered_map(one, ratios)


def ramsey_trace(config: TrapFieldConfig, times_s,
                 renormalize: bool = True) -> RamseyTrace:
    times = tuple(float(t) for t in times_s)
    pops = ordered_map(lambda t: ramsey_population(config, t, renormalize), times)
    return RamseyTrace(times, tuple(pops))


def visibility_curve(config: TrapFieldConfig, times_s,
                     renormalize: bool = True) -> VisibilityCurve:
    times = tuple(float(t) for t in times_s)
    vis = ordered_map(lambda t: visibility(config, t, renormalize), times)
    return VisibilityCurve(times, tuple(vis))
