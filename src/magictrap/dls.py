"""Differential light shift (DLS) of the Rb-87 clock states in a circularly
polarized dipole trap, and the magic-point algebra of its parabolic
dependence on trap depth.

Sign convention: a trap depth U is the (negative) ground-state light shift
in Hz, so U <= 0 for a red-detuned trap. The shift model is

    dls(B, U) = beta1*U + beta2*B*U + beta4*U**2

with B the bias field in gauss. For beta4 > 0 the parabola has a vertex at
the magic depth U_M = -(beta1 + beta2*B) / (2*beta4) where the shift is
first-order insensitive to intensity.

The pinned physical constants the model rests on live here too, with the
kelvin/hertz conversions: all energies inside the package are frequencies
(E/h in Hz), and kelvin appears only at interfaces.
"""
import math
from dataclasses import dataclass

from .errors import (
    ConventionViolationError,
    InvalidArgumentError,
    NoMagicPointError,
    NoZeroCrossingError,
)

# CODATA-style values, fixed for reproducibility
PLANCK_H = 6.62607015e-34             # J s
BOLTZMANN_KB = 1.380649e-23           # J/K
BOHR_MAGNETON_OVER_H = 1.399624604e6  # Hz/G
RB87_HYPERFINE_NU0 = 6.834682611e9    # clock splitting, Hz
VECTOR_TO_SCALAR_RATIO = 0.2518        # ground state, 830 nm, sigma+ (A = 1)

# kB/h: Hz per kelvin, used by every thermal formula
KB_OVER_H = BOLTZMANN_KB / PLANCK_H


def hz_from_kelvin(temperature_k: float) -> float:
    """Convert an energy kB*T to a frequency E/h. Signed, linear; finite
    up to about 8.6e297 K, and invalid-argument past that or for NaN."""
    frequency_hz = temperature_k * KB_OVER_H
    if not math.isfinite(frequency_hz):
        raise InvalidArgumentError(
            f"kB*T/h must be finite, got T = {temperature_k!r} K")
    return frequency_hz


def kelvin_from_hz(frequency_hz: float) -> float:
    """Inverse of :func:`hz_from_kelvin` up to floating round-off."""
    if not math.isfinite(frequency_hz):
        raise InvalidArgumentError("frequency must be finite")
    return frequency_hz / KB_OVER_H


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrapCoefficients:
    """Shift-model coefficients: beta1 (dimensionless), beta2 (1/G) and
    beta4 (1/Hz)."""

    beta1: float
    beta2: float
    beta4: float

    def __post_init__(self):
        _require_finite(beta1=self.beta1, beta2=self.beta2, beta4=self.beta4)
        if self.beta4 < 0:
            raise InvalidArgumentError("beta4 must be >= 0")


def _check_depth(depth_hz):
    if not math.isfinite(depth_hz):
        raise InvalidArgumentError("trap depth must be finite")
    if depth_hz > 0:
        raise ConventionViolationError(
            "trap depth must be <= 0 Hz (signed light-shift convention); "
            "negate positive depths, or enter them in mK through the CLI"
        )


def dls(coeffs: TrapCoefficients, b_field_gauss: float, depth_hz: float) -> float:
    """Differential light shift in Hz at bias field B and signed depth U;
    invalid-argument where it is past float range."""
    _check_depth(depth_hz)
    _require_finite(b_field_gauss=b_field_gauss)
    linear = coeffs.beta1 + coeffs.beta2 * b_field_gauss
    shift = linear * depth_hz + coeffs.beta4 * depth_hz * depth_hz
    if not math.isfinite(shift):
        raise InvalidArgumentError(
            f"shift at depth {depth_hz!r} Hz is past float range")
    return shift


def magic_depth(coeffs: TrapCoefficients, b_field_gauss: float) -> float:
    """Signed depth of the shift-parabola vertex, U_M, in Hz."""
    _require_finite(b_field_gauss=b_field_gauss)
    if coeffs.beta4 == 0:
        raise NoMagicPointError("beta4 = 0: shift is linear in depth, no vertex")
    # 0.0 - x is -x exactly, but +0.0 for a vertex at zero depth
    u_magic = 0.0 - (coeffs.beta1 + coeffs.beta2 * b_field_gauss) / (2.0 * coeffs.beta4)
    _require_finite(magic_depth_hz=u_magic)
    return u_magic


def dls_minimum(coeffs: TrapCoefficients, b_field_gauss: float) -> float:
    """Shift at the vertex: -(beta1 + B*beta2)**2 / (4*beta4), in Hz."""
    _require_finite(b_field_gauss=b_field_gauss)
    if coeffs.beta4 == 0:
        raise NoMagicPointError("beta4 = 0: shift is linear in depth, no vertex")
    linear = coeffs.beta1 + coeffs.beta2 * b_field_gauss
    minimum = 0.0 - linear * linear / (4.0 * coeffs.beta4)
    _require_finite(dls_minimum_hz=minimum)
    return minimum


def zero_crossing_field(coeffs: TrapCoefficients) -> float:
    """Bias field (gauss) at which the magic depth reaches zero."""
    if coeffs.beta2 == 0:
        raise NoZeroCrossingError("beta2 = 0 (linear polarization): no crossing")
    field = -coeffs.beta1 / coeffs.beta2
    _require_finite(zero_crossing_gauss=field)
    return field


def coeffs_from_atomic(vector_to_scalar_ratio: float, beta1: float) -> TrapCoefficients:
    """Shift coefficients from the ground state's vector-to-scalar
    polarizability ratio, weighted by the polarization degree A (sigma+ 1,
    linear 0): beta2 = -2*(mu_B/h)*ratio / nu0 and beta4 = ratio**2 / (2*nu0),
    with nu0 the Rb-87 hyperfine splitting; beta1 passes through unchanged.
    """
    _require_finite(vector_to_scalar_ratio=vector_to_scalar_ratio)
    ratio = vector_to_scalar_ratio
    beta2 = -2.0 * BOHR_MAGNETON_OVER_H * ratio / RB87_HYPERFINE_NU0
    beta4 = (1.0 / (2.0 * RB87_HYPERFINE_NU0)) * ratio * ratio
    return TrapCoefficients(beta1=beta1, beta2=beta2, beta4=beta4)


def effective_field(vector_to_scalar_ratio: float, depth_hz: float) -> float:
    """Zeeman-equivalent field (gauss) of the vector light shift at the
    given signed depth: ratio * |U| / (2 * mu_B/h). Linear in |U|."""
    _check_depth(depth_hz)
    _require_finite(vector_to_scalar_ratio=vector_to_scalar_ratio)
    field = vector_to_scalar_ratio * abs(depth_hz) / (2.0 * BOHR_MAGNETON_OVER_H)
    _require_finite(effective_field_gauss=field)
    return field

