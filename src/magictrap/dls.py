"""Differential light shift (DLS) of the Rb-87 clock states in a circularly
polarized dipole trap, and the magic-point algebra of its parabolic
dependence on trap depth.

Sign convention: a trap depth U is the (negative) ground-state light shift
in Hz, so U <= 0 for a red-detuned trap. The shift model is

    dls(B, U) = beta1*U + beta2*B*U + beta4*U**2

with B the bias field in gauss. For beta4 > 0 the parabola has a vertex at
the magic depth U_M = -(beta1 + beta2*B) / (2*beta4) where the shift is
first-order insensitive to intensity.
"""
import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .errors import (
    ConventionViolationError,
    InvalidArgumentError,
    NoMagicPointError,
    NoZeroCrossingError,
)


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrapCoefficients:
    """Shift-model coefficients: beta1 (dimensionless), beta2 (1/G),
    beta4 (1/Hz), and the degree of circular polarization in [-1, 1]."""

    beta1: float
    beta2: float
    beta4: float
    polarization_a: float = 1.0

    def __post_init__(self):
        _require_finite(beta1=self.beta1, beta2=self.beta2, beta4=self.beta4,
                        polarization_a=self.polarization_a)
        if self.beta4 < 0:
            raise InvalidArgumentError("beta4 must be >= 0")
        if abs(self.polarization_a) > 1:
            raise InvalidArgumentError("|polarization_a| must be <= 1")


@dataclass(frozen=True)
class AtomicInput:
    """Atomic-structure inputs: the vector-to-scalar polarizability ratio of
    the ground state at the trap wavelength, the linear coefficient beta1,
    and the polarization degree."""

    vector_to_scalar_ratio: float
    beta1: float
    polarization_a: float

    def __post_init__(self):
        _require_finite(vector_to_scalar_ratio=self.vector_to_scalar_ratio,
                        beta1=self.beta1, polarization_a=self.polarization_a)
        if abs(self.polarization_a) > 1:
            raise InvalidArgumentError("|polarization_a| must be <= 1")


def _check_depth(depth_hz):
    if not math.isfinite(depth_hz):
        raise InvalidArgumentError("trap depth must be finite")
    if depth_hz > 0:
        raise ConventionViolationError(
            "trap depth must be <= 0 Hz (signed light-shift convention); "
            "negate positive depths, or enter them in mK through the CLI"
        )


def dls(coeffs: TrapCoefficients, b_field_gauss: float, depth_hz: float) -> float:
    """Differential light shift in Hz at bias field B and signed depth U."""
    _check_depth(depth_hz)
    _require_finite(b_field_gauss=b_field_gauss)
    linear = coeffs.beta1 + coeffs.beta2 * b_field_gauss
    return linear * depth_hz + coeffs.beta4 * depth_hz * depth_hz


def magic_depth(coeffs: TrapCoefficients, b_field_gauss: float) -> float:
    """Signed depth of the shift-parabola vertex, U_M, in Hz."""
    _require_finite(b_field_gauss=b_field_gauss)
    if coeffs.beta4 == 0:
        raise NoMagicPointError("beta4 = 0: shift is linear in depth, no vertex")
    u_magic = -(coeffs.beta1 + coeffs.beta2 * b_field_gauss) / (2.0 * coeffs.beta4)
    _require_finite(magic_depth_hz=u_magic)
    return u_magic


def dls_minimum(coeffs: TrapCoefficients, b_field_gauss: float) -> float:
    """Shift at the vertex: -(beta1 + B*beta2)**2 / (4*beta4), in Hz."""
    _require_finite(b_field_gauss=b_field_gauss)
    if coeffs.beta4 == 0:
        raise NoMagicPointError("beta4 = 0: shift is linear in depth, no vertex")
    linear = coeffs.beta1 + coeffs.beta2 * b_field_gauss
    minimum = -linear * linear / (4.0 * coeffs.beta4)
    _require_finite(dls_minimum_hz=minimum)
    return minimum


def zero_crossing_field(coeffs: TrapCoefficients) -> float:
    """Bias field (gauss) at which the magic depth reaches zero."""
    if coeffs.beta2 == 0:
        raise NoZeroCrossingError("beta2 = 0 (linear polarization): no crossing")
    return -coeffs.beta1 / coeffs.beta2


def coeffs_from_atomic(atomic: AtomicInput) -> TrapCoefficients:
    """Build shift coefficients from atomic data.

    beta2 = -2*A*(mu_B/h)*ratio / nu0 and beta4 = (A**2 / (2*nu0)) * ratio**2,
    with nu0 the Rb-87 hyperfine splitting; beta1 is passed through unchanged.
    """
    nu0_hz = CONSTANTS.rb87_hyperfine_nu0
    a = atomic.polarization_a
    ratio = atomic.vector_to_scalar_ratio
    beta2 = -2.0 * a * CONSTANTS.bohr_magneton_over_h * ratio / nu0_hz
    beta4 = (a * a / (2.0 * nu0_hz)) * ratio * ratio
    return TrapCoefficients(beta1=atomic.beta1, beta2=beta2, beta4=beta4,
                            polarization_a=a)


def effective_field(vector_to_scalar_ratio: float, depth_hz: float) -> float:
    """Zeeman-equivalent field (gauss) of the vector light shift at the
    given signed depth: ratio * |U| / (2 * mu_B/h). Linear in |U|."""
    _check_depth(depth_hz)
    _require_finite(vector_to_scalar_ratio=vector_to_scalar_ratio)
    field = vector_to_scalar_ratio * abs(depth_hz) / (2.0 * CONSTANTS.bohr_magneton_over_h)
    _require_finite(effective_field_gauss=field)
    return field

