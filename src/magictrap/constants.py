"""Pinned physical constants and the kelvin/hertz energy conversions.

All energies inside the package are frequencies (E/h in Hz); kelvin appears
only at interfaces. Values are CODATA-style and fixed here for
reproducibility.
"""
import math
from dataclasses import dataclass

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class PhysicalConstants:
    planck_h: float = 6.62607015e-34            # J s
    boltzmann_kb: float = 1.380649e-23          # J/K
    bohr_magneton_over_h: float = 1.399624604e6  # Hz/G
    rb87_hyperfine_nu0: float = 6.834682611e9   # clock splitting, Hz


CONSTANTS = PhysicalConstants()

# kB/h: Hz per kelvin, used by every thermal formula
KB_OVER_H = CONSTANTS.boltzmann_kb / CONSTANTS.planck_h


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
