"""Boltzmann energy distribution of atoms in a 3D harmonic trap, truncated
at the finite trap depth: density p(E) = E**2/(2*theta**3) * exp(-E/theta)
with theta = kB*T/h, renormalized over [0, truncation]. Energies in Hz.
"""
import math
import numbers
from dataclasses import dataclass

from .dls import hz_from_kelvin
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


PASS_DRAWS = 2**20     # Gamma(3) draws per pass of the rejection loop, at most
DRAW_BUDGET = 2**26    # expected draws of one call, at most


def sample(ens: ThermalEnsemble, n: int, seed: int) -> "np.ndarray":
    """n i.i.d. energies (Hz) from the truncated density, deterministic per
    seed, a non-negative integer.

    x = E/theta of the untruncated density is Gamma(3) distributed, which is
    exactly the sum of three Exp(1) draws: x = -log(U1*U2*U3) with U in
    (0, 1]. Draws beyond the truncation X are rejected, so a call needs n/mass
    draws on average (mass = P(3, X)). Each pass draws the expected remaining
    count plus five standard deviations, at most PASS_DRAWS. A request whose
    expected draws n/mass exceed DRAW_BUDGET raises a coded
    InvalidArgumentError, with n and mass in its diagnostics, before drawing.
    """
    import numpy as np

    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise InvalidArgumentError(f"sample size must be an integer, got {n!r}")
    if n < 1:
        raise InvalidArgumentError("sample size must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    theta = ens.theta_hz
    xmax = ens.truncation_hz / theta
    mass = truncation_mass(ens)
    if not n <= DRAW_BUDGET * mass:
        raise InvalidArgumentError(
            f"sample needs n/mass draws, more than the budget of {DRAW_BUDGET}",
            {"n": n, "mass": mass})
    rng = np.random.default_rng(seed)
    out = np.empty(n)
    filled = 0
    while filled < n:
        need = n - filled
        batch = (need + 5.0 * math.sqrt(need * (1.0 - mass))) / mass
        u = rng.random((3, min(PASS_DRAWS, math.ceil(batch))))
        np.subtract(1.0, u, out=u)  # (0, 1]: the log stays finite
        x = u[0]
        x *= u[1]
        x *= u[2]
        np.log(x, out=x)
        np.negative(x, out=x)
        x = x[x <= xmax]
        take = min(x.size, need)
        out[filled:filled + take] = x[:take]
        filled += take
    out *= theta
    return out
