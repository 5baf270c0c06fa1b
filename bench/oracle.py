"""Independent reference model and the stored reference table.

The thermal characteristic function

    phi(t) = E[exp(2j*pi*t*shift(E))]

over the truncated harmonic-trap Boltzmann density is evaluated here with a
fixed composite Gauss-Legendre rule whose panel count is set from the
total phase variation of the integrand, then doubled until the value stops
moving. It shares no code with ``magictrap.quadrature``: the model formulas
(shift parabola, trap-bottom depth, energy density) are written out again
below from the README's model summary. ``make_reference.py`` uses this module
to build ``reference.json``; the benchmark only reads the stored table.
"""
import json
import math
from pathlib import Path

import numpy as np

# exact SI values, so kB/h is the same number the package pins
KB_OVER_H = 1.380649e-23 / 6.62607015e-34

# the measured coefficient set and working field of the README examples
BETA1 = 3.47e-4
BETA2 = -0.99e-4
BETA4 = 4.6e-12
B_FIELD = 3.115
LINEAR = BETA1 + BETA2 * B_FIELD
U_MAGIC_HZ = -LINEAR / (2.0 * BETA4)
U_MAGIC_MK = abs(U_MAGIC_HZ) / (KB_OVER_H * 1e-3)

# parameter grids the workloads draw from (all inside the documented domain)
TEMPS_UK = (2.0, 4.0, 8.0, 12.0, 17.0, 25.0, 32.0, 40.0)
T2_RATIOS = tuple(round(0.30 + 0.05 * k, 2) for k in range(35))       # 0.30-2.00
TRACE_RATIOS = tuple(round(0.5 + 0.1 * k, 1) for k in range(11))      # 0.5-1.5
PROBE_RATIOS = tuple(round(0.3 + 0.1 * k, 1) for k in range(18))      # 0.3-2.0
PROBE_TIMES_S = (1.0, 10.0, 100.0, 1000.0)
MOVER_DEPTH_MK = 0.2
OVERLAP_DEPTH_MK = 0.37
OVERLAP_TEMP_UK = 14.0

# the README's default time grids; outputs are spot-checked at the
# TRACE_CHECK / VIS_CHECK indices
TRACE_TIMES_S = np.linspace(0.0, 0.4, 201)
VIS_TIMES_S = np.linspace(0.0, 2.0, 101)
TRACE_CHECK = tuple(range(0, 201, 10))
VIS_CHECK = tuple(range(0, 101, 5))

T2_HORIZON_S = 1e4

# Tolerances. Loose enough that a correct closed-form or batched method
# (agreeing with mpmath to ~1e-10) passes; tight enough that a wrong phase,
# density or normalisation does not.
VALUE_ATOL = 1e-8        # visibility and population, absolute
T2_RTOL = 1e-3           # T2* and the tau values derived from it, relative
STDOUT_RTOL = 2e-8       # closed-form scalars printed with 9 significant digits
FIT_SIGMAS = 6.0         # fitted parameters vs generating truth, in stderr
MC_SIGMAS = 5.0          # Monte Carlo mean vs exact population, in std errors

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_X_CUT = 80.0            # x^2 exp(-x)/2 < 1e-31 beyond: below every tolerance
_PANELS_PER_CHUNK = 65536


def shift_hz(u):
    """Differential light shift at signed depth u (Hz)."""
    return (LINEAR + BETA4 * u) * u


def depth_hz_from_mk(depth_mk):
    return -KB_OVER_H * depth_mk * 1e-3


def _shift_variation(u_lo, u_hi):
    """Total variation of the shift parabola between two depths."""
    lo, hi = min(u_lo, u_hi), max(u_lo, u_hi)
    if lo < U_MAGIC_HZ < hi:
        s_min = shift_hz(U_MAGIC_HZ)
        return abs(shift_hz(lo) - s_min) + abs(shift_hz(hi) - s_min)
    return abs(shift_hz(hi) - shift_hz(lo))


def _gl_sum(mean_depth_hz, temp_k, t_s, x_end, panels):
    theta = temp_k * KB_OVER_H
    u0 = mean_depth_hz - 1.5 * theta
    edges = np.linspace(0.0, x_end, panels + 1)
    num = 0j
    den = 0.0
    for start in range(0, panels, _PANELS_PER_CHUNK):
        stop = min(start + _PANELS_PER_CHUNK, panels)
        lo = edges[start:stop]
        hi = edges[start + 1:stop + 1]
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES[None, :]
        w = 0.5 * x * x * np.exp(-x) * (half[:, None] * _GL_WEIGHTS[None, :])
        u = u0 + 0.5 * theta * x
        num += np.sum(w * np.exp(2j * math.pi * t_s * shift_hz(u)))
        den += float(np.sum(w))
    return num, den


def char_fn(mean_depth_hz, temp_k, t_s, tol=1e-13):
    """phi(t), renormalised over the truncated density, to about ``tol``."""
    theta = temp_k * KB_OVER_H
    u0 = mean_depth_hz - 1.5 * theta
    if u0 >= 0:
        raise ValueError("ensemble hotter than the trap")
    x_end = min(abs(u0) / theta, _X_CUT)
    phase = 2.0 * math.pi * t_s * _shift_variation(u0, u0 + 0.5 * theta * x_end)
    panels = int(math.ceil(max(x_end / 0.25, phase / 1.5, 8)))
    num, den = _gl_sum(mean_depth_hz, temp_k, t_s, x_end, panels)
    value = num / den
    for _ in range(6):
        panels *= 2
        num, den = _gl_sum(mean_depth_hz, temp_k, t_s, x_end, panels)
        refined = num / den
        if abs(refined - value) <= tol:
            return refined
        value = refined
    raise RuntimeError(f"reference rule did not settle at t = {t_s}")


def first_crossing(mean_depth_hz, temp_k, horizon_s=T2_HORIZON_S):
    """First time |phi| falls to 1/e, from a 50-per-decade scan refined by
    bisection to 1e-10 relative; math.inf if it stays above out to the
    horizon."""
    target = 1.0 / math.e
    lo = 0.0
    k = 0
    while True:
        hi = 1e-5 * 10.0 ** (k / 50.0)
        if hi > horizon_s:
            return math.inf
        if abs(char_fn(mean_depth_hz, temp_k, hi)) <= target:
            break
        lo = hi
        k += 1
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if abs(char_fn(mean_depth_hz, temp_k, mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def combine(t1_s, t2prime_s, t2star_s):
    rate = 1.0 / t1_s + 1.0 / t2prime_s
    if math.isfinite(t2star_s):
        rate += 1.0 / t2star_s
    return 1.0 / rate


def config_key(temp_uk, ratio):
    return f"{temp_uk:g}|{ratio:.2f}"


def depth_key(depth_mk, temp_uk):
    return f"{depth_mk:g}mK|{temp_uk:g}"


def probe_key(temp_uk, ratio, t_s):
    return f"{temp_uk:g}|{ratio:.2f}|{t_s:g}"


def _from_json(value):
    return math.inf if value == "inf" else value


class Reference:
    """Lookup over the stored reference table."""

    def __init__(self, path=REFERENCE_PATH):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.meta = doc["meta"]
        self._t2 = {k: _from_json(v) for k, v in doc["t2_star"].items()}
        self._t2_depth = {k: _from_json(v) for k, v in doc["t2_star_depth"].items()}
        self._phi = {k: {name: np.array([complex(re, im) for re, im in pairs])
                         for name, pairs in v.items()}
                     for k, v in doc["phi"].items()}
        self._probe = doc["probe"]

    def t2_star(self, temp_uk, ratio):
        return self._t2[config_key(temp_uk, ratio)]

    def t2_star_depth(self, depth_mk, temp_uk):
        return self._t2_depth[depth_key(depth_mk, temp_uk)]

    def phi(self, temp_uk, ratio, grid):
        """phi at the checked points of ``grid`` ('trace' or 'vis')."""
        return self._phi[config_key(temp_uk, ratio)][grid]

    def probe(self, temp_uk, ratio, t_s):
        return self._probe.get(probe_key(temp_uk, ratio, t_s))


def population(phi, detuning_hz, t_s):
    """Renormalised Ramsey population from phi and the pulse detuning."""
    carrier = np.exp(2j * math.pi * detuning_hz * np.asarray(t_s))
    return 0.5 * (1.0 + (carrier * phi).real)
