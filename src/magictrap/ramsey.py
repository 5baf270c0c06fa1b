"""Thermally averaged Ramsey signal of trapped clock qubits.

An atom of energy E (Hz) in a trap with bottom depth U0 sees the local
average depth U(E) = U0 + E/2 (harmonic approximation), hence a shift
dls(B, U(E)). Averaging the two-pulse Ramsey population

    P0(t) = 1/2 + cos(2*pi*(detuning + shift)*t)/2

over the truncated thermal density gives the inhomogeneous signal; the
modulus of the same average with the bare phasor exp(2j*pi*shift*t) is the
fringe visibility envelope, whose first 1/e crossing defines T2*.

The thermal average is taken in closed form up to one Gauss-Laguerre sum
per end of the energy range (numerical steepest descent), so its cost does
not grow with t. That kernel relies on the two model facts above: the
harmonic U(E) = U0 + E/2 and a shift quadratic in depth, which together
make the phase exactly quadratic in E. A model that breaks either needs
another kernel.
"""
import cmath
import functools
import math
from dataclasses import dataclass, replace

from .dls import TrapCoefficients, _check_depth, dls, hz_from_kelvin, magic_depth
from .errors import (
    InvalidArgumentError,
    NumericalFailureError,
    UnphysicalConfigurationError,
)
from .parallel import ordered_map
from .quadrature import integrate
from .thermal import ThermalEnsemble, _gamma_p

#: relative width of the final t2_star bracket
T2_STAR_REL_TOL = 1e-12
#: t2_star returns math.inf for an envelope still above 1/e past this time
T2_STAR_HORIZON_S = 1e4
#: an end whose descent path has its branch point s = Z within |Z| <= 4, or
#: in the box 0 < Re Z <= SEGMENT_Z_MAX, |Im Z| <= SEGMENT_IM_Z, near the
#: positive s axis, goes by the straight segment to the saddle instead:
#: there 32 Laguerre points lose accuracy (1.5e-9 at Z = 26.7 + 1.1j, 7e-8
#: at Z = 25, 6e-9 at |Z| = 16, arg Z = 15 degrees)
SEGMENT_Z_MAX = 40.0
SEGMENT_IM_Z = 8.0
#: most values in one array of an _integrals pass (64 kB of complex): a
#: larger batch goes in blocks of whole ends, so that its arrays stay in
#: cache and below malloc's mmap threshold. Unblocked, the 201-point traces
#: of the quadrature benchmark made about 3400 page faults per pass over its
#: 72 ops, and their timings spread twice as wide from run to run
BLOCK_VALUES = 4096
#: 32-point Gauss-Laguerre rule for the weight exp(-s) on [0, inf), from
#: the roots of L_32 polished to 60 digits (numpy's laggauss agrees to 1e-13)
LAGUERRE_NODES = (
    0.04448936583326702, 0.23452610951961853, 0.5768846293018864,
    1.0724487538178176, 1.7224087764446454, 2.5283367064257947,
    3.4922132730219944, 4.616456769749767, 5.903958504174244,
    7.358126733186241, 8.982940924212595, 10.783018632539973,
    12.763697986742725, 14.931139755522556, 17.292454336715316,
    19.855860940336054, 22.630889013196775, 25.628636022459247,
    28.862101816323474, 32.346629153964734, 36.10049480575197,
    40.14571977153944, 44.509207995754934, 49.22439498730864,
    54.33372133339691, 59.89250916213402, 65.97537728793505, 72.68762809066271,
    80.18744697791352, 88.7353404178924, 98.82954286828397, 111.7513980979377,
)
LAGUERRE_WEIGHTS = (
    0.10921834195238497, 0.21044310793881324, 0.235213229669848,
    0.19590333597288104, 0.12998378628607177, 0.07057862386571744,
    0.03176091250917507, 0.011918214834838558, 0.0037388162946115247,
    0.0009808033066149551, 0.0002148649188013642, 3.920341967987947e-05,
    5.9345416128686326e-06, 7.416404578667552e-07, 7.604567879120781e-08,
    6.350602226625806e-09, 4.281382971040929e-10, 2.3058994918913362e-11,
    9.799379288727094e-13, 3.2378016577292665e-14, 8.171823443420719e-16,
    1.5421338333938235e-17, 2.1197922901636187e-19, 2.0544296737880453e-21,
    1.3469825866373952e-23, 5.661294130397359e-26, 1.4185605454630368e-28,
    1.9133754944542244e-31, 1.1922487600982224e-34, 2.671511219240137e-38,
    1.3386169421062562e-42, 4.510536193898974e-48,
)


@functools.cache
def _laguerre_rule():
    """The Laguerre nodes, complex as the descent paths that use them are,
    and weights: read-only arrays, built on first use so that importing the
    module does not load numpy."""
    import numpy as np

    nodes = np.array(LAGUERRE_NODES, dtype=complex)
    weights = np.array(LAGUERRE_WEIGHTS)
    for table in (nodes, weights):
        table.flags.writeable = False
    return nodes, weights


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
        _check_depth(self.mean_depth_hz)
        if not (self.temperature_k > 0):
            raise InvalidArgumentError("temperature must be positive")
        for name in ("b_field_gauss", "temperature_k", "detuning_hz"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")
        theta = hz_from_kelvin(self.temperature_k)
        # U0 = U_a - (3/2)*kB*T/h < 0, set here and not a field so that ==,
        # hash, repr and replace see the fields alone
        u0 = self.mean_depth_hz - 1.5 * theta
        object.__setattr__(self, "bottom_depth_hz", u0)
        # _row's constants (k1, k2, X, phase spread, P(3, X)) and the carrier
        # rate, once per config: k1, k2 are the phase coefficients p1, p2
        # per second, so that a zero coefficient stays 0 at any finite t
        c = self.coeffs
        k1 = math.pi * theta * (c.beta1 + c.beta2 * self.b_field_gauss + 2.0 * c.beta4 * u0)
        k2 = 0.5 * math.pi * c.beta4 * theta * theta
        x_end = abs(u0) / theta
        # phase spread per second: the slope k1 + 2*k2*x is largest in
        # modulus at one end of [0, x_end]
        spread = x_end * max(abs(k1), abs(k1 + 2.0 * k2 * x_end))
        carrier = math.nan
        if all(map(math.isfinite, (k1, k2, spread))):
            # the detuning plus the bottom shift that _integrals leaves out;
            # spread >= pi*|dls(U0)|, so a finite spread keeps dls finite
            carrier = 2.0 * math.pi * (self.detuning_hz + dls(c, self.b_field_gauss, u0))
        if not math.isfinite(carrier):
            raise InvalidArgumentError(
                "phase per second past float range: the shift across the "
                "trap or the carrier rate is not finite")
        object.__setattr__(self, "_kernel_constants",
                           (k1, k2, x_end, spread, _gamma_p(3, x_end)))
        object.__setattr__(self, "_carrier_rate", carrier)

    def _row(self, t_s):
        """This config's row (p1, p2, X, P(3, X)) of _integrals at time t."""
        t_s = float(t_s)
        if not 0 <= t_s < math.inf:
            raise InvalidArgumentError("time must be finite and >= 0")
        k1, k2, x_end, spread, den = self._kernel_constants
        phase = t_s * spread
        if not phase < math.inf:
            raise NumericalFailureError("phase spread past float range",
                                        diagnostics={"phase": phase})
        return k1 * t_s, k2 * t_s, x_end, den

    @property
    def ensemble(self) -> ThermalEnsemble:
        return ThermalEnsemble(self.temperature_k, abs(self.bottom_depth_hz))


@dataclass(frozen=True)
class RamseyTrace:
    times_s: tuple
    population: tuple


@dataclass(frozen=True)
class VisibilityCurve:
    times_s: tuple
    visibility: tuple


def _integrals(rows):
    """For each row (p1, p2, X, den) of rows, in order, return (num, den):
    num is the integral of x**2/2 * exp(q(x)) over [0, X], q = c1*x + c2*x**2
    with c1 = -1 + 1j*p1 and c2 = 1j*p2, and den passes through. A pure
    function of its rows: TrapFieldConfig._row(t) gives (k1*t, k2*t, X,
    P(3, X)), X = |U0|/theta, k1 = pi*theta*(beta1 + beta2*B + 2*beta4*U0) and
    k2 = pi*beta4*theta**2/2, so that (p1 + p2*x)*x, x = E/theta, is the phase
    2*pi*t*(dls(U) - dls(U0)) from the trap bottom and num/den the thermal
    average of its phasor. |num| <= den up to round-off, which the callers
    clip. Rows come from _row, so X >= 1.5 and p2 >= 0 (beta4 >= 0, t >= 0):
    there num/den is good to an absolute 1e-10. Outside that domain no
    bound holds: the row (0.5, -0.1, 10) returns |num|/den = 5.7.

    The integrand is entire, so the integral is G(0) - G(X), G(a) being the
    integral from a to the saddle x* = -c1/(2*c2), along any path. With
    Z = q(a) - q(x*) = q'(a)**2/(4*c2), an end with |Z| <= 4, or with Z in
    the box 0 < Re Z, |Im Z| <= SEGMENT_IM_Z, |Z| <= SEGMENT_Z_MAX, takes
    the straight segment to x*: one fixed GK15 pass of quadrature.integrate
    on panels sized from Re Z, which raises rather than refines if it misses
    its tolerance (on no tested point has it). Any other end follows
    its steepest-descent path q(h(s)) = q(a) - s into a valley v of
    exp(c2*x**2) by Gauss-Laguerre in s (Huybrechs & Vandewalle, SIAM J.
    Numer. Anal. 44, 1026 (2006)), then climbs back to x* by the exact
    half-Gaussian -H(v). Two such ends in one valley cancel their H and
    leave them out (they overflow where x* is high); in opposite valleys
    they add the full Gaussian through x*.

    One pass classifies each row's two ends, tagged with its index:
    descent ends into one list, segment ends into the group of the row's
    panel count. The descent ends then go through numpy, and each group
    through quadrature.integrate, in blocks of BLOCK_VALUES, and a row sums
    its values in the order of its ends, then adds its half-Gaussians. Each
    step is elementwise or reduces within one end, and a row's panel count
    is its own and never refined, so a row's result does not depend on the
    rest of the batch or on how it is cut into blocks.
    """
    import numpy as np

    sums, descents, by_panels = [], [], {}  # sums: [num, row, saddle] per row
    for i, row in enumerate(rows):
        p1, p2, x_end, den = row
        if not (p1 or p2):
            sums.append([complex(den), row, None])  # the phasor is the density
            continue
        c1, c2 = complex(-1.0, p1), complex(0.0, p2)
        x_star = -c1 / (2.0 * c2) if p2 else None
        segments = []
        reach = 0.0  # largest Re Z of a segment
        owed = [0.0, 0.0]  # multiples of H(+1) and H(-1) to add
        for sign, a in ((1.0, 0.0), (-1.0, x_end)):
            d = complex(-1.0, p1 + 2.0 * p2 * a)  # q'(a)
            # Z = q(a) - q(x*) = q'(a)**2/(4*c2), written so that it cannot
            # overflow where q'(a) is large: the descent path from a has its
            # branch point at s = Z
            z = 0.5 * (a - x_star) * d if p2 else math.inf
            # this end's sign * exp(q(a)); past a = 745 it underflows: a
            # descent end keeps only its half-Gaussian, a segment end adds
            # nothing (its saddle is at most e**4 higher)
            weight = sign * cmath.exp(a * (c1 + c2 * a)) if math.exp(-a) else 0.0
            size = math.hypot(z.real, z.imag)  # abs(z) can raise OverflowError
            if size <= 4.0 or (z.real > 0.0 and abs(z.imag) <= SEGMENT_IM_Z
                               and size <= SEGMENT_Z_MAX):
                if weight:
                    segments.append((i, (a, x_star - a, z, 0.5 * (x_star - a) * weight)))
                    reach = max(reach, z.real)
            else:
                if weight:
                    # h(s) = a - 2s/(d + d*sqrt(1 - s/Z)), stable as c2 -> 0,
                    # and dh/ds = -1/(d*sqrt(1 - s/Z))
                    descents.append((i, (a, 4.0 * c2 / d / d, -2.0 / d, -0.5 * weight / d)))
                # the ridge between the valleys crosses the real axis at Im d = -1
                owed[0 if d.imag > -1.0 else 1] -= sign
        if segments:
            # near tau = 0 a segment's integrand falls as exp(-2*Re Z*tau): at
            # least one more panel per unit of Re Z, in steps of 8 so that a
            # batch has few panel counts (at most six)
            by_panels.setdefault(8 * (1 + math.ceil(reach / 8.0)), []).extend(segments)
        sums.append([0j, row, (c1, c2, x_star, owed)])
    if descents:
        # sum over the nodes s of W(s) * h(s)**2/sqrt(1 - s/Z), in place,
        # each row on its own (a matrix product rounds a row differently
        # with the number of rows)
        nodes, weights = _laguerre_rule()
        for block in _blocks(descents, len(nodes)):
            owners, ends = zip(*block)
            a, inv_z, k, w = np.array(ends).T
            r = 1.0 - inv_z[:, None] * nodes
            np.sqrt(r, out=r)
            h = nodes / (1.0 + r)
            h *= k[:, None]
            h += a[:, None]
            h *= h
            h /= r
            h *= weights
            for i, value in zip(owners, (w * np.add.reduce(h, axis=1)).tolist()):
                sums[i][0] += value
    for panels, segments in by_panels.items():
        for block in _blocks(segments, 15 * panels):
            owners, ends = zip(*block)
            a, span, z, w = np.array(ends).T[:, :, None]

            def integrand(tau):
                # on x = a + tau*span, q(x) = q(a) - Z*tau*(2 - tau)
                x = a + span * tau
                return w * x * x * np.exp(z * (tau * (tau - 2.0)))

            values = integrate(integrand, panels=panels)
            for i, value in zip(owners, values.tolist()):
                sums[i][0] += value
    out = []
    for num, (p1, p2, x_end, den), saddle in sums:
        if saddle is not None:
            c1, c2, x_star, owed = saddle
            for valley, k in ((1.0, owed[0]), (-1.0, owed[1])):
                if k:
                    num += k * _half_gaussian(c1, c2, x_star, valley)
            if not cmath.isfinite(num):
                raise NumericalFailureError(  # with the row's phase spread
                    "thermal average is not finite",
                    diagnostics={"phase": x_end * max(abs(p1), abs(p1 + 2.0 * p2 * x_end))})
        out.append((complex(num), den))
    return out


def _blocks(ends, width):
    """ends in consecutive blocks of at most BLOCK_VALUES // width (at
    least one), width being the values one end takes in a pass's arrays."""
    step = max(1, BLOCK_VALUES // width)
    return [ends[i:i + step] for i in range(0, len(ends), step)]


def _half_gaussian(c1, c2, x_star, valley):
    """H(v): the integral of x**2/2 * exp(c1*x + c2*x**2) from the saddle
    x* straight into valley v = +1 (direction exp(1j*pi/4)) or -1."""
    scale = cmath.exp(0.5 * c1 * x_star)  # exp(q(x*)), q(x*) = -c1**2/(4*c2)
    if scale == 0.0:
        return 0.0  # also keeps an overflowing x* out
    even = 0.5 * cmath.sqrt(math.pi / -c2) * (x_star * x_star - 0.5 / c2)
    return 0.5 * scale * (valley * even - x_star / c2)


def ramsey_population(config: TrapFieldConfig, t_s: float, *,
                      _integral=None) -> float:
    """Thermally averaged Ramsey population at free-evolution time t; times
    thermal.truncation_mass it is the literal truncated-density average.

    _integral, private, is the (num, den) of _integrals for this time,
    already computed: ramsey_trace passes its batched values in, so that
    its points still run through here one by one, the unit the benchmark's
    tracer pins under parallel.ordered_map. It goes with parallel.py once
    the tracer no longer needs those spans."""
    t_s = float(t_s)  # the carrier too is Python float arithmetic
    num, den = _integral or _integrals((config._row(t_s),))[0]
    phase = _carrier_phase(config, t_s)
    value = 0.5 * (1.0 + (cmath.exp(1j * phase) * num).real / den)
    # |num| <= den holds for the exact integrals; clip only their round-off
    return float(min(1.0, max(0.0, value)))


def _carrier_phase(config, t_s):
    phase = t_s * config._carrier_rate
    if not math.isfinite(phase):
        raise NumericalFailureError("Ramsey carrier phase is not finite",
                                    diagnostics={"phase": phase})
    return phase


def visibility(config: TrapFieldConfig, t_s: float) -> float:
    """Ramsey fringe envelope: modulus of the thermal dephasing
    characteristic function, normalized as in ramsey_population. The
    detuning drops out exactly."""
    return _envelope(*_integrals((config._row(t_s),))[0])


def _envelope(num, den):
    return float(min(1.0, abs(num) / den))


def t2_star(config: TrapFieldConfig) -> float:
    """First time the visibility envelope falls to 1/e, found to
    T2_STAR_REL_TOL by _first_crossings. Returns math.inf if the envelope
    provably stays above 1/e out to T2_STAR_HORIZON_S, or is still above
    it there."""
    # one visibility call per probe, the unit the benchmark's trace counts
    return _first_crossings(
        lambda _, times: [visibility(config, t) for t in times], [config])[0]


def _t2_stars(configs):
    """t2_star of each of configs, one root per input. Each distinct
    config is solved once, all in lockstep: one _integrals pass per step
    over every unsolved config."""
    distinct = list(dict.fromkeys(configs))

    def envelope(indices, times):
        return [_envelope(num, den) for num, den in
                _integrals([distinct[i]._row(t) for i, t in zip(indices, times)])]

    roots = dict(zip(distinct, _first_crossings(envelope, distinct)))
    return [roots[config] for config in configs]


def _safe_time(config: TrapFieldConfig) -> float:
    """A time before which the envelope of config is provably above 1/e.

    With f = k1*x + k2*x**2 the phase per second and any c, |E exp(i*f*t)|
    >= E cos((f - c)*t) >= 1 - t**2 * E[(f - c)**2]/2, so for c = E f the
    envelope exceeds 1/e below sqrt(2*(1 - 1/e)/Var f); math.inf when
    Var f = 0. The moments of x under the truncated Gamma(3) density are
    E x**k = (k + 2)!/2 * P(3 + k, X)/P(3, X), and Var f is taken from
    the central ones, on coefficients scaled to at most 1 in modulus so
    that it cannot overflow.
    """
    k1, k2, x_end, den = config._row(1.0)  # k1*1.0, k2*1.0 are exact
    scale = max(abs(k1), abs(k2)) or 1.0
    a, b = k1 / scale, k2 / scale
    m1, m2, m3, m4 = (math.factorial(k + 2) / 2 * _gamma_p(3 + k, x_end) / den
                      for k in range(1, 5))
    # central moments of x
    c2 = m2 - m1 * m1
    c3 = m3 - m1 * (3.0 * m2 - 2.0 * m1 * m1)
    c4 = m4 - m1 * (4.0 * m3 - m1 * (6.0 * m2 - 3.0 * m1 * m1))
    # f - E f = slope*y + b*(y**2 - c2), y = x - m1
    slope = a + 2.0 * b * m1
    var = slope * (slope * c2 + 2.0 * b * c3) + b * b * (c4 - c2 * c2)
    return math.sqrt(2.0 * (1.0 - 1.0 / math.e) / var) / scale if var > 0.0 else math.inf


def _first_crossings(envelope, configs):
    """First 1/e crossings of the envelopes of configs; math.inf for one
    provably above 1/e to T2_STAR_HORIZON_S (its _safe_time is past it),
    or still above 1/e there. envelope(indices, times) returns the envelope
    of each listed config at its time.

    Each brackets its crossing by doubling from its _safe_time, the last
    step cut to end at the horizon, so no earlier crossing can be skipped,
    then closes the bracket on g = log(envelope) + 1 to T2_STAR_REL_TOL by
    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)), bisecting
    whenever the secant point leaves the open bracket, and returns the
    bracket's midpoint. Each follows its own probe sequence, so a root does
    not depend on the others.
    """
    n = len(configs)
    # the envelope is 1 at t = 0 exactly (there _integrals returns the
    # density's mass as the phasor integral), so g = 1
    lo, g_lo = [0.0] * n, [1.0] * n
    hi, g_hi = [_safe_time(config) for config in configs], [None] * n  # None: doubling
    side = [0] * n  # the end the last probe replaced: -1 lo, +1 hi
    roots = [math.inf] * n
    active = [i for i in range(n) if hi[i] <= T2_STAR_HORIZON_S]
    probes = [hi[i] for i in active]
    while active:
        unsolved, following = [], []
        for i, t, value in zip(active, probes, envelope(active, probes)):
            g = math.log(value) + 1.0 if value > 0.0 else -math.inf
            if g == 0.0:  # a probe on the crossing itself
                roots[i] = t
                continue
            if g_hi[i] is None and g > 0.0:
                lo[i], g_lo[i] = t, g
                if t >= T2_STAR_HORIZON_S:
                    continue
                unsolved.append(i)
                following.append(min(2.0 * t, T2_STAR_HORIZON_S))
                continue
            if g_hi[i] is None:
                hi[i], g_hi[i] = t, g
            elif g > 0.0:
                lo[i], g_lo[i] = t, g
                if side[i] == -1:
                    g_hi[i] *= 0.5
                side[i] = -1
            else:
                hi[i], g_hi[i] = t, g
                if side[i] == 1:
                    g_lo[i] *= 0.5
                side[i] = 1
            if hi[i] - lo[i] <= T2_STAR_REL_TOL * hi[i]:
                roots[i] = 0.5 * (lo[i] + hi[i])
                continue
            secant = (lo[i] * g_hi[i] - hi[i] * g_lo[i]) / (g_hi[i] - g_lo[i])
            unsolved.append(i)
            following.append(secant if lo[i] < secant < hi[i] else 0.5 * (lo[i] + hi[i]))
        active, probes = unsolved, following
    return roots


def combine_coherence(t1_s: float, t2_prime_s: float, t2_star_s: float) -> float:
    """Total Ramsey decay time: 1/tau = 1/T1 + 1/T2' + 1/T2*.

    Infinite contributions are allowed and drop out. A total rate past
    float range (a time below about 1e-308 s) is an invalid-argument.
    """
    for name, value in (("t1_s", t1_s), ("t2_prime_s", t2_prime_s),
                        ("t2_star_s", t2_star_s)):
        if math.isnan(value) or value <= 0:
            raise InvalidArgumentError(f"{name} must be positive")
    rate = 0.0
    for value in (t1_s, t2_prime_s, t2_star_s):
        if not math.isinf(value):
            rate += 1.0 / value
    if not math.isfinite(rate):
        raise InvalidArgumentError(
            f"1/T1 + 1/T2' + 1/T2* is past float range for T1 = {t1_s!r} s, "
            f"T2' = {t2_prime_s!r} s, T2* = {t2_star_s!r} s")
    return math.inf if rate == 0.0 else 1.0 / rate


def coherence_vs_depth(base: TrapFieldConfig, ratios, t1_s: float,
                       t2_prime_s: float):
    """Coherence time tau versus depth ratio U_a/U_M at fixed field and
    temperature. Returns [(ratio, tau_s), ...] in input order. The T2* of
    every distinct depth is solved together, in lockstep."""
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise InvalidArgumentError("depth ratios must be positive")
    combine_coherence(t1_s, t2_prime_s, math.inf)  # checks T1, T2' before any solve
    u_magic = magic_depth(base.coeffs, base.b_field_gauss)
    if u_magic >= 0:
        raise UnphysicalConfigurationError("magic depth is not a trap at this field")
    t2_stars = _t2_stars([replace(base, mean_depth_hz=r * u_magic) for r in ratios])
    return [(r, combine_coherence(t1_s, t2_prime_s, t2))
            for r, t2 in zip(ratios, t2_stars)]


def ramsey_trace(config: TrapFieldConfig, times_s) -> RamseyTrace:
    """ramsey_population at each time, one clipped value per time (so
    RamseyTrace checks nothing), from one _integrals pass over all of them.
    Each point's row and carrier are checked first, in time order, so a bad
    time raises what its scalar call raises, the first in time order."""
    times = tuple(float(t) for t in times_s)
    rows = []
    for t in times:
        rows.append(config._row(t))
        _carrier_phase(config, t)
    pops = ordered_map(lambda point: ramsey_population(config, point[0], _integral=point[1]),
                       zip(times, _integrals(rows)))
    return RamseyTrace(times, tuple(pops))


def visibility_curve(config: TrapFieldConfig, times_s) -> VisibilityCurve:
    """visibility at each time, one clipped value per time (so
    VisibilityCurve checks nothing), from one _integrals pass over them."""
    times = tuple(float(t) for t in times_s)
    vis = [_envelope(num, den) for num, den in _integrals([config._row(t) for t in times])]
    return VisibilityCurve(times, tuple(vis))
