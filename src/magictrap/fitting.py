"""Least-squares parameter estimation.

Three fit problems, one result shape:

* global shift-vs-depth fits across several bias fields, linear in the two
  unknown coefficients once beta1 is fixed;
* damped-sinusoid fits of Ramsey fringes, nonlinear with a deterministic
  spectrum-based initialization;
* pure-exponential fits of visibility envelopes in log space.

When per-point sigmas are supplied the reported covariance is the plain
(J' W J)^-1; when they default to 1 it is rescaled by chi^2/dof.
"""
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .dls import TrapCoefficients, dls
from .errors import (
    ConditioningError,
    ConventionViolationError,
    FitFailureError,
    FrequencyAmbiguityError,
    InvalidArgumentError,
    RankDeficiencyError,
)

_MAX_CONDITION = 1e12


# scipy.optimize loads on the first fit; the name stays module-level
# because the benchmark's traced run patches fitting.least_squares
def least_squares(*args, **kwargs):
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class DlsDataset:
    """Shift measurements at one bias field: points of
    (depth_hz signed, shift_hz, sigma_hz)."""

    b_field_gauss: float
    points: tuple
    sigmas_given: bool = True

    def __post_init__(self):
        if len(self.points) < 3:
            raise InvalidArgumentError("a dataset needs at least 3 points")
        for depth, _, sigma in self.points:
            if depth > 0:
                raise ConventionViolationError("depths must be <= 0 Hz (signed)")
            if not sigma > 0:
                raise InvalidArgumentError("sigmas must be positive")


def make_dls_dataset(b_field_gauss, depths_hz, shifts_hz, sigmas_hz=None):
    """Assemble a dataset; a missing sigma column defaults to 1 (unweighted)."""
    depths = [float(d) for d in depths_hz]
    shifts = [float(s) for s in shifts_hz]
    if len(depths) != len(shifts):
        raise InvalidArgumentError("depths and shifts must match in length")
    if sigmas_hz is None:
        sigmas = [1.0] * len(depths)
        given = False
    else:
        sigmas = [float(s) for s in sigmas_hz]
        if len(sigmas) != len(depths):
            raise InvalidArgumentError("sigmas must match points in length")
        given = True
    return DlsDataset(float(b_field_gauss), tuple(zip(depths, shifts, sigmas)), given)


@dataclass(frozen=True)
class FitResult:
    parameters: dict
    covariance: np.ndarray
    chi_square: float
    dof: int
    names: tuple = field(default=())

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (len(self.parameters),) * 2:
            raise InvalidArgumentError("covariance shape must match parameters")
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=0):
            raise InvalidArgumentError("covariance must be symmetric")
        if self.dof < 1:
            raise InvalidArgumentError("dof must be >= 1")
        object.__setattr__(self, "names", tuple(self.parameters))

    def stderr(self, name: str) -> float:
        i = self.names.index(name)
        return math.sqrt(max(self.covariance[i, i], 0.0))


def _finish(names, values, unscaled_cov, chi2, dof, sigmas_given):
    cov = np.asarray(unscaled_cov, dtype=float)
    if not sigmas_given:
        cov = cov * (chi2 / dof)
    cov = 0.5 * (cov + cov.T)
    return FitResult(dict(zip(names, (float(v) for v in values))), cov,
                     float(chi2), int(dof))


def fit_dls_global(datasets, beta1_fixed: float, free_beta1: bool = False) -> FitResult:
    """Weighted linear least squares for the depth-quadratic shift model
    over several bias fields, beta1 held fixed (optionally freed).

    The model shift = (beta1 + beta2*B)*U + beta4*U**2 is linear in
    (beta2, beta4); the normal equations are solved with column scaling.
    """
    datasets = list(datasets)
    if len({ds.b_field_gauss for ds in datasets}) < 2:
        raise RankDeficiencyError(
            "need datasets at >= 2 distinct bias fields; beta2 and beta4 "
            "are degenerate with only one"
        )
    rows = [(ds.b_field_gauss, d, y, s) for ds in datasets for d, y, s in ds.points]
    if len(rows) < 3:
        raise InvalidArgumentError("need at least 3 points in total")
    b = np.array([r[0] for r in rows])
    u = np.array([r[1] for r in rows])
    y = np.array([r[2] for r in rows])
    sig = np.array([r[3] for r in rows])
    sigmas_given = all(ds.sigmas_given for ds in datasets)

    if free_beta1:
        names = ("beta1", "beta2", "beta4")
        design = np.column_stack([u, b * u, u * u])
        target = y
    else:
        names = ("beta2", "beta4")
        design = np.column_stack([b * u, u * u])
        target = y - beta1_fixed * u

    aw = design / sig[:, None]
    yw = target / sig
    col_scale = np.linalg.norm(aw, axis=0)
    if np.any(col_scale == 0):
        raise RankDeficiencyError("a design column is identically zero")
    aws = aw / col_scale
    normal = aws.T @ aws
    cond = np.linalg.cond(normal)
    if cond > _MAX_CONDITION:
        raise ConditioningError(
            f"normal equations too ill-conditioned (cond = {cond:.3e})",
            condition_number=float(cond),
        )
    scaled = np.linalg.solve(normal, aws.T @ yw)
    params = scaled / col_scale
    cov = np.linalg.inv(normal) / np.outer(col_scale, col_scale)
    resid = yw - aw @ params
    chi2 = float(resid @ resid)
    dof = len(rows) - len(names)
    return _finish(names, params, cov, chi2, dof, sigmas_given)


def magic_depth_sigma(fit: FitResult, beta1: float, b_field_gauss: float) -> float:
    """First-order uncertainty of the vertex depth propagated from the
    fitted (beta2, beta4) covariance."""
    beta2 = fit.parameters["beta2"]
    beta4 = fit.parameters["beta4"]
    if beta4 <= 0:
        raise InvalidArgumentError("beta4 must be positive to have a vertex")
    u_magic = -(beta1 + beta2 * b_field_gauss) / (2.0 * beta4)
    grad = {"beta2": -b_field_gauss / (2.0 * beta4), "beta4": -u_magic / beta4}
    if "beta1" in fit.parameters:
        grad["beta1"] = -1.0 / (2.0 * beta4)
    g = np.array([grad.get(name, 0.0) for name in fit.names])
    return float(math.sqrt(max(g @ fit.covariance @ g, 0.0)))


def _normalize_samples(samples):
    ts, vals, sigmas = [], [], []
    given = True
    for row in samples:
        if len(row) == 2:
            t, v = row
            s = 1.0
            given = False
        else:
            t, v, s = row
            if not s > 0:
                raise InvalidArgumentError("sigmas must be positive")
        ts.append(float(t))
        vals.append(float(v))
        sigmas.append(float(s))
    order = np.argsort(ts, kind="stable")
    return (np.array(ts)[order], np.array(vals)[order], np.array(sigmas)[order],
            given)


def _spectrum_peak(t, y):
    """Deterministic frequency/phase estimate from a dense discrete spectrum
    with parabolic peak refinement."""
    span = t[-1] - t[0]
    dt = float(np.median(np.diff(t)))
    if span <= 0 or dt <= 0:
        raise InvalidArgumentError("times must be strictly increasing overall")
    f_lo = 0.5 / span
    f_hi = 0.5 / dt
    if f_hi <= f_lo:
        raise FrequencyAmbiguityError("time grid too coarse to resolve a period")
    freqs = np.linspace(f_lo, f_hi, 4096)
    spectrum = np.exp(-2j * np.pi * np.outer(freqs, t)) @ y
    power = np.abs(spectrum)
    k = int(np.argmax(power))
    if 0 < k < freqs.size - 1:
        p_m, p_0, p_p = power[k - 1], power[k], power[k + 1]
        denom = p_m - 2 * p_0 + p_p
        shift = 0.0 if denom == 0 else 0.5 * (p_m - p_p) / denom
        f0 = freqs[k] + shift * (freqs[1] - freqs[0])
    else:
        f0 = freqs[k]
    peak = np.exp(-2j * np.pi * f0 * t) @ y
    return float(f0), float(cmath.phase(peak))


def _envelope_init(t, y, f0):
    """Decay-time and amplitude initialization from a log-linear regression
    of the demodulated, period-averaged envelope."""
    z = y * np.exp(-2j * np.pi * f0 * t)
    dt = float(np.median(np.diff(t)))
    window = max(1, int(round(1.0 / (f0 * dt))))
    kernel = np.ones(window) / window
    smooth = np.convolve(z, kernel, mode="same")
    amp = np.abs(smooth)
    keep = amp > 0.05 * amp.max()
    if keep.sum() < 2:
        keep = amp > 0
    tt, uu = t[keep], np.log(amp[keep])
    slope, intercept = np.polyfit(tt, uu, 1)
    span = t[-1] - t[0]
    tau0 = -1.0 / slope if slope < -1e-12 else 2.0 * span
    tau0 = min(max(tau0, 1e-3 * span), 100.0 * span)
    v0 = min(max(4.0 * math.exp(intercept), 1e-3), 2.0)
    return v0, tau0


def fit_damped_sinusoid(samples) -> FitResult:
    """Nonlinear least squares of
    p(t) = offset + (V0/2) * exp(-t/tau) * cos(2*pi*delta*t + phi).

    Initialization is deterministic: frequency and phase from the discrete
    spectrum peak, decay and amplitude from a log-envelope regression.
    """
    t, p, sig, sigmas_given = _normalize_samples(samples)
    if t.size < 10:
        raise InvalidArgumentError("need at least 10 samples")
    offset0 = float(p.mean())
    y = p - offset0
    f0, phi0 = _spectrum_peak(t, y)
    if f0 * (t[-1] - t[0]) < 1.0:
        raise FrequencyAmbiguityError(
            "samples span less than one oscillation period"
        )
    v0, tau0 = _envelope_init(t, y, f0)
    x0 = np.array([v0, tau0, f0, phi0, offset0])

    def residuals(x):
        amp, tau, delta, phi, off = x
        model = off + 0.5 * amp * np.exp(-t / tau) * np.cos(
            2 * np.pi * delta * t + phi)
        return (model - p) / sig

    result = least_squares(residuals, x0, method="lm", xtol=1e-12,
                           ftol=1e-14, gtol=1e-14, max_nfev=200 * (x0.size + 1))
    if result.status <= 0:
        raise FitFailureError(
            "damped-sinusoid fit did not converge",
            diagnostics={"cost": float(result.cost),
                         "residual_rms": float(np.sqrt(np.mean(result.fun**2))),
                         "nfev": int(result.nfev)},
        )
    amp, tau, delta, phi, off = result.x
    if tau <= 0:
        raise FitFailureError(
            "fitted decay time is non-positive",
            diagnostics={"tau": float(tau)},
        )
    if amp < 0:
        amp, phi = -amp, phi + math.pi
    if delta < 0:
        delta, phi = -delta, -phi
    phi = math.remainder(phi, 2 * math.pi)
    jac = result.jac
    jtj = jac.T @ jac
    cond = np.linalg.cond(jtj)
    if cond > _MAX_CONDITION:
        raise ConditioningError(
            f"fit covariance ill-conditioned (cond = {cond:.3e})",
            condition_number=float(cond),
        )
    cov = np.linalg.inv(jtj)
    chi2 = float(2.0 * result.cost)
    dof = t.size - 5
    return _finish(("v0", "tau", "delta", "phi", "offset"),
                   (amp, tau, delta, phi, off), cov, chi2, dof, sigmas_given)


def fit_envelope(samples) -> FitResult:
    """Least squares of v(t) = exp(-t/tau) by zero-intercept regression in
    log space, with sigma-propagated weights."""
    t, v, sig, sigmas_given = _normalize_samples(samples)
    if t.size < 4:
        raise InvalidArgumentError("need at least 4 samples")
    if np.any(v <= 0):
        raise InvalidArgumentError("visibility values must be positive")
    if np.any(v > 1):
        raise InvalidArgumentError("visibility values must be <= 1")
    u = np.log(v)
    w = (v / sig) ** 2          # var(log v) = (sigma/v)^2
    denom = float(np.sum(w * t * t))
    if denom == 0:
        raise RankDeficiencyError("need at least one sample at t > 0")
    slope = float(np.sum(w * t * u)) / denom
    if slope >= 0:
        raise FitFailureError("no decay: regressed slope is non-negative",
                              diagnostics={"slope": slope})
    tau = -1.0 / slope
    var_slope = 1.0 / denom
    var_tau = var_slope * tau ** 4
    chi2 = float(np.sum(w * (u - slope * t) ** 2))
    dof = t.size - 1
    return _finish(("tau",), (tau,), np.array([[var_tau]]), chi2, dof,
                   sigmas_given)


def synth_dls(coeffs: TrapCoefficients, b_field_gauss: float, depths_hz,
              noise_sigma_hz: float, seed: int) -> DlsDataset:
    """Synthetic shift dataset: the model plus i.i.d. gaussian noise,
    deterministic per seed. The oracle generator for fit round-trips."""
    if noise_sigma_hz < 0:
        raise InvalidArgumentError("noise sigma must be >= 0")
    depths = [float(d) for d in depths_hz]
    clean = [dls(coeffs, b_field_gauss, d) for d in depths]
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma_hz, size=len(depths)) if noise_sigma_hz else np.zeros(len(depths))
    shifts = [c + n for c, n in zip(clean, noise)]
    if noise_sigma_hz > 0:
        return make_dls_dataset(b_field_gauss, depths, shifts,
                                [noise_sigma_hz] * len(depths))
    return make_dls_dataset(b_field_gauss, depths, shifts)
