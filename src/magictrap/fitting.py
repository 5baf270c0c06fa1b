"""Least-squares parameter estimation.

Three fit problems, one result shape:

* global shift-vs-depth fits across several bias fields, linear in the two
  unknown coefficients once beta1 is fixed;
* damped-sinusoid fits of Ramsey fringes, nonlinear with a deterministic
  spectrum-based initialization;
* pure-exponential fits of visibility envelopes in log space.

All three solve and judge their normal equations in one place: the
weighted design (or Jacobian) has its columns scaled to unit norm, and
`condition_number` is that of the scaled normal matrix, so it does not
depend on the units of the parameters. The two time fits work in times
divided by a power of two near their span, so no fit depends on the unit of
its times. A result holds the stderrs sqrt(diag (J' W J)^-1), rescaled by
sqrt(chi^2/dof) where the sigmas default to 1, and the correlation matrix.
A fit whose input, chi^2, parameters or stderrs leave the normal float
range is an invalid-argument.
"""
import cmath
import math
import numbers
from dataclasses import dataclass, field
from itertools import chain

from .dls import TrapCoefficients, _check_depth, dls, magic_depth
from .errors import (
    ConditioningError,
    FitFailureError,
    FrequencyAmbiguityError,
    InvalidArgumentError,
    RankDeficiencyError,
)

_MAX_CONDITION = 1e12
_SMALLEST_NORMAL = 2.0 ** -1022
# least_squares stopping tolerances (meant as in MINPACK) and evaluation cap
XTOL, FTOL, GTOL = 1e-12, 1e-14, 1e-14
NFEV_PER_PARAMETER = 200


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where `least_squares` stopped: the point, its residuals,
    cost = |residuals|^2 / 2, the number of evaluations of `fun`, and
    success: False if the evaluations ran out before a tolerance was met."""

    x: "np.ndarray"
    fun: "np.ndarray"
    cost: float
    nfev: int
    success: bool


# module-level, and called through the module global, so that tests and the
# benchmark's traced run can substitute it
def least_squares(fun, x0):
    """Levenberg-Marquardt minimization of |r(x)|^2 / 2, where fun(x)
    returns the residuals r and their Jacobian J.

    Each trial step solves (J'J + mu D) h = -J'r. D is Moré's scaling,
    the running maximum of diag(J'J) (LNM 630, 1978). The damping mu
    follows Nielsen (IMM-REP-1999-05): a step with gain ratio rho > 0 is
    taken and mu shrinks by max(1/3, 1 - (2 rho - 1)^3); otherwise mu
    grows by nu and nu doubles. The tolerances mean what they mean in
    MINPACK: GTOL bounds the largest cosine between r and a column of J,
    FTOL the actual and the predicted relative cost reduction of a trial
    step, and XTOL its D-scaled length relative to the D-scaled x. It
    stops unconverged after NFEV_PER_PARAMETER * (n + 1) evaluations.
    A start whose cost or Jacobian is not finite is an invalid-argument.
    """
    import numpy as np

    x = np.array(x0, dtype=float)
    r, jac = fun(x)
    nfev, success = 1, False
    with np.errstate(over="ignore"):
        cost = 0.5 * float(r @ r)
    if not (math.isfinite(cost) and np.isfinite(jac).all()):
        raise InvalidArgumentError("least-squares start is past float range: "
                                   "its cost or Jacobian is not finite",
                                   diagnostics={"cost": cost})
    jtj, grad = jac.T @ jac, jac.T @ r
    diag = jtj.diagonal()
    scale = np.where(diag > 0, diag, 1.0)  # MINPACK's unit scale for a zero column
    mu, nu = 1e-3, 2.0
    while True:
        # a zero column, or r = 0, has grad = 0 and passes
        if np.all(np.abs(grad) <= GTOL * np.sqrt(jtj.diagonal() * (2.0 * cost))):
            success = True
            break
        if nfev >= NFEV_PER_PARAMETER * (x.size + 1):
            break
        step = np.linalg.solve(jtj + np.diag(mu * scale), -grad)
        r_new, jac_new = fun(x + step)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        actual = cost - cost_new
        predicted = 0.5 * float((mu * scale * step - grad) @ step)
        rho = actual / predicted if predicted > 0 else 0.0
        success = bool(abs(actual) <= FTOL * cost and predicted <= FTOL * cost and rho <= 2.0
                       or scale @ step**2 <= XTOL**2 * (scale @ x**2))
        if rho > 0:  # a non-finite trial cost makes rho NaN: rejected
            x, r, jac, cost = x + step, r_new, jac_new, cost_new
            jtj, grad = jac.T @ jac, jac.T @ r
            scale = np.maximum(scale, jtj.diagonal())
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if success:
            break
    return LeastSquaresResult(x, r, cost, nfev, success)


@dataclass(frozen=True)
class DlsDataset:
    """Shift measurements at one bias field: points of
    (depth_hz signed, shift_hz, sigma_hz)."""

    b_field_gauss: float
    points: tuple
    sigmas_given: bool = True

    def __post_init__(self):
        if not math.isfinite(self.b_field_gauss):
            raise InvalidArgumentError("bias fields must be finite")
        if len(self.points) < 3:
            raise InvalidArgumentError("a dataset needs at least 3 points")
        for depth, shift, sigma in self.points:
            _check_depth(depth)
            if not math.isfinite(shift):
                raise InvalidArgumentError("shifts must be finite")
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
    stderrs: tuple
    correlation: "np.ndarray"
    chi_square: float
    dof: int
    names: tuple = field(init=False)

    def __post_init__(self):
        import numpy as np

        corr = np.asarray(self.correlation, dtype=float)
        if (len(self.stderrs), *corr.shape) != (len(self.parameters),) * 3:
            raise InvalidArgumentError("stderrs and correlation must match parameters")
        if not np.allclose(corr, corr.T, rtol=1e-10, atol=0):
            raise InvalidArgumentError("correlation must be symmetric")
        if self.dof < 1:
            raise InvalidArgumentError("dof must be >= 1")
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "names", tuple(self.parameters))

    def stderr(self, name: str) -> float:
        return self.stderrs[self.names.index(name)]


def _normal_solve(a, y, past_range):
    """Least squares of a x = y through the normal equations N of `a` with
    its columns scaled to unit norm: x (None when y is None), the stderrs
    sqrt(diag N^-1) / scale and the correlation matrix of N^-1."""
    import numpy as np

    scale = np.linalg.norm(a, axis=0)
    # a column norm is non-finite where an entry is, or past about 1e154;
    # checked before cond, which fails on nan
    if not (np.isfinite(scale).all() and (y is None or np.isfinite(y).all())):
        raise InvalidArgumentError(past_range)
    if np.any(scale == 0):
        raise RankDeficiencyError("a design column is identically zero")
    scaled = a / scale
    normal = scaled.T @ scaled
    cond = np.linalg.cond(normal)
    if cond > _MAX_CONDITION:
        raise ConditioningError(
            f"normal equations too ill-conditioned (cond = {cond:.3e})",
            diagnostics={"condition_number": float(cond)},
        )
    x = None if y is None else np.linalg.solve(normal, scaled.T @ y) / scale
    inverse = np.linalg.inv(normal)
    spread = np.sqrt(inverse.diagonal())
    return x, spread / scale, (inverse + inverse.T) / (2.0 * np.outer(spread, spread))


def _finish(names, values, stderrs, corr, chi2, dof, sigmas_given, past_range,
            units=None):
    """The FitResult of a solve, its stderrs scaled by sqrt(chi^2/dof) where
    no sigmas were given, then by `units` to the caller's unit. A stderr off
    the normal range is past float range, save 0 where unweighted chi^2 = 0."""
    if not sigmas_given:
        stderrs = stderrs * math.sqrt(chi2 / dof)
    stderrs = tuple((stderrs if units is None else stderrs * units).tolist())
    least = 0.0 if chi2 == 0 and not sigmas_given else _SMALLEST_NORMAL
    if not (math.isfinite(chi2) and all(map(math.isfinite, values))
            and all(least <= s < math.inf for s in stderrs)):
        raise InvalidArgumentError(past_range)
    return FitResult(dict(zip(names, map(float, values))), stderrs, corr,
                     float(chi2), int(dof))


def fit_dls_global(datasets, beta1_fixed) -> FitResult:
    """Weighted linear least squares for the depth-quadratic shift model
    over several bias fields, beta1 held at `beta1_fixed`, or fitted as
    well where it is None.

    The model shift = (beta1 + beta2*B)*U + beta4*U**2 is linear in
    (beta2, beta4), and in beta1 when it is free; the normal equations are
    solved with column scaling.
    A fit whose input, chi^2, parameters or stderrs leave float range is
    an invalid-argument.
    """
    import numpy as np

    datasets = list(datasets)
    if len({ds.b_field_gauss for ds in datasets}) < 2:
        raise RankDeficiencyError(
            "need datasets at >= 2 distinct bias fields; beta2 and beta4 "
            "are degenerate with only one"
        )
    rows = [(ds.b_field_gauss, d, y, s) for ds in datasets for d, y, s in ds.points]
    free_beta1 = beta1_fixed is None
    if not (free_beta1 or math.isfinite(beta1_fixed)):
        raise InvalidArgumentError("the fixed beta1 must be finite")
    sigmas_given = all(ds.sigmas_given for ds in datasets)
    past_range = ("shift fit is past float range (beta1 "
                  + ("free)" if free_beta1 else f"fixed at {beta1_fixed!r})"))

    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report overflow
        b, u, y, sig = np.array(rows).T
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
        params, stderrs, corr = _normal_solve(aw, yw, past_range)
        resid = yw - aw @ params
        return _finish(names, params, stderrs, corr, float(resid @ resid),
                       len(rows) - len(names), sigmas_given, past_range)


def magic_depth_sigma(fit: FitResult, beta1: float, b_field_gauss: float) -> float:
    """First-order uncertainty of the vertex depth, sqrt(g' C g): g is its
    gradient times the stderrs, in Python floats, C the fit's correlation."""
    beta2, beta4 = fit.parameters["beta2"], fit.parameters["beta4"]
    if beta4 <= 0:
        raise InvalidArgumentError("beta4 must be positive to have a vertex")
    u_magic = magic_depth(TrapCoefficients(beta1, beta2, beta4), b_field_gauss)
    grad = {"beta1": -1.0 / (2.0 * beta4), "beta2": -b_field_gauss / (2.0 * beta4),
            "beta4": -u_magic / beta4}
    g = [grad[name] * s for name, s in zip(fit.names, fit.stderrs)]
    var = sum(gi * c * gj for gi, row in zip(g, fit.correlation.tolist())
              for gj, c in zip(g, row))
    if not var < math.inf:  # overflowed, or inf times 0
        raise InvalidArgumentError("vertex-depth uncertainty is past float range")
    return math.sqrt(max(var, 0.0))


def _normalize_samples(samples):
    """Times in units of `unit`, values, sigmas (1 where not given),
    whether sigmas were given, and `unit`, sorted by time, from rows that
    are all (t, v) or all (t, v, sigma). The unit is the power of two at or
    below the span of the times (1 for a zero span), so dividing by it
    rounds nothing."""
    import numpy as np

    rows = None
    try:
        # tuple or list rows of one width: one pass over their cells
        (width,) = set(map(len, samples))
        if width in (2, 3) and set(map(type, samples)) <= {tuple, list}:
            rows = np.fromiter(chain.from_iterable(samples), float,
                               len(samples) * width).reshape(-1, width)
    except (TypeError, ValueError, OverflowError):
        pass
    if rows is None:  # an array, or not a table of numbers: numpy says which
        try:
            rows = np.asarray(samples, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidArgumentError(
                "samples must be numeric rows of one width, (t, v) or (t, v, sigma)") from None
    if rows.ndim != 2 or rows.shape[1] not in (2, 3):
        raise InvalidArgumentError("samples must be rows of (t, v) or (t, v, sigma)",
                                   {"shape": rows.shape})
    given = rows.shape[1] == 3
    ts, vals = rows[:, 0], rows[:, 1]
    sigmas = rows[:, 2] if given else np.ones(len(rows))
    if not (sigmas > 0).all():
        raise InvalidArgumentError("sigmas must be positive")
    if not np.isfinite(ts).all():
        raise InvalidArgumentError("sample times must be finite")
    if not np.isfinite(vals).all():
        raise InvalidArgumentError("sample values must be finite")
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    span = float(ts[-1]) - float(ts[0])  # a Python float: inf, no warning
    if not math.isfinite(span):
        raise InvalidArgumentError("sample times must span a finite range")
    unit = math.ldexp(1.0, math.frexp(span)[1] - 1) if span > 0 else 1.0
    return ts / unit, vals[order], sigmas[order], given, unit


def _median_step(t):
    """The median sample step, bit for bit as numpy's median gives it, from
    one sort: the middle step, or half the sum of the two middle ones.
    numpy's median imports numpy.ma on its first call in a process."""
    import numpy as np

    steps = np.sort(np.diff(t))
    mid = steps.size // 2
    if steps.size % 2:
        return float(steps[mid])
    return float((steps[mid - 1] + steps[mid]) / 2)


def _fill_by_doubling(rows, w):
    """rows[k] = rows[0] * w**k for every row k: rows k ... 2k - 1 are
    rows 0 ... k - 1 times w**k, for k = 1, 2, 4, ... (the row count is a
    power of two)."""
    import numpy as np

    k = 1
    while k < len(rows):
        np.multiply(rows[:k], w, out=rows[k:2 * k])
        w = w * w
        k *= 2


def _spectrum_peak(t, y, span, dt):
    """Deterministic frequency/phase estimate from a dense discrete spectrum
    with parabolic peak refinement, for sorted times t of span > 0 and
    median step dt > 0.

    The spectrum is sum_n y_n exp(-2 pi i f_j t_n) on 4096 evenly spaced
    frequencies from 0.5/span up to 0.5/dt: with 3 samples or more, two
    steps or more are >= dt and all sum to the span, so dt <= span/2.
    Writing j = 64 a + b gives f_j = f_0 + 64 a df + b df, so the kernel
    factors as exp(-2 pi i f_0 t) w64^a * w^b with
    w = exp(-2 pi i df t) and w64 = exp(-2 pi i 64 df t), and the whole
    spectrum is one product of two 64 x N matrices. Each is filled by
    doubling from its first row, y exp(-2 pi i f_0 t) or 1: six products
    with w64 (or w) squared in between, so 3 N complex exponentials
    instead of 4096 N, for any sample times. A dt so small that 0.5/dt is
    past float range is an invalid-argument."""
    import numpy as np

    f_lo, f_hi = 0.5 / span, 0.5 / dt
    if f_hi == math.inf:
        raise InvalidArgumentError(
            "median sample step is too small against the span: the "
            "frequency grid is past float range")
    freqs = np.linspace(f_lo, f_hi, 4096)
    step = freqs[1] - freqs[0]
    turn = -2j * np.pi * t
    head = np.empty((64, t.size), dtype=complex)
    head[0] = y * np.exp(turn * f_lo)
    _fill_by_doubling(head, np.exp(turn * (64 * step)))
    tail = np.empty_like(head)
    tail[0] = 1.0
    _fill_by_doubling(tail, np.exp(turn * step))
    power = np.abs((head @ tail.T).ravel())
    k = int(np.argmax(power))
    if 0 < k < freqs.size - 1:
        p_m, p_0, p_p = power[k - 1], power[k], power[k + 1]
        denom = p_m - 2 * p_0 + p_p
        shift = 0.0 if denom == 0 else 0.5 * (p_m - p_p) / denom
        f0 = freqs[k] + shift * step
    else:
        f0 = freqs[k]
    peak = np.exp(-2j * np.pi * f0 * t) @ y
    return float(f0), float(cmath.phase(peak))


def _line_fit(t, u):
    """Least-squares line u = slope * t + intercept for sorted t, in closed
    form about the mean time. Times without spread give slope 0."""
    t_mean, u_mean = t.mean(), u.mean()
    slope = 0.0
    if t[-1] > t[0]:
        dev = t - t_mean
        slope = (dev @ (u - u_mean)) / (dev @ dev)
    return slope, u_mean - slope * t_mean


def _envelope_init(t, y, f0, span, dt):
    """Decay-time and amplitude initialization from a log-linear regression
    of the demodulated, period-averaged envelope; kept points at a single
    time give the no-decay start."""
    import numpy as np

    z = y * np.exp(-2j * np.pi * f0 * t)
    window = max(1, int(round(1.0 / (f0 * dt))))
    kernel = np.ones(window) / window
    smooth = np.convolve(z, kernel, mode="same")
    amp = np.abs(smooth)
    keep = amp > 0.05 * amp.max()
    if keep.sum() < 2:
        keep = amp > 0
    slope, intercept = _line_fit(t[keep], np.log(amp[keep]))
    tau0 = -1.0 / slope if slope < -1e-12 else 2.0 * span
    tau0 = min(max(tau0, 1e-3 * span), 100.0 * span)
    v0 = min(max(4.0 * math.exp(intercept), 1e-3), 2.0)
    return v0, tau0


def _damped_sinusoid(x, t, p, sig):
    """Weighted residuals (model - p) / sig of
    model = offset + (V0/2) exp(-t/tau) cos(2 pi delta t + phi), x being
    (V0, tau, delta, phi, offset), and their exact N x 5 Jacobian, from
    one exp, cos and sin pass. Complex x is allowed (complex-step checks)."""
    import numpy as np

    amp, tau, delta, phi, off = x
    decay = 0.5 * np.exp(-t / tau)
    arg = 2 * np.pi * delta * t + phi
    wave = decay * np.cos(arg)
    resid = (off + amp * wave - p) / sig
    jac = np.empty((5, t.size), dtype=resid.dtype)
    jac[0] = wave
    jac[1] = amp * wave * t / tau**2
    jac[3] = -amp * decay * np.sin(arg)
    jac[2] = 2 * np.pi * t * jac[3]
    jac[4] = 1.0
    jac /= sig
    return resid, jac.T


def fit_damped_sinusoid(samples) -> FitResult:
    """Nonlinear least squares of
    p(t) = offset + (V0/2) * exp(-t/tau) * cos(2*pi*delta*t + phi).

    Initialization is deterministic: frequency and phase from the discrete
    spectrum peak, decay and amplitude from a log-envelope regression.
    A fit whose chi^2 at the start point, final chi^2 or stderrs leave
    float range is an invalid-argument.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # the checks below report overflow
        t, p, sig, sigmas_given, unit = _normalize_samples(samples)
        if t.size < 10:
            raise InvalidArgumentError("need at least 10 samples")
        offset0 = float(p.mean())
        y = p - offset0
        span = t[-1] - t[0]
        dt = _median_step(t)
        if span <= 0 or dt <= 0:
            raise InvalidArgumentError("times must be strictly increasing overall")
        f0, phi0 = _spectrum_peak(t, y, span, dt)
        if f0 * span < 1.0:
            raise FrequencyAmbiguityError(
                "samples span less than one oscillation period"
            )
        v0, tau0 = _envelope_init(t, y, f0, span, dt)
        x0 = np.array([v0, tau0, f0, phi0, offset0])
        past_range = "damped-sinusoid fit is past float range"
        r0, _ = _damped_sinusoid(x0, t, p, sig)
        if not math.isfinite(float(r0 @ r0)):
            raise InvalidArgumentError(past_range)  # before the solver spends its budget

        result = least_squares(lambda x: _damped_sinusoid(x, t, p, sig), x0)
        if not result.success:
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
                diagnostics={"tau": float(tau * unit)},
            )
        if amp < 0:
            amp, phi = -amp, phi + math.pi
        if delta < 0:
            delta, phi = -delta, -phi
        phi = math.remainder(phi, 2 * math.pi)
        # the stderrs belong to the reported parameters, not the solver's
        _, jac = _damped_sinusoid(np.array([amp, tau, delta, phi, off]), t, p, sig)
        _, stderrs, corr = _normal_solve(jac, None, past_range)
        return _finish(("v0", "tau", "delta", "phi", "offset"),
                       (amp, tau * unit, delta / unit, phi, off), stderrs, corr,
                       float(2.0 * result.cost), t.size - 5, sigmas_given, past_range,
                       units=np.array([1.0, unit, 1.0 / unit, 1.0, 1.0]))


def fit_envelope(samples) -> FitResult:
    """Least squares of v(t) = exp(-t/tau) by zero-intercept regression in
    log space, with sigma-propagated weights."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # _finish reports overflow
        t, v, sig, sigmas_given, unit = _normalize_samples(samples)
        if t.size < 4:
            raise InvalidArgumentError("need at least 4 samples")
        if np.any(v <= 0):
            raise InvalidArgumentError("visibility values must be positive")
        if np.any(v > 1):
            raise InvalidArgumentError("visibility values must be <= 1")
        w = v / sig                 # sd(log v) = sigma/v
        a, y = (w * t)[:, None], w * np.log(v)
        past_range = "envelope fit is past float range"
        (slope,), stderrs, corr = _normal_solve(a, y, past_range)
        if slope >= 0:
            raise FitFailureError("no decay: regressed slope is non-negative",
                                  diagnostics={"slope": float(slope / unit)})
        tau = -1.0 / slope          # numpy floats: tau**2 overflows to inf
        resid = y - a @ [slope]
        return _finish(("tau",), (tau * unit,), stderrs * tau**2, corr,
                       float(resid @ resid), t.size - 1, sigmas_given, past_range,
                       units=np.array([unit]))


def synth_dls(coeffs: TrapCoefficients, b_field_gauss: float, depths_hz,
              noise_sigma_hz: float, seed: int) -> DlsDataset:
    """Synthetic shift dataset: the model plus i.i.d. gaussian noise,
    deterministic per seed, a non-negative integer. The oracle generator
    for fit round-trips."""
    import numpy as np

    if noise_sigma_hz < 0:
        raise InvalidArgumentError("noise sigma must be >= 0")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    depths = [float(d) for d in depths_hz]
    clean = [dls(coeffs, b_field_gauss, d) for d in depths]
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma_hz, size=len(depths)) if noise_sigma_hz else np.zeros(len(depths))
    shifts = [c + n for c, n in zip(clean, noise)]
    if noise_sigma_hz > 0:
        return make_dls_dataset(b_field_gauss, depths, shifts,
                                [noise_sigma_hz] * len(depths))
    return make_dls_dataset(b_field_gauss, depths, shifts)
