"""Acceptance checks shared by the CLI ``selftest`` subcommand and the test
suite: each criterion compares model output against its frozen expected
value at a fixed tolerance and reports one pass/fail line.
"""
import math
from dataclasses import dataclass

from .dls import (
    BOHR_MAGNETON_OVER_H,
    RB87_HYPERFINE_NU0,
    VECTOR_TO_SCALAR_RATIO,
    TrapCoefficients,
    coeffs_from_atomic,
    effective_field,
    hz_from_kelvin,
    magic_depth,
    zero_crossing_field,
)
from .fitting import fit_damped_sinusoid, fit_dls_global, synth_dls
from .ramsey import (
    TrapFieldConfig,
    coherence_vs_depth,
    combine_coherence,
    ramsey_population,
    t2_star,
)
from .thermal import sample
from .transfer import (
    Phase,
    TransferSegment,
    TransferTimeline,
    coherence_budget,
)

# the two coefficient sets exercised throughout: fitted values from the
# 830 nm sigma+ trap, and the atomic-theory set for the same trap
MEASURED_COEFFS = TrapCoefficients(beta1=3.47e-4, beta2=-0.99e-4, beta4=4.6e-12)
THEORY_COEFFS = TrapCoefficients(beta1=3.47e-4, beta2=-1.03e-4, beta4=4.64e-12)
WORKING_B_FIELD = 3.115  # gauss


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _within(value, target, rel):
    return abs(value - target) <= rel * abs(target)


def magic_config(temperature_k):
    u_magic = magic_depth(MEASURED_COEFFS, WORKING_B_FIELD)
    return TrapFieldConfig(MEASURED_COEFFS, WORKING_B_FIELD, u_magic, temperature_k)


def check_zero_crossing():
    """Bias field where the magic depth vanishes: 3.505 G, within 0.5%
    of the quoted ~3.51 G."""
    field = zero_crossing_field(MEASURED_COEFFS)
    ok = _within(field, 3.51, 0.005)
    return CheckResult("zero-crossing-field", ok,
                       f"-beta1/beta2 = {field:.4f} G vs 3.51 G")


def check_magic_depth():
    """Magic depths at 3.115 G: 0.20144 mK (measured set) and 0.13526 mK
    (theory set), exact arithmetic to 1e-6, both inside [0.13, 0.22] mK."""
    per_mk = hz_from_kelvin(1e-3)
    depth_meas = abs(magic_depth(MEASURED_COEFFS, WORKING_B_FIELD)) / per_mk
    depth_theory = abs(magic_depth(THEORY_COEFFS, WORKING_B_FIELD)) / per_mk
    ok = (_within(depth_meas, 0.20143779486743102, 1e-6)
          and _within(depth_theory, 0.13526314933609204, 1e-6)
          and 0.13 <= depth_theory <= 0.22 and 0.13 <= depth_meas <= 0.22)
    return CheckResult(
        "magic-depth", ok,
        f"|U_M|h/kB = {depth_meas:.5f} / {depth_theory:.5f} mK "
        f"(measured/theory), bracket [0.13, 0.22] mK")


def check_atomic_formulas():
    """Coefficients built from atomic inputs reproduce the theory values
    within 0.5% and satisfy beta2^2/beta4 = 8*(mu_B/h)^2/nu0 to 1e-9."""
    built = coeffs_from_atomic(VECTOR_TO_SCALAR_RATIO, beta1=3.47e-4)
    identity = built.beta2 ** 2 / built.beta4
    expected = 8.0 * BOHR_MAGNETON_OVER_H ** 2 / RB87_HYPERFINE_NU0
    ok = (_within(built.beta2, -1.03e-4, 0.005)
          and _within(built.beta4, 4.64e-12, 0.005)
          and _within(identity, expected, 1e-9)
          and _within(identity, 2292.9, 1e-4))
    return CheckResult(
        "atomic-formulas", ok,
        f"beta2 = {built.beta2:.4e}/G, beta4 = {built.beta4:.3e}/Hz, "
        f"beta2^2/beta4 = {identity:.6f}/G^2")


def check_effective_field():
    """Vector-shift Zeeman equivalent at 0.6 mK depth: 1.12 G within 1%."""
    depth = -hz_from_kelvin(0.6e-3)
    b_eff = effective_field(VECTOR_TO_SCALAR_RATIO, depth)
    ok = _within(b_eff, 1.120, 0.01)
    return CheckResult("effective-field", ok,
                       f"B_eff(0.6 mK) = {b_eff:.4f} G vs 1.120 G")


def check_t2star_values():
    """Thermal-average T2* at the magic depth: ~1.5 s at 17 uK, ~6.6 s at
    8 uK, ~1.9 s at 16 uK, each within +-30%."""
    targets = ((17e-6, 1.5), (8e-6, 6.6), (16e-6, 1.9))
    values = []
    ok = True
    for temperature, quoted in targets:
        value = t2_star(magic_config(temperature))
        values.append(f"{value:.3f} s vs ~{quoted} s @ {temperature*1e6:.0f} uK")
        ok = ok and _within(value, quoted, 0.30)
    return CheckResult("t2star-magic", ok, "; ".join(values))


def check_coherence_composition():
    """tau = (1/4 + 1/0.3 + 1/T2*(17 uK))^-1 inside [204, 246] ms."""
    tau = combine_coherence(4.0, 0.3, t2_star(magic_config(17e-6)))
    ok = 0.204 <= tau <= 0.246
    return CheckResult("coherence-composition", ok,
                       f"tau = {tau*1e3:.1f} ms vs 225 +- 21 ms")


def check_curve_shape():
    """Coherence-vs-depth curve at the 8 uK register config: maximum at the
    grid point nearest ratio 1, strictly decreasing within each half.

    The same grid at 17 uK is reported for information: there the thermal
    skew of the energy distribution moves the model optimum to
    1 - theta/(2|U_M|) ~ 0.96, one 0.05 grid step below 1 (see the
    characterization test in the suite). That offset of theta/2 is the
    mode approximation; the deep-trap optimum sits 0.546191*theta short of
    magic.
    """
    grid = [i / 100.0 for i in range(50, 151, 5)]
    curve = coherence_vs_depth(magic_config(8e-6), grid, t1_s=4.0,
                               t2_prime_s=0.3)
    taus = [tau for _, tau in curve]
    peak = taus.index(max(taus))
    nearest_one = min(range(len(grid)), key=lambda i: abs(grid[i] - 1.0))
    left = taus[:peak + 1]
    right = taus[peak:]
    ok = (peak == nearest_one
          and all(a < b for a, b in zip(left, left[1:]))
          and all(a > b for a, b in zip(right, right[1:])))
    curve_17 = coherence_vs_depth(magic_config(17e-6), grid, t1_s=4.0,
                                  t2_prime_s=0.3)
    peak_17 = max(curve_17, key=lambda rt: rt[1])[0]
    return CheckResult(
        "curve-shape", ok,
        f"argmax at ratio {grid[peak]:.2f} (8 uK), monotone halves: {ok}; "
        f"info: 17 uK grid peaks at {peak_17:.2f}")


def reference_transfer_timeline():
    """The reference transfer sequence: 0.1 ms overlap (measured T2 25 ms),
    2 ms move in the 0.2 mK trap at 14 uK, 0.1 ms return, hold in the
    register trap at 8 uK."""
    static = magic_config(8e-6)
    mover = TrapFieldConfig(coeffs=MEASURED_COEFFS,
                            b_field_gauss=WORKING_B_FIELD,
                            mean_depth_hz=-hz_from_kelvin(0.2e-3),
                            temperature_k=14e-6)
    overlap = TrapFieldConfig(coeffs=MEASURED_COEFFS,
                              b_field_gauss=WORKING_B_FIELD,
                              mean_depth_hz=-hz_from_kelvin(0.37e-3),
                              temperature_k=14e-6)
    segments = (
        TransferSegment(Phase.OVERLAP, 1e-4, overlap, t2_override_s=0.025),
        TransferSegment(Phase.MOVE, 2e-3, mover),
        TransferSegment(Phase.RETURN, 1e-4, mover),
        TransferSegment(Phase.HOLD, 0.0, static),
    )
    return TransferTimeline(segments, t1_s=4.0, t2prime_s=0.3)


def check_transfer_budget():
    """With measured T2* 6.6 s -> 1.9 s across the transfer, the coherence
    time drops 9.1% +- 1 point; the report's Overlap segments (0.1 ms at
    T2 = 25 ms) cost under 1% amplitude."""
    timeline = reference_transfer_timeline()
    report = coherence_budget(timeline, post_transfer_temperature_k=16e-6,
                              t2star_static_s=6.6, t2star_mobile_s=1.9)
    overlap_loss = 1.0 - math.prod(entry.amplitude_factor
                                   for entry in report.per_segment
                                   if entry.phase == Phase.OVERLAP)
    ok = (abs(report.fractional_tau_loss - 0.091) <= 0.01
          and overlap_loss < 0.01)
    model = coherence_budget(timeline, post_transfer_temperature_k=16e-6)
    return CheckResult(
        "transfer-budget", ok,
        f"loss = {report.fractional_tau_loss*100:.2f}% (target 9.1 +- 1), "
        f"overlap amplitude loss {overlap_loss*100:.2f}%; "
        f"model-T2* loss = {model.fractional_tau_loss*100:.2f}%")


def check_quadrature_vs_montecarlo():
    """Quadrature thermal average agrees with a 1e6-sample Monte Carlo
    within 4 standard errors on 20 randomized configs (5-40 uK, depth
    ratios 0.6-1.4)."""
    import numpy as np

    n_configs, n_samples = 20, 1_000_000
    rng = np.random.default_rng(20260808)
    worst = 0.0
    failures = 0
    for _ in range(n_configs):
        temperature = rng.uniform(5e-6, 40e-6)
        ratio = rng.uniform(0.6, 1.4)
        detuning = rng.uniform(0.0, 100.0)
        t = rng.uniform(0.02, 0.2)
        config = TrapFieldConfig(
            coeffs=MEASURED_COEFFS, b_field_gauss=WORKING_B_FIELD,
            mean_depth_hz=ratio * magic_depth(MEASURED_COEFFS, WORKING_B_FIELD),
            temperature_k=temperature, detuning_hz=detuning)
        quad = ramsey_population(config, t)
        energies = sample(config.ensemble, n_samples,
                          int(rng.integers(0, 2**31)))
        u0 = config.bottom_depth_hz
        u = u0 + 0.5 * energies
        linear = config.coeffs.beta1 + config.coeffs.beta2 * config.b_field_gauss
        shift = (linear + config.coeffs.beta4 * u) * u
        p0 = 0.5 + 0.5 * np.cos(2 * np.pi * (detuning + shift) * t)
        mc = float(p0.mean())
        se = float(p0.std(ddof=1) / math.sqrt(n_samples))
        pull = abs(quad - mc) / se if se > 0 else 0.0
        worst = max(worst, pull)
        if pull > 4.0:
            failures += 1
    ok = failures == 0
    return CheckResult(
        "quadrature-vs-montecarlo", ok,
        f"{n_configs} configs x {n_samples} samples, worst |pull| = "
        f"{worst:.2f} sigma (limit 4)")


def check_fit_roundtrips():
    """Noiseless fits recover generating parameters to 1e-6; noisy fits
    cover the truth at 3 sigma in >= 95/100 seeds."""
    import numpy as np

    n_seeds = 100
    b_fields = (2.8, 3.0, 3.115, 3.3)
    depths = [-0.5e6 * k for k in range(1, 9)]
    beta1 = 3.47e-4

    clean = [synth_dls(MEASURED_COEFFS, b, depths, 0.0, seed=0)
             for b in b_fields]
    fit0 = fit_dls_global(clean, beta1_fixed=beta1)
    exact_dls = (_within(fit0.parameters["beta2"], -0.99e-4, 1e-6)
                 and _within(fit0.parameters["beta4"], 4.6e-12, 1e-6))

    dls_hits = 0
    for s in range(n_seeds):
        noisy = [synth_dls(MEASURED_COEFFS, b, depths, 2.0, seed=1000 + 17 * s + i)
                 for i, b in enumerate(b_fields)]
        fit = fit_dls_global(noisy, beta1_fixed=beta1)
        ok2 = abs(fit.parameters["beta2"] + 0.99e-4) <= 3 * fit.stderr("beta2")
        ok4 = abs(fit.parameters["beta4"] - 4.6e-12) <= 3 * fit.stderr("beta4")
        dls_hits += ok2 and ok4

    times = np.linspace(0.0, 0.4, 100)
    truth = dict(v0=1.0, tau=0.206, delta=50.0, phi=0.0, offset=0.5)

    def ramsey_model(t):
        return (truth["offset"] + 0.5 * truth["v0"] * np.exp(-t / truth["tau"])
                * np.cos(2 * np.pi * truth["delta"] * t + truth["phi"]))

    fit_clean = fit_damped_sinusoid(list(zip(times, ramsey_model(times))))
    exact_sine = all(
        _within(fit_clean.parameters[k], truth[k], 1e-6)
        for k in ("v0", "tau", "delta", "offset"))
    exact_sine = exact_sine and abs(fit_clean.parameters["phi"]) <= 1e-6

    sine_hits = 0
    for s in range(n_seeds):
        rng = np.random.default_rng(5000 + s)
        noisy_p = ramsey_model(times) + rng.normal(0.0, 0.05, times.size)
        fit = fit_damped_sinusoid(
            [(t, p, 0.05) for t, p in zip(times, noisy_p)])
        sine_hits += abs(fit.parameters["tau"] - truth["tau"]) <= 3 * fit.stderr("tau")

    ok = exact_dls and exact_sine and dls_hits >= 95 and sine_hits >= 95
    return CheckResult(
        "fit-roundtrips", ok,
        f"noiseless exact: dls {exact_dls}, sinusoid {exact_sine}; "
        f"3-sigma coverage: dls {dls_hits}/{n_seeds}, "
        f"sinusoid {sine_hits}/{n_seeds} (need >= 95)")


ALL_CHECKS = (
    check_zero_crossing,
    check_magic_depth,
    check_atomic_formulas,
    check_effective_field,
    check_t2star_values,
    check_coherence_composition,
    check_curve_shape,
    check_transfer_budget,
    check_quadrature_vs_montecarlo,
    check_fit_roundtrips,
)


def run_all(stream):
    """Run every acceptance check, print one line each to `stream`, return
    the results."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        stream.write(f"{status}  {result.name}: {result.detail}\n")
    return results
