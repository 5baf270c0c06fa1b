"""Domain contract of the public functions: over an edge-value grid, each
call returns a value in its documented range (finite floats unless an
infinite time is documented, [0, 1] for a probability or a visibility) or
raises a coded MagicTrapError, never a bare exception, inf or NaN."""
import itertools
import math

import numpy as np

from magictrap.datafiles import depth_hz_from_mk, mk_from_depth_hz
from magictrap.dls import (
    TrapCoefficients,
    coeffs_from_atomic,
    dls,
    dls_minimum,
    effective_field,
    hz_from_kelvin,
    kelvin_from_hz,
    magic_depth,
    zero_crossing_field,
)
from magictrap.errors import MagicTrapError
from magictrap.fitting import (
    fit_damped_sinusoid,
    fit_dls_global,
    fit_envelope,
    least_squares,
    magic_depth_sigma,
    make_dls_dataset,
    synth_dls,
)
from magictrap.ramsey import (
    TrapFieldConfig,
    coherence_vs_depth,
    combine_coherence,
    ramsey_population,
    ramsey_trace,
    t2_star,
    visibility,
    visibility_curve,
)
from magictrap.thermal import ThermalEnsemble, sample, truncation_mass
from magictrap.transfer import Phase, TransferSegment, TransferTimeline, coherence_budget

EDGES = (0.0, -0.0, 5e-324, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308,
         math.inf, -math.inf, math.nan)
#: what a count or a seed may be handed besides the edges
COUNTS = EDGES + (1.5, True, False, 2**70, 3)
MEASURED = TrapCoefficients(3.47e-4, -0.99e-4, 4.6e-12)
B0 = 3.115
BASE = TrapFieldConfig(MEASURED, B0, magic_depth(MEASURED, B0), 17e-6, 37.0)


def outcome(function, *args):
    """function(*args), or None for a coded error; anything else raised
    fails the test."""
    try:
        return function(*args)
    except MagicTrapError as exc:
        assert exc.code != MagicTrapError.code, (function.__name__, args)
        return None


def assert_finite(value, *context):
    assert type(value) is float and math.isfinite(value), (value, *context)


def assert_within(value, lo, hi, *context):
    assert type(value) is float and lo <= value <= hi, (value, *context)


def one_edge_each(base):
    """base with one entry replaced by each edge value, entry by entry."""
    return [base[:i] + (edge,) + base[i + 1:]
            for i in range(len(base)) for edge in EDGES]


def valid_coefficients():
    made = [outcome(TrapCoefficients, *betas)
            for betas in itertools.product(EDGES, repeat=3)]
    for coeffs in made:
        if coeffs is not None:
            for beta in (coeffs.beta1, coeffs.beta2, coeffs.beta4):
                assert_finite(beta, coeffs)
    return [coeffs for coeffs in made if coeffs is not None]


def test_coefficient_functions():
    for coeffs in valid_coefficients():
        field = outcome(zero_crossing_field, coeffs)
        if field is not None:
            assert_finite(field, coeffs)
        for b_field in EDGES:
            for function in (magic_depth, dls_minimum):
                value = outcome(function, coeffs, b_field)
                if value is not None:
                    assert_finite(value, function.__name__, coeffs, b_field)


def test_shift():
    # a zero and each size class of every coefficient: the full product of
    # valid coefficients with the grid would take over 0.1 s
    coefficients = [TrapCoefficients(*betas) for betas in itertools.product(
        (0.0, 1.0, -1e300, 1e308), (0.0, -1.0, 1e300), (0.0, 5e-324, 1.0, 1e308))]
    for coeffs in coefficients:
        for b_field, depth in itertools.product(EDGES, repeat=2):
            value = outcome(dls, coeffs, b_field, depth)
            if value is not None:
                assert_finite(value, coeffs, b_field, depth)


def test_atomic_and_field_functions():
    for ratio, other in itertools.product(EDGES, repeat=2):
        coeffs = outcome(coeffs_from_atomic, ratio, other)
        if coeffs is not None:
            for beta in (coeffs.beta1, coeffs.beta2, coeffs.beta4):
                assert_finite(beta, ratio, other)
        field = outcome(effective_field, ratio, other)
        if field is not None:
            assert_finite(field, ratio, other)


def test_unit_conversions():
    for function in (hz_from_kelvin, kelvin_from_hz, depth_hz_from_mk,
                     mk_from_depth_hz):
        for value in EDGES:
            result = outcome(function, value)
            if result is not None:
                assert math.isfinite(value), (function.__name__, value)
                assert_finite(result, function.__name__, value)


def test_sweeps_with_one_edge_time():
    # each sweep either returns its scalar calls' values or raises the
    # error of the first scalar call that raises
    for edge in EDGES:
        times = [0.05, edge, 0.3]
        for sweep, scalar, field in ((ramsey_trace, ramsey_population, "population"),
                                     (visibility_curve, visibility, "visibility")):
            expected = outcome_or_error(lambda: [scalar(BASE, t) for t in times])
            got = outcome_or_error(lambda: list(getattr(sweep(BASE, times), field)))
            assert got == expected, (sweep.__name__, edge)
            if type(got) is list:
                for value in got:
                    assert_finite(value, sweep.__name__, edge)
                    assert 0.0 <= value <= 1.0, (sweep.__name__, edge, value)


def outcome_or_error(call):
    """call(), or the class, message and diagnostics of the coded error it
    raises."""
    try:
        return call()
    except MagicTrapError as exc:
        assert exc.code != MagicTrapError.code
        return type(exc), str(exc), repr(exc.diagnostics)


def test_thermal_functions():
    for temperature, truncation in itertools.product(EDGES, repeat=2):
        ens = outcome(ThermalEnsemble, temperature, truncation)
        if ens is None:
            continue
        mass = outcome(truncation_mass, ens)
        if mass is not None:
            assert_within(mass, 0.0, 1.0, ens)
        energies = outcome(sample, ens, 5, 0)
        if energies is not None:
            assert energies.shape == (5,) and np.isfinite(energies).all(), ens
            assert ((0.0 <= energies) & (energies <= truncation)).all(), ens
    ens = ThermalEnsemble(17e-6)
    for n, seed in [(n, 0) for n in COUNTS] + [(3, seed) for seed in COUNTS]:
        energies = outcome(sample, ens, n, seed)
        if energies is not None:
            assert energies.shape == (n,) and np.isfinite(energies).all(), (n, seed)


def valid_configs():
    """BASE with each field, and each coefficient, set to each edge."""
    fields = (BASE.b_field_gauss, BASE.mean_depth_hz, BASE.temperature_k, BASE.detuning_hz)
    betas = (MEASURED.beta1, MEASURED.beta2, MEASURED.beta4)
    made = [outcome(TrapFieldConfig, MEASURED, *values) for values in one_edge_each(fields)]
    for values in one_edge_each(betas):
        coeffs = outcome(TrapCoefficients, *values)
        if coeffs is not None:
            made.append(outcome(TrapFieldConfig, coeffs, *fields))
    return [cfg for cfg in made if cfg is not None]


def test_ramsey_point_functions():
    for cfg in valid_configs():
        for t in EDGES:
            for function in (visibility, ramsey_population):
                value = outcome(function, cfg, t)
                if value is not None:
                    assert_within(value, 0.0, 1.0, function.__name__, cfg, t)
        root = outcome(t2_star, cfg)
        if root is not None:
            assert_within(root, 5e-324, math.inf, cfg)


def test_coherence_times():
    for times in itertools.product(EDGES, repeat=3):
        tau = outcome(combine_coherence, *times)
        if tau is not None:
            assert_within(tau, 5e-324, math.inf, times)
    for ratio, t1, t2_prime in one_edge_each((1.0, 4.0, 0.3)):
        curve = outcome(coherence_vs_depth, BASE, [ratio], t1, t2_prime)
        if curve is not None:
            ((got, tau),) = curve
            assert got == ratio, curve
            assert_within(tau, 5e-324, math.inf, ratio, t1, t2_prime)


def test_transfer_budget():
    # a shift-free trap: its model T2* is inf without a root solve, so the
    # measured values and durations alone set every number of the report
    cfg = TrapFieldConfig(TrapCoefficients(0.0, 0.0, 0.0), 0.0, -1e6, 1e-5)
    cases = one_edge_each((1e-3, 0.025, 4.0, 0.3, 2e-5, 0.2, 0.1))
    cases += [(1e-3, 0.025, 4.0, 0.3, 2e-5, None, mobile) for mobile in EDGES]
    cases += [(1e-3, 0.025, 4.0, 0.3, 2e-5, static, None) for static in EDGES]
    for duration, override, t1, t2_prime, post_k, static, mobile in cases:
        segments = [outcome(TransferSegment, phase, duration, cfg, override)
                    for phase in (Phase.OVERLAP, Phase.MOVE, Phase.RETURN)]
        if None in segments:
            continue
        timeline = outcome(TransferTimeline, tuple(segments), t1, t2_prime)
        if timeline is None:
            continue
        report = outcome(coherence_budget, timeline, post_k, static, mobile)
        if report is None:
            continue
        context = (duration, override, t1, t2_prime, post_k, static, mobile)
        assert_within(report.retained_coherence, 0.0, 1.0, *context)
        for entry in report.per_segment:
            assert_within(entry.amplitude_factor, 0.0, 1.0, *context)
        for tau in (report.tau_static_s, report.tau_mobile_s):
            assert_within(tau, 5e-324, math.inf, *context)
        assert_finite(report.fractional_tau_loss, *context)


def assert_dataset(dataset, *context):
    # an infinite sigma is a point of zero weight
    assert math.isfinite(dataset.b_field_gauss), context
    for depth, shift, sigma in dataset.points:
        assert depth <= 0.0 and math.isfinite(shift) and sigma > 0.0, context


def assert_fit(fit, *context):
    for value in (*fit.parameters.values(), *fit.stderrs, fit.chi_square):
        assert_finite(value, *context)
    assert min(fit.stderrs) >= 0.0 and fit.chi_square >= 0.0, context


def test_shift_datasets_and_fits():
    depths = (-1e6, -2e6, -3e6)
    for b_field, depth, shift, sigma in one_edge_each((B0, -1e6, 350.0, 1.0)):
        dataset = outcome(make_dls_dataset, b_field, (depth, -2e6, -3e6),
                          (shift, 700.0, 1050.0), (sigma, 1.0, 1.0))
        if dataset is not None:
            assert_dataset(dataset, b_field, depth, shift, sigma)
    for b_field, depth, noise in one_edge_each((B0, -1e6, 1.0)):
        dataset = outcome(synth_dls, MEASURED, b_field, (depth, -2e6, -3e6), noise, 0)
        if dataset is not None:
            assert_dataset(dataset, b_field, depth, noise)
    for seed in COUNTS:
        dataset = outcome(synth_dls, MEASURED, B0, depths, 1.0, seed)
        if dataset is not None:
            assert_dataset(dataset, seed)
    data = [synth_dls(MEASURED, b, depths, 1.0, 1) for b in (2.8, 3.3)]
    for beta1 in EDGES:
        fit = outcome(fit_dls_global, data, beta1)
        if fit is not None:
            assert_fit(fit, beta1)
    fit = fit_dls_global(data, MEASURED.beta1)
    for beta1, b_field in itertools.product(EDGES, repeat=2):
        sigma = outcome(magic_depth_sigma, fit, beta1, b_field)
        if sigma is not None:
            assert_finite(sigma, beta1, b_field)
            assert sigma >= 0.0, (beta1, b_field)


def test_time_fits_with_one_edge_cell():
    t = np.linspace(0.0, 0.4, 50)
    envelope = np.exp(-t / 0.2)
    fringe = 0.5 + 0.4 * envelope * np.cos(2 * np.pi * 40.0 * t)
    for fit, values in ((fit_damped_sinusoid, fringe), (fit_envelope, envelope)):
        for column, edge in itertools.product(range(3), EDGES):
            table = np.column_stack([t, values, np.full(t.size, 0.01)])
            table[20, column] = edge
            result = outcome(fit, table.tolist())
            if result is not None:
                assert_fit(result, fit.__name__, column, edge)


def test_least_squares_start():
    for edge in EDGES:
        result = outcome(least_squares,
                         lambda x: (np.array([x[0] - 1.0, x[0]]), np.ones((2, 1))), [edge])
        if result is not None:
            assert np.isfinite(result.x).all() and math.isfinite(result.cost), edge
