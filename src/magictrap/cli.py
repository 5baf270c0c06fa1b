"""Deterministic command-line front end.

Every subcommand writes its primary result as a flat key-value document to
stdout; ``--out`` adds a CSV table and ``--plot`` a static SVG where the
command produces a curve. Both are written before the document, so a failed
write leaves stdout empty. Exit codes: 0 success, 1 domain or I/O error,
2 usage error.
"""
import argparse
import math
import sys

import numpy as np

from . import __version__, acceptance, datafiles, fitting, svg
from .constants import CONSTANTS, hz_from_kelvin, kelvin_from_hz
from .dls import (
    TrapCoefficients,
    dls,
    dls_minimum,
    effective_field,
    magic_depth,
    zero_crossing_field,
)
from .errors import InvalidArgumentError, MagicTrapError
from .fitting import fit_damped_sinusoid, fit_dls_global, magic_depth_sigma
from .ramsey import (
    TrapFieldConfig,
    coherence_vs_depth,
    ramsey_trace,
    t2_star,
    visibility_curve,
)
from .thermal import truncation_mass
from .transfer import coherence_budget

#: most points a grid may have (the README's grids have 21 to 201), so that a
#: typo cannot exhaust memory or run for hours
MAX_GRID_POINTS = 10_000
#: most significant digits --precision may ask for: a double holds 17
MAX_PRECISION = 17


def _config_from_args(args, coeffs):
    return TrapFieldConfig(
        coeffs=coeffs,
        b_field_gauss=args.b_field,
        mean_depth_hz=datafiles.depth_hz_from_mk(args.depth_mk),
        temperature_k=args.temp_uk * 1e-6,
        detuning_hz=getattr(args, "detuning_hz", 0.0),
    )


def _check_grid(points, what):
    """Raise invalid-argument unless 1 <= points <= MAX_GRID_POINTS, NaN
    and inf included; every grid command calls it before any work."""
    if not 1 <= points <= MAX_GRID_POINTS:
        raise InvalidArgumentError(
            f"{what} must be between 1 and {MAX_GRID_POINTS}, got {points}")


def _emit(args, pairs, table=None, plot=None):
    """The one output path: the ``plot`` (series, x_label, y_label) if
    ``--plot`` is set, then the ``table`` (header, rows) if ``--out`` is set,
    then the key-value document. An artifact that cannot be written raises
    before stdout is touched, so a failed call prints nothing there."""
    if plot is not None and args.plot:
        svg.line_plot(args.plot, *plot)
    if table is not None and args.out:
        datafiles.write_table(args.out, *table)
    datafiles.write_keyvalue(sys.stdout, pairs, args.precision)
    return 0


def _cmd_magic(args):
    coeffs = datafiles.read_coefficients(args.coeffs)
    u_magic = magic_depth(coeffs, args.b_field)
    pairs = [
        ("b_field_gauss", args.b_field),
        ("u_m_hz", u_magic),
        ("depth_mk", datafiles.mk_from_depth_hz(u_magic)),
        ("dls_min_hz", dls_minimum(coeffs, args.b_field)),
    ]
    if coeffs.beta2 != 0:
        pairs.append(("zero_crossing_gauss", zero_crossing_field(coeffs)))
    return _emit(args, pairs)


def _cmd_dls_curve(args):
    _check_grid(args.points, "--points")
    coeffs = datafiles.read_coefficients(args.coeffs)
    # both terms of the shift grow in size with |depth|, which is largest at
    # a bound, so finite shifts at both bounds keep the whole grid finite
    for bound in (args.depth_mk_min, args.depth_mk_max):
        if not math.isfinite(dls(coeffs, args.b_field,
                                 datafiles.depth_hz_from_mk(bound))):
            raise InvalidArgumentError(
                f"shift at depth {bound} mK is past float range")
    depths_mk = np.linspace(args.depth_mk_min, args.depth_mk_max, args.points)
    shifts = [dls(coeffs, args.b_field, datafiles.depth_hz_from_mk(d))
              for d in depths_mk]
    return _emit(args, [
        ("b_field_gauss", args.b_field),
        ("points", args.points),
        ("depth_mk_min", args.depth_mk_min),
        ("depth_mk_max", args.depth_mk_max),
        ("dls_min_hz", dls_minimum(coeffs, args.b_field)),
        ("magic_depth_mk",
         datafiles.mk_from_depth_hz(magic_depth(coeffs, args.b_field))),
    ], table=(("depth_mk", "dls_hz"),
              zip([float(d) for d in depths_mk], [float(s) for s in shifts])),
       plot=([(f"B = {args.b_field:g} G", depths_mk, shifts)],
             "trap depth (mK)", "differential light shift (Hz)"))


def _cmd_beff(args):
    depth = datafiles.depth_hz_from_mk(args.depth_mk)
    return _emit(args, [
        ("vector_to_scalar_ratio", args.ratio),
        ("depth_mk", args.depth_mk),
        ("b_eff_gauss", effective_field(args.ratio, depth)),
    ])


def _fit_pairs(result):
    """Each parameter with its stderr, then chi^2, dof and the covariance."""
    pairs = []
    for name in result.names:
        pairs.append((name, result.parameters[name]))
        pairs.append((f"{name}_stderr", result.stderr(name)))
    pairs += [("chi_square", result.chi_square), ("dof", result.dof)]
    for i, row_name in enumerate(result.names):
        for j, col_name in enumerate(result.names):
            pairs.append((f"cov_{row_name}_{col_name}",
                          float(result.covariance[i, j])))
    return pairs


def _cmd_fit_dls(args):
    datasets = datafiles.read_dls_csv(args.input)
    result = fit_dls_global(datasets, beta1_fixed=args.beta1,
                            free_beta1=args.free_beta1)
    pairs = [("n_datasets", len(datasets)),
             ("n_points", sum(len(ds.points) for ds in datasets)),
             ("beta1_fixed", args.beta1 if not args.free_beta1 else "free")]
    pairs += _fit_pairs(result)
    beta1 = (result.parameters.get("beta1", args.beta1))
    for ds in datasets:
        # raises invalid-argument for a fitted beta4 <= 0, before the
        # coefficients below could reject it
        sigma = magic_depth_sigma(result, beta1, ds.b_field_gauss)
        fitted = TrapCoefficients(beta1, result.parameters["beta2"],
                                  result.parameters["beta4"])
        pairs.append((f"u_m_hz_at_{ds.b_field_gauss:g}G",
                      magic_depth(fitted, ds.b_field_gauss)))
        pairs.append((f"u_m_sigma_hz_at_{ds.b_field_gauss:g}G", sigma))
    return _emit(args, pairs)


def _trace_command(args, kind):
    _check_grid(args.points, "--points")
    coeffs = datafiles.read_coefficients(args.coeffs)
    config = _config_from_args(args, coeffs)
    times = np.linspace(0.0, args.t_max, args.points)
    if kind == "population":
        values = ramsey_trace(config, times).population
    else:
        values = visibility_curve(config, times).visibility
    return _emit(args, [
        ("b_field_gauss", args.b_field),
        ("depth_mk", args.depth_mk),
        ("temp_uk", args.temp_uk),
        ("detuning_hz", getattr(args, "detuning_hz", 0.0)),
        ("truncation_mass", truncation_mass(config.ensemble)),
        ("t_max_s", args.t_max),
        ("points", args.points),
        (f"{kind}_final", values[-1]),
    ], table=(("t_s", kind), zip((float(t) for t in times), values)),
       plot=([(kind, list(times), list(values))], "time (s)", kind))


def _cmd_t2star(args):
    coeffs = datafiles.read_coefficients(args.coeffs)
    config = _config_from_args(args, coeffs)
    value = t2_star(config)
    return _emit(args, [
        ("b_field_gauss", args.b_field),
        ("depth_mk", args.depth_mk),
        ("temp_uk", args.temp_uk),
        ("t2_star_s", value),
    ])


def _cmd_coherence_curve(args):
    lo, hi, step = args.ratio_min, args.ratio_max, args.ratio_step
    if not (math.isfinite(lo) and math.isfinite(hi) and 0 < step < math.inf
            and lo <= hi):
        raise InvalidArgumentError("ratio grid must be finite, with positive "
                                   "step and ratio-max >= ratio-min")
    # capped before rounding: the span can overflow to inf
    n_steps = round(min((hi - lo) / step, MAX_GRID_POINTS))
    _check_grid(n_steps + 1, "ratio count")
    coeffs = datafiles.read_coefficients(args.coeffs)
    u_magic = magic_depth(coeffs, args.b_field)
    base = TrapFieldConfig(coeffs=coeffs, b_field_gauss=args.b_field,
                           mean_depth_hz=u_magic,
                           temperature_k=args.temp_uk * 1e-6)
    ratios = [lo + k * step for k in range(n_steps + 1)]
    curve = coherence_vs_depth(base, ratios, args.t1, args.t2prime)
    peak_ratio, peak_tau = max(curve, key=lambda item: item[1])
    return _emit(args, [
        ("b_field_gauss", args.b_field),
        ("temp_uk", args.temp_uk),
        ("t1_s", args.t1),
        ("t2prime_s", args.t2prime),
        ("magic_depth_mk", datafiles.mk_from_depth_hz(u_magic)),
        ("peak_ratio", peak_ratio),
        ("peak_tau_s", peak_tau),
    ], table=(("ratio", "tau_s"), curve),
       plot=([("tau", [r for r, _ in curve], [t for _, t in curve])],
             "depth ratio U_a/U_M", "coherence time (s)"))


def _cmd_fit_ramsey(args):
    samples = datafiles.read_ramsey_csv(args.input)
    result = fit_damped_sinusoid(samples)
    t_data = [row[0] for row in samples]
    p_data = [row[1] for row in samples]
    grid = np.linspace(min(t_data), max(t_data), 400)
    model, _ = fitting._damped_sinusoid(tuple(result.parameters.values()), grid, 0.0, 1.0)
    return _emit(args, _fit_pairs(result),
                 plot=([("data", t_data, p_data), ("fit", list(grid), list(model))],
                       "time (s)", "population"))


def _cmd_transfer(args):
    coeffs = datafiles.read_coefficients(args.coeffs)
    timeline = datafiles.read_timeline(args.timeline, coeffs)
    report = coherence_budget(
        timeline, post_transfer_temperature_k=args.post_temp_uk * 1e-6,
        t2star_static_s=args.t2star_static, t2star_mobile_s=args.t2star_mobile)
    pairs = [
        ("valid", True),
        ("segments", len(report.per_segment)),
        ("retained_coherence", report.retained_coherence),
        ("t2star_static_s", report.t2star_static_s),
        ("t2star_mobile_s", report.t2star_mobile_s),
        ("tau_static_s", report.tau_static_s),
        ("tau_mobile_s", report.tau_mobile_s),
        ("fractional_tau_loss", report.fractional_tau_loss),
    ]
    for i, note in enumerate(report.notes):
        pairs.append((f"note_{i}", note))
    return _emit(args, pairs, table=datafiles.budget_table(report))


def _cmd_convert(args):
    pairs = []
    if args.kelvin is not None:
        pairs += [("kelvin", args.kelvin), ("hz", hz_from_kelvin(args.kelvin))]
    if args.hz is not None:
        pairs += [("hz", args.hz), ("kelvin", kelvin_from_hz(args.hz))]
    if args.mk is not None:
        pairs += [("depth_mk", args.mk),
                  ("depth_hz_signed", datafiles.depth_hz_from_mk(args.mk))]
    if not pairs:
        raise InvalidArgumentError("convert needs one of --kelvin, --hz, --mk")
    return _emit(args, pairs)


def _cmd_selftest(args):
    results = acceptance.run_all(sys.stdout)
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return 1 if failed else 0


def _print_constants(stream):
    datafiles.write_keyvalue(stream, [
        ("planck_h_j_s", CONSTANTS.planck_h),
        ("boltzmann_kb_j_per_k", CONSTANTS.boltzmann_kb),
        ("bohr_magneton_over_h_hz_per_gauss", CONSTANTS.bohr_magneton_over_h),
        ("rb87_hyperfine_nu0_hz", CONSTANTS.rb87_hyperfine_nu0),
    ], precision=12)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magictrap",
        description="Magic-intensity trap model: shifts, dephasing, fits, "
                    "and transfer budgets for trapped clock qubits.")
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    parser.add_argument("--constants", action="store_true",
                        help="print the pinned physical constants and exit")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=9,
                        help="significant digits in stdout values, 1 to "
                             f"{MAX_PRECISION} (default 9)")
    coeffs_arg = argparse.ArgumentParser(add_help=False)
    coeffs_arg.add_argument("--coeffs", required=True, metavar="FILE",
                            help="flat key-value coefficients file")
    field_args = argparse.ArgumentParser(add_help=False)
    field_args.add_argument("--b-field", type=float, required=True,
                            help="bias field (gauss)")
    field_args.add_argument("--depth-mk", type=float, required=True,
                            help="trap depth, positive mK")
    field_args.add_argument("--temp-uk", type=float, required=True,
                            help="atom temperature (uK)")
    out_arg = argparse.ArgumentParser(add_help=False)
    out_arg.add_argument("--out", metavar="FILE.csv", help="write a CSV table")
    plot_arg = argparse.ArgumentParser(add_help=False)
    plot_arg.add_argument("--plot", metavar="FILE.svg", help="write an SVG plot")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("magic", parents=[common, coeffs_arg],
                       help="magic depth and shift minimum at a bias field")
    p.add_argument("--b-field", type=float, required=True)
    p.set_defaults(handler=_cmd_magic)

    p = sub.add_parser("dls-curve", parents=[common, coeffs_arg, out_arg, plot_arg],
                       help="shift versus depth at one bias field")
    p.add_argument("--b-field", type=float, required=True)
    p.add_argument("--depth-mk-min", type=float, default=0.0)
    p.add_argument("--depth-mk-max", type=float, default=0.6)
    p.add_argument("--points", type=int, default=121)
    p.set_defaults(handler=_cmd_dls_curve)

    p = sub.add_parser("beff", parents=[common],
                       help="vector-shift effective field at a depth")
    p.add_argument("--ratio", type=float, default=acceptance.VECTOR_TO_SCALAR_RATIO,
                   help="vector-to-scalar polarizability ratio")
    p.add_argument("--depth-mk", type=float, required=True)
    p.set_defaults(handler=_cmd_beff)

    p = sub.add_parser("fit-dls", parents=[common],
                       help="global shift fit across bias fields")
    p.add_argument("--input", required=True, metavar="FILE.csv")
    p.add_argument("--beta1", type=float, required=True,
                   help="fixed linear coefficient")
    p.add_argument("--free-beta1", action="store_true",
                   help="fit beta1 as well (sensitivity mode)")
    p.set_defaults(handler=_cmd_fit_dls)

    p = sub.add_parser("ramsey", parents=[common, coeffs_arg, field_args,
                                          out_arg, plot_arg],
                       help="thermally averaged Ramsey trace")
    p.add_argument("--detuning-hz", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.4)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(handler=lambda a: _trace_command(a, "population"))

    p = sub.add_parser("visibility", parents=[common, coeffs_arg, field_args,
                                              out_arg, plot_arg],
                       help="Ramsey fringe envelope")
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(handler=lambda a: _trace_command(a, "visibility"))

    p = sub.add_parser("t2star", parents=[common, coeffs_arg, field_args],
                       help="1/e decay time of the envelope")
    p.set_defaults(handler=_cmd_t2star)

    p = sub.add_parser("coherence-curve", parents=[common, coeffs_arg,
                                                   out_arg, plot_arg],
                       help="coherence time versus depth ratio")
    p.add_argument("--b-field", type=float, required=True)
    p.add_argument("--temp-uk", type=float, required=True)
    p.add_argument("--t1", type=float, required=True, help="T1 (s)")
    p.add_argument("--t2prime", type=float, required=True,
                   help="homogeneous dephasing time (s)")
    p.add_argument("--ratio-min", type=float, default=0.5)
    p.add_argument("--ratio-max", type=float, default=1.5)
    p.add_argument("--ratio-step", type=float, default=0.05)
    p.set_defaults(handler=_cmd_coherence_curve)

    p = sub.add_parser("fit-ramsey", parents=[common, plot_arg],
                       help="damped-sinusoid fit of a Ramsey trace")
    p.add_argument("--input", required=True, metavar="FILE.csv")
    p.set_defaults(handler=_cmd_fit_ramsey)

    p = sub.add_parser("transfer", parents=[common, coeffs_arg, out_arg],
                       help="validate a transfer timeline and budget it")
    p.add_argument("--timeline", required=True, metavar="FILE.json")
    p.add_argument("--post-temp-uk", type=float, required=True,
                   help="register temperature after the transfer (uK)")
    p.add_argument("--t2star-static", type=float, default=None,
                   help="measured pre-transfer T2* (s), supersedes the model")
    p.add_argument("--t2star-mobile", type=float, default=None,
                   help="measured post-transfer T2* (s), supersedes the model")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("convert", parents=[common],
                       help="kelvin/hertz and depth conversions")
    p.add_argument("--kelvin", type=float)
    p.add_argument("--hz", type=float)
    p.add_argument("--mk", type=float)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the acceptance checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        sys.stdout.write(f"magictrap {__version__}\n")
    if args.constants:
        _print_constants(sys.stdout)
    if args.version or args.constants:
        return 0
    if args.command is None:
        parser.error("a subcommand is required (see --help)")
    try:
        if not 1 <= args.precision <= MAX_PRECISION:
            raise InvalidArgumentError(
                f"--precision must be between 1 and {MAX_PRECISION}, "
                f"got {args.precision}")
        return args.handler(args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file-not-found: {exc.filename}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: io-error: {exc}\n")
        return 1
    except MagicTrapError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        for key, value in exc.diagnostics.items():
            sys.stderr.write(f"{key} = {value}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
