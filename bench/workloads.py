"""The benchmark workloads, and the cli op set of the traced run: seeded op
streams, how each op runs, and how its output is checked.

An op is one unit of work. Every workload draws its parameters from a
seeded ``numpy`` generator; grid parameters (temperature, depth ratio,
probe time, op kind) are dealt from successive seeded shuffles of their
grids, so every run covers the domain evenly while each seed gives other
inputs in another order. Op inputs are made before an op's clock starts,
and outputs are checked after the timed loop.

Library calls go through module attributes (``magictrap.ramsey.t2_star``,
not a name imported here), so the traced run sees them.
"""
import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

import oracle as O

WORKLOADS = ("quadrature", "analysis")
# the traced run also runs the cli op set, in-process
STREAMS = ("cli",) + WORKLOADS

CLI_KINDS = ("version", "magic", "dls-curve", "beff", "convert", "t2star",
             "ramsey", "visibility", "coherence-curve", "fit-dls",
             "fit-ramsey", "transfer")
# Per block of 9 quadrature ops: 5 traces, 1 envelope, 1 root solve,
# 1 coherence curve and 1 budget. Root solves are the fastest kind,
# envelopes and coherence curves the slowest, and a budget's latency moves
# with its timeline's temperatures; so the median op is a trace, and not in
# a gap between kinds. Long-time visibility probes are not in the stream:
# they are the probe pass (QuadratureWorkload.probe_ops).
QUADRATURE_KINDS = (("ramsey_trace",) * 5
                    + ("visibility_curve", "t2_star", "coherence_vs_depth", "coherence_budget"))
ANALYSIS_KINDS = ("fit_damped_sinusoid", "fit_dls_or_envelope", "thermal_sample")

CVD_RATIOS = tuple(0.5 + 0.05 * k for k in range(21))
SINE_POINTS = (100, 400, 700, 1000)
TRACE_OP_RATIOS = (0.5, 0.8, 1.2, 1.5)
PROBE_OP_RATIOS = (0.3, 0.5, 0.7, 0.9, 1.1, 1.4, 1.7, 2.0)
DLS_FIELDS = (2.8, 3.0, 3.115, 3.3)
DLS_DEPTHS_MK = tuple(0.025 * k for k in range(1, 9))
SAMPLE_DRAWS = 100_000
MU_B_OVER_H = 1.399624604e6   # Hz/G, the package's pinned value (--constants)
BEFF_RATIO = 0.2518           # the beff subcommand's default
T1_S, T2PRIME_S = 4.0, 0.3    # the README's transfer timeline
POOL_SIZE = 8                 # input files per file-reading cli subcommand


@dataclass
class Op:
    kind: str
    params: dict = field(default_factory=dict)


class Cycler:
    """Deals values from successive seeded shuffles of a grid."""

    def __init__(self, rng, values):
        self._rng = rng
        self._values = list(values)
        self._queue = []

    def __call__(self):
        if not self._queue:
            self._queue = [self._values[i]
                           for i in self._rng.permutation(len(self._values))]
        return self._queue.pop()


class _Modules:
    """``_mt().ramsey`` is the module ``magictrap.ramsey``. (The package
    attribute ``magictrap.dls`` is the function, not the module.)"""

    def __getattr__(self, name):
        return sys.modules["magictrap." + name]


def _mt():
    import magictrap.cli  # noqa: F401  (loads every module of the package)
    return _Modules()


def config(temp_uk, ratio, detuning_hz=0.0):
    mt = _mt()
    return mt.ramsey.TrapFieldConfig(
        coeffs=mt.dls.TrapCoefficients(O.BETA1, O.BETA2, O.BETA4),
        b_field_gauss=O.B_FIELD, mean_depth_hz=ratio * O.U_MAGIC_HZ,
        temperature_k=temp_uk * 1e-6, detuning_hz=detuning_hz)


def depth_config(depth_mk, temp_uk):
    mt = _mt()
    return mt.ramsey.TrapFieldConfig(
        coeffs=mt.dls.TrapCoefficients(O.BETA1, O.BETA2, O.BETA4),
        b_field_gauss=O.B_FIELD, mean_depth_hz=O.depth_hz_from_mk(depth_mk),
        temperature_k=temp_uk * 1e-6)


# ---------------------------------------------------------------- checks

def _close(value, ref, rtol, atol=0.0):
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rtol * abs(ref) + atol


def _in_unit(values):
    return all(0.0 <= v <= 1.0 for v in values)


def _check_values(name, values, refs, atol):
    worst = max(abs(v - r) for v, r in zip(values, refs))
    if worst > atol:
        return f"{name} off the reference by {worst:.3g} (tolerance {atol:g})"
    return None


def _check_t2(name, value, ref):
    if not _close(value, ref, O.T2_RTOL):
        return f"{name} = {value!r}, reference {ref!r} (rtol {O.T2_RTOL:g})"
    return None


def _check_fit(params, stderr, truth):
    for name, true_value in truth.items():
        diff = params[name] - true_value
        if name == "phi":
            diff = math.remainder(diff, 2 * math.pi)
        if not (stderr[name] > 0 and abs(diff) <= O.FIT_SIGMAS * stderr[name]):
            return (f"fitted {name} = {params[name]:.6g} is {abs(diff):.3g} from "
                    f"the truth {true_value:.6g} (stderr {stderr[name]:.3g})")
    return None


def _budget_reference(params):
    """Per-segment model T2*, both endpoint T2*, retained coherence and
    fractional tau loss of a reference-style timeline, from the table."""
    ref = params["ref"]
    t_move = ref.t2_star_depth(O.MOVER_DEPTH_MK, params["temp_move_uk"])
    model = [ref.t2_star_depth(O.OVERLAP_DEPTH_MK, O.OVERLAP_TEMP_UK), t_move, t_move,
             ref.t2_star(params["temp_static_uk"], 1.0)]
    used = [params["overlap_t2_s"], t_move, t_move, model[3]]
    durations = params["durations_s"]
    exponent = sum(d / t for d, t in zip(durations, used) if d > 0)
    static = params.get("t2star_static_s") or ref.t2_star(params["temp_static_uk"], 1.0)
    mobile = params.get("t2star_mobile_s") or ref.t2_star(params["temp_post_uk"], 1.0)
    loss = 1.0 - O.combine(T1_S, T2PRIME_S, mobile) / O.combine(T1_S, T2PRIME_S, static)
    return model, exponent, static, mobile, loss


def _check_budget(params, t2_model, retained, static, mobile, loss, endpoint_rtol):
    model_ref, exponent, static_ref, mobile_ref, loss_ref = _budget_reference(params)
    for i, (value, ref) in enumerate(zip(t2_model, model_ref)):
        bad = _check_t2(f"segment {i} model T2*", value, ref)
        if bad:
            return bad
    if not _close(-math.log(retained), exponent, O.T2_RTOL, 1e-12):
        return f"retained coherence {retained!r}, reference {math.exp(-exponent)!r}"
    for name, value, ref in (("T2* static", static, static_ref),
                             ("T2* mobile", mobile, mobile_ref)):
        if not _close(value, ref, endpoint_rtol):
            return f"{name} = {value!r}, reference {ref!r}"
    if abs(loss - loss_ref) > 2 * endpoint_rtol:
        return f"fractional tau loss {loss!r}, reference {loss_ref!r}"
    return None


# ------------------------------------------------------- input generators

def _sinusoid_input(rng, n):
    truth = {"v0": rng.uniform(0.7, 1.0), "tau": rng.uniform(0.1, 0.4),
             "delta": rng.uniform(20.0, 80.0), "phi": rng.uniform(-math.pi, math.pi),
             "offset": rng.uniform(0.45, 0.55)}
    t = np.linspace(0.0, 0.4, n)
    clean = truth["offset"] + 0.5 * truth["v0"] * np.exp(-t / truth["tau"]) * np.cos(
        2 * math.pi * truth["delta"] * t + truth["phi"])
    p = clean + rng.normal(0.0, 0.05, n)
    return [(float(a), float(b), 0.05) for a, b in zip(t, p)], truth


def _dls_input(rng):
    truth = {"beta2": rng.uniform(-1.05e-4, -0.93e-4),
             "beta4": rng.uniform(4.2e-12, 5.0e-12)}
    sigma = rng.uniform(0.5, 5.0)
    rows = []
    for b_field in DLS_FIELDS:
        for depth_mk in DLS_DEPTHS_MK:
            u = O.depth_hz_from_mk(depth_mk)
            shift = (O.BETA1 + truth["beta2"] * b_field) * u + truth["beta4"] * u * u
            rows.append((b_field, depth_mk, shift + rng.normal(0.0, sigma), sigma))
    return rows, truth


def _envelope_input(rng):
    tau = rng.uniform(0.05, 5.0)
    n = int(rng.integers(10, 61))
    t = np.linspace(0.02 * tau, 3.0 * tau, n)
    v = np.exp(-t / tau) * np.exp(rng.normal(0.0, 0.02, n))
    v = np.minimum(v, 1.0)
    return [(float(a), float(b), 0.02 * float(b)) for a, b in zip(t, v)], {"tau": tau}


def _timeline_params(rng, static_temps, move_temps):
    temp_static = static_temps()
    return {"temp_static_uk": temp_static, "temp_move_uk": move_temps(),
            "temp_post_uk": float(rng.choice([t for t in O.TEMPS_UK if t >= temp_static])),
            "durations_s": [1e-4, float(rng.uniform(1e-3, 4e-3)), 1e-4, 0.0],
            "overlap_t2_s": 0.025}


def _fit_output(result):
    return {"params": dict(result.parameters),
            "stderr": {name: result.stderr(name) for name in result.names},
            "chi_square": result.chi_square}


# ------------------------------------------------------------- workloads

class Workload:
    """A seeded op stream plus how to run and check each op."""

    kinds = ()

    def __init__(self, seed, workdir, ref, stream=0):
        self.seed = seed
        self.workdir = workdir
        self.ref = ref
        # stream 1 is the warm-up stream, independent of the measured one
        self.rng = np.random.default_rng([seed, STREAMS.index(self.name), stream])

    def ops(self):
        """Endless op stream; equal for equal seeds."""
        kinds = Cycler(self.rng, self.kinds)
        while True:
            yield self.make(kinds())

    def make(self, kind):
        raise NotImplementedError

    def execute(self, op):
        raise NotImplementedError

    def check(self, op, output):
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError


class QuadratureWorkload(Workload):
    """Everything that goes through the thermal-average quadrature: warm
    201-point Ramsey traces and 101-point envelopes, T2* root solves,
    coherence curves, transfer budgets and long-time envelope probes."""

    name = "quadrature"
    kinds = QUADRATURE_KINDS

    def __init__(self, seed, workdir, ref, stream=0):
        super().__init__(seed, workdir, ref, stream)
        # an op's cost depends on its temperature (and a trace's on its
        # ratio too): each kind deals its own shuffles of those grids, so a
        # list of whole blocks covers them evenly
        self.temps = {kind: Cycler(self.rng, O.TEMPS_UK) for kind in dict.fromkeys(self.kinds)}
        self.trace_ratios = {kind: Cycler(self.rng, TRACE_OP_RATIOS)
                             for kind in ("ramsey_trace", "visibility_curve")}
        self.move_temps = Cycler(self.rng, O.TEMPS_UK)
        self.t2_ratios = Cycler(self.rng, O.T2_RATIOS)
        self.probe_rng = np.random.default_rng([seed, STREAMS.index(self.name), stream, 1])

    def make(self, kind):
        rng = self.rng
        if kind in self.trace_ratios:
            params = {"temp_uk": self.temps[kind](), "ratio": self.trace_ratios[kind]()}
            if kind == "ramsey_trace":
                params["detuning_hz"] = float(rng.uniform(0.0, 100.0))
            return Op(kind, params)
        if kind == "t2_star":
            return Op(kind, {"temp_uk": self.temps[kind](), "ratio": self.t2_ratios()})
        if kind == "coherence_vs_depth":
            return Op(kind, {"temp_uk": self.temps[kind](), "t1_s": float(rng.uniform(2.0, 8.0)),
                             "t2prime_s": float(rng.uniform(0.1, 1.0))})
        return Op(kind, _timeline_params(rng, self.temps[kind], self.move_temps))

    def probe_ops(self, stride=1):
        """The probe pass: one long-time ``visibility`` probe at every
        ``stride``-th point of temperature x ratio x t in {1, 10, 100,
        1000} s, in a seeded order. Whether a probe converges depends on all
        three, so a fixed set of points is probed and the number that fail
        is the same for every seed."""
        grid = list(itertools.product(O.TEMPS_UK, PROBE_OP_RATIOS, O.PROBE_TIMES_S))[::stride]
        order = self.probe_rng.permutation(len(grid))
        return [Op("visibility_probe", dict(zip(("temp_uk", "ratio", "t_s"), grid[i])))
                for i in order]

    def execute(self, op):
        mt = _mt()
        p = op.params
        if op.kind == "ramsey_trace":
            cfg = config(p["temp_uk"], p["ratio"], p["detuning_hz"])
            return mt.ramsey.ramsey_trace(cfg, O.TRACE_TIMES_S).population
        if op.kind == "visibility_curve":
            cfg = config(p["temp_uk"], p["ratio"])
            return mt.ramsey.visibility_curve(cfg, O.VIS_TIMES_S).visibility
        if op.kind == "t2_star":
            return mt.ramsey.t2_star(config(p["temp_uk"], p["ratio"]))
        if op.kind == "coherence_vs_depth":
            return mt.ramsey.coherence_vs_depth(config(p["temp_uk"], 1.0), CVD_RATIOS,
                                                p["t1_s"], p["t2prime_s"])
        if op.kind == "coherence_budget":
            report = mt.transfer.coherence_budget(
                _timeline(p), post_transfer_temperature_k=p["temp_post_uk"] * 1e-6)
            return {"t2_model": [e.t2_model_s for e in report.per_segment],
                    "retained": report.retained_coherence,
                    "static": report.t2star_static_s, "mobile": report.t2star_mobile_s,
                    "loss": report.fractional_tau_loss}
        return mt.ramsey.visibility(config(p["temp_uk"], p["ratio"]), p["t_s"])

    def check(self, op, output):
        p = op.params
        if op.kind in self.trace_ratios:
            return self._check_curve(op, output)
        if op.kind == "t2_star":
            return _check_t2("T2*", output, self.ref.t2_star(p["temp_uk"], p["ratio"]))
        if op.kind == "coherence_vs_depth":
            for (ratio, tau), want in zip(output, CVD_RATIOS):
                ref = O.combine(p["t1_s"], p["t2prime_s"],
                                self.ref.t2_star(p["temp_uk"], round(want, 2)))
                if ratio != want or not _close(tau, ref, O.T2_RTOL):
                    return f"tau({ratio!r}) = {tau!r}, reference {ref!r}"
            return None if len(output) == len(CVD_RATIOS) else "wrong curve length"
        if op.kind == "coherence_budget":
            return _check_budget(dict(p, ref=self.ref), output["t2_model"],
                                 output["retained"], output["static"], output["mobile"],
                                 output["loss"], O.T2_RTOL)
        if not 0.0 <= output <= 1.0:
            return f"visibility {output!r} outside [0, 1]"
        ref = self.ref.probe(p["temp_uk"], p["ratio"], p["t_s"])
        if ref is not None and abs(output - ref) > O.VALUE_ATOL:
            return f"visibility {output!r}, reference {ref!r}"
        return None

    def _check_curve(self, op, output):
        p = op.params
        if op.kind == "ramsey_trace":
            phi = self.ref.phi(p["temp_uk"], p["ratio"], "trace")
            t = O.TRACE_TIMES_S[list(O.TRACE_CHECK)]
            refs = O.population(phi, p["detuning_hz"], t)
            idx, n = O.TRACE_CHECK, len(O.TRACE_TIMES_S)
        else:
            refs = np.abs(self.ref.phi(p["temp_uk"], p["ratio"], "vis"))
            idx, n = O.VIS_CHECK, len(O.VIS_TIMES_S)
        if len(output) != n or not _in_unit(output):
            return f"{op.kind}: {len(output)} values, or values outside [0, 1]"
        return _check_values(op.kind, [output[i] for i in idx], refs, O.VALUE_ATOL)


def _timeline(p):
    mt = _mt()
    tr = mt.transfer
    overlap = depth_config(O.OVERLAP_DEPTH_MK, O.OVERLAP_TEMP_UK)
    mover = depth_config(O.MOVER_DEPTH_MK, p["temp_move_uk"])
    static = config(p["temp_static_uk"], 1.0)
    d = p["durations_s"]
    return tr.TransferTimeline((
        tr.TransferSegment(tr.Phase.OVERLAP, d[0], overlap, t2_override_s=p["overlap_t2_s"]),
        tr.TransferSegment(tr.Phase.MOVE, d[1], mover),
        tr.TransferSegment(tr.Phase.RETURN, d[2], mover),
        tr.TransferSegment(tr.Phase.HOLD, d[3], static),
    ), t1_s=T1_S, t2prime_s=T2PRIME_S)


class AnalysisWorkload(Workload):
    """Fits and thermal sampling: no quadrature on this path."""

    name = "analysis"
    kinds = ANALYSIS_KINDS

    def __init__(self, seed, workdir, ref, stream=0):
        super().__init__(seed, workdir, ref, stream)
        self.temps = Cycler(self.rng, O.TEMPS_UK)
        self.ratios = Cycler(self.rng, O.TRACE_RATIOS)
        self.check_points = Cycler(self.rng, range(len(O.TRACE_CHECK)))
        self.second = Cycler(self.rng, ("fit_dls_global", "fit_envelope"))
        # a fit's cost grows with its length: deal lengths from a grid
        self.fit_points = Cycler(self.rng, SINE_POINTS)

    def make(self, kind):
        if kind == "fit_damped_sinusoid":
            samples, truth = _sinusoid_input(self.rng, self.fit_points())
            return Op(kind, {"samples": samples, "truth": truth})
        if kind == "fit_dls_or_envelope":
            kind = self.second()
            if kind == "fit_dls_global":
                rows, truth = _dls_input(self.rng)
                return Op(kind, {"rows": rows, "truth": truth})
            samples, truth = _envelope_input(self.rng)
            return Op(kind, {"samples": samples, "truth": truth})
        k = self.check_points()
        return Op(kind, {"temp_uk": self.temps(), "ratio": self.ratios(), "check": k,
                         "t_s": float(O.TRACE_TIMES_S[O.TRACE_CHECK[k]]),
                         "detuning_hz": float(self.rng.uniform(0.0, 100.0)),
                         "sample_seed": int(self.rng.integers(0, 2**31))})

    def execute(self, op):
        mt = _mt()
        p = op.params
        if op.kind == "fit_damped_sinusoid":
            return _fit_output(mt.fitting.fit_damped_sinusoid(p["samples"]))
        if op.kind == "fit_envelope":
            return _fit_output(mt.fitting.fit_envelope(p["samples"]))
        if op.kind == "fit_dls_global":
            datasets = []
            for b_field in DLS_FIELDS:
                rows = [r for r in p["rows"] if r[0] == b_field]
                datasets.append(mt.fitting.make_dls_dataset(
                    b_field, [O.depth_hz_from_mk(r[1]) for r in rows],
                    [r[2] for r in rows], [r[3] for r in rows]))
            return _fit_output(mt.fitting.fit_dls_global(datasets, beta1_fixed=O.BETA1))
        cfg = config(p["temp_uk"], p["ratio"], p["detuning_hz"])
        energies = mt.thermal.sample(cfg.ensemble, SAMPLE_DRAWS, p["sample_seed"])
        u = cfg.bottom_depth_hz + 0.5 * energies
        p0 = 0.5 + 0.5 * np.cos(2 * math.pi * (p["detuning_hz"] + O.shift_hz(u)) * p["t_s"])
        return {"mean": float(p0.mean()),
                "stderr": float(p0.std(ddof=1) / math.sqrt(p0.size)),
                "e_min": float(energies.min()), "e_max": float(energies.max()),
                "truncation_hz": cfg.ensemble.truncation_hz}

    def check(self, op, output):
        p = op.params
        if op.kind != "thermal_sample":
            return _check_fit(output["params"], output["stderr"], p["truth"])
        if not 0.0 <= output["e_min"] <= output["e_max"] <= output["truncation_hz"]:
            return "sampled energies outside [0, truncation]"
        phi = self.ref.phi(p["temp_uk"], p["ratio"], "trace")[p["check"]]
        ref = float(O.population(phi, p["detuning_hz"], p["t_s"]))
        if abs(output["mean"] - ref) > O.MC_SIGMAS * output["stderr"] + 1e-12:
            return (f"Monte Carlo population {output['mean']:.6f} +- "
                    f"{output['stderr']:.2g}, reference {ref:.6f}")
        return None


class CliWorkload(Workload):
    """One ``magictrap.cli.main`` call per op, in-process, with README-style
    arguments and input files; the traced run's view of the cli layer."""

    name = "cli"
    kinds = CLI_KINDS

    def __init__(self, seed, workdir, ref, stream=0):
        super().__init__(seed, workdir, ref, stream)
        self.temps = Cycler(self.rng, O.TEMPS_UK)
        self.t2_ratios = Cycler(self.rng, O.T2_RATIOS)
        self.trace_ratios = Cycler(self.rng, O.TRACE_RATIOS)
        self.pool = {name: Cycler(self.rng, range(POOL_SIZE))
                     for name in ("fit-dls", "fit-ramsey", "transfer")}
        self.coeffs_path = os.path.join(workdir, "measured.toml")
        self.inputs = {"fit-dls": [], "fit-ramsey": [], "transfer": []}
        file_rng = np.random.default_rng([seed, 99])
        for i in range(POOL_SIZE):
            rows, truth = _dls_input(file_rng)
            self.inputs["fit-dls"].append(truth)
            _write_csv(self._path(f"shifts{i}.csv"),
                       ("b_field_gauss", "depth_mk", "dls_hz", "sigma_hz"), rows)
            samples, truth = _sinusoid_input(file_rng, len(O.TRACE_TIMES_S))
            self.inputs["fit-ramsey"].append(truth)
            _write_csv(self._path(f"trace{i}.csv"), ("t_s", "p", "sigma"), samples)
            params = _timeline_params(file_rng, Cycler(file_rng, O.TEMPS_UK),
                                      Cycler(file_rng, O.TEMPS_UK))
            self.inputs["transfer"].append(params)
            _write_timeline(self._path(f"timeline{i}.json"), params)
        with open(self.coeffs_path, "w", encoding="utf-8") as fh:
            fh.write(f"beta1 = {O.BETA1!r}\nbeta2_per_gauss = {O.BETA2!r}\n"
                     f"beta4_per_hz = {O.BETA4!r}\npolarization_A = 1.0\n")

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def make(self, kind):
        rng = self.rng
        coeffs = ["--coeffs", self.coeffs_path]
        field_ = ["--b-field", repr(O.B_FIELD)]
        p = {}
        if kind == "version":
            argv = ["--version"]
        elif kind == "magic":
            p["b_field"] = float(f"{rng.uniform(2.8, 3.3):.4f}")
            argv = ["magic", "--b-field", repr(p["b_field"])] + coeffs
        elif kind == "dls-curve":
            p["b_field"] = float(f"{rng.uniform(2.8, 3.3):.4f}")
            argv = ["dls-curve", "--b-field", repr(p["b_field"])] + coeffs + [
                "--out", self._path("dls.csv"), "--plot", self._path("dls.svg")]
        elif kind in ("beff", "convert"):
            p["depth_mk"] = float(f"{rng.uniform(0.05, 0.6):.4f}")
            argv = (["beff", "--depth-mk", repr(p["depth_mk"])] if kind == "beff"
                    else ["convert", "--mk", repr(p["depth_mk"])])
        elif kind in ("t2star", "ramsey", "visibility"):
            p["temp_uk"] = self.temps()
            p["ratio"] = self.t2_ratios() if kind == "t2star" else self.trace_ratios()
            argv = [kind] + coeffs + field_ + [
                "--depth-mk", repr(p["ratio"] * O.U_MAGIC_MK),
                "--temp-uk", repr(p["temp_uk"])]
            if kind == "ramsey":
                p["detuning_hz"] = float(f"{rng.uniform(0.0, 100.0):.3f}")
                argv += ["--detuning-hz", repr(p["detuning_hz"]),
                         "--out", self._path("trace_out.csv")]
            elif kind == "visibility":
                argv += ["--t-max", "2", "--out", self._path("envelope.csv")]
        elif kind == "coherence-curve":
            p.update(temp_uk=self.temps(), t1_s=float(f"{rng.uniform(2.0, 8.0):.3f}"),
                     t2prime_s=float(f"{rng.uniform(0.1, 1.0):.3f}"))
            argv = ["coherence-curve"] + coeffs + field_ + [
                "--temp-uk", repr(p["temp_uk"]), "--t1", repr(p["t1_s"]),
                "--t2prime", repr(p["t2prime_s"]), "--out", self._path("curve.csv"),
                "--plot", self._path("curve.svg")]
        elif kind == "fit-dls":
            p["input"] = self.pool[kind]()
            argv = ["fit-dls", "--input", self._path(f"shifts{p['input']}.csv"),
                    "--beta1", repr(O.BETA1)]
        elif kind == "fit-ramsey":
            p["input"] = self.pool[kind]()
            argv = ["fit-ramsey", "--input", self._path(f"trace{p['input']}.csv"),
                    "--plot", self._path("fit.svg")]
        else:
            p["input"] = self.pool[kind]()
            post = self.inputs[kind][p["input"]]["temp_post_uk"]
            argv = ["transfer"] + coeffs + [
                "--timeline", self._path(f"timeline{p['input']}.json"),
                "--post-temp-uk", repr(post), "--t2star-static", "6.6",
                "--t2star-mobile", "1.9", "--out", self._path("budget.csv")]
        p["argv"] = argv
        return Op(kind, p)

    def _outputs(self, argv):
        files = {}
        for i, arg in enumerate(argv[:-1]):
            if argv[i] in ("--out", "--plot") and os.path.exists(argv[i + 1]):
                with open(argv[i + 1], "r", encoding="utf-8") as fh:
                    files[argv[i][2:]] = fh.read()
                os.remove(argv[i + 1])
        return files

    def execute(self, op):
        mt = _mt()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mt.cli.main(op.params["argv"])
        return _cli_result(code, out.getvalue(), err.getvalue(),
                           self._outputs(op.params["argv"]))

    def check(self, op, output):
        kv = output["stdout_kv"]
        p = op.params
        try:
            return _CLI_CHECKS[op.kind](self, p, kv, output)
        except (KeyError, ValueError, IndexError) as exc:
            return f"{op.kind}: malformed output ({exc!r})"


class CliError(Exception):
    """A cli call that returned non-zero; carries its exit status."""

    def __init__(self, code, stderr):
        super().__init__(stderr.strip().splitlines()[-1] if stderr.strip() else
                         f"exit {code}")
        self.code = "exit-" + str(code)


def _cli_result(code, stdout, stderr, files):
    if code != 0:
        raise CliError(code, stderr)
    kv = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            kv[key] = value
    return {"stdout": stdout, "stdout_kv": kv, "files": files}


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[repr(float(v)) for v in row] for row in rows])


def _write_timeline(path, p):
    depths = (O.OVERLAP_DEPTH_MK, O.MOVER_DEPTH_MK, O.MOVER_DEPTH_MK, O.U_MAGIC_MK)
    temps = (O.OVERLAP_TEMP_UK, p["temp_move_uk"], p["temp_move_uk"], p["temp_static_uk"])
    segments = []
    for phase, duration, depth, temp in zip(("Overlap", "Move", "Return", "Hold"),
                                            p["durations_s"], depths, temps):
        seg = {"phase": phase, "duration_s": duration, "depth_mk": depth,
               "temperature_uk": temp, "b_field_gauss": O.B_FIELD}
        if phase == "Overlap":
            seg["t2_override_s"] = p["overlap_t2_s"]
        segments.append(seg)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"t1_s": T1_S, "t2prime_s": T2PRIME_S, "segments": segments}, fh)


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [[float(c) for c in row] for row in rows[1:] if row]


def _svg_ok(text):
    return "<svg" in text and text.rstrip().endswith("</svg>")


def _stdout_close(kv, key, ref):
    value = float(kv[key])
    if not _close(value, ref, O.STDOUT_RTOL):
        return f"{key} = {kv[key]}, reference {ref!r}"
    return None


def _first(*messages):
    return next((m for m in messages if m), None)


def _cli_version(w, p, kv, out):
    parts = out["stdout"].split()
    ok = len(parts) == 2 and parts[0] == "magictrap" and parts[1][0].isdigit()
    return None if ok else f"unexpected version line {out['stdout']!r}"


def _cli_magic(w, p, kv, out):
    lin = O.BETA1 + O.BETA2 * p["b_field"]
    u_m = -lin / (2 * O.BETA4)
    return _first(_stdout_close(kv, "u_m_hz", u_m),
                  _stdout_close(kv, "depth_mk", abs(u_m) / (O.KB_OVER_H * 1e-3)),
                  _stdout_close(kv, "dls_min_hz", -lin * lin / (4 * O.BETA4)),
                  _stdout_close(kv, "zero_crossing_gauss", -O.BETA1 / O.BETA2))


def _cli_dls_curve(w, p, kv, out):
    lin = O.BETA1 + O.BETA2 * p["b_field"]
    rows = _csv_rows(out["files"]["out"])
    if len(rows) != 121 or not _svg_ok(out["files"]["plot"]):
        return "dls-curve table or plot incomplete"
    refs = [lin * O.depth_hz_from_mk(d) + O.BETA4 * O.depth_hz_from_mk(d) ** 2
            for d, _ in rows]
    scale = max(abs(r) for r in refs)
    worst = max(abs(s - r) for (_, s), r in zip(rows, refs))
    if worst > 1e-10 * scale:
        return f"dls-curve table off by {worst:.3g} Hz"
    return _stdout_close(kv, "dls_min_hz", -lin * lin / (4 * O.BETA4))


def _cli_beff(w, p, kv, out):
    u = abs(O.depth_hz_from_mk(p["depth_mk"]))
    return _stdout_close(kv, "b_eff_gauss", BEFF_RATIO * u / (2 * MU_B_OVER_H))


def _cli_convert(w, p, kv, out):
    return _stdout_close(kv, "depth_hz_signed", O.depth_hz_from_mk(p["depth_mk"]))


def _cli_t2star(w, p, kv, out):
    return _check_t2("t2_star_s", float(kv["t2_star_s"]),
                     w.ref.t2_star(p["temp_uk"], p["ratio"]))


def _cli_trace(w, p, kv, out, grid):
    rows = _csv_rows(out["files"]["out"])
    times, idx = ((O.TRACE_TIMES_S, O.TRACE_CHECK) if grid == "trace"
                  else (O.VIS_TIMES_S, O.VIS_CHECK))
    values = [v for _, v in rows]
    if len(rows) != len(times) or not _in_unit(values):
        return f"{grid} table has {len(rows)} rows or values outside [0, 1]"
    phi = w.ref.phi(p["temp_uk"], p["ratio"], grid)
    if grid == "trace":
        refs = O.population(phi, p["detuning_hz"], times[list(idx)])
        final = "population_final"
    else:
        refs = np.abs(phi)
        final = "visibility_final"
    # the table carries 12 significant digits, stdout 9
    return _first(_check_values(grid, [values[i] for i in idx], refs, O.VALUE_ATOL + 1e-11),
                  _check_values(final, [float(kv[final])], [refs[-1]], O.VALUE_ATOL + 1e-9))


def _cli_coherence(w, p, kv, out):
    rows = _csv_rows(out["files"]["out"])
    if len(rows) != len(CVD_RATIOS) or not _svg_ok(out["files"]["plot"]):
        return "coherence-curve table or plot incomplete"
    refs = []
    for ratio, tau in rows:
        ref = O.combine(p["t1_s"], p["t2prime_s"], w.ref.t2_star(p["temp_uk"], round(ratio, 2)))
        refs.append(ref)
        bad = _check_t2(f"tau({ratio:g})", tau, ref)
        if bad:
            return bad
    return _check_t2("peak_tau_s", float(kv["peak_tau_s"]), max(refs))


def _cli_fit_dls(w, p, kv, out):
    truth = w.inputs["fit-dls"][p["input"]]
    params = {k: float(kv[k]) for k in truth}
    stderr = {k: float(kv[k + "_stderr"]) for k in truth}
    return _check_fit(params, stderr, truth)


def _cli_fit_ramsey(w, p, kv, out):
    truth = w.inputs["fit-ramsey"][p["input"]]
    params = {k: float(kv[k]) for k in truth}
    stderr = {k: float(kv[k + "_stderr"]) for k in truth}
    if not _svg_ok(out["files"]["plot"]):
        return "fit-ramsey plot incomplete"
    return _check_fit(params, stderr, truth)


def _cli_transfer(w, p, kv, out):
    params = dict(w.inputs["transfer"][p["input"]], ref=w.ref,
                  t2star_static_s=6.6, t2star_mobile_s=1.9)
    rows = list(csv.reader(io.StringIO(out["files"]["out"])))[1:]
    t2_model = [float(row[3]) for row in rows if row]
    if len(t2_model) != 4:
        return "transfer table incomplete"
    return _check_budget(params, t2_model, float(kv["retained_coherence"]),
                         float(kv["t2star_static_s"]), float(kv["t2star_mobile_s"]),
                         float(kv["fractional_tau_loss"]), O.STDOUT_RTOL)


_CLI_CHECKS = {
    "version": _cli_version, "magic": _cli_magic, "dls-curve": _cli_dls_curve,
    "beff": _cli_beff, "convert": _cli_convert, "t2star": _cli_t2star,
    "ramsey": lambda w, p, kv, out: _cli_trace(w, p, kv, out, "trace"),
    "visibility": lambda w, p, kv, out: _cli_trace(w, p, kv, out, "vis"),
    "coherence-curve": _cli_coherence, "fit-dls": _cli_fit_dls,
    "fit-ramsey": _cli_fit_ramsey, "transfer": _cli_transfer,
}

WORKLOAD_CLASSES = {"cli": CliWorkload, "quadrature": QuadratureWorkload,
                    "analysis": AnalysisWorkload}


def make_workload(name, seed, workdir, ref, stream=0):
    return WORKLOAD_CLASSES[name](seed, workdir, ref, stream)
