#!/usr/bin/env python3
"""magictrap benchmark.

    python3 bench/run.py --workload {quadrature,analysis} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. One process and one closed-loop client:
the next op starts when the previous one has returned. The package runs
with its defaults (``MAGICTRAP_THREADS`` is removed from the environment).

``--trace 0`` times the named workload for S seconds and prints the
end-to-end metrics. ``--trace 1`` is the separate traced run: it profiles
the package import, then alternates untraced and traced passes over a
fixed op set drawn from both workloads and the README's CLI calls, and
prints the per-layer metrics (see README.md). Outputs are checked against
``reference.json`` either way.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Earlier lines describe the run;
the same record, with machine and library versions, is written to
``bench/out/``.
"""
import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 7        # fresh interpreters timed for setup_s (median)
IMPORT_REPEATS = 3       # fresh -X importtime interpreters in the traced run
TRACED_OPS = {"cli": 12, "quadrature": 18, "analysis": 6}
# The traced run also probes every 17th point of the probe grid (16 points,
# all four probe times; a stride coprime to the grid's axes).
TRACED_PROBE_STRIDE = 17
P90_MIN_OPS = 100        # op_p90_s needs at least ten samples beyond it
# Each workload repeats a fixed list of this many ops (see repeated_run):
# whole blocks of its kinds and whole shuffles of the grids that set an
# op's cost, so every seed does the same amount of work.
PASS_OPS = {"quadrature": 72, "analysis": 24}


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "MAGICTRAP_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env, cwd):
    """Median wall time to start a fresh interpreter and import the CLI
    module, after one untimed warm-up start."""
    cmd = [sys.executable, "-c", "import magictrap.cli"]
    subprocess.run(cmd, env=env, cwd=cwd, check=True, timeout=120)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=cwd, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def attempt(execute, op):
    """Run one op; return (output, error). An error is the package's
    error code, a cli exit status, or the type of an unexpected exception."""
    from magictrap.errors import MagicTrapError
    from workloads import CliError
    try:
        return execute(op), None
    except (MagicTrapError, CliError) as exc:
        return None, exc.code
    except Exception as exc:  # an uncoded exception is a failed op, not a crash
        return None, f"{type(exc).__name__}: {traceback.format_exc(limit=-1).strip()}"


def evaluate(workload, ops, results):
    """Count failed ops and collect wrong outputs. An op fails if it raised
    or exited non-zero, or if its output is outside its documented range or
    the reference tolerance; only the latter makes the run incorrect."""
    failures = {}
    wrong = []
    failed = []
    for op, (output, error) in zip(ops, results):
        if error is None:
            problem = workload.check(op, output)
            if problem:
                wrong.append(f"{op.kind}: {problem}")
                error = "wrong-output"
        failed.append(error is not None)
        if error is not None:
            key = f"{op.kind}: {error.splitlines()[-1]}"
            failures[key] = failures.get(key, 0) + 1
    return failed, failures, wrong


def repeated_run(workload, n_ops, seconds):
    """Closed loop over a fixed list of ``n_ops`` ops, repeated in passes
    until ``seconds`` have passed. An op's latency is its fastest repeat,
    which keeps slowdowns from other tenants of a shared host out of the
    figures; later repeats must give the first repeat's output."""
    ops = list(itertools.islice(workload.ops(), n_ops))
    samples = [[] for _ in ops]
    results = []
    attempted = mismatches = 0
    start = time.perf_counter()
    while attempted < n_ops or time.perf_counter() - start < seconds:
        i = attempted % n_ops
        t0 = time.perf_counter()
        result = attempt(workload.execute, ops[i])
        samples[i].append(time.perf_counter() - t0)
        if attempted < n_ops:
            results.append(result)
        else:
            mismatches += result != results[i]
        attempted += 1
    return ops, results, samples, mismatches


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # kB on Linux


def _kinds(ops, latencies, results):
    table = {}
    for op, latency, (_, error) in zip(ops, latencies, results):
        entry = table.setdefault(op.kind, {"ops": 0, "raised": 0, "latencies": []})
        entry["ops"] += 1
        entry["raised"] += error is not None
        entry["latencies"].append(latency)
    return {kind: {"ops": e["ops"], "raised": e["raised"],
                   "p50_s": statistics.median(e["latencies"])}
            for kind, e in sorted(table.items())}


def untraced(args, workload, warmup, setup_s):
    for op in itertools.islice(warmup.ops(), len(warmup.kinds)):
        attempt(warmup.execute, op)
    # The probe pass runs each probe once, before the timed loop; each probe
    # is an op, but its latency is not in ops_per_s or op_p50_s.
    probes = workload.probe_ops() if hasattr(workload, "probe_ops") else []
    probe_results, probe_times = [], []
    for op in probes:
        t0 = time.perf_counter()
        probe_results.append(attempt(workload.execute, op))
        probe_times.append(time.perf_counter() - t0)
    ops, results, samples, mismatches = repeated_run(workload, PASS_OPS[workload.name],
                                                     args.seconds)
    latencies = [min(s) for s in samples]
    failed_flags, failures, wrong = evaluate(workload, ops + probes, results + probe_results)
    if mismatches:
        wrong.append(f"{mismatches} repeats gave another output than the first")
    # An op is one distinct input; its repeats are timing samples that must
    # give the first run's output, so each op counts once.
    attempted = len(failed_flags)
    failed = sum(failed_flags)
    calls = [t for s in samples for t in s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    extra = {"failed_frac": (failed / attempted, "frac")}
    if len(calls) >= P90_MIN_OPS:
        extra["op_p90_s"] = (statistics.quantiles(calls, n=10)[-1], "s")
    if probes:
        extra["probe_pass_s"] = (sum(probe_times), "s")
    detail = {"failures": failures, "wrong": wrong[:20], "ops": len(ops),
              "probes": len(probes), "calls": len(calls) + len(probes),
              "kinds": _kinds(ops + probes, latencies + probe_times,
                              results + probe_results)}
    return not wrong, attempted, failed, metrics, extra, detail


def traced(args, ref, workdir, env):
    import tracer as T
    from workloads import STREAMS, make_workload

    imports = T.import_profile(sys.executable, env, workdir, IMPORT_REPEATS)
    suites = []
    for name in STREAMS:
        w = make_workload(name, args.seed, workdir, ref)
        suites.append((name, w, list(itertools.islice(w.ops(), TRACED_OPS[name]))))
        if hasattr(w, "probe_ops"):
            suites.append((f"{name}-probes", w, w.probe_ops(TRACED_PROBE_STRIDE)))

    def run_pass(tracer=None):
        results = []
        start = time.perf_counter()
        for label, w, ops in suites:
            for i, op in enumerate(ops):
                if tracer is None:
                    results.append(attempt(w.execute, op))
                else:
                    results.append(attempt(
                        lambda o: tracer.op(o.kind, f"{label}/{i}", w.execute, o), op))
        return results, time.perf_counter() - start

    reference, _ = run_pass()          # also the warm-up pass
    failures, wrong = {}, []
    offset = 0
    for label, w, ops in suites:
        _, found, bad = evaluate(w, ops, reference[offset:offset + len(ops)])
        offset += len(ops)
        failures.update({f"{label}/{key}": count for key, count in found.items()})
        wrong += [f"{label}/{problem}" for problem in bad]

    plain_s, traced_s, layer_samples = [], [], []
    counts = first_tracer = None
    mismatches = 0
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < args.seconds:
        results, elapsed = run_pass()
        plain_s.append(elapsed)
        mismatches += results != reference
        tracer = T.Tracer()
        tracer.install()
        try:
            results, elapsed = run_pass(tracer)
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        mismatches += results != reference
        layer_samples.append(T.layer_times(tracer.spans))
        if counts is None:
            counts, first_tracer = T.layer_counts(tracer.spans), tracer
    if mismatches:
        wrong.append(f"{mismatches} passes gave outputs that differ from the first pass")

    OUT_DIR.mkdir(exist_ok=True)
    first_tracer.write(OUT_DIR / f"spans-seed{args.seed}.jsonl")
    metrics = {key: (value, "s") for key, value in imports.items()}
    for key in layer_samples[0]:
        metrics[key] = (statistics.median(s[key] for s in layer_samples), "s")
    for key, value in counts.items():
        metrics[key] = (value, "frac" if key.endswith("_frac") else
                        "1/call" if key.endswith((".probes", ".t2_star_calls")) else "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0, "frac")
    n = len(reference)
    failed = sum(failures.values())
    detail = {"failures": failures, "wrong": wrong[:20], "passes": len(traced_s),
              "untraced_pass_s": statistics.median(plain_s),
              "traced_pass_s": statistics.median(traced_s)}
    return not wrong, n, failed, metrics, {}, detail


def metadata(args, threads_inherited):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None          # the benchmark may run from an export without .git
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10,
                                   check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "magictrap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.machine(), "cpu": cpu,
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "magictrap_threads": {"inherited": threads_inherited, "in_run": "unset"},
        "git_commit": commit, "source_sha256": digest.hexdigest(),
    }


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "magictrap" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package sources at {SRC / 'magictrap'}; "
                         "run from the root of a full checkout\n")
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    threads_inherited = os.environ.pop("MAGICTRAP_THREADS", None)
    sys.path.insert(0, str(SRC))
    env = _child_env()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        setup_s = None if args.trace else measure_setup(env, workdir)
        import magictrap.cli  # noqa: F401  (the in-process workloads run warm)
        from oracle import Reference
        from workloads import make_workload
        ref = Reference()
        if args.trace:
            outcome = traced(args, ref, workdir, env)
        else:
            workload = make_workload(args.workload, args.seed, workdir, ref)
            warmup = make_workload(args.workload, args.seed, workdir, ref, stream=1)
            outcome = untraced(args, workload, warmup, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct, attempted, failed, metrics, extra, detail = outcome

    meta = metadata(args, threads_inherited)
    record = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "also": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "detail": detail}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("meta " + json.dumps(meta))
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key} = {value:.6g} {unit}")
    for key, count in sorted(detail["failures"].items()):
        print(f"failed {count}x {key}")
    for problem in detail["wrong"]:
        print(f"wrong: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
