"""Spans around the public functions of the package, for the traced run.

``Tracer.install`` replaces each traced function wherever a module of the
package has bound it (``magictrap.ramsey.integrate`` as well as
``magictrap.quadrature.integrate``), so calls that go through an imported
name are seen too. ``uninstall`` puts the originals back.

A span records its name, start and end, the span that caused it, the op
it belongs to and the thread it ran on. The current span travels in a
``contextvars.ContextVar``; pool worker threads do not inherit it, so the
``ordered_map`` wrapper hands its own span to every task explicitly. Spans
stay in memory until the caller writes them out.
"""
import contextvars
import functools
import importlib
import itertools
import json
import re
import statistics
import subprocess
import sys
import threading
import time

# (module, function, span name); several functions may share one span name
TRACED = (
    ("magictrap.cli", "main", "cli.main"),
    ("magictrap.datafiles", "read_coefficients", "datafiles.read"),
    ("magictrap.datafiles", "read_dls_csv", "datafiles.read"),
    ("magictrap.datafiles", "read_ramsey_csv", "datafiles.read"),
    ("magictrap.datafiles", "read_timeline", "datafiles.read"),
    ("magictrap.datafiles", "write_table", "datafiles.write_table"),
    ("magictrap.svg", "line_plot", "svg.line_plot"),
    ("magictrap.parallel", "ordered_map", "parallel.ordered_map"),
    ("magictrap.quadrature", "integrate", "quadrature.integrate"),
    ("magictrap.ramsey", "visibility", "ramsey.visibility"),
    ("magictrap.ramsey", "ramsey_population", "ramsey.ramsey_population"),
    ("magictrap.ramsey", "t2_star", "ramsey.t2_star"),
    ("magictrap.ramsey", "coherence_vs_depth", "ramsey.coherence_vs_depth"),
    ("magictrap.ramsey", "ramsey_trace", "ramsey.ramsey_trace"),
    ("magictrap.ramsey", "visibility_curve", "ramsey.visibility_curve"),
    ("magictrap.transfer", "coherence_budget", "transfer.coherence_budget"),
    ("magictrap.thermal", "sample", "thermal.sample"),
    ("magictrap.thermal", "truncation_mass", "thermal.truncation_mass"),
    ("magictrap.fitting", "fit_damped_sinusoid", "fitting.fit_damped_sinusoid"),
    ("magictrap.fitting", "least_squares", "fitting.least_squares"),
    ("magictrap.fitting", "fit_dls_global", "fitting.fit_dls_global"),
    ("magictrap.fitting", "fit_envelope", "fitting.fit_envelope"),
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "thread", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.op = op if op is not None else (parent.op if parent is not None else None)
        self.thread = threading.get_ident()
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    def as_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent, "op": self.op,
                "thread": self.thread, "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.current = contextvars.ContextVar("magictrap_bench_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched = []

    def start(self, name, op=None):
        with self._lock:
            span = Span(next(self._ids), name, self.current.get(), op)
            self.spans.append(span)
        return span

    def run(self, span, fn, *args, **kwargs):
        """Call fn with span as the current span, then close the span."""
        token = self.current.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.current.reset(token)
            span.end = time.perf_counter()

    def run_in(self, parent, fn, *args):
        """Call fn on this thread with ``parent`` as the current span."""
        token = self.current.set(parent)
        try:
            return fn(*args)
        finally:
            self.current.reset(token)

    def op(self, kind, op_index, fn, *args):
        """Run one benchmark op as a root span."""
        return self.run(self.start("op." + kind, op=op_index), fn, *args)

    def _wrap(self, original, name):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.start(name)
            if hook is None:
                return tracer.run(span, original, *args, **kwargs)
            return tracer.run(span, hook, tracer, span, original, *args, **kwargs)

        return traced

    def install(self):
        wrappers = {}
        for module_name, attr, span_name in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrappers[id(original)] = (original, self._wrap(original, span_name))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "magictrap"
                                      or module_name.startswith("magictrap.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _integrate_hook(tracer, span, original, f, *args, **kwargs):
    # the integrand runs on the caller's thread, so the count needs no lock
    span.attrs["nodes"] = 0

    def counted(x):
        span.attrs["nodes"] += x.size
        return f(x)

    result = original(counted, *args, **kwargs)
    span.attrs["converged"] = True
    return result


def _ordered_map_hook(tracer, span, original, fn, items):
    def attached(item):
        return tracer.run_in(span, fn, item)

    return original(attached, items)


def _least_squares_hook(tracer, span, original, *args, **kwargs):
    result = original(*args, **kwargs)
    span.attrs["nfev"] = int(result.nfev)
    return result


def _sample_hook(tracer, span, original, *args, **kwargs):
    result = original(*args, **kwargs)
    span.attrs["draws"] = int(result.size)
    return result


_HOOKS = {
    "quadrature.integrate": _integrate_hook,
    "parallel.ordered_map": _ordered_map_hook,
    "fitting.least_squares": _least_squares_hook,
    "thermal.sample": _sample_hook,
}


# ------------------------------------------------------------ aggregation

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


SECONDS_PER_CALL = (
    "cli.main", "datafiles.read", "datafiles.write_table", "svg.line_plot",
    "parallel.ordered_map", "quadrature.integrate", "ramsey.t2_star",
    "ramsey.coherence_vs_depth", "transfer.coherence_budget", "thermal.sample",
    "fitting.fit_damped_sinusoid", "fitting.least_squares", "fitting.fit_dls_global",
    "fitting.fit_envelope",
)


def layer_times(spans):
    """Seconds per call of every layer in SECONDS_PER_CALL, plus the self
    time of fit_damped_sinusoid outside its child spans."""
    by_name = {}
    children = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for name in SECONDS_PER_CALL:
        calls = by_name.get(name, [])
        if not calls:
            raise RuntimeError(f"the traced pass never reached {name}")
        out[name + ".s"] = sum(s.end - s.start for s in calls) / len(calls)
    fits = by_name["fitting.fit_damped_sinusoid"]
    out["fitting.fit_damped_sinusoid.self_s"] = sum(
        (s.end - s.start) - _covered([(c.start, c.end) for c in children.get(s.id, [])])
        for s in fits) / len(fits)
    return out


def layer_counts(spans):
    """Work counts of one traced pass; equal for equal inputs."""
    by_name = {}
    by_id = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        by_id[span.id] = span

    def under(name, parent_name):
        return sum(1 for s in by_name.get(name, [])
                   if s.parent is not None and by_id[s.parent].name == parent_name)

    integrate = by_name.get("quadrature.integrate", [])
    t2 = by_name.get("ramsey.t2_star", [])
    budget = by_name.get("transfer.coherence_budget", [])
    return {
        "parallel.ordered_map.calls": len(by_name.get("parallel.ordered_map", [])),
        "quadrature.integrate.calls": len(integrate),
        "quadrature.integrate.nodes": sum(s.attrs.get("nodes", 0) for s in integrate),
        "quadrature.integrate.converged_frac":
            sum(1 for s in integrate if s.attrs.get("converged")) / max(len(integrate), 1),
        "ramsey.visibility.calls": len(by_name.get("ramsey.visibility", [])),
        "ramsey.ramsey_population.calls": len(by_name.get("ramsey.ramsey_population", [])),
        "ramsey.t2_star.probes": under("ramsey.visibility", "ramsey.t2_star") / max(len(t2), 1),
        "transfer.coherence_budget.t2_star_calls":
            under("ramsey.t2_star", "transfer.coherence_budget") / max(len(budget), 1),
        "thermal.sample.draws": sum(s.attrs.get("draws", 0)
                                    for s in by_name.get("thermal.sample", [])),
        "thermal.truncation_mass.calls": len(by_name.get("thermal.truncation_mass", [])),
        "fitting.least_squares.nfev": sum(s.attrs.get("nfev", 0)
                                          for s in by_name.get("fitting.least_squares", [])),
        "trace.spans": len(spans),
        "trace.orphan_spans": sum(1 for s in spans if s.op is None),
    }


# --------------------------------------------------------------- imports

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")
IMPORT_GROUPS = ("numpy", "scipy.special", "scipy.optimize")


def _import_tree(text):
    """Nodes (name, self_us, cum_us, children) of ``-X importtime`` output.
    A module is printed after its children, which are indented deeper."""
    pending = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(3))
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (m.group(4), int(m.group(1)), int(m.group(2)), children)))
    return [node for _, node in pending]


def _nested_groups_us(children):
    total = 0
    for name, _, cum_us, grandchildren in children:
        total += cum_us if name in IMPORT_GROUPS else _nested_groups_us(grandchildren)
    return total


def parse_importtime(text):
    """Split ``-X importtime`` output into seconds: the package import in
    total, numpy, scipy.special and scipy.optimize (each without the groups
    nested inside it), and the self time of the package's own modules."""
    out = {"import.total_s": 0.0, "import.magictrap_s": 0.0}
    out.update({"import." + g.replace(".", "_") + "_s": 0.0 for g in IMPORT_GROUPS})

    def visit(node):
        name, self_us, cum_us, children = node
        if name == "magictrap" or name.startswith("magictrap."):
            out["import.magictrap_s"] += self_us * 1e-6
        if name in IMPORT_GROUPS:
            key = "import." + name.replace(".", "_") + "_s"
            out[key] += (cum_us - _nested_groups_us(children)) * 1e-6
        for child in children:
            visit(child)

    for root in _import_tree(text):
        if root[0] == "magictrap" or root[0].startswith("magictrap."):
            out["import.total_s"] += root[2] * 1e-6
        visit(root)
    return out


def import_profile(python, env, cwd, repeats):
    """Median of each import figure over ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", "import magictrap.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
