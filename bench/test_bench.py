"""Tests of the benchmark itself: seeded generators, failure accounting,
and that tracing leaves outputs unchanged.

    python3 -m pytest -q bench/test_bench.py
"""
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle as O  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402
from magictrap.errors import NumericalFailureError  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return O.Reference()


def _ops(name, seed, workdir, ref, n):
    w = W.make_workload(name, seed, str(workdir), ref)
    ops = list(itertools.islice(w.ops(), n))
    for op in ops:
        if "argv" in op.params:
            op.params["argv"] = [a.replace(str(workdir), "<work>") for a in op.params["argv"]]
    return w, ops


@pytest.mark.parametrize("name", W.STREAMS)
def test_generators_are_seeded(name, ref, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    w1, first = _ops(name, 7, dirs[0], ref, 32)
    w2, again = _ops(name, 7, dirs[1], ref, 32)
    _, other = _ops(name, 8, dirs[2], ref, 32)
    assert first == again
    assert first != other
    assert {op.kind for op in first} >= set(w1.kinds) - {"fit_dls_or_envelope"}
    if name == "cli":
        assert w1.inputs == w2.inputs
        for path in dirs[0].iterdir():
            assert path.read_bytes() == (dirs[1] / path.name).read_bytes()


def test_raised_error_and_wrong_value_both_fail(ref, tmp_path):
    w = W.make_workload("quadrature", 3, str(tmp_path), ref)
    op = next(o for o in w.ops() if o.kind == "visibility_curve")
    good = run.attempt(w.execute, op)
    assert good[1] is None and w.check(op, good[0]) is None

    def raises(_):
        raise NumericalFailureError("quadrature failed to converge")

    raised = run.attempt(raises, op)
    assert raised == (None, "numerical-failure")
    values = list(good[0])
    values[O.VIS_CHECK[3]] += 10 * O.VALUE_ATOL
    off = (tuple(values), None)

    flags, failures, wrong = run.evaluate(w, [op, op, op], [good, raised, off])
    assert flags == [False, True, True]
    assert failures == {"visibility_curve: numerical-failure": 1,
                        "visibility_curve: wrong-output": 1}
    assert len(wrong) == 1 and "off the reference" in wrong[0]


def test_out_of_range_value_fails(ref, tmp_path):
    w = W.make_workload("quadrature", 3, str(tmp_path), ref)
    op = w.probe_ops()[0]
    flags, _, wrong = run.evaluate(w, [op], [(1.5, None)])
    assert flags == [True] and "outside [0, 1]" in wrong[0]


def test_probe_pass_covers_the_same_points_for_every_seed(ref, tmp_path):
    passes = [W.make_workload("quadrature", seed, str(tmp_path), ref).probe_ops()
              for seed in (7, 7, 8)]
    points = [[tuple(sorted(op.params.items())) for op in ops] for ops in passes]
    assert points[0] == points[1]
    assert points[0] != points[2]
    assert sorted(points[0]) == sorted(points[2])
    assert len(set(points[0])) == len(O.TEMPS_UK) * len(W.PROBE_OP_RATIOS) * len(O.PROBE_TIMES_S)
    strided = W.make_workload("quadrature", 7, str(tmp_path), ref).probe_ops(17)
    assert {op.params["t_s"] for op in strided} == set(O.PROBE_TIMES_S)


def _traced_suite(ref, workdir):
    picks = {"cli": 12, "quadrature": 16, "analysis": 6}
    suite = []
    for name, n in picks.items():
        w = W.make_workload(name, 11, str(workdir), ref)
        suite += [(w.execute, op) for op in itertools.islice(w.ops(), n)]
        if name == "quadrature":
            suite += [(w.execute, op) for op in w.probe_ops(64)]
    return suite


def test_traced_and_untraced_outputs_are_identical(ref, tmp_path):
    import magictrap.quadrature
    import magictrap.ramsey

    suite = _traced_suite(ref, tmp_path)
    plain = [run.attempt(execute, op) for execute, op in suite]
    counts = []
    for _ in range(2):
        tracer = T.Tracer()
        tracer.install()
        try:
            traced = [run.attempt(lambda o, e=execute, i=i: tracer.op(o.kind, i, e, o), op)
                      for i, (execute, op) in enumerate(suite)]
        finally:
            tracer.uninstall()
        assert traced == plain
        counts.append(T.layer_counts(tracer.spans))
        T.layer_times(tracer.spans)        # every layer was reached
    assert counts[0] == counts[1]
    assert counts[0]["trace.orphan_spans"] == 0
    assert counts[0]["quadrature.integrate.nodes"] > 0
    assert counts[0]["ramsey.t2_star.probes"] > 1
    assert magictrap.ramsey.integrate is magictrap.quadrature.integrate


def test_worker_spans_attach_to_their_op(ref, tmp_path):
    w = W.make_workload("quadrature", 5, str(tmp_path), ref)
    op = next(o for o in w.ops() if o.kind == "ramsey_trace")
    tracer = T.Tracer()
    tracer.install()
    try:
        tracer.op(op.kind, 0, w.execute, op)
    finally:
        tracer.uninstall()
    points = [s for s in tracer.spans if s.name == "ramsey.ramsey_population"]
    pool = next(s for s in tracer.spans if s.name == "parallel.ordered_map")
    assert len(points) == len(O.TRACE_TIMES_S)
    assert all(s.parent == pool.id and s.op == 0 for s in points)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 |       numpy.core",
        "import time:       200 |        250 |     numpy",
        "import time:        30 |         30 |         scipy.special",
        "import time:        70 |        100 |       scipy.linalg",
        "import time:        20 |        120 |     scipy.optimize",
        "import time:        10 |        380 |   magictrap.fitting",
        "import time:         5 |        385 | magictrap",
        "import time:         7 |          7 | magictrap.cli",
    ])
    out = T.parse_importtime(text)
    assert out["import.total_s"] == pytest.approx(392e-6)
    assert out["import.numpy_s"] == pytest.approx(250e-6)
    assert out["import.scipy_special_s"] == pytest.approx(30e-6)
    assert out["import.scipy_optimize_s"] == pytest.approx(90e-6)
    assert out["import.magictrap_s"] == pytest.approx(22e-6)
