#!/usr/bin/env python3
"""Regenerate reference.json from the independent model in oracle.py.

    python3 bench/make_reference.py            # about five minutes on 2 cores

Every stored value comes from the composite Gauss-Legendre rule in
oracle.py. A handful of them are checked against mpmath at 30 digits before
the file is written; the largest disagreement is stored in ``meta``.
"""
import json
import math
import sys
import time

import mpmath

import oracle as O


def _num(value):
    return "inf" if math.isinf(value) else value


def _phi_mp(mean_depth_hz, temp_k, t_s):
    mpmath.mp.dps = 30
    theta = mpmath.mpf(temp_k) * O.KB_OVER_H
    u0 = mpmath.mpf(mean_depth_hz) - mpmath.mpf(1.5) * theta
    xmax = min(abs(u0) / theta, mpmath.mpf(80))
    pieces = mpmath.linspace(0, xmax, 64)

    def weight(x):
        return x * x * mpmath.exp(-x) / 2

    def shift(x):
        u = u0 + theta * x / 2
        return (O.LINEAR + O.BETA4 * u) * u

    num = mpmath.quad(lambda x: weight(x) * mpmath.expj(2 * mpmath.pi * t_s * shift(x)),
                      pieces)
    den = mpmath.quad(weight, pieces)
    return complex(num / den)


MPMATH_POINTS = (  # (temp_uk, ratio, t_s)
    (2.0, 0.5, 0.3), (8.0, 1.0, 1.0), (17.0, 1.2, 0.2),
    (40.0, 1.5, 2.0), (25.0, 0.7, 0.05), (4.0, 2.0, 0.1),
)


def main():
    start = time.perf_counter()
    doc = {"meta": {}, "t2_star": {}, "t2_star_depth": {}, "phi": {}, "probe": {}}
    for temp in O.TEMPS_UK:
        for ratio in O.T2_RATIOS:
            doc["t2_star"][O.config_key(temp, ratio)] = _num(
                O.first_crossing(ratio * O.U_MAGIC_HZ, temp * 1e-6))
        doc["t2_star_depth"][O.depth_key(O.MOVER_DEPTH_MK, temp)] = _num(
            O.first_crossing(O.depth_hz_from_mk(O.MOVER_DEPTH_MK), temp * 1e-6))
    doc["t2_star_depth"][O.depth_key(O.OVERLAP_DEPTH_MK, O.OVERLAP_TEMP_UK)] = _num(
        O.first_crossing(O.depth_hz_from_mk(O.OVERLAP_DEPTH_MK),
                         O.OVERLAP_TEMP_UK * 1e-6))
    print(f"t2_star done after {time.perf_counter() - start:.0f} s", file=sys.stderr)

    for temp in O.TEMPS_UK:
        for ratio in O.TRACE_RATIOS:
            depth = ratio * O.U_MAGIC_HZ
            entry = {}
            for name, times, idx in (("trace", O.TRACE_TIMES_S, O.TRACE_CHECK),
                                     ("vis", O.VIS_TIMES_S, O.VIS_CHECK)):
                phis = [O.char_fn(depth, temp * 1e-6, float(times[i])) for i in idx]
                entry[name] = [[p.real, p.imag] for p in phis]
            doc["phi"][O.config_key(temp, ratio)] = entry
    print(f"phi done after {time.perf_counter() - start:.0f} s", file=sys.stderr)

    for temp in O.TEMPS_UK:
        for ratio in O.PROBE_RATIOS:
            for t_s in O.PROBE_TIMES_S:
                phi = O.char_fn(ratio * O.U_MAGIC_HZ, temp * 1e-6, t_s)
                doc["probe"][O.probe_key(temp, ratio, t_s)] = abs(phi)
    print(f"probes done after {time.perf_counter() - start:.0f} s", file=sys.stderr)

    worst = 0.0
    for temp, ratio, t_s in MPMATH_POINTS:
        depth = ratio * O.U_MAGIC_HZ
        worst = max(worst, abs(O.char_fn(depth, temp * 1e-6, t_s)
                               - _phi_mp(depth, temp * 1e-6, t_s)))
    if worst > 1e-11:
        raise SystemExit(f"reference rule disagrees with mpmath by {worst:.3g}")
    doc["meta"] = {
        "method": "composite 16-point Gauss-Legendre, panels doubled to 1e-13",
        "mpmath_points": [list(p) for p in MPMATH_POINTS],
        "mpmath_max_abs_diff": worst,
        "tolerances": {"value_atol": O.VALUE_ATOL, "t2_rtol": O.T2_RTOL,
                       "stdout_rtol": O.STDOUT_RTOL, "fit_sigmas": O.FIT_SIGMAS,
                       "mc_sigmas": O.MC_SIGMAS},
    }
    with open(O.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {O.REFERENCE_PATH.name} after {time.perf_counter() - start:.0f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
