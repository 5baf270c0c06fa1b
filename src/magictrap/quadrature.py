"""Adaptive Gauss-Kronrod quadrature for smooth, possibly oscillatory
integrands on a finite interval.

The integrand is evaluated vectorized: it receives one flat array of nodes
and returns an array of shape (n_components, n_nodes). All components share
one adaptive partition; refinement continues until every component meets
max(rtol * |integral|, atol). The embedded 7-point Gauss rule supplies the
per-interval error estimate for the 15-point Kronrod value.
"""
import numpy as np

from .errors import NumericalFailureError

# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1],
# positive half; Gauss nodes are the odd-indexed Kronrod abscissae.
_XK_POS = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WK_POS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG_POS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

NODES = np.concatenate([-_XK_POS[:-1], _XK_POS[::-1]])       # 15, ascending
KRONROD_WEIGHTS = np.concatenate([_WK_POS[:-1], _WK_POS[::-1]])
GAUSS_WEIGHTS = np.concatenate([_WG_POS[:-1], _WG_POS[::-1]])  # on NODES[1::2]
INITIAL_INTERVALS = 16  # equal intervals of the starting partition


def integrate(f, a, b, rtol=1e-8, atol=0.0, max_intervals=8192):
    """Integrate a stacked vector integrand over [a, b].

    Returns (values, errors) as 1-D arrays over components. Raises
    NumericalFailureError with diagnostics if the interval budget is
    exhausted before convergence.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise NumericalFailureError("integration limits must be finite")
    if b <= a:
        probe = np.atleast_2d(f(np.array([a])))
        return np.zeros(probe.shape[0], dtype=probe.dtype), np.zeros(probe.shape[0])

    edges = np.linspace(a, b, INITIAL_INTERVALS + 1)
    lo = edges[:-1]
    hi = edges[1:]

    def evaluate(lo_arr, hi_arr):
        mid = 0.5 * (lo_arr + hi_arr)
        half = 0.5 * (hi_arr - lo_arr)
        # nodes: (m, 15) flattened for one vectorized call
        x = (mid[:, None] + half[:, None] * NODES[None, :]).ravel()
        fx = np.atleast_2d(f(x))
        ncomp = fx.shape[0]
        fx = fx.reshape(ncomp, lo_arr.size, NODES.size)
        k15 = (fx * KRONROD_WEIGHTS).sum(axis=2) * half
        g7 = (fx[:, :, 1::2] * GAUSS_WEIGHTS).sum(axis=2) * half
        err = np.abs(k15 - g7)
        return k15, err

    vals, errs = evaluate(lo, hi)
    span = b - a
    for _ in range(200):
        total = vals.sum(axis=1)
        tol = np.maximum(rtol * np.abs(total), atol)
        if np.all(errs.sum(axis=1) <= tol):
            return total, errs.sum(axis=1)
        # split every interval whose worst component exceeds its width-
        # proportional share of the tolerance budget
        width = hi - lo
        share = tol[:, None] * (width / span)[None, :]
        bad = (errs > np.maximum(share, 1e-300)).any(axis=0)
        if not bad.any():
            bad = np.zeros(lo.size, dtype=bool)
            bad[np.argmax(errs.sum(axis=0))] = True
        n_new = lo.size + bad.sum()
        if n_new > max_intervals:
            raise NumericalFailureError(
                "quadrature failed to converge",
                diagnostics={
                    "intervals": int(lo.size),
                    "max_intervals": int(max_intervals),
                    "error": [float(e) for e in errs.sum(axis=1)],
                    "tolerance": [float(t) for t in tol],
                },
            )
        mid_bad = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[~bad], lo[bad], mid_bad])
        new_hi = np.concatenate([hi[~bad], mid_bad, hi[bad]])
        keep_vals = vals[:, ~bad]
        keep_errs = errs[:, ~bad]
        ref_vals, ref_errs = evaluate(
            np.concatenate([lo[bad], mid_bad]), np.concatenate([mid_bad, hi[bad]])
        )
        lo, hi = new_lo, new_hi
        vals = np.concatenate([keep_vals, ref_vals], axis=1)
        errs = np.concatenate([keep_errs, ref_errs], axis=1)
    raise NumericalFailureError(
        "quadrature refinement loop exhausted",
        diagnostics={"intervals": int(lo.size)},
    )
