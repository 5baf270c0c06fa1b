"""One fixed Gauss-Kronrod pass over [0, 1] for the thermal average's
segment to a near saddle. The integrand receives one flat array of nodes and
returns shape (n_components, n_nodes); the components share one uniform
partition that the caller sizes. The embedded 7-point Gauss rule gives the
error estimate of the 15-point Kronrod value; a component that misses the
tolerance is an error, not a reason to refine, so its value depends only on
its own integrand and panel count.
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
#: NODES mapped onto a panel [0, 1]; with the weights below, halved for it,
#: one product gives K15 and another the estimate K15 - G7
UNIT_NODES = 0.5 * (1.0 + NODES)
UNIT_KRONROD = 0.5 * KRONROD_WEIGHTS
UNIT_ERROR = UNIT_KRONROD.copy()
UNIT_ERROR[1::2] -= 0.5 * GAUSS_WEIGHTS
#: ATOL well below the 1e-10 of the visibility; RTOL because up to an uphill
#: saddle (Re Z >= -4) the segment is up to e**4 times the whole thermal
#: average, and its round-off with it
RTOL, ATOL = 1e-14, 1e-12


def integrate(f, panels):
    """Integrate a stacked vector integrand over [0, 1] on `panels` equal
    panels in one pass; return the values as a 1-D array over components.
    Raises NumericalFailureError with diagnostics if any component's summed
    error estimate exceeds max(RTOL * |value|, ATOL).
    """
    step = 1.0 / panels
    x = np.add.outer(step * np.arange(panels), step * UNIT_NODES)  # (panels, 15)
    fx = f(x.ravel()).reshape(-1, *x.shape)
    # matrix-vector products per panel: one BLAS zgemm over all of them was
    # no faster and raised the quadrature benchmark's peak RSS by 4 MB (8%)
    values = step * (fx @ UNIT_KRONROD).sum(axis=1)
    errors = (step * abs(fx @ UNIT_ERROR).sum(axis=1)).tolist()
    # a few components: cheaper in Python than as arrays
    tol = [max(RTOL * abs(v), ATOL) for v in values.tolist()]
    if not all(e <= t for e, t in zip(errors, tol)):   # a NaN error fails too
        raise NumericalFailureError("quadrature missed its tolerance", diagnostics={
            "panels": panels, "error": errors, "tolerance": tol})
    return values
