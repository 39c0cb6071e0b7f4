"""Hot numeric kernels, in two interchangeable flavours.

The elementwise loops live here: per-pipe monomial loss coefficients
(evaluated once per solver iteration, thousands of times during scenario
generation and Monte Carlo resampling) and the per-cell hyperbox scans of
the fuzzy classifier (evaluated once per training example and per
classification). The dense linear algebra of the solver stages, not these
loops, dominates runtime.

Each kernel has a pure-numpy implementation and, when numba is importable,
an @njit translation of the same arithmetic. The active flavour is chosen
once at import time: set ``HYDROSTATE_PURE_NUMPY=1`` to force the numpy
path. Both flavours stay importable under explicit names so tests and the
benchmark can compare them.
"""

import os

import numpy as np

_FLAG = os.environ.get("HYDROSTATE_PURE_NUMPY", "").strip().lower()
PURE_NUMPY_REQUESTED = _FLAG in {"1", "true", "yes", "on"}

try:
    import numba
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None

NUMBA_ENABLED = numba is not None and not PURE_NUMPY_REQUESTED


def backend() -> str:
    """Name of the kernel flavour selected at import time."""
    return "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# numpy flavour
# ---------------------------------------------------------------------------

def loss_coefficients_numpy(q, scale, exponent, floor):
    """scale_j * max(|q_j|, floor) ** (exponent_j - 1), elementwise."""
    mag = np.maximum(np.abs(q), floor)
    return scale * mag ** (exponent - 1.0)


def box_violations_numpy(cell_min, cell_max, p_inf, p_sup, gamma):
    """Saturated-ramp violation degree of one interval pattern per cell.

    cell_min/cell_max are (J, n); returns a (J,) vector in [0, 1], zero
    exactly when the pattern interval is contained in the cell.
    """
    over = (p_sup[None, :] - cell_max) * gamma[None, :]
    under = (cell_min - p_inf[None, :]) * gamma[None, :]
    worst = np.maximum(over, under)
    np.clip(worst, 0.0, 1.0, out=worst)
    if worst.shape[0] == 0:
        return np.zeros(0)
    return worst.max(axis=1)


def expansion_metrics_numpy(cell_min, cell_max, p_inf, p_sup, theta):
    """Cost and feasibility of growing each cell to cover a pattern.

    Cost is the total side-length increase; a growth is feasible when every
    side of the grown box stays <= theta. Returns (cost (J,), feasible (J,)).
    """
    new_min = np.minimum(cell_min, p_inf[None, :])
    new_max = np.maximum(cell_max, p_sup[None, :])
    side = new_max - new_min
    feasible = (side <= theta).all(axis=1)
    cost = (side - (cell_max - cell_min)).sum(axis=1)
    return cost, feasible


# ---------------------------------------------------------------------------
# numba flavour
# ---------------------------------------------------------------------------

if numba is not None:

    @numba.njit(cache=True)
    def loss_coefficients_numba(q, scale, exponent, floor):
        out = np.empty(q.shape[0])
        for j in range(q.shape[0]):
            mag = abs(q[j])
            if mag < floor:
                mag = floor
            out[j] = scale[j] * mag ** (exponent[j] - 1.0)
        return out

    @numba.njit(cache=True)
    def box_violations_numba(cell_min, cell_max, p_inf, p_sup, gamma):
        n_cells, n_dims = cell_min.shape
        out = np.zeros(n_cells)
        for c in range(n_cells):
            worst = 0.0
            for i in range(n_dims):
                v = (p_sup[i] - cell_max[c, i]) * gamma[i]
                u = (cell_min[c, i] - p_inf[i]) * gamma[i]
                if u > v:
                    v = u
                if v > worst:
                    worst = v
                if worst >= 1.0:
                    worst = 1.0
                    break
            out[c] = worst
        return out

    @numba.njit(cache=True)
    def expansion_metrics_numba(cell_min, cell_max, p_inf, p_sup, theta):
        n_cells, n_dims = cell_min.shape
        cost = np.zeros(n_cells)
        feasible = np.ones(n_cells, dtype=np.bool_)
        for c in range(n_cells):
            total = 0.0
            for i in range(n_dims):
                lo = cell_min[c, i]
                if p_inf[i] < lo:
                    lo = p_inf[i]
                hi = cell_max[c, i]
                if p_sup[i] > hi:
                    hi = p_sup[i]
                side = hi - lo
                if side > theta:
                    feasible[c] = False
                total += side - (cell_max[c, i] - cell_min[c, i])
            cost[c] = total
        return cost, feasible


if NUMBA_ENABLED:
    loss_coefficients = loss_coefficients_numba
    box_violations = box_violations_numba
    expansion_metrics = expansion_metrics_numba
else:
    loss_coefficients = loss_coefficients_numpy
    box_violations = box_violations_numpy
    expansion_metrics = expansion_metrics_numpy
