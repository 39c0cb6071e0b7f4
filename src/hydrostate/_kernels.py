"""Elementwise numeric kernels, in numpy.

The per-pipe monomial loss coefficients (evaluated once per solver
iteration, over every member of a stacked solve) and the per-cell hyperbox
scans of the fuzzy classifier (the expansion scan once per window of
training examples tested together, one example wide after each change
to a cell; the violation scan once per classification).

They live in a module of their own only so that the benchmark's tracer
(`perfbench/tracing.py`) can wrap these three names, which `network`,
`hydraulics` and `fuzzy` call. Once the stages record their own telemetry
(the stage-telemetry item of ROADMAP.md), they fold into their callers.
"""

import numpy as np


def loss_coefficients(q, scale, exponent, floor):
    """scale_j * max(|q_j|, floor) ** (exponent_j - 1), elementwise over the
    last axis of q; leading axes of q are members."""
    mag = np.maximum(np.abs(q), floor)
    return scale * mag ** (exponent - 1.0)


def box_violations(cell_min, cell_max, p_inf, p_sup, gamma):
    """Saturated-ramp violation degree of one interval pattern per cell.

    cell_min/cell_max are (J, n); returns a (J,) vector in [0, 1], zero
    exactly when the pattern interval is contained in the cell. The ramp
    scales the larger of each side's two overshoots, once, and the clip is
    applied to each cell's largest ramped overshoot: both maps are monotone,
    so the result is exactly the largest clipped ramp of any overshoot.
    """
    worst = np.maximum(p_sup - cell_max, cell_min - p_inf)
    worst *= gamma
    worst = worst.max(axis=1)
    np.maximum(worst, 0.0, out=worst)
    return np.minimum(worst, 1.0, out=worst)


def expansion_metrics(cell_min, cell_max, p_inf, p_sup, theta):
    """Cost and feasibility of growing each cell to cover a pattern.

    Cost is the total side-length increase; a growth is feasible when every
    side of the grown box stays <= theta. Boxes lie along the last axis and
    the leading axes broadcast: (J, n) cells against an (n,) pattern give
    (J,) results, and against (W, 1, n) patterns (W, J) ones. Returns
    (cost, feasible).
    """
    new_min = np.minimum(cell_min, p_inf)
    new_max = np.maximum(cell_max, p_sup)
    side = new_max - new_min
    feasible = (side <= theta).all(axis=-1)
    cost = (side - (cell_max - cell_min)).sum(axis=-1)
    return cost, feasible
