"""Interval error limits on the estimated state under bounded data error.

Given per-row half-widths delta_y on the augmented right-hand sides, the
componentwise bound on the estimate's deviation is

    e = | (A^T W A)^-1 A^T W | |delta_y|

with entrywise absolute values, evaluated at the converged estimate. The
sensitivity matrix (A^T W A)^-1 A^T W is the linear map from the
right-hand side to the estimator's step, evaluated through the same
blocks as the step (see `linearization.AugmentedSystem`). The bound is
symmetric, so the state is reported as the interval [x - e, x + e]. A
seeded Monte Carlo harness measures how often resampled estimations
actually stay inside the box.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergence, RankDeficient, SingularSystem, ValidationError
from .estimator import DEFAULT_TOL_X, MeasurementSet, build_augmented, estimate_state
from .hydraulics import DEFAULT_MAX_ITER, StateVector, jacobian_coefficients
from .linearization import AugmentedSystem
from .network import Network

# Values per member in one block of the bound's continuity columns: the
# block, n unknowns by as many columns as fit, is the largest array the
# bound holds. Of 2^16 to 2^22, 2^16 to 2^17 measured fastest on the
# 800-node benchmark cases (n = 1,809), and larger blocks only added memory.
_BOUND_ELEMENTS = 1 << 17


@dataclass
class IntervalState:
    """Box [center - halfwidth, center + halfwidth] in state space."""

    center: StateVector
    halfwidth: np.ndarray

    def __post_init__(self):
        self.halfwidth = np.asarray(self.halfwidth, dtype=float)
        if self.halfwidth.shape != self.center.vector.shape:
            raise ValueError("halfwidth length must match the state dimension")
        if not (self.halfwidth >= 0).all():
            raise ValidationError("/halfwidth", "entries >= 0", "negative entry")
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):
            raise ValidationError("/halfwidth", "finite center -/+ halfwidth", "overflow")

    @property
    def lower(self) -> np.ndarray:
        return self.center.vector - self.halfwidth

    @property
    def upper(self) -> np.ndarray:
        return self.center.vector + self.halfwidth


def uncertainty_vector(net: Network, meas: MeasurementSet) -> np.ndarray:
    """Assemble delta_y over all augmented rows.

    Energy rows are model equations, not measurements, and carry zero;
    continuity rows carry the demand-prediction half-widths; telemetry rows
    carry each measurement's half-width.
    """
    return np.concatenate(
        [
            np.zeros(net.n_pipes),
            meas.demand_delta_vector(net),
            np.array([m.delta for m in meas.measurements], dtype=float),
        ]
    )


def block_columns(net: Network) -> int:
    """Continuity columns per block of `bound_from_matrix`: as many as fit
    `_BOUND_ELEMENTS` values, or a quarter of the loop factor's values if
    that is more. Each block's solve reads the whole factor; at 5000 nodes
    and 1,640 loops, the quarter took the bound from 5.8 s (2^17 values
    per block) to 3.7 s, where the whole factor gained no more and added
    86 MB of peak memory."""
    n = net.n_pipes + net.n_demand
    return max(1, max(_BOUND_ELEMENTS, net.forest.cotree.size**2 // 4) // n)


def bound_from_matrix(system: AugmentedSystem, jac: np.ndarray, delta_y: np.ndarray):
    """Core bound e = |(A^T W A)^-1 A^T W| |delta_y| per member, at the
    derivative diagonals `jac` (members x n_pipes), without forming
    A^T W A.

    The sensitivity matrix is the map from the right-hand side to the step
    of `estimator.weighted_step`, in the blocks of
    `AugmentedSystem.linearize`: its telemetry columns are Y C^-1 and its
    model columns J^-1 - Y C^-1 Z^T (see `AugmentedSystem`). Only the
    columns of rows with delta_y > 0 contribute, and energy rows carry
    none; so of J^-1 the bound needs only the columns of those continuity
    rows: Newton solves of unit columns with zero energy rows,
    `block_columns` at a time, each block added into the bound as
    |columns| delta_y before the next. `delta_y` is shared by all members.
    Returns the bounds (members x unknowns) and a dict from member position
    to RankDeficient for the members whose factorization or update failed.
    """
    delta_y = np.abs(np.asarray(delta_y, dtype=float))
    n_pipes, n = system.net.n_pipes, system.shape[1]
    nodes = np.flatnonzero(delta_y[n_pipes:n])
    meters = np.flatnonzero(delta_y[n:])

    newton, z, scaled, coupling = system.linearize(jac)
    inverse, failures = system.telemetry_solve(coupling)
    failures.update(newton.failed)
    # Y C^-1: the sensitivity to the telemetry rows.
    telemetry = newton.solve(scaled) @ inverse

    # J^-1 - Y C^-1 Z^T on the continuity columns, a block at a time.
    bound = np.abs(telemetry[:, :, meters]) @ delta_y[n + meters]
    block = block_columns(system.net)
    for start in range(0, nodes.size, block):
        rows = n_pipes + nodes[start : start + block]
        unit = np.zeros((n, rows.size))
        unit[rows, np.arange(rows.size)] = 1.0
        columns = newton.solve(unit)
        columns -= telemetry @ z[:, rows].swapaxes(1, 2)
        bound += np.abs(columns, out=columns) @ delta_y[rows]
    return bound, failures


def sensitivity_bound(
    net: Network,
    meas: MeasurementSet,
    x_star: StateVector,
    delta_y: np.ndarray,
) -> IntervalState:
    """Interval state centered at the converged estimate x_star.

    The linearized augmented system is evaluated at x_star itself, i.e. at
    the final iterate of the estimation.
    """
    aug = build_augmented(net, meas)
    delta_y = np.asarray(delta_y, dtype=float)
    if delta_y.shape != aug.shape[:1]:
        raise ValueError(f"delta_y must have length {aug.shape[0]}, got {delta_y.shape}")
    if not (delta_y >= 0).all():
        raise ValueError("delta_y entries must be >= 0")
    halfwidth, failures = bound_from_matrix(aug, jacobian_coefficients(net, x_star.q)[None], delta_y)
    if failures:
        raise failures[0]
    return IntervalState(x_star.copy(), halfwidth[0])


def monte_carlo_containment(
    net: Network,
    meas: MeasurementSet,
    delta_y: np.ndarray,
    samples: int,
    seed: int,
    *,
    tol_x: float = DEFAULT_TOL_X,
    max_iter: int = DEFAULT_MAX_ITER,
) -> float:
    """Fraction of resampled state components that stay inside the bound.

    Each sample draws the demand predictions and telemetry values uniformly
    inside their half-width boxes, re-runs the estimation, and counts the
    components whose deviation from the nominal estimate lies within the
    halfwidth. Per-sample randomness derives from (seed, sample index), so
    results are reproducible and order-independent. A sample counts as
    fully non-contained when it draws a negative demand, which no network
    can carry, or when its estimation fails (no convergence, or
    rank-deficient or singular linear systems).

    Failed estimations therefore lower the fraction as much as samples
    outside the bound. On the 150-node estimator repro (15 flow and 15
    head meters, 2 % boxes), no sample converges in 50 iterations, and
    the fraction is 0.0 on seed 1234.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    delta_y = np.asarray(delta_y, dtype=float)

    nominal = estimate_state(net, meas, tol_x=tol_x, max_iter=max_iter)
    interval = sensitivity_bound(net, meas, nominal.state, delta_y)
    center = interval.center.vector
    halfwidth = interval.halfwidth

    n_pipes, n_demand = net.n_pipes, net.n_demand
    n_components = center.shape[0]
    contained = 0

    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        offsets = rng.uniform(-1.0, 1.0, size=delta_y.shape[0]) * delta_y
        demands = net.demand + offsets[n_pipes : n_pipes + n_demand]
        perturbed_meas = MeasurementSet(
            tuple(
                replace(m, value=float(m.value + offsets[n_pipes + n_demand + i]))
                for i, m in enumerate(meas.measurements)
            ),
            demand_sigma=meas.demand_sigma,
            demand_delta=meas.demand_delta,
        )
        try:
            sample_net = net.with_demands(demands)
            report = estimate_state(
                sample_net, perturbed_meas, tol_x=tol_x, max_iter=max_iter
            )
        except (ValidationError, NonConvergence, RankDeficient, SingularSystem):
            continue
        deviation = np.abs(report.state.vector - center)
        contained += int(np.count_nonzero(deviation <= halfwidth))

    return contained / (samples * n_components)
