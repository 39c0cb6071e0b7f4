"""Interval error limits on the estimated state under bounded data error.

Given per-row half-widths delta_y on the augmented right-hand sides, the
componentwise bound on the estimate's deviation is

    e = | (A^T W A)^-1 A^T W | |delta_y|

with entrywise absolute values, evaluated at the converged estimate. The
sensitivity matrix (A^T W A)^-1 A^T W is the linear map from the
right-hand side to the estimator's step, and it is evaluated the same way
as the step: through the Newton matrix and a telemetry update, without
forming A^T W A (see `bound_from_matrix`). The bound is symmetric, so the
state is reported as the interval [x - e, x + e]. A seeded Monte Carlo
harness measures how often resampled estimations actually stay inside the
box.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergence, RankDeficient, SingularSystem, ValidationError
from .estimator import (
    MeasurementSet,
    build_augmented,
    estimate_state,
)
from .hydraulics import StateVector, jacobian_coefficients
from .linearization import NewtonFactor, NormalEquations
from .network import Network


@dataclass
class IntervalState:
    """Box [center - halfwidth, center + halfwidth] in state space."""

    center: StateVector
    halfwidth: np.ndarray

    def __post_init__(self):
        self.halfwidth = np.asarray(self.halfwidth, dtype=float)
        if self.halfwidth.shape != self.center.vector.shape:
            raise ValueError("halfwidth length must match the state dimension")
        if (self.halfwidth < 0).any():
            raise ValueError("halfwidth entries must be >= 0")

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


def bound_from_matrix(system: NormalEquations, jac: np.ndarray, delta_y: np.ndarray):
    """Core bound e = |(A^T W A)^-1 A^T W| |delta_y| per member, at the
    derivative diagonals `jac` (members x n_pipes), without forming
    A^T W A.

    The sensitivity matrix (A^T W A)^-1 A^T W is the map from the
    right-hand side r = (r_j | r_t) to the step of `estimator.weighted_step`
    (see `NormalEquations`). With Z = J^-1 S^T, Y = J^-1 Wj^-1 Z and the
    telemetry update C, its telemetry columns are Y C^-1 and its model
    columns are J^-1 - Y C^-1 Z^T. Only the columns of rows with
    delta_y > 0 contribute, and energy rows carry none; so of J^-1 the
    bound needs only the columns of those continuity rows, one Newton solve
    of unit continuity columns with zero energy rows. `delta_y` is shared
    by all members. Returns the bounds (members x
    unknowns) and a dict from member position to RankDeficient for the
    members whose factorization or update failed.
    """
    delta_y = np.abs(np.asarray(delta_y, dtype=float))
    n_pipes, n = system.net.n_pipes, system.shape[1]
    nodes = np.flatnonzero(delta_y[n_pipes:n])
    meters = np.flatnonzero(delta_y[n:])
    members = jac.shape[0]

    newton = NewtonFactor(system.net, jac)
    z = newton.solve(system.selectors[:n_pipes], system.selectors[n_pipes:])
    scaled = system.model_variance * z
    inverse, failures = system.telemetry_solve(z, scaled)
    failures.update(newton.failed)
    # Y C^-1: the sensitivity to the telemetry rows.
    telemetry = newton.solve(scaled[:, :n_pipes], scaled[:, n_pipes:]) @ inverse

    unit = np.zeros((members, system.net.n_demand, nodes.size))
    unit[:, nodes, np.arange(nodes.size)] = 1.0
    # J^-1 - Y C^-1 Z^T on the continuity columns.
    columns = newton.solve(0.0, unit)
    columns -= telemetry @ z[:, n_pipes + nodes].swapaxes(1, 2)
    bound = np.abs(columns, out=columns) @ delta_y[n_pipes + nodes]
    bound += np.abs(telemetry[:, :, meters]) @ delta_y[n + meters]
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
    expected = net.n_pipes + net.n_demand + aug.n_telemetry
    if delta_y.shape != (expected,):
        raise ValueError(f"delta_y must have length {expected}, got {delta_y.shape}")
    if (delta_y < 0).any():
        raise ValueError("delta_y entries must be >= 0")
    halfwidth, failures = bound_from_matrix(
        NormalEquations(net, aug), jacobian_coefficients(net, x_star.q)[None], delta_y
    )
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
    tol_x: float = 1e-8,
    max_iter: int = 50,
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
    the fraction is 0.0 on seed 1234. Solved through the normal equations,
    4 of those 40 samples used to stop after 42 to 49 iterations with a
    step below tol_x = 1e-8, for 0.0998; but the accurate step at those
    iterates is 1.4e-6 to 5.4e-6, so those convergences were rounding.
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
