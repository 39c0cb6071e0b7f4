"""Telemetry-augmented weighted least-squares state estimation.

Telemetry rows extend the steady-state system with unit selector rows
picking the measured flow or head, turning it into an overdetermined
system. Estimation iterates the linearization at the current
iterate (assembled by `linearization`): the correction solves

    min || W^(1/2) (A_k dx - rhs_k) ||_2,    x <- x + omega * dx,

where A_k carries the derivative diagonal in its energy block and rhs_k is
the negated augmented residual. Row weights are 1/sigma^2 per row class:
energy rows use a small near-exact sigma, continuity rows the demand sigma,
telemetry rows their per-measurement sigma.

The correction is the solution of the normal equations A_k^T W A_k dx =
A_k^T W rhs_k, but it is evaluated without them: as the Newton step of the
square model rows plus a telemetry correction of order m, the number of
meters (see `linearization.NormalEquations`). This keeps the accuracy of
the square solve, where the normal equations would square its condition
number.

`estimate_members` runs the iteration in lockstep for members that share
the network and the meters and differ in their telemetry values;
`estimate_state` is its single-member case.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import HydrostateError, NonConvergence, RankDeficient, UnknownTarget
from .hydraulics import (
    StateVector,
    initial_state,
    jacobian_coefficients,
    member_residuals,
)
from .linearization import NewtonFactor, NormalEquations, drop_failed, non_finite_members
from .network import Network

KIND_PIPE_FLOW = "pipe-flow"
KIND_NODE_HEAD = "node-head"

# Energy rows model exact physics; a small sigma keeps them dominant while
# preserving one uniform least-squares path.
ENERGY_SIGMA = 1e-4

DEFAULT_TOL_X = 1e-8
DEFAULT_MAX_ITER = 50
DEFAULT_OMEGA = 1.0


@dataclass(frozen=True)
class Measurement:
    kind: str
    target: str
    value: float
    sigma: float
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in (KIND_PIPE_FLOW, KIND_NODE_HEAD):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")


@dataclass(frozen=True)
class MeasurementSet:
    measurements: tuple[Measurement, ...] = ()
    demand_sigma: float = 1.0
    demand_delta: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if not self.demand_sigma > 0:
            raise ValueError(f"demand_sigma must be > 0, got {self.demand_sigma}")
        if self.demand_delta is not None:
            dd = tuple(float(v) for v in self.demand_delta)
            if any(v < 0 for v in dd):
                raise ValueError("demand_delta entries must be >= 0")
            object.__setattr__(self, "demand_delta", dd)

    def demand_delta_vector(self, net: Network) -> np.ndarray:
        if self.demand_delta is None:
            return np.zeros(net.n_demand)
        dd = np.asarray(self.demand_delta, dtype=float)
        if dd.shape != (net.n_demand,):
            raise ValueError(
                f"demand_delta has length {dd.shape[0]}, expected {net.n_demand}"
            )
        return dd


@dataclass
class AugmentedSystem:
    """Telemetry blocks plus the diagonal weights of all rows.

    Row layout everywhere is (energy | continuity | telemetry); `weights`
    holds the diagonal of W in that order and `values` the telemetry
    right-hand sides M_t. `telemetry_columns` holds the index in x = (q, H)
    of the unknown each telemetry row selects.
    """

    flow_selector: np.ndarray
    head_selector: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    telemetry_columns: np.ndarray

    @property
    def n_telemetry(self) -> int:
        return self.flow_selector.shape[0]



@dataclass
class EstimateReport:
    state: StateVector
    iterations: int
    weighted_residual_norm: float
    converged: bool
    step_norms: list[float] = field(default_factory=list)


def build_augmented(
    net: Network, meas: MeasurementSet, *, energy_sigma: float = ENERGY_SIGMA
) -> AugmentedSystem:
    """Selector rows and row weights for a measurement set.

    A pipe-flow measurement on pipe j gets a unit row selecting q_j; a
    node-head measurement on node i gets a unit row selecting H_i.
    """
    m = len(meas.measurements)
    flow_selector = np.zeros((m, net.n_pipes))
    head_selector = np.zeros((m, net.n_demand))
    values = np.zeros(m)
    sigmas = np.zeros(m)
    columns = np.zeros(m, dtype=np.intp)
    for k, measurement in enumerate(meas.measurements):
        if measurement.kind == KIND_PIPE_FLOW:
            if not net.has_pipe(measurement.target):
                raise UnknownTarget(measurement.target)
            columns[k] = net.pipe_index(measurement.target)
            flow_selector[k, columns[k]] = 1.0
        else:
            if not net.has_demand_node(measurement.target):
                raise UnknownTarget(measurement.target)
            head_selector[k, net.demand_index(measurement.target)] = 1.0
            columns[k] = net.n_pipes + net.demand_index(measurement.target)
        values[k] = measurement.value
        sigmas[k] = measurement.sigma

    row_sigmas = np.concatenate(
        [
            np.full(net.n_pipes, energy_sigma),
            np.full(net.n_demand, meas.demand_sigma),
            sigmas,
        ]
    )
    with np.errstate(divide="ignore", over="ignore"):
        weights = 1.0 / row_sigmas**2
    if not np.isfinite(weights).all():
        raise ValueError("a sigma is too small: its weight 1/sigma^2 overflows")
    return AugmentedSystem(flow_selector, head_selector, values, weights, columns)


def augmented_residual(net: Network, aug: AugmentedSystem, x: StateVector) -> np.ndarray:
    """(energy | continuity | telemetry) residual at x; telemetry rows are
    selected state minus measured value."""
    return _augmented_residuals(
        net, aug.telemetry_columns, x.vector[None], aug.values[None]
    )[0]


def _augmented_residuals(
    net: Network, columns: np.ndarray, x: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """`augmented_residual` of stacked state vectors x (members x
    (L + N_p)), with telemetry `values` (members x telemetry rows)
    selecting the unknowns `columns`; demands are the network's."""
    return np.concatenate(
        [member_residuals(net, x, net.demand[None]), x[:, columns] - values], axis=1
    )


def weighted_step(system: NormalEquations, jac: np.ndarray, rhs: np.ndarray):
    """Solve the weighted normal equations (A^T W A) dx = A^T W rhs per
    member (rows of `jac` and `rhs`), without forming A^T W A.

    `system` holds the weights and the telemetry rows of A (see
    `NormalEquations`), whose `shape` is that of A; `jac` holds the
    derivative diagonals. One Schur factorization of the Newton matrix J
    serves two rounds of solves: J^-1 against the telemetry columns S^T,
    then J^-1 against r_j plus the telemetry correction. The Cholesky
    factor of the Schur Laplacian is the positive-definiteness gate. Returns
    the corrections and a dict from member position to RankDeficient for
    the members whose factorization or update failed or whose correction is
    not finite.
    """
    newton = NewtonFactor(system.net, jac)
    n_pipes, n = system.net.n_pipes, system.shape[1]
    r_model = rhs[:, :n, None]
    z = newton.solve(system.selectors[:n_pipes], system.selectors[n_pipes:])
    scaled = system.model_variance * z
    # S J^-1 r_j = Z^T r_j, since J is symmetric.
    gain, failures = system.telemetry_solve(
        z, scaled, rhs[:, n:, None] - (z * r_model).sum(axis=1)[:, :, None]
    )
    b = r_model + scaled @ gain
    dx = newton.solve(b[:, :n_pipes], b[:, n_pipes:])[:, :, 0]
    failures.update(newton.failed)
    for member in non_finite_members(dx):
        failures.setdefault(
            int(member), RankDeficient("weighted step produced non-finite entries")
        )
    return dx, failures


def estimate_state(
    net: Network,
    meas: MeasurementSet,
    *,
    tol_x: float = DEFAULT_TOL_X,
    max_iter: int = DEFAULT_MAX_ITER,
    omega: float = DEFAULT_OMEGA,
    energy_sigma: float = ENERGY_SIGMA,
) -> EstimateReport:
    """Iterative weighted least-squares estimate of the network state.

    Stops when the correction max-norm drops to tol_x. omega is the
    relaxation factor applied to each accepted correction, in (0, 1.5].
    """
    if not 0 < omega <= 1.5:
        raise ValueError(f"omega must be in (0, 1.5], got {omega}")
    aug = build_augmented(net, meas, energy_sigma=energy_sigma)
    x, iterations, step_norms, failures = estimate_members(
        NormalEquations(net, aug), aug.values[None], tol_x=tol_x, max_iter=max_iter,
        omega=omega,
    )
    if failures:
        raise failures[0]
    state = StateVector.from_vector(net, x[0])
    done = int(iterations[0])
    return EstimateReport(
        state, done, _weighted_norm(net, aug, state), True, step_norms[:done, 0].tolist()
    )


def estimate_members(
    system: NormalEquations,
    values: np.ndarray,
    *,
    tol_x: float = DEFAULT_TOL_X,
    max_iter: int = DEFAULT_MAX_ITER,
    omega: float = DEFAULT_OMEGA,
):
    """`estimate_state` in lockstep for members that differ only in their
    telemetry values (members x telemetry rows).

    `system` holds the network, the row weights and the telemetry columns
    shared by all members; the demand rows use the network's demands.
    Every member follows the single-case iteration on its own. Returns the
    final iterates x = (q, H) (members x (L + N_p)), each member's
    iteration count, the correction max-norms (max_iter x members; NaN past
    a member's count), and a dict from the position of each failed member
    to its NonConvergence or RankDeficient error.
    """
    net = system.net
    members = values.shape[0]
    x = np.repeat(initial_state(net).vector[None], members, axis=0)
    step_norms = np.full((max_iter, members), np.nan)
    iterations = np.zeros(members, dtype=int)
    failures: dict[int, HydrostateError] = {}
    active = np.arange(members)

    for iteration in range(1, max_iter + 1):
        if not active.size:
            break
        current = x[active]
        r = _augmented_residuals(net, system.telemetry_columns, current, values[active])
        dx, failed = weighted_step(
            system, jacobian_coefficients(net, current[:, : net.n_pipes]), -r
        )
        active, current, dx = drop_failed(active, failed, failures, current, dx)
        x[active] = current + omega * dx
        norm = np.max(np.abs(dx), axis=1)
        step_norms[iteration - 1, active] = norm
        iterations[active] = iteration
        active = active[~(norm <= tol_x)]

    # With max_iter = 0 no step is taken, and there is no norm to report.
    last = step_norms[-1] if max_iter > 0 else np.full(members, np.nan)
    for member in active:
        failures[int(member)] = NonConvergence(max_iter, float(last[member]))
    return x, iterations, step_norms, dict(sorted(failures.items()))


def _weighted_norm(net: Network, aug: AugmentedSystem, x: StateVector) -> float:
    r = augmented_residual(net, aug, x)
    return float(np.sqrt(np.sum(aug.weights * r**2)))
