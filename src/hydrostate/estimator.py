"""Telemetry-augmented weighted least-squares state estimation.

Telemetry rows extend the steady-state system with unit selector rows
picking the measured flow or head, turning it into an overdetermined
system. Estimation iterates the linearization at the current iterate:
the correction solves

    min || W^(1/2) (A_k dx - rhs_k) ||_2,    x <- x + omega * dx,

where A_k carries the derivative diagonal in its energy block and rhs_k is
the negated augmented residual. Row weights are 1/sigma^2 per row class:
energy rows use a small near-exact sigma, continuity rows the demand sigma,
telemetry rows their per-measurement sigma. The correction solves the
normal equations A_k^T W A_k dx = A_k^T W rhs_k without forming them or
A_k (see `linearization.AugmentedSystem`).

`estimate_members` runs the iteration in lockstep for members that share
the network and the meters and differ in their telemetry values;
`estimate_state` is its single-member case. It hands its augmented
residual, weighted step and omega update to the driver
`linearization._lockstep`, which owns the checks, active set, failures,
history, counts and stop test, on the full correction dx.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RankDeficient, ValidationError
from .hydraulics import (
    DEFAULT_MAX_ITER,
    StateVector,
    initial_state,
    jacobian_coefficients,
    member_residuals,
)
from .linearization import AugmentedSystem, _lockstep, non_finite_members
from .network import Network

KIND_PIPE_FLOW = "pipe-flow"
KIND_NODE_HEAD = "node-head"

# Energy rows model exact physics; a small sigma keeps them dominant while
# preserving one uniform least-squares path.
ENERGY_SIGMA = 1e-4

DEFAULT_TOL_X = 1e-8
DEFAULT_OMEGA = 1.0


def check_sigma(sigma, path: str) -> None:
    """A standard deviation is a finite number > 0 whose row weight
    1/sigma^2 is finite and > 0."""
    if not sigma > 0:
        raise ValidationError(path, "number > 0", str(sigma))
    if not math.isfinite(sigma):
        raise ValidationError(path, "finite number", str(sigma))
    square = float(sigma) * float(sigma)
    if not square or not 0.0 < 1.0 / square < math.inf:
        raise ValidationError(path, "sigma with a finite weight 1/sigma^2", str(sigma))


def check_meter(kind: str, sigma, delta) -> None:
    """The checks a measurement and a scenario's meter spec share."""
    if kind not in (KIND_PIPE_FLOW, KIND_NODE_HEAD):
        raise ValidationError("/kind", "'pipe-flow' or 'node-head'", repr(kind))
    check_sigma(sigma, "/sigma")
    if not delta >= 0:
        raise ValidationError("/delta", "number >= 0", str(delta))
    if not math.isfinite(delta):
        raise ValidationError("/delta", "finite number", str(delta))


def meter_column(net: Network, kind: str, target: str) -> int:
    """The unknown a meter selects, as a position in x = (q, H): q_j for a
    pipe-flow meter on pipe j, H_i for a node-head meter on demand node i.
    A target the network does not have is a ValidationError at /target."""
    if kind == KIND_PIPE_FLOW:
        if not net.has_pipe(target):
            raise ValidationError("/target", "existing pipe id", repr(target))
        return net.pipe_index(target)
    if not net.has_demand_node(target):
        raise ValidationError("/target", "existing demand node id", repr(target))
    return net.n_pipes + net.demand_index(target)


@dataclass(frozen=True)
class Measurement:
    kind: str
    target: str
    value: float
    sigma: float
    delta: float = 0.0

    def __post_init__(self):
        check_meter(self.kind, self.sigma, self.delta)
        if not math.isfinite(self.value):
            raise ValidationError("/value", "finite number", str(self.value))


@dataclass(frozen=True)
class MeasurementSet:
    measurements: tuple[Measurement, ...] = ()
    demand_sigma: float = 1.0
    demand_delta: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        check_sigma(self.demand_sigma, "/demand_sigma")
        if self.demand_delta is not None:
            dd = tuple(float(v) for v in self.demand_delta)
            for i, v in enumerate(dd):
                if not v >= 0:
                    raise ValidationError(f"/demand_delta/{i}", "number >= 0", str(v))
                if not math.isfinite(v):
                    raise ValidationError(f"/demand_delta/{i}", "finite number", str(v))
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
class EstimateReport:
    state: StateVector
    iterations: int
    weighted_residual_norm: float
    converged: bool
    step_norms: list[float] = field(default_factory=list)


def build_augmented(
    net: Network, meas: MeasurementSet, *, energy_sigma: float = ENERGY_SIGMA
) -> AugmentedSystem:
    """The augmented system of a measurement set: its telemetry columns,
    values and row weights.

    Each measurement selects the unknown of its `meter_column`; an unknown
    target is a ValidationError at /measurements/k/target.
    """
    m = len(meas.measurements)
    values = np.zeros(m)
    sigmas = np.zeros(m)
    columns = np.zeros(m, dtype=np.intp)
    for k, measurement in enumerate(meas.measurements):
        try:
            columns[k] = meter_column(net, measurement.kind, measurement.target)
        except ValidationError as exc:
            raise exc.within(f"/measurements/{k}") from exc
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
    return AugmentedSystem(net, columns, values, weights)


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


def weighted_step(system: AugmentedSystem, jac: np.ndarray, rhs: np.ndarray):
    """Solve the weighted normal equations (A^T W A) dx = A^T W rhs per
    member (rows of `jac` and `rhs`), without forming A^T W A, by the
    Woodbury step of `AugmentedSystem`.

    `system` holds the weights and the telemetry rows of A, whose `shape`
    is that of A; `jac` holds the derivative diagonals. The factor of J
    from `AugmentedSystem.linearize` serves two rounds of solves: Z, from
    the tree flows of the system's selectors on, then J^-1 against r_j
    plus the telemetry correction. Returns the corrections and a dict from
    member position to RankDeficient for the members whose factorization
    or update failed or whose correction is not finite.
    """
    newton, z, scaled, coupling = system.linearize(jac)
    n = system.shape[1]
    r_model = rhs[:, :n, None]
    gain, failures = system.telemetry_solve(
        coupling, rhs[:, n:, None] - (z * r_model).sum(axis=1)[:, :, None]
    )
    dx = newton.solve(r_model + scaled @ gain)[:, :, 0]
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
    aug = build_augmented(net, meas, energy_sigma=energy_sigma)
    x, iterations, step_norms, failures = estimate_members(
        aug, aug.values[None], tol_x=tol_x, max_iter=max_iter, omega=omega
    )
    if failures:
        raise failures.pop(0)  # a local left holding it would form a cycle with its traceback
    state = StateVector.from_vector(net, x[0])
    norm = _weighted_norm(net, aug, state)
    return EstimateReport(state, int(iterations[0]), norm, True, step_norms[:, 0].tolist())


def estimate_members(
    system: AugmentedSystem,
    values: np.ndarray,
    *,
    tol_x: float = DEFAULT_TOL_X,
    max_iter: int = DEFAULT_MAX_ITER,
    omega: float = DEFAULT_OMEGA,
):
    """`estimate_state` in lockstep for members that differ only in their
    telemetry values (members x telemetry rows), each with its own
    failures (NonConvergence or RankDeficient). `system` holds the network,
    the row weights and the telemetry columns shared by all members; the
    demand rows use the network's demands. Returns as
    `linearization._lockstep` does, with the max-norm of each full
    correction, before omega scales it, as the history. An omega outside
    (0, 1.5] is a ValueError.
    """
    if not 0 < omega <= 1.5:
        raise ValueError(f"omega must be in (0, 1.5], got {omega}")
    net = system.net
    x = np.repeat(initial_state(net).vector[None], values.shape[0], axis=0)

    def step(active):
        current = x[active]
        r = _augmented_residuals(net, system.telemetry_columns, current, values[active])
        return weighted_step(system, jacobian_coefficients(net, current[:, : net.n_pipes]), -r)

    def advance(active, dx):
        x[active] += omega * dx
        return np.max(np.abs(dx), axis=1)

    return _lockstep(x, step, advance, "tol_x", tol_x, max_iter)


def _weighted_norm(net: Network, aug: AugmentedSystem, x: StateVector) -> float:
    r = augmented_residual(net, aug, x)
    return float(np.sqrt(np.sum(aug.weights * r**2)))
