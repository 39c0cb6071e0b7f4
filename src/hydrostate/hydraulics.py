"""Damped Newton solution of the nonlinear steady-state network system.

Unknowns are x = (q, H): all pipe flows followed by all demand-node heads.
The residual stacks one energy row per pipe over one continuity row per
demand node,

    [ D(q) q + A12 H + A10 Hf ]      D(q) = diag(r_j max(|q_j|, eps)^(n_j-1))
    [ A12^T q - Q             ]

and the Newton matrix replaces D(q) with the derivative diagonal
d(D(q)q)/dq = diag(n_j r_j max(|q_j|, eps)^(n_j-1)); `linearization`
solves each Newton step without forming that matrix.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import NonConvergence
from .linearization import newton_step
from .network import FLOW_FLOOR, Network, headloss_coefficients

DEFAULT_TOL_R = 1e-8
DEFAULT_MAX_ITER = 50
_MAX_HALVINGS = 10


@dataclass
class StateVector:
    """Pipe flows q (length L) and demand-node heads H (length N_p)."""

    q: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        if self.q.ndim != 1 or self.H.ndim != 1:
            raise ValueError("q and H must be 1-d vectors")
        if not (np.isfinite(self.q).all() and np.isfinite(self.H).all()):
            raise ValueError("state vector entries must be finite")

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.q, self.H])

    @classmethod
    def from_vector(cls, net: Network, vec: np.ndarray) -> "StateVector":
        vec = np.asarray(vec, dtype=float)
        return cls(vec[: net.n_pipes].copy(), vec[net.n_pipes :].copy())

    def copy(self) -> "StateVector":
        return StateVector(self.q.copy(), self.H.copy())


@dataclass
class SolveReport:
    state: StateVector
    iterations: int
    residual_norm: float
    converged: bool
    residual_history: list[float] = field(default_factory=list)


def initial_state(net: Network) -> StateVector:
    """Continuity-feasible start: demands routed up a spanning tree.

    Tree pipes carry their subtree's total demand, chords start at zero
    (the regularization floor keeps the linearization well-posed there),
    and heads start at the mean fixed head. A feasible start leaves only
    the energy rows for Newton to drive down, which is what makes the
    damped iteration dependable on loopy networks.
    """
    subtree = [n.demand if n.demand is not None else 0.0 for n in net.nodes]
    q = np.zeros(net.n_pipes)
    for node, up, j, sign in reversed(net.spanning_tree):
        q[j] += sign * subtree[node]
        subtree[up] += subtree[node]

    return StateVector(q, np.full(net.n_demand, float(np.mean(net.fixed_heads))))


def jacobian_coefficients(net: Network, q: np.ndarray) -> np.ndarray:
    """Diagonal of d(D(q)q)/dq: n_j * r_j * max(|q_j|, floor) ** (n_j - 1)."""
    q = np.asarray(q, dtype=float)
    return _kernels.loss_coefficients(
        q, net.exponent * net.resistance, net.exponent, FLOW_FLOOR
    )


def residual(net: Network, x: StateVector) -> np.ndarray:
    """Stacked (energy rows, continuity rows) residual; zero iff x solves
    the steady-state system."""
    energy = (
        headloss_coefficients(net, x.q) * x.q + net.a12.dot(x.H) + net.fixed_head_term
    )
    continuity = net.a12.tdot(x.q) - net.demand
    return np.concatenate([energy, continuity])


def solve_steady_state(
    net: Network,
    *,
    tol_r: float = DEFAULT_TOL_R,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveReport:
    """Newton iteration with a halving backtracking line search.

    The line search monitors the Euclidean residual norm (the smooth merit
    Newton directions are guaranteed to descend) and halves the step up to
    10 times when it would increase; convergence is declared on the
    residual max-norm dropping to tol_r. Deterministic for a given network
    and options. Raises NonConvergence after max_iter steps and
    SingularSystem if the linearization is rank-deficient.
    """
    x = initial_state(net)
    r = residual(net, x)
    merit = float(r @ r)
    norm = float(np.max(np.abs(r)))
    history = [norm]

    for iteration in range(1, max_iter + 1):
        if norm <= tol_r:
            return SolveReport(x, iteration - 1, norm, True, history)

        step = newton_step(net, jacobian_coefficients(net, x.q), r)

        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = StateVector(
                x.q + alpha * step[: net.n_pipes],
                x.H + alpha * step[net.n_pipes :],
            )
            cand_r = residual(net, candidate)
            cand_merit = float(cand_r @ cand_r)
            if cand_merit <= merit:
                break
            alpha *= 0.5

        x, r, merit = candidate, cand_r, cand_merit
        norm = float(np.max(np.abs(cand_r)))
        history.append(norm)

    if norm <= tol_r:
        return SolveReport(x, max_iter, norm, True, history)
    raise NonConvergence(max_iter, norm)
