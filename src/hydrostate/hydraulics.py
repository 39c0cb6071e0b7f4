"""Damped Newton solution of the nonlinear steady-state network system.

Unknowns are x = (q, H): all pipe flows followed by all demand-node heads.
The residual stacks one energy row per pipe over one continuity row per
demand node,

    [ D(q) q + A12 H + A10 Hf ]      D(q) = diag(r_j max(|q_j|, eps)^(n_j-1))
    [ A12^T q - Q             ]

and the Newton matrix replaces D(q) with the derivative diagonal
d(D(q)q)/dq = diag(n_j r_j max(|q_j|, eps)^(n_j-1)); `linearization`
solves each Newton step without forming that matrix.

`solve_members` runs the iteration in lockstep for members that share the
network's topology and differ in their demands; `solve_steady_state` is
its single-member case. It hands its start residual, Newton step and
halving line search to the driver `linearization._lockstep`, which owns
the checks, active set, failures, history, counts and stop test.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .linearization import _lockstep, newton_step
from .network import FLOW_FLOOR, Network, headloss_coefficients

DEFAULT_TOL_R = 1e-8
DEFAULT_MAX_ITER = 50
_MAX_HALVINGS = 10


@dataclass(eq=False)
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
    """Continuity-feasible start: the demands routed up the spanning
    forest (`network.Forest`).

    Each tree pipe carries the total demand of the subtree it feeds, so
    every fixed-head node supplies the subtrees hanging below it; co-tree
    pipes start at zero (the regularization floor keeps the linearization
    well-posed there), and heads start at the mean fixed head. A feasible
    start leaves only the energy rows for Newton to drive down, which is
    what makes the damped iteration dependable on loopy networks.
    """
    return StateVector.from_vector(net, initial_states(net, net.demand[None])[0])


def initial_states(net: Network, demand: np.ndarray) -> np.ndarray:
    """`initial_state` as stacked vectors x = (q, H), one row per row of
    `demand` (members x N_p): the tree flows (A12_T^T)^-1 of the demands."""
    forest = net.forest
    x = np.zeros((demand.shape[0], net.n_pipes + net.n_demand))
    x[:, forest.tree_pipe] = forest.tree_flows(demand[:, forest.order, None])[..., 0]
    x[:, net.n_pipes :] = np.mean(net.fixed_heads)
    return x


def jacobian_coefficients(net: Network, q: np.ndarray) -> np.ndarray:
    """Diagonal of d(D(q)q)/dq: n_j * r_j * max(|q_j|, floor) ** (n_j - 1),
    over the last axis of q."""
    q = np.asarray(q, dtype=float)
    return _kernels.loss_coefficients(
        q, net.exponent * net.resistance, net.exponent, FLOW_FLOOR
    )


def residual(net: Network, x: StateVector) -> np.ndarray:
    """Stacked (energy rows, continuity rows) residual; zero iff x solves
    the steady-state system."""
    return member_residuals(net, x.vector[None], net.demand[None])[0]


def member_residuals(net: Network, x: np.ndarray, demand: np.ndarray) -> np.ndarray:
    """`residual` of stacked state vectors x = (q, H) (members x
    (L + N_p)), each with its own demands (members x N_p)."""
    q, H = x[:, : net.n_pipes], x[:, net.n_pipes :]
    energy = headloss_coefficients(net, q) * q + net.a12.dot(H) + net.fixed_head_term
    continuity = net.a12.tdot(q) - demand
    return np.concatenate([energy, continuity], axis=1)


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
    x, iterations, history, failures = solve_members(
        net, net.demand[None], tol_r=tol_r, max_iter=max_iter
    )
    if failures:
        raise failures.pop(0)  # a local left holding it would form a cycle with its traceback
    norms = history[:, 0].tolist()
    state = StateVector.from_vector(net, x[0])
    return SolveReport(state, int(iterations[0]), norms[-1], True, norms)


def solve_members(
    net: Network,
    demand: np.ndarray,
    *,
    tol_r: float = DEFAULT_TOL_R,
    max_iter: int = DEFAULT_MAX_ITER,
):
    """`solve_steady_state` in lockstep for members that differ only in
    their demands (members x N_p), each with its own line search and
    failures (NonConvergence or SingularSystem). Returns as
    `linearization._lockstep` does, with the residual max-norm at the start
    and after each iteration as the history.
    """
    x = initial_states(net, demand)
    r = member_residuals(net, x, demand)
    merit = _squared_norms(r)

    def step(active):
        return newton_step(
            net, jacobian_coefficients(net, x[active, : net.n_pipes]), r[active]
        )

    def advance(active, steps):
        # Halving line search: a member stops at its first candidate that
        # does not raise the merit, or else takes its last candidate.
        base, base_merit = x[active], merit[active]
        alpha = np.ones(active.size)
        searching = np.arange(active.size)
        for _ in range(_MAX_HALVINGS + 1):
            moved = active[searching]
            candidate = base[searching] + alpha[searching, None] * steps[searching]
            cand_r = member_residuals(net, candidate, demand[moved])
            cand_merit = _squared_norms(cand_r)
            x[moved], r[moved], merit[moved] = candidate, cand_r, cand_merit
            searching = searching[~(cand_merit <= base_merit[searching])]
            if not searching.size:
                break
            alpha[searching] *= 0.5
        return np.max(np.abs(r[active]), axis=1)

    return _lockstep(x, step, advance, "tol_r", tol_r, max_iter, np.max(np.abs(r), axis=1))


def _squared_norms(r: np.ndarray) -> np.ndarray:
    """Per row, r @ r, by the same dot product as for a single vector."""
    return np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0]
