"""Shared test utilities: seedable random connected networks, exact
measurement synthesis, and dense reference builds of the linearized
systems."""

import numpy as np

from hydrostate import Measurement, MeasurementSet, Network, Node, Pipe
from hydrostate.hydraulics import jacobian_coefficients, solve_steady_state
from hydrostate.network import incidence_matrices


def random_network(seed: int, n_nodes: int | None = None) -> Network:
    """Random connected network: a spanning tree plus extra edges.

    Node count defaults to a draw from [10, 30]; one or two fixed-head
    nodes, the rest demand nodes.
    """
    rng = np.random.default_rng((101, seed))
    n = int(n_nodes) if n_nodes is not None else int(rng.integers(10, 31))
    n_fixed = int(rng.integers(1, 3))

    nodes = []
    for i in range(n):
        if i < n_fixed:
            nodes.append(Node(f"t{i}", "fixed-head", head=float(rng.uniform(90, 110))))
        else:
            nodes.append(Node(f"n{i}", "demand", demand=float(rng.uniform(0.5, 2.5))))

    order = rng.permutation(n)
    pipes = []
    for k in range(1, n):
        a = nodes[order[int(rng.integers(0, k))]].id
        b = nodes[order[k]].id
        pipes.append(_pipe(len(pipes), a, b, rng))
    for _ in range(int(rng.integers(0, max(1, n // 2)))):
        a, b = rng.choice(n, size=2, replace=False)
        pipes.append(_pipe(len(pipes), nodes[a].id, nodes[b].id, rng))

    return Network(nodes, pipes)


def _pipe(index: int, a: str, b: str, rng) -> Pipe:
    return Pipe(
        f"p{index}",
        a,
        b,
        resistance=float(rng.uniform(1.0, 20.0)),
        exponent=1.852,
    )


def exact_measurements(
    net: Network,
    seed: int,
    *,
    n_flow: int = 2,
    n_head: int = 2,
    random_weights: bool = False,
) -> tuple[MeasurementSet, object]:
    """Measurement set whose values are exact forward-solve outputs.

    Returns (measurement set, true solve report)."""
    rng = np.random.default_rng((202, seed))
    truth = solve_steady_state(net)

    measurements = []
    for j in rng.choice(net.n_pipes, size=min(n_flow, net.n_pipes), replace=False):
        sigma = float(rng.uniform(0.01, 1.0)) if random_weights else 0.05
        measurements.append(
            Measurement("pipe-flow", net.pipes[j].id, float(truth.state.q[j]), sigma)
        )
    for i in rng.choice(net.n_demand, size=min(n_head, net.n_demand), replace=False):
        sigma = float(rng.uniform(0.01, 1.0)) if random_weights else 0.05
        measurements.append(
            Measurement(
                "node-head", net.demand_nodes[i].id, float(truth.state.H[i]), sigma
            )
        )
    demand_sigma = float(rng.uniform(0.01, 1.0)) if random_weights else 0.1
    return MeasurementSet(tuple(measurements), demand_sigma=demand_sigma), truth


def dense_newton_matrix(net: Network, q: np.ndarray) -> np.ndarray:
    """Reference Newton matrix [F A12; A12^T 0] at flows q, built densely."""
    a12, _ = incidence_matrices(net)
    n_p = net.n_demand
    return np.block(
        [
            [np.diag(jacobian_coefficients(net, q)), a12],
            [a12.T, np.zeros((n_p, n_p))],
        ]
    )


def dense_augmented_matrix(net: Network, aug, q: np.ndarray) -> np.ndarray:
    """Reference telemetry-augmented matrix: the Newton matrix over the
    telemetry selector rows."""
    return np.vstack(
        [dense_newton_matrix(net, q), np.hstack([aug.flow_selector, aug.head_selector])]
    )


class DenseNormalEquations:
    """Reference A^T W A and A^T W from dense matrices A and weights W.

    `matrix` is one matrix A or a stack of them, one per member. Has the
    member-stacked interface of `linearization.NormalEquations`; the
    matrices are already linearized, so the derivative diagonal argument
    is ignored.
    """

    def __init__(self, matrix: np.ndarray, weights: np.ndarray):
        self.matrices = np.asarray(matrix, dtype=float).reshape((-1,) + np.shape(matrix)[-2:])
        self.shape = self.matrices.shape[1:]
        self.weighted_rows = self.matrices * weights[:, None]

    def gram(self, jac=None) -> np.ndarray:
        return self.matrices.swapaxes(1, 2) @ self.weighted_rows

    def rhs(self, jac, r: np.ndarray) -> np.ndarray:
        return (self.weighted_rows.swapaxes(1, 2) @ r[:, :, None])[:, :, 0]

    def columns(self, jac, rows: np.ndarray) -> np.ndarray:
        return self.weighted_rows.swapaxes(1, 2)[:, :, rows]


def scaled_backward_error(matrix: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """max|matrix x - b| / (max|matrix| max|x| + max|b|)."""
    backward = np.max(np.abs(matrix @ x - b))
    scale = np.max(np.abs(matrix)) * max(np.max(np.abs(x)), 1e-30) + np.max(np.abs(b))
    return float(backward / scale)
