"""Shared test utilities: seedable random connected networks, chains and
street grids, the topologies of the forest and loop-basis checks, exact
measurement synthesis, dense reference builds of the incidence, the loop
basis and the linearized systems, the start and the augmented residual of
one state vector, and the sweep and walk builds of the forest's unit
columns and loop entries."""

from pathlib import Path

import numpy as np

from hydrostate import Measurement, MeasurementSet, Network, Node, Pipe, StateVector
from hydrostate.estimator import _augmented_residuals
from hydrostate.hydraulics import initial_states, jacobian_coefficients, solve_steady_state
from hydrostate.network import Forest, Incidence, headloss_coefficients
from hydrostate.report_io import decode_network

DEMO_DIR = Path(__file__).resolve().parents[1] / "demo"


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


def theta_behind_reservoir() -> Network:
    """Reservoir r feeding demand node a, joined to demand node b by three
    parallel pipes: two loops, which share the tree pipe ab."""
    return Network(
        [
            Node("r", "fixed-head", head=100.0),
            Node("a", "demand", demand=1.0),
            Node("b", "demand", demand=1.0),
        ],
        [
            Pipe("ra", "r", "a", 1.0),
            Pipe("ab", "a", "b", 1.0),
            Pipe("ab2", "a", "b", 1.0),
            Pipe("ab3", "a", "b", 1.0),
        ],
    )


def with_reservoirs(net: Network, count: int) -> Network:
    """`net` with its first `count` nodes fixed-head and the others demand
    nodes (demand 1.0 where a node had none)."""
    nodes = [
        Node(n.id, "fixed-head", head=100.0 + i)
        if i < count
        else Node(n.id, "demand", demand=n.demand if n.demand is not None else 1.0)
        for i, n in enumerate(net.nodes)
    ]
    return Network(nodes, list(net.pipes))


# Topologies on which the spanning forest and its loop basis are checked:
# no loop, one loop, random networks with one and with two reservoirs, a
# pipe between two fixed-head nodes, and a reservoir that the spanning
# tree reaches in its middle, so that a second tree of the forest hangs
# below it and one loop runs between the two trees.
TOPOLOGIES = {
    "single pipe": lambda: decode_network((DEMO_DIR / "single_pipe.json").read_text()),
    "triangle": lambda: decode_network((DEMO_DIR / "triangle.json").read_text()),
    "random 3-30, 1 reservoir": lambda: with_reservoirs(random_network(3, 30), 1),
    "random 3-30, 2 reservoirs": lambda: with_reservoirs(random_network(3, 30), 2),
    "random 5-150, 1 reservoir": lambda: with_reservoirs(random_network(5, 150), 1),
    "random 5-150, 2 reservoirs": lambda: with_reservoirs(random_network(5, 150), 2),
    "pipe between reservoirs": lambda: Network(
        [
            Node("r1", "fixed-head", head=100.0),
            Node("r2", "fixed-head", head=90.0),
            Node("a", "demand", demand=1.0),
            Node("b", "demand", demand=2.0),
        ],
        [
            Pipe("p1", "r1", "a", 2.0),
            Pipe("p2", "r2", "b", 3.0),
            Pipe("p3", "a", "b", 4.0),
            Pipe("p4", "r1", "r2", 5.0),
        ],
    ),
    "reservoir mid-tree": lambda: Network(
        [
            Node("r1", "fixed-head", head=100.0),
            Node("a", "demand", demand=1.0),
            Node("r2", "fixed-head", head=95.0),
            Node("b", "demand", demand=2.0),
            Node("c", "demand", demand=0.5),
            Node("d", "demand", demand=1.5),
        ],
        [
            Pipe("p1", "r1", "a", 2.0),
            Pipe("p2", "a", "r2", 3.0),
            Pipe("p3", "r2", "b", 4.0),
            Pipe("p4", "b", "c", 5.0),
            Pipe("p5", "c", "a", 6.0),
            Pipe("p6", "b", "d", 7.0),
            Pipe("p7", "d", "r2", 8.0),
        ],
    ),
}

# The topologies above, and random networks of drawn size with one to three
# reservoirs, on which the incidence and the forest are checked against
# their earlier builds; with seed 12 and two or three reservoirs, pipes
# between reservoirs leave rows of A12 and of the chords with no entry.
STRUCTURE_NETWORKS = {
    **TOPOLOGIES,
    **{
        f"random {seed}, {count} reservoir(s)": (
            lambda seed=seed, count=count: with_reservoirs(random_network(seed), count)
        )
        for seed in (11, 12)
        for count in (1, 2, 3)
    },
}


def chain(n: int, chords, demand: float = 1.0) -> Network:
    """A reservoir r feeding demand nodes n1..n`n` in a chain, with one more
    pipe per (a, b) in `chords` between na and nb. Each pipe runs either way
    along the chain, drawn with its resistance."""
    rng = np.random.default_rng((103, n))
    ids = ["r"] + [f"n{i}" for i in range(1, n + 1)]
    nodes = [Node("r", "fixed-head", head=100.0)]
    nodes += [Node(i, "demand", demand=demand) for i in ids[1:]]
    ends = [(ids[i - 1], ids[i]) for i in range(1, n + 1)]
    ends += [(ids[a], ids[b]) for a, b in chords]
    return Network(nodes, _drawn_pipes(ends, rng))


def street_grid(n: int, reservoirs: int) -> Network:
    """An n x n street grid, its nodes g{i}_{j} in row-major order, of which
    the first `reservoirs` corners of (0, 0), (0, n-1), (n-1, 0) and
    (n-1, n-1) are fixed-head nodes and the rest demand nodes. The tree
    grows from (0, 0) and reaches the other reservoirs mid-tree. Each pipe
    runs either way along its street, drawn with its resistance."""
    rng = np.random.default_rng((104, n, reservoirs))
    corners = [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)][:reservoirs]
    nodes = [
        Node(f"g{i}_{j}", "fixed-head", head=100.0 + corners.index((i, j)))
        if (i, j) in corners
        else Node(f"g{i}_{j}", "demand", demand=float(rng.uniform(0.5, 2.5)))
        for i in range(n)
        for j in range(n)
    ]
    ends = [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(n) for j in range(n - 1)]
    ends += [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(n - 1) for j in range(n)]
    return Network(nodes, _drawn_pipes(ends, rng))


# Trees far deeper than those of STRUCTURE_NETWORKS (depth 12 at most), on
# which the forest is checked against its earlier builds: a long main whose
# chords close loops hundreds of pipes long, and a street grid whose other
# reservoirs cut the tree mid-way. Kept apart so the bound tests stay fast.
DEEP_NETWORKS = {
    "chain 400, 3 chords": lambda: chain(400, [(20, 250), (100, 400), (180, 320)]),
    "grid 12 x 12, 3 reservoirs": lambda: street_grid(12, 3),
}


def _drawn_pipes(ends, rng) -> list[Pipe]:
    """A pipe per (a, b) in `ends`, from a to b or from b to a."""
    pipes = []
    for a, b in ends:
        if rng.random() < 0.5:
            a, b = b, a
        pipes.append(_pipe(len(pipes), a, b, rng))
    return pipes


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


def dense_incidence(incidence: Incidence) -> np.ndarray:
    """The incidence as a read-only dense n_pipes x n_nodes array, from its
    entries (`pipe`, `node`, `sign`)."""
    out = np.zeros(incidence.shape)
    out[incidence.pipe, incidence.node] = incidence.sign
    out.setflags(write=False)
    return out


def incidence_matrices(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Signed incidence blocks (A12 over demand nodes, A10 over fixed), as
    dense reference matrices built from the network's `a12` and `a10`.

    Entry (j, i) is +1 when pipe j enters node i under the orientation
    convention and -1 when it leaves; each pipe row has exactly two
    nonzeros across (A12 | A10).
    """
    return dense_incidence(net.a12), dense_incidence(net.a10)


def loop_matrix(forest: Forest) -> np.ndarray:
    """The loop basis Z as a read-only dense n_pipes x n_loops array,
    from the forest's loop entries (pipe, loop, sign)."""
    pipe, loop, sign = forest._loops
    out = np.zeros((forest.tree_pipe.size + forest.cotree.size, forest.cotree.size))
    out[pipe, loop] = sign
    out.setflags(write=False)
    return out


def initial_state(net: Network) -> StateVector:
    """The solver's and the estimator's start on the network's own
    demands, `hydraulics.initial_states` of one member."""
    return StateVector.from_vector(net, initial_states(net, net.demand[None])[0])


def augmented_residual(net: Network, aug, x: StateVector) -> np.ndarray:
    """The (energy | continuity | telemetry) residual at one state vector
    x of the augmented system `aug`, with its own telemetry values."""
    return _augmented_residuals(
        net, aug.telemetry_columns, x.vector[None], aug.values[None]
    )[0]


def headloss_diagonal(net: Network, q: np.ndarray) -> np.ndarray:
    """The L x L diagonal loss matrix; row j of (this @ q) is the signed
    head loss across pipe j."""
    return np.diag(headloss_coefficients(net, q))


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
    newton = dense_newton_matrix(net, q)
    return np.vstack([newton, np.eye(newton.shape[1])[aug.telemetry_columns]])


def dense_normal_equations(
    matrix: np.ndarray, weights: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference Gram matrix A^T W A and right-hand side A^T W r, built
    densely from A (`matrix`), the weight diagonal and the residual r."""
    weighted_rows = matrix * weights[:, None]
    return matrix.T @ weighted_rows, weighted_rows.T @ r


def least_squares_reference(matrix: np.ndarray, weights: np.ndarray, rhs: np.ndarray):
    """The weighted least-squares solution of A x = rhs (rhs one vector or
    columns): an SVD-based `lstsq` on W^(1/2) A, no normal equations."""
    root_w = np.sqrt(weights)
    scaled = root_w[:, None] * rhs if rhs.ndim == 2 else root_w * rhs
    return np.linalg.lstsq(root_w[:, None] * matrix, scaled, rcond=None)[0]


def scaled_backward_error(matrix: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """max|matrix x - b| / (max|matrix| max|x| + max|b|)."""
    backward = np.max(np.abs(matrix @ x - b))
    scale = np.max(np.abs(matrix)) * max(np.max(np.abs(x)), 1e-30) + np.max(np.abs(b))
    return float(backward / scale)


def reference_unit_columns(forest, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Forest.unit_columns` as the bound first built them, with a sweep:
    the unit columns by comparing `order` with `nodes`, and their tree flows
    by a `Forest.tree_flows` sweep."""
    unit = (forest.order[:, None] == nodes).astype(float)
    return unit, forest.tree_flows(unit)


def reference_loop_entries(net: Network) -> list[tuple[int, int, float]]:
    """The forest's loop entries (pipe, loop, sign) as a Python walk builds
    them, one loop at a time: per co-tree pipe, the pipe, then the tree path
    between its ends, walked up from the deeper end until the ends meet or
    both have passed a root. Parents and depths come from the tree pipes."""
    forest = net.forest
    n_demand = forest.order.size
    row = {net.demand_nodes[i].id: p for p, i in enumerate(forest.order.tolist())}
    up, level = [], []
    for p, j in enumerate(forest.tree_pipe.tolist()):
        pipe = net.pipes[j]
        other = pipe.from_node if row.get(pipe.to_node) == p else pipe.to_node
        up.append(row.get(other, n_demand))
        level.append(level[up[p]] + 1 if up[p] < n_demand else 0)
    pipes, signs = forest.tree_pipe.tolist(), forest.sign[:, 0].tolist()
    level.append(-1)
    entries = []
    for loop, c in enumerate(forest.cotree.tolist()):
        entries.append((c, loop, 1.0))
        to, frm = (row.get(node_id, n_demand)
                   for node_id in (net.pipes[c].to_node, net.pipes[c].from_node))
        while to != frm:
            if level[to] >= level[frm]:
                entries.append((pipes[to], loop, -signs[to]))
                to = up[to]
            else:
                entries.append((pipes[frm], loop, signs[frm]))
                frm = up[frm]
    return entries
