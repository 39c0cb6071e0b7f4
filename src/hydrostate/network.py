"""Pipe-network data model, validation, and structural matrices.

A network is a directed multigraph of demand nodes (known consumption,
unknown head) and fixed-head nodes (reservoirs), connected by pipes that
lose head according to a per-pipe monomial law

    h_j = r_j * q_j * |q_j| ** (n_j - 1),       n_j > 1.

Pipe orientation fixes the flow sign: q_j > 0 means flow from `from` to
`to`. Incidence columns carry +1 where a pipe enters a node and -1 where it
leaves, which makes the continuity rows read A12^T q = Q directly.
"""

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import ValidationError

DEFAULT_EXPONENT = 1.852

# Regularization floor on |q| used by the loss law and its derivative; keeps
# the linearized system well-posed at zero flow.
FLOW_FLOOR = 1e-6

KIND_DEMAND = "demand"
KIND_FIXED = "fixed-head"


@dataclass(frozen=True)
class Node:
    id: str
    kind: str
    head: float | None = None
    demand: float | None = None


@dataclass(frozen=True)
class Pipe:
    id: str
    from_node: str
    to_node: str
    resistance: float
    exponent: float = DEFAULT_EXPONENT


class Network:
    """Validated immutable network with precomputed index arrays.

    Node and pipe ordering is the construction order; it defines the
    canonical ordering of the unknowns (q in pipe order, H in demand-node
    order). `a12` and `a10` hold the signed incidence on the demand and on
    the fixed-head nodes in sparse form, and `fixed_head_term` is
    A10 @ fixed_heads; they are built once per topology.
    """

    def __init__(self, nodes: list[Node], pipes: list[Pipe]):
        self.nodes = tuple(nodes)
        self.pipes = tuple(pipes)
        _validate(self.nodes, self.pipes)

        self.demand_nodes = tuple(n for n in self.nodes if n.kind == KIND_DEMAND)
        self.fixed_nodes = tuple(n for n in self.nodes if n.kind == KIND_FIXED)
        self._demand_index = {n.id: i for i, n in enumerate(self.demand_nodes)}
        self._fixed_index = {n.id: i for i, n in enumerate(self.fixed_nodes)}
        self._pipe_index = {p.id: j for j, p in enumerate(self.pipes)}

        self.demand = np.array([n.demand for n in self.demand_nodes], dtype=float)
        self.fixed_heads = np.array([n.head for n in self.fixed_nodes], dtype=float)
        self.resistance = np.array([p.resistance for p in self.pipes], dtype=float)
        self.exponent = np.array([p.exponent for p in self.pipes], dtype=float)

        self.a12 = Incidence(self.pipes, self._demand_index)
        self.a10 = Incidence(self.pipes, self._fixed_index)
        # A10 @ fixed_heads: the fixed-head term of every energy row.
        self.fixed_head_term = self.a10.dot(self.fixed_heads)
        for arr in (
            self.demand, self.fixed_heads, self.resistance, self.exponent,
            self.fixed_head_term,
        ):
            arr.setflags(write=False)

    @property
    def n_pipes(self) -> int:
        return len(self.pipes)

    @property
    def n_demand(self) -> int:
        return len(self.demand_nodes)

    @property
    def n_fixed(self) -> int:
        return len(self.fixed_nodes)

    def pipe_index(self, pipe_id: str) -> int:
        return self._pipe_index[pipe_id]

    def demand_index(self, node_id: str) -> int:
        return self._demand_index[node_id]

    def has_pipe(self, pipe_id: str) -> bool:
        return pipe_id in self._pipe_index

    def has_demand_node(self, node_id: str) -> bool:
        return node_id in self._demand_index

    @cached_property
    def spanning_tree(self) -> tuple[tuple[int, int, int, float], ...]:
        """Breadth-first spanning tree rooted at the first fixed-head node.

        One (node, parent, pipe, sign) tuple per tree pipe in visiting
        order, nodes as positions in `nodes`; sign is +1 when the pipe is
        oriented from the parent to the node.
        """
        position = {n.id: i for i, n in enumerate(self.nodes)}
        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in self.nodes]
        for j, pipe in enumerate(self.pipes):
            a, b = position[pipe.from_node], position[pipe.to_node]
            adjacency[a].append((j, b, +1.0))
            adjacency[b].append((j, a, -1.0))
        root = position[self.fixed_nodes[0].id]
        order, seen, edges = [root], {root}, []
        for node in order:
            for j, other, sign in adjacency[node]:
                if other not in seen:
                    seen.add(other)
                    order.append(other)
                    edges.append((other, node, j, sign))
        return tuple(edges)

    def with_demands(self, demands: np.ndarray) -> "Network":
        """Copy of the network with the demand vector replaced.

        The copy shares this network's pipes, incidence and spanning tree:
        only demands change, so only they are validated again.
        """
        demands = np.asarray(demands, dtype=float)
        if demands.shape != (self.n_demand,):
            raise ValueError(
                f"expected {self.n_demand} demands, got shape {demands.shape}"
            )
        new_nodes = list(self.nodes)
        k = 0
        for i, node in enumerate(self.nodes):
            if node.kind == KIND_DEMAND:
                new_nodes[i] = Node(node.id, node.kind, demand=float(demands[k]))
                _validate_demand(i, new_nodes[i])
                k += 1
        new = copy.copy(self)
        new.nodes = tuple(new_nodes)
        new.demand_nodes = tuple(n for n in new.nodes if n.kind == KIND_DEMAND)
        new.demand = np.array(demands)
        new.demand.setflags(write=False)
        return new


def parse_network(text: str) -> Network:
    """Build a validated Network from network-file JSON text."""
    from .report_io import decode_network

    return decode_network(text)


def incidence_matrices(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """Signed incidence blocks (A12 over demand nodes, A10 over fixed).

    Entry (j, i) is +1 when pipe j enters node i under the orientation
    convention and -1 when it leaves; each pipe row has exactly two
    nonzeros across (A12 | A10). Built densely on each call from the
    network's sparse incidence; the solver stages never form them.
    """
    return net.a12.dense(), net.a10.dense()


def headloss_coefficients(net: Network, q: np.ndarray) -> np.ndarray:
    """Diagonal entries r_j * max(|q_j|, floor) ** (n_j - 1), over the last
    axis of q."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (net.n_pipes,):
        raise ValueError(f"expected {net.n_pipes} flows, got shape {q.shape}")
    return _kernels.loss_coefficients(q, net.resistance, net.exponent, FLOW_FLOOR)


def headloss_diagonal(net: Network, q: np.ndarray) -> np.ndarray:
    """The L x L diagonal loss matrix; row j of (this @ q) is the signed
    head loss across pipe j."""
    return np.diag(headloss_coefficients(net, q))


class Incidence:
    """Signed incidence of the pipes on one node set, stored sparsely.

    One entry per pipe end that lies in the node set: the pipe, the node's
    index in the set, and the sign (-1 at the `from` end, +1 at the `to`
    end), in pipe order. As a matrix it is n_pipes x n_nodes with at most
    two nonzeros per row. Products gather the entries, and Gram matrices
    are assembled from them with `np.bincount`; both sum in entry order, so
    results are deterministic.
    """

    def __init__(self, pipes, index: dict[str, int]):
        entries = [
            (j, index[node_id], sign)
            for j, p in enumerate(pipes)
            for node_id, sign in ((p.from_node, -1.0), (p.to_node, +1.0))
            if node_id in index
        ]
        self.shape = (len(pipes), len(index))
        self.pipe = np.array([e[0] for e in entries], dtype=np.intp)
        self.node = np.array([e[1] for e in entries], dtype=np.intp)
        self.sign = np.array([e[2] for e in entries], dtype=float)
        for arr in (self.pipe, self.node, self.sign):
            arr.setflags(write=False)

    def dense(self) -> np.ndarray:
        """The incidence as a read-only dense n_pipes x n_nodes array."""
        out = np.zeros(self.shape)
        out[self.pipe, self.node] = self.sign
        out.setflags(write=False)
        return out

    def dot(self, v: np.ndarray, axis: int = -1) -> np.ndarray:
        """A @ v: per pipe, the signed sum of v over its ends in the set.

        Like the other products, it maps one axis of its argument, the last
        by default, so members stacked along leading axes are multiplied at
        once; with axis=-2 it multiplies column blocks (..., n_nodes, k).
        """
        return _gather_sum(*self._by_pipe, v, axis)

    def tdot(self, u: np.ndarray, axis: int = -1) -> np.ndarray:
        """A^T @ u: per node, the signed sum of u over its incident pipes,
        along `axis` as for `dot`."""
        return _gather_sum(*self._by_node, u, axis)

    def node_gram(self, w: np.ndarray) -> np.ndarray:
        """A^T diag(w) A, dense n_nodes x n_nodes: a weighted graph
        Laplacian of the set, grounded at the nodes outside it."""
        index, sign, pipe = self._node_pairs
        n = self.shape[1]
        gram = member_bincount(index, sign * w[..., pipe], n * n)
        return gram.reshape(gram.shape[:-1] + (n, n))

    @cached_property
    def _by_pipe(self) -> tuple[np.ndarray, np.ndarray]:
        """Node and sign of each pipe's entries, as `_slots` tables: at
        most two rows, one per pipe end in the set."""
        return _slots(self.pipe, self.node, self.sign, self.shape[0])

    @cached_property
    def _by_node(self) -> tuple[np.ndarray, np.ndarray]:
        """Pipe and sign of each node's entries, as `_slots` tables: one
        row per incident pipe, up to the largest node degree."""
        return _slots(self.node, self.pipe, self.sign, self.shape[1])

    @cached_property
    def _node_pairs(self):
        """Flat entry of A^T A, sign product and pipe of each pair of ends
        of one pipe."""
        a, b = _entry_pairs(self.pipe)
        index = self.node[a] * self.shape[1] + self.node[b]
        return index, self.sign[a] * self.sign[b], self.pipe[a]


def member_bincount(index: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """np.bincount(index, weights, minlength=length) over the last axis of
    `weights`, for every member stacked along its leading axes.

    One bincount serves all members: member s adds s * length to its bins.
    Each bin still sums its entries in entry order, so every member's sums
    are those of its own bincount, bit for bit.
    """
    lead = weights.shape[:-1]
    members = math.prod(lead)
    index = (np.arange(members)[:, None] * length + index).reshape(-1)
    out = np.bincount(index, weights=weights.reshape(-1), minlength=members * length)
    return out.reshape(lead + (length,))


def _slots(groups: np.ndarray, other: np.ndarray, sign: np.ndarray, size: int):
    """Padded tables of the entries of each of `size` groups: row k holds,
    per group, the `other` index and the sign of its k-th entry in entry
    order, or index 0 and sign 0 where the group has fewer entries."""
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    rank = np.arange(grouped.size) - np.searchsorted(grouped, grouped)
    index = np.zeros((np.max(rank, initial=0) + 1, size), dtype=np.intp)
    signs = np.zeros(index.shape)
    index[rank, grouped] = other[order]
    signs[rank, grouped] = sign[order]
    return index, signs


def _gather_sum(index: np.ndarray, sign: np.ndarray, v: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the rows k of `_slots` tables of sign[k] * v[index[k]]
    along the (negative) `axis` of v: a sparse product by gathers alone,
    with no index array per stacked vector. The rows add in entry order,
    so results are deterministic."""
    shape = (-1,) + (1,) * (-1 - axis)
    tail = (slice(None),) * (-1 - axis)
    out = v[(Ellipsis, index[0], *tail)]
    out *= sign[0].reshape(shape)
    for k in range(1, index.shape[0]):
        term = v[(Ellipsis, index[k], *tail)]
        term *= sign[k].reshape(shape)
        out += term
    return out


def _entry_pairs(groups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entry indices (a, b) of every ordered pair with groups[a] == groups[b],
    a == b included, grouped and in entry order within each group."""
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    start = np.searchsorted(grouped, grouped)
    size = np.searchsorted(grouped, grouped, side="right") - start
    first = np.repeat(np.arange(grouped.size), size)
    offset = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    second = np.repeat(start, size) + offset
    return order[first], order[second]


def _validate_demand(i, node):
    if node.demand < 0:
        raise ValidationError(
            f"/nodes/{i}/demand", "demand >= 0", f"{node.demand} on node {node.id!r}"
        )


def _validate(nodes, pipes):
    seen = set()
    for i, node in enumerate(nodes):
        if node.id in seen:
            raise ValidationError(
                f"/nodes/{i}/id", "unique node id", f"duplicate id {node.id!r}"
            )
        seen.add(node.id)
        if node.kind == KIND_DEMAND:
            if node.demand is None or node.head is not None:
                raise ValidationError(
                    f"/nodes/{i}", "demand node with demand only",
                    f"node {node.id!r} fields do not match kind",
                )
            _validate_demand(i, node)
        elif node.kind == KIND_FIXED:
            if node.head is None or node.demand is not None:
                raise ValidationError(
                    f"/nodes/{i}", "fixed-head node with head only",
                    f"node {node.id!r} fields do not match kind",
                )
        else:
            raise ValidationError(
                f"/nodes/{i}/kind", "'demand' or 'fixed-head'", repr(node.kind)
            )

    ids = {n.id for n in nodes}
    seen_pipes = set()
    for j, pipe in enumerate(pipes):
        if pipe.id in seen_pipes:
            raise ValidationError(
                f"/pipes/{j}/id", "unique pipe id", f"duplicate id {pipe.id!r}"
            )
        seen_pipes.add(pipe.id)
        for key, endpoint in (("from", pipe.from_node), ("to", pipe.to_node)):
            if endpoint not in ids:
                raise ValidationError(
                    f"/pipes/{j}/{key}", "existing node id",
                    f"unknown node {endpoint!r} on pipe {pipe.id!r}",
                )
        if pipe.from_node == pipe.to_node:
            raise ValidationError(
                f"/pipes/{j}", "distinct endpoints",
                f"pipe {pipe.id!r} is a self-loop on {pipe.from_node!r}",
            )
        if not pipe.resistance > 0:
            raise ValidationError(
                f"/pipes/{j}/resistance", "resistance > 0",
                f"{pipe.resistance} on pipe {pipe.id!r}",
            )
        if not pipe.exponent > 1:
            raise ValidationError(
                f"/pipes/{j}/exponent", "exponent > 1",
                f"{pipe.exponent} on pipe {pipe.id!r}",
            )

    if not any(n.kind == KIND_FIXED for n in nodes):
        raise ValidationError("/nodes", "at least one fixed-head node", "none")
    if not any(n.kind == KIND_DEMAND for n in nodes):
        raise ValidationError("/nodes", "at least one demand node", "none")

    # Connectivity over the undirected graph.
    adjacency: dict[str, set[str]] = {n.id: set() for n in nodes}
    for pipe in pipes:
        adjacency[pipe.from_node].add(pipe.to_node)
        adjacency[pipe.to_node].add(pipe.from_node)
    start = nodes[0].id
    reached = {start}
    stack = [start]
    while stack:
        for neighbour in adjacency[stack.pop()]:
            if neighbour not in reached:
                reached.add(neighbour)
                stack.append(neighbour)
    if len(reached) < len(nodes):
        missing = sorted(ids - reached)
        raise ValidationError(
            "/pipes", "connected graph",
            f"unreachable node(s) {', '.join(repr(m) for m in missing)}",
        )
