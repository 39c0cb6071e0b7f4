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
from dataclasses import dataclass

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
    the fixed-head nodes in sparse form, `fixed_head_term` is
    A10 @ fixed_heads, and `forest` is the breadth-first spanning tree cut
    at the fixed-head nodes with the loop basis of its co-tree (see
    `Forest`); they are built once per topology.
    """

    def __init__(self, nodes: list[Node], pipes: list[Pipe]):
        self.nodes = tuple(nodes)
        self.pipes = tuple(pipes)
        position = _validate(self.nodes, self.pipes)

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
        self.forest = Forest(self, position)

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

    def with_demands(self, demands: np.ndarray) -> "Network":
        """Copy of the network with the demand vector replaced.

        The copy shares this network's pipes, incidence and spanning
        forest: only demands change, so only they are validated again.
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
    """Signed incidence blocks (A12 over demand nodes, A10 over fixed), as
    dense reference matrices for checks and measurements.

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


class Incidence:
    """Signed incidence of the pipes on one node set, stored sparsely.

    One entry per pipe end that lies in the node set: the pipe, the node's
    index in the set, and the sign (-1 at the `from` end, +1 at the `to`
    end), in pipe order. As a matrix it is n_pipes x n_nodes with at most
    two nonzeros per row. Products gather the entries and sum them in entry
    order, so results are deterministic.
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
        # `_slots` tables of the entries by pipe (at most two rows, one per
        # pipe end in the set) and by node (one row per incident pipe, up
        # to the largest node degree), for the products.
        self._by_pipe = _slots(self.pipe, self.node, self.sign, self.shape[0])
        self._by_node = _slots(self.node, self.pipe, self.sign, self.shape[1])

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


class Forest:
    """The network's breadth-first spanning tree, rooted at the first
    fixed-head node, cut at the fixed-head nodes: a spanning forest of the
    demand nodes, with a root at every fixed-head node it touches, and the
    loop basis of the pipes left out of it. A network with a node that the
    tree cannot reach is rejected here, at /pipes.

    Each demand node has one tree pipe that joins it to its parent, so the
    incidence of the tree pipes on the demand nodes, A12_T, is square. The
    forest keeps the demand nodes in the tree's visiting order, `order`:
    there, every depth is a contiguous run, and the children of each parent
    are contiguous too. Row p of A12_T, for the node order[p] and its pipe
    `tree_pipe[p]`, reads sign[p] (H_p - H_parent), with no parent term
    below a fixed-head node (`sign` is a column). Solves with A12_T and
    A12_T^T are therefore two sweeps over the depths, a few array operations
    per depth (`path_sums`, `tree_flows`). Their arguments and results hold
    column blocks (..., N_p, k) with rows in `order`. Every depth adds in a
    fixed order, so results are deterministic, and the same for each member
    of a stack as on its own.

    The other pipes, `cotree`, include the pipes that end at a fixed-head
    node other than a root and the pipes between two fixed-head nodes; their
    incidence on the demand nodes, rows in `order`, is `chords` (A12_C).
    Co-tree pipe c spans loop column c of Z = [Z_T; I]: the unit entry on c
    plus the tree flows -(A12_T^T)^-1 A12[c]^T, the tree path that closes c
    into a loop or joins its ends to fixed-head nodes. So A12^T Z = 0, and
    Z^T F Z is symmetric positive definite for every positive diagonal F
    (`loop_gram`).
    """

    def __init__(self, net: Network, position: dict[str, int]):
        # Breadth-first spanning tree from the first fixed-head node, each
        # node's pipes taken in pipe order: one (node, parent, pipe, sign)
        # per tree pipe in visiting order, nodes as positions in `nodes`
        # (`position` maps ids to them) and sign +1 where the pipe leaves
        # the parent; and each node's depth.
        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in net.nodes]
        for j, pipe in enumerate(net.pipes):
            a, b = position[pipe.from_node], position[pipe.to_node]
            adjacency[a].append((j, b, +1.0))
            adjacency[b].append((j, a, -1.0))
        root = position[net.fixed_nodes[0].id]
        visit, depth_of, tree = [root], {root: 0}, []
        for up in visit:
            for j, node, sign in adjacency[up]:
                if node not in depth_of:
                    depth_of[node] = depth_of[up] + 1
                    visit.append(node)
                    tree.append((node, up, j, sign))
        if len(visit) < len(net.nodes):
            missing = sorted(n.id for i, n in enumerate(net.nodes) if i not in depth_of)
            raise ValidationError(
                "/pipes", "connected graph",
                f"unreachable node(s) {', '.join(repr(m) for m in missing)}",
            )

        # The demand nodes' tree pipes; `sweep` maps each demand node to its
        # position in `order`, and parents that are fixed-head nodes map to
        # n_demand, a zero row in the sweeps.
        tree = [e for e in tree if net.nodes[e[0]].kind == KIND_DEMAND]
        n_demand = len(tree)
        sweep = {net.nodes[e[0]].id: p for p, e in enumerate(tree)}
        self.order = np.array([net.demand_index(net.nodes[e[0]].id) for e in tree], dtype=np.intp)
        self.tree_pipe = np.array([e[2] for e in tree], dtype=np.intp)
        self.sign = np.array([e[3] for e in tree])[:, None]
        parent = np.array([sweep.get(net.nodes[e[1]].id, n_demand) for e in tree], dtype=np.intp)
        depth = np.array([depth_of[e[0]] for e in tree], dtype=np.intp)

        # Per depth with a demand parent: its run of nodes, their parents,
        # and where each parent's run of children starts.
        self._levels = []
        for d in range(1, int(depth.max()) + 1):
            lo, hi = np.searchsorted(depth, [d, d + 1])
            parents = parent[lo:hi]
            if (parents < n_demand).any():
                starts = np.flatnonzero(np.diff(parents, prepend=-1))
                self._levels.append((lo, hi, parents, starts, parents[starts]))

        in_tree = np.zeros(net.n_pipes, dtype=bool)
        in_tree[self.tree_pipe] = True
        self.cotree = np.flatnonzero(~in_tree)
        self.chords = Incidence([net.pipes[c] for c in self.cotree], sweep)

        # Loop entries (pipe, loop, sign), loop by loop: the co-tree pipe,
        # then the tree path between its ends, walked up from the deeper end
        # until the ends meet or both have passed a root.
        up, pipes, signs = parent.tolist(), self.tree_pipe.tolist(), self.sign[:, 0].tolist()
        level = depth.tolist() + [-1]
        entries = []
        for loop, c in enumerate(self.cotree.tolist()):
            entries.append((c, loop, 1.0))
            to, frm = (sweep.get(node_id, n_demand)
                       for node_id in (net.pipes[c].to_node, net.pipes[c].from_node))
            while to != frm:
                if level[to] >= level[frm]:
                    entries.append((pipes[to], loop, -signs[to]))
                    to = up[to]
                else:
                    entries.append((pipes[frm], loop, signs[frm]))
                    frm = up[frm]
        pipe = np.array([e[0] for e in entries], dtype=np.intp)
        loop = np.array([e[1] for e in entries], dtype=np.intp)
        loop_sign = np.array([e[2] for e in entries])
        self._loops = (pipe, loop, loop_sign)
        self._gram_terms = _loop_gram_terms(pipe, loop, loop_sign, net.n_pipes, self.cotree.size)
        for arr in (self.order, self.tree_pipe, self.sign, self.cotree, pipe, loop, loop_sign):
            arr.setflags(write=False)

    def path_sums(self, b: np.ndarray) -> np.ndarray:
        """A12_T^-1 b, root down: per demand node, the signed sum of b over
        the tree pipes from its root to the node."""
        n = self.order.size
        out = np.zeros(b.shape[:-2] + (n + 1, b.shape[-1]))
        np.multiply(b, self.sign, out=out[..., :n, :])
        for lo, hi, parents, _, _ in self._levels:
            out[..., lo:hi, :] += out[..., parents, :]
        return out[..., :n, :]

    def tree_flows(self, c: np.ndarray) -> np.ndarray:
        """(A12_T^T)^-1 c, leaves up: per tree pipe, the signed sum of c
        over the subtree the pipe feeds."""
        n = self.order.size
        out = np.empty(c.shape[:-2] + (n + 1, c.shape[-1]))
        out[..., :n, :] = c
        out[..., n, :] = 0.0
        for lo, hi, _, starts, parents in reversed(self._levels):
            out[..., parents, :] += np.add.reduceat(out[..., lo:hi, :], starts, axis=-2)
        out = out[..., :n, :]
        out *= self.sign
        return out

    def loop_gram(self, weights: np.ndarray) -> np.ndarray:
        """The lower triangles of Z^T diag(w) Z (members x n_loops x
        n_loops, upper triangles zero), for pipe weights w (members x
        n_pipes). Each entry sums w over the pipes its two loops share, in
        a fixed order."""
        signed_pipe, starts, flat = self._gram_terms
        n = self.cotree.size
        signed = np.concatenate([weights, -weights], axis=-1)
        gram = np.zeros((weights.shape[0], n * n))
        gram[:, flat] = np.add.reduceat(signed[:, signed_pipe], starts, axis=-1)
        return gram.reshape(weights.shape[0], n, n)

    def loop_matrix(self) -> np.ndarray:
        """Z as a read-only dense n_pipes x n_loops array (a reference for
        checks; the solves never form it)."""
        pipe, loop, sign = self._loops
        out = np.zeros((self.tree_pipe.size + self.cotree.size, self.cotree.size))
        out[pipe, loop] = sign
        out.setflags(write=False)
        return out


def _loop_gram_terms(pipe, loop, sign, n_pipes, n_loops):
    """The terms of `Forest.loop_gram`: for every pair of loop entries on
    one pipe with loop a >= loop b, the pipe (offset by n_pipes where the
    signs differ), sorted by the flat index a * n_loops + b of the entry
    they add to; where each entry's run of terms starts; and the entries.

    The pair arrays are the largest this builds (about n_loops^2 / 2
    pairs on networks whose loops share the pipes near a root), so the
    pair indices, which are not kept, are int32.
    """
    order = np.lexsort((loop, pipe))
    pipe, loop, negative = pipe[order], loop[order], sign[order] < 0
    start = np.searchsorted(pipe, pipe)
    count = np.arange(pipe.size) - start + 1  # entries at or before this one on its pipe
    first = np.repeat(np.arange(pipe.size, dtype=np.int32), count)
    second = np.arange(first.size, dtype=np.int32)
    second += np.repeat((start - np.cumsum(count) + count).astype(np.int32), count)
    flat = loop[first] * n_loops
    flat += loop[second]
    signed_pipe = pipe[first]
    signed_pipe[negative[first] != negative[second]] += n_pipes
    del first, second
    order = np.argsort(flat, kind="stable")
    flat, signed_pipe = flat[order], signed_pipe[order]
    starts = np.flatnonzero(np.diff(flat, prepend=-1))
    return signed_pipe, starts, flat[starts]


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


def _validate_demand(i, node):
    if not node.demand >= 0:
        raise ValidationError(
            f"/nodes/{i}/demand", "demand >= 0", f"{node.demand} on node {node.id!r}"
        )


def _validate(nodes, pipes) -> dict[str, int]:
    """Checks the nodes and pipes, all but connectivity (see `Forest`), and
    returns the map from node id to position."""
    position: dict[str, int] = {}
    for i, node in enumerate(nodes):
        if node.id in position:
            raise ValidationError(
                f"/nodes/{i}/id", "unique node id", f"duplicate id {node.id!r}"
            )
        position[node.id] = i
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

    seen_pipes = set()
    for j, pipe in enumerate(pipes):
        if pipe.id in seen_pipes:
            raise ValidationError(
                f"/pipes/{j}/id", "unique pipe id", f"duplicate id {pipe.id!r}"
            )
        seen_pipes.add(pipe.id)
        for key, endpoint in (("from", pipe.from_node), ("to", pipe.to_node)):
            if endpoint not in position:
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
    return position
