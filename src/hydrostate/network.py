"""Pipe-network data model, validation, and structural matrices.

A network is a directed multigraph of demand nodes (known consumption,
unknown head) and fixed-head nodes (reservoirs), connected by pipes that
lose head according to a per-pipe monomial law

    h_j = r_j * q_j * |q_j| ** (n_j - 1),       n_j > 1.

Pipe orientation fixes the flow sign: q_j > 0 means flow from `from` to
`to`. Incidence columns carry +1 where a pipe enters a node and -1 where it
leaves, which makes the continuity rows read A12^T q = Q directly. The
incidence is kept as its entries (`Incidence`), and each of its products
is one sum over the entries, in entry order.
"""

import copy
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress, repeat

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
    order), which `unknowns` names. The entries are kept as columns, and
    the `nodes`, `pipes` and `demand_nodes` tuples are built when first
    read. One array pass checks every entry; the duplicate-id test,
    `check_node` or `check_pipe` runs on the first one it flags only.
    `a12` and `a10` hold the signed incidence on the demand and on the
    fixed-head nodes in sparse form, `fixed_head_term` is A10 @ fixed_heads,
    and `forest` is the breadth-first spanning tree cut at the fixed-head
    nodes with the loop basis of its co-tree (see `Forest`); they are built
    once per topology.
    """

    def __init__(self, nodes: list[Node], pipes: list[Pipe]):
        self.nodes, self.pipes = tuple(nodes), tuple(pipes)
        ids, kinds, heads, demands = _fields(Node, self.nodes)
        i = self._node_pass(ids, kinds, _numbers(heads), _numbers(demands))
        if i < len(self.nodes):
            self._check_unique("nodes", i)
            check_node(self.nodes[i], f"/nodes/{i}")
        ids, frm, to, resistances, exponents = _fields(Pipe, self.pipes)
        i = self._pipe_pass(ids, frm, to, _numbers(resistances), _numbers(exponents))
        if i < len(self.pipes):
            self._check_unique("pipes", i)
            check_pipe(self.pipes[i], self._position, f"/pipes/{i}")
        self._build()

    def _node_pass(self, ids, kinds, heads, demands) -> int:
        """Sets the node columns from the nodes' fields (None where absent);
        returns the first node that `check_node` rejects or whose id repeats
        an earlier one, or the node count where there is none."""
        self._node_ids, self._position = tuple(ids), dict(zip(ids, range(len(ids))))
        self._is_demand = is_demand = np.array([kind == KIND_DEMAND for kind in kinds], dtype=bool)
        is_fixed = np.array([kind == KIND_FIXED for kind in kinds], dtype=bool)
        has_head = np.array([value is not None for value in heads], dtype=bool)
        has_demand = np.array([value is not None for value in demands], dtype=bool)
        head, demand = np.array(heads, dtype=float), np.array(demands, dtype=float)
        self.demand, self.fixed_heads = demand[is_demand], head[~is_demand]
        # A field that is None reads as NaN, which fails every bound.
        ok = np.where(
            is_demand, ~has_head & (demand >= 0) & (demand < np.inf),
            is_fixed & ~has_demand & np.isfinite(head),
        )
        return _first_fault(ok, ids, self._position)

    def _pipe_pass(self, ids, frm, to, resistances, exponents) -> int:
        """Sets the pipe columns from the pipes' fields; returns the first
        pipe that `check_pipe` rejects against the node columns or whose id
        repeats an earlier one, or the pipe count where there is none."""
        self._pipe_ids, self._pipe_index = tuple(ids), dict(zip(ids, range(len(ids))))
        self._ends = ends = np.empty((len(ids), 2), dtype=np.intp)
        for end, keys in enumerate((frm, to)):
            ends[:, end] = np.fromiter(map(self._position.get, keys, repeat(-1)), np.intp)
        self.resistance = r = np.array(resistances, dtype=float)
        self.exponent = n = np.array(exponents, dtype=float)
        ok = (ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])
        ok &= (r > 0) & (r < np.inf) & (n > 1) & (n < np.inf)
        return _first_fault(ok, ids, self._pipe_index)

    def _check_unique(self, array: str, i: int) -> None:
        """Raises the duplicate-id error of entry i of `array` if it has one."""
        ids = self._node_ids if array == "nodes" else self._pipe_ids
        if i < len(ids) and ids.index(ids[i]) < i:
            raise ValidationError(
                f"/{array}/{i}/id", f"unique {array[:-1]} id", f"duplicate id {ids[i]!r}"
            )

    def _build(self) -> None:
        """Sets up the rest from the columns the passes found no fault in."""
        is_demand, ends = self._is_demand, self._ends
        if is_demand.all():
            raise ValidationError("/nodes", "at least one fixed-head node", "none")
        if not is_demand.any():
            raise ValidationError("/nodes", "at least one demand node", "none")
        demand_ids = list(compress(self._node_ids, is_demand.tolist()))
        self._demand_index = dict(zip(demand_ids, range(len(demand_ids))))

        # Each node position's index among the demand and the fixed-head nodes.
        demand_at, fixed_at = _set_index(is_demand), _set_index(~is_demand)
        self.a12 = Incidence(ends, demand_at, self.n_demand)
        self.a10 = Incidence(ends, fixed_at, self.n_fixed)
        # A10 @ fixed_heads: the fixed-head term of every energy row.
        self.fixed_head_term = self.a10.dot(self.fixed_heads)
        for arr in (is_demand, ends, self.demand, self.fixed_heads, self.resistance,
                    self.exponent, self.fixed_head_term):
            arr.setflags(write=False)
        self.forest = Forest(self, ends, demand_at)
        # The names of x = (q, H) in order: ("q", pipe id) per pipe, then
        # ("H", node id) per demand node.
        self.unknowns = (*zip(repeat("q"), self._pipe_ids), *zip(repeat("H"), demand_ids))

    @cached_property
    def nodes(self) -> tuple[Node, ...]:
        heads, demands = iter(self.fixed_heads.tolist()), iter(self.demand.tolist())
        return tuple(
            Node(i, KIND_DEMAND, None, next(demands)) if d else Node(i, KIND_FIXED, next(heads))
            for i, d in zip(self._node_ids, self._is_demand.tolist())
        )

    @cached_property
    def pipes(self) -> tuple[Pipe, ...]:
        frm, to = np.array(self._node_ids, dtype=object)[self._ends].T.tolist()
        columns = self.resistance.tolist(), self.exponent.tolist()
        return tuple(map(Pipe, self._pipe_ids, frm, to, *columns))

    demand_nodes = cached_property(lambda self: tuple(compress(self.nodes, self._is_demand)))

    n_pipes = property(lambda self: self.resistance.size)
    n_demand = property(lambda self: self.demand.size)
    n_fixed = property(lambda self: self.fixed_heads.size)

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
        forest: only demands change, so only they are checked again, in one
        mask; `check_node` raises on the first bad one."""
        if np.shape(demands) != (self.n_demand,):
            raise ValueError(f"expected {self.n_demand} demands, got shape {np.shape(demands)}")
        values = np.array(_numbers(demands), dtype=float)
        k = int(np.argmin(np.append((values >= 0) & (values < np.inf), False)))
        if k < values.size:
            i = int(np.flatnonzero(self._is_demand)[k])
            value = demands[k] if isinstance(demands[k], (str, bytes)) else values.item(k)
            check_node(Node(self._node_ids[i], KIND_DEMAND, None, value), f"/nodes/{i}")
        new = copy.copy(self)
        for stale in ("nodes", "demand_nodes"):
            new.__dict__.pop(stale, None)
        new.demand = values
        new.demand.setflags(write=False)
        return new


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
    two nonzeros per row. Each product is one sum over the entries: every
    row (or column) adds its entries' terms in entry order, so results are
    deterministic, and one with no entries is +0.0.
    """

    def __init__(self, ends: np.ndarray, index: np.ndarray, size: int):
        """The incidence of the pipes with (from, to) node positions `ends`
        (n_pipes x 2) on the `size` nodes whose positions `index` maps to
        their indices in the set; it maps the other positions to `size`."""
        at = index[ends]
        # Row-major: pipe order, the `from` end first.
        self.pipe, end = np.divmod(np.flatnonzero(at < size), 2)
        self.node = at[self.pipe, end]
        self.sign = np.array([-1.0, 1.0])[end]
        self.shape = (len(ends), size)
        for arr in (self.pipe, self.node, self.sign):
            arr.setflags(write=False)

    def dot(self, v: np.ndarray, axis: int = -1) -> np.ndarray:
        """A @ v: per pipe, sign * v[node] summed over its entries, its ends
        in the set, in entry order.

        Like the other products, it maps one axis of its argument, the last
        by default, so members stacked along leading axes are multiplied at
        once; with axis=-2 it multiplies column blocks (..., n_nodes, k).
        """
        return _entry_sum(self.node, self.pipe, self.sign, self.shape[0], v, axis)

    def tdot(self, u: np.ndarray, axis: int = -1) -> np.ndarray:
        """A^T @ u: per node, sign * u[pipe] summed over its entries, its
        incident pipes, in entry (pipe) order, along `axis` as for `dot`."""
        return _entry_sum(self.pipe, self.node, self.sign, self.shape[1], u, axis)


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
    A12_T^T are therefore two sweeps over the depths (`path_sums`,
    `tree_flows`). Their arguments and results hold column blocks
    (..., N_p, k) with rows in `order`. A sweep copies its block once into
    a buffer of N_p + 1 rows, each holding the row's columns of every
    member, so a depth costs the same few numpy calls for any stack: root
    down, a `take` of the parent rows and an in-place add; leaves up, a
    `reduceat` over each parent's children, a `take` of the parent rows
    added to it, and a write of those rows. Every depth adds in a fixed
    order, so results are deterministic, and the same for each member of a
    stack as on its own.

    Each row also keeps its parent row and its depth (`_parent`, `_depth`),
    and a sentinel row N_p, of parent N_p and depth -1, lies above every
    root. The data that depend on the tree alone come from climbing the
    parents, without a sweep: a unit continuity column's tree flows are the
    signs of the tree pipes on its node's root path, from the node up to
    its root (`unit_columns`), and each loop's tree pipes are those its
    co-tree pipe's two ends climb through until they meet.

    The other pipes, `cotree`, include the pipes that end at a fixed-head
    node other than a root and the pipes between two fixed-head nodes; their
    incidence on the demand nodes, rows in `order`, is `chords` (A12_C).
    Co-tree pipe c spans loop column c of Z = [Z_T; I]: the unit entry on c
    plus the tree flows -(A12_T^T)^-1 A12[c]^T, the tree path that closes c
    into a loop or joins its ends to fixed-head nodes. So A12^T Z = 0, and
    Z^T F Z is symmetric positive definite for every positive diagonal F
    (`loop_gram`).
    """

    def __init__(self, net: Network, ends: np.ndarray, demand_at: np.ndarray):
        # Breadth-first spanning tree from the first fixed-head node, each
        # node's pipes taken in pipe order: one (node, parent, pipe, sign)
        # per tree pipe in visiting order, nodes as positions in `nodes`
        # (`ends` holds each pipe's, `demand_at` maps them to demand indices
        # and fixed-head nodes to n_demand) and sign +1 where the pipe
        # leaves the parent; and each node's depth.
        n_demand, n_nodes = net.n_demand, demand_at.size
        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in range(n_nodes)]
        for j, (a, b) in enumerate(ends.tolist()):
            adjacency[a].append((j, b, +1.0))
            adjacency[b].append((j, a, -1.0))
        root = int(np.argmax(demand_at == n_demand))
        depth = [-1] * n_nodes
        depth[root] = 0
        visit, tree = [root], []
        for up in visit:
            for j, node, sign in adjacency[up]:
                if depth[node] < 0:
                    depth[node] = depth[up] + 1
                    visit.append(node)
                    tree.append((node, up, j, sign))
        if len(visit) < n_nodes:
            missing = sorted(i for i, d in zip(net._node_ids, depth) if d < 0)
            raise ValidationError(
                "/pipes", "connected graph",
                f"unreachable node(s) {', '.join(repr(m) for m in missing)}",
            )

        # The demand nodes' tree pipes; `row` maps each node position to its
        # row in `order`, and fixed-head nodes, parents among them, to
        # n_demand, a zero row in the sweeps.
        node, up, pipe, sign = (np.array(column) for column in zip(*tree))
        demand = demand_at[node] < n_demand
        node, up, pipe, sign = node[demand], up[demand], pipe[demand], sign[demand]
        row = np.full(n_nodes, n_demand, dtype=np.intp)
        row[node] = np.arange(n_demand)
        self.order = demand_at[node]
        self.tree_pipe = pipe.astype(np.intp)
        self.sign = sign[:, None]
        parent = row[up]
        depth = np.array(depth, dtype=np.intp)[node]
        self._rows = np.empty(n_demand, dtype=np.intp)  # each demand node's row in `order`
        self._rows[self.order] = np.arange(n_demand)

        # Per depth with a demand parent: its run of nodes, their parents,
        # and where each parent's run of children starts.
        self._levels = []
        for d in range(1, int(depth.max()) + 1):
            lo, hi = np.searchsorted(depth, [d, d + 1])
            parents = parent[lo:hi]
            if (parents < n_demand).any():
                starts = np.flatnonzero(np.diff(parents, prepend=-1))
                self._levels.append((lo, hi, parents, starts, parents[starts]))

        # Per row, and for a sentinel row n_demand above every root, its
        # parent row and depth in the breadth-first search.
        self._parent = np.append(parent, n_demand)
        self._depth = np.append(depth, -1)

        in_tree = np.zeros(net.n_pipes, dtype=bool)
        in_tree[self.tree_pipe] = True
        self.cotree = np.flatnonzero(~in_tree)
        self.chords = Incidence(ends[self.cotree], row, n_demand)

        # Loop entries (pipe, loop, sign): each co-tree pipe, then the tree
        # pipes between its two ends, which close it into a loop or join
        # both ends to roots; those above its `to` end run against the
        # loop. The ends of all loops climb in lockstep: each step lifts the
        # deeper end, or both at equal depth, until they meet or both have
        # passed their roots.
        n_loops = self.cotree.size
        loop, at = np.arange(n_loops), row[ends[self.cotree]]
        entries = [(self.cotree, loop, np.ones(n_loops))]
        while loop.size:
            apart = at[:, 0] != at[:, 1]
            loop, at = loop[apart], at[apart]
            depth_at = self._depth[at]
            lift = depth_at >= depth_at[:, ::-1]
            k, end = np.nonzero(lift)
            lifted = at[lift]
            signs = self.sign[lifted, 0] * (1 - 2 * end)  # -sign at the `to` end
            entries.append((self.tree_pipe[lifted], loop[k], signs))
            at[lift] = self._parent[lifted]
        pipe, loop, loop_sign = map(np.concatenate, zip(*entries))
        self._loops = (pipe, loop, loop_sign)
        self._gram_terms = _loop_gram_terms(pipe, loop, loop_sign, net.n_pipes, n_loops)
        for arr in (self.order, self.tree_pipe, self.sign, self.cotree, self._rows,
                    self._parent, self._depth, pipe, loop, loop_sign):
            arr.setflags(write=False)

    def unit_columns(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The unit continuity columns of the demand nodes `nodes` (demand
        indices), rows in `order`, and their `tree_flows`: the subtree a
        tree pipe feeds holds a column's node just when the pipe lies on
        that node's root path, so each column's tree flows are the signs of
        the pipes on its root path and zero elsewhere, marked by climbing
        the parents from its node, without a sweep."""
        n, columns = self.order.size, np.arange(nodes.size)
        rows = self._rows[nodes]
        unit = np.zeros((n, nodes.size))
        unit[rows, columns] = 1.0
        flows = np.zeros((n + 1, nodes.size))
        # The way up holds the node and at most one row per `_levels` depth.
        for _ in range(len(self._levels) + 1):
            flows[rows, columns] = 1.0
            rows = self._parent[rows]
        flows = flows[:n]
        flows *= self.sign
        return unit, flows

    def path_sums(self, b: np.ndarray) -> np.ndarray:
        """A12_T^-1 b, root down: per demand node, the signed sum of b over
        the tree pipes from its root to the node."""
        out, rows = self._rows_first(b)
        rows[:-1] *= self.sign
        for lo, hi, parents, _, _ in self._levels:
            rows[lo:hi] += rows.take(parents, axis=0)
        return out[:-1].swapaxes(0, -2)

    def tree_flows(self, c: np.ndarray) -> np.ndarray:
        """(A12_T^T)^-1 c, leaves up: per tree pipe, the signed sum of c
        over the subtree the pipe feeds."""
        out, rows = self._rows_first(c)
        for lo, hi, _, starts, parents in reversed(self._levels):
            sums = np.add.reduceat(rows[lo:hi], starts, axis=0)
            sums += rows.take(parents, axis=0)
            rows[parents] = sums
        rows[:-1] *= self.sign
        return out[:-1].swapaxes(0, -2)

    def _rows_first(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A copy of `block` (..., N_p, k) for a sweep, its rows axis
        swapped to the front, with a zero row N_p appended (where the
        fixed-head parents point); and the same buffer seen as N_p + 1 rows
        that hold every member's columns side by side."""
        moved = block.swapaxes(0, -2)
        out = np.zeros((moved.shape[0] + 1,) + moved.shape[1:])
        out[:-1] = moved
        return out, out.reshape(out.shape[0], -1)

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


def _set_index(member: np.ndarray) -> np.ndarray:
    """Per position, its index among the positions where `member` holds,
    and their count at the others."""
    count = np.count_nonzero(member)
    index = np.full(member.size, count, dtype=np.intp)
    index[member] = np.arange(count)
    return index


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


def _entry_sum(source, target, sign, size, v, axis):
    """Per target t < size, the sum of sign[e] * v[source[e]] over the
    entries e with target[e] == t, along the (negative) `axis` of v, added
    in entry order; a target with no entries gets +0.0.

    One weighted bincount makes every sum: its bins run over the stacked
    members, the targets and, for axis=-2, the columns, in the layout of
    the result, and it adds each bin's weights in the order they come. A
    single member's bins are the targets themselves, so its fixed cost is
    the gather, the bincount and, for a column block, one outer sum."""
    lead, tail = v.shape[: v.ndim + axis], v.shape[v.ndim + axis + 1 :]
    members, columns = math.prod(lead), math.prod(tail)
    terms = v[(Ellipsis, source) + (slice(None),) * len(tail)]
    terms *= sign.reshape(sign.shape + (1,) * len(tail))
    bins = target if members == 1 else np.add.outer(np.arange(members) * size, target)
    if columns != 1:
        bins = np.add.outer(bins * columns, np.arange(columns))
    out = np.bincount(bins.ravel(), terms.ravel(), minlength=members * size * columns)
    # bincount counts in integers when there are no entries
    return out.astype(float, copy=False).reshape(lead + (size,) + tail)


def check_node(node: Node, path: str = "") -> None:
    """A node's own invariants, located under `path`: its kind, the fields
    that kind carries, a finite demand >= 0 or a finite head."""
    if node.kind == KIND_DEMAND:
        if node.demand is None or node.head is not None:
            raise ValidationError(
                path, "demand node with demand only",
                f"node {node.id!r} fields do not match kind",
            )
        if not node.demand >= 0:
            raise ValidationError(
                f"{path}/demand", "demand >= 0", f"{node.demand} on node {node.id!r}"
            )
        if not math.isfinite(node.demand):
            raise ValidationError(
                f"{path}/demand", "finite demand", f"{node.demand} on node {node.id!r}"
            )
    elif node.kind == KIND_FIXED:
        if node.head is None or node.demand is not None:
            raise ValidationError(
                path, "fixed-head node with head only",
                f"node {node.id!r} fields do not match kind",
            )
        if not math.isfinite(node.head):
            raise ValidationError(
                f"{path}/head", "finite head", f"{node.head} on node {node.id!r}"
            )
    else:
        raise ValidationError(f"{path}/kind", "'demand' or 'fixed-head'", repr(node.kind))


def check_pipe(pipe: Pipe, node_ids, path: str = "") -> None:
    """A pipe's own invariants, located under `path`: endpoints among
    `node_ids`, distinct endpoints, and a finite resistance > 0 and a finite
    exponent > 1."""
    for key, endpoint in (("from", pipe.from_node), ("to", pipe.to_node)):
        if endpoint not in node_ids:
            raise ValidationError(
                f"{path}/{key}", "existing node id",
                f"unknown node {endpoint!r} on pipe {pipe.id!r}",
            )
    if pipe.from_node == pipe.to_node:
        raise ValidationError(
            path, "distinct endpoints",
            f"pipe {pipe.id!r} is a self-loop on {pipe.from_node!r}",
        )
    if not pipe.resistance > 0:
        raise ValidationError(
            f"{path}/resistance", "resistance > 0", f"{pipe.resistance} on pipe {pipe.id!r}"
        )
    if not pipe.exponent > 1:
        raise ValidationError(
            f"{path}/exponent", "exponent > 1", f"{pipe.exponent} on pipe {pipe.id!r}"
        )
    for key, value in (("resistance", pipe.resistance), ("exponent", pipe.exponent)):
        if not math.isfinite(value):
            raise ValidationError(
                f"{path}/{key}", f"finite {key}", f"{value} on pipe {pipe.id!r}"
            )


def _fields(cls, entries) -> list[list]:
    """The fields of the `cls` entries, one list per field, in field order."""
    return [[getattr(entry, field.name) for entry in entries] for field in fields(cls)]


def _numbers(values: list) -> list:
    """The values with NaN for each text (str or bytes), so that the array
    pass flags its entry and the entry's own check raises on the text."""
    return [math.nan if isinstance(value, (str, bytes)) else value for value in values]


def _first_fault(ok: np.ndarray, ids, index: dict) -> int:
    """The first position where `ok` is False or whose id repeats an earlier
    one (`index` maps the ids to positions), len(ids) where there is none."""
    if len(index) < len(ids):
        seen: dict = {}
        ok = ok & np.array([seen.setdefault(key, i) == i for i, key in enumerate(ids)])
    return int(np.argmin(np.append(ok, False)))
