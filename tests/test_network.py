import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import Network, Node, Pipe, ValidationError, parse_network
from hydrostate.report_io import encode_network
from hydrostate.network import (
    FLOW_FLOOR,
    _loop_gram_terms,
    headloss_coefficients,
)

from helpers import (
    DEEP_NETWORKS,
    STRUCTURE_NETWORKS,
    TOPOLOGIES,
    chain,
    headloss_diagonal,
    incidence_matrices,
    loop_matrix,
    random_network,
    reference_loop_entries,
    reference_unit_columns,
    with_reservoirs,
)

SINGLE_PIPE_TEXT = """
{
  "nodes": [
    {"id": "r1", "kind": "fixed-head", "head": 100.0},
    {"id": "n1", "kind": "demand", "demand": 2.0}
  ],
  "pipes": [{"id": "p1", "from": "r1", "to": "n1", "resistance": 10.0}]
}
"""


# The forest's own checks also run on the deep trees.
FOREST_NETWORKS = {**STRUCTURE_NETWORKS, **DEEP_NETWORKS}


def test_parse_minimal_network():
    net = parse_network(SINGLE_PIPE_TEXT)
    assert net.n_pipes == 1
    assert net.n_demand == 1
    assert net.n_fixed == 1
    assert net.pipes[0].exponent == 1.852  # file default


def test_parse_triangle_counts(triangle):
    assert triangle.n_pipes == 3
    assert triangle.n_demand == 2
    assert triangle.n_fixed == 1
    assert triangle.unknowns == (("q", "p1"), ("q", "p2"), ("q", "p3"), ("H", "n1"), ("H", "n2"))


def test_duplicate_node_id_names_offender():
    with pytest.raises(ValidationError) as excinfo:
        Network(
            [
                Node("r1", "fixed-head", head=100.0),
                Node("n1", "demand", demand=1.0),
                Node("n1", "demand", demand=2.0),
            ],
            [Pipe("p1", "r1", "n1", 10.0)],
        )
    assert "n1" in str(excinfo.value)


@pytest.mark.parametrize(
    "nodes,pipes,fragment",
    [
        # no fixed-head node
        (
            [Node("a", "demand", demand=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "a", "b", 1.0)],
            "fixed-head",
        ),
        # no demand node
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "fixed-head", head=2.0)],
            [Pipe("p", "a", "b", 1.0)],
            "demand",
        ),
        # disconnected graph
        (
            [
                Node("a", "fixed-head", head=1.0),
                Node("b", "demand", demand=1.0),
                Node("c", "demand", demand=1.0),
            ],
            [Pipe("p", "a", "b", 1.0)],
            "c",
        ),
        # self loop
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "b", "b", 1.0), Pipe("q", "a", "b", 1.0)],
            "self-loop",
        ),
        # unknown endpoint
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "a", "zz", 1.0)],
            "zz",
        ),
        # bad resistance
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "a", "b", 0.0)],
            "resistance",
        ),
        # bad exponent
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "a", "b", 1.0, exponent=1.0)],
            "exponent",
        ),
        # negative base demand
        (
            [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=-0.5)],
            [Pipe("p", "a", "b", 1.0)],
            "demand",
        ),
        # kind/fields mismatch
        (
            [Node("a", "fixed-head", demand=1.0), Node("b", "demand", demand=1.0)],
            [Pipe("p", "a", "b", 1.0)],
            "fixed-head",
        ),
    ],
)
def test_validation_rejections(nodes, pipes, fragment):
    with pytest.raises(ValidationError) as excinfo:
        Network(nodes, pipes)
    assert fragment in str(excinfo.value)


def _two_node_network(head=90.0, demand=1.0, resistance=2.0, exponent=1.852) -> Network:
    return Network(
        [Node("r", "fixed-head", head=head), Node("a", "demand", demand=demand)],
        [Pipe("p", "r", "a", resistance, exponent)],
    )


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("head", "90", "must be real number, not str"),
        ("head", "abc", "must be real number, not str"),
        ("head", b"90", "must be real number, not bytes"),
        ("demand", "1", "'>=' not supported between instances of 'str' and 'int'"),
        ("demand", b"1", "'>=' not supported between instances of 'bytes' and 'int'"),
        ("resistance", "2", "'>' not supported between instances of 'str' and 'int'"),
        ("exponent", "1.852", "'>' not supported between instances of 'str' and 'int'"),
    ],
)
def test_text_in_a_number_field_is_a_type_error(field, value, message):
    """A number field that holds text is not read as the number it spells:
    the entry's own check compares the text and raises its TypeError."""
    with pytest.raises(TypeError) as excinfo:
        _two_node_network(**{field: value})
    assert str(excinfo.value) == message


def test_bool_demand_builds():
    assert _two_node_network(demand=True).demand.tolist() == [1.0]


@pytest.mark.parametrize("value", ["3", b"3", "x"], ids=["numeric str", "bytes", "str"])
def test_text_demand_in_with_demands_is_the_constructors_type_error(value):
    """`with_demands` reads text as the constructor does, not as the number
    it spells: the first bad demand is the text, ahead of a negative one,
    and `check_node` raises on it the constructor's TypeError."""
    with pytest.raises(TypeError) as built:
        _two_node_network(demand=value)
    net = random_network(3, 30)
    demands = net.demand.tolist()
    demands[14] = value
    demands[20] = -2.0
    with pytest.raises(TypeError) as swapped:
        net.with_demands(demands)
    kind = type(value).__name__
    assert str(swapped.value) == str(built.value)
    assert str(swapped.value) == f"'>=' not supported between instances of '{kind}' and 'int'"


def test_incidence_single_pipe(single_pipe):
    # Orientation convention: +1 where the pipe enters the node, -1 where
    # it leaves, so that continuity reads A12^T q = Q for positive demand.
    a12, a10 = incidence_matrices(single_pipe)
    assert a12.tolist() == [[1.0]]
    assert a10.tolist() == [[-1.0]]


def test_incidence_rows_and_columns(triangle):
    a12, a10 = incidence_matrices(triangle)
    stacked = np.hstack([a12, a10])
    assert np.all(stacked.sum(axis=1) == 0.0)
    assert np.all((stacked != 0).sum(axis=1) == 2)
    # connectivity: every demand node touched by some pipe
    assert np.all((a12 != 0).any(axis=0))


def _reference_incidence_product(groups, other, sign, size, v, axis):
    """The incidence product by padded slot tables: row k holds, per group,
    the `other` index and the sign of its k-th entry in entry order, or
    index 0 and sign 0 where the group has fewer entries; the rows add in
    order. A group with no entries gets v[..., 0] * 0.0, so v needs at
    least one entry along `axis`."""
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    rank = np.arange(grouped.size) - np.searchsorted(grouped, grouped)
    index = np.zeros((np.max(rank, initial=0) + 1, size), dtype=np.intp)
    signs = np.zeros(index.shape)
    index[rank, grouped] = other[order]
    signs[rank, grouped] = sign[order]

    shape = (-1,) + (1,) * (-1 - axis)
    tail = (slice(None),) * (-1 - axis)
    out = v[(Ellipsis, index[0], *tail)]
    out *= signs[0].reshape(shape)
    for k in range(1, index.shape[0]):
        term = v[(Ellipsis, index[k], *tail)]
        term *= signs[k].reshape(shape)
        out += term
    return out


@pytest.mark.parametrize("network", STRUCTURE_NETWORKS)
def test_incidence_products_match_padded_product(network):
    """`dot` and `tdot` of A12, A10 and the chords equal the padded product
    exactly, on a vector, on stacked members and on column blocks. Vectors
    are drawn unscaled, so they hold negative entries."""
    net = STRUCTURE_NETWORKS[network]()
    rng = np.random.default_rng(317)
    for inc in (net.a12, net.a10, net.forest.chords):
        if not inc.shape[0]:
            continue  # a tree has no chords, and the padded tdot no entry to gather
        for lead, axis, tail in [((), -1, ()), ((3,), -1, ()), ((2,), -2, (1,)),
                                 ((2,), -2, (3,)), ((2,), -2, (80,))]:
            v = rng.standard_normal(lead + (inc.shape[1],) + tail)
            u = rng.standard_normal(lead + (inc.shape[0],) + tail)
            dot = _reference_incidence_product(inc.pipe, inc.node, inc.sign, inc.shape[0], v, axis)
            tdot = _reference_incidence_product(inc.node, inc.pipe, inc.sign, inc.shape[1], u, axis)
            assert np.array_equal(inc.dot(v, axis=axis), dot)
            assert np.array_equal(inc.tdot(u, axis=axis), tdot)


def test_targets_with_no_entries_get_positive_zero():
    """A pipe with no end in the node set sums no entries, so `dot` gives it
    exactly +0.0, where the padded product gave v[..., 0] * 0.0, -0.0 for a
    negative v[..., 0]: the pipe between two reservoirs in A12, and the
    co-tree pipe that joins them among the chords; and so does `tdot` for a
    demand node on no chord, a leaf c, whose one pipe is its tree pipe under
    any spanning forest."""
    between_reservoirs = TOPOLOGIES["pipe between reservoirs"]()
    net = Network(
        [*between_reservoirs.nodes, Node("c", "demand", demand=0.5)],
        [*between_reservoirs.pipes, Pipe("p5", "b", "c", 1.0)],
    )
    forest = net.forest
    between = net.pipe_index("p4")
    chord = list(forest.cotree).index(between)

    heads = -np.ones(net.n_demand)
    product = net.a12.dot(heads)
    padded = _reference_incidence_product(
        net.a12.pipe, net.a12.node, net.a12.sign, net.n_pipes, heads, -1
    )
    assert product[between] == 0.0 and not np.signbit(product[between])
    assert np.signbit(padded[between])

    chords = forest.chords.dot(-np.ones((2, net.n_demand, 3)), axis=-2)
    assert np.array_equal(chords[:, chord], np.zeros((2, 3)))
    assert not np.signbit(chords[:, chord]).any()
    leaf = forest._rows[net.demand_index("c")]
    assert leaf not in forest.chords.node
    sums = forest.chords.tdot(-np.ones((2, forest.cotree.size, 3)), axis=-2)[:, leaf]
    assert np.array_equal(sums, np.zeros_like(sums))
    assert not np.signbit(sums).any()


def test_headloss_integer_exponent():
    net = Network(
        [Node("a", "fixed-head", head=1.0), Node("b", "demand", demand=1.0)],
        [Pipe("p", "a", "b", 10.0, exponent=2.0)],
    )
    diag = headloss_diagonal(net, np.array([3.0]))
    assert diag.shape == (1, 1)
    assert diag[0, 0] == pytest.approx(30.0, abs=1e-12)


def test_headloss_regularization_floor(single_pipe):
    coeff = headloss_coefficients(single_pipe, np.array([0.0]))
    assert coeff[0] == pytest.approx(10.0 * (1e-6) ** 0.852, rel=1e-12)


def test_headloss_fractional_exponent(single_pipe):
    coeff = headloss_coefficients(single_pipe, np.array([2.0]))
    assert coeff[0] == pytest.approx(10.0 * 2.0 ** 0.852, rel=1e-12)


@settings(deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=3
    )
)
def test_headloss_diagonal_even_in_flow(q_values):
    net = Network(
        [
            Node("r", "fixed-head", head=100.0),
            Node("a", "demand", demand=1.0),
            Node("b", "demand", demand=1.0),
        ],
        [
            Pipe("p0", "r", "a", 5.0),
            Pipe("p1", "a", "b", 7.0, exponent=2.0),
            Pipe("p2", "r", "b", 0.5, exponent=1.7),
        ],
    )
    q = np.array(q_values)
    np.testing.assert_array_equal(
        headloss_coefficients(net, q), headloss_coefficients(net, -q)
    )


def test_headloss_odd_above_floor(triangle):
    q = np.array([2.0, -1.3, 0.5])
    assert np.all(np.abs(q) >= FLOW_FLOOR)
    loss = headloss_coefficients(triangle, q) * q
    loss_neg = headloss_coefficients(triangle, -q) * (-q)
    np.testing.assert_allclose(loss_neg, -loss, rtol=1e-14)


def test_headloss_coefficients_reject_another_flow_count(triangle):
    with pytest.raises(ValueError) as excinfo:
        headloss_coefficients(triangle, np.zeros(2))
    assert str(excinfo.value) == "expected 3 flows, got shape (2,)"


def test_with_demands(triangle):
    swapped = triangle.with_demands(np.array([0.5, 3.0]))
    np.testing.assert_array_equal(swapped.demand, [0.5, 3.0])
    np.testing.assert_array_equal(triangle.demand, [2.0, 1.5])  # original intact
    assert [p.id for p in swapped.pipes] == [p.id for p in triangle.pipes]
    with pytest.raises(ValueError):
        triangle.with_demands(np.array([1.0]))


def test_with_demands_shares_the_forest(triangle):
    # The network was never solved: the forest is built with it, once.
    assert triangle.with_demands(np.array([0.5, 3.0])).forest is triangle.forest


@pytest.mark.parametrize(
    "value, detail",
    [
        (np.nan, "/nodes/15/demand: expected demand >= 0, found nan on node 'n15'"),
        (-1.0, "/nodes/15/demand: expected demand >= 0, found -1.0 on node 'n15'"),
        (np.inf, "/nodes/15/demand: expected finite demand, found inf on node 'n15'"),
    ],
    ids=["NaN", "negative", "inf"],
)
def test_with_demands_rejects_the_first_bad_demand(value, detail):
    """Demand index 14 is node position 15, behind the one reservoir; a bad
    demand after it is not the one reported."""
    net = random_network(3, 30)
    demands = np.array(net.demand)
    demands[14] = value
    demands[20] = -2.0
    with pytest.raises(ValidationError) as excinfo:
        net.with_demands(demands)
    assert str(excinfo.value) == detail


@pytest.mark.parametrize("build", ["entries", "file"])
def test_with_demands_rebuilds_the_node_tuples(build):
    """A copy does not keep the node tuples read from the original, which
    hold the old demands; the original keeps its own."""
    net = random_network(3, 30)
    if build == "file":
        net = parse_network(encode_network(net))
    old_nodes, old_demand_nodes = net.nodes, net.demand_nodes
    demands = np.arange(net.n_demand, dtype=float)
    new = net.with_demands(demands)
    assert [n.demand for n in new.demand_nodes] == demands.tolist()
    assert new.demand_nodes == tuple(n for n in new.nodes if n.kind == "demand")
    assert [n.id for n in new.nodes] == [n.id for n in old_nodes]
    assert net.nodes is old_nodes and net.demand_nodes is old_demand_nodes
    fixed = [n for n in net.nodes if n.kind == "fixed-head"]
    assert new.pipes == net.pipes and [n for n in new.nodes if n.kind == "fixed-head"] == fixed


def _same_array(got, expected) -> None:
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def _assert_same_network(got: Network, net: Network) -> None:
    """Every array, lookup, incidence and forest array of `got` is that of
    `net`, dtype included."""
    for name in ("demand", "fixed_heads", "resistance", "exponent", "fixed_head_term",
                 "_is_demand", "_ends"):
        _same_array(getattr(got, name), getattr(net, name))
    assert got.unknowns == net.unknowns
    assert (got.n_pipes, got.n_demand, got.n_fixed) == (net.n_pipes, net.n_demand, net.n_fixed)
    for pipe in net.pipes:
        assert got.has_pipe(pipe.id) and got.pipe_index(pipe.id) == net.pipe_index(pipe.id)
    for node in net.nodes:
        assert got.has_demand_node(node.id) == net.has_demand_node(node.id)
        if net.has_demand_node(node.id):
            assert got.demand_index(node.id) == net.demand_index(node.id)
    forest, expected = got.forest, net.forest
    for a, b in ((got.a12, net.a12), (got.a10, net.a10), (forest.chords, expected.chords)):
        assert a.shape == b.shape
        for name in ("pipe", "node", "sign"):
            _same_array(getattr(a, name), getattr(b, name))
    for name in ("order", "tree_pipe", "sign", "cotree", "_parent", "_depth", "_rows"):
        _same_array(getattr(forest, name), getattr(expected, name))
    assert len(forest._levels) == len(expected._levels)
    for level, expected_level in zip(forest._levels, expected._levels):
        assert level[:2] == expected_level[:2]
        for a, b in zip(level[2:], expected_level[2:]):
            _same_array(a, b)
    for a, b in zip(forest._loops + forest._gram_terms, expected._loops + expected._gram_terms):
        _same_array(a, b)


_CONSTRUCTED = {
    **STRUCTURE_NETWORKS,
    **DEEP_NETWORKS,
    "random 800, 1 reservoir": lambda: with_reservoirs(random_network(7, 800), 1),
    "random 800, 3 reservoirs": lambda: with_reservoirs(random_network(7, 800), 3),
}


@pytest.mark.parametrize("network", _CONSTRUCTED)
def test_both_constructors_build_the_same_network(network):
    """The network a file decodes to and the one its entries build are the
    network the entries were written from, and their lazily built tuples
    are those entries; the file encodes back to itself."""
    net = _CONSTRUCTED[network]()
    nodes, pipes = net.nodes, net.pipes
    text = encode_network(net)
    for got in (parse_network(text), Network(list(nodes), list(pipes))):
        _assert_same_network(got, net)
        assert got.nodes == nodes and got.pipes == pipes
        assert got.demand_nodes == tuple(n for n in nodes if n.kind == "demand")
        assert got.fixed_heads.tolist() == [n.head for n in nodes if n.kind == "fixed-head"]
    assert encode_network(parse_network(text)) == text


def test_unreachable_nodes_are_those_the_tree_misses():
    # The tree grows from the first fixed-head node, r1; nodes[0] lies in
    # the other component.
    with pytest.raises(ValidationError) as excinfo:
        Network(
            [
                Node("n0", "demand", demand=1.0),
                Node("r1", "fixed-head", head=10.0),
                Node("n2", "demand", demand=1.0),
                Node("n3", "demand", demand=1.0),
            ],
            [Pipe("p", "r1", "n2", 1.0), Pipe("q", "n0", "n3", 1.0)],
        )
    assert str(excinfo.value) == (
        "/pipes: expected connected graph, found unreachable node(s) 'n0', 'n3'"
    )


def test_network_arrays_read_only(triangle):
    with pytest.raises(ValueError):
        triangle.a12.sign[0] = 5.0
    with pytest.raises(ValueError):
        triangle.demand[0] = 9.0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_loop_basis_spans_null_space(topology):
    """The tree pipes and the co-tree pipes split the pipes, every demand
    node has one tree pipe that ends at it with the recorded sign, and Z
    (unit rows on the co-tree) satisfies A12^T Z = 0 exactly, with one
    column per co-tree pipe."""
    net = TOPOLOGIES[topology]()
    forest = net.forest
    a12, _ = incidence_matrices(net)
    assert sorted(forest.order) == list(range(net.n_demand))
    assert sorted(np.concatenate([forest.tree_pipe, forest.cotree])) == list(range(net.n_pipes))
    z = loop_matrix(forest)
    assert z.shape == (net.n_pipes, net.n_pipes - net.n_demand)
    np.testing.assert_array_equal(z[forest.cotree], np.eye(forest.cotree.size))
    np.testing.assert_array_equal(a12.T @ z, 0.0)
    tree = a12[forest.tree_pipe][:, forest.order]
    np.testing.assert_array_equal(np.diag(tree), forest.sign[:, 0])


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_forest_sweeps_match_dense_solves(topology):
    """`path_sums` and `tree_flows` solve with A12_T and its transpose, on
    stacked column blocks and on a block shared by all members, and each
    member is bit for bit its own solve."""
    net = TOPOLOGIES[topology]()
    forest = net.forest
    a12, _ = incidence_matrices(net)
    tree = a12[forest.tree_pipe][:, forest.order]
    b = np.random.default_rng(311).standard_normal((3, net.n_demand, 4))
    for sweep, matrix in ((forest.path_sums, tree), (forest.tree_flows, tree.T)):
        x = sweep(b)
        reference = np.linalg.solve(matrix, b)
        assert np.max(np.abs(x - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))
        np.testing.assert_array_equal(sweep(b[1]), x[1])
        np.testing.assert_array_equal(sweep(b[2:]), x[2:])


def _reference_path_sums(forest, b):
    """The earlier `Forest.path_sums`: the member axes kept in front, one
    slice add per depth."""
    n = forest.order.size
    out = np.zeros(b.shape[:-2] + (n + 1, b.shape[-1]))
    np.multiply(b, forest.sign, out=out[..., :n, :])
    for lo, hi, parents, _, _ in forest._levels:
        out[..., lo:hi, :] += out[..., parents, :]
    return out[..., :n, :]


def _reference_tree_flows(forest, c):
    """The earlier `Forest.tree_flows`, laid out as `_reference_path_sums`."""
    n = forest.order.size
    out = np.empty(c.shape[:-2] + (n + 1, c.shape[-1]))
    out[..., :n, :] = c
    out[..., n, :] = 0.0
    for lo, hi, _, starts, parents in reversed(forest._levels):
        out[..., parents, :] += np.add.reduceat(out[..., lo:hi, :], starts, axis=-2)
    out = out[..., :n, :]
    out *= forest.sign
    return out


def wide_fan() -> Network:
    """A reservoir feeding a, with 20 demand children, and b, with 3; a
    chord joins a child of each: a depth where one parent sums 20 rows."""
    fan = [f"c{i}" for i in range(20)] + ["e0", "e1", "e2"]
    nodes = [Node("r", "fixed-head", head=100.0)] + [
        Node(i, "demand", demand=1.0) for i in ["a", "b"] + fan
    ]
    pipes = [Pipe("ra", "r", "a", 1.0), Pipe("rb", "r", "b", 1.0)]
    pipes += [Pipe(f"p{i}", "a" if i.startswith("c") else "b", i, 1.0) for i in fan]
    return Network(nodes, pipes + [Pipe("chord", "c0", "e0", 1.0)])


@pytest.mark.parametrize("network", [*FOREST_NETWORKS, "wide fan"])
def test_forest_sweeps_match_reference_bit_for_bit(network):
    """The rows-first sweeps give the earlier sweeps' bytes, sign of zero
    included, on a shared block, one member and three stacked members of
    1, 5 and 80 columns with rows of exact +0.0 and -0.0, and leave their
    argument as it was. The networks with two and three reservoirs have
    fixed-head parents below depth 1, whose zero row the sweeps read."""
    net = wide_fan() if network == "wide fan" else FOREST_NETWORKS[network]()
    forest = net.forest
    n = net.n_demand
    rng = np.random.default_rng(337)
    for lead in ((), (1,), (3,)):
        for k in (1, 5, 80):
            b = rng.standard_normal(lead + (n, k))
            b[..., ::3, :] = 0.0
            b[..., 1::3, :] *= 0.0  # -0.0 where the draw was negative
            kept = b.copy()
            for sweep, reference in ((forest.path_sums, _reference_path_sums),
                                     (forest.tree_flows, _reference_tree_flows)):
                got, expected = sweep(b), reference(forest, b)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
                assert b.tobytes() == kept.tobytes()


def test_entry_sums_alternate_directions_of_equal_size():
    """`dot` and `tdot` of the A12 of a one-reservoir tree, whose pipes
    and demand nodes are as many, called in turn with 1, 3, 2,000 and
    again 1 members of 1, 5 and 80 columns, on both axes, equal the padded
    product each time."""
    net = with_reservoirs(random_network(11, 12), 1)
    tree = Network(list(net.nodes), [net.pipes[j] for j in sorted(net.forest.tree_pipe)])
    inc = tree.a12
    assert inc.shape[0] == inc.shape[1]
    size = inc.shape[0]
    rng = np.random.default_rng(339)
    for members in (1, 3, 2000, 1):
        for k in (1, 5, 80):
            for shape, axis in (((members, size, k), -2), ((members, k, size), -1)):
                v, u = rng.standard_normal(shape), rng.standard_normal(shape)
                dot = _reference_incidence_product(inc.pipe, inc.node, inc.sign, size, v, axis)
                tdot = _reference_incidence_product(inc.node, inc.pipe, inc.sign, size, u, axis)
                assert np.array_equal(inc.dot(v, axis=axis), dot)
                assert np.array_equal(inc.tdot(u, axis=axis), tdot)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_loop_gram_matches_dense(topology):
    """`loop_gram` holds the lower triangle of Z^T diag(w) Z per member
    and zeros above it."""
    net = TOPOLOGIES[topology]()
    forest = net.forest
    z = loop_matrix(forest)
    weights = np.random.default_rng(313).uniform(0.1, 10.0, (2, net.n_pipes))
    gram = forest.loop_gram(weights)
    for member in range(2):
        reference = z.T @ (weights[member, :, None] * z)
        np.testing.assert_allclose(gram[member], np.tril(reference), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("network", FOREST_NETWORKS)
def test_root_path_unit_columns_match_tree_flows(network):
    """`unit_columns` writes each unit column and its tree flows along its
    node's root path, climbed through the parents; both equal the
    comparison with `order` and the `tree_flows` sweep, for every demand
    node at once and for a shuffled subset, sign of zero included."""
    forest = FOREST_NETWORKS[network]().forest
    n = forest.order.size
    rng = np.random.default_rng(331)
    for nodes in (np.arange(n), rng.permutation(n)[: max(1, n // 3)]):
        unit, flows = forest.unit_columns(nodes)
        reference_unit, reference_flows = reference_unit_columns(forest, nodes)
        assert np.array_equal(unit, reference_unit)
        assert np.array_equal(flows, reference_flows)
        assert np.array_equal(np.signbit(flows), np.signbit(reference_flows))


@pytest.mark.parametrize("network", FOREST_NETWORKS)
def test_loop_entries_match_walk(network):
    """The loop entries of the lockstep climb over all loops are, as a set
    of (pipe, loop, sign), those of the Python walk, one loop at a time,
    and give the same Gram terms."""
    net = FOREST_NETWORKS[network]()
    forest = net.forest
    pipe, loop, sign = forest._loops
    walked = reference_loop_entries(net)
    assert pipe.size == len(walked)
    assert set(zip(pipe.tolist(), loop.tolist(), sign.tolist())) == set(walked)
    columns = zip(*walked) if walked else ((), (), ())
    reference = _loop_gram_terms(
        *(np.array(c, dtype=t) for c, t in zip(columns, (np.intp, np.intp, float))),
        net.n_pipes, forest.cotree.size,
    )
    for got, expected in zip(forest._gram_terms, reference):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def _array_bytes(obj) -> int:
    """Bytes held by the arrays of `obj`: an array, a tuple or list of
    them, or an object's attributes."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(map(_array_bytes, obj))
    return sum(map(_array_bytes, vars(obj).values())) if hasattr(obj, "__dict__") else 0


def test_forest_memory_grows_with_the_node_count_alone():
    """On a 3,000-node chain about 2,800 deep, the forest's arrays hold
    under 1 kB per demand node: none of them grows with the node count
    times the depth. Its unit columns of 50 nodes and its loop entries are
    those of the sweep and of the walk."""
    net = chain(3000, [(1000, 1100), (2800, 3000)], demand=1e-6)
    forest = net.forest
    assert _array_bytes(forest) < 1000 * net.n_demand
    nodes = np.random.default_rng(341).permutation(net.n_demand)[:50]
    unit, flows = forest.unit_columns(nodes)
    reference_unit, reference_flows = reference_unit_columns(forest, nodes)
    assert unit.tobytes() == reference_unit.tobytes()
    assert flows.tobytes() == reference_flows.tobytes()
    pipe, loop, sign = forest._loops
    entries = sorted(zip(pipe.tolist(), loop.tolist(), sign.tolist()))
    assert entries == sorted(reference_loop_entries(net))
