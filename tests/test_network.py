import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import Network, Node, Pipe, ValidationError, parse_network
from hydrostate.network import FLOW_FLOOR, headloss_coefficients, incidence_matrices

from helpers import TOPOLOGIES, headloss_diagonal

SINGLE_PIPE_TEXT = """
{
  "nodes": [
    {"id": "r1", "kind": "fixed-head", "head": 100.0},
    {"id": "n1", "kind": "demand", "demand": 2.0}
  ],
  "pipes": [{"id": "p1", "from": "r1", "to": "n1", "resistance": 10.0}]
}
"""


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
    a12, _ = incidence_matrices(triangle)
    with pytest.raises(ValueError):
        a12[0, 0] = 5.0
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
    z = forest.loop_matrix()
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


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_loop_gram_matches_dense(topology):
    """`loop_gram` holds the lower triangle of Z^T diag(w) Z per member
    and zeros above it."""
    net = TOPOLOGIES[topology]()
    forest = net.forest
    z = forest.loop_matrix()
    weights = np.random.default_rng(313).uniform(0.1, 10.0, (2, net.n_pipes))
    gram = forest.loop_gram(weights)
    for member in range(2):
        reference = z.T @ (weights[member, :, None] * z)
        np.testing.assert_allclose(gram[member], np.tril(reference), rtol=1e-14, atol=0.0)
