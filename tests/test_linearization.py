"""The shared linearization: sparse incidence products against the dense
incidence, the blocked Cholesky factor and its solves, the Newton solves
through the forest sweeps and the loop factor, the stacked products that
lockstep parity rests on, and the numpy-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydrostate.errors import RankDeficient
from hydrostate import errorlimits, solve_steady_state
from hydrostate.errorlimits import block_columns, bound_from_matrix
from hydrostate.estimator import build_augmented, weighted_step
from hydrostate.hydraulics import jacobian_coefficients
from hydrostate.linearization import AugmentedSystem, GramFactor, NewtonFactor
from hydrostate.network import Forest

from helpers import (
    TOPOLOGIES,
    dense_newton_matrix,
    exact_measurements,
    incidence_matrices,
    initial_state,
    random_network,
    scaled_backward_error,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("seed", range(3))
def test_incidence_products_match_dense(seed):
    net = random_network(seed, n_nodes=40)
    a12, a10 = incidence_matrices(net)
    rng = np.random.default_rng((303, seed))
    heads = rng.standard_normal(net.n_demand)
    flows = rng.standard_normal(net.n_pipes)
    tol = {"rtol": 1e-13, "atol": 1e-13}
    np.testing.assert_allclose(net.a12.dot(heads), a12 @ heads, **tol)
    np.testing.assert_allclose(net.a12.tdot(flows), a12.T @ flows, **tol)
    np.testing.assert_allclose(net.fixed_head_term, a10 @ net.fixed_heads, **tol)


@pytest.mark.parametrize("seed", range(3))
def test_incidence_products_on_column_blocks(seed):
    """With axis=-2 the products multiply stacked column blocks, and each
    column equals the product of that column alone."""
    net = random_network(seed, n_nodes=40)
    a12, _ = incidence_matrices(net)
    rng = np.random.default_rng((307, seed))
    heads = rng.standard_normal((3, net.n_demand, 5))
    flows = rng.standard_normal((3, net.n_pipes, 5))
    tol = {"rtol": 1e-13, "atol": 1e-13}
    np.testing.assert_allclose(net.a12.dot(heads, axis=-2), a12 @ heads, **tol)
    np.testing.assert_allclose(net.a12.tdot(flows, axis=-2), a12.T @ flows, **tol)
    np.testing.assert_array_equal(
        net.a12.tdot(flows, axis=-2)[1, :, 2], net.a12.tdot(flows[1, :, 2])
    )
    np.testing.assert_array_equal(
        net.a12.dot(heads, axis=-2)[2, :, 4], net.a12.dot(heads[2, :, 4])
    )


ORDERS = [1, 2, 63, 64, 65, 130, 305]  # one block, block edges, several blocks


def _spd(order, seed=17):
    rng = np.random.default_rng((seed, order))
    base = rng.standard_normal((order, order))
    return base @ base.T + order * np.eye(order)


@pytest.mark.parametrize("order", ORDERS)
def test_gram_factor_matches_cholesky(order):
    matrix = _spd(order)
    reference = np.linalg.cholesky(matrix)
    stack = matrix[None]
    factor = GramFactor(stack)  # in place: the lower triangle becomes the factor
    assert not factor.failed
    lower = np.tril(stack[0])
    assert np.max(np.abs(lower - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("columns", [None, 100])
@pytest.mark.parametrize("order", ORDERS)
def test_gram_factor_solve(order, columns):
    matrix = _spd(order)
    rng = np.random.default_rng((29, order))
    rhs = rng.standard_normal(order if columns is None else (order, columns))
    x = GramFactor(matrix[None].copy()).solve(rhs.reshape(1, order, -1))[0].reshape(rhs.shape)
    assert x.shape == rhs.shape
    assert scaled_backward_error(matrix, x, rhs) <= 1e-10


def test_gram_factor_rank_deficient_after_first_block():
    """Member 1 fails in its second block; it alone is reported, and the
    members around it factor and solve exactly as on their own."""
    order = 130
    rng = np.random.default_rng(31)
    lower = np.tril(rng.standard_normal((order, order)), -1) + np.diag(
        rng.uniform(1.0, 2.0, order)
    )
    matrix = lower @ lower.T
    # The leading 100 x 100 submatrix stays positive definite; the pivot of
    # row 100, in the second block, becomes -1.
    matrix[100, 100] -= lower[100, 100] ** 2 + 1.0
    np.linalg.cholesky(matrix[:100, :100])
    seeds = {0: 1, 2: 2}
    stack = np.stack([_spd(order, seed=seeds[0]), matrix, _spd(order, seed=seeds[2])])
    rhs = rng.standard_normal((3, order, 5))
    factor = GramFactor(stack)
    assert list(factor.failed) == [1]
    assert isinstance(factor.failed[1], RankDeficient)
    x = factor.solve(rhs)
    for member, seed in seeds.items():
        alone = _spd(order, seed=seed)[None]
        np.testing.assert_array_equal(
            GramFactor(alone).solve(rhs[member : member + 1])[0], x[member]
        )


def test_stacked_factor_matches_single_member_factor():
    """A stack of one factors and solves bit for bit like each member of a
    larger stack, across several blocks."""
    order = 305
    stack = np.stack([_spd(order, seed=seed) for seed in (3, 4, 5)])
    rhs = np.random.default_rng(37).standard_normal((3, order, 1))
    together = GramFactor(stack.copy())
    x = together.solve(rhs)
    for member in range(3):
        alone = stack[member : member + 1].copy()
        np.testing.assert_array_equal(GramFactor(alone).solve(rhs[member : member + 1])[0], x[member])


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_newton_factor_solves_dense_system(seed, n_nodes):
    """J^-1 B through the loop factor, for stacked column blocks, and for
    blocks with zero energy rows, against the dense Newton matrix at the
    steady state, to a tiny scaled backward error."""
    net = random_network(seed, n_nodes=n_nodes)
    q = solve_steady_state(net).state.q
    jac = jacobian_coefficients(net, q)
    newton = NewtonFactor(net, np.stack([jac, 2.0 * jac]))
    assert not newton.failed
    n_pipes = net.n_pipes
    b = np.random.default_rng((211, seed)).standard_normal((2, n_pipes + net.n_demand, 4))
    zero_energy = b.copy()
    zero_energy[:, :n_pipes] = 0.0
    x = newton.solve(b)
    heads_only = newton.solve(zero_energy)
    for member, scale in enumerate((1.0, 2.0)):
        matrix = dense_newton_matrix(net, q)
        matrix[:n_pipes, :n_pipes] *= scale
        assert scaled_backward_error(matrix, x[member], b[member]) <= 1e-10
        assert scaled_backward_error(matrix, heads_only[member], zero_energy[member]) <= 1e-10


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_newton_factor_solves_dense_system_on_topologies(topology):
    """J^-1 B through the forest sweeps and the loop factor against the
    dense Newton matrix, on networks with no loop, with pipes between
    fixed-head nodes and with a reservoir inside the spanning tree."""
    net = TOPOLOGIES[topology]()
    rng = np.random.default_rng(331)
    jac = rng.uniform(0.1, 10.0, (2, net.n_pipes))
    b = rng.standard_normal((2, net.n_pipes + net.n_demand, 3))
    newton = NewtonFactor(net, jac)
    assert not newton.failed
    x = newton.solve(b)
    a12, _ = incidence_matrices(net)
    zeros = np.zeros((net.n_demand, net.n_demand))
    for member in range(2):
        matrix = np.block([[np.diag(jac[member]), a12], [a12.T, zeros]])
        assert scaled_backward_error(matrix, x[member], b[member]) <= 1e-13


def _parity_case(members, seed):
    """A network whose loop factor spans three blocks (149 loops, two
    reservoirs), its 20 meters, and `members` random derivative diagonals
    around the initial state."""
    net = random_network(4, n_nodes=300)
    meas, _ = exact_measurements(net, seed=4, n_flow=10, n_head=10)
    system = build_augmented(net, meas)
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 2.0, (members, net.n_pipes))
    return net, system, jacobian_coefficients(net, initial_state(net).q) * scale, rng


@pytest.mark.parametrize("columns", ["1", "m", "N_p"])
@pytest.mark.parametrize("members", [1, 3, 5])
def test_stacked_products_match_single_members(members, columns):
    """Lockstep results equal single-member results bit for bit only if
    each stacked product gives every member what it gives that member
    alone; numpy's batched `matmul` does not promise it for every shape.
    Pinned here for the products of the loop path on 1, m and N_p
    columns: J^-1 against stacked column blocks and against blocks shared
    by all members (the sweeps, Z^T and Z w through the chords,
    `GramFactor.solve`), the loop factor's solve alone, and the blocks of
    `AugmentedSystem.linearize` (Z, Wj^-1 Z and the product C) with C's
    inverse and solve."""
    net, system, jac, rng = _parity_case(members, (337, members))
    n = net.n_pipes + net.n_demand
    m = system.telemetry_columns.size
    k = {"1": 1, "m": m, "N_p": net.n_demand}[columns]
    b = rng.standard_normal((members, n, k))
    shared = rng.standard_normal((n, k))
    loop_rhs = rng.standard_normal((members, net.forest.cotree.size, k))
    telemetry_rhs = rng.standard_normal((members, m, k))

    newton, *blocks = system.linearize(jac)
    stacked = newton.solve(b)
    broadcast = newton.solve(shared)
    loops = newton.loops.solve(loop_rhs)
    coupling = blocks[-1]
    inverse, _ = system.telemetry_solve(coupling)
    solved, _ = system.telemetry_solve(coupling, telemetry_rhs)
    for member in range(members):
        one = slice(member, member + 1)
        alone, *alone_blocks = system.linearize(jac[one])
        np.testing.assert_array_equal(alone.solve(b[one])[0], stacked[member])
        np.testing.assert_array_equal(alone.solve(shared)[0], broadcast[member])
        np.testing.assert_array_equal(alone.loops.solve(loop_rhs[one])[0], loops[member])
        for block, alone_block in zip(blocks, alone_blocks):
            np.testing.assert_array_equal(alone_block[0], block[member])
        np.testing.assert_array_equal(
            system.telemetry_solve(alone_blocks[-1])[0][0], inverse[member]
        )
        np.testing.assert_array_equal(
            system.telemetry_solve(alone_blocks[-1], telemetry_rhs[one])[0][0], solved[member]
        )


@pytest.mark.parametrize("members", [1, 3, 5])
def test_stacked_step_and_bound_match_single_members(members):
    """The matrix products of the step (Wj^-1 Z g) and of the bound
    (Y C^-1, its product with Z^T on each column block, and |columns|
    delta_y) give each member of a stack its single-member result."""
    net, system, jac, rng = _parity_case(members, (347, members))
    n, m = net.n_pipes + net.n_demand, system.telemetry_columns.size
    rhs = rng.standard_normal((members, n + m))
    delta = np.concatenate([np.zeros(net.n_pipes), np.full(net.n_demand, 0.02), np.full(m, 0.01)])
    step, _ = weighted_step(system, jac, rhs)
    bound, _ = bound_from_matrix(system, jac, delta)
    for member in range(members):
        one = slice(member, member + 1)
        np.testing.assert_array_equal(weighted_step(system, jac[one], rhs[one])[0][0], step[member])
        np.testing.assert_array_equal(bound_from_matrix(system, jac[one], delta)[0][0], bound[member])


# ---------------------------------------------------------------------------
# Oracle: the solve and the bound as written before the selectors' layout
# and their tree flows were made once per system
# ---------------------------------------------------------------------------

def _reference_solve(newton, b):
    """`NewtonFactor.solve` as it was written in one stage, gathering b into
    forest order and sweeping its continuity rows on every call."""
    forest, n_pipes = newton.net.forest, newton.net.n_pipes
    tree_energy = b[..., forest.tree_pipe, :]
    continuity = b[..., n_pipes + forest.order, :]
    flows = forest.tree_flows(continuity)
    heads = forest.path_sums(tree_energy - newton.tree_jac * flows)
    loop_flows = 0.0  # a tree network has no loops to correct
    if forest.cotree.size:
        loop_energy = b[..., forest.cotree, :]
        loop_flows = newton.loops.solve(loop_energy - forest.chords.dot(heads, axis=-2))
        flows = forest.tree_flows(continuity - forest.chords.tdot(loop_flows, axis=-2))
        heads = forest.path_sums(tree_energy - newton.tree_jac * flows)
    members, n_demand, k = heads.shape
    x = np.empty((members, n_pipes + n_demand, k))
    x[:, forest.tree_pipe] = flows
    x[:, forest.cotree] = loop_flows
    x[:, n_pipes + forest.order] = heads
    return x


def _reference_linearize(system, jac):
    """`AugmentedSystem.linearize` on the dense n x m columns of S^T."""
    n, m = system.shape[1], system.telemetry_columns.size
    selectors = np.zeros((n, m))
    selectors[system.telemetry_columns, np.arange(m)] = 1.0
    newton = NewtonFactor(system.net, jac)
    z = _reference_solve(newton, selectors)
    scaled = system.model_variance * z
    coupling = z.swapaxes(1, 2) @ scaled + system._telemetry_covariance
    return newton, z, scaled, coupling


def _reference_bound_from_matrix(system, jac, delta_y):
    """`bound_from_matrix` with its continuity columns as dense n x k unit
    blocks, gathered into forest order by each solve."""
    delta_y = np.abs(np.asarray(delta_y, dtype=float))
    n_pipes, n = system.net.n_pipes, system.shape[1]
    nodes = np.flatnonzero(delta_y[n_pipes:n])
    meters = np.flatnonzero(delta_y[n:])

    newton, z, scaled, coupling = _reference_linearize(system, jac)
    inverse, failures = system.telemetry_solve(coupling)
    failures.update(newton.failed)
    telemetry = _reference_solve(newton, scaled) @ inverse

    bound = np.abs(telemetry[:, :, meters]) @ delta_y[n + meters]
    block = block_columns(system.net)
    for start in range(0, nodes.size, block):
        rows = n_pipes + nodes[start : start + block]
        unit = np.zeros((n, rows.size))
        unit[rows, np.arange(rows.size)] = 1.0
        columns = _reference_solve(newton, unit)
        columns -= telemetry @ z[:, rows].swapaxes(1, 2)
        bound += np.abs(columns, out=columns) @ delta_y[rows]
    return bound, failures


def _topology_case(topology, members):
    """A `TOPOLOGIES` network with meters on up to 3 pipe flows and 3 heads
    (tree and co-tree pipes alike), random row weights, `members` random
    derivative diagonals and the generator that drew them."""
    net = TOPOLOGIES[topology]()
    rng = np.random.default_rng((353, members))
    columns = np.concatenate([
        rng.choice(net.n_pipes, size=min(3, net.n_pipes), replace=False),
        net.n_pipes + rng.choice(net.n_demand, size=min(3, net.n_demand), replace=False),
    ])
    n = net.n_pipes + net.n_demand
    weights = rng.uniform(0.5, 2.0, n + columns.size)
    system = AugmentedSystem(net, columns, rng.standard_normal(columns.size), weights)
    return net, system, rng.uniform(0.1, 10.0, (members, net.n_pipes)), rng


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_linearize_and_solve_match_reference(topology, members):
    """Z, Wj^-1 Z and C from the selectors laid out once, and solves on 0,
    1 and m stacked or shared columns, equal the one-stage solve bit for
    bit."""
    net, system, jac, rng = _topology_case(topology, members)
    newton, *blocks = system.linearize(jac)
    _, *reference_blocks = _reference_linearize(system, jac)
    for block, reference in zip(blocks, reference_blocks):
        np.testing.assert_array_equal(block, reference)
    n, m = system.shape[1], system.n_telemetry
    for k in (0, 1, m):
        for b in (rng.standard_normal((members, n, k)), rng.standard_normal((n, k))):
            x = newton.solve(b)
            assert x.shape == (members, n, k)
            np.testing.assert_array_equal(x, _reference_solve(newton, b))


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_bound_matches_reference(topology, members, monkeypatch):
    """The bound from unit continuity blocks laid out in forest order
    equals the bound from dense unit blocks bit for bit, in one block and
    in blocks of at least two columns."""
    net, system, jac, rng = _topology_case(topology, members)
    n = system.shape[1]
    delta_y = np.concatenate([
        np.zeros(net.n_pipes),
        rng.uniform(0.0, 0.1, net.n_demand) * (rng.random(net.n_demand) < 0.7),
        rng.uniform(0.0, 0.1, system.n_telemetry),
    ])
    for elements in (errorlimits._BOUND_ELEMENTS, 2 * n):
        monkeypatch.setattr(errorlimits, "_BOUND_ELEMENTS", elements)
        bound, failures = bound_from_matrix(system, jac, delta_y)
        reference, reference_failures = _reference_bound_from_matrix(system, jac, delta_y)
        assert failures == reference_failures == {}
        np.testing.assert_array_equal(bound, reference)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_selectors_are_swept_once_per_system(topology, monkeypatch):
    """Building the system sweeps the selectors' continuity rows once; each
    step then sweeps only the loop correction of Z (on a network with
    loops) and its own right-hand side (two sweeps with loops, one
    without): 1 + 3k calls of `Forest.tree_flows` for k steps, or 1 + k
    on a tree, where a sweep per step of the selectors made 4k and 2k."""
    net = TOPOLOGIES[topology]()
    meas, _ = exact_measurements(net, seed=5)
    x = initial_state(net)
    jac = jacobian_coefficients(net, x.q)[None]
    calls = []
    sweep = Forest.tree_flows

    def counted(forest, c):
        calls.append(c.shape)
        return sweep(forest, c)

    monkeypatch.setattr(Forest, "tree_flows", counted)
    system = build_augmented(net, meas)
    rhs = np.random.default_rng(359).standard_normal((1, system.shape[0]))
    steps = 3
    for _ in range(steps):
        weighted_step(system, jac, rhs)
    per_step = 3 if net.forest.cotree.size else 1
    assert len(calls) == 1 + per_step * steps


def test_no_scipy_import(demo_dir):
    code = f"""
import sys
from pathlib import Path
import hydrostate as hs
demo = Path({str(demo_dir)!r})
net = hs.parse_network((demo / "triangle.json").read_text())
meas_text = (demo / "triangle_meas.json").read_text()
meas = hs.report_io.decode_measurement_set(meas_text, net)
hs.solve_steady_state(net)
x = hs.estimate_state(net, meas).state
hs.sensitivity_bound(net, meas, x, hs.uncertainty_vector(net, meas))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = dict(os.environ)
    path = [str(SRC_DIR), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_only_stdlib_numpy_and_hydrostate_are_loaded(demo_dir):
    """The same run loads nothing beyond the standard library and numpy,
    and not `numpy.random`, which only the scenario and Monte Carlo draws
    need: any other import would add to every process's set-up time.
    Modules the interpreter's site hooks load before the program starts are
    left out."""
    code = f"""
import sys
before = set(sys.modules)
from pathlib import Path
import hydrostate as hs
demo = Path({str(demo_dir)!r})
net = hs.parse_network((demo / "triangle.json").read_text())
meas_text = (demo / "triangle_meas.json").read_text()
meas = hs.report_io.decode_measurement_set(meas_text, net)
hs.solve_steady_state(net)
x = hs.estimate_state(net, meas).state
hs.sensitivity_bound(net, meas, x, hs.uncertainty_vector(net, meas))
loaded = {{m.split(".")[0] for m in set(sys.modules) - before}}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
print("numpy.random" in sys.modules)
"""
    env = dict(os.environ)
    path = [str(SRC_DIR), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines() == ["hydrostate numpy", "False"]
