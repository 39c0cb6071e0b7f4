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
from hydrostate import build_augmented, solve_steady_state
from hydrostate.errorlimits import bound_from_matrix
from hydrostate.estimator import weighted_step
from hydrostate.hydraulics import initial_state, jacobian_coefficients
from hydrostate.linearization import GramFactor, NewtonFactor
from hydrostate.network import incidence_matrices

from helpers import (
    TOPOLOGIES,
    dense_newton_matrix,
    exact_measurements,
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
    x = GramFactor(matrix[None].copy()).solve(rhs[None])[0]
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
    rhs = np.random.default_rng(37).standard_normal((3, order))
    together = GramFactor(stack.copy())
    x = together.solve(rhs)
    for member in range(3):
        alone = stack[member : member + 1].copy()
        np.testing.assert_array_equal(GramFactor(alone).solve(rhs[member : member + 1])[0], x[member])


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_newton_factor_solves_dense_system(seed, n_nodes):
    """J^-1 B through the loop factor, for stacked column blocks, and for
    blocks with zero energy rows (passed as 0.0), against the dense Newton
    matrix at the steady state, to a tiny scaled backward error."""
    net = random_network(seed, n_nodes=n_nodes)
    q = solve_steady_state(net).state.q
    jac = jacobian_coefficients(net, q)
    newton = NewtonFactor(net, np.stack([jac, 2.0 * jac]))
    assert not newton.failed
    n_pipes = net.n_pipes
    b = np.random.default_rng((211, seed)).standard_normal((2, n_pipes + net.n_demand, 4))
    x = newton.solve(b[:, :n_pipes], b[:, n_pipes:])
    heads_only = newton.solve(0.0, b[:, n_pipes:])
    for member, scale in enumerate((1.0, 2.0)):
        matrix = dense_newton_matrix(net, q)
        matrix[:n_pipes, :n_pipes] *= scale
        assert scaled_backward_error(matrix, x[member], b[member]) <= 1e-10
        zero_energy = np.concatenate([np.zeros((n_pipes, 4)), b[member, n_pipes:]])
        assert scaled_backward_error(matrix, heads_only[member], zero_energy) <= 1e-10


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
    x = newton.solve(b[:, : net.n_pipes], b[:, net.n_pipes :])
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
    `GramFactor.solve`), the loop factor's solve alone, and the telemetry
    update C (its product, its inverse and its solve)."""
    net, system, jac, rng = _parity_case(members, (337, members))
    n_pipes, n = net.n_pipes, net.n_pipes + net.n_demand
    m = system.telemetry_columns.size
    k = {"1": 1, "m": m, "N_p": net.n_demand}[columns]
    b = rng.standard_normal((members, n, k))
    shared = rng.standard_normal((n, k))
    loop_rhs = rng.standard_normal((members, net.forest.cotree.size, k))
    telemetry_rhs = rng.standard_normal((members, m, k))

    newton = NewtonFactor(net, jac)
    stacked = newton.solve(b[:, :n_pipes], b[:, n_pipes:])
    broadcast = newton.solve(shared[:n_pipes], shared[n_pipes:])
    loops = newton.loops.solve(loop_rhs)
    z = newton.solve(system.selectors[:n_pipes], system.selectors[n_pipes:])
    scaled = system.model_variance * z
    inverse, _ = system.telemetry_solve(z, scaled)
    solved, _ = system.telemetry_solve(z, scaled, telemetry_rhs)
    for member in range(members):
        one = slice(member, member + 1)
        alone = NewtonFactor(net, jac[one])
        np.testing.assert_array_equal(
            alone.solve(b[one, :n_pipes], b[one, n_pipes:])[0], stacked[member]
        )
        np.testing.assert_array_equal(
            alone.solve(shared[:n_pipes], shared[n_pipes:])[0], broadcast[member]
        )
        np.testing.assert_array_equal(alone.loops.solve(loop_rhs[one])[0], loops[member])
        np.testing.assert_array_equal(
            system.telemetry_solve(z[one], scaled[one])[0][0], inverse[member]
        )
        np.testing.assert_array_equal(
            system.telemetry_solve(z[one], scaled[one], telemetry_rhs[one])[0][0], solved[member]
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
