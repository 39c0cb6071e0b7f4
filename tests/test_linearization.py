"""The shared linearization: sparse incidence products against the dense
incidence, the blocked Cholesky factor and its solves, and the numpy-only
dependency."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hydrostate.errors import RankDeficient
from hydrostate.linearization import GramFactor
from hydrostate.network import incidence_matrices

from helpers import random_network, scaled_backward_error

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("seed", range(3))
def test_incidence_products_match_dense(seed):
    net = random_network(seed, n_nodes=40)
    a12, a10 = incidence_matrices(net)
    rng = np.random.default_rng((303, seed))
    heads = rng.standard_normal(net.n_demand)
    flows = rng.standard_normal(net.n_pipes)
    pipe_weights = rng.uniform(0.1, 2.0, net.n_pipes)
    node_weights = rng.uniform(0.1, 2.0, net.n_demand)
    tol = {"rtol": 1e-13, "atol": 1e-13}
    np.testing.assert_allclose(net.a12.dot(heads), a12 @ heads, **tol)
    np.testing.assert_allclose(net.a12.tdot(flows), a12.T @ flows, **tol)
    np.testing.assert_allclose(
        net.a12.node_gram(pipe_weights), a12.T @ (pipe_weights[:, None] * a12), **tol
    )
    saddle = np.block(
        [
            [np.zeros((net.n_pipes, net.n_pipes)), a12],
            [a12.T, np.zeros((net.n_demand, net.n_demand))],
        ]
    )
    weights = np.concatenate([pipe_weights, node_weights])
    position, sign, row = net.a12.saddle_gram_terms
    gram = np.bincount(position, weights=sign * weights[row], minlength=saddle.size)
    np.testing.assert_allclose(
        gram.reshape(saddle.shape), saddle.T @ (weights[:, None] * saddle), **tol
    )
    np.testing.assert_allclose(net.fixed_head_term, a10 @ net.fixed_heads, **tol)


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
