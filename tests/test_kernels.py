"""The kernels must agree with a direct scalar transcription of the
formulas."""

import numpy as np

from hydrostate import _kernels


def _random_inputs(seed):
    rng = np.random.default_rng(seed)
    n_cells, n_dims = 17, 6
    cell_min = rng.uniform(0, 0.6, (n_cells, n_dims))
    cell_max = cell_min + rng.uniform(0, 0.4, (n_cells, n_dims))
    p_inf = rng.uniform(0, 0.7, n_dims)
    p_sup = p_inf + rng.uniform(0, 0.3, n_dims)
    gamma = rng.uniform(0.5, 8.0, n_dims)
    return cell_min, cell_max, p_inf, p_sup, gamma


def test_loss_coefficients_scalar_oracle():
    q = np.array([0.0, 2.0, -3.0, 1e-9])
    scale = np.array([10.0, 10.0, 4.0, 2.0])
    exponent = np.array([1.852, 1.852, 2.0, 1.852])
    floor = 1e-6
    expected = [
        10.0 * (1e-6) ** 0.852,
        10.0 * 2.0 ** 0.852,
        4.0 * 3.0,
        2.0 * (1e-6) ** 0.852,
    ]
    np.testing.assert_allclose(
        _kernels.loss_coefficients(q, scale, exponent, floor), expected, rtol=1e-14
    )


def test_box_violations_scalar_oracle():
    cell_min, cell_max, p_inf, p_sup, gamma = _random_inputs(0)
    expected = np.zeros(cell_min.shape[0])
    for c in range(cell_min.shape[0]):
        worst = 0.0
        for i in range(cell_min.shape[1]):
            over = min(1.0, max(0.0, gamma[i] * (p_sup[i] - cell_max[c, i])))
            under = min(1.0, max(0.0, gamma[i] * (cell_min[c, i] - p_inf[i])))
            worst = max(worst, over, under)
        expected[c] = worst
    np.testing.assert_allclose(
        _kernels.box_violations(cell_min, cell_max, p_inf, p_sup, gamma),
        expected,
        rtol=1e-14,
    )


def test_expansion_metrics_scalar_oracle():
    cell_min, cell_max, p_inf, p_sup, _ = _random_inputs(1)
    theta = 0.5
    n_cells, n_dims = cell_min.shape
    exp_cost = np.zeros(n_cells)
    exp_feasible = np.zeros(n_cells, dtype=bool)
    for c in range(n_cells):
        ok = True
        total = 0.0
        for i in range(n_dims):
            lo = min(cell_min[c, i], p_inf[i])
            hi = max(cell_max[c, i], p_sup[i])
            if hi - lo > theta:
                ok = False
            total += (hi - lo) - (cell_max[c, i] - cell_min[c, i])
        exp_cost[c] = total
        exp_feasible[c] = ok
    cost, feasible = _kernels.expansion_metrics(cell_min, cell_max, p_inf, p_sup, theta)
    np.testing.assert_allclose(cost, exp_cost, rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(feasible, exp_feasible)


def test_empty_cell_set():
    empty = np.zeros((0, 3))
    out = _kernels.box_violations(empty, empty, np.zeros(3), np.zeros(3), np.ones(3))
    assert out.shape == (0,)
