import numpy as np
import pytest

import hydrostate.errorlimits
from hydrostate import (
    IntervalState,
    MeasurementSet,
    RankDeficient,
    build_augmented,
    estimate_state,
    monte_carlo_containment,
    sensitivity_bound,
    uncertainty_vector,
)
from helpers import (
    dense_augmented_matrix,
    dense_newton_matrix,
    exact_measurements,
    least_squares_reference,
    random_network,
)


def _triangle_setup(triangle, seed=0):
    meas, _ = exact_measurements(triangle, seed=seed)
    estimate = estimate_state(triangle, meas)
    return meas, estimate.state


def _least_squares_bound(net, meas, x_star, delta):
    """|S| |delta| with the sensitivity S from a least-squares solve on
    W^(1/2) A (SVD based, no normal equations)."""
    aug = build_augmented(net, meas)
    rows = np.flatnonzero(delta)
    sensitivity = least_squares_reference(
        dense_augmented_matrix(net, aug, x_star.q), aug.weights, np.eye(delta.size)[:, rows]
    )
    return np.abs(sensitivity) @ delta[rows]


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_bound_without_telemetry_is_newton_inverse(seed, n_nodes):
    """Square invertible case: with no telemetry rows the bound reduces to
    |J^-1| |delta| with J the dense Newton matrix, whatever the weights."""
    net = random_network(seed, n_nodes=n_nodes)
    meas = MeasurementSet(demand_sigma=0.3, demand_delta=tuple(0.02 * net.demand))
    x_star = estimate_state(net, meas).state
    delta = uncertainty_vector(net, meas)
    bound = sensitivity_bound(net, meas, x_star, delta).halfwidth
    reference = np.abs(np.linalg.inv(dense_newton_matrix(net, x_star.q))) @ delta
    assert np.max(np.abs(bound - reference)) <= 1e-10 * np.max(reference)


@pytest.mark.parametrize("seed, n_nodes", [(5, 150), (7, 200)])
def test_bound_matches_least_squares_reference_closely(seed, n_nodes):
    """The bound agrees with the least-squares reference to 1e-6 relative,
    where a bound through the normal equations A^T W A (condition number
    about 1e21 here) keeps only about three digits."""
    net = random_network(seed, n_nodes=n_nodes)
    meas, _ = exact_measurements(net, seed=seed, n_flow=15, n_head=15)
    x_star = estimate_state(net, meas).state
    n_model = net.n_pipes + net.n_demand
    delta = np.zeros(n_model + len(meas.measurements))
    delta[net.n_pipes : n_model] = 0.02 * net.demand
    delta[n_model:] = [0.01 * abs(m.value) for m in meas.measurements]
    bound = sensitivity_bound(net, meas, x_star, delta).halfwidth
    reference = _least_squares_bound(net, meas, x_star, delta)
    assert np.linalg.norm(bound - reference) <= 1e-6 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    "seed, n_nodes, tolerance", [(None, None, 1e-9), (5, 150, 2.5e-2), (7, 200, 2.5e-2)]
)
def test_bound_matches_least_squares_reference(triangle, seed, n_nodes, tolerance):
    """The normal-equations bound against |S| |dy| with S from a
    least-squares solve on W^(1/2) A (SVD based, no normal equations).
    cond(A^T W A) is about 7e8 on the triangle and about 1e21 on the
    random networks, where only about two digits survive."""
    if seed is None:
        net, meas = triangle, exact_measurements(triangle, seed=0)[0]
    else:
        net = random_network(seed, n_nodes=n_nodes)
        meas, _ = exact_measurements(net, seed=seed, n_flow=15, n_head=15)
    x_star = estimate_state(net, meas).state
    n_model = net.n_pipes + net.n_demand
    delta = np.zeros(n_model + len(meas.measurements))
    delta[net.n_pipes : n_model] = 0.02 * net.demand
    delta[n_model:] = [0.01 * abs(m.value) for m in meas.measurements]
    bound = sensitivity_bound(net, meas, x_star, delta).halfwidth

    aug = build_augmented(net, meas)
    root_w = np.sqrt(aug.weights)
    rows = np.flatnonzero(delta)
    sensitivity = np.linalg.lstsq(
        root_w[:, None] * dense_augmented_matrix(net, aug, x_star.q),
        np.eye(delta.size)[:, rows] * root_w[:, None],
        rcond=None,
    )[0]
    reference = np.abs(sensitivity) @ delta[rows]
    error = np.linalg.norm(bound - reference) / np.linalg.norm(reference)
    assert error <= tolerance


def test_zero_uncertainty_collapses_interval(triangle):
    meas, x_star = _triangle_setup(triangle)
    delta = np.zeros(triangle.n_pipes + triangle.n_demand + len(meas.measurements))
    interval = sensitivity_bound(triangle, meas, x_star, delta)
    np.testing.assert_array_equal(interval.halfwidth, 0.0)
    np.testing.assert_array_equal(interval.lower, interval.upper)


def test_homogeneity(triangle):
    meas, x_star = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    delta[triangle.n_pipes :] = 0.01  # give every data row some width
    base = sensitivity_bound(triangle, meas, x_star, delta).halfwidth
    alpha = 7.25
    scaled = sensitivity_bound(triangle, meas, x_star, alpha * delta).halfwidth
    np.testing.assert_allclose(scaled, alpha * base, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_monotonicity_in_delta(seed):
    net = random_network(seed, n_nodes=10)
    meas, _ = exact_measurements(net, seed=seed)
    x_star = estimate_state(net, meas).state
    rng = np.random.default_rng((404, seed))
    rows = net.n_pipes + net.n_demand + len(meas.measurements)
    delta = np.zeros(rows)
    delta[net.n_pipes :] = rng.uniform(0.0, 0.1, rows - net.n_pipes)
    bump = np.zeros(rows)
    bump[net.n_pipes :] = rng.uniform(0.0, 0.05, rows - net.n_pipes)
    small = sensitivity_bound(net, meas, x_star, delta).halfwidth
    large = sensitivity_bound(net, meas, x_star, delta + bump).halfwidth
    assert np.all(large >= small - 1e-15)


def test_symmetry_by_construction(triangle):
    meas, x_star = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    interval = sensitivity_bound(triangle, meas, x_star, delta)
    center = interval.center.vector
    # one halfwidth vector defines both endpoints
    np.testing.assert_array_equal(interval.upper, center + interval.halfwidth)
    np.testing.assert_array_equal(interval.lower, center - interval.halfwidth)
    assert np.all(interval.halfwidth >= 0)


def test_uncertainty_vector_layout(triangle):
    meas = MeasurementSet(
        measurements=(),
        demand_sigma=0.1,
        demand_delta=(0.3, 0.4),
    )
    delta = uncertainty_vector(triangle, meas)
    np.testing.assert_array_equal(delta, [0.0, 0.0, 0.0, 0.3, 0.4])


def test_interval_state_validation(triangle):
    meas, x_star = _triangle_setup(triangle)
    with pytest.raises(ValueError):
        IntervalState(x_star, -np.ones(5))
    with pytest.raises(ValueError):
        IntervalState(x_star, np.ones(4))
    with pytest.raises(ValueError):
        sensitivity_bound(triangle, meas, x_star, np.zeros(3))


def test_containment_zero_delta_is_exact(triangle):
    meas, _ = _triangle_setup(triangle)
    delta = np.zeros(triangle.n_pipes + triangle.n_demand + len(meas.measurements))
    assert monte_carlo_containment(triangle, meas, delta, samples=3, seed=11) == 1.0


def test_containment_single_nominal_sample(triangle):
    meas, _ = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    # zero widths: the single sample sits at the nominal data
    assert monte_carlo_containment(triangle, meas, np.zeros_like(delta), 1, 5) == 1.0


def test_containment_counts_failed_sample_as_outside(triangle, monkeypatch):
    meas, _ = _triangle_setup(triangle)
    delta = np.zeros(triangle.n_pipes + triangle.n_demand + len(meas.measurements))
    samples, calls = 4, []

    def estimate_failing_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:  # the nominal estimate, then the second sample
            raise RankDeficient("normal equations are not positive definite")
        return estimate_state(*args, **kwargs)

    monkeypatch.setattr(hydrostate.errorlimits, "estimate_state", estimate_failing_once)
    fraction = monte_carlo_containment(triangle, meas, delta, samples=samples, seed=11)
    assert len(calls) == samples + 1
    assert fraction == (samples - 1) / samples


def test_containment_counts_negative_demand_sample_as_outside(triangle, monkeypatch):
    """Demand boxes of three times the demands draw negative demands on
    some samples. Those samples count as non-contained, and only the others
    are estimated."""
    meas, _ = _triangle_setup(triangle)
    meas = MeasurementSet(
        meas.measurements,
        demand_sigma=meas.demand_sigma,
        demand_delta=tuple(3.0 * triangle.demand),
    )
    delta = uncertainty_vector(triangle, meas)
    samples, seed = 20, 1
    demand_rows = slice(triangle.n_pipes, triangle.n_pipes + triangle.n_demand)
    negative = sum(
        bool(
            (
                triangle.demand
                + (np.random.default_rng((seed, k)).uniform(-1.0, 1.0, delta.size) * delta)[
                    demand_rows
                ]
                < 0
            ).any()
        )
        for k in range(samples)
    )
    assert negative >= 1
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return estimate_state(*args, **kwargs)

    monkeypatch.setattr(hydrostate.errorlimits, "estimate_state", counted)
    fraction = monte_carlo_containment(triangle, meas, delta, samples=samples, seed=seed)
    assert len(calls) == 1 + samples - negative
    assert 0.0 < fraction <= (samples - negative) / samples


def test_containment_deterministic(triangle):
    meas, _ = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    delta[triangle.n_pipes :] += 0.01
    first = monte_carlo_containment(triangle, meas, delta, samples=10, seed=3)
    second = monte_carlo_containment(triangle, meas, delta, samples=10, seed=3)
    assert first == second


def test_containment_smoke(demo_dir):
    """First-order bound holds for 1%-of-nominal data uncertainty."""
    from hydrostate import report_io

    net = report_io.decode_network((demo_dir / "triangle.json").read_text())
    meas = report_io.decode_measurement_set(
        (demo_dir / "triangle_meas.json").read_text(), net
    )
    delta = uncertainty_vector(net, meas)
    fraction = monte_carlo_containment(net, meas, delta, samples=40, seed=9)
    assert fraction >= 0.9
