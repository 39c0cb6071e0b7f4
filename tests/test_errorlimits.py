import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hydrostate.errorlimits
from hydrostate import (
    IntervalState,
    Measurement,
    MeasurementSet,
    RankDeficient,
    ScenarioSpec,
    ValidationError,
    estimate_state,
    monte_carlo_containment,
    sensitivity_bound,
    solve_steady_state,
    uncertainty_vector,
)
from hydrostate.errorlimits import bound_from_matrix, seeded_uniforms
from hydrostate.estimator import build_augmented
from hydrostate.network import Forest
from helpers import (
    STRUCTURE_NETWORKS,
    dense_augmented_matrix,
    dense_newton_matrix,
    exact_measurements,
    least_squares_reference,
    random_network,
    reference_unit_columns,
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


def _bounds_against_reference(net, meas):
    """The bound at the estimate, with 2 % demand and 1 % telemetry
    half-widths, and the least-squares reference bound."""
    x_star = estimate_state(net, meas).state
    n_model = net.n_pipes + net.n_demand
    delta = np.zeros(n_model + len(meas.measurements))
    delta[net.n_pipes : n_model] = 0.02 * net.demand
    delta[n_model:] = [0.01 * abs(m.value) for m in meas.measurements]
    bound = sensitivity_bound(net, meas, x_star, delta).halfwidth
    return bound, _least_squares_bound(net, meas, x_star, delta)


@pytest.mark.parametrize("seed, n_nodes", [(5, 150), (7, 200)])
def test_bound_matches_least_squares_reference_closely(seed, n_nodes):
    """The bound agrees with the least-squares reference to 1e-7 relative
    (measured: 6.7e-9 and 2.7e-9), where a bound through the normal
    equations A^T W A (condition number about 1e21 here) keeps only about
    three digits."""
    net = random_network(seed, n_nodes=n_nodes)
    meas, _ = exact_measurements(net, seed=seed, n_flow=15, n_head=15)
    bound, reference = _bounds_against_reference(net, meas)
    assert np.linalg.norm(bound - reference) <= 1e-7 * np.linalg.norm(reference)


@pytest.mark.parametrize(
    "seed, n_nodes, tolerance", [(None, None, 1e-9), (5, 150, 2.5e-2), (7, 200, 2.5e-2)]
)
def test_bound_matches_least_squares_reference(triangle, seed, n_nodes, tolerance):
    """The bound against |S| |dy| with S from a least-squares solve on
    W^(1/2) A (SVD based, no normal equations). cond(A^T W A) is about 7e8
    on the triangle and about 1e21 on the random networks; the tighter
    check on the random networks is the _closely test above."""
    if seed is None:
        net, meas = triangle, exact_measurements(triangle, seed=0)[0]
    else:
        net = random_network(seed, n_nodes=n_nodes)
        meas, _ = exact_measurements(net, seed=seed, n_flow=15, n_head=15)
    bound, reference = _bounds_against_reference(net, meas)
    error = np.linalg.norm(bound - reference) / np.linalg.norm(reference)
    assert error <= tolerance


@pytest.mark.parametrize("network", STRUCTURE_NETWORKS)
def test_bound_matches_reference_unit_columns(network, monkeypatch):
    """The bound from root-path unit columns equals, bit for bit, the bound
    from the earlier build of each block (a comparison with `order` and a
    `tree_flows` sweep), on two stacked members at random derivative
    diagonals and with blocks of three columns, so that most networks take
    several blocks."""
    net = STRUCTURE_NETWORKS[network]()
    meters = [Measurement("pipe-flow", p.id, 1.0, 0.05) for p in net.pipes[:2]]
    meters += [Measurement("node-head", n.id, 90.0, 0.1) for n in net.demand_nodes[:2]]
    aug = build_augmented(net, MeasurementSet(tuple(meters), demand_sigma=0.2))
    rng = np.random.default_rng(337)
    jac = rng.uniform(0.5, 20.0, (2, net.n_pipes))
    delta_y = np.zeros(aug.shape[0])
    delta_y[net.n_pipes :] = rng.uniform(0.01, 0.1, aug.shape[0] - net.n_pipes)
    delta_y[net.n_pipes + net.n_demand // 2] = 0.0  # a continuity row without a column
    monkeypatch.setattr(hydrostate.errorlimits, "_BOUND_ELEMENTS", 3 * aug.shape[1])
    bound, failures = bound_from_matrix(aug, jac, delta_y)
    monkeypatch.setattr(Forest, "unit_columns", reference_unit_columns)
    reference, reference_failures = bound_from_matrix(aug, jac, delta_y)
    assert not failures and not reference_failures
    assert np.array_equal(bound, reference)


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


def test_energy_row_halfwidth_is_rejected(triangle):
    # The bound carries no sensitivity to the model equations, so a
    # half-width there would be dropped without a word.
    meas, x_star = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    delta[0] = 1.0
    with pytest.raises(ValueError, match="energy rows"):
        sensitivity_bound(triangle, meas, x_star, delta)


def test_singular_telemetry_update_is_rank_deficient(triangle):
    """Two head meters on one node with a tiny sigma make the telemetry
    update C = Z^T Wj^-1 Z + Wt^-1 singular in floats, for the estimator
    and for the bound alike."""
    x_true = solve_steady_state(triangle).state
    head = float(x_true.H[0])
    meter = Measurement("node-head", "n1", head, 1e-150)
    meas = MeasurementSet((meter, meter), demand_sigma=0.1)
    with pytest.raises(RankDeficient, match="telemetry update is singular"):
        estimate_state(triangle, meas)
    with pytest.raises(RankDeficient, match="telemetry update is singular"):
        sensitivity_bound(triangle, meas, x_true, uncertainty_vector(triangle, meas))


NAN = float("nan")
_SPEC = dict(counts=(("normal", 1),), leak_magnitude=(0.0, 1.0), demand_noise=0.05,
             demand_sigma=0.1, meters=(), seed=0)


def _nan_delta_y(triangle):
    meas, x_star = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    delta[-1] = NAN
    sensitivity_bound(triangle, meas, x_star, delta)


def _nan_halfwidth(triangle):
    _, x_star = _triangle_setup(triangle)
    IntervalState(x_star, np.array([0.0, 0.0, 0.0, NAN, 0.0]))


@pytest.mark.parametrize(
    "build",
    [
        lambda net: Measurement("pipe-flow", "p1", 1.0, 0.1, delta=NAN),
        lambda net: MeasurementSet(demand_delta=(0.1, NAN)),
        lambda net: ScenarioSpec(**dict(_SPEC, demand_noise=NAN)),
        lambda net: ScenarioSpec(**dict(_SPEC, leak_magnitude=(NAN, 1.0))),
        lambda net: ScenarioSpec(**dict(_SPEC, leak_magnitude=(0.0, NAN))),
        _nan_delta_y,
        _nan_halfwidth,
        lambda net: net.with_demands(np.array([1.0, NAN])),
    ],
    ids=[
        "measurement delta", "demand_delta", "demand_noise", "leak_magnitude low",
        "leak_magnitude high", "delta_y", "halfwidth", "network demand",
    ],
)
def test_non_negative_checks_reject_nan(triangle, build):
    with pytest.raises((ValueError, ValidationError)):
        build(triangle)


def _per_stream_uniforms(seed, count, width, lo, hi):
    return np.array(
        [np.random.default_rng((seed, k)).uniform(lo, hi, width) for k in range(count)]
    )


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**70),
    count=st.integers(1, 64),
    width=st.integers(1, 40),
    # -0.0 sorts before 0.0: numpy's `uniform(0.0, -0.0)` rejects high - low.
    bounds=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2).map(
        lambda b: sorted(b, key=lambda v: (v, math.copysign(1.0, v)))
    ),
)
@example(seed=2**32 - 1, count=3, width=2, bounds=[-1.0, 1.0])
@example(seed=2**96 + 5, count=3, width=2, bounds=[-1.0, 1.0])  # five entropy words
@example(seed=2**200 + 3, count=2, width=5, bounds=[0.5, 1.0])  # eight entropy words
@example(seed=0, count=1, width=1, bounds=[-0.0, 0.0])  # signed zeros
def test_seeded_uniforms_match_default_rng(seed, count, width, bounds):
    """Each row, scaled as `uniform` scales a draw, is the stream of
    `default_rng((seed, k))`, bit for bit."""
    lo, hi = bounds
    draws = seeded_uniforms(seed, count, width)
    assert draws.shape == (count, width)
    assert np.array_equal(lo + (hi - lo) * draws, _per_stream_uniforms(seed, count, width, lo, hi))


def test_seeded_uniforms_many_rows():
    draws = seeded_uniforms(1234, 5000, 3)
    assert np.array_equal(-1.0 + 2.0 * draws, _per_stream_uniforms(1234, 5000, 3, -1.0, 1.0))


@pytest.mark.parametrize(
    "count, width",
    [
        (40, 340),  # the containment workload's samples
        (1, 1501),  # one scenario of `gen` on a 1,500-node network
        # Four blocks of columns, the last one partial.
        (100, 3 * (hydrostate.errorlimits._DRAW_ELEMENTS // 100) + 7),
        (0, 3),
        (3, 0),
    ],
)
def test_seeded_uniforms_match_default_rng_beyond_the_drawn_shapes(count, width):
    """Shapes the property test does not draw: wide rows, several blocks
    of columns, and no rows or no columns."""
    draws = seeded_uniforms(2**40 + 17, count, width)
    reference = [np.random.default_rng((2**40 + 17, k)).random(width) for k in range(count)]
    assert draws.shape == (count, width)
    assert np.array_equal(draws, np.array(reference).reshape(count, width))


def test_seeded_uniforms_reject_negative_seed():
    with pytest.raises(ValueError):
        np.random.default_rng((-1, 0))
    with pytest.raises(ValueError):
        seeded_uniforms(-1, 2, 3)


def test_seeded_uniforms_reject_a_count_beyond_one_entropy_word():
    """The count is checked before any array is made: 2^32 + 1 rows of
    entropy words alone would take gigabytes."""
    with pytest.raises(ValueError) as excinfo:
        seeded_uniforms(0, 2**32 + 1, 1)
    assert str(excinfo.value) == "count must be <= 2^32, so that k is one entropy word"


def test_containment_needs_a_sample(triangle):
    meas, _ = _triangle_setup(triangle)
    delta = uncertainty_vector(triangle, meas)
    with pytest.raises(ValueError) as excinfo:
        monte_carlo_containment(triangle, meas, delta, samples=0, seed=0)
    assert str(excinfo.value) == "samples must be >= 1"


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
