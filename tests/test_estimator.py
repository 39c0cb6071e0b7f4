import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hydrostate.estimator
from hydrostate import (
    Measurement,
    MeasurementSet,
    NonConvergence,
    RankDeficient,
    ValidationError,
    estimate_state,
    solve_steady_state,
)
from hydrostate.errorlimits import seeded_uniforms
from hydrostate.estimator import build_augmented, estimate_members, weighted_step
from hydrostate.hydraulics import jacobian_coefficients
from hydrostate.linearization import newton_step

from helpers import (
    augmented_residual,
    dense_augmented_matrix,
    dense_normal_equations,
    exact_measurements,
    initial_state,
    least_squares_reference,
    random_network,
    scaled_backward_error,
    theta_behind_reservoir,
)


def test_flow_measurement_selector_row(triangle):
    meas = MeasurementSet((Measurement("pipe-flow", "p1", 2.0, 0.1),))
    aug = build_augmented(triangle, meas)
    assert aug.telemetry_columns.tolist() == [0]


def test_head_measurement_selector_row(triangle):
    meas = MeasurementSet((Measurement("node-head", "n2", 60.0, 0.1),))
    aug = build_augmented(triangle, meas)
    assert aug.telemetry_columns.tolist() == [triangle.n_pipes + 1]


def test_empty_measurements_reduce_to_model_rows(triangle):
    aug = build_augmented(triangle, MeasurementSet())
    assert aug.n_telemetry == 0
    assert aug.weights.shape == (triangle.n_pipes + triangle.n_demand,)


def test_unknown_target(triangle):
    meas = MeasurementSet((Measurement("pipe-flow", "nope", 1.0, 0.1),))
    with pytest.raises(ValidationError) as excinfo:
        build_augmented(triangle, meas)
    assert excinfo.value.path == "/measurements/0/target"


@pytest.mark.parametrize(
    "k, kind, target, expected",
    [
        (0, "pipe-flow", "n1", "existing pipe id"),
        (1, "node-head", "r1", "existing demand node id"),
    ],
)
def test_unknown_targets_located(triangle, k, kind, target, expected):
    meters = [Measurement("node-head", "n1", 60.0, 0.1)] * 2
    meters[k] = Measurement(kind, target, 1.0, 0.1)
    with pytest.raises(ValidationError) as excinfo:
        build_augmented(triangle, MeasurementSet(tuple(meters)))
    assert str(excinfo.value) == f"/measurements/{k}/target: expected {expected}, found {target!r}"


@pytest.mark.parametrize(
    "energy_sigma, expected",
    [
        (-1e-4, "number > 0"),
        (math.inf, "finite number"),
        (math.nan, "number > 0"),
        (0.0, "number > 0"),
        (1e-200, "sigma with a finite weight 1/sigma^2"),
        (-1e-200, "number > 0"),
    ],
)
def test_energy_sigma_checked_as_a_sigma(triangle, energy_sigma, expected):
    """An energy sigma that `check_sigma` rejects is a plain ValueError
    that names it, raised before any numpy work, so with no warning."""
    meas, _ = exact_measurements(triangle, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as excinfo:
            estimate_state(triangle, meas, energy_sigma=energy_sigma)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"energy_sigma: expected {expected}, found {energy_sigma}"


def test_consistent_data_fixed_point(triangle):
    meas, truth = exact_measurements(triangle, seed=0)
    report = estimate_state(triangle, meas)
    assert report.converged
    diff = np.max(np.abs(report.state.vector - truth.state.vector))
    assert diff <= 1e-6


def test_no_telemetry_matches_forward_solve(triangle):
    forward = solve_steady_state(triangle)
    estimate = estimate_state(triangle, MeasurementSet(demand_sigma=0.5))
    diff = np.max(np.abs(estimate.state.vector - forward.state.vector))
    assert diff <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_consistent_data_random_weights(seed):
    net = random_network(seed, n_nodes=12)
    meas, truth = exact_measurements(net, seed=seed, random_weights=True)
    report = estimate_state(net, meas)
    diff = np.max(np.abs(report.state.vector - truth.state.vector))
    assert diff <= 1e-5


def test_biased_measurement_pulls_estimate(triangle):
    """A heavily weighted biased flow meter wins over the demand rows."""
    truth = solve_steady_state(triangle).state
    biased_value = 1.05 * truth.q[0]
    meas = MeasurementSet(
        (Measurement("pipe-flow", "p1", float(biased_value), sigma=1e-4),),
        demand_sigma=10.0,
    )
    estimate = estimate_state(triangle, meas).state
    err_to_measured = abs(estimate.q[0] - biased_value) / abs(biased_value)
    err_to_truth = abs(estimate.q[0] - truth.q[0]) / abs(truth.q[0])
    assert err_to_measured < err_to_truth


def test_weight_scaling_invariance(triangle):
    meas, _ = exact_measurements(triangle, seed=3)
    base = estimate_state(triangle, meas)

    alpha = 37.0  # scale W by alpha: divide every sigma by sqrt(alpha)
    shrink = 1.0 / np.sqrt(alpha)
    scaled_meas = MeasurementSet(
        tuple(
            Measurement(m.kind, m.target, m.value, m.sigma * shrink, m.delta)
            for m in meas.measurements
        ),
        demand_sigma=meas.demand_sigma * shrink,
    )
    scaled = estimate_state(
        triangle, scaled_meas, energy_sigma=1e-4 * shrink
    )
    diff = np.max(np.abs(scaled.state.vector - base.state.vector))
    assert diff <= 1e-10


def _assert_steps_solve_normal_equations(net, meas, steps):
    """Accepted steps satisfy the dense reference normal equations to a
    tiny scaled backward error."""
    aug = build_augmented(net, meas)
    x = initial_state(net)
    for _ in range(steps):
        rhs = -augmented_residual(net, aug, x)
        dx, failures = weighted_step(aug, jacobian_coefficients(net, x.q)[None], rhs[None])
        assert not failures
        dx = dx[0]
        gram, b = dense_normal_equations(dense_augmented_matrix(net, aug, x.q), aug.weights, rhs)
        assert scaled_backward_error(gram, dx, b) <= 1e-10
        x = type(x)(x.q + dx[: net.n_pipes], x.H + dx[net.n_pipes :])


def test_step_solves_normal_equations(triangle):
    meas, _ = exact_measurements(triangle, seed=1)
    _assert_steps_solve_normal_equations(triangle, meas, steps=3)


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_step_solves_normal_equations_on_random_networks(seed, n_nodes):
    net = random_network(seed, n_nodes=n_nodes)
    meas, _ = exact_measurements(net, seed=seed, n_flow=10, n_head=10)
    _assert_steps_solve_normal_equations(net, meas, steps=4)


@pytest.mark.parametrize("seed, n_nodes", [(5, 150), (7, 200)])
def test_step_matches_least_squares_reference(seed, n_nodes):
    """Each step equals the weighted least-squares solution on W^(1/2) A
    from an SVD-based solve, to 1e-6 relative in the max-norm, over the
    first three steps from the initial state. Solving A^T W A instead,
    whose condition number is about 1e21 here, loses all but about three
    digits."""
    net = random_network(seed, n_nodes=n_nodes)
    meas, _ = exact_measurements(net, seed=seed, n_flow=15, n_head=15)
    aug = build_augmented(net, meas)
    x = initial_state(net)
    for _ in range(3):
        rhs = -augmented_residual(net, aug, x)
        dx, failures = weighted_step(aug, jacobian_coefficients(net, x.q)[None], rhs[None])
        assert not failures
        matrix = dense_augmented_matrix(net, aug, x.q)
        reference = least_squares_reference(matrix, aug.weights, rhs)
        assert np.max(np.abs(dx[0] - reference)) <= 1e-6 * np.max(np.abs(reference))
        x = type(x)(x.q + dx[0, : net.n_pipes], x.H + dx[0, net.n_pipes :])


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_step_without_telemetry_is_newton_step(seed, n_nodes):
    """With no telemetry rows, A = J is square and invertible, so the
    weighted step is the Newton step, whatever the weights. Checked at the
    steady state (cond(J) about 5e6 and 2e9) with a random right-hand
    side; both go through the loop-form solve of J."""
    net = random_network(seed, n_nodes=n_nodes)
    aug = build_augmented(net, MeasurementSet(demand_sigma=0.3))
    jac = jacobian_coefficients(net, solve_steady_state(net).state.q)[None]
    rhs = np.random.default_rng(seed).standard_normal((1, net.n_pipes + net.n_demand))
    newton, newton_failures = newton_step(net, jac, -rhs)
    dx, failures = weighted_step(aug, jac, rhs)
    assert not failures and not newton_failures
    assert np.max(np.abs(dx - newton)) <= 1e-11 * np.max(np.abs(newton))


def _metered_theta_behind_reservoir():
    """`theta_behind_reservoir` with a flow meter on pipe ab2 and a head
    meter on node b."""
    net = theta_behind_reservoir()
    meas = MeasurementSet(
        (Measurement("pipe-flow", "ab2", 1.0, 0.05), Measurement("node-head", "b", 98.0, 0.05))
    )
    return net, build_augmented(net, meas)


def test_rank_deficient_normal_equations():
    """The shared pipe is 1e20 times stiffer than the rest, so the loop
    matrix [[1e20 + 1, 1e20], [1e20, 1e20 + 1]] rounds to singular and
    fails the Cholesky gate."""
    net, system = _metered_theta_behind_reservoir()
    _, failures = weighted_step(system, np.array([[1.0, 1e20, 1.0, 1.0]]), np.ones((1, 8)))
    assert list(failures) == [0]
    assert isinstance(failures[0], RankDeficient)


def test_stacked_weighted_step_isolates_bad_member():
    """One member's linearization is singular to working precision: that
    member alone fails, with the error of its own single-member step, and
    every other member's correction is bit for bit its single-member
    correction."""
    net, system = _metered_theta_behind_reservoir()
    jac = np.array(
        [
            [1.0, 2.0, 0.5, 1.5],
            [3.0, 0.5, 2.0, 1.0],
            [1.0, 1e20, 1.0, 1.0],
            [0.25, 4.0, 1.0, 2.0],
        ]
    )
    rhs = np.random.default_rng(41).standard_normal((4, 8))
    dx, failures = weighted_step(system, jac, rhs)
    assert list(failures) == [2]
    assert isinstance(failures[2], RankDeficient)
    for member in range(4):
        alone, alone_failures = weighted_step(
            system, jac[member : member + 1], rhs[member : member + 1]
        )
        if member == 2:
            assert type(alone_failures[0]) is type(failures[2])
        else:
            assert not alone_failures
            np.testing.assert_array_equal(dx[member], alone[0])


def test_repeated_step_leaves_static_gram_unchanged():
    """The loop matrix is factored in place, and the solves start from the
    shared telemetry columns laid out in forest order with their tree
    flows. The blocks every step is built from (those selector blocks, the
    variances and Wt^-1) must survive, so repeated steps at one
    linearization agree; the selector blocks are read-only."""
    net = random_network(4, n_nodes=300)  # 149 loops: several blocks
    meas, _ = exact_measurements(net, seed=4, n_flow=10, n_head=10)
    aug = build_augmented(net, meas)
    x = initial_state(net)
    jac = jacobian_coefficients(net, x.q)[None]
    rhs = -augmented_residual(net, aug, x)[None]
    shared = [
        [block.copy() for block in aug.selectors],
        aug.model_variance.copy(),
        aug._telemetry_covariance.copy(),
    ]
    first, _ = weighted_step(aug, jac, rhs)
    second, _ = weighted_step(aug, jac, rhs)
    np.testing.assert_array_equal(first, second)
    assert len(aug.selectors) == len(shared[0]) == 4
    for block, before in zip(aug.selectors, shared[0]):
        np.testing.assert_array_equal(block, before)
        assert not block.flags.writeable
    np.testing.assert_array_equal(aug.model_variance, shared[1])
    np.testing.assert_array_equal(aug._telemetry_covariance, shared[2])


@pytest.mark.parametrize("run", ["solve", "estimate"])
def test_a_failed_run_leaves_no_reference_cycle(triangle, run):
    """The raised error is not held by the frame that its traceback holds,
    so that frame's arrays (an estimate's augmented system) are freed with
    the error, not at the next cyclic collection."""
    meas, _ = exact_measurements(triangle, seed=0)
    calls = {
        "solve": lambda: solve_steady_state(triangle, max_iter=1),
        "estimate": lambda: estimate_state(triangle, meas, max_iter=0),
    }
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(NonConvergence):
            calls[run]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_zero_iterations_raise_non_convergence(triangle):
    """With no iteration to run there is no correction: each member fails
    with a NaN norm, and the history has no rows."""
    meas, _ = exact_measurements(triangle, seed=0)
    with pytest.raises(NonConvergence) as info:
        estimate_state(triangle, meas, max_iter=0)
    assert info.value.iterations == 0
    assert math.isnan(info.value.residual)
    system = build_augmented(triangle, meas)
    values = system.values * np.array([[1.0], [1.01]])
    x, iterations, step_norms, failures = estimate_members(system, values, max_iter=0)
    assert step_norms.shape == (0, 2)
    assert list(failures) == [0, 1]
    assert all(math.isnan(failures[m].residual) for m in failures)
    assert not iterations.any()
    np.testing.assert_array_equal(x, np.repeat(initial_state(triangle).vector[None], 2, axis=0))


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(tol_x=float("nan")), "tol_x must be > 0"),
        (dict(tol_x=-1.0), "tol_x must be > 0"),
        (dict(max_iter=-3), "max_iter must be >= 0"),
    ],
    ids=["tol_x nan", "tol_x negative", "max_iter negative"],
)
def test_misused_iteration_arguments_are_value_errors(triangle, options, message):
    meas, _ = exact_measurements(triangle, seed=0)
    with pytest.raises(ValueError, match=message):
        estimate_state(triangle, meas, **options)


def test_omega_range_checked(triangle):
    """Both entry points reject an omega outside (0, 1.5] before iterating."""
    with pytest.raises(ValueError):
        estimate_state(triangle, MeasurementSet(), omega=2.0)
    meas, _ = exact_measurements(triangle, seed=0)
    system = build_augmented(triangle, meas)
    for omega in (0.0, 5.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match=r"omega must be in \(0, 1\.5\]"):
            estimate_state(triangle, meas, omega=omega)
        with pytest.raises(ValueError, match=r"omega must be in \(0, 1\.5\]"):
            estimate_members(system, system.values[None], omega=omega)


def test_under_relaxation_same_answer(triangle):
    meas, truth = exact_measurements(triangle, seed=5)
    relaxed = estimate_state(triangle, meas, omega=0.7, max_iter=200)
    assert relaxed.converged
    diff = np.max(np.abs(relaxed.state.vector - truth.state.vector))
    assert diff <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_idempotence_over_random_weights(triangle, seed):
    """Exact data is recovered for any positive weight diagonal."""
    rng = np.random.default_rng((303, seed))
    truth = solve_steady_state(triangle).state
    measurements = (
        Measurement("pipe-flow", "p1", float(truth.q[0]), float(rng.uniform(0.01, 2.0))),
        Measurement("node-head", "n2", float(truth.H[1]), float(rng.uniform(0.01, 2.0))),
    )
    meas = MeasurementSet(
        measurements, demand_sigma=float(rng.uniform(0.01, 2.0))
    )
    report = estimate_state(triangle, meas)
    assert np.max(np.abs(report.state.vector - truth.vector)) <= 1e-6


def test_step_norm_convergence_flag(triangle):
    meas, _ = exact_measurements(triangle, seed=2)
    report = estimate_state(triangle, meas)
    assert report.converged
    assert report.step_norms[-1] <= 1e-8


def test_step_norms_have_a_row_per_iteration_run(triangle):
    """The correction norms hold the iterations that ran, not a row per
    iteration of the budget."""
    meas, _ = exact_measurements(triangle, seed=2)
    system = build_augmented(triangle, meas)
    x, iterations, step_norms, failures = estimate_members(
        system, system.values[None], max_iter=10**7
    )
    assert not failures
    assert step_norms.shape == (iterations[0], 1)
    assert step_norms[-1, 0] <= 1e-8


def test_step_norms_are_of_the_full_correction(triangle):
    """Under relaxation each iterate moves by omega times its correction,
    and the norm recorded and tested against tol_x is the full
    correction's, not the damped move's."""
    meas, _ = exact_measurements(triangle, seed=5)
    system = build_augmented(triangle, meas)
    first, _, _, _ = estimate_members(system, system.values[None], omega=0.5, max_iter=1)
    second, _, step_norms, _ = estimate_members(
        system, system.values[None], omega=0.5, max_iter=2
    )
    assert step_norms.shape == (2, 1)
    move = np.max(np.abs(second[0] - first[0]))
    rounding = 4 * np.finfo(float).eps * np.max(np.abs(second[0]))
    assert abs(step_norms[1, 0] - move / 0.5) <= rounding / 0.5


def test_lockstep_estimate_with_members_failing_a_later_step(monkeypatch):
    """Members whose weighted step fails on the second iteration keep their
    own errors and one iteration; the other members end bit for bit as in a
    run where no step fails."""
    net = random_network(3, n_nodes=30)
    meas, _ = exact_measurements(net, seed=3, n_flow=10, n_head=10)
    rng = np.random.default_rng(59)
    values = np.array([m.value for m in meas.measurements]) * (
        1.0 + rng.uniform(-0.003, 0.003, (6, len(meas.measurements)))
    )
    system = build_augmented(net, meas)
    expected = estimate_members(system, values)
    calls = []

    def failing_second_step(system, jac, rhs):
        calls.append(jac.shape[0])
        dx, failures = weighted_step(system, jac, rhs)
        if len(calls) == 2:
            failures.update({m: RankDeficient(f"step {m}") for m in (1, 4)})
        return dx, failures

    monkeypatch.setattr(hydrostate.estimator, "weighted_step", failing_second_step)
    x, iterations, step_norms, failures = estimate_members(system, values)
    assert calls[:2] == [6, 6]  # no member stops after one step
    assert [str(failures[m]) for m in (1, 4)] == ["step 1", "step 4"]
    assert iterations[[1, 4]].tolist() == [1, 1]
    assert np.isnan(step_norms[1:, [1, 4]]).all()
    others = [0, 2, 3, 5]
    np.testing.assert_array_equal(x[others], expected[0][others])
    np.testing.assert_array_equal(iterations[others], expected[1][others])
    assert step_norms.shape == expected[2].shape
    np.testing.assert_array_equal(step_norms[:, others], expected[2][:, others])
    assert {m: str(failures[m]) for m in failures if m in others} == {
        m: str(expected[3][m]) for m in expected[3] if m in others
    }


@pytest.mark.parametrize(
    "seed, n_nodes, meters", [(3, 30, 10), (2, 60, 15), (1, 100, 15), (5, 150, 15)]
)
def test_estimates_converge_on_telemetry_within_its_sigma(seed, n_nodes, meters):
    """Telemetry drawn uniformly in boxes of 2 % of each value converges in
    every draw when each meter's sigma is a third of its box. The same
    draws with sigma = 0.05, in boxes up to 2.6e5 sigmas wide, fail 32, 8,
    40 and 40 times out of 40 in 50 iterations."""
    net = random_network(seed, n_nodes=n_nodes)
    meas, _ = exact_measurements(net, seed=1, n_flow=meters, n_head=meters)
    value = np.array([m.value for m in meas.measurements])
    delta = 0.02 * np.abs(value)
    meas = MeasurementSet(
        tuple(replace(m, sigma=float(d / 3)) for m, d in zip(meas.measurements, delta)),
        demand_sigma=meas.demand_sigma,
    )
    draws = value + delta * (2.0 * seeded_uniforms(1, 40, value.size) - 1.0)
    _, _, _, failures = estimate_members(build_augmented(net, meas), draws)
    assert not failures


@pytest.mark.parametrize("max_iter", [50, 25])
def test_lockstep_estimate_matches_single_estimates(max_iter):
    """Each member of a lockstep estimate ends bit for bit where its own
    estimate ends, after as many iterations, or fails the same way. The
    members take 23 to 28 iterations, or do not converge in 50."""
    net = random_network(3, n_nodes=30)
    meas, _ = exact_measurements(net, seed=3, n_flow=10, n_head=10)
    rng = np.random.default_rng(59)
    values = np.array([m.value for m in meas.measurements]) * (
        1.0 + rng.uniform(-0.003, 0.003, (8, len(meas.measurements)))
    )
    system = build_augmented(net, meas)
    x, iterations, step_norms, failures = estimate_members(system, values, max_iter=max_iter)
    outcomes = set()
    for member, row in enumerate(values):
        member_meas = MeasurementSet(
            tuple(
                Measurement(m.kind, m.target, float(v), m.sigma, m.delta)
                for m, v in zip(meas.measurements, row)
            ),
            demand_sigma=meas.demand_sigma,
        )
        try:
            alone = estimate_state(net, member_meas, max_iter=max_iter)
        except NonConvergence as exc:
            assert isinstance(failures[member], NonConvergence)
            assert failures[member].residual == exc.residual
            outcomes.add("failed")
            continue
        assert member not in failures
        np.testing.assert_array_equal(x[member], alone.state.vector)
        assert iterations[member] == alone.iterations
        assert step_norms[: alone.iterations, member].tolist() == alone.step_norms
        outcomes.add("converged")
    assert outcomes == {"converged", "failed"}
