import numpy as np
import pytest

import hydrostate.hydraulics
from hydrostate import (
    Network,
    Node,
    NonConvergence,
    Pipe,
    SingularSystem,
    residual,
    solve_steady_state,
)
from hydrostate.hydraulics import (
    StateVector,
    initial_states,
    jacobian_coefficients,
    solve_members,
)
from hydrostate.linearization import newton_step

from helpers import (
    TOPOLOGIES,
    dense_newton_matrix,
    incidence_matrices,
    initial_state,
    random_network,
    scaled_backward_error,
    theta_behind_reservoir,
)


def test_single_pipe_continuity_forces_flow(single_pipe):
    report = solve_steady_state(single_pipe)
    assert report.converged
    assert report.state.q[0] == pytest.approx(2.0, abs=1e-12)


def test_single_pipe_head_oracle(single_pipe):
    report = solve_steady_state(single_pipe)
    assert report.state.H[0] == pytest.approx(100.0 - 10.0 * 2.0 ** 1.852, abs=1e-8)


def test_parallel_pipes_split_by_symmetry():
    net = Network(
        [Node("r", "fixed-head", head=50.0), Node("n", "demand", demand=4.0)],
        [Pipe("a", "r", "n", 8.0), Pipe("b", "r", "n", 8.0)],
    )
    report = solve_steady_state(net)
    np.testing.assert_allclose(report.state.q, [2.0, 2.0], atol=1e-10)


def test_residual_zero_at_solution(triangle):
    report = solve_steady_state(triangle)
    assert np.max(np.abs(residual(triangle, report.state))) <= 1e-8


def test_residual_head_perturbation(triangle):
    report = solve_steady_state(triangle)
    base = residual(triangle, report.state)
    bumped = report.state.copy()
    bumped.H[1] += 1.0
    moved = residual(triangle, bumped) - base

    a12, _ = incidence_matrices(triangle)
    n_pipes = triangle.n_pipes
    # continuity rows unchanged, energy rows move by the incidence column
    np.testing.assert_array_equal(moved[n_pipes:], 0.0)
    np.testing.assert_allclose(moved[:n_pipes], a12[:, 1], atol=1e-12)
    assert np.count_nonzero(moved[:n_pipes]) == 2  # n2 touches pipes p2 and p3


def test_residual_zero_state(single_pipe):
    r = residual(single_pipe, StateVector(np.zeros(1), np.zeros(1)))
    np.testing.assert_allclose(r, [-100.0, -2.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_random_network_continuity(seed):
    net = random_network(seed)
    report = solve_steady_state(net)
    assert report.converged
    a12, _ = incidence_matrices(net)
    violation = np.max(np.abs(a12.T @ report.state.q - net.demand))
    assert violation <= 1e-6


def test_resistance_scaling_leaves_flows(triangle):
    base = solve_steady_state(triangle).state
    alpha = 3.7
    scaled_net = Network(
        list(triangle.nodes),
        [
            Pipe(p.id, p.from_node, p.to_node, alpha * p.resistance, p.exponent)
            for p in triangle.pipes
        ],
    )
    scaled = solve_steady_state(scaled_net).state
    np.testing.assert_allclose(scaled.q, base.q, atol=1e-9)
    # heads move: losses scale by alpha below the single reservoir
    np.testing.assert_allclose(
        100.0 - scaled.H, alpha * (100.0 - base.H), rtol=1e-8
    )


def test_damped_newton_monotone_residual(triangle):
    report = solve_steady_state(triangle)
    history = report.residual_history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_non_convergence_reports_iterations(triangle):
    with pytest.raises(NonConvergence) as excinfo:
        solve_steady_state(triangle, max_iter=1)
    assert excinfo.value.iterations == 1
    assert excinfo.value.residual > 0


@pytest.mark.parametrize(
    "options, message",
    [
        (dict(tol_r=float("nan")), "tol_r must be > 0"),
        (dict(tol_r=-1.0), "tol_r must be > 0"),
        (dict(tol_r=0.0), "tol_r must be > 0"),
        (dict(max_iter=-3), "max_iter must be >= 0"),
    ],
    ids=["tol_r nan", "tol_r negative", "tol_r zero", "max_iter negative"],
)
def test_misused_iteration_arguments_are_value_errors(triangle, options, message):
    with pytest.raises(ValueError, match=message):
        solve_steady_state(triangle, **options)


def test_zero_iterations_are_legal(triangle):
    """With no iteration to run, each member fails with its start residual
    max-norm, the one row of its history."""
    with pytest.raises(NonConvergence) as excinfo:
        solve_steady_state(triangle, max_iter=0)
    assert excinfo.value.iterations == 0
    start = np.max(np.abs(residual(triangle, initial_state(triangle))))
    assert excinfo.value.residual == start
    demands = triangle.demand * np.array([[1.0], [2.0]])
    x, iterations, history, failures = solve_members(triangle, demands, max_iter=0)
    assert history.shape == (1, 2)
    assert history[0, 0] == start
    assert [failures[m].residual for m in failures] == history[0].tolist()
    assert not iterations.any()
    np.testing.assert_array_equal(x, initial_states(triangle, demands))


def test_singular_linear_system():
    # The shared pipe is 1e20 times stiffer than the rest, so the loop
    # matrix [[1e20 + 1, 1e20], [1e20, 1e20 + 1]] rounds to singular.
    net = theta_behind_reservoir()
    _, failures = newton_step(net, np.array([[1.0, 1e20, 1.0, 1.0]]), np.ones((1, 6)))
    assert list(failures) == [0]
    assert isinstance(failures[0], SingularSystem)


def test_singular_step_raises_from_solve(triangle, monkeypatch):
    """A Newton step that fails on the only member ends the solve with that
    member's SingularSystem."""

    def singular_step(net, jac, residual):
        return np.zeros_like(residual), {0: SingularSystem("singular loop matrix")}

    monkeypatch.setattr(hydrostate.hydraulics, "newton_step", singular_step)
    with pytest.raises(SingularSystem, match="singular loop matrix"):
        solve_steady_state(triangle)


def test_lockstep_solve_with_every_member_failing_a_later_step(triangle, monkeypatch):
    """When every remaining member fails one step, each is recorded with
    its own error, and the members that converged before keep their
    results."""
    calls = []

    def failing_second_step(net, jac, residual):
        calls.append(jac.shape[0])
        if len(calls) < 2:
            return newton_step(net, jac, residual)
        return np.zeros_like(residual), {
            m: SingularSystem(f"step {m}") for m in range(jac.shape[0])
        }

    demands = triangle.demand * np.array([[1.0], [0.0], [2.0]])
    monkeypatch.setattr(hydrostate.hydraulics, "newton_step", failing_second_step)
    x, iterations, _, failures = solve_members(triangle, demands)
    assert calls[0] == 2  # zero demand starts at its solution
    assert [str(failures[m]) for m in failures] == ["step 0", "step 1"]
    assert list(failures) == [0, 2]
    assert iterations[1] == 0
    np.testing.assert_array_equal(x[1, : triangle.n_pipes], 0.0)


def test_stacked_newton_step_isolates_bad_member():
    """Member 1 has the singular loop matrix of the test above: it alone
    fails, with the error of its own single-member step, and every other
    member's step is bit for bit its single-member step."""
    net = theta_behind_reservoir()
    jac = np.array([[2.0, 3.0, 1.0, 0.5], [1.0, 1e20, 1.0, 1.0], [0.5, 4.0, 2.0, 1.5]])
    r = np.random.default_rng(43).standard_normal((3, 6))
    steps, failures = newton_step(net, jac, r)
    assert list(failures) == [1]
    for member in range(3):
        alone, alone_failures = newton_step(
            net, jac[member : member + 1], r[member : member + 1]
        )
        if member == 1:
            assert isinstance(failures[1], SingularSystem)
            assert type(alone_failures[0]) is type(failures[1])
        else:
            assert not alone_failures
            np.testing.assert_array_equal(steps[member], alone[0])


@pytest.mark.parametrize("seed, n_nodes", [(3, 30), (5, 150)])
def test_newton_step_solves_dense_system(seed, n_nodes):
    net = random_network(seed, n_nodes=n_nodes)
    x = initial_state(net)
    for _ in range(4):
        r = residual(net, x)
        step, failures = newton_step(net, jacobian_coefficients(net, x.q)[None], r[None])
        assert not failures
        step = step[0]
        assert scaled_backward_error(dense_newton_matrix(net, x.q), step, -r) <= 1e-10
        x = StateVector(x.q + step[: net.n_pipes], x.H + step[net.n_pipes :])


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_initial_state_is_forest_flow_of_demands(topology):
    """The start meets continuity, with zero co-tree flows and every head at
    the mean fixed head; each member of a stack gets its own start bit for
    bit."""
    net = TOPOLOGIES[topology]()
    x = initial_state(net)
    a12, _ = incidence_matrices(net)
    assert np.max(np.abs(a12.T @ x.q - net.demand)) <= 1e-12 * np.sum(net.demand)
    assert not x.q[net.forest.cotree].any()
    assert (x.H == np.mean(net.fixed_heads)).all()
    demands = net.demand * np.random.default_rng(3).uniform(0.5, 2.0, (4, net.n_demand))
    stacked = initial_states(net, demands)
    for member, demand in enumerate(demands):
        np.testing.assert_array_equal(stacked[member], initial_states(net, demand[None])[0])


def test_state_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan]), np.array([1.0]))


def test_state_vector_rejects_a_2d_flow_vector():
    with pytest.raises(ValueError) as excinfo:
        StateVector(np.zeros((2, 1)), np.zeros(1))
    assert str(excinfo.value) == "q and H must be 1-d vectors"


def test_multigraph_and_reservoir_link():
    """Parallel pipes and a reservoir-to-reservoir pipe are legal
    topologies and solve cleanly."""
    net = Network(
        [
            Node("rA", "fixed-head", head=100.0),
            Node("rB", "fixed-head", head=90.0),
            Node("n1", "demand", demand=3.0),
        ],
        [
            Pipe("link", "rA", "rB", 5.0),
            Pipe("dup1", "rA", "n1", 8.0),
            Pipe("dup2", "rA", "n1", 8.0),
            Pipe("feed", "rB", "n1", 12.0),
        ],
    )
    report = solve_steady_state(net)
    assert report.converged
    assert np.max(np.abs(residual(net, report.state))) <= 1e-8
    # identical parallel pipes carry identical flow
    assert abs(report.state.q[1] - report.state.q[2]) <= 1e-10
    # the direct link drains the higher reservoir toward the lower one
    assert report.state.q[0] > 0


def test_deterministic_repeat(triangle):
    first = solve_steady_state(triangle)
    second = solve_steady_state(triangle)
    np.testing.assert_array_equal(first.state.q, second.state.q)
    np.testing.assert_array_equal(first.state.H, second.state.H)
    assert first.iterations == second.iterations


def test_history_has_a_row_per_iteration_run(triangle):
    """The residual history holds the start and the iterations that ran,
    not a row per iteration of the budget."""
    x, iterations, history, failures = solve_members(
        triangle, triangle.demand[None], max_iter=10**7
    )
    assert not failures
    assert history.shape == (iterations[0] + 1, 1)
    assert history[-1, 0] <= 1e-8


@pytest.mark.parametrize("max_iter", [50, 8])
def test_lockstep_solve_matches_single_solves(max_iter):
    """Each member of a lockstep solve ends bit for bit where its own solve
    ends, after as many iterations, or fails the same way. The members take
    6 to 10 iterations, so with max_iter 8 some run out of iterations."""
    net = random_network(3, n_nodes=30)
    rng = np.random.default_rng(47)
    demands = net.demand * (1.0 + rng.uniform(-0.9, 3.0, (12, net.n_demand)))
    x, iterations, history, failures = solve_members(net, demands, max_iter=max_iter)
    outcomes = set()
    for member, demand in enumerate(demands):
        try:
            alone = solve_steady_state(net.with_demands(demand), max_iter=max_iter)
        except NonConvergence as exc:
            assert isinstance(failures[member], NonConvergence)
            assert failures[member].residual == exc.residual
            outcomes.add("failed")
            continue
        assert member not in failures
        np.testing.assert_array_equal(x[member], alone.state.vector)
        assert iterations[member] == alone.iterations
        assert history[: alone.iterations + 1, member].tolist() == alone.residual_history
        outcomes.add("converged")
    assert outcomes == ({"converged"} if max_iter == 50 else {"converged", "failed"})
