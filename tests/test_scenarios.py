from dataclasses import replace

import numpy as np
import pytest

import hydrostate.scenarios
from hydrostate import (
    HydrostateError,
    RankDeficient,
    Measurement,
    MeasurementSet,
    MeterSpec,
    ScenarioSpec,
    denormalize,
    estimate_state,
    generate,
    report_io,
    sensitivity_bound,
    solve_steady_state,
    uncertainty_vector,
)

from helpers import random_network

METERS = (
    MeterSpec("pipe-flow", "p1", sigma=0.01, delta=0.02),
    MeterSpec("pipe-flow", "p2", sigma=0.01, delta=0.02),
    MeterSpec("node-head", "n1", sigma=0.02, delta=0.05),
    MeterSpec("node-head", "n2", sigma=0.02, delta=0.05),
)


def _spec(**overrides):
    base = dict(
        counts=(("normal", 3), ("leak@n1", 2)),
        leak_magnitude=(0.5, 1.0),
        demand_noise=0.02,
        demand_sigma=0.05,
        meters=METERS,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_zero_uncertainty_gives_crisp_pattern(triangle):
    crisp_meters = tuple(
        MeterSpec(m.kind, m.target, m.sigma, delta=0.0) for m in METERS
    )
    spec = _spec(
        counts=(("normal", 1),), demand_noise=0.0, meters=crisp_meters
    )
    patterns, manifest = generate(triangle, spec)
    assert len(patterns) == 1
    lp = patterns[0]
    assert lp.label == "normal"
    np.testing.assert_array_equal(lp.pattern.inf, lp.pattern.sup)


def test_determinism_bit_identical(triangle):
    first, manifest_a = generate(triangle, _spec())
    second, manifest_b = generate(triangle, _spec())
    assert manifest_a == manifest_b
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.label == b.label
        assert np.array_equal(a.pattern.inf, b.pattern.inf)
        assert np.array_equal(a.pattern.sup, b.pattern.sup)


def test_zero_magnitude_leak_matches_normal_stream(triangle):
    normal, _ = generate(triangle, _spec(counts=(("normal", 4),)))
    degenerate, _ = generate(
        triangle, _spec(counts=(("leak@n1", 4),), leak_magnitude=(0.0, 0.0))
    )
    for a, b in zip(normal, degenerate):
        assert a.label == "normal" and b.label == "leak@n1"
        np.testing.assert_array_equal(a.pattern.inf, b.pattern.inf)
        np.testing.assert_array_equal(a.pattern.sup, b.pattern.sup)


def test_label_balance_and_unit_cube(triangle):
    spec = _spec(counts=(("normal", 5), ("leak@n1", 3), ("leak@n2", 4)))
    patterns, manifest = generate(triangle, spec)
    counts = {}
    for lp in patterns:
        counts[lp.label] = counts.get(lp.label, 0) + 1
        assert np.all(lp.pattern.inf >= 0.0) and np.all(lp.pattern.sup <= 1.0)
        assert np.all(lp.pattern.inf <= lp.pattern.sup)
    assert counts == {"normal": 5, "leak@n1": 3, "leak@n2": 4}
    assert manifest["classes"] == counts
    assert manifest["failures"] == []
    assert len(manifest["normalization"]) == triangle.n_pipes + triangle.n_demand
    assert manifest["features"][0] == "q:p1"


def test_leak_separates_from_normal_beyond_halfwidth(triangle):
    """A 20%-of-total-demand leak moves the estimate outside the
    normal-condition error box in at least one component."""
    meas_specs = METERS
    demand_delta = tuple(0.01 * triangle.demand)

    def pipeline(net_for_truth):
        truth = solve_steady_state(net_for_truth).state
        meas = MeasurementSet(
            tuple(
                Measurement(
                    m.kind,
                    m.target,
                    value=float(
                        truth.q[triangle.pipe_index(m.target)]
                        if m.kind == "pipe-flow"
                        else truth.H[triangle.demand_index(m.target)]
                    ),
                    sigma=m.sigma,
                    delta=m.delta,
                )
                for m in meas_specs
            ),
            demand_sigma=0.05,
            demand_delta=demand_delta,
        )
        x_star = estimate_state(triangle, meas).state
        interval = sensitivity_bound(
            triangle, meas, x_star, uncertainty_vector(triangle, meas)
        )
        return interval

    normal = pipeline(triangle)
    leak_demands = triangle.demand.copy()
    leak_demands[0] += 0.2 * triangle.demand.sum()
    leaky = pipeline(triangle.with_demands(leak_demands))

    gap = np.abs(leaky.center.vector - normal.center.vector)
    assert np.any(gap > normal.halfwidth)


def test_failed_scenarios_are_recorded(triangle):
    # demand noise > 100% drives some true demands negative, which the
    # network model rejects; those scenarios must be skipped and counted.
    spec = _spec(counts=(("normal", 12),), demand_noise=1.5, seed=3)
    patterns, manifest = generate(triangle, spec)
    assert len(patterns) + len(manifest["failures"]) == 12
    assert len(manifest["failures"]) >= 1
    assert all(f["error"] for f in manifest["failures"])


def test_every_scenario_failing_raises_value_error(triangle, monkeypatch):
    def unobservable(system, values, **options):
        members = values.shape[0]
        failures = {m: RankDeficient("unobservable") for m in range(members)}
        return np.zeros((members, system.shape[1])), np.zeros(members, int), None, failures

    monkeypatch.setattr(hydrostate.scenarios, "estimate_members", unobservable)
    with pytest.raises(ValueError, match="every scenario failed"):
        generate(triangle, _spec())


def test_unknown_leak_node_rejected(triangle):
    with pytest.raises(ValueError):
        generate(triangle, _spec(counts=(("leak@zz", 1),)))


def test_unknown_meter_rejected(triangle):
    bad = (MeterSpec("pipe-flow", "nope", 0.01, 0.0),)
    with pytest.raises(ValueError):
        generate(triangle, _spec(meters=bad))


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(leak_magnitude=(2.0, 1.0))
    with pytest.raises(ValueError):
        _spec(counts=(("normal", 0),))
    with pytest.raises(ValueError):
        _spec(counts=(("weird-label", 1),))
    with pytest.raises(ValueError):
        _spec(demand_noise=-0.1)


def _single_case_chain(net, spec):
    """The public single-case chain (solve, estimate, bound), scenario by
    scenario, with the per-scenario draws `generate` documents. Returns the
    interval bounds and labels of the scenarios that succeed, and the
    manifest failure records of those that do not."""
    schedule = [label for label, count in spec.counts for _ in range(count)]
    demand_delta = tuple(spec.demand_noise * net.demand)
    lowers, uppers, labels, failures = [], [], [], []
    for index, label in enumerate(schedule):
        rng = np.random.default_rng((spec.seed, index))
        noise = rng.uniform(-1.0, 1.0, net.n_demand)
        magnitude = rng.uniform(spec.leak_magnitude[0], spec.leak_magnitude[1])
        demands = net.demand * (1.0 + spec.demand_noise * noise)
        if label.startswith("leak@"):
            demands[net.demand_index(label[len("leak@"):])] += magnitude
        try:
            truth = solve_steady_state(net.with_demands(demands)).state
            meas = MeasurementSet(
                tuple(
                    Measurement(
                        m.kind,
                        m.target,
                        value=float(
                            truth.q[net.pipe_index(m.target)]
                            if m.kind == "pipe-flow"
                            else truth.H[net.demand_index(m.target)]
                        ),
                        sigma=m.sigma,
                        delta=m.delta,
                    )
                    for m in spec.meters
                ),
                demand_sigma=spec.demand_sigma,
                demand_delta=demand_delta,
            )
            x_star = estimate_state(net, meas).state
            interval = sensitivity_bound(net, meas, x_star, uncertainty_vector(net, meas))
        except HydrostateError as exc:
            failures.append({"index": index, "label": label, "error": type(exc).__name__})
            continue
        lowers.append(interval.lower)
        uppers.append(interval.upper)
        labels.append(label)
    return np.array(lowers), np.array(uppers), labels, failures


def _random_network_spec(seed, n_meters, demand_noise):
    """Normal and two leak classes on a 30-node random network, with
    n_meters flow and n_meters head meters."""
    net = random_network(seed, n_nodes=30)
    rng = np.random.default_rng(53)
    pipes = rng.choice(net.n_pipes, size=n_meters, replace=False)
    nodes = rng.choice(net.n_demand, size=n_meters + 2, replace=False)
    meters = tuple(
        MeterSpec("pipe-flow", net.pipes[j].id, sigma=0.01, delta=0.02) for j in pipes
    ) + tuple(
        MeterSpec("node-head", net.demand_nodes[i].id, sigma=0.02, delta=0.05)
        for i in nodes[:n_meters]
    )
    leaks = [f"leak@{net.demand_nodes[i].id}" for i in nodes[n_meters:]]
    counts = (("normal", 10), (leaks[0], 8), (leaks[1], 8))
    return net, _spec(counts=counts, meters=meters, demand_noise=demand_noise, seed=19)


@pytest.mark.parametrize(
    "case, chunk_elements",
    [
        ("demo x4", None),
        ("demo x4", 400),  # 6 scenarios per chunk: Schur order 2, 5 meters, 7 bounded rows
        ("random network", None),
        ("estimator failures", None),  # 4 of 26 scenarios do not converge
        ("estimator failures", 1),  # one scenario per chunk: whole chunks fail
        ("negative demands", None),
    ],
)
def test_generate_matches_single_case_chain(case, chunk_elements, triangle, demo_dir, monkeypatch):
    """The stacked stages give the single-case chain's patterns, labels and
    failures, scenario by scenario."""
    if case == "demo x4":
        net = report_io.decode_network((demo_dir / "triangle.json").read_text())
        spec = report_io.decode_scenario_spec((demo_dir / "scenario.json").read_text())
        spec = replace(spec, counts=tuple((label, 4 * count) for label, count in spec.counts))
    elif case == "random network":
        net, spec = _random_network_spec(3, n_meters=10, demand_noise=0.02)
    elif case == "estimator failures":
        net, spec = _random_network_spec(5, n_meters=4, demand_noise=0.6)
    else:
        net, spec = triangle, _spec(counts=(("normal", 12),), demand_noise=1.5, seed=3)
    if chunk_elements is not None:
        monkeypatch.setattr(hydrostate.scenarios, "_CHUNK_ELEMENTS", chunk_elements)

    patterns, manifest = generate(net, spec)
    lowers, uppers, labels, failures = _single_case_chain(net, spec)

    assert manifest["failures"] == failures
    assert [lp.label for lp in patterns] == labels
    bounds = [denormalize(lp.pattern, manifest["normalization"]) for lp in patterns]
    tolerance = 1e-10 * np.max(np.abs((lowers + uppers) / 2))
    np.testing.assert_allclose([b[0] for b in bounds], lowers, rtol=0, atol=tolerance)
    np.testing.assert_allclose([b[1] for b in bounds], uppers, rtol=0, atol=tolerance)
