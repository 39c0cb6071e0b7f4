"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria:
  1. single-pipe solve oracle, < 1 s
  2. continuity on 25 random connected networks, < 30 s total
  3. estimator consistency + weight-scaling invariance
  4. error-limit laws: symmetry, zero, homogeneity, monotonicity
  5. Monte Carlo containment >= 95% on the triangle demo, < 60 s
  6. membership/violation hand oracles at 1e-12
  7. classifier structural properties
  8. end-to-end demo accuracy >= 0.90 with confusion matrix, < 2 min
  9. fixture round trips + 1000 located-or-accepted fuzzed corruptions
"""

import json
import subprocess
import sys
import time

import numpy as np

from hydrostate import (
    Cell,
    ClassifierModel,
    MeasurementSet,
    Measurement,
    Pattern,
    estimate_state,
    membership,
    monte_carlo_containment,
    sensitivity_bound,
    solve_steady_state,
    train,
    uncertainty_vector,
    violation,
)
from hydrostate import report_io

from conftest import DEMO_DIR
from helpers import exact_measurements, incidence_matrices, random_network
from test_report_io import fuzz_decoders


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_single_pipe_oracle():
    net = report_io.decode_network((DEMO_DIR / "single_pipe.json").read_text())
    solve_steady_state(net)  # the first LAPACK call sets up; keep it out of the timing

    start = time.perf_counter()
    report = solve_steady_state(net)
    elapsed = time.perf_counter() - start

    q_err = abs(report.state.q[0] - 2.0)
    h_err = abs(report.state.H[0] - (100.0 - 10.0 * 2.0 ** 1.852))
    ok = q_err <= 1e-12 and h_err <= 1e-8 and elapsed < 1.0
    _report(
        1,
        ok,
        f"q err {q_err:.2e}, H err {h_err:.2e}, runtime {elapsed:.3f}s",
    )


def test_criterion_2_continuity_on_random_networks():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        net = random_network(seed)  # 10..30 nodes by construction
        report = solve_steady_state(net)
        assert report.converged
        a12, _ = incidence_matrices(net)
        worst = max(worst, float(np.max(np.abs(a12.T @ report.state.q - net.demand))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(2, ok, f"worst continuity {worst:.2e}, total runtime {elapsed:.1f}s")


def test_criterion_3_estimator_consistency():
    worst = 0.0
    for seed in range(20):
        net = random_network(seed, n_nodes=int(10 + (seed * 7) % 21))
        meas, truth = exact_measurements(net, seed=seed, random_weights=True)
        report = estimate_state(net, meas)
        worst = max(
            worst, float(np.max(np.abs(report.state.vector - truth.state.vector)))
        )

    # weight-scaling invariance on the triangle demo
    net = report_io.decode_network((DEMO_DIR / "triangle.json").read_text())
    meas = report_io.decode_measurement_set(
        (DEMO_DIR / "triangle_meas.json").read_text(), net
    )
    base = estimate_state(net, meas).state.vector
    shrink = 1.0 / np.sqrt(53.0)
    scaled_meas = MeasurementSet(
        tuple(
            Measurement(m.kind, m.target, m.value, m.sigma * shrink, m.delta)
            for m in meas.measurements
        ),
        demand_sigma=meas.demand_sigma * shrink,
        demand_delta=meas.demand_delta,
    )
    scaled = estimate_state(net, scaled_meas, energy_sigma=1e-4 * shrink).state.vector
    scale_drift = float(np.max(np.abs(scaled - base)))

    ok = worst <= 1e-5 and scale_drift <= 1e-10
    _report(3, ok, f"worst recovery {worst:.2e}, weight-scale drift {scale_drift:.2e}")


def test_criterion_4_error_limit_laws():
    problems = []
    for seed in range(10):
        net = random_network(seed, n_nodes=10)
        meas, _ = exact_measurements(net, seed=seed)
        x_star = estimate_state(net, meas).state
        rows = net.n_pipes + net.n_demand + len(meas.measurements)

        zero = sensitivity_bound(net, meas, x_star, np.zeros(rows))
        if np.any(zero.halfwidth != 0.0):
            problems.append(f"seed {seed}: e*(0) != 0")

        rng = np.random.default_rng((909, seed))
        delta = np.zeros(rows)
        delta[net.n_pipes :] = rng.uniform(0.0, 0.1, rows - net.n_pipes)
        interval = sensitivity_bound(net, meas, x_star, delta)

        # symmetric by construction: both endpoints derive from one
        # nonnegative halfwidth vector
        center = interval.center.vector
        if not (
            np.array_equal(interval.upper, center + interval.halfwidth)
            and np.array_equal(interval.lower, center - interval.halfwidth)
            and np.all(interval.halfwidth >= 0)
        ):
            problems.append(f"seed {seed}: asymmetric interval")

        alpha = 3.25
        scaled = sensitivity_bound(net, meas, x_star, alpha * delta)
        if not np.allclose(
            scaled.halfwidth, alpha * interval.halfwidth, rtol=1e-12, atol=1e-12
        ):
            problems.append(f"seed {seed}: homogeneity violated")

        bump = np.zeros(rows)
        bump[net.n_pipes :] = rng.uniform(0.0, 0.05, rows - net.n_pipes)
        grown = sensitivity_bound(net, meas, x_star, delta + bump)
        if np.any(grown.halfwidth < interval.halfwidth - 1e-15):
            problems.append(f"seed {seed}: monotonicity violated")

    _report(4, not problems, "; ".join(problems) or "all laws hold on 10 instances")


def test_criterion_5_monte_carlo_containment():
    net = report_io.decode_network((DEMO_DIR / "triangle.json").read_text())
    meas = report_io.decode_measurement_set(
        (DEMO_DIR / "triangle_meas.json").read_text(), net
    )
    delta = uncertainty_vector(net, meas)  # shipped deltas: 1% of nominal
    start = time.perf_counter()
    fraction = monte_carlo_containment(net, meas, delta, samples=200, seed=42)
    elapsed = time.perf_counter() - start
    ok = fraction >= 0.95 and elapsed < 60.0
    _report(5, ok, f"containment {fraction:.3f}, runtime {elapsed:.1f}s")


def test_criterion_6_membership_hand_oracles():
    gamma2 = np.array([5.0, 5.0])
    inside = Cell(np.array([0.2, 0.2]), np.array([0.8, 0.8]), "x")
    contained = Pattern(np.array([0.4, 0.6]), np.array([0.4, 0.6]))

    gamma1 = np.array([5.0])
    ramp_cell = Cell(np.array([0.2]), np.array([0.6]), "x")

    checks = [
        abs(violation(inside, contained, gamma2) - 0.0),
        abs(membership(inside, contained, gamma2) - 1.0),
        abs(violation(ramp_cell, Pattern.crisp([0.7]), gamma1) - 0.5),
        abs(membership(ramp_cell, Pattern.crisp([0.7]), gamma1) - 0.5),
        abs(violation(ramp_cell, Pattern.crisp([0.9]), gamma1) - 1.0),
        abs(membership(ramp_cell, Pattern.crisp([0.9]), gamma1) - 0.0),
    ]
    worst = max(checks)
    _report(6, worst <= 1e-12, f"worst hand-oracle deviation {worst:.2e}")


def test_criterion_7_classifier_structure():
    rng = np.random.default_rng(99)
    examples = []
    for _ in range(40):
        center = rng.uniform(0.05, 0.3, 3)
        examples.append((Pattern(center - 0.02, center + 0.02), "one"))
        center = rng.uniform(0.6, 0.92, 3)
        examples.append((Pattern(center - 0.02, center + 0.02), "two"))

    first = train(ClassifierModel.create(3), examples)
    second = train(ClassifierModel.create(3), examples)

    coverage_ok = all(
        max(
            membership(cell, pattern, first.gamma)
            for cell in first.cells
            if cell.label == label
        )
        == 1.0
        for pattern, label in examples
    )
    growth_ok = len(first.cells) <= len(examples)
    identical = (
        len(first.cells) == len(second.cells)
        and first.labels == second.labels
        and all(
            a.label == b.label and np.array_equal(a.m, b.m) and np.array_equal(a.M, b.M)
            for a, b in zip(first.cells, second.cells)
        )
    )
    ok = coverage_ok and growth_ok and identical
    _report(
        7,
        ok,
        f"coverage={coverage_ok}, J={len(first.cells)}<=N={len(examples)}, "
        f"bit-identical retrain={identical}",
    )


def test_criterion_8_end_to_end_demo(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(DEMO_DIR / "run_demo.py"),
            "--out-dir",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr

    report, _ = json.JSONDecoder().raw_decode(proc.stdout)
    has_matrix = "confusion" in report and "confusion matrix" in proc.stdout
    ok = report["accuracy"] >= 0.90 and has_matrix and elapsed < 120.0
    _report(
        8,
        ok,
        f"held-out accuracy {report['accuracy']:.2f}, "
        f"confusion matrix printed={has_matrix}, runtime {elapsed:.1f}s",
    )


def test_criterion_9_round_trips_and_fuzzing():
    # (a) every shipped fixture survives decode-encode-decode identity
    net_single = report_io.decode_network((DEMO_DIR / "single_pipe.json").read_text())
    net_triangle = report_io.decode_network((DEMO_DIR / "triangle.json").read_text())
    for net in (net_single, net_triangle):
        again = report_io.decode_network(report_io.encode_network(net))
        assert again.nodes == net.nodes and again.pipes == net.pipes

    meas = report_io.decode_measurement_set(
        (DEMO_DIR / "triangle_meas.json").read_text(), net_triangle
    )
    assert (
        report_io.decode_measurement_set(
            report_io.encode_measurement_set(meas), net_triangle
        )
        == meas
    )

    spec = report_io.decode_scenario_spec((DEMO_DIR / "scenario.json").read_text())
    assert report_io.decode_scenario_spec(report_io.encode_scenario_spec(spec)) == spec

    # (b) 1000 single-field corruptions: accepted, or located SchemaError
    fuzz_decoders(DEMO_DIR, rounds=1000, seed=20240611)
    _report(9, True, "fixtures round-trip; 1000 corruptions accepted or located")
