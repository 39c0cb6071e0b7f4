"""The benchmark's three workloads: seeded inputs, timed operations and
untimed correctness checks.

Every operation is the library work one CLI subcommand does (decode the
input files, compute, encode the report), called in-process so that no
process start-up is timed. Inputs are generated here from the benchmark
seed and handed to the program only as the JSON texts the CLI would read.
"""

import contextlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOL_R = 1e-8  # the CLI's default residual tolerance
# Stated bound on |estimate - forward-solve truth| for exact telemetry; the
# current estimator lands within about 1e-8 of the truth at 800 nodes.
TRUTH_TOL = 1e-6
DEMO_ACCURACY_GATE = 0.90
CAUSES = ("NonConvergence", "RankDeficient", "SingularSystem", "PatternTooWide")


def cause_of(error_name: str) -> str:
    return error_name if error_name in CAUSES else "other"


@dataclass
class Log:
    """Timings and failure accounting of the operations of one run.

    An operation is one CLI subcommand's library calls. Its units are the
    things it processes: scenarios for `gen`, Monte Carlo samples for a
    containment call, and 1 for everything else. `failed_share` counts
    failed units against attempted ones. `values` holds each headline
    metric's per-cycle values; `pause` is the context in which untimed work
    runs, so that a tracer can leave it out.
    """

    pause: object = contextlib.nullcontext
    values: dict = field(default_factory=dict)
    ops: int = 0
    failed_ops: int = 0
    units: int = 0
    failed_units: dict = field(default_factory=lambda: dict.fromkeys(CAUSES + ("other",), 0))

    def run(self, units, fn, *args):
        """Time one operation; returns (result, seconds), or None if it raised."""
        self.ops += 1
        self.units += units
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the run keeps going and reports the failure
            traceback.print_exc(file=sys.stderr)
            self.failed_ops += 1
            self.failed_units[cause_of(type(exc).__name__)] += units
            return None
        return result, time.perf_counter() - start

    def add(self, name, value) -> None:
        self.values.setdefault(name, []).append(value)

    def fail_units(self, error_name: str, count: int = 1) -> None:
        self.failed_units[cause_of(error_name)] += count

    @property
    def failed_share(self) -> float:
        return sum(self.failed_units.values()) / max(self.units, 1)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def random_network(hs, key, n_nodes, *, n_fixed=None, n_chords=None):
    """Random connected network: a spanning tree plus chords.

    The draws follow the test suite's `random_network(seed, n_nodes)` with
    rng key (101, *key), so key (5,) with no overrides rebuilds its
    networks. `n_fixed` and `n_chords` pin the reservoir and chord counts
    (the draws are still made, so the rest of the network is unchanged).
    The benchmark keeps its own copy so that its inputs change only when
    the benchmark does.
    """
    rng = np.random.default_rng((101, *key))
    n = int(n_nodes)
    drawn_fixed = int(rng.integers(1, 3))
    n_fixed = drawn_fixed if n_fixed is None else n_fixed
    nodes = []
    for i in range(n):
        if i < n_fixed:
            nodes.append(hs.Node(f"t{i}", "fixed-head", head=float(rng.uniform(90, 110))))
        else:
            nodes.append(hs.Node(f"n{i}", "demand", demand=float(rng.uniform(0.5, 2.5))))

    def pipe(a, b):
        return hs.Pipe(f"p{len(pipes)}", a, b, resistance=float(rng.uniform(1.0, 20.0)),
                       exponent=1.852)

    order = rng.permutation(n)
    pipes = []
    for k in range(1, n):
        pipes.append(pipe(nodes[order[int(rng.integers(0, k))]].id, nodes[order[k]].id))
    drawn_chords = int(rng.integers(0, max(1, n // 2)))
    for _ in range(drawn_chords if n_chords is None else n_chords):
        a, b = rng.choice(n, size=2, replace=False)
        pipes.append(pipe(nodes[a].id, nodes[b].id))
    return hs.Network(nodes, pipes)


def exact_telemetry(hs, net, truth, key, *, n_flow, n_head, demand_box, telemetry_box):
    """Measurement-file text whose values are read off `truth`, the
    forward-solve state of `net`.

    Meters and sigmas follow the test suite's `exact_measurements` (rng key
    (202, *key), sigma 0.05, demand sigma 0.1). Half-widths are the given
    relative boxes: `demand_box` of each demand, `telemetry_box` of each
    metered value.
    """
    rng = np.random.default_rng((202, *key))
    meters = []
    for j in rng.choice(net.n_pipes, size=min(n_flow, net.n_pipes), replace=False):
        value = float(truth.q[j])
        meters.append(hs.Measurement("pipe-flow", net.pipes[j].id, value, 0.05,
                                     telemetry_box * abs(value)))
    for i in rng.choice(net.n_demand, size=min(n_head, net.n_demand), replace=False):
        value = float(truth.H[i])
        meters.append(hs.Measurement("node-head", net.demand_nodes[i].id, value, 0.05,
                                     telemetry_box * abs(value)))
    meas = hs.MeasurementSet(tuple(meters), demand_sigma=0.1,
                             demand_delta=tuple(demand_box * net.demand))
    return hs.report_io.encode_measurement_set(meas)


def sub_seed(seed: int, index: int) -> int:
    """Independent non-negative integer seed for item `index` of a run."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class State800:
    """`solve`, then `bounds` (estimate + sensitivity bound), on 800-node
    networks: dense linear algebra dominates.

    The inputs are three fixed cases: 800-node, 1,010-pipe networks with one
    reservoir and 40 flow + 40 head meters each. Cycle i runs case
    (seed + i) mod 3, so the seed sets the order. The cases are fixed
    because the estimator's iteration count moves from 11 to 16 with the
    network and the meter draw alone, which would swamp run-to-run
    differences. One reservoir: with two, the current estimator raises
    RankDeficient on some of these networks (the Gram matrix's eigenvalues
    span about -1e-4 to 1e18 at the failing iteration), and this workload
    is the one on which every operation must succeed.
    """

    name = "state_800"
    headline = {"solve_s": "s", "bounded_estimate_s": "s"}
    reference = ("dense", 1500, 1)  # normal equations of order 1,809; see reference.py
    n_nodes, n_chords, n_cases = 800, 211, 3

    def __init__(self, hs, root: Path, seed: int):
        self.hs, self.seed = hs, seed
        self._cases = {}

    def case(self, i):
        k = (self.seed + i) % self.n_cases
        if k not in self._cases:
            hs = self.hs
            net = random_network(hs, (800, k), self.n_nodes, n_fixed=1, n_chords=self.n_chords)
            truth = hs.solve_steady_state(net).state
            self._cases[k] = {
                "network": hs.report_io.encode_network(net),
                "measurements": exact_telemetry(hs, net, truth, (800, k), n_flow=40, n_head=40,
                                                demand_box=0.02, telemetry_box=0.01),
                "truth": truth.vector,
            }
        return self._cases[k]

    def probe_texts(self):
        return {"network": self.case(0)["network"]}

    @staticmethod
    def warm_up(hs, texts):
        hs.solve_steady_state(hs.report_io.decode_network(texts["network"]))

    @staticmethod
    def _solve(hs, texts):
        net = hs.report_io.decode_network(texts["network"])
        report = hs.solve_steady_state(net, tol_r=TOL_R)
        doc = hs.report_io.state_doc(net, report.state)
        doc["iterations"] = report.iterations
        doc["residual_norm"] = report.residual_norm
        doc["converged"] = report.converged
        return net, report, hs.report_io.dumps(doc)

    @staticmethod
    def _bounded_estimate(hs, texts):
        net = hs.report_io.decode_network(texts["network"])
        meas = hs.report_io.decode_measurement_set(texts["measurements"], net)
        report = hs.estimate_state(net, meas)
        interval = hs.sensitivity_bound(net, meas, report.state,
                                        hs.uncertainty_vector(net, meas))
        return net, report, interval, hs.report_io.encode_interval_state(net, interval)

    def cycle(self, log: Log, i: int):
        case = self.case(i)
        out = {"solve": log.run(1, self._solve, self.hs, case),
               "bounds": log.run(1, self._bounded_estimate, self.hs, case)}
        if out["solve"] is None or out["bounds"] is None:
            return out, None
        log.add("solve_s", out["solve"][1])
        log.add("bounded_estimate_s", out["bounds"][1])
        return out, out["solve"][1] + out["bounds"][1]

    def check(self, out, i):
        if out["solve"] is None or out["bounds"] is None:
            return ["an operation raised"]
        hs, problems = self.hs, []
        (net, solve, solve_text), _ = out["solve"]
        r = float(np.max(np.abs(hs.residual(net, solve.state))))
        if not (solve.converged and r <= TOL_R):
            problems.append(f"solve residual max-norm {r:.3e} > tol_r {TOL_R}")
        doc = json.loads(solve_text)
        decoded = [doc["q"][p.id] for p in net.pipes] + [doc["H"][n.id] for n in net.demand_nodes]
        if not np.array_equal(decoded, solve.state.vector):
            problems.append("state report does not decode to the solved state")

        (net, est, interval, interval_text), _ = out["bounds"]
        err = float(np.max(np.abs(est.state.vector - self.case(i)["truth"])))
        if not (est.converged and err <= TRUTH_TOL):
            problems.append(f"estimate off the forward-solve truth by {err:.3e} > {TRUTH_TOL}")
        hw = interval.halfwidth
        if not (np.isfinite(hw).all() and (hw >= 0).all()):
            problems.append("halfwidths not finite and >= 0")
        back = hs.report_io.decode_interval_state(interval_text, net)
        if not (np.array_equal(back.center.vector, interval.center.vector)
                and np.array_equal(back.halfwidth, hw)):
            problems.append("interval report does not decode to the bound")
        return problems


class Diagnose:
    """`gen` -> 70/30 split -> `train` -> `classify` on the shipped demo with
    class counts scaled x20 (2,000 scenarios of a 3-pipe network): per-call
    Python overhead dominates, and `fuzzy` and the kernels get their work.

    The demo network is the one configuration that trains at default
    theta; no theta is chosen here to get around `PatternTooWide` elsewhere.
    Each cycle draws the scenario and split seeds from (seed, cycle).
    """

    name = "diagnose"
    headline = {"gen_scenarios_per_s": "1/s", "train_patterns_per_s": "1/s",
                "classify_patterns_per_s": "1/s"}
    reference = ("python",)
    scale = 20
    train_fraction = 0.7

    def __init__(self, hs, root: Path, seed: int):
        self.hs, self.seed = hs, seed
        self.network = (root / "demo" / "triangle.json").read_text(encoding="utf-8")
        self.spec_doc = json.loads((root / "demo" / "scenario.json").read_text(encoding="utf-8"))
        self.spec_doc["counts"] = {k: v * self.scale for k, v in self.spec_doc["counts"].items()}
        self.scenarios = sum(self.spec_doc["counts"].values())

    def case(self, i):
        spec = dict(self.spec_doc, seed=sub_seed(self.seed, 2 * i))
        return {"network": self.network, "spec": json.dumps(spec, sort_keys=True, indent=2),
                "split_seed": sub_seed(self.seed, 2 * i + 1)}

    def probe_texts(self):
        case = self.case(0)
        return {"network": case["network"], "spec": case["spec"]}

    @staticmethod
    def warm_up(hs, texts):
        hs.report_io.decode_scenario_spec(texts["spec"])
        hs.solve_steady_state(hs.report_io.decode_network(texts["network"]))

    @staticmethod
    def _gen(hs, texts):
        net = hs.report_io.decode_network(texts["network"])
        spec = hs.report_io.decode_scenario_spec(texts["spec"])
        patterns, manifest = hs.generate(net, spec)
        return manifest, hs.report_io.encode_patterns(
            [(lp.pattern, lp.label) for lp in patterns], manifest)

    @staticmethod
    def _train(hs, text):
        entries, manifest = hs.report_io.decode_patterns(text)
        model = hs.ClassifierModel.create(
            entries[0][0].n_dims,
            normalization=np.asarray(manifest["normalization"], dtype=float))
        return hs.report_io.encode_model(hs.train(model, entries))

    @staticmethod
    def _classify(hs, model_text, patterns_text):
        model = hs.report_io.decode_model(model_text)
        entries, _ = hs.report_io.decode_patterns(patterns_text)
        results = []
        for pattern, _label in entries:
            outcome = hs.classify(model, pattern)
            results.append({
                "memberships": {k: float(v) for k, v in outcome.memberships.items()},
                "winner": outcome.winner,
                "winning_membership": float(outcome.winning_membership),
            })
        return hs.report_io.dumps({"results": results})

    def cycle(self, log: Log, i: int):
        hs, case = self.hs, self.case(i)
        out = {"gen": log.run(self.scenarios, self._gen, hs, case)}
        if out["gen"] is None:
            return out, None
        (manifest, patterns_text), gen_s = out["gen"]
        for failure in manifest["failures"]:
            log.fail_units(failure["error"])
        with log.pause():  # the split is the user's preparation between commands
            entries, _ = hs.report_io.decode_patterns(patterns_text)
            order = np.random.default_rng(case["split_seed"]).permutation(len(entries))
            n_train = int(round(self.train_fraction * len(entries)))
            held_out = [entries[k] for k in order[n_train:]]
            train_text = hs.report_io.encode_patterns(
                [entries[k] for k in order[:n_train]], manifest)
            test_text = hs.report_io.encode_patterns(held_out, None)
        out["labels"] = [label for _, label in held_out]
        out["model"] = log.run(1, self._train, hs, train_text)
        if out["model"] is None:
            return out, None
        out["results"] = log.run(1, self._classify, hs, out["model"][0], test_text)
        if out["results"] is None:
            return out, None
        train_s, classify_s = out["model"][1], out["results"][1]
        log.add("gen_scenarios_per_s", self.scenarios / gen_s)
        log.add("train_patterns_per_s", n_train / train_s)
        log.add("classify_patterns_per_s", len(held_out) / classify_s)
        return out, gen_s + train_s + classify_s

    def check(self, out, i):
        if out.get("results") is None:
            return ["an operation raised"]
        problems = []
        failures = out["gen"][0][0]["failures"]
        if failures:
            problems.append(f"{len(failures)} scenarios failed")
        winners = [r["winner"] for r in json.loads(out["results"][0])["results"]]
        accuracy = float(np.mean([w == label for w, label in zip(winners, out["labels"])]))
        if not accuracy >= DEMO_ACCURACY_GATE:
            problems.append(f"held-out accuracy {accuracy:.3f} < {DEMO_ACCURACY_GATE}")
        return problems


class Containment:
    """`monte_carlo_containment` on the estimator-convergence repro: the
    test suite's `random_network(5, n_nodes=150)`, 15 flow and 15 head
    meters, +-2 % boxes, 40 samples per call.

    Many mid-size estimations on one topology, most of which run the full
    50 iterations and fail. The network and meters are the fixed repro so
    that results compare with the recorded failure rates; the seed drives
    the Monte Carlo draws, one draw seed per cycle.
    """

    name = "containment"
    headline = {"mc_samples_per_s": "1/s", "contained_fraction": "ratio"}
    reference = ("dense", 400, 10)  # normal equations of order 305
    samples = 40

    def __init__(self, hs, root: Path, seed: int):
        self.hs, self.seed = hs, seed
        net = random_network(hs, (5,), 150)
        meas_text = exact_telemetry(hs, net, hs.solve_steady_state(net).state, (5,),
                                    n_flow=15, n_head=15, demand_box=0.02,
                                    telemetry_box=0.02)
        self.texts = {"network": hs.report_io.encode_network(net), "measurements": meas_text}

    def case(self, i):
        return dict(self.texts, mc_seed=sub_seed(self.seed, i))

    def probe_texts(self):
        return dict(self.texts)

    @staticmethod
    def warm_up(hs, texts):
        net = hs.report_io.decode_network(texts["network"])
        hs.report_io.decode_measurement_set(texts["measurements"], net)
        hs.solve_steady_state(net)

    def _containment(self, case):
        """Decode the inputs and run one containment call, recording the
        outcome of each estimation it makes: the nominal estimate first,
        then one per sample (None when it converged)."""
        hs = self.hs
        net = hs.report_io.decode_network(case["network"])
        meas = hs.report_io.decode_measurement_set(case["measurements"], net)
        outcomes = []
        inner = hs.errorlimits.estimate_state

        def counted(*args, **kwargs):
            try:
                report = inner(*args, **kwargs)
            except Exception as exc:
                outcomes.append(type(exc).__name__)
                raise
            outcomes.append(None)
            return report

        hs.errorlimits.estimate_state = counted
        try:
            fraction = hs.monte_carlo_containment(
                net, meas, hs.uncertainty_vector(net, meas), self.samples, case["mc_seed"])
        finally:
            hs.errorlimits.estimate_state = inner
        return fraction, outcomes

    def cycle(self, log: Log, i: int):
        out = {"mc": log.run(self.samples, self._containment, self.case(i))}
        if out["mc"] is None:
            return out, None
        (fraction, outcomes), mc_s = out["mc"]
        for error in outcomes[1:]:
            if error is not None:
                log.fail_units(error)
        log.add("mc_samples_per_s", self.samples / mc_s)
        log.add("contained_fraction", fraction)
        return out, mc_s

    def check(self, out, i):
        if out["mc"] is None:
            return ["an operation raised"]
        (fraction, outcomes), _ = out["mc"]
        problems = []
        if not outcomes or outcomes[0] is not None:
            problems.append("nominal estimate did not converge")
        if len(outcomes) != self.samples + 1:
            problems.append(f"{len(outcomes)} estimations, expected {self.samples + 1}")
        if not 0.0 <= fraction <= 1.0:
            problems.append(f"contained fraction {fraction} outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (State800, Diagnose, Containment)}
