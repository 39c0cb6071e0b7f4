"""Synthetic labeled patterns from the solve / estimate / bound chain.

The solver stands in for the real system: each scenario perturbs the true
demands (and, for leak classes, injects extra demand at the leak node),
forward-solves the true state, meters it at the configured points, and then
estimates the state from the *nominal* demand predictions plus that
telemetry. The resulting interval state, normalized over the generated
dataset's padded min/max ranges, becomes one labeled training pattern.

All scenarios of a dataset share the network's topology and the meters, so
they run as members of one stacked computation: one lockstep solve, then
one lockstep estimate and one stacked bound, per chunk of scenarios. A
chunk holds as many scenarios as fit their stacked loop matrices,
telemetry blocks and blocks of sensitivity columns in about 2^20 float64
values (8 MB). Each scenario still follows the single-case algorithm on its
own, and a scenario that fails is recorded and dropped without holding up
the others.
"""

from dataclasses import dataclass

import numpy as np

from .errorlimits import block_columns, bound_from_matrix, uncertainty_vector
from .errors import ValidationError
from .estimator import Measurement, MeasurementSet, build_augmented, estimate_members
from .estimator import check_meter, check_sigma, meter_column
from .fuzzy import Pattern, unit_bounds
from .hydraulics import jacobian_coefficients, solve_members
from .linearization import drop_failed
from .network import Network

NORMAL_LABEL = "normal"
LEAK_PREFIX = "leak@"

RANGE_PADDING = 0.05

# Scenarios per chunk: as many as fit n_loops^2 + n (m + k) float64 values
# each in this budget: the loop matrix of the n_loops = L - N_p co-tree
# pipes, and n = L + N_p unknowns per telemetry row (m of them) and per
# bounded row in one block of the bound (k).
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class MeterSpec:
    kind: str
    target: str
    sigma: float
    delta: float

    def __post_init__(self):
        check_meter(self.kind, self.sigma, self.delta)


@dataclass(frozen=True)
class ScenarioSpec:
    """Recipe for one labeled dataset.

    `counts` maps class labels ("normal" or "leak@<node-id>") to scenario
    counts; the leak node set is implied by the keys. Leak magnitudes are
    drawn uniformly from `leak_magnitude`, true demands are perturbed by a
    uniform relative noise of `demand_noise`, and the same fraction is
    assumed as the demand-prediction error bound.
    """

    counts: tuple[tuple[str, int], ...]
    leak_magnitude: tuple[float, float]
    demand_noise: float
    demand_sigma: float
    meters: tuple[MeterSpec, ...]
    seed: int

    def __post_init__(self):
        # Canonical label order: the scenario schedule (and with it the
        # per-scenario randomness) must not depend on JSON key order.
        object.__setattr__(
            self,
            "counts",
            tuple(sorted((str(k), int(v)) for k, v in self.counts)),
        )
        object.__setattr__(self, "meters", tuple(self.meters))
        for label, count in self.counts:
            if label != NORMAL_LABEL and not label.startswith(LEAK_PREFIX):
                raise ValidationError(
                    "/counts", "valid scenario classes", f"unknown class label {label!r}"
                )
            if count < 1:
                raise ValidationError(f"/counts/{label}", "count >= 1", str(count))
        lo, hi = self.leak_magnitude
        if not 0 <= lo <= hi:
            raise ValidationError("/leak_magnitude", "0 <= lo <= hi", f"[{lo}, {hi}]")
        if not self.demand_noise >= 0:
            raise ValidationError("/demand_noise", "number >= 0", str(self.demand_noise))
        check_sigma(self.demand_sigma, "/demand_sigma")
        if not self.seed >= 0:
            raise ValidationError("/seed", "integer >= 0", str(self.seed))


@dataclass(frozen=True)
class LabeledPattern:
    pattern: Pattern
    label: str


def generate(net: Network, spec: ScenarioSpec) -> tuple[list[LabeledPattern], dict]:
    """Labeled patterns plus a dataset manifest.

    Deterministic: scenario k draws all its randomness from
    (spec.seed, k). Scenarios that fail to solve or estimate are skipped
    and recorded in the manifest. Normalization ranges are the min/max of
    the generated interval bounds, padded on both sides.
    """
    for label, _ in spec.counts:
        if label.startswith(LEAK_PREFIX):
            node = label[len(LEAK_PREFIX):]
            if not net.has_demand_node(node):
                raise ValidationError(f"/counts/{label}", "existing demand node id", repr(node))
    for k, meter in enumerate(spec.meters):
        try:
            meter_column(net, meter.kind, meter.target)
        except ValidationError as exc:
            raise exc.within(f"/meters/{k}") from exc

    schedule = [
        label for label, count in spec.counts for _ in range(count)
    ]
    true_demands = _true_demands(net, spec, schedule)
    # The meters' rows, weights and half-widths, shared by all scenarios;
    # each scenario's telemetry values are read off its own true state.
    meas = MeasurementSet(
        tuple(
            Measurement(m.kind, m.target, value=0.0, sigma=m.sigma, delta=m.delta)
            for m in spec.meters
        ),
        demand_sigma=spec.demand_sigma,
        demand_delta=tuple(spec.demand_noise * net.demand),
    )
    system = build_augmented(net, meas)
    delta_y = uncertainty_vector(net, meas)
    n = net.n_pipes + net.n_demand
    bounded = min(np.count_nonzero(delta_y), block_columns(net))
    per_scenario = net.forest.cotree.size**2 + n * (system.n_telemetry + bounded)
    chunk = max(1, _CHUNK_ELEMENTS // per_scenario)

    # A network carries no negative demand: such scenarios fail validation.
    negative = (true_demands < 0).any(axis=1)
    failures = {
        int(index): ValidationError(
            f"/scenarios/{index}/demand", "demand >= 0", str(true_demands[index].min())
        )
        for index in np.flatnonzero(negative)
    }
    valid = np.flatnonzero(~negative)
    indices, centers, halfwidths = [], [], []
    for first in range(0, valid.size, chunk):
        members = valid[first : first + chunk]
        truth, _, _, failed = solve_members(net, true_demands[members])
        members, truth = drop_failed(members, failed, failures, truth)
        x_star, _, _, failed = estimate_members(system, truth[:, system.telemetry_columns])
        members, x_star = drop_failed(members, failed, failures, x_star)
        jac = jacobian_coefficients(net, x_star[:, : net.n_pipes])
        halfwidth, failed = bound_from_matrix(system, jac, delta_y)
        members, x_star, halfwidth = drop_failed(members, failed, failures, x_star, halfwidth)
        indices.append(members)
        centers.append(x_star)
        halfwidths.append(halfwidth)

    if not sum(part.size for part in indices):
        raise ValidationError("/counts", "a scenario that succeeds", "every scenario failed")
    # Chunks follow the schedule and keep their order, so the survivors
    # come out in scenario order.
    indices = np.concatenate(indices)
    center, halfwidth = np.concatenate(centers), np.concatenate(halfwidths)
    lowers, uppers = center - halfwidth, center + halfwidth
    labels = [schedule[k] for k in indices]

    ranges = _dataset_ranges(lowers, uppers)
    patterns = [
        LabeledPattern(Pattern(inf, sup), label)
        for inf, sup, label in zip(*unit_bounds(lowers, uppers, ranges), labels)
    ]
    failures = [
        {"index": index, "label": schedule[index], "error": type(error).__name__}
        for index, error in sorted(failures.items())
    ]

    generated: dict[str, int] = {}
    for label in labels:
        generated[label] = generated.get(label, 0) + 1
    manifest = {
        "classes": generated,
        "requested": {label: count for label, count in spec.counts},
        "failures": failures,
        "normalization": [[float(lo), float(hi)] for lo, hi in ranges],
        "seed": spec.seed,
        "features": [f"q:{p.id}" for p in net.pipes]
        + [f"H:{n.id}" for n in net.demand_nodes],
    }
    return patterns, manifest


def _true_demands(net: Network, spec: ScenarioSpec, schedule: list[str]) -> np.ndarray:
    """True demands per scenario (scenarios x N_p): scenario k perturbs the
    demands by a relative noise and, for a leak class, adds the leak
    magnitude at the leak node, all drawn from (spec.seed, k)."""
    noise = np.empty((len(schedule), net.n_demand))
    magnitude = np.empty(len(schedule))
    for index in range(len(schedule)):
        rng = np.random.default_rng((spec.seed, index))
        noise[index] = rng.uniform(-1.0, 1.0, net.n_demand)
        magnitude[index] = rng.uniform(spec.leak_magnitude[0], spec.leak_magnitude[1])
    demands = net.demand * (1.0 + spec.demand_noise * noise)
    for index, label in enumerate(schedule):
        if label.startswith(LEAK_PREFIX):
            demands[index, net.demand_index(label[len(LEAK_PREFIX):])] += magnitude[index]
    return demands


def _dataset_ranges(lowers: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    lo = lowers.min(axis=0)
    hi = uppers.max(axis=0)
    span = hi - lo
    pad = RANGE_PADDING * span
    # Constant dimensions still need a strictly positive range.
    flat = span == 0
    pad[flat] = np.maximum(1e-9, 1e-6 * np.maximum(1.0, np.abs(lo[flat])))
    return np.column_stack([lo - pad, hi + pad])
