"""JSON (and CSV row) serialization for every file format the tool reads
or writes, with located schema errors.

Decoders check JSON types, field presence, array lengths and targets in
another file; the types they build check their own invariants, and the
decoders locate those errors inside the file. Every rejection points at the
offending location with a JSON-pointer path. Encoders are deterministic:
keys sorted, entities in canonical (file) order, numbers as shortest
round-trip decimals. decode(encode(value)) reproduces the value exactly.
"""

import csv
import io
import json
import sys

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .estimator import Measurement, MeasurementSet, meter_column
from .errorlimits import IntervalState
from .fuzzy import Cell, ClassifierModel, Pattern
from .hydraulics import StateVector
from .network import DEFAULT_EXPONENT, Network, Node, Pipe
from .scenarios import MeterSpec, ScenarioSpec

VERSION = 1


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _loads(text: str):
    try:
        return json.loads(text)
    # ValueError also covers integer literals too long to convert.
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc


def _as_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "object", type(value).__name__)
    return value


def _as_array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, "array", type(value).__name__)
    return value


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "present field", "missing")
    return obj[key]


def _string(obj: dict, key: str, path: str) -> str:
    value = _get(obj, key, path)
    if not isinstance(value, str):
        raise SchemaError(f"{path}/{key}", "string", type(value).__name__)
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "number", type(value).__name__)
    # Also rejects NaN, and integers too large to convert.
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(path, "finite number", repr(value))
    return float(value)


def _number_field(obj: dict, key: str, path: str) -> float:
    return _number(_get(obj, key, path), f"{path}/{key}")


def _integer_field(obj: dict, key: str, path: str) -> int:
    value = _get(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}/{key}", "integer", type(value).__name__)
    return value


def _number_array(value, path: str) -> list[float]:
    return [_number(v, f"{path}/{i}") for i, v in enumerate(_as_array(value, path))]


def _check_version(obj: dict, path: str = "") -> None:
    if "version" in obj and obj["version"] != VERSION:
        raise SchemaError(f"{path}/version", f"{VERSION}", repr(obj["version"]))


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

def encode_network(net: Network) -> str:
    nodes = []
    for node in net.nodes:
        entry: dict = {"id": node.id, "kind": node.kind}
        if node.head is not None:
            entry["head"] = float(node.head)
        if node.demand is not None:
            entry["demand"] = float(node.demand)
        nodes.append(entry)
    pipes = [
        {
            "id": pipe.id,
            "from": pipe.from_node,
            "to": pipe.to_node,
            "resistance": float(pipe.resistance),
            "exponent": float(pipe.exponent),
        }
        for pipe in net.pipes
    ]
    return dumps({"version": VERSION, "nodes": nodes, "pipes": pipes})


def decode_network(text: str) -> Network:
    doc = _as_object(_loads(text), "")
    _check_version(doc)
    nodes = []
    for i, raw in enumerate(_as_array(_get(doc, "nodes", ""), "/nodes")):
        path = f"/nodes/{i}"
        obj = _as_object(raw, path)
        head = _number_field(obj, "head", path) if "head" in obj else None
        demand = _number_field(obj, "demand", path) if "demand" in obj else None
        nodes.append(
            Node(_string(obj, "id", path), _string(obj, "kind", path), head, demand)
        )
    pipes = []
    for j, raw in enumerate(_as_array(_get(doc, "pipes", ""), "/pipes")):
        path = f"/pipes/{j}"
        obj = _as_object(raw, path)
        exponent = (
            _number_field(obj, "exponent", path)
            if "exponent" in obj
            else DEFAULT_EXPONENT
        )
        pipes.append(
            Pipe(
                _string(obj, "id", path),
                _string(obj, "from", path),
                _string(obj, "to", path),
                _number_field(obj, "resistance", path),
                exponent,
            )
        )
    return Network(nodes, pipes)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def encode_measurement_set(meas: MeasurementSet) -> str:
    doc = {
        "version": VERSION,
        "demand_sigma": float(meas.demand_sigma),
        "measurements": [
            {
                "kind": m.kind,
                "target": m.target,
                "value": float(m.value),
                "sigma": float(m.sigma),
                "delta": float(m.delta),
            }
            for m in meas.measurements
        ],
    }
    if meas.demand_delta is not None:
        doc["demand_delta"] = [float(v) for v in meas.demand_delta]
    return dumps(doc)


def decode_measurement_set(text: str, net: Network) -> MeasurementSet:
    doc = _as_object(_loads(text), "")
    _check_version(doc)
    demand_sigma = _number_field(doc, "demand_sigma", "")
    demand_delta = None
    if "demand_delta" in doc:
        values = _number_array(doc["demand_delta"], "/demand_delta")
        if len(values) != net.n_demand:
            raise SchemaError(
                "/demand_delta", f"{net.n_demand} entries", f"{len(values)}"
            )
        demand_delta = tuple(values)

    measurements = []
    try:
        for k, raw in enumerate(_as_array(_get(doc, "measurements", ""), "/measurements")):
            path = f"/measurements/{k}"
            obj = _as_object(raw, path)
            kind = _string(obj, "kind", path)
            target = _string(obj, "target", path)
            sigma = _number_field(obj, "sigma", path)
            delta = _number_field(obj, "delta", path) if "delta" in obj else 0.0
            value = _number_field(obj, "value", path)
            measurements.append(Measurement(kind, target, value, sigma, delta))
            meter_column(net, kind, target)
    except ValidationError as exc:
        raise exc.within(path) from exc
    return MeasurementSet(tuple(measurements), demand_sigma, demand_delta)


# ---------------------------------------------------------------------------
# States and intervals
# ---------------------------------------------------------------------------

def state_doc(net: Network, state: StateVector) -> dict:
    return {
        "q": {pipe.id: float(state.q[j]) for j, pipe in enumerate(net.pipes)},
        "H": {node.id: float(state.H[i]) for i, node in enumerate(net.demand_nodes)},
    }


def _vector_doc(net: Network, vec: np.ndarray) -> dict:
    return state_doc(net, StateVector(vec[: net.n_pipes], vec[net.n_pipes :]))


def encode_interval_state(net: Network, interval: IntervalState) -> str:
    return dumps(
        {
            "version": VERSION,
            "center": state_doc(net, interval.center),
            "halfwidth": _vector_doc(net, interval.halfwidth),
            "lower": _vector_doc(net, interval.lower),
            "upper": _vector_doc(net, interval.upper),
        }
    )


def _decode_state_doc(obj, net: Network, path: str) -> np.ndarray:
    obj = _as_object(obj, path)
    q_doc = _as_object(_get(obj, "q", path), f"{path}/q")
    h_doc = _as_object(_get(obj, "H", path), f"{path}/H")
    q = np.zeros(net.n_pipes)
    for pipe in net.pipes:
        if pipe.id not in q_doc:
            raise SchemaError(f"{path}/q/{pipe.id}", "present field", "missing")
        q[net.pipe_index(pipe.id)] = _number(q_doc[pipe.id], f"{path}/q/{pipe.id}")
    h = np.zeros(net.n_demand)
    for node in net.demand_nodes:
        if node.id not in h_doc:
            raise SchemaError(f"{path}/H/{node.id}", "present field", "missing")
        h[net.demand_index(node.id)] = _number(h_doc[node.id], f"{path}/H/{node.id}")
    return np.concatenate([q, h])


def decode_interval_state(text: str, net: Network) -> IntervalState:
    doc = _as_object(_loads(text), "")
    _check_version(doc)
    center = _decode_state_doc(_get(doc, "center", ""), net, "/center")
    halfwidth = _decode_state_doc(_get(doc, "halfwidth", ""), net, "/halfwidth")
    interval = IntervalState(StateVector.from_vector(net, center), halfwidth)
    for key, expected in (("lower", interval.lower), ("upper", interval.upper)):
        if key in doc:
            stored = _decode_state_doc(doc[key], net, f"/{key}")
            if not np.allclose(stored, expected, rtol=1e-9, atol=1e-9):
                raise SchemaError(
                    f"/{key}", "center -/+ halfwidth", "inconsistent bounds"
                )
    return interval


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def encode_patterns(entries, manifest: dict | None = None) -> str:
    """Pattern-file text: a bare JSON list, or a wrapper object when a
    dataset manifest is attached."""
    items = []
    for pattern, label in entries:
        entry = {
            "inf": [float(v) for v in pattern.inf],
            "sup": [float(v) for v in pattern.sup],
        }
        if label is not None:
            entry["label"] = label
        items.append(entry)
    if manifest is None:
        return dumps(items)
    return dumps({"version": VERSION, "manifest": manifest, "patterns": items})


def decode_patterns(text: str, n_dims: int | None = None):
    """Returns ([(Pattern, label-or-None), ...], manifest-or-None). Every
    pattern has `n_dims` entries when given (a model's dimension), else as
    many as the first."""
    doc = _loads(text)
    manifest = None
    if isinstance(doc, dict):
        _check_version(doc)
        if "manifest" in doc:
            manifest = _as_object(doc["manifest"], "/manifest")
        items = _as_array(_get(doc, "patterns", ""), "/patterns")
        base = "/patterns"
    else:
        items = _as_array(doc, "")
        base = ""

    entries = []
    try:
        for i, raw in enumerate(items):
            path = f"{base}/{i}"
            obj = _as_object(raw, path)
            inf = _number_array(_get(obj, "inf", path), f"{path}/inf")
            sup = _number_array(_get(obj, "sup", path), f"{path}/sup")
            if len(inf) != len(sup):
                raise SchemaError(f"{path}/sup", f"{len(inf)} entries", f"{len(sup)}")
            if n_dims is None:
                n_dims = len(inf)
            elif len(inf) != n_dims:
                raise SchemaError(f"{path}/inf", f"{n_dims} entries", f"{len(inf)}")
            label = None
            if "label" in obj:
                label = _string(obj, "label", path)
            entries.append((Pattern(np.array(inf), np.array(sup)), label))
    except ValidationError as exc:
        raise exc.within(path) from exc
    return entries, manifest


# ---------------------------------------------------------------------------
# Classifier model
# ---------------------------------------------------------------------------

def encode_model(model: ClassifierModel) -> str:
    return dumps(
        {
            "version": VERSION,
            "theta": float(model.theta),
            "gamma": [float(g) for g in model.gamma],
            "normalization": [[float(lo), float(hi)] for lo, hi in model.normalization],
            "labels": list(model.labels),
            "cells": [
                {
                    "m": [float(v) for v in cell.m],
                    "M": [float(v) for v in cell.M],
                    "label": cell.label,
                }
                for cell in model.cells
            ],
        }
    )


def decode_ranges(value, path: str) -> np.ndarray:
    """A normalization, an array of [lo, hi] number pairs at `path`, as an
    (n, 2) array; an empty array gives shape (0, 2)."""
    ranges = []
    for i, raw in enumerate(_as_array(value, path)):
        pair = _number_array(raw, f"{path}/{i}")
        if len(pair) != 2:
            raise SchemaError(f"{path}/{i}", "[lo, hi] pair", f"{len(pair)} entries")
        ranges.append(pair)
    return np.array(ranges).reshape(-1, 2)


def decode_model(text: str) -> ClassifierModel:
    doc = _as_object(_loads(text), "")
    _check_version(doc)
    theta = _number_field(doc, "theta", "")
    gamma = _number_array(_get(doc, "gamma", ""), "/gamma")
    normalization = decode_ranges(_get(doc, "normalization", ""), "/normalization")

    labels = []
    for i, raw in enumerate(_as_array(_get(doc, "labels", ""), "/labels")):
        if not isinstance(raw, str):
            raise SchemaError(f"/labels/{i}", "string", type(raw).__name__)
        labels.append(raw)

    cells = []
    try:
        for i, raw in enumerate(_as_array(_get(doc, "cells", ""), "/cells")):
            path = f"/cells/{i}"
            obj = _as_object(raw, path)
            m = _number_array(_get(obj, "m", path), f"{path}/m")
            mx = _number_array(_get(obj, "M", path), f"{path}/M")
            cells.append(Cell(np.array(m), np.array(mx), _string(obj, "label", path)))
    except ValidationError as exc:
        raise exc.within(path) from exc

    return ClassifierModel(theta, np.array(gamma), normalization, cells, labels)


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------

def encode_scenario_spec(spec: ScenarioSpec) -> str:
    return dumps(
        {
            "version": VERSION,
            "counts": {label: count for label, count in spec.counts},
            "leak_magnitude": [float(spec.leak_magnitude[0]), float(spec.leak_magnitude[1])],
            "demand_noise": float(spec.demand_noise),
            "demand_sigma": float(spec.demand_sigma),
            "meters": [
                {
                    "kind": m.kind,
                    "target": m.target,
                    "sigma": float(m.sigma),
                    "delta": float(m.delta),
                }
                for m in spec.meters
            ],
            "seed": int(spec.seed),
        }
    )


def decode_scenario_spec(text: str) -> ScenarioSpec:
    doc = _as_object(_loads(text), "")
    _check_version(doc)

    counts_doc = _as_object(_get(doc, "counts", ""), "/counts")
    counts = tuple((label, _integer_field(counts_doc, label, "/counts")) for label in counts_doc)

    magnitude = _number_array(_get(doc, "leak_magnitude", ""), "/leak_magnitude")
    if len(magnitude) != 2:
        raise SchemaError("/leak_magnitude", "[lo, hi] pair", f"{len(magnitude)} entries")
    demand_noise = _number_field(doc, "demand_noise", "")
    demand_sigma = _number_field(doc, "demand_sigma", "")

    meters = []
    try:
        for k, raw in enumerate(_as_array(_get(doc, "meters", ""), "/meters")):
            path = f"/meters/{k}"
            obj = _as_object(raw, path)
            kind = _string(obj, "kind", path)
            target = _string(obj, "target", path)
            sigma = _number_field(obj, "sigma", path)
            delta = _number_field(obj, "delta", path)
            meters.append(MeterSpec(kind, target, sigma, delta))
    except ValidationError as exc:
        raise exc.within(path) from exc

    return ScenarioSpec(
        counts,
        (magnitude[0], magnitude[1]),
        demand_noise,
        demand_sigma,
        tuple(meters),
        _integer_field(doc, "seed", ""),
    )


# ---------------------------------------------------------------------------
# CSV report rows
# ---------------------------------------------------------------------------

def _csv(header: tuple[str, ...], rows) -> str:
    """The header and the rows, one line each, a field quoted only when it
    holds a comma, a quote or a line break."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def state_csv(doc: dict) -> str:
    rows = (
        (kind, key, repr(value)) for kind in ("q", "H") for key, value in doc[kind].items()
    )
    return _csv(("kind", "id", "value"), rows)


def interval_csv(net: Network, interval: IntervalState) -> str:
    lower, center, upper = interval.lower, interval.center.vector, interval.upper
    names = [("q", p.id) for p in net.pipes] + [("H", n.id) for n in net.demand_nodes]
    rows = (
        (kind, key, repr(float(lower[i])), repr(float(center[i])), repr(float(upper[i])))
        for i, (kind, key) in enumerate(names)
    )
    return _csv(("kind", "id", "lower", "center", "upper"), rows)


def classify_csv(results: list[dict]) -> str:
    rows = (
        (i, label, repr(degree), "true" if label == result["winner"] else "false")
        for i, result in enumerate(results)
        for label, degree in result["memberships"].items()
    )
    return _csv(("pattern", "label", "membership", "winner"), rows)


def gen_csv(manifest: dict) -> str:
    rows = (
        (label, requested, manifest["classes"].get(label, 0))
        for label, requested in manifest["requested"].items()
    )
    return _csv(("label", "requested", "generated"), rows)


def train_csv(model: ClassifierModel) -> str:
    counts: dict[str, int] = {label: 0 for label in model.labels}
    for cell in model.cells:
        counts[cell.label] += 1
    return _csv(("label", "cells"), counts.items())
