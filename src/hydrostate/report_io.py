"""JSON (and CSV row) serialization for every file format the tool reads
or writes, with located schema errors.

Decoders check JSON types, field presence, array lengths and targets in
another file; the types they build check their own invariants (a cell as it
is read, a network's entries in one array pass), so the first bad entry in a
file raises. Each array of objects is read through one located loop
(`_entries`), and each array of numbers element by element, so every
rejection points at the offending location with a JSON-pointer path. A
network file's arrays and a pattern file's rows are first read in a type
pass that only accepts; what it or the array pass rejects is read again
through the located loop, which alone builds the error. Encoders are
deterministic: keys sorted, entities in canonical (file) order, numbers as
shortest round-trip decimals. decode(encode(value)) reproduces the value
exactly.
"""

import csv
import io
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .estimator import Measurement, MeasurementSet, meter_column
from .errorlimits import IntervalState
from .fuzzy import Cell, ClassifierModel, Pattern
from .hydraulics import StateVector
from .network import DEFAULT_EXPONENT, Network, Node, Pipe, _fields, check_node, check_pipe
from .scenarios import MeterSpec, ScenarioSpec

VERSION = 1

_FLOAT = frozenset((float,))
_NUMBER = frozenset((float, int))
_STRING = frozenset((str,))


def dumps(doc) -> str:
    """The document as JSON text, keys sorted, indented by two spaces, with
    a final newline: the text of `json.dumps(doc, sort_keys=True, indent=2)
    + "\\n"` for a document of dicts with string keys, lists, tuples,
    strings, numbers, bools and None. A list of floats is written as one
    join of their reprs, a map of finite floats as one join of its pairs,
    and a list of like records from one template (`_records`)."""
    return _write(doc, "\n") + "\n"


def _write(value, newline: str) -> str:
    """`value` as JSON text whose inner lines start with `newline` and two
    more spaces."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_literal(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if _FLOAT.issuperset(map(type, value)):
            text = ("," + inner).join(map(float.__repr__, value))
            # Only the reprs of NaN and the infinities hold an "n".
            if "n" not in text:
                return "[" + inner + text + newline + "]"
        text = _records(value, inner)
        if text is None:
            text = ("," + inner).join([_write(item, inner) for item in value])
        return "[" + inner + text + newline + "]"
    if isinstance(value, dict):
        keys = sorted(value)
        values = value.values()
        if _FLOAT.issuperset(map(type, values)) and all(map(math.isfinite, values)):
            items = [
                encode_basestring_ascii(key) + ": " + float.__repr__(value[key]) for key in keys
            ]
        else:
            items = [
                encode_basestring_ascii(key) + ": " + _write(value[key], inner) for key in keys
            ]
        return _braced(items, newline)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _records(items, newline: str) -> str | None:
    """The items of a list as `_write` writes them, joined, when they are
    two or more dicts with the keys of the first, each key's values all
    strings, all finite floats, or all non-empty maps of finite floats with
    the keys of the first's map; else None. Each item is one format of a
    template made from the first item, its slots filled column by column."""
    first = items[0]
    if len(items) < 2 or type(first) is not dict or not first:
        return None
    if not all(type(item) is dict and item.keys() == first.keys() for item in items):
        return None
    field = newline + "  "
    fields, columns = [], []
    for key in sorted(first):
        values = [item[key] for item in items]
        sample = first[key]
        if type(sample) is dict and sample:
            if not all(type(value) is dict and value.keys() == sample.keys() for value in values):
                return None
            names = sorted(sample)
            columns += [_scalar_texts([value[name] for value in values]) for name in names]
            slots = [_template_key(name) + "%s" for name in names]
            fields.append(_template_key(key) + _braced(slots, field))
        else:
            columns.append(_scalar_texts(values))
            fields.append(_template_key(key) + "%s")
    if None in columns:
        return None
    template = _braced(fields, newline)
    return ("," + newline).join(map(template.__mod__, zip(*columns)))


def _scalar_texts(values: list) -> list[str] | None:
    """The JSON texts of a column of strings or of finite floats; None for
    any other column."""
    types = set(map(type, values))
    if types == _STRING:
        return list(map(encode_basestring_ascii, values))
    if types == _FLOAT and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    return None


def _template_key(key: str) -> str:
    """The text of a map key and its separator in a %-format template."""
    return encode_basestring_ascii(key).replace("%", "%%") + ": "


def _braced(entries: list[str], newline: str) -> str:
    """The texts of a map's entries as `_write` writes the map at `newline`."""
    if not entries:
        return "{}"
    inner = newline + "  "
    return "{" + inner + ("," + inner).join(entries) + newline + "}"


def _float_literal(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


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
    """The array at `path` as floats, checked element by element."""
    return [_number(v, f"{path}/{i}") for i, v in enumerate(_as_array(value, path))]


def _entries(value, path: str, read) -> list:
    """`read(obj, entry_path)` of each entry of the array at `path`, in file
    order. Each entry must be an object, and a ValidationError that `read`
    raises is located at its entry."""
    entries = []
    for i, raw in enumerate(_as_array(value, path)):
        entry_path = f"{path}/{i}"
        try:
            entries.append(read(_as_object(raw, entry_path), entry_path))
        except ValidationError as exc:
            raise exc.within(entry_path) from exc
    return entries


def _meter_doc(meter) -> dict:
    """The fields a measurement and a scenario's meter spec share."""
    return {
        "kind": meter.kind,
        "target": meter.target,
        "sigma": float(meter.sigma),
        "delta": float(meter.delta),
    }


def _meter_fields(obj: dict, path: str, delta_required: bool) -> tuple[str, str, float, float]:
    """The kind, target, sigma and delta of the meter entry at `path`, read
    in that order; an absent optional delta is 0."""
    kind = _string(obj, "kind", path)
    target = _string(obj, "target", path)
    sigma = _number_field(obj, "sigma", path)
    delta = _number_field(obj, "delta", path) if delta_required or "delta" in obj else 0.0
    return kind, target, sigma, delta


def _check_version(obj: dict) -> None:
    version = obj.get("version", VERSION)
    if type(version) is not int or version != VERSION:
        raise SchemaError("/version", f"{VERSION}", repr(version))


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

def encode_network(net: Network) -> str:
    nodes = [
        {"id": node.id, "kind": node.kind}
        | ({"demand": float(node.demand)} if node.head is None else {"head": float(node.head)})
        for node in net.nodes
    ]
    pipes = [
        {"id": pipe.id, "from": pipe.from_node, "to": pipe.to_node,
         "resistance": float(pipe.resistance), "exponent": float(pipe.exponent)}
        for pipe in net.pipes
    ]
    return dumps({"version": VERSION, "nodes": nodes, "pipes": pipes})


def decode_network(text: str) -> Network:
    """Build a validated Network from network-file JSON text. Each array is
    read in one type pass per key (`_bulk_entries`) into the network's
    array pass, the nodes' before the pipes are read, and builds no `Node`
    or `Pipe`. An array that either pass rejects is read again through the
    located loop (`_entries`), which raises its first bad entry's error;
    then `Network._build` checks repeated ids, a node of each kind and
    connectivity, so faults come in the order `Network(nodes, pipes)`
    reports them."""
    doc = _as_object(_loads(text), "")
    _check_version(doc)
    net = Network.__new__(Network)
    items = _get(doc, "nodes", "")
    fields = _bulk_entries(items, ("id", "kind"), (), {"head": None, "demand": None})
    if net._node_pass(*(fields or _fields(Node, _entries(items, "/nodes", _node)))) < len(items):
        _entries(items, "/nodes", _node)

    def pipe(obj: dict, path: str) -> Pipe:
        exponent = _number_field(obj, "exponent", path) if "exponent" in obj else DEFAULT_EXPONENT
        ids = [_string(obj, key, path) for key in ("id", "from", "to")]
        entry = Pipe(*ids, _number_field(obj, "resistance", path), exponent)
        check_pipe(entry, net._position)
        return entry

    items = _get(doc, "pipes", "")
    keys = ("id", "from", "to"), ("resistance",), {"exponent": DEFAULT_EXPONENT}
    fields = _bulk_entries(items, *keys)
    if net._pipe_pass(*(fields or _fields(Pipe, _entries(items, "/pipes", pipe)))) < len(items):
        _entries(items, "/pipes", pipe)
    net._build()
    return net


def _node(obj: dict, path: str) -> Node:
    head = _number_field(obj, "head", path) if "head" in obj else None
    demand = _number_field(obj, "demand", path) if "demand" in obj else None
    node = Node(_string(obj, "id", path), _string(obj, "kind", path), head, demand)
    check_node(node)
    return node


def _bulk_entries(items, strings, numbers, optional):
    """The fields of the entries of the array `items`, one list per key,
    read in one type pass per key: a string at each key of `strings`, a
    number that `_number` accepts at each key of `numbers` and, where
    present, at each key of `optional` (a map from key to the value of an
    absent field). None when `items` is not an array of objects, or a field
    is missing or breaks its type."""
    if type(items) is not list or not all(type(item) is dict for item in items):
        return None
    fields = []
    for key in (*strings, *numbers, *optional):
        values = [item[key] for item in items if key in item]
        if len(values) < len(items) and key not in optional:
            return None
        if not (_STRING.issuperset(map(type, values)) if key in strings else _numbers(values)):
            return None
        if len(values) < len(items):
            values = [item.get(key, optional[key]) for item in items]
        fields.append(values)
    return fields


def _numbers(values: list) -> bool:
    """Whether `_number` accepts every value."""
    if _FLOAT.issuperset(map(type, values)):
        return all(map(math.isfinite, values))
    return _NUMBER.issuperset(map(type, values)) and all(abs(v) <= sys.float_info.max for v in values)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def encode_measurement_set(meas: MeasurementSet) -> str:
    doc = {
        "version": VERSION,
        "demand_sigma": float(meas.demand_sigma),
        "measurements": [
            _meter_doc(m) | {"value": float(m.value)} for m in meas.measurements
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
            raise SchemaError("/demand_delta", f"{net.n_demand} entries", f"{len(values)}")
        demand_delta = tuple(values)

    def measurement(obj: dict, path: str) -> Measurement:
        kind, target, sigma, delta = _meter_fields(obj, path, delta_required=False)
        meter = Measurement(kind, target, _number_field(obj, "value", path), sigma, delta)
        meter_column(net, kind, target)
        return meter

    measurements = _entries(_get(doc, "measurements", ""), "/measurements", measurement)
    return MeasurementSet(tuple(measurements), demand_sigma, demand_delta)


# ---------------------------------------------------------------------------
# States and intervals
# ---------------------------------------------------------------------------

def state_doc(net: Network, state: StateVector) -> dict:
    return _vector_doc(net, state.vector)


def _vector_doc(net: Network, vec: np.ndarray) -> dict:
    """x = (q, H) as {"q": {pipe id: flow}, "H": {node id: head}}."""
    doc: dict = {"q": {}, "H": {}}
    for (kind, key), value in zip(net.unknowns, vec.tolist()):
        doc[kind][key] = value
    return doc


def encode_interval_state(net: Network, interval: IntervalState) -> str:
    """The text `dumps` gives for {"center", "halfwidth", "lower", "upper"},
    each the `_vector_doc` of its vector, and "version". The unknowns are
    sorted, and their keys encoded, once per call into one template of a
    state map, which each of the four vectors fills in that order."""
    unknowns = net.unknowns
    order = sorted(range(len(unknowns)), key=unknowns.__getitem__)
    slots = [_template_key(unknowns[k][1]) + "%s" for k in order]
    kinds = [
        _template_key("H") + _braced(slots[: net.n_demand], "\n    "),
        _template_key("q") + _braced(slots[net.n_demand :], "\n    "),
    ]
    template = _braced(kinds, "\n  ")
    maps = []
    for key, vec in (
        ("center", interval.center.vector),
        ("halfwidth", interval.halfwidth),
        ("lower", interval.lower),
        ("upper", interval.upper),
    ):
        literal = float.__repr__ if np.isfinite(vec).all() else _float_literal
        maps.append(_template_key(key) + template % tuple(map(literal, vec[order].tolist())))
    return _braced([*maps, f'"version": {VERSION}'], "\n") + "\n"


def _decode_state_doc(obj, net: Network, path: str) -> np.ndarray:
    obj = _as_object(obj, path)
    docs = {kind: _as_object(_get(obj, kind, path), f"{path}/{kind}") for kind in ("q", "H")}
    return np.array(
        [_number_field(docs[kind], key, f"{path}/{kind}") for kind, key in net.unknowns],
        dtype=float,
    )


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
    dataset manifest is attached. It is the text `dumps` gives for a list of
    {"inf": [...], "label": label, "sup": [...]} items, with no "label"
    where the label is None, or for {"manifest": manifest, "patterns":
    items, "version": VERSION}."""
    entries = list(entries)
    if manifest is None:
        return _pattern_items(entries, "\n") + "\n"
    return (
        '{\n  "manifest": ' + _write(manifest, "\n  ")
        + ',\n  "patterns": ' + _pattern_items(entries, "\n  ")
        + f',\n  "version": {VERSION}\n}}\n'
    )


def _pattern_items(entries: list, newline: str) -> str:
    """The pattern items of `encode_patterns` as `_write` writes their list:
    each item's text is one format of its two rows, taken from one stacked
    `tolist()`, and its label."""
    if not entries:
        return "[]"
    inf = _row_stack([pattern.inf for pattern, _ in entries])
    sup = _row_stack([pattern.sup for pattern, _ in entries])
    infs, sups = inf.tolist(), sup.tolist()
    if not (np.isfinite(inf).all() and np.isfinite(sup).all()):
        infs = [list(map(_float_literal, row)) for row in infs]
        sups = [list(map(_float_literal, row)) for row in sups]
    # str() of a float is its repr.
    item, field = newline + "  ", newline + "    "
    row = "[" + field + "  " + ("," + field + "  ").join(["%s"] * inf.shape[1]) + field + "]"
    bare = "{" + field + '"inf": ' + row + "," + field + '"sup": ' + row + item + "}"
    labeled = (
        "{" + field + '"inf": ' + row + "," + field + '"label": %s,'
        + field + '"sup": ' + row + item + "}"
    )
    items = [
        bare % (*low, *high) if label is None else labeled % (*low, _write(label, field), *high)
        for low, high, (_, label) in zip(infs, sups, entries)
    ]
    return "[" + item + ("," + item).join(items) + newline + "]"


def decode_patterns(text: str, n_dims: int | None = None):
    """Returns ([(Pattern, label-or-None), ...], manifest-or-None). Every
    pattern has `n_dims` entries when given (a model's dimension), else as
    many as the first.

    A file as the encoder writes it, every box good, is read in one pass
    over all its rows (`_canonical_rows`); any other file is read pattern
    by pattern, which locates its first rejection. Both give the same
    patterns, or the same error."""
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
    inf, sup, labels = _canonical_rows(items, n_dims) or _located_rows(items, n_dims, base)
    return list(zip(Pattern.stack(inf, sup), labels)), manifest


def _canonical_rows(items: list, n_dims: int | None):
    """The stacked (inf, sup) and the labels of the pattern items when every
    item is an object whose inf and sup are lists of floats, all of one
    length (`n_dims` when given) and all finite, with inf <= sup and at
    least one entry, and whose label is a string or absent; else None, and
    the located reader raises the first bad item's error."""
    if not items or not all(
        type(item) is dict and "inf" in item and "sup" in item for item in items
    ):
        return None
    labels = [item.get("label") for item in items]
    if not all(type(label) is str or "label" not in item for label, item in zip(labels, items)):
        return None
    rows = [item["inf"] for item in items] + [item["sup"] for item in items]
    if type(rows[0]) is not list:
        return None
    width = len(rows[0]) if n_dims is None else n_dims
    if not width or not all(type(row) is list and len(row) == width for row in rows):
        return None
    if not _FLOAT.issuperset(map(type, chain.from_iterable(rows))):
        return None
    stack = np.array(rows).reshape(len(rows), width)
    inf, sup = stack[: len(items)], stack[len(items):]
    if not np.isfinite(stack).all() or (inf > sup).any():
        return None
    return inf, sup, labels


def _located_rows(items: list, n_dims: int | None, base: str):
    """The stacked (inf, sup) and the labels of the pattern items, read one
    by one; the first item that breaks the schema or holds a bad box raises
    its located error."""
    infs, sups = [], []

    def row(obj: dict, path: str) -> str | None:
        nonlocal n_dims
        inf = _number_array(_get(obj, "inf", path), f"{path}/inf")
        sup = _number_array(_get(obj, "sup", path), f"{path}/sup")
        if len(inf) != len(sup):
            raise SchemaError(f"{path}/sup", f"{len(inf)} entries", f"{len(sup)}")
        if n_dims is None:
            n_dims = len(inf)
        elif len(inf) != n_dims:
            raise SchemaError(f"{path}/inf", f"{n_dims} entries", f"{len(inf)}")
        label = _string(obj, "label", path) if "label" in obj else None
        Pattern.check(np.array(inf), np.array(sup))
        infs.append(inf)
        sups.append(sup)
        return label

    labels = _entries(items, base, row)
    return _row_stack(infs), _row_stack(sups), labels


def _row_stack(rows: list) -> np.ndarray:
    """Rows of one length as an (N, d) array."""
    return np.array(rows).reshape(len(rows), len(rows[0]) if rows else 0)


# ---------------------------------------------------------------------------
# Classifier model
# ---------------------------------------------------------------------------

def encode_model(model: ClassifierModel) -> str:
    return dumps(
        {
            "version": VERSION,
            "theta": float(model.theta),
            "gamma": model.gamma.tolist(),
            "normalization": model.normalization.tolist(),
            "labels": list(model.labels),
            "cells": [
                {"m": cell.m.tolist(), "M": cell.M.tolist(), "label": cell.label}
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

    # The model without its cells checks theta, gamma, the normalization and
    # the labels; then each cell is checked against it as it is read.
    header = ClassifierModel(theta, gamma, normalization, (), labels)

    def cell(obj: dict, path: str) -> Cell:
        m = _number_array(_get(obj, "m", path), f"{path}/m")
        mx = _number_array(_get(obj, "M", path), f"{path}/M")
        entry = Cell(m, mx, _string(obj, "label", path))
        header.check_cell(entry)
        return entry

    cells = _entries(_get(doc, "cells", ""), "/cells", cell)
    return ClassifierModel(theta, gamma, normalization, cells, labels)


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
            "meters": [_meter_doc(m) for m in spec.meters],
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
    meters = _entries(_get(doc, "meters", ""), "/meters", _meter_spec)

    return ScenarioSpec(
        counts,
        (magnitude[0], magnitude[1]),
        demand_noise,
        demand_sigma,
        tuple(meters),
        _integer_field(doc, "seed", ""),
    )


def _meter_spec(obj: dict, path: str) -> MeterSpec:
    return MeterSpec(*_meter_fields(obj, path, delta_required=True))


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
    columns = interval.lower.tolist(), interval.center.vector.tolist(), interval.upper.tolist()
    rows = (
        (kind, key, repr(lower), repr(center), repr(upper))
        for (kind, key), lower, center, upper in zip(net.unknowns, *columns)
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
