import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrostate import (
    Cell,
    ClassifierModel,
    Measurement,
    MeasurementSet,
    MeterSpec,
    Network,
    Node,
    Pattern,
    Pipe,
    ParseError,
    ScenarioSpec,
    SchemaError,
    ValidationError,
    estimate_state,
    sensitivity_bound,
    train,
    uncertainty_vector,
)
from hydrostate import report_io

from helpers import exact_measurements


@pytest.fixture
def meas_set(triangle):
    meas, _ = exact_measurements(triangle, seed=0)
    return meas


def test_network_round_trip(demo_dir):
    text = (demo_dir / "triangle.json").read_text()
    net = report_io.decode_network(text)
    again = report_io.decode_network(report_io.encode_network(net))
    assert [n for n in again.nodes] == [n for n in net.nodes]
    assert [p for p in again.pipes] == [p for p in net.pipes]


def test_encode_deterministic(triangle):
    assert report_io.encode_network(triangle) == report_io.encode_network(triangle)


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError):
        report_io.decode_network("{nope")


def test_empty_nodes_rejected_at_nodes_path():
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network('{"nodes": [], "pipes": []}')
    assert excinfo.value.path == "/nodes"


def test_measurement_round_trip(triangle, meas_set):
    text = report_io.encode_measurement_set(meas_set)
    again = report_io.decode_measurement_set(text, triangle)
    assert again == meas_set


def test_measurement_unknown_target_located(triangle):
    doc = {
        "demand_sigma": 0.1,
        "measurements": [
            {"kind": "pipe-flow", "target": "zz", "value": 1.0, "sigma": 0.1}
        ],
    }
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_measurement_set(json.dumps(doc), triangle)
    assert excinfo.value.path == "/measurements/0/target"


def test_interval_round_trip(triangle, meas_set):
    x_star = estimate_state(triangle, meas_set).state
    interval = sensitivity_bound(
        triangle, meas_set, x_star, uncertainty_vector(triangle, meas_set)
    )
    text = report_io.encode_interval_state(triangle, interval)
    again = report_io.decode_interval_state(text, triangle)
    assert np.array_equal(again.center.vector, interval.center.vector)
    assert np.array_equal(again.halfwidth, interval.halfwidth)


def test_interval_inconsistent_bounds_rejected(triangle, meas_set):
    x_star = estimate_state(triangle, meas_set).state
    interval = sensitivity_bound(
        triangle, meas_set, x_star, uncertainty_vector(triangle, meas_set)
    )
    doc = json.loads(report_io.encode_interval_state(triangle, interval))
    doc["lower"]["q"]["p1"] += 1.0
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_interval_state(json.dumps(doc), triangle)
    assert excinfo.value.path == "/lower"


def test_patterns_round_trip_bare_list():
    entries = [
        (Pattern(np.array([0.1, 0.2]), np.array([0.3, 0.4])), "a"),
        (Pattern(np.array([0.5, 0.5]), np.array([0.5, 0.5])), None),
    ]
    text = report_io.encode_patterns(entries)
    decoded, manifest = report_io.decode_patterns(text)
    assert manifest is None
    assert decoded[0][1] == "a" and decoded[1][1] is None
    for (p, _), (q, _) in zip(decoded, entries):
        assert np.array_equal(p.inf, q.inf) and np.array_equal(p.sup, q.sup)


def test_patterns_round_trip_with_manifest():
    entries = [(Pattern(np.array([0.1]), np.array([0.2])), "x")]
    manifest = {"normalization": [[0.0, 2.0]], "seed": 3}
    text = report_io.encode_patterns(entries, manifest)
    decoded, again = report_io.decode_patterns(text)
    assert again == manifest
    assert decoded[0][1] == "x"


def test_patterns_crossed_bounds_located():
    text = json.dumps([{"inf": [0.5], "sup": [0.4]}])
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_patterns(text)
    assert excinfo.value.path == "/0/inf"


_BIG = "1" + "0" * 400  # an integer literal beyond float range
# Beyond float range too, though float() rounds it to the largest float.
_NEAR_MAX = str(int(sys.float_info.max) + 1)


@pytest.mark.parametrize(
    "text, error, detail",
    [
        ('[{"inf": [0.1, NaN], "sup": [0.2, 0.3]}]', SchemaError,
         "/0/inf/1: expected finite number, found nan"),
        ('[{"inf": [0.1, 0.2], "sup": [0.2, Infinity]}]', SchemaError,
         "/0/sup/1: expected finite number, found inf"),
        ('[{"inf": [-Infinity, 0.2], "sup": [Infinity, 0.3]}]', SchemaError,
         "/0/inf/0: expected finite number, found -inf"),
        ('[{"inf": [0.1, 0.2], "sup": [1e400, 0.3]}]', SchemaError,
         "/0/sup/0: expected finite number, found inf"),
        (f'[{{"inf": [0.1, 0.2], "sup": [0.2, {_BIG}]}}]', SchemaError,
         f"/0/sup/1: expected finite number, found {_BIG}"),
        (f'[{{"inf": [0.1, 0.2], "sup": [{_NEAR_MAX}, 0.3]}}]', SchemaError,
         f"/0/sup/0: expected finite number, found {_NEAR_MAX}"),
        ('[{"inf": [true, 0.2], "sup": [0.2, 0.3]}]', SchemaError,
         "/0/inf/0: expected number, found bool"),
        ('[{"inf": [0.1, "0.1"], "sup": [0.2, 0.3]}]', SchemaError,
         "/0/inf/1: expected number, found str"),
        ('[{"inf": [0.1, 0.2], "sup": [[0.2], 0.3]}]', SchemaError,
         "/0/sup/0: expected number, found list"),
        ('[{"inf": [], "sup": []}]', ValidationError,
         "/0/inf: expected at least one entry, found empty array"),
        ('{"patterns": [{"inf": [0.1, 0.2], "sup": [0.2, 0.3]}, '
         '{"inf": [0.1, 0.4], "sup": [0.2, 0.3]}]}', ValidationError,
         "/patterns/1/inf: expected inf <= sup, found crossed bounds"),
        # Two bad patterns: the first in the file is reported, whichever
        # check finds it.
        ('[{"inf": [0.5, 0.2], "sup": [0.2, 0.3]}, {"inf": [0.1, NaN], "sup": [0.2, 0.3]}]',
         ValidationError, "/0/inf: expected inf <= sup, found crossed bounds"),
        ('[{"inf": [0.1, 0.2], "sup": [0.2, 0.3], "label": 1}, '
         '{"inf": [0.5, 0.2], "sup": [0.2, 0.3]}]', SchemaError,
         "/0/label: expected string, found int"),
        ('[{"inf": [0.1, 0.2], "sup": [0.2, NaN]}, {"inf": [0.5, 0.2], "sup": [0.2, 0.3]}]',
         SchemaError, "/0/sup/1: expected finite number, found nan"),
        ('[{"inf": [0.1, 0.2], "sup": [0.0, 0.3]}, {"inf": [0.1], "sup": [0.2]}]',
         ValidationError, "/0/inf: expected inf <= sup, found crossed bounds"),
    ],
    ids=[
        "NaN", "Infinity", "-Infinity", "1e400", "10**400", "float max + 1", "true", "string",
        "nested list", "empty list", "crossed bounds", "crossed then NaN",
        "bad label then crossed", "NaN then crossed", "crossed then short",
    ],
)
def test_pattern_file_rejections_keep_their_text(text, error, detail):
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_patterns(text)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == detail


def test_pattern_file_accepts_integers_and_sums_beyond_float_range():
    text = '[{"inf": [0, 1.7e308, -1.7e308], "sup": [1, 1.7e308, 1.7e308], "label": "a"}]'
    (pattern, label), = report_io.decode_patterns(text)[0]
    assert pattern.inf.tolist() == [0.0, 1.7e308, -1.7e308]
    assert pattern.sup.tolist() == [1.0, 1.7e308, 1.7e308]
    assert label == "a"


# Each file's patterns and manifest, or its rejection, as the pattern-by-
# pattern reader gives them. The first two cases read in one pass.
_READER_CASES = [
    ('[{"inf": [0.125], "sup": [0.5], "label": "a", "note": "x", "weight": 2}]', None,
     ["ok", [([0.125], [0.5], "a")], None]),
    ('{"version": 1, "manifest": {"seed": 3}, '
     '"patterns": [{"inf": [0.125], "sup": [0.5], "label": "a"}]}', 1,
     ["ok", [([0.125], [0.5], "a")], {"seed": 3}]),
    ('[{"inf": [0, 0.25], "sup": [1, 0.5], "label": "a"}]', None,
     ["ok", [([0.0, 0.25], [1.0, 0.5], "a")], None]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5, 0.5]}, {"inf": [false, 0.25], "sup": [0.5, 0.5]}]',
     None, ["SchemaError", "/1/inf/0: expected number, found bool"]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5, NaN]}]', None,
     ["SchemaError", "/0/sup/1: expected finite number, found nan"]),
    ('[{"inf": [0.125, Infinity], "sup": [0.5, 0.5]}]', None,
     ["SchemaError", "/0/inf/1: expected finite number, found inf"]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5, 0.5]}, {"inf": [0.125, "0.25"], "sup": [0.5, 0.5]}]',
     None, ["SchemaError", "/1/inf/1: expected number, found str"]),
    ('[{"inf": [0.125], "sup": [0.5], "label": "a"}, {"inf": [0.25], "sup": [0.5]}]', None,
     ["ok", [([0.125], [0.5], "a"), ([0.25], [0.5], None)], None]),
    ('[{"inf": [0.125], "sup": [0.5], "label": "a"}, {"inf": [0.25], "sup": [0.5], "label": 7}]',
     None, ["SchemaError", "/1/label: expected string, found int"]),
    ('[{"inf": [0.125], "sup": [0.5], "label": null}]', None,
     ["SchemaError", "/0/label: expected string, found NoneType"]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5]}]', None,
     ["SchemaError", "/0/sup: expected 2 entries, found 1"]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5, 0.5]}, {"inf": [0.125], "sup": [0.5]}]', None,
     ["SchemaError", "/1/inf: expected 2 entries, found 1"]),
    ('[{"inf": [0.125, 0.25], "sup": [0.5, 0.5]}]', 3,
     ["SchemaError", "/0/inf: expected 3 entries, found 2"]),
    ("[]", None, ["ok", [], None]),
    ('{"patterns": []}', None, ["ok", [], None]),
    ('[{"inf": [0.125], "sup": [0.5]}, [0.125]]', None,
     ["SchemaError", "/1: expected object, found list"]),
    ('[{"inf": [0.125], "sup": [0.5]}, {"inf": [0.125]}]', None,
     ["SchemaError", "/1/sup: expected present field, found missing"]),
    ('[{"inf": [0.125], "sup": [0.5]}, {"inf": 0.125, "sup": [0.5]}]', None,
     ["SchemaError", "/1/inf: expected array, found float"]),
    ('[{"inf": [0.625], "sup": [0.5]}, {"inf": [0.125], "sup": [0.5], "label": 1}]', None,
     ["ValidationError", "/0/inf: expected inf <= sup, found crossed bounds"]),
]


def _decoded(text, n_dims):
    try:
        entries, manifest = report_io.decode_patterns(text, n_dims)
    except SchemaError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", [(p.inf.tolist(), p.sup.tolist(), label) for p, label in entries], manifest]


@pytest.mark.parametrize(
    "text, n_dims, expected",
    _READER_CASES,
    ids=[
        "extra keys", "wrapper", "integer entry", "bool entry", "NaN", "Infinity",
        "string entry", "absent label", "int label", "null label", "ragged row",
        "short second row", "row not n_dims", "empty list", "empty wrapper", "list item",
        "missing sup", "number row", "crossed then bad label",
    ],
)
def test_pattern_reader_edge_cases(text, n_dims, expected):
    assert _decoded(text, n_dims) == expected


def test_one_pass_reader_agrees_with_the_located_loop(demo_dir, monkeypatch):
    """Corruptions of a demo pattern file decode to the same patterns, or
    the same error, whether or not the one-pass reader may take them."""
    doc = json.loads((demo_dir / "out" / "patterns.json").read_text())
    doc["patterns"] = doc["patterns"][:6]
    rng = np.random.default_rng(16)
    for _ in range(300):
        text = json.dumps(_corrupt(json.loads(json.dumps(doc)), rng))
        fast = _decoded(text, None)
        with monkeypatch.context() as patch:
            patch.setattr(report_io, "_canonical_rows", lambda items, n_dims: None)
            assert _decoded(text, None) == fast


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf]),
)
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028')))
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**70)]),
    _FLOATS,
    _FLOATS.map(np.float64),
    _TEXT,
)
_DOCS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_FLOATS, max_size=5),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(_DOCS)
def test_dumps_writes_the_stdlib_text(doc):
    assert report_io.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_model_round_trip():
    examples = [
        (Pattern(np.array([0.1, 0.1]), np.array([0.2, 0.2])), "ok"),
        (Pattern(np.array([0.7, 0.7]), np.array([0.8, 0.8])), "bad"),
    ]
    model = train(ClassifierModel.create(2, theta=0.4, gamma=3.0), examples)
    text = report_io.encode_model(model)
    again = report_io.decode_model(text)
    assert again.labels == model.labels
    assert again.theta == model.theta
    np.testing.assert_array_equal(again.gamma, model.gamma)
    np.testing.assert_array_equal(again.normalization, model.normalization)
    assert len(again.cells) == len(model.cells)
    for ca, cb in zip(again.cells, model.cells):
        assert ca.label == cb.label
        assert np.array_equal(ca.m, cb.m)
        assert np.array_equal(ca.M, cb.M)


def test_model_crossed_cell_located():
    doc = {
        "theta": 0.3,
        "gamma": [4.0],
        "normalization": [[0.0, 1.0]],
        "labels": ["x"],
        "cells": [{"m": [0.9], "M": [0.1], "label": "x"}],
    }
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_model(json.dumps(doc))
    assert excinfo.value.path == "/cells/0/m"


def test_model_unknown_cell_label_located():
    doc = {
        "theta": 0.3,
        "gamma": [4.0],
        "normalization": [[0.0, 1.0]],
        "labels": ["x"],
        "cells": [{"m": [0.1], "M": [0.2], "label": "y"}],
    }
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_model(json.dumps(doc))
    assert excinfo.value.path == "/cells/0/label"


def test_scenario_spec_decode(demo_dir):
    spec = report_io.decode_scenario_spec((demo_dir / "scenario.json").read_text())
    assert dict(spec.counts)["normal"] == 50
    assert spec.seed == 7
    assert len(spec.meters) == 5


# Each range or domain check that the types own, with one document
# violating it. The rejection text is the decoders' own, unchanged.
_MODEL = {
    "theta": 0.3,
    "gamma": [4.0, 4.0],
    "normalization": [[0.0, 1.0], [0.0, 2.0]],
    "labels": ["ok", "bad"],
    "cells": [{"m": [0.1, 0.1], "M": [0.2, 0.2], "label": "ok"}],
}
_PATTERNS = {"patterns": [{"inf": [0.1, 0.2], "sup": [0.3, 0.4], "label": "a"}] * 2}
_STATE = {"q": {"p1": 2.0, "p2": 1.5, "p3": 0.1}, "H": {"n1": 60.0, "n2": 59.0}}
_INTERVAL = {"center": _STATE, "halfwidth": {"q": _STATE["q"], "H": _STATE["H"]}}
_RANGE_CHECKS = [
    ("meas", ("demand_sigma",), 0, "/demand_sigma: expected number > 0, found 0.0"),
    ("meas", ("demand_delta", 1), -0.5, "/demand_delta/1: expected number >= 0, found -0.5"),
    ("meas", ("measurements", 2, "kind"), "volts",
     "/measurements/2/kind: expected 'pipe-flow' or 'node-head', found 'volts'"),
    ("meas", ("measurements", 1, "sigma"), -1,
     "/measurements/1/sigma: expected number > 0, found -1.0"),
    ("meas", ("measurements", 3, "delta"), -0.25,
     "/measurements/3/delta: expected number >= 0, found -0.25"),
    ("interval", ("halfwidth", "H", "n2"), -1e-3,
     "/halfwidth: expected entries >= 0, found negative entry"),
    ("patterns", ("patterns", 1, "inf"), [0.5, 0.2],
     "/patterns/1/inf: expected inf <= sup, found crossed bounds"),
    ("model", ("theta",), 1.5, "/theta: expected number in (0, 1], found 1.5"),
    ("model", ("gamma",), [], "/gamma: expected at least one entry, found empty array"),
    ("model", ("gamma", 1), 0, "/gamma/1: expected number > 0, found 0.0"),
    ("model", ("normalization", 1), [2, 2], "/normalization/1: expected hi > lo, found [2.0, 2.0]"),
    ("model", ("normalization",), [[0, 1]], "/normalization: expected 2 ranges, found 1"),
    ("model", ("normalization",), [], "/normalization: expected 2 ranges, found 0"),
    ("model", ("cells", 0, "M"), [0.2, 0.2, 0.2],
     "/cells/0: expected 2-dimensional cell, found (2, 3)"),
    ("model", ("cells", 0, "m"), [0.1, 0.1, 0.1],
     "/cells/0: expected 2-dimensional cell, found (3, 2)"),
    ("model", ("cells", 0, "m"), [0.1, 0.9],
     "/cells/0/m: expected m <= M, found crossed min/max points"),
    ("model", ("cells", 0, "label"), "ugly",
     "/cells/0/label: expected label from /labels, found 'ugly'"),
    ("spec", ("counts", "leak@n1"), 0, "/counts/leak@n1: expected count >= 1, found 0"),
    ("spec", ("counts",), {"normal": 5, "burst": 2},
     "/counts: expected valid scenario classes, found unknown class label 'burst'"),
    ("spec", ("leak_magnitude",), [1, 0.5],
     "/leak_magnitude: expected 0 <= lo <= hi, found [1.0, 0.5]"),
    ("spec", ("leak_magnitude",), [-1, 0.5],
     "/leak_magnitude: expected 0 <= lo <= hi, found [-1.0, 0.5]"),
    ("spec", ("demand_noise",), -0.1, "/demand_noise: expected number >= 0, found -0.1"),
    ("spec", ("demand_sigma",), 0, "/demand_sigma: expected number > 0, found 0.0"),
    ("spec", ("meters", 3, "kind"), "volts",
     "/meters/3/kind: expected 'pipe-flow' or 'node-head', found 'volts'"),
    ("spec", ("meters", 0, "sigma"), 0, "/meters/0/sigma: expected number > 0, found 0.0"),
    ("spec", ("meters", 4, "delta"), -1, "/meters/4/delta: expected number >= 0, found -1.0"),
]


@pytest.mark.parametrize(
    "corpus, pointer, value, expected",
    _RANGE_CHECKS,
    ids=[f"{c[0]}:/{'/'.join(map(str, c[1]))}={c[2]}" for c in _RANGE_CHECKS],
)
def test_range_rejections_keep_their_text(demo_dir, triangle, corpus, pointer, value, expected):
    docs = {
        "meas": json.loads((demo_dir / "triangle_meas.json").read_text()),
        "spec": json.loads((demo_dir / "scenario.json").read_text()),
        "model": json.loads(json.dumps(_MODEL)),
        "patterns": json.loads(json.dumps(_PATTERNS)),
        "interval": json.loads(json.dumps(_INTERVAL)),
    }
    decoders = {
        "meas": lambda t: report_io.decode_measurement_set(t, triangle),
        "spec": report_io.decode_scenario_spec,
        "model": report_io.decode_model,
        "patterns": report_io.decode_patterns,
        "interval": lambda t: report_io.decode_interval_state(t, triangle),
    }
    doc = docs[corpus]
    decoders[corpus](json.dumps(doc))  # the document is valid before the change
    node = doc
    for key in pointer[:-1]:
        node = node[key]
    node[pointer[-1]] = value
    with pytest.raises(SchemaError) as excinfo:
        decoders[corpus](json.dumps(doc))
    assert str(excinfo.value) == expected


_SPEC_FIELDS = dict(
    counts=(("normal", 1),), leak_magnitude=(0.0, 1.0), demand_noise=0.05,
    demand_sigma=0.1, meters=(), seed=0,
)


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda: ScenarioSpec(**dict(_SPEC_FIELDS, demand_sigma=-1.0)), "/demand_sigma"),
        (lambda: MeterSpec("pipe-flow", "p1", 0.0, 0.0), "/sigma"),
        (lambda: MeterSpec("volts", "p1", 0.01, 0.0), "/kind"),
        (
            lambda: ClassifierModel(
                0.3, [4.0, 4.0], [[0.0, 1.0]] * 2, [Cell([0.1] * 3, [0.2] * 3, "a")], ["a"]
            ),
            "/cells/0",
        ),
        (lambda: ClassifierModel.create(0), "/gamma"),
        (lambda: ClassifierModel.create(2, normalization=[[1.0, 1.0]] * 2), "/normalization/0"),
        (
            lambda: ClassifierModel.create(2, normalization=[[float("nan"), 1.0]] * 2),
            "/normalization/0",
        ),
    ],
    ids=[
        "spec demand_sigma -1", "meter sigma 0", "meter kind volts", "3-d cell in 2-d model",
        "0-d model", "degenerate normalization", "NaN normalization",
    ],
)
def test_objects_the_decoders_reject_cannot_be_built(build, path):
    """Every object the library builds either round-trips through its
    codec or is rejected where it is built; these are rejected."""
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert excinfo.value.path == path


INF = float("inf")
NAN = float("nan")


def _triangle_with(node=None, pipe=None) -> Network:
    """The demo triangle with fields of its reservoir r1 or pipe p1 replaced."""
    r1 = dict(id="r1", kind="fixed-head", head=100.0)
    p1 = dict(id="p1", from_node="r1", to_node="n1", resistance=10.0)
    return Network(
        [
            Node(**{**r1, **(node or {})}),
            Node("n1", "demand", demand=2.0),
            Node("n2", "demand", demand=1.5),
        ],
        [
            Pipe(**{**p1, **(pipe or {})}),
            Pipe("p2", "r1", "n2", 20.0),
            Pipe("p3", "n1", "n2", 15.0),
        ],
    )


@pytest.mark.parametrize(
    "build, path",
    [
        (lambda: _triangle_with(node=dict(head=NAN)), "/nodes/0/head"),
        (lambda: _triangle_with(node=dict(head=INF)), "/nodes/0/head"),
        (lambda: _triangle_with(node=dict(kind="demand", head=None, demand=INF)),
         "/nodes/0/demand"),
        (lambda: _triangle_with(pipe=dict(resistance=INF)), "/pipes/0/resistance"),
        (lambda: _triangle_with(pipe=dict(exponent=INF)), "/pipes/0/exponent"),
        (lambda: Measurement("pipe-flow", "p1", NAN, 0.1), "/value"),
        (lambda: Measurement("pipe-flow", "p1", 1.0, 0.1, delta=INF), "/delta"),
        (lambda: Measurement("pipe-flow", "p1", 1.0, INF), "/sigma"),
        (lambda: MeasurementSet(demand_delta=(0.1, INF)), "/demand_delta/1"),
        (lambda: ScenarioSpec(**dict(_SPEC_FIELDS, leak_magnitude=(0.0, INF))),
         "/leak_magnitude"),
        (lambda: ScenarioSpec(**dict(_SPEC_FIELDS, demand_noise=INF)), "/demand_noise"),
        (lambda: Pattern([NAN], [NAN]), "/inf"),
        (lambda: Pattern([0.1], [INF]), "/sup"),
        (lambda: Cell([0.1, NAN], [0.2, 0.2], "a"), "/m"),
        (lambda: train(ClassifierModel.create(1), [(Pattern.crisp([0.5]), None)]),
         "/0/label"),
    ],
    ids=[
        "NaN head", "inf head", "inf demand", "inf resistance", "inf exponent",
        "NaN measurement value", "inf measurement delta", "inf measurement sigma",
        "inf demand_delta", "inf leak magnitude", "inf demand_noise", "NaN pattern",
        "inf pattern sup", "NaN cell bound", "unlabeled training example",
    ],
)
def test_values_the_decoders_reject_cannot_be_built(build, path):
    """The decoders reject non-finite numbers and a non-string label; the
    constructors reject them too, located, instead of failing later with
    the wrong cause."""
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert excinfo.value.path == path


def test_integer_beyond_float_range_is_located(demo_dir):
    doc = json.loads((demo_dir / "triangle.json").read_text())
    doc["pipes"][1]["resistance"] = 10**400
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network(json.dumps(doc))
    assert (excinfo.value.path, excinfo.value.expected) == ("/pipes/1/resistance", "finite number")
    # Past Python's digit limit the literal cannot even be parsed.
    with pytest.raises(ParseError):
        report_io.decode_network(json.dumps(doc).replace("1" + "0" * 400, "9" * 5000))


def test_state_csv_shape(triangle):
    from hydrostate import solve_steady_state

    report = solve_steady_state(triangle)
    doc = report_io.state_doc(triangle, report.state)
    csv = report_io.state_csv(doc)
    lines = csv.strip().splitlines()
    assert lines[0] == "kind,id,value"
    assert len(lines) == 1 + triangle.n_pipes + triangle.n_demand
    assert lines[1].startswith("q,p1,")


# ---------------------------------------------------------------------------
# corruption fuzzing
# ---------------------------------------------------------------------------

CORRUPTIONS = [
    lambda v, rng: "garbage",
    lambda v, rng: "",
    lambda v, rng: None,
    lambda v, rng: -abs(v) - 1.0 if isinstance(v, (int, float)) else 123,
    lambda v, rng: 1e301 if isinstance(v, (int, float)) else [],
    lambda v, rng: {},
    lambda v, rng: True,
    lambda v, rng: [v],
]


def _paths(doc, prefix=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield prefix + (idx,)
            yield from _paths(value, prefix + (idx,))


def _leaf_values(doc):
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        if not isinstance(node, (dict, list)):
            yield node


def _corrupt(doc, rng):
    paths = list(_paths(doc))
    path = paths[rng.integers(0, len(paths))]
    node = doc
    for key in path[:-1]:
        node = node[key]
    roll = rng.uniform()
    if roll < 0.2 and isinstance(node, dict):
        node.pop(path[-1])
    elif roll < 0.35:
        # copy some other leaf's value here: produces duplicate ids,
        # label/target collisions, crossed bounds
        leaves = list(_leaf_values(doc))
        node[path[-1]] = leaves[rng.integers(0, len(leaves))]
    else:
        mutator = CORRUPTIONS[rng.integers(0, len(CORRUPTIONS))]
        node[path[-1]] = mutator(node[path[-1]], rng)
    return doc


def fuzz_decoders(demo_dir, rounds, seed):
    """Each single-field corruption is either still accepted or rejected
    with a located SchemaError; anything else is a defect."""
    net_text = (demo_dir / "triangle.json").read_text()
    net = report_io.decode_network(net_text)
    meas_text = (demo_dir / "triangle_meas.json").read_text()
    spec_text = (demo_dir / "scenario.json").read_text()

    meas = report_io.decode_measurement_set(meas_text, net)
    x_star = estimate_state(net, meas).state
    interval_text = report_io.encode_interval_state(
        net, sensitivity_bound(net, meas, x_star, uncertainty_vector(net, meas))
    )

    examples = [
        (Pattern(np.array([0.1, 0.1]), np.array([0.2, 0.2])), "ok"),
        (Pattern(np.array([0.7, 0.7]), np.array([0.8, 0.8])), "bad"),
    ]
    model_text = report_io.encode_model(
        train(ClassifierModel.create(2, theta=0.4), examples)
    )
    pattern_text = report_io.encode_patterns(examples, {"normalization": [[0, 1], [0, 1]]})

    corpora = [
        (net_text, report_io.decode_network),
        (meas_text, lambda t: report_io.decode_measurement_set(t, net)),
        (model_text, report_io.decode_model),
        (pattern_text, report_io.decode_patterns),
        (spec_text, report_io.decode_scenario_spec),
        (interval_text, lambda t: report_io.decode_interval_state(t, net)),
    ]
    rng = np.random.default_rng(seed)
    for round_index in range(rounds):
        text, decoder = corpora[round_index % len(corpora)]
        doc = _corrupt(json.loads(text), rng)
        try:
            decoder(json.dumps(doc))
        except SchemaError as exc:
            assert isinstance(exc.path, str) and exc.path.startswith("/"), (
                f"unlocated rejection: {exc!r} for corruption {doc!r}"
            )
        # anything not raising SchemaError must be a clean acceptance


def test_fuzzed_corruptions_smoke(demo_dir):
    fuzz_decoders(demo_dir, rounds=200, seed=1234)
