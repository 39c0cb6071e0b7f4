import json
import math
import sys
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hydrostate import (
    Cell,
    ClassifierModel,
    IntervalState,
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
    StateVector,
    ValidationError,
    estimate_state,
    sensitivity_bound,
    train,
    uncertainty_vector,
)
from hydrostate import report_io

from helpers import (
    DEEP_NETWORKS,
    DEMO_DIR,
    TOPOLOGIES,
    exact_measurements,
    random_network,
    with_reservoirs,
)


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


@pytest.mark.parametrize("name", [*TOPOLOGIES, *DEEP_NETWORKS])
def test_interval_report_is_dumps_of_its_four_maps(name):
    """The report written from one sorted layout of the unknowns is `dumps`
    of the four state maps, also once entries that are not finite are
    written into the checked interval."""
    net = {**TOPOLOGIES, **DEEP_NETWORKS}[name]()
    rng = np.random.default_rng(9)
    n = len(net.unknowns)
    center = rng.normal(0.0, 1e3, n)
    center[0] = -0.0
    interval = IntervalState(StateVector.from_vector(net, center), rng.uniform(0.0, 5.0, n))

    def four_maps():
        vectors = {
            "center": interval.center.vector,
            "halfwidth": interval.halfwidth,
            "lower": interval.lower,
            "upper": interval.upper,
        }
        doc = {key: report_io._vector_doc(net, vec) for key, vec in vectors.items()}
        return report_io.dumps(doc | {"version": 1})

    assert report_io.encode_interval_state(net, interval) == four_maps()
    interval.center.q[0] = math.nan
    interval.halfwidth[-1] = math.inf
    assert report_io.encode_interval_state(net, interval) == four_maps()


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
        st.dictionaries(_TEXT, _FLOATS, max_size=5),
    ),
    max_leaves=24,
)


@settings(deadline=None, max_examples=300)
@given(_DOCS)
def test_dumps_writes_the_stdlib_text(doc):
    assert report_io.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Keys that also hold the % of a format template.
_KEYS = st.text(st.one_of(st.characters(), st.sampled_from('%%s"\\\x00\u2028')), max_size=4)


@st.composite
def _record_lists(draw):
    """One to five dicts, most of them alike: each key's values are drawn
    from one kind (strings, finite floats, or maps over one key set, which
    may be empty, of finite or of any floats), and an item may get an odd
    value at one of its keys or at a new key, or lose a key."""
    kinds, pool = {}, ["x"]
    for key in draw(st.lists(_KEYS, min_size=1, max_size=3, unique=True)):
        names = draw(st.lists(_KEYS, max_size=3, unique=True))
        pool += names
        kinds[key] = draw(st.sampled_from([
            _TEXT,
            _FINITE,
            st.fixed_dictionaries({name: _FINITE for name in names}),
            st.fixed_dictionaries({name: _FLOATS for name in names}),
        ]))
    # Odd maps draw their keys from the maps' own, so that they often hold
    # a few more or a few less.
    odd = st.one_of(
        _LEAVES,
        st.dictionaries(_KEYS, _FLOATS, max_size=3),
        st.dictionaries(st.sampled_from(pool), _FINITE, max_size=4),
    )
    items = []
    for _ in range(draw(st.integers(1, 5))):
        item = {key: draw(kind) for key, kind in kinds.items()}
        change = draw(st.integers(0, 7))
        if change == 0:
            item[draw(st.one_of(st.sampled_from(list(kinds)), _KEYS))] = draw(odd)
        elif change == 1:
            del item[draw(st.sampled_from(list(kinds)))]
        items.append(item)
    return items


def _alike(items: list) -> bool:
    """Whether a list of dicts is written from one record template: two or
    more items, whose values at each key of the first are all strings, all
    finite floats, or all non-empty maps of finite floats over one key set."""

    def kind(value):
        if type(value) in (str, float) and (type(value) is str or math.isfinite(value)):
            return type(value)
        values = value.values() if type(value) is dict else ()
        if values and all(type(v) is float and math.isfinite(v) for v in values):
            return tuple(sorted(value))
        return None

    kinds = [{key: kind(value) for key, value in item.items()} for item in items]
    return (
        len(items) > 1 and bool(kinds[0])
        and None not in kinds[0].values() and all(k == kinds[0] for k in kinds)
    )


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_record_lists())
@example([{"k": {"a": 1.0, "b": 2.0}}, {"k": {"a": 0.5, "c": 0.5}}])
@example([{"k": {"a": 1.0}}, {"k": {"a": 0.5, "b": 0.5}}])
@example([{"k": {"a": 1.0, "b": 2.0}}, {"k": {"a": 0.5}}])
@example([{"k": {}, "w": 1.0}, {"k": {}, "w": 2.0}])
@example([{"a%s": "%d", "w": -0.0}, {"a%s": "%%", "w": 1e22}])
@example([{"k": "x", "w": 1.0}])
def test_record_lists_are_the_stdlib_text(items):
    """A list of like records goes through one template, any other list
    item by item, and both give the stdlib text."""
    doc = {"results": items}
    with mock.patch.object(report_io, "_write", wraps=report_io._write) as write:
        text = report_io.dumps(doc)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # One call for the document and one for the list, whose items were
    # written from the template, or more, one per item at least.
    assert (write.call_count == 2) == _alike(items)


@pytest.mark.parametrize(
    "doc, kind",
    [({"a": {1, 2}}, "set"), ([1.0, np.float32(2.0)], "float32"), ({"n": np.int64(3)}, "int64")],
    ids=["set", "float32 in a list", "int64"],
)
def test_dumps_rejects_what_the_stdlib_rejects(doc, kind):
    with pytest.raises(TypeError) as ours:
        report_io.dumps(doc)
    with pytest.raises(TypeError) as stdlib:
        json.dumps(doc, sort_keys=True, indent=2)
    assert str(ours.value) == str(stdlib.value) == f"Object of type {kind} is not JSON serializable"


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e22, -1.7e308]),
)


@st.composite
def _pattern_entries(draw):
    """0 to 4 patterns of one dimension, each with a label or None."""
    n_dims = draw(st.integers(1, 4))
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        ends = [sorted(draw(st.lists(_FINITE, min_size=2, max_size=2))) for _ in range(n_dims)]
        pattern = Pattern(np.array([lo for lo, _ in ends]), np.array([hi for _, hi in ends]))
        entries.append((pattern, draw(st.one_of(st.none(), _TEXT))))
    return entries


_MANIFESTS = st.one_of(
    st.none(),
    st.dictionaries(_TEXT, st.one_of(st.integers(), _FINITE, _TEXT, st.lists(_FINITE)), max_size=4),
)


@settings(deadline=None, max_examples=200)
@given(_pattern_entries(), _MANIFESTS)
def test_pattern_file_is_the_stdlib_text_and_round_trips(entries, manifest):
    items = [
        {"inf": p.inf.tolist(), "sup": p.sup.tolist()} | ({} if label is None else {"label": label})
        for p, label in entries
    ]
    doc = items if manifest is None else {"version": 1, "manifest": manifest, "patterns": items}
    text = report_io.encode_patterns(entries, manifest)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    decoded, again = report_io.decode_patterns(text)
    assert again == manifest
    assert [label for _, label in decoded] == [label for _, label in entries]
    for (p, _), (q, _) in zip(decoded, entries):
        assert p.inf.tobytes() == q.inf.tobytes() and p.sup.tobytes() == q.sup.tobytes()


def test_pattern_file_writes_non_finite_entries_as_the_stdlib_does():
    """A pattern's arrays can be written to after it is checked; the writer
    still gives the stdlib text, which the reader then rejects."""
    pattern = Pattern.crisp([0.25, 0.5, 0.75])
    pattern.inf[:] = [math.nan, -math.inf, 0.5]
    pattern.sup[0] = math.inf
    items = [{"inf": pattern.inf.tolist(), "label": "x", "sup": pattern.sup.tolist()}]
    text = report_io.encode_patterns([(pattern, "x")])
    assert text == json.dumps(items, sort_keys=True, indent=2) + "\n"
    with pytest.raises(SchemaError):
        report_io.decode_patterns(text)


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


def test_first_bad_node_in_the_file_is_reported(demo_dir):
    """A node's own invariants are checked as it is read, so a bad kind on
    the first node wins over a missing id on the second."""
    doc = json.loads((demo_dir / "triangle.json").read_text())
    doc["nodes"][0]["kind"] = "volts"
    del doc["nodes"][1]["id"]
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network(json.dumps(doc))
    assert str(excinfo.value) == "/nodes/0/kind: expected 'demand' or 'fixed-head', found 'volts'"


def test_first_bad_pipe_in_the_file_is_reported(demo_dir):
    """A pipe's endpoints are checked against the nodes as it is read; the
    uniqueness of ids is a check on the whole network, made after."""
    doc = json.loads((demo_dir / "triangle.json").read_text())
    doc["pipes"][0]["to"] = "n9"
    del doc["pipes"][1]["resistance"]
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network(json.dumps(doc))
    assert excinfo.value.path == "/pipes/0/to"
    doc = json.loads((demo_dir / "triangle.json").read_text())
    doc["pipes"][1]["id"] = doc["pipes"][0]["id"]
    doc["pipes"][2]["exponent"] = 0.5
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network(json.dumps(doc))
    assert excinfo.value.path == "/pipes/2/exponent"


def test_first_bad_cell_in_the_file_is_reported(demo_dir):
    """A cell's label is checked against /labels, and its dimension against
    the model's, as it is read: an unknown label on the first cell wins
    over a missing min point on the second."""
    doc = json.loads((demo_dir / "out" / "model.json").read_text())
    doc["cells"][0]["label"] = "burst"
    del doc["cells"][1]["m"]
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_model(json.dumps(doc))
    assert str(excinfo.value) == "/cells/0/label: expected label from /labels, found 'burst'"
    doc = json.loads((demo_dir / "out" / "model.json").read_text())
    doc["cells"][0]["m"].append(0.0)
    doc["cells"][1]["M"] = "high"
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_model(json.dumps(doc))
    assert excinfo.value.path == "/cells/0"


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
    # Each array of entries: an entry that is not an object, a missing
    # field, two bad entries (the earlier is reported), and a check of the
    # entry's own type, located under the entry.
    ("net", ("nodes", 1), [1], "/nodes/1: expected object, found list"),
    ("net", ("nodes", 2), {"kind": "demand", "demand": 1.5},
     "/nodes/2/id: expected present field, found missing"),
    ("net", ("nodes",),
     [{"id": "r1", "kind": "fixed-head", "head": 100.0},
      {"id": "n1", "kind": "demand", "demand": "2"}, "n2"],
     "/nodes/1/demand: expected number, found str"),
    ("net", ("nodes", 1, "demand"), -2,
     "/nodes/1/demand: expected demand >= 0, found -2.0 on node 'n1'"),
    ("net", ("pipes", 0), "p1", "/pipes/0: expected object, found str"),
    ("net", ("pipes", 2), {"id": "p3", "from": "n1", "to": "n2"},
     "/pipes/2/resistance: expected present field, found missing"),
    ("net", ("pipes",), [{"id": "p1", "from": "r1", "to": "n1", "resistance": 10}, None, {}],
     "/pipes/1: expected object, found NoneType"),
    ("net", ("pipes", 2, "to"), "n1",
     "/pipes/2: expected distinct endpoints, found pipe 'p3' is a self-loop on 'n1'"),
    ("meas", ("measurements", 0), 2.07, "/measurements/0: expected object, found float"),
    ("meas", ("measurements", 1), {"kind": "pipe-flow", "target": "p2", "value": 1.4},
     "/measurements/1/sigma: expected present field, found missing"),
    ("meas", ("measurements",),
     [{"kind": "pipe-flow", "target": "p1", "value": 2.0, "sigma": 0.02, "delta": -1}, []],
     "/measurements/0/delta: expected number >= 0, found -1.0"),
    ("meas", ("measurements", 3, "target"), "r1",
     "/measurements/3/target: expected existing demand node id, found 'r1'"),
    ("spec", ("meters", 2), "p3", "/meters/2: expected object, found str"),
    ("spec", ("meters", 1), {"kind": "pipe-flow", "target": "p2", "sigma": 0.01},
     "/meters/1/delta: expected present field, found missing"),
    ("spec", ("meters",),
     [{"kind": "pipe-flow", "target": "p1", "sigma": -0.01, "delta": 0.02}, 5],
     "/meters/0/sigma: expected number > 0, found -0.01"),
    ("model", ("cells", 0), [[0.1, 0.1], [0.2, 0.2]], "/cells/0: expected object, found list"),
    ("model", ("cells", 0), {"m": [0.1, 0.1], "label": "ok"},
     "/cells/0/M: expected present field, found missing"),
    ("model", ("cells",),
     [{"m": [0.1, 0.1], "M": [0.2, 0.2], "label": 1},
      {"m": [0.9, 0.1], "M": [0.2, 0.2], "label": "ok"}],
     "/cells/0/label: expected string, found int"),
    ("meas", ("demand_sigma",), 0, "/demand_sigma: expected number > 0, found 0.0"),
    ("meas", ("demand_delta", 1), -0.5, "/demand_delta/1: expected number >= 0, found -0.5"),
    ("meas", ("demand_delta",), [0.02], "/demand_delta: expected 2 entries, found 1"),
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
    ("spec", ("leak_magnitude",), [0.5], "/leak_magnitude: expected [lo, hi] pair, found 1 entries"),
    ("spec", ("demand_noise",), -0.1, "/demand_noise: expected number >= 0, found -0.1"),
    ("spec", ("demand_sigma",), 0, "/demand_sigma: expected number > 0, found 0.0"),
    ("spec", ("meters", 3, "kind"), "volts",
     "/meters/3/kind: expected 'pipe-flow' or 'node-head', found 'volts'"),
    ("spec", ("meters", 0, "sigma"), 0, "/meters/0/sigma: expected number > 0, found 0.0"),
    ("spec", ("meters", 4, "delta"), -1, "/meters/4/delta: expected number >= 0, found -1.0"),
] + [
    # Only the integer 1 is a version, as only an integer is an integer field.
    (corpus, ("version",), version, f"/version: expected 1, found {version!r}")
    for corpus in ("net", "meas", "spec", "model", "patterns", "interval")
    for version in (True, 1.0)
]


@pytest.mark.parametrize(
    "corpus, pointer, value, expected",
    _RANGE_CHECKS,
    ids=[f"{c[0]}:/{'/'.join(map(str, c[1]))}={c[2]}" for c in _RANGE_CHECKS],
)
def test_range_rejections_keep_their_text(demo_dir, triangle, corpus, pointer, value, expected):
    docs = {
        "net": json.loads((demo_dir / "triangle.json").read_text()),
        "meas": json.loads((demo_dir / "triangle_meas.json").read_text()),
        "spec": json.loads((demo_dir / "scenario.json").read_text()),
        "model": json.loads(json.dumps(_MODEL)),
        "patterns": json.loads(json.dumps(_PATTERNS)),
        "interval": json.loads(json.dumps(_INTERVAL)),
    }
    decoders = {
        "net": report_io.decode_network,
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


@pytest.mark.parametrize(
    "build, detail",
    [
        (lambda: ClassifierModel.create(2, normalization=[[0.0, math.inf]] * 2),
         "/normalization/0: expected finite bounds, found [0.0, inf]"),
        (lambda: ClassifierModel(0.3, [4.0], [[0.0, 1.0]], (), [1]),
         "/labels/0: expected string, found int"),
    ],
    ids=["infinite normalization end", "int label"],
)
def test_model_checks_no_decoder_reaches_keep_their_text(build, detail):
    """The model decoder rejects these first, as a non-finite number or a
    non-string label; a model built in code meets the model's own check."""
    with pytest.raises(ValidationError) as excinfo:
        build()
    assert str(excinfo.value) == detail


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


@cache
def _network_documents() -> tuple[str, ...]:
    """The demo triangle and random network documents: one to three
    reservoirs, and with seed 12, pipes between fixed-head nodes."""
    nets = [
        with_reservoirs(random_network(seed), count) for seed in (11, 12) for count in (1, 2, 3)
    ]
    return ((DEMO_DIR / "triangle.json").read_text(),) + tuple(map(report_io.encode_network, nets))


def _network_outcome(text: str):
    """The decoded network's entries and structural arrays, or the class,
    path and text of the error the decoder raises."""
    try:
        net = report_io.decode_network(text)
    except SchemaError as exc:
        return type(exc), exc.path, str(exc)
    forest = net.forest
    arrays = (
        net.a12.pipe, net.a12.node, net.a12.sign, net.a10.pipe, net.a10.node, net.a10.sign,
        forest.order, forest.tree_pipe, forest.sign, forest.cotree, forest._parent,
        forest._depth, forest.chords.pipe, forest.chords.node, forest.chords.sign,
        *forest._loops,
    )
    return net.nodes, net.pipes, net.unknowns, [(a.dtype, a.tolist()) for a in arrays]


def _located_outcome(text: str):
    """`_network_outcome` with every array read by the located loop alone."""
    with mock.patch.object(report_io, "_bulk_entries", lambda *args: None):
        return _network_outcome(text)


# Values that break a number field, and a string field, of an entry.
_BAD_NUMBERS = [True, False, 10**400, int(sys.float_info.max) + 1, math.nan, math.inf,
                -math.inf, "1.5", None, [1.0], {}]
_BAD_STRINGS = [None, 7, 1.5, True, ["n1"], {}]


def _inject(doc: dict, array: str, i: int, ids: list, data) -> None:
    """One defect in entry i of doc[array]: a missing or ill-typed field, a
    bool or an integer beyond float range for a number, an unknown kind, a
    negative demand, a self-loop, an unknown endpoint, a duplicate id (one
    of `ids`, the array's ids before any defect), or an entry that is not
    an object."""
    entries = doc[array]
    entry = entries[i]
    numbers = [k for k in ("head", "demand", "resistance", "exponent") if k in entry]
    strings = ["id", "kind"] if array == "nodes" else ["id", "from", "to"]
    defects = ["missing", "number", "string", "duplicate id", "not an object"]
    if array == "nodes":
        defects += ["unknown kind", "negative demand"]
    else:
        defects += ["self-loop", "unknown endpoint"]
    defect = data.draw(st.sampled_from(defects))
    if defect == "missing":
        del entry[data.draw(st.sampled_from(strings + numbers))]
    elif defect == "number":
        entry[data.draw(st.sampled_from(numbers))] = data.draw(st.sampled_from(_BAD_NUMBERS))
    elif defect == "string":
        entry[data.draw(st.sampled_from(strings))] = data.draw(st.sampled_from(_BAD_STRINGS))
    elif defect == "duplicate id":
        entry["id"] = ids[(i + data.draw(st.integers(1, len(ids) - 1))) % len(ids)]
    elif defect == "not an object":
        entries[i] = data.draw(st.sampled_from([5, "node", None, [entry]]))
    elif defect == "unknown kind":
        entry["kind"] = "volts"
    elif defect == "negative demand":
        entry["demand"] = -data.draw(st.sampled_from([1.0, 5e-324, 2]))
    elif defect == "self-loop":
        entry["to"] = entry["from"]
    else:
        entry[data.draw(st.sampled_from(["from", "to"]))] = "nowhere"


def _no_node_of_kind(kind: str):
    """A network-wide defect: every node of `kind` turned into one of the
    other kind, so the network has none of it."""

    def edit(doc: dict) -> None:
        for i, entry in enumerate(doc["nodes"]):
            if entry["kind"] == kind:
                doc["nodes"][i] = (
                    {"id": entry["id"], "kind": "fixed-head", "head": 50.0} if kind == "demand"
                    else {"id": entry["id"], "kind": "demand", "demand": 1.0}
                )

    return edit


# Defects of the whole network: a missing kind of node, and a node that no
# pipe reaches.
_NETWORK_DEFECTS = {
    "no fixed-head node": _no_node_of_kind("fixed-head"),
    "no demand node": _no_node_of_kind("demand"),
    "unreachable node": lambda doc: doc["nodes"].append(
        {"id": "island", "kind": "demand", "demand": 1.0}
    ),
}


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_bulk_network_reader_agrees_with_the_located_loop(data):
    """With one defect, or two in different entries, and up to two defects
    of the whole network, the decoder raises the class, path and text that
    the located loop raises on its own; a well-formed document gives the
    same entries, incidence and forest."""
    doc = json.loads(data.draw(st.sampled_from(_network_documents())))
    defects = data.draw(st.lists(st.sampled_from(sorted(_NETWORK_DEFECTS)), max_size=2, unique=True))
    for defect in defects:
        _NETWORK_DEFECTS[defect](doc)
    ids = {array: [entry["id"] for entry in doc[array]] for array in ("nodes", "pipes")}
    targets = [(array, i) for array in ids for i in range(len(ids[array]))]
    chosen = data.draw(st.lists(st.sampled_from(targets), max_size=2, unique=True))
    for array, i in chosen:
        _inject(doc, array, i, ids[array], data)
    text = json.dumps(doc)
    assert _network_outcome(text) == _located_outcome(text)


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda doc: (doc["nodes"][0].update(kind="volts"), doc["nodes"][1].pop("id")),
         "/nodes/0/kind: expected 'demand' or 'fixed-head', found 'volts'"),
        (lambda doc: doc["pipes"][1].update(resistance=int(sys.float_info.max) + 1),
         f"/pipes/1/resistance: expected finite number, found {int(sys.float_info.max) + 1!r}"),
        (lambda doc: doc["nodes"][2].update(demand=True),
         "/nodes/2/demand: expected number, found bool"),
        (lambda doc: doc["pipes"][2].update(to=doc["pipes"][2]["from"]),
         "/pipes/2: expected distinct endpoints, found pipe 'p3' is a self-loop on 'n1'"),
    ],
    ids=["bad kind then missing id", "integer just past float range", "bool demand", "self-loop"],
)
def test_bulk_network_reader_known_rejections(demo_dir, edit, expected):
    doc = json.loads((demo_dir / "triangle.json").read_text())
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(SchemaError) as excinfo:
        report_io.decode_network(text)
    assert str(excinfo.value) == expected
    assert _network_outcome(text) == _located_outcome(text)


def _duplicate_node(doc: dict) -> None:
    doc["nodes"].append(dict(doc["nodes"][1]))


def _edits(*edits):
    def edit(doc: dict) -> None:
        for one in edits:
            one(doc)

    return edit


def _set(array: str, i: int, **fields):
    return lambda doc: doc[array][i].update(fields)


def _island(kind: str, **fields):
    """A node "n3" that no pipe reaches."""
    return lambda doc: doc["nodes"].append({"id": "n3", "kind": kind, **fields})


# Two faults in the demo triangle, and the error of the file and of the
# network built from its entries: each entry's own fault in file order,
# nodes before pipes, then repeated node ids, then repeated pipe ids, then
# the checks on the whole network.
NETWORK_FAULT_PAIRS = {
    "duplicate node, then zero resistance": (
        _edits(_duplicate_node, _set("pipes", 2, resistance=0.0)),
        "/pipes/2/resistance: expected resistance > 0, found 0.0 on pipe 'p3'",
    ),
    "duplicate node id, then a bad kind": (
        _edits(_set("nodes", 2, id="n1"), _island("volts")),
        "/nodes/3/kind: expected 'demand' or 'fixed-head', found 'volts'",
    ),
    "duplicate pipe id before a bad exponent": (
        _edits(_set("pipes", 1, id="p1"), _set("pipes", 2, exponent=0.5)),
        "/pipes/2/exponent: expected exponent > 1, found 0.5 on pipe 'p3'",
    ),
    "duplicate pipe id after a bad exponent": (
        _edits(_set("pipes", 0, exponent=0.5), _set("pipes", 2, id="p1")),
        "/pipes/0/exponent: expected exponent > 1, found 0.5 on pipe 'p1'",
    ),
    "unknown endpoint, then a self-loop": (
        _edits(_set("pipes", 0, to="n9"), _set("pipes", 2, to="n1")),
        "/pipes/0/to: expected existing node id, found unknown node 'n9' on pipe 'p1'",
    ),
    "no fixed-head node, and an unreachable node": (
        _edits(_no_node_of_kind("fixed-head"), _island("demand", demand=1.0)),
        "/nodes: expected at least one fixed-head node, found none",
    ),
    "no demand node, and an unreachable node": (
        _edits(_no_node_of_kind("demand"), _island("fixed-head", head=80.0)),
        "/nodes: expected at least one demand node, found none",
    ),
    "duplicate pipe id, and a duplicate node id": (
        _edits(_set("pipes", 0, id="p2"), _duplicate_node),
        "/nodes/3/id: expected unique node id, found duplicate id 'n1'",
    ),
    "unreachable node, and a duplicate pipe id": (
        _edits(_island("demand", demand=1.0), _set("pipes", 2, id="p2")),
        "/pipes/2/id: expected unique pipe id, found duplicate id 'p2'",
    ),
    "bad first node and bad last pipe": (
        _edits(_set("nodes", 0, kind="volts"), _set("pipes", 2, resistance=-1.0)),
        "/nodes/0/kind: expected 'demand' or 'fixed-head', found 'volts'",
    ),
    "bad last node and bad last pipe": (
        _edits(_set("nodes", 2, demand=-1.0), _set("pipes", 2, exponent=1.0)),
        "/nodes/2/demand: expected demand >= 0, found -1.0 on node 'n2'",
    ),
}


def _built_outcome(doc: dict) -> str:
    """The text of the error `Network(nodes, pipes)` raises on the entries
    of the network document."""
    nodes = [Node(n["id"], n["kind"], n.get("head"), n.get("demand")) for n in doc["nodes"]]
    pipes = [Pipe(p["id"], p["from"], p["to"], p["resistance"], p["exponent"])
             for p in doc["pipes"]]
    with pytest.raises(ValidationError) as excinfo:
        Network(nodes, pipes)
    return str(excinfo.value)


@pytest.mark.parametrize("pair", NETWORK_FAULT_PAIRS)
def test_network_fault_pairs_keep_their_precedence(demo_dir, pair):
    """Both entry points report the fault the precedence puts first, and
    the located loop alone agrees with the decoder."""
    edit, expected = NETWORK_FAULT_PAIRS[pair]
    doc = json.loads((demo_dir / "triangle.json").read_text())
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(ValidationError) as excinfo:
        report_io.decode_network(text)
    assert str(excinfo.value) == expected
    assert _network_outcome(text) == _located_outcome(text)
    assert _built_outcome(doc) == expected


def _inject_semantic(doc: dict, array: str, i: int, kept: list, data) -> None:
    """One fault of entry i of doc[array] that the types allow: a duplicate
    id (one of `kept`, the ids of the array's entries that get no fault), an
    unknown kind, a negative demand, a self-loop, an unknown endpoint, a
    resistance <= 0 or an exponent <= 1."""
    entry = doc[array][i]
    defects = ["duplicate id"]
    if array == "nodes":
        defects += ["unknown kind", "negative demand"]
    else:
        defects += ["self-loop", "unknown endpoint", "resistance <= 0", "exponent <= 1"]
    defect = data.draw(st.sampled_from(defects))
    if defect == "duplicate id":
        entry["id"] = data.draw(st.sampled_from(kept))
    elif defect == "unknown kind":
        entry["kind"] = "volts"
    elif defect == "negative demand":
        entry["demand"] = -data.draw(st.sampled_from([1.0, 5e-324]))
    elif defect == "self-loop":
        entry["to"] = entry["from"]
    elif defect == "unknown endpoint":
        entry[data.draw(st.sampled_from(["from", "to"]))] = "nowhere"
    elif defect == "resistance <= 0":
        entry["resistance"] = data.draw(st.sampled_from([0.0, -0.0, -3.5]))
    else:
        entry["exponent"] = data.draw(st.sampled_from([1.0, 0.5, -2.0]))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.data())
def test_both_entry_points_report_the_same_fault(data):
    """With two faults the types allow, in two entries or in one, the
    decoder and `Network(nodes, pipes)` raise the same text."""
    doc = json.loads(data.draw(st.sampled_from(_network_documents())))
    ids = {array: [entry["id"] for entry in doc[array]] for array in ("nodes", "pipes")}
    targets = [(array, i) for array in ids for i in range(len(ids[array]))]
    chosen = data.draw(st.lists(st.sampled_from(targets), min_size=2, max_size=2))
    for array, i in chosen:
        kept = [key for k, key in enumerate(ids[array]) if (array, k) not in chosen]
        _inject_semantic(doc, array, i, kept, data)
    with pytest.raises(ValidationError) as excinfo:
        report_io.decode_network(json.dumps(doc))
    assert _built_outcome(doc) == str(excinfo.value)


def test_bulk_network_reader_accepts_integers(demo_dir):
    """Integer numbers read as the floats the located loop makes of them."""
    doc = json.loads((demo_dir / "triangle.json").read_text())
    doc["nodes"][0]["head"] = 100
    doc["pipes"][0]["resistance"] = 2**60 + 1
    doc["pipes"][1]["exponent"] = 2
    text = json.dumps(doc)
    outcome = _network_outcome(text)
    assert outcome == _located_outcome(text)
    nodes, pipes = outcome[:2]
    assert nodes[0].head == 100.0 and type(nodes[0].head) is float
    assert pipes[0].resistance == float(2**60 + 1) and pipes[1].exponent == 2.0


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
