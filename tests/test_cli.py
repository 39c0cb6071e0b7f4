import csv
import io
import json
import sys

import pytest

from hydrostate.cli import main

from conftest import DEMO_DIR

SINGLE = str(DEMO_DIR / "single_pipe.json")
TRIANGLE = str(DEMO_DIR / "triangle.json")
TRIANGLE_MEAS = str(DEMO_DIR / "triangle_meas.json")
SCENARIO = str(DEMO_DIR / "scenario.json")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_solve_demo_network(capsys):
    code, out = run(capsys, "solve", SINGLE)
    assert code == 0
    doc = json.loads(out)
    assert doc["q"]["p1"] == pytest.approx(2.0, abs=1e-12)
    assert doc["converged"] is True
    assert doc["iterations"] >= 1


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "solve", TRIANGLE)
    _, second = run(capsys, "solve", TRIANGLE)
    assert first == second


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hydrostate", "solve", TRIANGLE])
    assert main() == 0
    assert capsys.readouterr().out == run(capsys, "solve", TRIANGLE)[1]


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_missing_file_is_domain_error(capsys):
    code, out = run(capsys, "solve", "no-such-file.json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "FileError"
    assert doc["detail"]


def test_schema_error_reported_as_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [], "pipes": []}')
    code, out = run(capsys, "solve", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ValidationError"
    assert "/nodes" in doc["detail"]


def test_estimate_and_bounds(capsys):
    code, out = run(capsys, "estimate", TRIANGLE, TRIANGLE_MEAS)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert set(doc["q"]) == {"p1", "p2", "p3"}

    code, out = run(capsys, "bounds", TRIANGLE, TRIANGLE_MEAS)
    assert code == 0
    doc = json.loads(out)
    for key in ("lower", "center", "upper", "halfwidth"):
        assert key in doc
    assert doc["lower"]["q"]["p1"] <= doc["center"]["q"]["p1"] <= doc["upper"]["q"]["p1"]


def test_solve_csv_format(capsys):
    code, out = run(capsys, "solve", SINGLE, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,id,value"
    assert lines[1].startswith("q,p1,")


def test_bounds_csv_format(capsys):
    code, out = run(capsys, "bounds", TRIANGLE, TRIANGLE_MEAS, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,id,lower,center,upper"
    assert len(lines) == 1 + 5  # 3 pipes + 2 demand nodes


def test_gen_train_classify_pipeline(capsys, tmp_path):
    patterns_file = str(tmp_path / "patterns.json")
    model_file = str(tmp_path / "model.json")

    code, out = run(capsys, "gen", TRIANGLE, SCENARIO, "--out", patterns_file, "--seed", "3")
    assert code == 0
    summary = json.loads(out)
    assert summary["patterns"] == 100
    assert summary["out"] == patterns_file

    code, out = run(capsys, "train", patterns_file, "--out", model_file, "--theta", "0.3")
    assert code == 0
    summary = json.loads(out)
    assert summary["cells"] >= 1
    assert set(summary["labels"]) == {"normal", "leak@n1", "leak@n2"}

    code, out = run(capsys, "classify", model_file, patterns_file)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 100
    first = doc["results"][0]
    assert first["winner"] in summary["labels"]
    assert first["winning_membership"] == max(first["memberships"].values())

    code, out = run(capsys, "classify", model_file, patterns_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "pattern,label,membership,winner"

    code, out = run(capsys, "train", patterns_file, "--out", model_file, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label,cells"


@pytest.mark.parametrize("command", ["solve", "estimate", "bounds"])
def test_csv_quotes_ids_that_need_it(capsys, tmp_path, command):
    """Ids holding a comma or a quote are quoted, so every row parses to
    the header's width and gives the ids back."""
    rename = {"p1": "p,1", "n1": "a,b", "n2": 'c"d'}
    text = (DEMO_DIR / "triangle.json").read_text()
    meas_text = (DEMO_DIR / "triangle_meas.json").read_text()
    for old, new in rename.items():
        text = text.replace(f'"{old}"', json.dumps(new))
        meas_text = meas_text.replace(f'"{old}"', json.dumps(new))
    net = tmp_path / "net.json"
    net.write_text(text)
    meas = tmp_path / "meas.json"
    meas.write_text(meas_text)
    inputs = [str(net)] if command == "solve" else [str(net), str(meas)]
    code, out = run(capsys, command, *inputs, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) for row in rows)
    assert {row[1] for row in rows} == {"p,1", "p2", "p3", "a,b", 'c"d'}


def test_gen_deterministic_given_seed(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "gen", TRIANGLE, SCENARIO, "--out", str(a))
    run(capsys, "gen", TRIANGLE, SCENARIO, "--out", str(b))
    assert a.read_text() == b.read_text()


def test_gen_csv_summary(capsys, tmp_path):
    code, out = run(
        capsys, "gen", TRIANGLE, SCENARIO, "--out", str(tmp_path / "p.json"),
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,requested,generated"
    assert any(line.startswith("normal,50,") for line in lines)


def test_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"max_iter": 1}')

    code, out = run(capsys, "solve", TRIANGLE, "--config", str(config))
    assert code == 1
    assert json.loads(out)["error"] == "NonConvergence"

    # explicit flag beats the config file
    code, _ = run(capsys, "solve", TRIANGLE, "--config", str(config), "--max-iter", "50")
    assert code == 0


def test_config_via_environment(capsys, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text('{"max_iter": 1}')
    monkeypatch.setenv("HYDROSTATE_CONFIG", str(config))
    code, out = run(capsys, "solve", TRIANGLE)
    assert code == 1
    assert json.loads(out)["error"] == "NonConvergence"


@pytest.mark.parametrize(
    "command, config",
    [
        ("solve", '{"max_iter": "5"}'),
        ("solve", '{"theta": null}'),
        ("solve", '{"tol_x": true}'),
        ("solve", '{"format": 1}'),
        ("gen", '{"seed": 1.5}'),
    ],
    ids=["max_iter string", "theta null", "tol_x boolean", "format number", "gen seed float"],
)
def test_mistyped_config_value_is_usage_error(capsys, tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(config)
    inputs = {"solve": [TRIANGLE], "gen": [TRIANGLE, SCENARIO, "--out", str(tmp_path / "p.json")]}
    with pytest.raises(SystemExit) as excinfo:
        main([command, *inputs[command], "--config", str(path)])
    assert excinfo.value.code == 2
    assert "config file" in capsys.readouterr().err


def test_invalid_omega_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", TRIANGLE, TRIANGLE_MEAS, "--omega", "9"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, config",
    [
        (["solve", TRIANGLE, "--tol-r", "nan"], None),
        (["solve", TRIANGLE], '{"tol_r": NaN}'),
        (["estimate", TRIANGLE, TRIANGLE_MEAS, "--tol-x", "nan"], None),
    ],
    ids=["tol-r flag", "tol_r config", "tol-x flag"],
)
def test_nan_tolerance_is_usage_error(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "tolerances must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options, config, message",
    [
        (["--max-iter", "0"], None, "max-iter must be >= 1"),
        (["--theta", "2"], None, "theta must be in (0, 1]"),
        (["--gamma", "0"], None, "gamma must be a finite number > 0"),
        ([], '{"format": "xml"}', "format must be 'json' or 'csv'"),
    ],
    ids=["max-iter 0", "theta 2", "gamma 0", "config format xml"],
)
def test_option_out_of_range_is_usage_error(capsys, tmp_path, options, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        options = [*options, "--config", str(path)]
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", TRIANGLE, *options])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"hydrostate: error: {message}"


def test_cross_file_validation_is_json_error(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "counts": {"leak@nope": 2},
                "leak_magnitude": [0.1, 0.2],
                "demand_noise": 0.01,
                "demand_sigma": 0.1,
                "meters": [],
                "seed": 1,
            }
        )
    )
    code, out = run(capsys, "gen", TRIANGLE, str(spec), "--out", str(tmp_path / "p.json"))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "ValidationError"
    assert "nope" in doc["detail"]


def test_out_flag_writes_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "solve", SINGLE, "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["q"]["p1"] == pytest.approx(2.0)


def _write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _demo(name, edit):
    doc = json.loads((DEMO_DIR / name).read_text())
    edit(doc)
    return doc


def _gen(tmp_path, **spec_fields):
    spec = _demo("scenario.json", lambda doc: doc.update(spec_fields))
    return ["gen", TRIANGLE, _write(tmp_path, "spec.json", spec), "--out", str(tmp_path / "p.json")]


def _patterns(tmp_path, normalization):
    entries = [{"inf": [0.1, 0.2, 0.3], "sup": [0.1, 0.2, 0.3], "label": "a"}]
    doc = {"manifest": {"normalization": normalization}, "patterns": entries}
    return _write(tmp_path, "patterns.json", doc)


def _train(tmp_path, normalization):
    return ["train", _patterns(tmp_path, normalization), "--out", str(tmp_path / "model.json")]


def _estimate_tiny_sigma(tmp_path):
    meas = _demo("triangle_meas.json", lambda doc: doc["measurements"][0].update(sigma=1e-200))
    return ["estimate", TRIANGLE, _write(tmp_path, "meas.json", meas)]


def _solve_huge_integer(tmp_path):
    net = _demo("triangle.json", lambda doc: doc["pipes"][0].update(resistance=10**400))
    return ["solve", _write(tmp_path, "net.json", net)]


def _bounds_overflowing_bound(tmp_path):
    def edit(doc):
        for meter in doc["measurements"]:
            meter["delta"] = 1.7e308
        doc["demand_delta"] = [1.7e308] * len(doc["demand_delta"])

    meas = _demo("triangle_meas.json", edit)
    return ["bounds", TRIANGLE, _write(tmp_path, "meas.json", meas)]


def _classify_other_dimension(tmp_path):
    model = {
        "theta": 0.3,
        "gamma": [4.0, 4.0],
        "normalization": [[0.0, 1.0], [0.0, 1.0]],
        "labels": ["a"],
        "cells": [{"m": [0.1, 0.1], "M": [0.2, 0.2], "label": "a"}],
    }
    patterns = _patterns(tmp_path, [[0.0, 1.0]] * 3)
    return ["classify", _write(tmp_path, "classifier.json", model), patterns]


def _gen_overflowing_bound(tmp_path):
    meters = json.loads((DEMO_DIR / "scenario.json").read_text())["meters"]
    return _gen(tmp_path, meters=[dict(meter, delta=1.7e308) for meter in meters])


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (lambda tmp: _gen(tmp, counts={"leak@nope": 1}), "/counts/leak@nope"),
        (
            lambda tmp: _gen(
                tmp, meters=[{"kind": "pipe-flow", "target": "p9", "sigma": 0.01, "delta": 0.0}]
            ),
            "/meters/0/target",
        ),
        (_estimate_tiny_sigma, "/measurements/0/sigma"),
        (_classify_other_dimension, "/patterns/0/inf"),
        (lambda tmp: _train(tmp, [[0.0, 1.0], [0.0, 1.0]]), "/manifest/normalization"),
        (
            lambda tmp: _train(tmp, [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
            "/manifest/normalization/0",
        ),
        (
            lambda tmp: _train(tmp, [[float("nan"), 1.0], [0.0, 1.0], [0.0, 1.0]]),
            "/manifest/normalization/0/0",
        ),
        (_solve_huge_integer, "/pipes/0/resistance"),
        (lambda tmp: _gen(tmp, seed=-1), "/seed"),
        (_bounds_overflowing_bound, "/halfwidth"),
        # Every scenario's box overflows, so every scenario fails.
        (_gen_overflowing_bound, "/counts"),
    ],
    ids=[
        "unknown leak node", "unknown meter target", "sigma 1e-200", "dimension mismatch",
        "dropped range", "degenerate normalization", "NaN normalization", "huge integer",
        "negative seed", "overflowing bound", "gen overflowing bound",
    ],
)
def test_input_errors_are_located_json_errors(capsys, tmp_path, argv, pointer):
    code = main(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert set(doc) == {"error", "detail"}
    assert doc["detail"].startswith(pointer + ": "), doc
    assert captured.err == ""
    assert not (tmp_path / "model.json").exists()


def _stiff_pipe(tmp_path, command):
    """`command` on the one-pipe network with resistance 1e308, finite and
    so valid, with one flow meter for `estimate` and `bounds`."""
    net = _demo("single_pipe.json", lambda doc: doc["pipes"][0].update(resistance=1e308))
    argv = [command, _write(tmp_path, "net.json", net)]
    if command != "solve":
        meter = {"kind": "pipe-flow", "target": "p1", "value": 2.0, "sigma": 0.02}
        meas = {"version": 1, "demand_sigma": 0.1, "measurements": [meter]}
        argv.append(_write(tmp_path, "meas.json", meas))
    return argv


@pytest.mark.parametrize(
    "command, error, detail",
    [
        ("solve", "SingularSystem", "linear solve produced non-finite entries"),
        ("estimate", "RankDeficient", "weighted step produced non-finite entries"),
        ("bounds", "RankDeficient", "weighted step produced non-finite entries"),
    ],
)
def test_non_finite_step_is_json_error(capsys, tmp_path, command, error, detail):
    code = main(_stiff_pipe(tmp_path, command))
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out) == {"error": error, "detail": detail}
    assert captured.err == ""


def _estimate_demand_sigma(tmp_path, sigma):
    meas = _demo("triangle_meas.json", lambda doc: doc.update(demand_sigma=sigma))
    return ["estimate", TRIANGLE, _write(tmp_path, "meas.json", meas)]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: _estimate_demand_sigma(tmp, 1e200),
        lambda tmp: _gen(tmp, demand_sigma=1e200),
    ],
    ids=["estimate", "gen"],
)
def test_sigma_whose_square_overflows_is_located(capsys, tmp_path, argv):
    """1/sigma^2 rounds to 0 here; such a sigma used to reach the estimator
    as a zero row weight (RankDeficient, or every scenario failing)."""
    code, out = run(capsys, *argv(tmp_path))
    assert code == 1
    assert json.loads(out) == {
        "error": "ValidationError",
        "detail": "/demand_sigma: expected sigma with a finite weight 1/sigma^2, found 1e+200",
    }
    assert not (tmp_path / "p.json").exists()


def test_negative_seed_flag_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", TRIANGLE, SCENARIO, "--out", str(tmp_path / "p.json"), "--seed", "-3"])
    assert excinfo.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "k, kind, target, expected",
    [
        (0, "pipe-flow", "zz", "existing pipe id"),
        (2, "node-head", "r1", "existing demand node id"),
    ],
)
def test_unknown_measurement_target_is_located(capsys, tmp_path, k, kind, target, expected):
    meas = _demo(
        "triangle_meas.json", lambda doc: doc["measurements"][k].update(kind=kind, target=target)
    )
    code, out = run(capsys, "estimate", TRIANGLE, _write(tmp_path, "meas.json", meas))
    assert code == 1
    assert json.loads(out) == {
        "error": "ValidationError",
        "detail": f"/measurements/{k}/target: expected {expected}, found {target!r}",
    }


def _train_empty_box(tmp_path):
    patterns = _write(tmp_path, "patterns.json", [{"inf": [], "sup": [], "label": "a"}])
    return ["train", patterns, "--out", str(tmp_path / "model.json")]


@pytest.mark.parametrize(
    "argv, error, detail",
    [
        (_classify_other_dimension, "SchemaError", "/patterns/0/inf: expected 2 entries, found 3"),
        (_train_empty_box, "ValidationError",
         "/0/inf: expected at least one entry, found empty array"),
    ],
    ids=["model dimension", "empty box"],
)
def test_pattern_file_errors_point_into_the_pattern_file(capsys, tmp_path, argv, error, detail):
    code, out = run(capsys, *argv(tmp_path))
    assert code == 1
    assert json.loads(out) == {"error": error, "detail": detail}


@pytest.mark.parametrize(
    "text, error",
    [
        (None, "cannot read config file {path}: [Errno 2] No such file or directory"),
        ("{not json", "cannot read config file {path}: Expecting property name"),
        ("[1]", "config file {path} must hold a JSON object"),
    ],
    ids=["missing file", "invalid JSON", "non-object"],
)
def test_unusable_config_file_is_usage_error(capsys, tmp_path, text, error):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", SINGLE, "--config", str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith("hydrostate: error: " + error.format(path=path)), last


@pytest.mark.parametrize(
    "entries, detail",
    [
        ([], "pattern file holds no patterns"),
        ([{"inf": [0.1], "sup": [0.2]}], "training requires a label on every pattern"),
    ],
    ids=["no patterns", "unlabeled pattern"],
)
def test_train_needs_labeled_patterns(capsys, tmp_path, entries, detail):
    patterns = _write(tmp_path, "patterns.json", entries)
    model = tmp_path / "model.json"
    code, out = run(capsys, "train", patterns, "--out", str(model))
    assert code == 1
    assert json.loads(out) == {"error": "HydrostateError", "detail": detail}
    assert not model.exists()
