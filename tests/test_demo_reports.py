"""The CLI reports on the demo inputs, and the files `gen` and `train`
write, pinned against expected files: keys, ids, order, CSV headers and
text fields exactly, numbers to 1e-12, so that a CPU that rounds the last
digits differently still passes.

`gen` writes the pattern file that `demo/run_demo.py` writes, so that file
is pinned by `demo/out/patterns.json`. After a change meant to move the
reports, write the expected files again with

    PYTHONPATH=src:tests python tests/test_demo_reports.py
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hydrostate.cli import main

from conftest import DEMO_DIR

EXPECTED = Path(__file__).resolve().parent / "data" / "demo_reports"
TOLERANCE = 1e-12

TRIANGLE = str(DEMO_DIR / "triangle.json")
MEASUREMENTS = str(DEMO_DIR / "triangle_meas.json")
# In run order: `train` reads what `gen` writes, `classify` what `train` writes.
COMMANDS = {
    "solve_single_pipe": ["solve", str(DEMO_DIR / "single_pipe.json")],
    "solve_triangle": ["solve", TRIANGLE],
    "estimate": ["estimate", TRIANGLE, MEASUREMENTS],
    "bounds": ["bounds", TRIANGLE, MEASUREMENTS],
    "gen": ["gen", TRIANGLE, str(DEMO_DIR / "scenario.json"), "--out", "patterns.json"],
    "train": ["train", "patterns.json", "--out", "model.json"],
    "classify": ["classify", "model.json", "patterns.json"],
}


def _reports() -> dict[str, str]:
    """Report file name -> text, for every command in JSON and in CSV, run
    in the working directory."""
    reports = {}
    for fmt in ("json", "csv"):
        for name, argv in COMMANDS.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([*argv, "--format", fmt])
            assert code == 0, (name, fmt, out.getvalue())
            reports[f"{name}.{fmt}"] = out.getvalue()
    return reports


def _assert_same_json(got, want, where=""):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got)
        for key in want:
            _assert_same_json(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got)
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_json(g, w, f"{where}/{i}")
    elif isinstance(want, float):
        assert isinstance(got, float), (where, got)
        assert math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return not text.lstrip("-").isdigit()


def _assert_same_csv(got: str, want: str, where: str):
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    assert got_rows[0] == want_rows[0], where
    assert len(got_rows) == len(want_rows), where
    for k, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        assert len(g_row) == len(w_row), (where, k)
        for g, w in zip(g_row, w_row):
            if g != w:
                assert _is_float_text(g) and _is_float_text(w), (where, k, g, w)
                assert math.isclose(float(g), float(w), rel_tol=TOLERANCE, abs_tol=TOLERANCE), (
                    where, k, g, w,
                )


def test_demo_reports_match_the_expected_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reports = _reports()
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted([*reports, "model.json"])
    for name, text in reports.items():
        want = (EXPECTED / name).read_text(encoding="utf-8")
        if name.endswith(".csv"):
            _assert_same_csv(text, want, name)
        else:
            _assert_same_json(json.loads(text), json.loads(want), name)

    written = {"patterns.json": DEMO_DIR / "out", "model.json": EXPECTED}
    for name, folder in written.items():
        got = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        _assert_same_json(got, json.loads((folder / name).read_text(encoding="utf-8")), name)


if __name__ == "__main__":
    EXPECTED.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, text in _reports().items():
            (EXPECTED / name).write_text(text, encoding="utf-8")
        (EXPECTED / "model.json").write_text(Path("model.json").read_text(encoding="utf-8"))
