"""The README's Library example runs as written, from the repo root."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs(monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["report"].converged
