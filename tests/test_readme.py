"""The README's library quick tour runs and prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_tour_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    expected = [line[len("# "):] for line in code.splitlines() if line.startswith("# [")]
    monkeypatch.chdir(ROOT)  # the tour's paths are relative to the repository root
    exec(compile(code, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected
