"""The README's library quick tour and CLI block run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from lmsql.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_tour_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.DOTALL).group(1)
    expected = [line[len("# "):] for line in code.splitlines() if line.startswith("# [")]
    monkeypatch.chdir(ROOT)  # the tour's paths are relative to the repository root
    exec(compile(code, "README.md", "exec"), {})
    assert expected and capsys.readouterr().out.splitlines() == expected


def readme_cli_commands() -> list:
    """The argument lists of the `lmsql` commands in the README's CLI block,
    split as a POSIX shell splits them."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.DOTALL).group(1)
    commands = []
    for word in shlex.split(block.replace("\\\n", ""), comments=True):
        if word == "lmsql":
            commands.append([])
        else:
            commands[-1].append(word)
    return commands


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    (tmp_path / "tests").symlink_to(ROOT / "tests")
    monkeypatch.chdir(tmp_path)  # the block's results.jsonl lands here
    commands = readme_cli_commands()
    assert [argv[0] for argv in commands] == ["parse", "exec", "exec", "run", "eval", "repl"]
    for argv in commands[:-1]:  # repl waits for input
        assert main(argv) == 0, argv
