"""The Python blocks and the ``pshchain`` examples of README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from pshchain import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
#: Each ``pshchain`` command line of the shell blocks, continuation lines joined.
EXAMPLES = [line for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.MULTILINE | re.DOTALL)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("pshchain ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_has_cli_examples():
    assert EXAMPLES


@pytest.mark.parametrize("line", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_cli_example_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write their outputs here
    assert cli.main(shlex.split(line)[1:]) == 0
