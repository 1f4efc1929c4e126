"""The README's library example and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

from dirac_obstruction.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# every subcommand; cover and flow read input files shipped under tests/data,
# named relative to the repository root, and the verify example elides its JSON
RUNNABLE = {"spectrum", "kernel-dim", "cohomology", "cover", "verify", "flow"}
ELIDED_JSON = "{ ... verdict JSON ... }\n"


def test_readme_python_block_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("value,multiplicity\n")


def test_readme_cli_examples_print_what_they_show(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    ran = set()
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        command, _, expected = block.replace("\\\n", "").partition("\n")
        argv = shlex.split(command)
        if argv[:2] != ["$", "dirac-obstruction"] or argv[2] not in RUNNABLE:
            continue
        ran.add(argv[2])
        assert main(argv[2:]) == 0, command
        out = capsys.readouterr().out
        if expected.endswith(ELIDED_JSON):
            table = expected[: -len(ELIDED_JSON)]
            assert out.startswith(table), command
            json.loads(out[len(table):])
        else:
            assert out == expected, command
    assert ran == RUNNABLE
