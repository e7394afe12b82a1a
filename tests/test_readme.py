"""The README's library quick start and CLI examples run as written
against this package."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qdeform
from qdeform.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    src = str(Path(qdeform.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _cli_examples():
    """Each `qdeform ...` line of the README's sh blocks, continuations joined."""
    text = README.read_text(encoding="utf-8")
    lines = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in lines.splitlines()
            if line.startswith("qdeform ")]


def _csv_schemas():
    """The README's CSV schema list: subcommand -> header columns."""
    text = README.read_text(encoding="utf-8")
    schemas = re.findall(r"^\* `(\w+)`: `([\w,]+)`", text, re.M)
    return {command: columns.split(",") for command, columns in schemas}


def test_cli_examples_cover_every_subcommand():
    assert {argv[0] for argv in _cli_examples()} == set(_csv_schemas()) \
        == {"state", "fisher", "qsnr", "benchmark"}


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_cli_example_runs(argv, capsys):
    """Each example exits 0 with strict JSON or a CSV with the README's
    header; a JSON example run again as CSV checks its command's schema."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    if "--format" not in argv:
        json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON {name}"))
        code = main([*argv, "--format", "csv"])
        out, err = capsys.readouterr()
        assert code == 0, err
    assert out.split("\n", 1)[0].split(",") == _csv_schemas()[argv[0]]
