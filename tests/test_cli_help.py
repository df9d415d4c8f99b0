"""Pinned ``--help`` texts: the parser declares the options it declared.

``cli_help.json`` maps each command ("" for the top level) to the text
that ``graphcon [command] --help`` prints at 80 columns. Regenerate it,
only when the interface is meant to change, with

    PYTHONPATH=src python tests/test_cli_help.py --write
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from graphcon.cli import main

DATA = Path(__file__).with_name("cli_help.json")
COMMANDS = ["", "analyze", "solve", "oracle", "gallery", "crosscheck"]


def _help(command):
    """What ``main([command, "--help"])`` prints; it must exit with 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    assert exit_.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_text_unchanged(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert _help(command) == json.loads(DATA.read_text())[command]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ["COLUMNS"] = "80"
    DATA.write_text(json.dumps({c: _help(c) for c in COMMANDS}, indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} help texts to {DATA}")
