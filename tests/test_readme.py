"""README's examples, run as written.

Every `sascone` line of the "Command line" block goes through `cli.main`
and must exit 0; a line indented under it is the stdout it shows. Each
line of the "Library" block with a trailing comment is an expression and
its shown result, the value's repr or str.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

import sascone.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> list[str]:
    """The lines of the first fenced block under `heading`."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(f"\n{heading}\n"):]
    rest = rest[rest.index("\n", rest.index("```")) + 1:]
    return rest[: rest.index("```")].splitlines()


def _commands() -> list[list]:
    """[argv, shown stdout or None] for each `sascone` line of the command-line block."""
    commands: list[list] = []
    for line in _block("## Command line"):
        if line.startswith("sascone "):
            commands.append([shlex.split(line)[1:], None])
        elif line.startswith("    "):
            commands[-1][1] = (commands[-1][1] or "") + line[4:] + "\n"
    return commands


COMMANDS = _commands()


def test_command_line_block_shows_two_outputs():
    assert len(COMMANDS) == 9
    assert sum(shown is not None for _, shown in COMMANDS) == 2


@pytest.mark.parametrize("argv, shown", COMMANDS, ids=[argv[0] for argv, _ in COMMANDS])
def test_command_line_example_exits_0(argv, shown):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    if shown is not None:
        assert stdout.getvalue() == shown


def test_library_example_shows_its_results():
    namespace: dict = {}
    shown = 0
    for line in _block("## Library"):
        code, _, comment = line.partition("#")
        if comment.strip():
            value = eval(code, namespace)
            assert comment.strip() in (repr(value), str(value)), line
            shown += 1
        elif code.strip():
            exec(code, namespace)
    assert shown == 4
