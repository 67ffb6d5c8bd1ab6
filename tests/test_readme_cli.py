"""Every command of README's `## CLI` block runs as written.

The block is read from README.md itself, so a renamed or removed flag fails
here before a reader copies the command.
"""

import shlex
from pathlib import Path

import pytest

from qsymlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The commands of the first code block after `## CLI`, one per entry,
    with backslash-continued lines joined."""
    text = README.read_text().split("\n## CLI\n", 1)[1]
    block = text.split("```\n", 2)[1]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


COMMANDS = readme_commands()


def test_the_block_lists_every_command():
    assert [shlex.split(c)[1] for c in COMMANDS] == ["zoo", "compile-run", "distinguish", "verify"]


@pytest.mark.parametrize("command", COMMANDS, ids=[shlex.split(c)[1] for c in COMMANDS])
def test_command_runs_and_writes_what_it_names(tmp_path, monkeypatch, capsys, command):
    program, *argv = shlex.split(command)
    assert program == "qsymlab"
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    named = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--csv")]
    for name in named:
        assert (tmp_path / name).stat().st_size > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(named)
    if "--out" not in argv:  # the report, listing or check lines go to stdout
        assert capsys.readouterr().out
