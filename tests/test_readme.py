"""The README's examples run as written.

Every `cfkit ...` line in a fenced block of the README goes through
`cli.main` and must exit 0; the Library snippet is executed.
"""

import re
import shlex
from pathlib import Path

import pytest

from cfkit import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)
COMMANDS = [
    line for _, body in BLOCKS for line in body.splitlines() if line.startswith("cfkit ")
]


def test_the_readme_shows_commands_and_one_library_snippet():
    assert len(COMMANDS) >= 10
    assert [lang for lang, _ in BLOCKS].count("python") == 1


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero(line, capsys):
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.out and not captured.err


def test_readme_library_snippet_runs():
    (snippet,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(snippet, "README.md", "exec"), {})
