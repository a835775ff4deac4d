"""Every ``python -m repro ...`` command the docs show must still parse.

The docs runner executes the ```python fences only; the CLI commands in the
```bash fences of README.md and docs/*.md would rot silently when a flag or
subcommand goes away.  Each command here (``\\`` continuations joined, shell
comments dropped) goes through ``build_parser().parse_args()`` — parsing
only, nothing executes.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parents[2]

_BASH_FENCE = re.compile(r"```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "2>", "2>&1"}


def _logical_lines(text: str):
    """``(line number, line)`` of each bash-fence line, ``\\`` continuations joined."""
    for fence in _BASH_FENCE.finditer(text):
        number = text.count("\n", 0, fence.start(1)) + 1
        pending, start = "", number
        for line in fence.group(1).splitlines():
            if not pending:
                start = number
            number += 1
            if line.endswith("\\"):
                pending += line[:-1] + " "
                continue
            yield start, pending + line
            pending = ""


def _commands() -> list:
    """``(location, argv)`` for every repro invocation in a bash fence."""
    documents = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    commands = []
    for path in documents:
        for number, line in _logical_lines(path.read_text()):
            tokens = shlex.split(line, comments=True)
            for start in range(len(tokens) - 2):
                if tokens[start + 1:start + 3] == ["-m", "repro"]:
                    argv = []
                    for token in tokens[start + 3:]:
                        if token in _SHELL_OPERATORS:
                            break
                        argv.append(token)
                    commands.append((f"{path.name}:{number}", argv))
                    break
    return commands


def test_docs_show_repro_commands():
    locations = {location.split(":")[0] for location, _ in _commands()}
    assert {"README.md", "backends.md", "training.md"} <= locations


@pytest.mark.parametrize("location,argv", _commands(),
                         ids=lambda value: value if isinstance(value, str) else " ".join(value))
def test_doc_command_parses(location, argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as error:
        pytest.fail(f"{location}: 'python -m repro {' '.join(argv)}' no longer parses "
                    f"(exit {error.code})")
