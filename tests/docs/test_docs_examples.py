"""Execute every fenced Python block in README.md and docs/*.md.

Documentation that drifts from the code is worse than no documentation, so
this tier-1 check runs each document's ``python`` code fences top to bottom
in one shared namespace per file (later blocks may use names defined by
earlier ones, like a worked example).  Shell fences (```bash```) and plain
text fences are ignored here; ``test_doc_commands.py`` parses the CLI
commands they show.  Components a document registers are removed again
afterwards, so examples cannot leak into later tests.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: fenced blocks marked as python; the closing fence must start a line.
_PYTHON_FENCE = re.compile(r"```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _documents() -> list:
    documents = [REPO_ROOT / "README.md"]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in documents if path.exists()]


def _python_blocks(path: Path) -> list:
    return [match.group(1) for match in _PYTHON_FENCE.finditer(path.read_text())]


@contextmanager
def _registries_restored():
    """Snapshot every ``repro.experiment`` registry; restore it on exit."""
    from repro.experiment import PRESETS, registry

    registries = [value for value in vars(registry).values()
                  if isinstance(value, registry.Registry)]
    saved = [(reg, dict(reg._entries), dict(reg._display)) for reg in registries]
    presets = dict(PRESETS)
    try:
        yield
    finally:
        for reg, entries, display in saved:
            reg._entries.clear()
            reg._entries.update(entries)
            reg._display.clear()
            reg._display.update(display)
        PRESETS.clear()
        PRESETS.update(presets)


def test_registry_snapshot_undoes_registrations():
    from repro.experiment import MODELS

    with _registries_restored():
        MODELS.register("docs_leak_probe", lambda spec: None)
        assert "docs_leak_probe" in MODELS
    assert "docs_leak_probe" not in MODELS


def test_documentation_exists():
    """The README and the docs set shipped with the inference engine PR."""
    assert (REPO_ROOT / "README.md").exists()
    assert (REPO_ROOT / "docs" / "experiment_api.md").exists()
    assert (REPO_ROOT / "docs" / "architecture.md").exists()


def test_every_document_has_executable_examples():
    for path in _documents():
        assert _python_blocks(path), f"{path.name} has no ```python examples"


@pytest.mark.parametrize("path", _documents(), ids=lambda p: p.name)
def test_python_blocks_execute(path: Path):
    """Each document's python fences run top to bottom without errors."""
    blocks = _python_blocks(path)
    namespace: dict = {"__name__": f"docs_check_{path.stem}"}
    with _registries_restored():
        for index, block in enumerate(blocks):
            try:
                exec(compile(block, f"{path.name}#block{index + 1}", "exec"), namespace)
            except Exception as error:  # pragma: no cover - failure reporting
                pytest.fail(
                    f"{path.name} python block {index + 1} failed: "
                    f"{type(error).__name__}: {error}\n---\n{block}")
