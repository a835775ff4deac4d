"""Every ``repro`` name the bench and example scripts import must exist.

CI runs only a few of the bench scripts, and ``compileall`` cannot see a name
that was deleted from the library.  This check reads each script with
``ast`` (it never runs one), imports every ``repro`` module it names and
asserts each imported name is there — including imports inside functions.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = sorted([*(REPO_ROOT / "benchmarks").glob("*.py"),
                  *(REPO_ROOT / "examples").glob("*.py")])


def _repro_imports(path: Path) -> list:
    """``(line, module, name or None)`` for each repro import in ``path``."""
    imports = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "repro":
            imports.extend((node.lineno, node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            imports.extend((node.lineno, alias.name, None) for alias in node.names
                           if alias.name.split(".")[0] == "repro")
    return imports


def test_scripts_import_repro():
    assert sum(bool(_repro_imports(path)) for path in SCRIPTS) >= 20


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_script_imports_resolve(path: Path):
    missing = []
    for line, module_name, name in _repro_imports(path):
        try:
            module = importlib.import_module(module_name)
        except ImportError as error:
            missing.append(f"line {line}: import {module_name} failed: {error}")
            continue
        if name is not None and name != "*" and not hasattr(module, name):
            try:            # ``from repro import nn`` names a submodule
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                missing.append(f"line {line}: {module_name} has no name '{name}'")
    assert not missing, f"{path.name}: " + "; ".join(missing)
