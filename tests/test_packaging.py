"""Packaging contract: every runtime import is a declared dependency.

A module-level import of an undeclared third-party package makes a
clean ``pip install`` fail at import time, so the declared list in
``pyproject.toml`` must cover every top-level module ``src/repro``
imports from outside the standard library.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _declared_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml declares no [project] dependencies"
    names = re.findall(r"[\"']\s*([A-Za-z0-9_.\-]+)", block.group(1))
    return {n.lower().replace("-", "_") for n in names}


def _third_party_imports():
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in ("repro", "__future__"):
                    continue
                if top not in sys.stdlib_module_names:
                    found.setdefault(top, path.relative_to(ROOT).as_posix())
    return found


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="needs sys.stdlib_module_names (Python 3.10+)",
)
def test_every_third_party_import_is_declared():
    imports = _third_party_imports()
    assert "numpy" in imports  # the walk really sees the package
    declared = _declared_dependencies()
    missing = {m: where for m, where in imports.items() if m not in declared}
    assert not missing, f"undeclared runtime imports: {missing}"
