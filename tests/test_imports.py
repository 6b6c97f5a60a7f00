"""Every module under src/dpsketch and tests uses each name it imports.

No linter runs on this code, so an import left behind by a removal would
stay unnoticed.  `from __future__` imports are exempt, and so is the
package's __init__.py, whose imports are its public re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpsketch"
MODULES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport os.path\nfrom math import inf, pi\n"
              "print(os.sep, pi)\n")
    assert unused_imports(source) == ["json (line 2)", "inf (line 4)"]
