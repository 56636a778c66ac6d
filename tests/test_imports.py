"""Every module uses every name it imports.

A stdlib-only scan of the syntax trees under src/, tests/ and scripts/.
Package ``__init__.py`` files are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def unused_imports(source):
    """(line, name) for each imported name the module never mentions."""
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
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_scanner_finds_unused_names():
    source = "import os\nimport os.path as osp\nfrom math import gcd, lcm\nlcm(1, 2)\n"
    assert unused_imports(source) == [(1, "os"), (2, "osp"), (3, "gcd")]


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []
