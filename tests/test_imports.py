"""Every module uses every name it imports, and every package function
and method other than a dunder has a user outside the tests.

A stdlib-only scan of the syntax trees under src/, tests/ and scripts/.
Package ``__init__.py`` files are skipped: their imports are re-exports.
Importing the CLI must also leave the slow ``dataclasses`` and
``inspect`` modules unloaded, and the package's ``lru_cache`` functions
are pinned by name.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import blockforge
from blockforge.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")
PACKAGE = ROOT / "src" / "blockforge"


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


def test_cli_import_skips_dataclasses_inspect_fractions_and_decimal():
    # all four are slow to import (inspect pulls in ast, dis and tokenize,
    # fractions pulls in decimal), and the package uses none of them
    slow = "{'dataclasses', 'inspect', 'fractions', 'decimal'}"
    probe = f"import sys, blockforge.cli; print(sorted({slow} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "[]"


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


def _mentions(node, attributes_only=False):
    """How often each name is mentioned under node, as a bare name or as
    an attribute (``module.name``); only as an attribute if asked."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or (isinstance(n, ast.Name) and not attributes_only)
    )


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, node) for each module-level function, and ("Class.method",
    node) for each method of a module-level class, public or private,
    that is not a dunder."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not _is_dunder(method.name):
                    yield f"{node.name}.{method.name}", method


def unreferenced_functions(package, users, exported):
    """(module, name) for each module-level function and non-dunder
    method of the package sources that no user source mentions outside
    its own body and that is not exported.  A method counts as mentioned
    wherever its name is read as an attribute (``x.name``), as the scan
    cannot tell receivers apart; a bare name of the same spelling, such
    as a module function or a parameter, does not count for it.

    package and users map a module label to its source; the package
    sources are users too."""
    trees = {label: ast.parse(src) for label, src in {**users, **package}.items()}
    mentioned = {
        method: sum((_mentions(tree, method) for tree in trees.values()), Counter())
        for method in (False, True)
    }
    found = []
    for label in package:
        for name, node in _definitions(trees[label]):
            method = "." in name
            outside = mentioned[method][node.name] - _mentions(node, method)[node.name]
            if outside <= 0 and name not in exported:
                found.append((label, name))
    return sorted(found)


def test_function_scanner_finds_unreferenced_functions():
    package = {
        "m": "def used():\n    pass\n\ndef recursive():\n    return recursive()\n"
        "\ndef main():\n    used()\n",
        "n": "import m\n\ndef helper():\n    return m.used\n",
        "k": "class K:\n    def __init__(self):\n        self.run()\n"
        "\n    def run(self):\n        pass\n\n    def idle(self):\n"
        "        return self.idle()\n\n    def helper(self):\n        pass\n"
        "\n    def _spare(self):\n        pass\n"
        "\n    def __len__(self):\n        return 0\n",
    }
    # the private method _spare is flagged; the dunder __len__ is not
    assert unreferenced_functions(package, {}, {"main"}) == [
        ("k", "K._spare"),
        ("k", "K.helper"),
        ("k", "K.idle"),
        ("m", "recursive"),
        ("n", "helper"),
    ]
    # the bare call helper() uses the function n.helper, not the method
    # K.helper, which no one reads as an attribute
    users = {"script": "from n import helper\nhelper()\nK().idle()\n"}
    assert unreferenced_functions(package, users, {"main"}) == [
        ("k", "K._spare"),
        ("k", "K.helper"),
        ("m", "recursive"),
    ]


def test_every_package_function_has_a_user():
    package = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    users = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "scripts").rglob("*.py"))
    }
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    entry_points = set(re.findall(r'"blockforge\.[\w.]+:(\w+)"', pyproject))
    assert entry_points == {"main"}
    exported = set(blockforge.__all__) | entry_points
    assert unreferenced_functions(package, users, exported) == []


# The unused-method scan above cannot tell receivers apart, so a method
# whose name another package class also defines counts as used wherever
# either one is read (``x.name()``): an uncalled one is never flagged.
# These are the names it cannot judge; there are none.  A new shared
# name fails here until each of its definitions has been checked for a
# caller by hand.
SHARED_METHOD_NAMES = set()


def test_method_names_shared_between_classes_are_pinned():
    defined = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(
            name.split(".")[1] for name, _ in _definitions(tree) if "." in name
        )
    assert {name for name, count in defined.items() if count > 1} == SHARED_METHOD_NAMES


# Every module-level function the package memoizes with ``lru_cache``.
# The census of caches in ROADMAP.md counts these: a change that adds or
# drops one fails here until it updates this set and that census.
# ``cli.build_parser`` keeps the one argument parser; the rest hold data.
CACHED_FUNCTIONS = {
    "blocks.block_data",
    "catalog._index",
    "chartab.character_action",
    "chartab.character_table",
    "chartab.normal_class_sets",
    "chartab.restriction_multiplicities",
    "cli.build_parser",
    "cyclotomic.cyclotomic_polynomial",
    "finitefield.build_reduction",
    "groupfile.parse_group_text",
    "modular.modular_data",
    "permgroup.centralizer",
    "permgroup.group_from_elements",
    "permgroup.normal_closure",
    "permgroup.normalizer",
    "permgroup.sylow_subgroup",
    "report._section",
}


def cached_functions(label, source):
    """module.name for each module-level function decorated with
    ``lru_cache``, called or bare, by name or through ``functools``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if _mentions(target)["lru_cache"]:
                    yield f"{label}.{node.name}"


def test_cache_scanner_finds_decorated_functions():
    source = (
        "import functools\nfrom functools import lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef a():\n    pass\n\n"
        "@lru_cache\ndef b():\n    pass\n\n"
        "@functools.lru_cache(maxsize=1)\ndef c():\n    pass\n\n"
        "@staticmethod\ndef d():\n    return lru_cache(maxsize=None)(d)\n\n"
        "class K:\n    @lru_cache\n    def e(self):\n        pass\n"
    )
    # d only builds a cache inside its body, and e is a method
    assert list(cached_functions("m", source)) == ["m.a", "m.b", "m.c"]


def test_package_caches_are_pinned():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found.update(cached_functions(path.stem, path.read_text(encoding="utf-8")))
    assert found == CACHED_FUNCTIONS


def test_clear_caches_empties_every_pinned_cache():
    # a full verify run fills the caches of every layer and the parser
    blockforge.clear_caches()
    assert main(["verify", "all", "catalog:S4", "-p", "2"]) == 0
    caches = {}
    for name in CACHED_FUNCTIONS:
        module, function = name.split(".")
        caches[name] = getattr(importlib.import_module(f"blockforge.{module}"), function)
    assert caches["report._section"].cache_info().currsize == 7
    blockforge.clear_caches()
    left = {name: f.cache_info().currsize for name, f in caches.items()}
    assert left == dict.fromkeys(CACHED_FUNCTIONS, 0)
