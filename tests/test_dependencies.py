"""``src/buslink`` imports only the standard library, numpy and itself.
numpy is the one dependency ``pyproject.toml`` declares; other packages
that happen to be installed (scipy, mpmath) must not come in unnoticed."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "buslink"}


def imported_packages(path: Path) -> set:
    """Top-level package of every absolute import in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_stdlib_numpy_and_itself():
    foreign = {f"{path.name}: {name}"
               for path in sorted((ROOT / "src" / "buslink").glob("*.py"))
               for name in imported_packages(path)
               if name not in sys.stdlib_module_names and name not in ALLOWED}
    assert foreign == set()


def test_numpy_is_the_one_declared_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
