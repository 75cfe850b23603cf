"""Every top-level function and class in ``src/buslink`` has a caller
outside ``tests/``: code in ``src/`` itself or the benchmark in
``perfbench/``. A name counts as referenced where it is read as a name or
an attribute, imported, or spelled out in a (dotted) string literal, such
as the span names ``perfbench/spans.py`` traces. Reference oracles that
only tests call are listed below, each with its reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "buslink"

ORACLES = {
    "_project_scalar": "loop reference for the projection kernel accel.project_onto_polyline",
    "_markov_scalar": "loop reference for the Markov kernel accel.markov_offsets",
    "markov_offsets": "Monte-Carlo oracle of the exact law markov.simulate; perfbench "
                      "traces it by name",
    "_open_road_speeds": "loop reference for the grouped minimum inference.slowest_speeds",
}

DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def top_level_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.stem, node.name


def entry_points() -> set:
    """``module:function`` targets of the console scripts."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return set(re.findall(r'"buslink\.\w+:(\w+)"', text))


def test_no_code_only_tests_call():
    callers = entry_points()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        callers |= referenced_names(path)
    unused = [f"{module}.{name}" for module, name in top_level_definitions()
              if name not in callers and name not in ORACLES]
    assert unused == [], "no caller in src/ or perfbench/: " + ", ".join(unused)


def test_every_oracle_exists():
    defined = {name for _, name in top_level_definitions()}
    assert set(ORACLES) <= defined
