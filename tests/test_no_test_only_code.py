"""Every top-level function and class in ``src/buslink`` has a caller
outside ``tests/``: code in ``src/`` itself or the benchmark in
``perfbench/``. A name counts as referenced where it is read as a name or
an attribute, imported, or spelled out in a (dotted) string literal, such
as the span names ``perfbench/spans.py`` traces. Reference oracles that
only tests call are listed below, each with its reason, and so is every
definition that the benchmark alone keeps: ``BENCHMARK_ONLY`` is what
ROADMAP item 2 deletes once perfbench reads the program's arrays."""

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
    "detect_events": "loop reference for the route pass's event detection; perfbench traces it "
                     "by name",
}

BENCHMARK_ONLY = {
    "backend_name": "perfbench writes the projection backend into its run record",
    "local_date_hour": "perfbench's set-up and gen.py split traversals at the cut date",
    "observations_from_traversal": "perfbench traces it by name",
    "project_traversal": "perfbench's set-up builds its streamed ProjectedPings with it",
    "repair_monotonic": "perfbench's set-up repairs its streamed ProjectedPings with it",
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


def names_read_in(paths) -> set:
    return set().union(*map(referenced_names, paths))


def test_no_code_only_tests_call():
    callers = entry_points() | names_read_in([*PACKAGE.glob("*.py"),
                                              *(ROOT / "perfbench").glob("*.py")])
    unused = [f"{module}.{name}" for module, name in top_level_definitions()
              if name not in callers and name not in ORACLES]
    assert unused == [], "no caller in src/ or perfbench/: " + ", ".join(unused)


def test_every_oracle_exists():
    defined = {name for _, name in top_level_definitions()}
    assert set(ORACLES) <= defined


def test_benchmark_only_code_is_listed():
    """A definition whose one caller outside ``tests/`` is perfbench is in
    BENCHMARK_ONLY, and no listed name has a caller in ``src/``."""
    in_src = entry_points() | names_read_in(PACKAGE.glob("*.py"))
    in_bench = names_read_in((ROOT / "perfbench").glob("*.py"))
    defined = {name for _, name in top_level_definitions()}
    only_bench = {name for name in defined - in_src - set(ORACLES) if name in in_bench}
    assert sorted(only_bench - set(BENCHMARK_ONLY)) == [], "perfbench alone calls these"
    assert sorted(set(BENCHMARK_ONLY) & in_src) == [], "src/ calls these"
    assert set(BENCHMARK_ONLY) <= only_bench, "not defined, or not called by perfbench"
