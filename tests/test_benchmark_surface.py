"""The program surface the benchmark in ``perfbench/`` reads.

``perfbench/spans.py`` re-binds functions by dotted name and
``perfbench/bench.py`` calls the program through its modules, so a rename
there would otherwise show only in the benchmark's own smoke run. The
perfbench files are only read here."""

import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from buslink import inference, ingest

from test_geometry import lat_at, lon_at, network_with

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted: str):
    module_name, _, attr_path = dotted.partition(".")
    owner = importlib.import_module("buslink." + module_name)
    for attr in attr_path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_traced_name_resolves():
    names = [name for name, _hook in perfbench_spans().SPANS]
    assert len(names) == len(set(names)) == 38
    for name in names:
        assert callable(resolve(name)), name


@pytest.mark.parametrize("script", ["bench.py", "gen.py"])
def test_every_module_attribute_the_benchmark_reads_exists(script):
    text = (PERFBENCH / script).read_text(encoding="utf-8")
    uses = set(re.findall(r"\b(accel|geometry|inference|ingest|markov|pipeline|store|synth)"
                          r"\.([A-Za-z_]\w*)", text))
    assert uses
    for module_name, attr in sorted(uses):
        assert hasattr(importlib.import_module("buslink." + module_name), attr), \
            f"{module_name}.{attr}"


def test_ping_fields_the_benchmark_reads(tmp_path):
    path = tmp_path / "pings.csv"
    arcs = [5.0, 40.0, 30.0, 90.0]  # the third regresses past the tolerance
    path.write_text("".join(f"T1,V1,{100 + 10 * k},{lat_at(0.0)!r},{lon_at(a)!r}\n"
                            for k, a in enumerate(arcs)) + "T2,V1,0,29.65,-82.33\n",
                    encoding="utf-8")
    series = ingest.load_pings(path)
    assert len(series.records) == 5
    trav = series.segments[0]
    assert (trav.trip_id, trav.pings[0].timestamp) == ("T1", 100)
    assert isinstance(trav.pings[0].timestamp, int)

    net, xs = network_with([0.0, 100.0], [])
    rm = resolve("geometry.build_route_model")(net, xs, ("R", 0))
    pps = inference.repair_monotonic(inference.project_traversal(trav, rm), 5.0)
    assert [p.timestamp for p in pps] == [100.0, 110.0, 130.0]
    np.testing.assert_allclose([p.arc_pos for p in pps], [5.0, 40.0, 90.0], atol=1e-6)
