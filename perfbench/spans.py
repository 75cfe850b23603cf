"""Spans traced from outside the program.

``install`` re-binds each listed function to a timing wrapper in every
``buslink`` module namespace that holds it (``from .x import f`` copies
the reference), and each listed method on its class. The program
itself is not changed. A wrapper adds its duration to its caller's
child time, so a span's self time is its duration minus that of the
spans it called. Spans and counts are kept in memory, summed per stage
(the benchmark operation running at the time).

Import this module after putting ``src`` on ``sys.path``.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

from buslink.errors import InferenceError


def _count_pings(tracer, args, result):
    tracer.count("ingest.pings_parsed", len(result.records))
    tracer.count("ingest.traversals", len(result.segments))


def _count_projection(tracer, args, result):
    n_points, n_segments = len(args[0]), len(args[2]) - 1
    tracer.count("geometry.points_projected", n_points)
    tracer.count("geometry.segment_tests", n_points * n_segments)


def _count_observations(tracer, args, result):
    observations, skips = result
    tracer.count("inference.observations", len(observations))
    tracer.count("inference.skipped", len(skips))


def _count_repair(tracer, args, result):
    tracer.count("inference.pings_dropped", len(args[0]) - len(result))


def _count_file_bytes(tracer, args, result):
    tracer.count("store.observation_bytes", os.path.getsize(args[0]))


def _count_simulation(tracer, args, result):
    plans, config = args[0], args[1]
    n_intersections = sum(len(p.intersections) for p in plans)
    tracer.count("markov.emissions", 1)
    tracer.count("markov.variates", int(config.runs) * (2 * len(plans) + n_intersections))


# (module.function or module.Class.method, hook on a normal return)
SPANS = (
    ("ingest.load_pings", _count_pings),
    ("ingest.load_gtfs_static", None),
    ("ingest.load_weather", None),
    ("ingest.load_intersections", None),
    ("geometry.project_many", None),
    ("accel.project_onto_polyline", _count_projection),
    ("geometry.build_route_model", None),
    ("inference.observations_from_traversal", _count_observations),
    ("inference.project_traversal", None),
    ("inference.repair_monotonic", _count_repair),
    ("inference.detect_events", None),
    ("inference._open_road_speeds", None),
    ("inference.open_road_link_of", None),
    ("inference.build_covariates", None),
    ("store.write_observations", _count_file_bytes),
    ("store.read_observations", _count_file_bytes),
    ("store.write_store", None),
    ("store.read_store", None),
    ("hetlognorm.fit", None),
    ("hetlognorm.predict_point", None),
    ("components.fit_dwell", None),
    ("components.fit_intersection", None),
    ("stats.ks_lognormal", None),
    ("stats.breusch_pagan", None),
    ("stats.runs_test", None),
    ("evaluation.evaluate_split", None),
    ("evaluation.lr_fit", None),
    ("evaluation.hm_fit", None),
    ("markov.build_plan", None),
    ("markov.simulate", _count_simulation),
    ("accel.markov_offsets", None),
    ("markov.PredictionSession.update", None),
    ("pipeline.run_infer", None),
    ("pipeline.run_fit", None),
    ("pipeline.run_validate", None),
    ("pipeline.run_evaluate", None),
    ("pipeline.run_simulate", None),
    ("pipeline.fit_all", None),
)

COUNTS = ("ingest.pings_parsed", "ingest.traversals", "geometry.points_projected",
          "geometry.segment_tests", "inference.observations", "inference.skipped",
          "inference.pings_dropped", "store.observation_bytes", "markov.emissions",
          "markov.variates")

# run_infer skips a traversal whole when this raises InferenceError.
_SKIPPED_ON_RAISE = "inference.observations_from_traversal"


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self.spans: dict = {}  # (stage, span) -> [self seconds, calls]
        self.counts: dict = {}  # (stage, count) -> value
        self._child = []  # per open span: seconds spent in its child spans

    def count(self, name: str, value) -> None:
        key = (self.stage, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except InferenceError:
                if name == _SKIPPED_ON_RAISE:
                    tracer.count("inference.skipped", 1)
                raise
            finally:
                elapsed = perf_counter() - t0
                child = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += elapsed
                rec = tracer.spans.setdefault((tracer.stage, name), [0.0, 0])
                rec[0] += elapsed - child
                rec[1] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def totals(self) -> dict:
        """Per-layer metrics summed over stages: ``<span>.self_s``,
        ``<span>.calls`` and every count, zero when never reached."""
        out = {}
        for name, _hook in SPANS:
            recs = [v for (_stage, span), v in self.spans.items() if span == name]
            out[f"{name}.self_s"] = sum(r[0] for r in recs)
            out[f"{name}.calls"] = sum(r[1] for r in recs)
        for name in COUNTS:
            out[name] = sum(v for (_stage, c), v in self.counts.items() if c == name)
        return out

    def by_stage(self) -> dict:
        out: dict = {}
        for (stage, span), (self_s, calls) in sorted(self.spans.items()):
            out.setdefault(stage, {})[span] = {"self_s": self_s, "calls": calls}
        for (stage, name), value in sorted(self.counts.items()):
            out.setdefault(stage, {})[name] = value
        return out


def install(tracer: Tracer):
    """Wrap every span; returns a function that restores the originals."""
    undo = []
    for name, _hook in SPANS:
        importlib.import_module("buslink." + name.partition(".")[0])
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "buslink" or n.startswith("buslink."))]
    for name, hook in SPANS:
        module_name, _, attr_path = name.partition(".")
        owner = sys.modules["buslink." + module_name]
        *classes, attr = attr_path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, hook)
        if classes:
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
