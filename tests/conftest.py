import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from buslink import synth
from buslink.geometry import RouteModel, build_route_model, project_many
from buslink.hetlognorm import COVARIATE_COUNT, design_matrix
from buslink.inference import observations_from_traversal
from buslink.ingest import (load_gtfs_static, load_intersections, load_pings,
                            load_weather)
from buslink.pipeline import RunConfig, covariates_for
from buslink.store import ObservationTable, read_observations, write_observations

# ``--hypothesis-profile ci``: the CI rerun of some property tests with the
# profile's number of examples, the same examples on every run.
settings.register_profile("ci", derandomize=True, max_examples=1000)


def examples(n: int) -> int:
    """``n`` examples, or the loaded profile's number when a profile such as
    ``ci`` is loaded: a property test that pins its count still takes the
    profile's."""
    default = settings.default
    return n if default is settings.get_profile("default") else default.max_examples

# Five-link truth used by the end-to-end and acceptance tests. Chosen so that
# every covariate combination stays inside the kinematically realizable road
# time window (see synth.validate_truth).
TRUTH = {
    "route_id": "R1", "direction_id": 0, "n_days": 59, "slots_per_day": 60,
    "seed": 11,
    "links": [
        {"length": 700.0, "beta": [4.05, 0.05, 0.10, 0.04, 0.70],
         "gamma": [-4.4, 0.0, 0.2, 0.0, 0.9],
         "dwell_pool": [5.0, 5.0, 12.0, 20.0, 30.0], "intersections": []},
        {"length": 850.0, "beta": [4.20, 0.03, 0.07, 0.05, 0.68],
         "gamma": [-4.5, 0.15, 0.0, -0.2, 1.0],
         "dwell_pool": [5.0, 8.0, 15.0, 25.0],
         "intersections": [{"id": "X1", "offset": 425.0, "mu": 2.8, "sigma": 0.35}]},
        {"length": 600.0, "beta": [3.89, 0.06, 0.09, 0.03, 0.75],
         "gamma": [-4.3, 0.0, 0.15, 0.0, 0.8],
         "dwell_pool": [5.0, 10.0, 18.0], "intersections": []},
        {"length": 950.0, "beta": [4.33, 0.02, 0.06, 0.02, 0.66],
         "gamma": [-4.5, 0.0, 0.2, 0.0, 1.0],
         "dwell_pool": [5.0, 5.0, 9.0, 22.0, 35.0],
         "intersections": [{"id": "X2", "offset": 470.0, "mu": 2.6, "sigma": 0.4}]},
        {"length": 750.0, "beta": [4.12, 0.04, 0.08, 0.05, 0.72],
         "gamma": [-4.4, 0.2, 0.0, -0.15, 0.9],
         "dwell_pool": [5.0, 7.0, 14.0, 26.0], "intersections": []},
    ],
}

CUT_DATE = "2023-10-09"
TZ = -5.0

# Small two-link truth for fast CLI round trips.
SMALL_TRUTH = {
    "route_id": "R1", "direction_id": 0, "n_days": 6, "slots_per_day": 10,
    "seed": 3,
    "links": [
        {"length": 700.0, "beta": [4.05, 0.05, 0.10, 0.04, 0.70],
         "gamma": [-4.4, 0.0, 0.2, 0.0, 0.9],
         "dwell_pool": [5.0, 5.0, 12.0, 20.0, 30.0], "intersections": []},
        {"length": 850.0, "beta": [4.20, 0.03, 0.07, 0.05, 0.68],
         "gamma": [-4.5, 0.15, 0.0, -0.2, 1.0],
         "dwell_pool": [5.0, 8.0, 15.0, 25.0],
         "intersections": [{"id": "X1", "offset": 425.0, "mu": 2.8, "sigma": 0.35}]},
    ],
}


def write_truth(path: Path, truth: dict) -> Path:
    path.write_text(json.dumps(truth, indent=1), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """Full synthetic corpus: paths plus loaded inputs and the route model."""
    root = tmp_path_factory.mktemp("corpus")
    spec = synth.load_truth(write_truth(root / "truth.json", TRUTH))
    paths = synth.generate_corpus(spec, root)
    net = load_gtfs_static(paths.gtfs_dir)
    xs = load_intersections(paths.intersections)
    weather = load_weather(paths.weather)
    series = load_pings(paths.pings)
    rm = build_route_model(net, xs, (TRUTH["route_id"], TRUTH["direction_id"]))
    return {"spec": spec, "paths": paths, "net": net, "xs": xs,
            "weather": weather, "series": series, "rm": rm}


def table_of(rows) -> ObservationTable:
    """The ``ObservationTable`` of ``LinkObservation`` rows, in their order."""
    route_keys = sorted({o.route_key for o in rows})
    xs = [(i, *x) for i, o in enumerate(rows) for x in o.intersection_times]
    x_ids = sorted({x[1] for x in xs})

    def column(values, dtype=float):
        return np.array(list(values), dtype=dtype)

    return ObservationTable(
        route_keys=route_keys, route=column((route_keys.index(o.route_key) for o in rows), int),
        link=column((o.link_index for o in rows), int),
        depart_prev=column(o.depart_prev for o in rows), total=column(o.total_time for o in rows),
        dwell=column(o.dwell_time for o in rows), road=column(o.road_time for o in rows),
        covariates=column(o.covariates for o in rows).reshape(-1, 4),
        flags=[";".join(o.flags) for o in rows], x_ids=x_ids,
        x_row=column((x[0] for x in xs), int), x_id=column((x_ids.index(x[1]) for x in xs), int),
        x_secs=column(x[2] for x in xs), x_interp=column((x[3] for x in xs), bool))


def observation_line(obs) -> str:
    """One observation-file line of a ``LinkObservation``, field by field:
    the reference for ``store.write_observations``."""
    xs = ";".join(f"{xid}={secs!r}" for xid, secs, _ in obs.intersection_times)
    return ",".join([obs.route_key[0], str(obs.route_key[1]), str(obs.link_index),
                     repr(float(obs.depart_prev)), repr(float(obs.total_time)),
                     repr(float(obs.dwell_time)), repr(float(obs.road_time)), xs,
                     *map(str, obs.covariates), ";".join(obs.flags)])


def observation_table(path, rows):
    """The ``ObservationTable`` of ``rows``, written to ``path`` and read back."""
    write_observations(path, table_of(rows))
    return read_observations(path)


@pytest.fixture(scope="session")
def corpus_observations(corpus):
    observations = []
    skipped = []
    rm = corpus["rm"]
    cfg = RunConfig(tz_offset=TZ)
    covariates = covariates_for(cfg, corpus["weather"])
    for trav in corpus["series"].segments:
        arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
        obs, sk = observations_from_traversal(trav, arcs, rm, covariates,
                                              cfg.speed_threshold_by_link)
        observations.extend(obs)
        skipped.extend(sk)
    return observations, skipped


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_corpus")
    truth_path = write_truth(root / "truth.json", SMALL_TRUTH)
    spec = synth.load_truth(truth_path)
    paths = synth.generate_corpus(spec, root)
    return {"spec": spec, "paths": paths, "truth_path": truth_path}


def generate_synthetic(beta, gamma, n: int, covariate_law=None, seed: int = 0):
    """Draw (ys, X) from the heteroscedastic log-normal model; the oracle
    for consistency checks.

    ``covariate_law`` maps (rng, n) to an (n, 4) array; the default is four
    independent Bernoulli(0.5) columns. Same seed, same bits.
    """
    rng = np.random.default_rng(seed)
    if covariate_law is None:
        X = (rng.random((n, COVARIATE_COUNT)) < 0.5).astype(float)
    else:
        X = np.asarray(covariate_law(rng, n), dtype=float)
    Z = design_matrix(X)
    mu = Z @ np.asarray(beta, dtype=float)
    sd = np.exp(0.5 * (Z @ np.asarray(gamma, dtype=float)))
    ys = mu + sd * rng.standard_normal(n)
    return ys, X


@dataclass(frozen=True)
class Zone:
    kind: str  # "stop" | "intersection" | "road"
    feature_id: str | None = None
    arc: float | None = None


ROAD_ZONE = Zone(kind="road")


def feature_zone_test(rm: RouteModel, arc_pos: float) -> Zone:
    """Zone tag at an arc position: the unique feature within the buffer
    radius (boundary inclusive), else open road. The brute-force reference
    for ``inference.open_road_link_of``."""
    for kind, fid, arc in rm.features:
        if abs(arc_pos - arc) <= rm.buffer_radius:
            return Zone(kind=kind, feature_id=fid, arc=arc)
    return ROAD_ZONE


def link_scan(rm: RouteModel, arc_pos: float):
    """The 1-based link whose [start, end) arc interval holds the position,
    else None: a scan over the links, the brute-force reference for the
    link lookup ``bisect_right(rm.stop_arcs, arc)``."""
    return next((link.index for link in rm.links if link.start_arc <= arc_pos < link.end_arc),
                None)
