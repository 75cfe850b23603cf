"""End-to-end drivers behind the CLI commands plus the run configuration.

A RunConfig comes from a ``key = value`` text file with CLI-flag
overrides on top (flags win). A file sets each key at most once, and
only keys some driver reads. Every driver is deterministic given its
inputs: ``simulate`` returns the chain's exact law and draws nothing.

``run_infer`` and the session of ``run_simulate`` share one covariate
rule, ``covariates_for(cfg, weather)``, and one threshold map,
``cfg.speed_threshold_by_link``, each built once per run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import evaluation, stats
from .components import (DEFAULT_MIN_COMPONENT_SAMPLES, fit_dwell, fit_intersection)
from .errors import BuslinkError, ConfigError, FitError
from .geometry import DEFAULT_BUFFER_RADIUS_M, DEFAULT_OFF_ROUTE_M, build_route_model, project_many
from .hetlognorm import DEFAULT_MIN_FIT_SAMPLES, design_matrix, fit as ln_fit, predict_interval
from .inference import (DEFAULT_BACKWARD_TOLERANCE_M, DEFAULT_PEAK_HOURS, CovariateRule,
                        repair_mask, route_observations)
from .ingest import (DEFAULT_MAX_GAP_S, DEFAULT_RAIN_LABELS, DEFAULT_TZ_OFFSET, data_lines,
                     finite_float, int64, load_gtfs_static, load_intersections,
                     load_pings, load_weather)
from .markov import DEFAULT_DELTA_T_S, MarkovConfig, PredictionSession
from .store import ModelStore, read_observations, read_store, write_observations, write_store


@dataclass
class RunConfig:
    gtfs_dir: str = ""
    pings: str = ""
    weather: str = ""
    intersections: str = ""
    observations: str = "observations.csv"
    model_store: str = "models.txt"
    out_dir: str = "."
    tz_offset: float = DEFAULT_TZ_OFFSET
    buffer_radius: float = DEFAULT_BUFFER_RADIUS_M
    off_route: float = DEFAULT_OFF_ROUTE_M
    speed_threshold: float = 5.0
    peak_hours: tuple = tuple(sorted(DEFAULT_PEAK_HOURS))
    delta_t: float = DEFAULT_DELTA_T_S
    # read by no driver and not config keys: kept for perfbench (ROADMAP items 1-2)
    runs: int = 1000
    seed: int = 0
    cut_date: str = ""
    max_gap: float = DEFAULT_MAX_GAP_S
    min_fit_samples: int = DEFAULT_MIN_FIT_SAMPLES
    min_component_samples: int = DEFAULT_MIN_COMPONENT_SAMPLES
    backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M
    rain_labels: tuple = tuple(sorted(DEFAULT_RAIN_LABELS))
    link_speed_thresholds: str = ""  # per-link overrides, e.g. "2:4.0,5:6.5"

    def __post_init__(self):
        rules = [(key, "> 0", getattr(self, key) > 0)
                 for key in ("buffer_radius", "off_route", "max_gap", "delta_t",
                             "speed_threshold")]
        rules += [(key, ">= 1", getattr(self, key) >= 1)
                  for key in ("min_fit_samples", "min_component_samples")]
        rules += [("backward_tolerance", ">= 0", self.backward_tolerance >= 0.0),
                  ("tz_offset", "in [-12, 14]", -12 <= self.tz_offset <= 14),
                  ("peak_hours", "hours 0-23", set(self.peak_hours) <= set(range(24)))]
        for key, rule, ok in rules:
            if not ok:
                raise ConfigError("bad_config", f"{key} = {getattr(self, key)!r} must be {rule}")
        # The one threshold map of the run: link index -> m/s, every other
        # link reading speed_threshold. Not a field, so not a config key.
        default = float(self.speed_threshold)
        table = self.speed_threshold_by_link = defaultdict(lambda: default)
        for tok in self.link_speed_thresholds.split(",") if self.link_speed_thresholds else ():
            link, _, value = tok.partition(":")
            try:
                link, value = int64(link), finite_float(value)
            except ValueError:
                raise ConfigError("bad_config", f"link_speed_thresholds entry {tok!r} "
                                  "is not index:value") from None
            problem = ("link index must be >= 1" if link < 1
                       else "threshold must be > 0" if not value > 0
                       else f"repeats link {link}" if link in table else "")
            if problem:
                raise ConfigError("bad_config", f"link_speed_thresholds entry {tok!r}: {problem}")
            table[link] = value

    @property
    def peak_hour_set(self):
        return frozenset(int(h) for h in self.peak_hours)

    @property
    def rain_label_set(self):
        return frozenset(self.rain_labels)


def covariates_for(cfg: RunConfig, weather) -> CovariateRule:
    """The run's covariate rule over ``weather`` and the calendar rules of
    ``cfg``: ``covariates(t, traffic)``, or ``covariates.rows(ts, traffic)``."""
    return CovariateRule(weather, cfg.tz_offset, cfg.peak_hour_set, cfg.rain_label_set)


_FIELD_TYPES = get_type_hints(RunConfig)
_CONFIG_KEYS = _FIELD_TYPES.keys() - {"runs", "seed"}
_DEFAULTS = RunConfig()
_PARSERS = {float: finite_float, int: int64}  # other types parse with their constructor


def _coerce(key: str, value: str):
    """A config value as its RunConfig field's annotated type; a tuple's
    elements take the type of the default's elements."""
    kind = _FIELD_TYPES[key]
    try:
        if kind is tuple:
            item = type(getattr(_DEFAULTS, key)[0])
            parse = _PARSERS.get(item, item)
            return tuple(parse(tok.strip()) for tok in value.split(",") if tok.strip())
        return _PARSERS.get(kind, kind)(value)
    except ValueError:
        raise ConfigError("bad_config", f"{key} = {value!r} is not a valid number") from None


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    values: dict = {}
    if path:
        for lineno, line in data_lines(path):
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in _CONFIG_KEYS:
                raise ConfigError("bad_config", f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError("bad_config", f"{path}:{lineno}: repeats key {key!r}")
            values[key] = _coerce(key, value.strip())
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = _coerce(key, value) if isinstance(value, str) else value
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

@dataclass
class InferReport:
    observations_path: str
    n_traversals: int
    n_used: int
    n_observations: int
    n_interpolated: int
    per_link_counts: dict
    skipped: list = field(default_factory=list)


def run_infer(cfg: RunConfig) -> InferReport:
    net = load_gtfs_static(cfg.gtfs_dir)
    xs = load_intersections(cfg.intersections)
    weather = load_weather(cfg.weather)
    series = load_pings(cfg.pings, max_gap_s=cfg.max_gap)

    by_route: dict = {}  # route key -> its segments
    skipped = []
    for trav in series.segments:
        trip = net.trips.get(trav.trip_id)
        if trip is None:
            skipped.append(f"{trav.trip_id}: unknown trip")
        else:
            by_route.setdefault((trip.route_id, trip.direction_id), []).append(trav)
    models = _route_models_for(net, xs, cfg, sorted(by_route))
    covariates, thresholds = covariates_for(cfg, weather), cfg.speed_threshold_by_link

    routes = []
    for rk, segs in by_route.items():
        rm = models[rk]
        # one projection per route
        arcs, _ = project_many(rm.polyline, np.concatenate([t.lats for t in segs]),
                               np.concatenate([t.lons for t in segs]))
        routes.append((rm, segs, arcs))
    table, skips, n_used = route_observations(routes, covariates, thresholds,
                                              cfg.backward_tolerance)
    out_path = Path(cfg.out_dir) / cfg.observations
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_observations(out_path, table)
    return InferReport(observations_path=str(out_path), n_traversals=len(series.segments),
                       n_used=n_used, n_observations=table.link.shape[0],
                       n_interpolated=sum("interp" in flags for flags in table.flags),
                       per_link_counts={key: len(rows) for key, rows in table.groups.items()},
                       skipped=skipped + skips)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@dataclass
class FitReport:
    store_path: str
    fitted_links: list
    failed_links: list  # (key, reason)


def _route_models_for(net, xs, cfg, route_keys):
    return {rk: build_route_model(net, xs, rk, buffer_radius=cfg.buffer_radius,
                                  off_route_m=cfg.off_route)
            for rk in route_keys}


def _fit_feature(models: dict, key, fit, samples, pool, min_samples: int,
                 failed: list, what: str, **kwargs) -> None:
    """Fit a dwell or intersection model on the feature's own samples, else
    on the route pool with ``pooled=True``; when both fail, record
    ``(key, "<what> <kind>")`` in ``failed``."""
    try:
        models[key] = fit(key[1], samples, min_samples=min_samples, **kwargs)
    except FitError:
        try:
            models[key] = fit(key[1], pool, min_samples=min_samples, pooled=True, **kwargs)
        except FitError as exc:
            failed.append((key, f"{what} {exc.kind}"))


def fit_all(table, cfg: RunConfig, route_models: dict) -> tuple:
    """Fit road/dwell/intersection models for every link of an
    ``ObservationTable`` with data.

    Returns (ModelStore, fitted keys, failures). Dwell and intersection
    models fall back to route-level pooled samples, in link order and then
    file order, when a feature has too few of its own.
    """
    store = ModelStore(road={}, dwell={}, intersections={})
    fitted, failed = [], []
    for key, rows in table.groups.items():
        try:
            store.road[key] = ln_fit(np.log(table.road[rows]), table.covariates[rows],
                                     min_samples=cfg.min_fit_samples)
            fitted.append(key)
        except FitError as exc:
            failed.append((key, f"{exc.kind}"))

    n_min = cfg.min_component_samples
    none = np.zeros(0, dtype=np.int64)
    for rk, rm in sorted(route_models.items()):
        link_rows = [table.groups.get((rk, link.index), none) for link in rm.links]
        route_rows = np.concatenate(link_rows)
        pooled_dwell = table.dwell[route_rows]
        for link, rows in zip(rm.links, link_rows):
            _fit_feature(store.dwell, (rk, link.to_stop), fit_dwell, table.dwell[rows],
                         pooled_dwell, n_min, failed, "dwell")
        entries = table.intersections_of(route_rows)
        usable = table.usable_intersections()[entries]
        x_samples = table.by_intersection(entries[usable])
        x_others = table.by_intersection(entries[~usable])
        pooled_x = table.x_secs[entries[usable]]
        for xid, _arc in rm.projected_intersections:
            samples = table.x_secs[x_samples.get((rk, xid), none)]
            others = len(x_others.get((rk, xid), none))
            frac = others / (others + len(samples)) if (others + len(samples)) else 0.0
            _fit_feature(store.intersections, (rk, xid), fit_intersection, samples, pooled_x,
                         n_min, failed, "intersection", excluded_zero_fraction=frac)
    return store, fitted, failed


def run_fit(cfg: RunConfig) -> FitReport:
    table = read_observations(Path(cfg.out_dir) / cfg.observations)
    net = load_gtfs_static(cfg.gtfs_dir)
    xs = load_intersections(cfg.intersections)
    route_models = _route_models_for(net, xs, cfg, table.route_keys)
    store, fitted, failed = fit_all(table, cfg, route_models)
    store_path = Path(cfg.out_dir) / cfg.model_store
    write_store(store_path, store)
    return FitReport(store_path=str(store_path), fitted_links=fitted, failed_links=failed)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

@dataclass
class ValidationRow:
    component: str  # e.g. "road R1/0 link 1" or "intersection X1"
    test_name: str
    statistic: float | None
    p_value: float | None
    n: int
    note: str = ""


def _validation_row(label: str, name: str, n: int, test) -> ValidationRow:
    """The row of one test, or of its failure kind with the sample size ``n``."""
    try:
        r = test()
    except BuslinkError as exc:
        return ValidationRow(component=label, test_name=name, statistic=None, p_value=None,
                             n=n, note=exc.kind)
    return ValidationRow(component=label, test_name=r.test_name, statistic=r.statistic,
                         p_value=r.p_value, n=r.n)


def run_validate(cfg: RunConfig) -> list:
    table = read_observations(Path(cfg.out_dir) / cfg.observations)
    rows = []
    for (rk, li), link_rows in table.groups.items():
        by_time = link_rows[np.argsort(table.depart_prev[link_rows], kind="stable")]
        road, Z = table.road[by_time], design_matrix(table.covariates[by_time])
        rows += [_validation_row(f"road {rk[0]}/{rk[1]} link {li}", name, len(by_time), test)
                 for name, test in (("ks_lognormal", lambda: stats.ks_lognormal(road)),
                                    ("breusch_pagan", lambda: stats.breusch_pagan(np.log(road), Z)),
                                    ("runs", lambda: stats.runs_test(road)))]
    usable = np.flatnonzero(table.usable_intersections())
    for (rk, xid), entries in table.by_intersection(usable).items():
        vals = table.x_secs[entries]
        rows.append(_validation_row(f"intersection {rk[0]}/{rk[1]} {xid}", "ks_lognormal",
                                    len(vals), lambda: stats.ks_lognormal(vals)))
    return rows


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def run_evaluate(cfg: RunConfig) -> list:
    if not cfg.cut_date:
        raise ConfigError("bad_config", "cut_date is required for evaluate")
    table = read_observations(Path(cfg.out_dir) / cfg.observations)
    return evaluation.evaluate_split(table, cfg.cut_date, cfg.tz_offset,
                                     min_fit_samples=cfg.min_fit_samples)


# ---------------------------------------------------------------------------
# predict / simulate
# ---------------------------------------------------------------------------

def run_predict(cfg: RunConfig, route_id: str, direction_id: int, link_index: int,
                x, level: float = 0.95):
    if not 0.0 < level < 1.0:  # also rejects NaN
        raise ConfigError("bad_config", f"level {level!r} is not a number strictly between 0 and 1")
    store = read_store(Path(cfg.out_dir) / cfg.model_store)
    key = ((route_id, direction_id), link_index)
    if key not in store.road:
        raise ConfigError("not_fitted", f"no fitted model for {key}")
    return predict_interval(store.road[key], x, level=level)


@dataclass
class SimulationBatch:
    timestamp: float
    trip_id: str
    summary: object
    segment_start: float  # first ping time of the replayed ping segment
    segment_count: int  # ping segments of the trip id in the file


def _session_for(cfg: RunConfig, rm, store: ModelStore, weather):
    road, dwell, inters = store.for_route(rm.route_key)
    missing = [l.index for l in rm.links if l.index not in road
               or l.to_stop not in dwell
               or any(x not in inters for x in l.intersection_ids)]
    if missing:
        raise ConfigError("not_fitted", f"links without fitted models: {missing}")
    return PredictionSession(rm, road, dwell, inters, covariates_for(cfg, weather),
                             MarkovConfig(delta_t=cfg.delta_t), cfg.speed_threshold_by_link)


def replay_pairs(trav, rm, backward_tolerance: float, at: float | None = None) -> list:
    """The segment's (time, arc) pairs: ``run_infer``'s projection and repair, cut after ``at``."""
    arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
    times = trav.timestamps.astype(float)
    keep = repair_mask(arcs, backward_tolerance)
    if at is not None:
        keep &= times <= at
    return list(zip(times[keep].tolist(), arcs[keep].tolist()))


def run_simulate(cfg: RunConfig, trip_id: str, at: float | None = None,
                 replay: bool = False) -> list:
    """Replay a traversal through the prediction session.

    With ``at``: one batch from the bus position at the last ping <= at.
    With neither ``at`` nor ``replay``: one batch from the segment's last ping.
    With ``replay``: a batch at the first ping and at every traffic
    indicator flip. Only the trip's own ping lines are read. The last of its
    ping segments (with ``at``: the one running then) is replayed and named.
    """
    net = load_gtfs_static(cfg.gtfs_dir)
    xs = load_intersections(cfg.intersections)
    weather = load_weather(cfg.weather)
    series = load_pings(cfg.pings, max_gap_s=cfg.max_gap, trip_id=trip_id)
    store = read_store(Path(cfg.out_dir) / cfg.model_store)

    trip = net.trips.get(trip_id)
    if trip is None:
        raise ConfigError("not_found", f"trip {trip_id} not in the static feed")
    candidates = series.segments
    if at is not None:
        candidates = [t for t in candidates if t.timestamps[0] <= at]
        candidates = [t for t in candidates if t.timestamps[-1] >= at] or candidates[-1:]
    if not candidates:
        raise ConfigError("not_found", f"no ping segment for trip {trip_id}"
                          + (f" at {at}" if at is not None else ""))
    trav = candidates[-1]
    route_key = (trip.route_id, trip.direction_id)
    rm = _route_models_for(net, xs, cfg, [route_key])[route_key]
    pings = replay_pairs(trav, rm, cfg.backward_tolerance, at)
    if not pings:
        raise ConfigError("not_found", f"trip {trip_id} has no pings at or before {at}")

    session = _session_for(cfg, rm, store, weather)
    segment = (int(trav.timestamps[0]), len(series.segments))
    batches = []
    if replay:
        for i, ping in enumerate(pings):
            summary = session.start(ping) if i == 0 else session.update(ping)
            if summary is not None:
                batches.append(SimulationBatch(ping[0], trip_id, summary, *segment))
    else:
        for ping in pings[:-1]:
            session.observe(ping)
        summary = session.emit_at(pings[-1])
        if summary is None:
            raise ConfigError("not_found", f"trip {trip_id} already past the terminal at "
                              f"{int(pings[-1][0]) if at is None else at}")
        batches.append(SimulationBatch(pings[-1][0], trip_id, summary, *segment))
    return batches
