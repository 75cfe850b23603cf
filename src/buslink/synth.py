"""Synthetic corpus generator: realizes a known ground truth as GTFS
tables, ping records, weather, and intersections, so the whole pipeline
can be checked against exact known values.

Per link and traversal, the road time is drawn from the truth's
log-normal (given the realized covariates) and turned into a kinematic
plan whose open-road speeds respect the traffic-indicator semantics:
uncongested traversals never drop below the speed threshold between
buffer zones, congested ones crawl well below it for a stretch long
enough that ping pairs must see it. Two motion primitives append a
traversal's ``(time, arc)`` breakpoints: ``_emit_run`` drives one
open-road run, and ``_cross_zone`` crosses a stop's or an intersection's
buffer zone at a fixed zone speed plus standing time, so measured dwell
and intersection durations reproduce the truth pools up to ping
quantization. Pings sample the breakpoints on the ping grid. One
coordinate map, ``_lat_lon``, writes the coordinates of every table; it
alone knows the route's shape, a straight east-west line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, IngestError
from .geometry import EARTH_RADIUS_M
from .inference import DEFAULT_PEAK_HOURS, build_covariates
from .ingest import (DEFAULT_RAIN_LABELS, WeatherTable, _checked_id, date_text, day_number,
                     open_text)

RUN_SPEED = 12.5  # m/s, non-crawl speed on congested links
CRAWL_SPEED = 2.0  # m/s, must sit well below any sane speed threshold
FREE_SPEED_MIN = 5.75  # m/s, slowest constant speed on uncongested links
FREE_SPEED_MAX = 16.0  # m/s
MIN_CRAWL_S = 15.0  # crawl long enough that ping pairs must observe it


@dataclass(frozen=True)
class TruthIntersection:
    intersection_id: str
    offset: float  # meters from the link's start stop
    mu: float  # log seconds of total zone time
    sigma: float


@dataclass(frozen=True)
class TruthLink:
    length: float
    beta: tuple  # (5,)
    gamma: tuple  # (5,)
    dwell_pool: tuple  # total end-stop zone durations, seconds
    intersections: tuple = ()


@dataclass(frozen=True)
class TruthSpec:
    links: tuple
    route_id: str = "R1"
    direction_id: int = 0
    tz_offset: float = -5.0
    buffer_radius: float = 20.0
    ping_interval: int = 5
    start_date: str = "2023-08-18"
    n_days: int = 59
    first_slot_s: int = 6 * 3600
    headway_s: int = 960
    slots_per_day: int = 60
    origin_lat: float = 29.651
    origin_lon: float = -82.325
    congestion_prob: float = 0.35
    rain_hour_prob: float = 0.3
    zone_speed: float = 8.0
    delta_t: float = 5.0
    seed: int = 0


_JSON_TYPES = {int: int, float: (int, float), str: str}  # field type -> accepted JSON values


def _typed(path, name: str, value, kind: type):
    """``value`` if its JSON type suits a ``kind`` field; true/false are no numbers."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError("bad_config", f"{path}: {name} must be a JSON {kind.__name__}, "
                          f"not {value!r}")
    return value


def _truth_link(path, li: int, lk: dict) -> TruthLink:
    """Link ``li`` of a truth file, its numbers as floats."""
    def num(key, value):
        return float(_typed(path, f"link {li} {key}", value, float))
    xs = tuple(TruthIntersection(intersection_id=_typed(path, f"link {li} intersection id",
                                                        x["id"], str),
                                 offset=num("offset", x["offset"]),
                                 mu=num("mu", x["mu"]), sigma=num("sigma", x["sigma"]))
               for x in lk.get("intersections", []))
    return TruthLink(length=num("length", lk["length"]),
                     beta=tuple(num("beta", v) for v in lk["beta"]),
                     gamma=tuple(num("gamma", v) for v in lk["gamma"]),
                     dwell_pool=tuple(num("dwell_pool", v) for v in lk["dwell_pool"]),
                     intersections=xs)


def load_truth(path) -> TruthSpec:
    """Read and validate a truth spec; bad JSON, keys, types or values are a
    ConfigError."""
    try:
        with open_text(path) as fh:
            raw = json.load(fh)  # a JSONDecodeError is a ValueError
        kinds = get_type_hints(TruthSpec)
        for key, value in raw.items():
            if kinds.get(key) in _JSON_TYPES:
                _typed(path, key, value, kinds[key])
        links = tuple(_truth_link(path, li, lk) for li, lk in enumerate(raw.pop("links"), start=1))
        spec = TruthSpec(links=links, **raw)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError("bad_config", f"{path}: {exc!r}") from None
    validate_truth(spec)
    return spec


def _combo_windows(spec: TruthSpec, link: TruthLink):
    """The link's open-road distance and its kinematically realizable
    road-time windows (uncongested, congested)."""
    d_open = link.length - 2.0 * spec.buffer_radius \
        - len(link.intersections) * 2.0 * spec.buffer_radius
    return d_open, (d_open / FREE_SPEED_MAX, d_open / FREE_SPEED_MIN), \
        ((d_open - CRAWL_SPEED * MIN_CRAWL_S) / RUN_SPEED + MIN_CRAWL_S,
         0.95 * d_open / CRAWL_SPEED)


def validate_truth(spec: TruthSpec) -> None:
    """Reject truths that the generator could not realize, whose corpus
    ``infer`` would reject or read otherwise, or whose draws it could not
    label correctly. Ranges and shapes are ``bad_config``, ids the readers
    could not read back ``bad_id``, the rest ``infeasible_truth``."""
    ids = [x.intersection_id for link in spec.links for x in link.intersections]
    repeated = [xid for k, xid in enumerate(ids) if xid in ids[:k]]
    rules = [(key, getattr(spec, key), rule, ok(getattr(spec, key))) for keys, rule, ok in (
        (("buffer_radius", "zone_speed", "delta_t"), "> 0", lambda v: v > 0),
        (("n_days", "slots_per_day", "ping_interval"), ">= 1", lambda v: v >= 1),
        (("congestion_prob", "rain_hour_prob"), "in [0, 1]", lambda v: 0 <= v <= 1),
        (("seed",), ">= 0", lambda v: v >= 0),
        (("direction_id",), "0 or 1", lambda v: v in (0, 1)),
        (("origin_lat",), "in [-90, 90]", lambda v: -90 <= v <= 90),
        (("origin_lon",), "in [-180, 180]", lambda v: -180 <= v <= 180),
        (("tz_offset",), "in [-12, 14]", lambda v: -12 <= v <= 14),
        (("links",), "non-empty", len)) for key in keys]
    for li, link in enumerate(spec.links, start=1):
        rules += [(f"link {li} dwell_pool", link.dwell_pool, "non-empty", len(link.dwell_pool) > 0),
                  (f"link {li} beta", link.beta, "5 numbers", len(link.beta) == 5),
                  (f"link {li} gamma", link.gamma, "5 numbers", len(link.gamma) == 5)]
        rules += [(f"intersection {x.intersection_id} sigma", x.sigma, ">= 0", x.sigma >= 0)
                  for x in link.intersections]
    rules.append(("intersection id", repeated[:1], "used once", not repeated))
    for name, value, rule, ok in rules:
        if not ok:
            raise ConfigError("bad_config", f"{name} = {value!r} must be {rule}")
    end = _lat_lon(spec, [sum(link.length for link in spec.links) + SHAPE_TAIL_M])[0]
    end_lat, end_lon = map(float, end.split(","))
    if not (-90 <= end_lat <= 90 and -180 <= end_lon <= 180):
        raise ConfigError("bad_config", f"the shape's last vertex = {end!r} must be inside "
                          "[-90, 90] x [-180, 180]")
    try:
        last_day = day_number(spec.start_date) + spec.n_days - 1
    except ValueError as exc:
        raise ConfigError("bad_config", f"start_date: {exc}") from None
    if last_day > day_number("9999-12-31"):
        raise ConfigError("bad_config", f"n_days = {spec.n_days} must end by 9999-12-31")
    for xid in ids:
        _checked_id(xid, "intersection_id")
    _checked_id(spec.route_id, "route_id")

    zone_cross = 2.0 * spec.buffer_radius / spec.zone_speed
    for li, link in enumerate(spec.links, start=1):
        d_open, w0, w1 = _combo_windows(spec, link)
        if d_open <= 100.0:
            raise ConfigError("infeasible_truth", f"link {li}: open distance {d_open:.0f} m too short")
        beta = np.asarray(link.beta)
        gamma = np.asarray(link.gamma)
        for bits in range(16):
            x = np.array([1.0, bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1])
            mu = float(beta @ x)
            sigma = math.exp(0.5 * float(gamma @ x))
            if math.exp(mu) <= spec.delta_t:
                raise ConfigError("infeasible_truth",
                                  f"link {li}: predicted time {math.exp(mu):.1f}s <= delta_t "
                                  f"{spec.delta_t}s at covariates {x[1:]}")
            lo, hi = (w1 if x[4] else w0)
            if math.exp(mu - 2 * sigma) < lo or math.exp(mu + 2 * sigma) > hi:
                raise ConfigError(
                    "infeasible_truth",
                    f"link {li}: road time at covariates {x[1:].astype(int)} "
                    f"({math.exp(mu - 2 * sigma):.0f}-{math.exp(mu + 2 * sigma):.0f}s at 2 sigma) "
                    f"leaves the realizable window ({lo:.0f}-{hi:.0f}s)")
        if min(link.dwell_pool) < zone_cross - 1e-9:
            raise ConfigError("infeasible_truth",
                              f"link {li}: dwell pool minimum below zone crossing time "
                              f"{zone_cross:.1f}s")
        # infer merges away a feature within 2 * buffer_radius of the one before
        offsets = [0.0, *(x.offset for x in link.intersections), link.length]
        if not all(q - p > 2.0 * spec.buffer_radius for p, q in zip(offsets, offsets[1:])):
            raise ConfigError("infeasible_truth", f"link {li}: stop and intersection offsets "
                              f"{offsets} m must each exceed the one before by more than "
                              f"2 * buffer_radius")
        for x in link.intersections:
            if math.exp(x.mu - 2 * x.sigma) < 2.0 * spec.buffer_radius / RUN_SPEED:
                raise ConfigError("infeasible_truth",
                                  f"intersection {x.intersection_id}: zone times too short to realize")


SHAPE_TAIL_M = 30.0  # the shape runs on this far past the terminal stop


def _lat_lon(spec: TruthSpec, arcs) -> list:
    """``lat,lon`` text of each arc position: the one place that knows the
    route's shape, a line due east from the origin along its parallel."""
    rad = np.asarray(arcs, dtype=float) / (EARTH_RADIUS_M * math.cos(math.radians(spec.origin_lat)))
    return [f"{spec.origin_lat!r},{lon!r}" for lon in (spec.origin_lon + np.degrees(rad)).tolist()]


def _stop_arcs(spec: TruthSpec) -> list:
    return list(accumulate((link.length for link in spec.links), initial=0.0))


# ---------------------------------------------------------------------------
# corpus generation
# ---------------------------------------------------------------------------

@dataclass
class CorpusPaths:
    root: Path
    gtfs_dir: Path
    pings: Path
    weather: Path
    intersections: Path
    truth_events: Path
    truth_links: Path
    n_traversals: int = 0
    n_pings: int = 0


def generate_corpus(spec: TruthSpec, out_dir) -> CorpusPaths:
    """Write the full synthetic corpus; deterministic for a given seed. Every
    table is built before the first write, so a rejected truth writes nothing."""
    validate_truth(spec)
    out = Path(out_dir)
    paths = CorpusPaths(out, out / "gtfs", *(out / f"{name}.csv" for name in (
        "pings", "weather", "intersections", "truth_events", "truth_links")))
    rng = np.random.default_rng(spec.seed)
    first_day = day_number(spec.start_date)
    days = range(first_day, first_day + spec.n_days)
    weather = WeatherTable(entries={(day, hour): "Rain" if rng.random() < spec.rain_hour_prob
                                    else "Clear" for day in days for hour in range(24)})

    stop_arcs = _stop_arcs(spec)
    b = spec.buffer_radius
    zone_half = b / spec.zone_speed
    zone_cross = 2.0 * zone_half
    per_link = []  # each link's coefficients, road-time windows, open runs and dwell pool
    for link, a0, a1 in zip(spec.links, stop_arcs, stop_arcs[1:]):
        edges = [a0 + b, *(a0 + xt.offset + side for xt in link.intersections for side in (-b, b)),
                 a1 - b]
        per_link.append((np.asarray(link.beta), np.asarray(link.gamma), *_combo_windows(spec, link),
                         list(zip(edges[::2], edges[1::2])), np.asarray(link.dwell_pool)))

    ping_lines, event_lines, link_lines = [], [], []
    for day in days:
        date = date_text(day)
        for slot in range(spec.slots_per_day):
            trip_id = f"T{slot:03d}"
            t0 = 86400 * day + spec.first_slot_s + slot * spec.headway_s - spec.tz_offset * 3600.0
            t = t0 + float(rng.choice(per_link[0][-1])) - zone_cross  # link 1's dwell pool
            # stand at the origin stop, then exit its zone
            bp_t = [t0, t, t + zone_half]
            bp_a = [stop_arcs[0], stop_arcs[0], stop_arcs[0] + b]
            t = bp_t[-1]
            for li, (link, constants) in enumerate(zip(spec.links, per_link), start=1):
                beta, gamma, d_open, w0, w1, runs, dwell_pool = constants
                depart_prev = t
                x_traffic = 1 if rng.random() < spec.congestion_prob else 0
                try:  # the covariates infer will read off this departure
                    cov = build_covariates(t, weather, x_traffic, spec.tz_offset,
                                           DEFAULT_PEAK_HOURS, DEFAULT_RAIN_LABELS)
                except IngestError as exc:
                    raise ConfigError("infeasible_truth",
                                      f"trip {trip_id} of {date}, link {li}: {exc}") from None
                x = np.array([1.0, *cov])
                mu = float(beta @ x)
                sigma = math.exp(0.5 * float(gamma @ x))
                lo, hi = (w1 if x_traffic else w0)
                t_road = min(max(math.exp(mu + sigma * rng.standard_normal()), lo), hi)

                crawl_by_run = _crawl_allocation(runs, d_open, t_road, x_traffic)
                crossings = []  # (intersection id, arrival, departure)
                for (p, q), crawl_m, xt in zip(runs, crawl_by_run, (*link.intersections, None)):
                    t = _emit_run(bp_t, bp_a, t, p, q, d_open, t_road, x_traffic, crawl_m)
                    if xt is not None:
                        total = max(math.exp(xt.mu + xt.sigma * rng.standard_normal()),
                                    2.0 * b / RUN_SPEED)
                        stand = max(total - zone_cross, 0.0)
                        half = zone_half if stand > 0 else b / (2.0 * b / total)
                        arc = stop_arcs[li - 1] + xt.offset
                        t_arr, t = t, _cross_zone(bp_t, bp_a, t, arc, b, half, stand)
                        crossings.append((xt.intersection_id, t_arr, t))
                t_arr = t
                dwell_total = float(rng.choice(dwell_pool))
                t = _cross_zone(bp_t, bp_a, t, stop_arcs[li], b, zone_half,
                                dwell_total - zone_cross)
                event_lines.append(f"{trip_id},{date},stop,S{li},{t_arr!r},{t!r}")
                event_lines += [f"{trip_id},{date},intersection,{xid},{xa!r},{xd!r}"
                                for xid, xa, xd in crossings]
                xs_txt = ";".join(f"{xid}={xd - xa!r}" for xid, xa, xd in crossings)
                link_lines.append(
                    f"{trip_id},{date},{li},{depart_prev!r},{t_road!r},{dwell_total!r},"
                    f"{xs_txt},{','.join(map(str, cov))}")
            # drive clear of the terminal zone so the last departure registers
            bp_t.append(t + 8.0 / spec.zone_speed)
            bp_a.append(stop_arcs[-1] + b + 8.0)
            # sample pings on the grid; one trailing ping past the terminal
            times = np.arange(math.ceil(t0), bp_t[-1] + spec.ping_interval + 1.0,
                              spec.ping_interval)
            coords = _lat_lon(spec, np.interp(times, bp_t, bp_a))
            ping_lines += [f"{trip_id},B{slot % 7},{int(ts)},{ll}"
                           for ts, ll in zip(times.tolist(), coords)]

    paths.gtfs_dir.mkdir(parents=True, exist_ok=True)
    _write_gtfs(spec, paths.gtfs_dir)
    _write_intersections(spec, paths.intersections)
    for path, header, lines in (
            (paths.pings, "", ping_lines),
            (paths.weather, "date,hour,condition\n",
             [f"{date_text(day)},{hour},{label}"
              for (day, hour), label in weather.entries.items()]),
            (paths.truth_events, "trip_id,date,kind,feature_id,t_arrival,t_departure\n",
             event_lines),
            (paths.truth_links, "trip_id,date,link_index,depart_prev,road,dwell,intersections,"
             "rain,peak,weekday,traffic\n", link_lines)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n".join(lines) + "\n")
    paths.n_traversals = len(days) * spec.slots_per_day
    paths.n_pings = len(ping_lines)
    return paths


def _crawl_allocation(runs, d_open: float, t_road: float, congested: int):
    """Crawl meters per open run: zero when uncongested, else the slow-speed
    distance that makes the total open time equal the drawn road time,
    packed into the longest runs first."""
    if not congested:
        return [0.0] * len(runs)
    w_total = (t_road - d_open / RUN_SPEED) * CRAWL_SPEED * RUN_SPEED / (RUN_SPEED - CRAWL_SPEED)
    w_total = min(max(w_total, CRAWL_SPEED * MIN_CRAWL_S), 0.98 * d_open)
    alloc = [0.0] * len(runs)
    order = sorted(range(len(runs)), key=lambda i: runs[i][1] - runs[i][0], reverse=True)
    left = w_total
    for i in order:
        take = min(0.98 * (runs[i][1] - runs[i][0]), left)
        alloc[i] = take
        left -= take
        if left <= 0.0:
            break
    return alloc


def _emit_run(bp_t, bp_a, t, p, q, d_open, t_road, congested, crawl_m):
    """Append breakpoints for one open-road run; returns the exit time."""
    length = q - p
    if length <= 0.0:
        return t
    if not congested:
        t += length / (d_open / t_road)
        bp_t.append(t)
        bp_a.append(q)
        return t
    # run-speed segment, centered crawl, run-speed segment
    lead = 0.5 * (length - crawl_m)
    for seg, v in ((lead, RUN_SPEED), (crawl_m, CRAWL_SPEED), (lead, RUN_SPEED)):
        if seg <= 0.0:
            continue
        t += seg / v
        bp_t.append(t)
        bp_a.append(bp_a[-1] + seg)
    return t


def _cross_zone(bp_t, bp_a, t, arc, b, half, stand):
    """Append breakpoints for one buffer-zone crossing: in to the feature at
    ``arc`` in ``half`` seconds, stand ``stand`` seconds there when that is
    positive, out to ``arc + b`` in ``half`` seconds; returns the exit time."""
    t += half
    bp_t.append(t)
    bp_a.append(arc)
    if stand > 0:
        t += stand
        bp_t.append(t)
        bp_a.append(arc)
    t += half
    bp_t.append(t)
    bp_a.append(arc + b)
    return t


def _write_gtfs(spec: TruthSpec, gtfs: Path) -> None:
    arcs = _stop_arcs(spec)
    with open(gtfs / "stops.txt", "w", encoding="utf-8") as fh:
        fh.write("stop_id,stop_name,stop_lat,stop_lon\n")
        fh.writelines(f"S{i},Stop {i},{ll}\n" for i, ll in enumerate(_lat_lon(spec, arcs)))
    with open(gtfs / "shapes.txt", "w", encoding="utf-8") as fh:
        fh.write("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n")
        shape_arcs = [arcs[-1] * k / 10.0 for k in range(10)] + [arcs[-1] + SHAPE_TAIL_M]
        fh.writelines(f"SH1,{ll},{k}\n" for k, ll in enumerate(_lat_lon(spec, shape_arcs)))
    with open(gtfs / "routes.txt", "w", encoding="utf-8") as fh:
        fh.write("route_id,route_short_name\n")
        fh.write(f"{spec.route_id},{spec.route_id}\n")
    with open(gtfs / "trips.txt", "w", encoding="utf-8") as fh:
        fh.write("trip_id,route_id,service_id,direction_id,shape_id\n")
        for slot in range(spec.slots_per_day):
            fh.write(f"T{slot:03d},{spec.route_id},WK,{spec.direction_id},SH1\n")
    with open(gtfs / "stop_times.txt", "w", encoding="utf-8") as fh:
        fh.write("trip_id,arrival_time,departure_time,stop_id,stop_sequence\n")
        for slot in range(spec.slots_per_day):
            sod = spec.first_slot_s + slot * spec.headway_s
            for i in range(len(arcs)):
                hh, rem = divmod(sod + i * 120, 3600)
                mm, ss = divmod(rem, 60)
                stamp = f"{hh:02d}:{mm:02d}:{ss:02d}"
                fh.write(f"T{slot:03d},{stamp},{stamp},S{i},{i + 1}\n")


def _write_intersections(spec: TruthSpec, path: Path) -> None:
    xs = [(x.intersection_id, a0 + x.offset) for a0, link in zip(_stop_arcs(spec), spec.links)
          for x in link.intersections]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("intersection_id,lat,lon\n")
        coords = _lat_lon(spec, [arc for _, arc in xs])
        fh.writelines(f"{xid},{ll}\n" for (xid, _), ll in zip(xs, coords))
