"""Synthetic corpus generator: realizes a known ground truth as GTFS
tables, ping records, weather, and intersections, so the whole pipeline
can be checked against exact known values.

The fixture route is a straight east-west line. Per link and traversal,
the road time is drawn from the truth's log-normal (given the realized
covariates) and turned into a kinematic plan whose open-road speeds
respect the traffic-indicator semantics: uncongested traversals never
drop below the speed threshold between buffer zones, congested ones
crawl well below it for a stretch long enough that ping pairs must see
it. Buffer zones are crossed at a fixed zone speed plus standing time,
so measured dwell and intersection durations reproduce the truth pools
up to ping quantization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, IngestError
from .geometry import EARTH_RADIUS_M
from .inference import DEFAULT_PEAK_HOURS, build_covariates
from .ingest import DEFAULT_RAIN_LABELS, WeatherTable, date_text, day_number

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
        with open(path, encoding="utf-8") as fh:
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
    """Kinematically realizable road-time windows (congested, uncongested)."""
    d_open = link.length - 2.0 * spec.buffer_radius \
        - len(link.intersections) * 2.0 * spec.buffer_radius
    t0_lo = d_open / FREE_SPEED_MAX
    t0_hi = d_open / FREE_SPEED_MIN
    w_min = CRAWL_SPEED * MIN_CRAWL_S
    t1_lo = (d_open - w_min) / RUN_SPEED + MIN_CRAWL_S
    t1_hi = 0.95 * d_open / CRAWL_SPEED
    return d_open, (t0_lo, t0_hi), (t1_lo, t1_hi)


def validate_truth(spec: TruthSpec) -> None:
    """Reject truths whose draws could not be realized or labeled correctly."""
    if spec.seed < 0:
        raise ConfigError("bad_config", f"seed = {spec.seed!r} must be >= 0")
    try:
        day_number(spec.start_date)
    except ValueError as exc:
        raise ConfigError("bad_config", f"start_date: {exc}") from None
    if spec.ping_interval < 1:
        raise ConfigError("infeasible_truth", "ping_interval must be >= 1 second")
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
        for x in link.intersections:
            if not (2.0 * spec.buffer_radius < x.offset < link.length - 2.0 * spec.buffer_radius):
                raise ConfigError("infeasible_truth",
                                  f"intersection {x.intersection_id} too close to a stop")
            if math.exp(x.mu - 2 * x.sigma) < 2.0 * spec.buffer_radius / RUN_SPEED:
                raise ConfigError("infeasible_truth",
                                  f"intersection {x.intersection_id}: zone times too short to realize")


# ---------------------------------------------------------------------------
# geometry helpers (straight east-west route)
# ---------------------------------------------------------------------------

def _lon_at(spec: TruthSpec, arc: float) -> float:
    rad = arc / (EARTH_RADIUS_M * math.cos(math.radians(spec.origin_lat)))
    return spec.origin_lon + math.degrees(rad)


def _stop_arcs(spec: TruthSpec):
    arcs = [0.0]
    for link in spec.links:
        arcs.append(arcs[-1] + link.length)
    return arcs


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
    """Write the full synthetic corpus; deterministic for a given seed."""
    validate_truth(spec)
    out = Path(out_dir)
    gtfs = out / "gtfs"
    gtfs.mkdir(parents=True, exist_ok=True)
    paths = CorpusPaths(root=out, gtfs_dir=gtfs, pings=out / "pings.csv",
                        weather=out / "weather.csv",
                        intersections=out / "intersections.csv",
                        truth_events=out / "truth_events.csv",
                        truth_links=out / "truth_links.csv")

    _write_gtfs(spec, gtfs)
    _write_intersections(spec, paths.intersections)
    rng = np.random.default_rng(spec.seed)
    first_day = day_number(spec.start_date)
    days = range(first_day, first_day + spec.n_days)
    weather = _write_weather(days, paths.weather, rng, spec.rain_hour_prob)

    stop_arcs = _stop_arcs(spec)
    b = spec.buffer_radius
    zone_half = b / spec.zone_speed
    zone_cross = 2.0 * zone_half

    ping_lines = []
    event_lines = []
    link_lines = []
    n_trav = 0
    for day in days:
        date = date_text(day)
        for slot in range(spec.slots_per_day):
            trip_id = f"T{slot:03d}"
            vehicle = f"B{slot % 7}"
            t0 = 86400 * day + spec.first_slot_s + slot * spec.headway_s - spec.tz_offset * 3600.0
            bp_t = [t0]
            bp_a = [stop_arcs[0]]
            t = t0 + float(rng.choice(np.asarray(spec.links[0].dwell_pool))) - zone_cross
            bp_t.append(t)
            bp_a.append(stop_arcs[0])
            # exit the origin stop's zone
            t += zone_half
            bp_t.append(t)
            bp_a.append(stop_arcs[0] + b)
            for li, link in enumerate(spec.links, start=1):
                depart_prev = t
                x_traffic = 1 if rng.random() < spec.congestion_prob else 0
                try:  # the covariates infer will read off this departure
                    cov = build_covariates(t, weather, x_traffic, spec.tz_offset,
                                           DEFAULT_PEAK_HOURS, DEFAULT_RAIN_LABELS)
                except IngestError as exc:
                    raise ConfigError("infeasible_truth",
                                      f"trip {trip_id} of {date}, link {li}: {exc}") from None
                x = np.array([1.0, *cov])
                mu = float(np.asarray(link.beta) @ x)
                sigma = math.exp(0.5 * float(np.asarray(link.gamma) @ x))
                d_open, w0, w1 = _combo_windows(spec, link)
                lo, hi = (w1 if x_traffic else w0)
                t_road = min(max(math.exp(mu + sigma * rng.standard_normal()), lo), hi)

                start_arc = stop_arcs[li - 1]
                end_arc = stop_arcs[li]
                # open-road runs between zone edges, in arc order
                edges = [start_arc + b]
                x_events = []
                for xt in link.intersections:
                    edges.append(start_arc + xt.offset - b)
                    edges.append(start_arc + xt.offset + b)
                edges.append(end_arc - b)
                runs = [(edges[2 * i], edges[2 * i + 1]) for i in range(len(edges) // 2)]
                crawl_by_run = _crawl_allocation(spec, runs, d_open, t_road, x_traffic)

                xs_realized = []
                for ri, (p, q) in enumerate(runs):
                    t = _emit_run(bp_t, bp_a, t, p, q, d_open, t_road, x_traffic,
                                  crawl_by_run[ri])
                    if ri < len(link.intersections):
                        xt = link.intersections[ri]
                        t_arr = t
                        total = max(math.exp(xt.mu + xt.sigma * rng.standard_normal()),
                                    2.0 * b / RUN_SPEED)
                        stand = max(total - zone_cross, 0.0)
                        speed_in = spec.zone_speed if stand > 0 else 2.0 * b / total
                        t += b / speed_in
                        bp_t.append(t)
                        bp_a.append(start_arc + xt.offset)
                        if stand > 0:
                            t += stand
                            bp_t.append(t)
                            bp_a.append(start_arc + xt.offset)
                        t += b / speed_in
                        bp_t.append(t)
                        bp_a.append(start_arc + xt.offset + b)
                        xs_realized.append((xt.intersection_id, t - t_arr))
                        x_events.append((xt.intersection_id, t_arr, t))
                # end stop zone
                t_arr = t
                dwell_total = float(rng.choice(np.asarray(link.dwell_pool)))
                stand = dwell_total - zone_cross
                t += zone_half
                bp_t.append(t)
                bp_a.append(end_arc)
                if stand > 0:
                    t += stand
                    bp_t.append(t)
                    bp_a.append(end_arc)
                t += zone_half
                bp_t.append(t)
                bp_a.append(end_arc + b)
                event_lines.append(f"{trip_id},{date},stop,S{li},{t_arr!r},{t!r}")
                if li == len(spec.links):
                    # drive clear of the terminal zone so the last departure registers
                    t += 8.0 / spec.zone_speed
                    bp_t.append(t)
                    bp_a.append(end_arc + b + 8.0)
                for xid, xa, xd in x_events:
                    event_lines.append(f"{trip_id},{date},intersection,{xid},{xa!r},{xd!r}")
                xs_txt = ";".join(f"{xid}={dur!r}" for xid, dur in xs_realized)
                link_lines.append(
                    f"{trip_id},{date},{li},{depart_prev!r},{t_road!r},{dwell_total!r},"
                    f"{xs_txt},{','.join(map(str, cov))}")
            # sample pings on the grid; one trailing ping past the terminal
            end_t = bp_t[-1] + spec.ping_interval
            times = np.arange(math.ceil(t0), end_t + 1.0, spec.ping_interval)
            arcs = np.interp(times, bp_t, bp_a)
            lons = [_lon_at(spec, a) for a in arcs]
            for ts, lon in zip(times, lons):
                ping_lines.append(f"{trip_id},{vehicle},{int(ts)},{spec.origin_lat!r},{lon!r}")
            n_trav += 1

    with open(paths.pings, "w", encoding="utf-8") as fh:
        fh.write("\n".join(ping_lines) + "\n")
    with open(paths.truth_events, "w", encoding="utf-8") as fh:
        fh.write("trip_id,date,kind,feature_id,t_arrival,t_departure\n")
        fh.write("\n".join(event_lines) + "\n")
    with open(paths.truth_links, "w", encoding="utf-8") as fh:
        fh.write("trip_id,date,link_index,depart_prev,road,dwell,intersections,"
                 "rain,peak,weekday,traffic\n")
        fh.write("\n".join(link_lines) + "\n")
    paths.n_traversals = n_trav
    paths.n_pings = len(ping_lines)
    return paths


def _crawl_allocation(spec: TruthSpec, runs, d_open: float, t_road: float,
                      congested: int):
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
        cap = 0.98 * (runs[i][1] - runs[i][0])
        take = min(cap, left)
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
        v0 = d_open / t_road
        t += length / v0
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


def _write_gtfs(spec: TruthSpec, gtfs: Path) -> None:
    arcs = _stop_arcs(spec)
    with open(gtfs / "stops.txt", "w", encoding="utf-8") as fh:
        fh.write("stop_id,stop_name,stop_lat,stop_lon\n")
        for i, arc in enumerate(arcs):
            fh.write(f"S{i},Stop {i},{spec.origin_lat!r},{_lon_at(spec, arc)!r}\n")
    with open(gtfs / "shapes.txt", "w", encoding="utf-8") as fh:
        fh.write("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n")
        total = arcs[-1]
        for k in range(11):
            arc = total * k / 10.0 if k < 10 else total + 30.0  # small tail past the terminal
            fh.write(f"SH1,{spec.origin_lat!r},{_lon_at(spec, arc)!r},{k}\n")
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
    arcs = _stop_arcs(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("intersection_id,lat,lon\n")
        for li, link in enumerate(spec.links, start=1):
            for x in link.intersections:
                arc = arcs[li - 1] + x.offset
                fh.write(f"{x.intersection_id},{spec.origin_lat!r},{_lon_at(spec, arc)!r}\n")


def _write_weather(days, path: Path, rng: np.random.Generator,
                   rain_hour_prob: float) -> WeatherTable:
    entries = {(day, hour): "Rain" if rng.random() < rain_hour_prob else "Clear"
               for day in days for hour in range(24)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,hour,condition\n")
        fh.writelines(f"{date_text(day)},{hour},{label}\n" for (day, hour), label in entries.items())
    return WeatherTable(entries=entries)
