"""Buffer-zone event detection and link travel-time decomposition.

A projected traversal becomes a sequence of feature events (first ping
inside a feature's buffer zone = arrival, first subsequent ping outside
= departure). Features jumped between pings get a synthetic event at the
linearly interpolated crossing time, flagged ``interpolated``. Events
then decompose each link's total time into road, dwell, and
per-intersection components; the decomposition identity
``total = road + dwell + sum(intersections)`` holds exactly by
construction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InferenceError
from .geometry import RouteModel, project_many
from .ingest import DEFAULT_RAIN_LABELS, Traversal, WeatherTable, local_datetime

DEFAULT_SPEED_THRESHOLD_MS = 5.0
DEFAULT_PEAK_HOURS = frozenset({7, 8, 16, 17})
DEFAULT_BACKWARD_TOLERANCE_M = 5.0
DEFAULT_MAX_INTERP_FRACTION = 0.5


@dataclass(slots=True)
class ProjectedPing:
    timestamp: float
    arc_pos: float
    offset: float


@dataclass(frozen=True)
class FeatureEvent:
    kind: str  # "stop" | "intersection"
    feature_id: str
    arc: float
    t_arrival: float
    t_departure: float
    interpolated: bool = False

    @property
    def duration(self) -> float:
        return self.t_departure - self.t_arrival


def project_traversal(trav: Traversal, rm: RouteModel) -> list:
    arcs, offs = project_many(rm.polyline, trav.lats, trav.lons)
    return list(map(ProjectedPing, trav.timestamps.astype(float).tolist(), arcs.tolist(),
                    offs.tolist()))


def repair_mask(arcs, backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M) -> np.ndarray:
    """Keep mask of the monotone repair: drop a ping that regresses more than
    the tolerance (>= 0) behind the running maximum arc position (GPS jitter
    near stops). A dropped ping never raises that maximum, and ``fmax`` skips
    NaN as the comparison does, so it is the maximum over the kept pings."""
    arcs = np.asarray(arcs, dtype=float)
    return ~(arcs < np.fmax.accumulate(arcs) - backward_tolerance)


def repair_monotonic(pps, backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M) -> list:
    """The projected pings that ``repair_mask`` keeps."""
    return [p for p, k in zip(pps, repair_mask([q.arc_pos for q in pps], backward_tolerance)) if k]


def detect_events(times, arcs, rm: RouteModel,
                  max_interp_fraction: float = DEFAULT_MAX_INTERP_FRACTION) -> list:
    """Arrival/departure events for every feature the traversal crossed.

    ``times`` and ``arcs`` are the pings' lists after the monotone repair.
    Raises InferenceError("too_sparse") when more than
    ``max_interp_fraction`` of the crossed features had to be interpolated.
    """
    n = len(arcs)
    buffer = rm.buffer_radius

    events = []
    n_interp = 0
    i = 0
    prev_dep = -np.inf
    for kind, fid, farc in rm.features:
        while i < n and arcs[i] < farc - buffer:
            i += 1
        if i == n:
            break  # feature never reached
        if abs(arcs[i] - farc) <= buffer:
            t_arr = times[i]
            k = i + 1
            while k < n and abs(arcs[k] - farc) <= buffer:
                k += 1
            if k == n:
                break  # traversal ends inside the zone: incomplete event
            t_dep = times[k]
            i = k
            interpolated = False
        else:
            # zone jumped between pings i-1 and i
            if i == 0:
                continue  # traversal starts beyond this feature: not crossed
            frac = (farc - arcs[i - 1]) / (arcs[i] - arcs[i - 1])
            # on the 2**-22 s grid that POSIX times after 2004 lie on already,
            # so that the decomposition's sums and differences are exact
            t_arr = t_dep = round((times[i - 1] + frac * (times[i] - times[i - 1])) * 2**22) / 2**22
            interpolated = True
            n_interp += 1
        # keep event times monotone when several zones fall in one ping gap
        t_arr = max(t_arr, prev_dep)
        t_dep = max(t_dep, t_arr)
        prev_dep = t_dep
        events.append(FeatureEvent(kind=kind, feature_id=fid, arc=farc,
                                   t_arrival=t_arr, t_departure=t_dep,
                                   interpolated=interpolated))
    if events and n_interp > max_interp_fraction * len(events):
        raise InferenceError("too_sparse",
                             f"{n_interp}/{len(events)} features interpolated")
    return events


class LinkTimes(NamedTuple):
    total: float
    dwell: float
    intersections: tuple  # ((intersection_id, seconds, interpolated), ...)
    road: float


def decompose_link(stop_event: FeatureEvent, intersection_events,
                   prev_stop_departure: float) -> LinkTimes:
    """Split one link traversal into its time components.

    total = t_dep(stop) - t_dep(prev stop); dwell = stop event duration;
    road = t_arr(stop) - t_dep(prev stop) - sum of intersection durations.
    """
    total = stop_event.t_departure - prev_stop_departure
    dwell = stop_event.t_departure - stop_event.t_arrival
    xs = tuple((e.feature_id, e.duration, e.interpolated) for e in intersection_events)
    road = stop_event.t_arrival - prev_stop_departure - sum(x[1] for x in xs)
    if road <= 0.0:
        raise InferenceError("nonpositive_road_time",
                             f"road time {road:.3f}s at stop {stop_event.feature_id}")
    return LinkTimes(total=total, dwell=dwell, intersections=xs, road=road)


def space_mean_speed(ping_prev: ProjectedPing, ping_curr: ProjectedPing) -> float:
    """Arc distance over elapsed time between two consecutive records."""
    dt = ping_curr.timestamp - ping_prev.timestamp
    if dt <= 0.0:
        raise InferenceError("bad_pair", "timestamps must strictly increase")
    return (ping_curr.arc_pos - ping_prev.arc_pos) / dt


class TrafficIndicator(NamedTuple):
    value: int
    observed: bool


def traffic_indicator(open_road_speeds, threshold: float) -> TrafficIndicator:
    """1 if any open-road speed fell below the threshold; an empty list is
    reported as 0 with observed=False."""
    speeds = list(open_road_speeds)
    if not speeds:
        return TrafficIndicator(value=0, observed=False)
    return TrafficIndicator(value=1 if any(v < threshold for v in speeds) else 0,
                            observed=True)


class CovariateVector(NamedTuple):
    rain: int
    peak: int
    weekday: int
    traffic: int


def build_covariates(t: float, weather: WeatherTable, traffic: int,
                     tz_offset: float,
                     peak_hours=DEFAULT_PEAK_HOURS,
                     rain_labels=None) -> CovariateVector:
    """Covariates at a timestamp: rain from the weather table, peak from the
    local hour, weekday Mon-Fri, traffic passed through."""
    labels = DEFAULT_RAIN_LABELS if rain_labels is None else rain_labels
    local = local_datetime(t, tz_offset)
    rain = 1 if weather.condition(local.strftime("%Y-%m-%d"), local.hour) in labels else 0
    return CovariateVector(rain=rain,
                           peak=1 if local.hour in peak_hours else 0,
                           weekday=1 if local.weekday() < 5 else 0,
                           traffic=int(traffic))


class LinkObservation(NamedTuple):
    route_key: tuple
    link_index: int
    depart_prev: float
    total_time: float
    dwell_time: float
    intersection_times: tuple  # ((intersection_id, seconds, interpolated), ...)
    road_time: float
    covariates: CovariateVector
    flags: tuple = ()

    def identity_residual(self) -> float:
        parts = self.road_time + self.dwell_time + sum(x[1] for x in self.intersection_times)
        return self.total_time - parts


def group_by_link(observations) -> dict:
    """Observations per (route_key, link_index), keys in sorted order and
    each group in input order."""
    groups: dict = {}
    for o in observations:
        groups.setdefault((o.route_key, o.link_index), []).append(o)
    return {key: groups[key] for key in sorted(groups)}


def road_design(rows):
    """Road seconds and the n x 4 covariate matrix of the rows, in row order."""
    return (np.array([o.road_time for o in rows]),
            np.array([o.covariates for o in rows], dtype=float))


def intersection_samples(rows):
    """The intersection times that feed the log-normal fits: positive and
    not interpolated.

    Returns the samples per (route_key, intersection_id), all of them as
    one pool, and the count of the times left out per key; samples and
    pool in row order.
    """
    samples: dict = {}
    pool = []
    others: dict = {}
    for o in rows:
        for xid, secs, interpolated in o.intersection_times:
            key = (o.route_key, xid)
            if secs > 0.0 and not interpolated:
                samples.setdefault(key, []).append(secs)
                pool.append(secs)
            else:
                others[key] = others.get(key, 0) + 1
    return samples, pool, others


def resolve_threshold(speed_threshold, link_index: int) -> float:
    """The congestion threshold is configurable globally (a float) or per
    link (a mapping from link index, falling back to the global default)."""
    if isinstance(speed_threshold, dict):
        return float(speed_threshold.get(link_index,
                                         speed_threshold.get(None, DEFAULT_SPEED_THRESHOLD_MS)))
    return float(speed_threshold)


def observations_from_traversal(trav: Traversal, arcs: np.ndarray, rm: RouteModel,
                                weather: WeatherTable, *, tz_offset: float,
                                speed_threshold=DEFAULT_SPEED_THRESHOLD_MS,
                                peak_hours=DEFAULT_PEAK_HOURS,
                                rain_labels=None,
                                backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M):
    """Per-traversal inference from the pings' arc positions on the route:
    repair, detect, decompose.

    Returns (observations, skip_log); per-link failures are recorded and
    skipped rather than raised. InferenceError("too_sparse") and
    IngestError("missing_weather") propagate (the whole traversal is
    unusable).
    """
    keep = repair_mask(arcs, backward_tolerance)
    times, arcs = trav.timestamps[keep].astype(float).tolist(), arcs[keep].tolist()
    events = detect_events(times, arcs, rm)
    by_key = {(e.kind, e.arc): e for e in events}
    speeds_by_link = _open_road_speeds(times, arcs, rm)

    observations = []
    skip_log = []
    stop_arcs = dict(rm.projected_stops)
    x_arcs = dict(rm.projected_intersections)
    for link in rm.links:
        ev_prev = by_key.get(("stop", stop_arcs[link.from_stop]))
        ev_stop = by_key.get(("stop", stop_arcs[link.to_stop]))
        x_events = [by_key.get(("intersection", x_arcs[xid])) for xid in link.intersection_ids]
        if ev_prev is None or ev_stop is None or any(ev is None for ev in x_events):
            continue  # link not fully covered by this traversal
        try:
            lt = decompose_link(ev_stop, x_events, ev_prev.t_departure)
        except InferenceError as exc:
            skip_log.append(f"{trav.trip_id} link {link.index}: {exc}")
            continue
        traffic = traffic_indicator(speeds_by_link.get(link.index, []),
                                    resolve_threshold(speed_threshold, link.index))
        cov = build_covariates(ev_prev.t_departure, weather, traffic.value,
                               tz_offset, peak_hours, rain_labels)
        flags = ["interp_stop"] if ev_stop.interpolated else []
        flags += [f"interp_x={ev.feature_id}" for ev in x_events if ev.interpolated]
        if not traffic.observed:
            flags.append("unobs_traffic")
        observations.append(LinkObservation(
            route_key=rm.route_key, link_index=link.index,
            depart_prev=ev_prev.t_departure, total_time=lt.total,
            dwell_time=lt.dwell, intersection_times=lt.intersections,
            road_time=lt.road, covariates=cov, flags=tuple(flags)))
    return observations, skip_log


def open_road_link_of(arcs, rm: RouteModel) -> list:
    """Per arc position: the 1-based link index if it is open road inside a
    link, else -1 (in a buffer zone, boundary inclusive, or not strictly
    inside the stop span)."""
    feats, stops = rm.feature_arcs, rm.stop_arcs
    buffer = rm.buffer_radius
    tags = []
    for arc in arcs:
        k = bisect_left(feats, arc)
        in_zone = ((k > 0 and arc - feats[k - 1] <= buffer)
                   or (k < len(feats) and feats[k] - arc <= buffer))
        on_span = stops[0] < arc < stops[-1]
        tags.append(bisect_left(stops, arc) if on_span and not in_zone else -1)
    return tags


def _open_road_speeds(times, arcs, rm: RouteModel) -> dict:
    """Space-mean speeds of consecutive open-road ping pairs, per link."""
    tags = open_road_link_of(arcs, rm)
    speeds: dict = {}
    for j in range(1, len(arcs)):
        li = tags[j]
        if li >= 1 and tags[j - 1] == li and times[j] > times[j - 1]:
            speeds.setdefault(li, []).append((arcs[j] - arcs[j - 1]) / (times[j] - times[j - 1]))
    return speeds
