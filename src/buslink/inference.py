"""Buffer-zone event detection and link travel-time decomposition.

A projected traversal becomes a sequence of feature events (first ping
inside a feature's buffer zone = arrival, first subsequent ping outside
= departure). Features jumped between pings get a synthetic event at the
linearly interpolated crossing time, flagged ``interpolated``. Events
then decompose each link's total time into road, dwell, and
per-intersection components; the decomposition identity
``total = road + dwell + sum(intersections)`` holds exactly by
construction.

Infer and ``markov.PredictionSession`` read the rules ``pipeline`` builds
once per run, ``covariates(t, traffic)`` and ``thresholds[link]``, and one
link lookup: the link at a position is ``bisect_right(rm.stop_arcs, arc)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InferenceError
from .geometry import RouteModel, project_many
from .ingest import Traversal, WeatherTable, local_day_hour

DEFAULT_PEAK_HOURS = frozenset({7, 8, 16, 17})
DEFAULT_BACKWARD_TOLERANCE_M = 5.0
MAX_INTERP_FRACTION = 0.5  # of the crossed features; above it a traversal is too sparse


@dataclass(slots=True)
class ProjectedPing:
    timestamp: float
    arc_pos: float


def project_traversal(trav: Traversal, rm: RouteModel) -> list:
    arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
    return list(map(ProjectedPing, trav.timestamps.astype(float).tolist(), arcs.tolist()))


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


def detect_events(times, arcs, rm: RouteModel) -> list:
    """Per position of ``rm.features``: ``(t_arrival, t_departure,
    interpolated)`` if the traversal crossed that feature, else None.

    ``times`` and ``arcs`` are the pings' lists after the monotone repair.
    Raises InferenceError("too_sparse") when more than
    ``MAX_INTERP_FRACTION`` of the crossed features had to be interpolated.
    """
    n = len(arcs)
    buffer = rm.buffer_radius

    events = [None] * len(rm.features)
    n_crossed = n_interp = 0
    i = 0
    prev_dep = -np.inf
    for f, farc in enumerate(rm.feature_arcs):
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
        events[f] = (t_arr, t_dep, interpolated)
        n_crossed += 1
    if n_interp > MAX_INTERP_FRACTION * n_crossed:
        raise InferenceError("too_sparse",
                             f"{n_interp}/{n_crossed} features interpolated")
    return events


def space_mean_speed(ping_prev: ProjectedPing, ping_curr: ProjectedPing) -> float:
    """Arc distance over elapsed time between two consecutive records."""
    dt = ping_curr.timestamp - ping_prev.timestamp
    if dt <= 0.0:
        raise InferenceError("bad_pair", "timestamps must strictly increase")
    return (ping_curr.arc_pos - ping_prev.arc_pos) / dt


class CovariateVector(NamedTuple):
    rain: int
    peak: int
    weekday: int
    traffic: int


def build_covariates(t: float, weather: WeatherTable, traffic: int, tz_offset: float,
                     peak_hours, rain_labels) -> CovariateVector:
    """Covariates at a timestamp: rain from the weather table, peak from the
    local hour, weekday Mon-Fri, traffic passed through."""
    day, hour = local_day_hour(t, tz_offset)
    rain = 1 if weather.condition(day, hour) in rain_labels else 0
    return CovariateVector(rain=rain,
                           peak=1 if hour in peak_hours else 0,
                           weekday=1 if (day + 3) % 7 < 5 else 0,
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


def observations_from_traversal(trav: Traversal, arcs: np.ndarray, rm: RouteModel,
                                covariates, thresholds,
                                backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M):
    """Per-traversal inference from the pings' arc positions on the route:
    repair, detect, decompose.

    A link the traversal covered from its start stop's departure to its
    end stop's departure gives total = t_dep(stop) - t_dep(prev stop),
    dwell = t_dep(stop) - t_arr(stop) and road = t_arr(stop) -
    t_dep(prev stop) - sum of its intersection durations. Its traffic
    covariate is 1 when its slowest open-road ping pair is below
    ``thresholds[link]``, and 0 with the flag ``unobs_traffic`` when it
    has no open-road pair; ``covariates(t, traffic)`` at the start stop's
    departure gives its covariate vector.

    Returns (observations, skip_log); a link whose road time is not
    positive is recorded and skipped rather than raised.
    InferenceError("too_sparse") and IngestError("missing_weather")
    propagate (the whole traversal is unusable).
    """
    keep = repair_mask(arcs, backward_tolerance)
    times, arcs = trav.timestamps[keep].astype(float).tolist(), arcs[keep].tolist()
    events = detect_events(times, arcs, rm)
    slowest = _open_road_speeds(times, arcs, rm)

    observations = []
    skip_log = []
    for link, positions in zip(rm.links, rm.link_features):
        link_events = [events[f] for f in positions]
        if None in link_events:
            continue  # link not fully covered by this traversal
        (_, depart_prev, _), (arrive, depart, interp_stop), *x_events = link_events
        xs = tuple((xid, t_dep - t_arr, interpolated)
                   for xid, (t_arr, t_dep, interpolated) in zip(link.intersection_ids, x_events))
        road = arrive - depart_prev - sum(x[1] for x in xs)
        if road <= 0.0:
            skip_log.append(f"{trav.trip_id} link {link.index}: nonpositive_road_time: "
                            f"road time {road:.3f}s at stop {link.to_stop}")
            continue
        speed = slowest.get(link.index)
        cov = covariates(depart_prev, speed is not None and speed < thresholds[link.index])
        flags = ["interp_stop"] if interp_stop else []
        flags += [f"interp_x={xid}" for xid, _, interpolated in xs if interpolated]
        if speed is None:
            flags.append("unobs_traffic")
        observations.append(LinkObservation(
            route_key=rm.route_key, link_index=link.index,
            depart_prev=depart_prev, total_time=depart - depart_prev,
            dwell_time=depart - arrive, intersection_times=xs,
            road_time=road, covariates=cov, flags=tuple(flags)))
    return observations, skip_log


def open_road_link_of(arcs, rm: RouteModel) -> list:
    """Per arc position: the 1-based link index (``bisect_right`` over the
    stop arcs) if it is open road inside a link, else -1 (in a buffer zone,
    boundary inclusive, or not strictly inside the stop span)."""
    feats, stops = rm.feature_arcs, rm.stop_arcs
    buffer = rm.buffer_radius
    tags = []
    for arc in arcs:
        k = bisect_left(feats, arc)
        in_zone = ((k > 0 and arc - feats[k - 1] <= buffer)
                   or (k < len(feats) and feats[k] - arc <= buffer))
        on_span = stops[0] < arc < stops[-1]
        tags.append(bisect_right(stops, arc) if on_span and not in_zone else -1)
    return tags


def _open_road_speeds(times, arcs, rm: RouteModel) -> dict:
    """Per link, the lowest space-mean speed of its consecutive open-road
    ping pairs; a link without such a pair is absent."""
    tags = open_road_link_of(arcs, rm)
    slowest: dict = {}
    for j in range(1, len(arcs)):
        li = tags[j]
        if li >= 1 and tags[j - 1] == li and times[j] > times[j - 1]:
            v = (arcs[j] - arcs[j - 1]) / (times[j] - times[j - 1])
            slowest[li] = min(v, slowest.get(li, v))
    return slowest
