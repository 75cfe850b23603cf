"""Buffer-zone event detection and link travel-time decomposition.

A projected traversal becomes a sequence of feature events (first ping
inside a feature's buffer zone = arrival, first subsequent ping outside
= departure). Features jumped between pings get a synthetic event at the
linearly interpolated crossing time, flagged ``interpolated``. Events
then decompose each link's total time into road, dwell, and
per-intersection components; the decomposition identity
``total = road + dwell + sum(intersections)`` holds exactly by
construction.

``route_observations`` makes one array pass per route over the
concatenated pings of its traversals: the repair, the open-road tags and
the slowest speed per (traversal, link) are array operations, event
detection stays a scalar scan per traversal, and the decomposition runs
link by link across all traversals into an ``ObservationTable``.

Infer and ``markov.PredictionSession`` read the rules ``pipeline`` builds
once per run, ``covariates(t, traffic)`` and ``thresholds[link]``, one
link lookup, ``bisect_right(rm.stop_arcs, arc)``, and one open-road rule,
``geometry.open_road_link_of``, through the route model's table
``rm.open_road``, built once per route model: a ping reads its tag by
``bisect_right`` over the edges, an array by ``np.searchsorted``. A pair
is open road when both pings are on one link and time strictly increases.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import InferenceError
from .geometry import PROJECT_BLOCK, RouteModel, open_road_link_of, project_many
from .ingest import Traversal, WeatherTable, local_day_hour
from .store import CovariateVector, ObservationTable

DEFAULT_PEAK_HOURS = frozenset({7, 8, 16, 17})
DEFAULT_BACKWARD_TOLERANCE_M = 5.0
MAX_INTERP_FRACTION = 0.5  # of the crossed features; above it a traversal is too sparse


class ProjectedPing(NamedTuple):
    """A (time, arc) pair, all that ``markov.PredictionSession`` reads of a ping."""
    timestamp: float
    arc_pos: float


def project_traversal(trav: Traversal, rm: RouteModel) -> list:
    """The traversal's ``ProjectedPing``s, for perfbench alone (ROADMAP item 2)."""
    arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
    return list(map(ProjectedPing._make, zip(trav.timestamps.astype(float).tolist(),
                                             arcs.tolist())))


def repair_mask(arcs, backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M) -> np.ndarray:
    """Keep mask of the monotone repair: drop a ping that regresses more than
    the tolerance (>= 0) behind the running maximum arc position (GPS jitter
    near stops). A dropped ping never raises that maximum, and ``fmax`` skips
    NaN as the comparison does, so it is the maximum over the kept pings."""
    arcs = np.asarray(arcs, dtype=float)
    return ~(arcs < np.fmax.accumulate(arcs) - backward_tolerance)


def repair_monotonic(pps, backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M) -> list:
    """The projected pings that ``repair_mask`` keeps, for perfbench alone (ROADMAP item 2)."""
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


def observations_from_traversal(trav: Traversal, arcs: np.ndarray, rm: RouteModel,
                                covariates, thresholds,
                                backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M):
    """``route_observations`` of one traversal: its ``LinkObservation``s in
    link order and its skip log. Too sparse, it raises the InferenceError."""
    table, skips, _ = route_observations([(rm, [trav], arcs)], covariates, thresholds,
                                         backward_tolerance, strict=True)
    return list(table), skips


def route_observations(routes: list, covariates, thresholds,
                       backward_tolerance: float = DEFAULT_BACKWARD_TOLERANCE_M,
                       strict: bool = False) -> tuple:
    """Repair, detect and decompose in one array pass per ``(rm, travs,
    arcs)`` of ``routes``: a route model, traversals and their pings' arcs.

    A link covered from its start stop's departure to its end stop's gives
    total = t_dep(stop) - t_dep(prev), dwell = t_dep(stop) - t_arr(stop) and
    road = t_arr(stop) - t_dep(prev) - its intersection times in link order.
    Traffic is 1 when its slowest open-road ping pair is below
    ``thresholds[link]``, else 0, flagged ``unobs_traffic`` if it has none.
    ``covariates(t_dep(prev), traffic)`` runs per row in the order of
    ``routes``, traversals and links. Returns the ``ObservationTable``
    ordered by route key, link and departure; the skip log in the order of
    ``routes`` and traversals (a traversal too sparse to use, raised with
    ``strict``, or a link whose road time is not positive); and the number
    of traversals that gave a row.
    """
    by_key = sorted(range(len(routes)), key=lambda r: routes[r][0].route_key)
    x_ids = sorted({xid for rm, _, _ in routes for link in rm.links
                    for xid in link.intersection_ids})
    # per link: its row columns and its intersection columns, after an empty entry
    none, empty = np.zeros(0, np.int64), np.zeros(0)
    rows = [(none, none, none, empty, empty, empty, empty, none > 0, none)]
    xs, flags, skips = [(none, empty, none > 0)], [], []
    for r in by_key:  # so that the rows come in table order
        rm, travs, arcs = routes[r]
        sizes = [t.timestamps.shape[0] for t in travs]
        keep = np.concatenate([repair_mask(a, backward_tolerance)
                               for a in np.split(arcs, np.cumsum(sizes)[:-1])])
        traversal = np.repeat(np.arange(len(travs)), sizes)[keep]
        times = np.concatenate([t.timestamps for t in travs])[keep].astype(float)
        arcs = arcs[keep]
        cuts = np.searchsorted(traversal, np.arange(1, len(travs)))
        used, events = [], []
        for u, (trav, t, a) in enumerate(zip(travs, np.split(times, cuts), np.split(arcs, cuts))):
            try:
                events += [e or (np.nan, np.nan, False)
                           for e in detect_events(t.tolist(), a.tolist(), rm)]
                used.append(u)
            except InferenceError as exc:
                if strict:
                    raise
                skips.append((r, u, 0, f"{trav.trip_id}@{trav.timestamps[0]}: {exc}"))
        # per used traversal and feature: arrival, departure, interpolated; nan if not crossed
        events = np.array(events, dtype=float).reshape(len(used), len(rm.features), 3)
        slowest = slowest_speeds(times, arcs, traversal, len(travs), rm)[used]
        used = np.array(used, dtype=np.int64)
        for link, positions in zip(rm.links, rm.link_features):
            t_arr, t_dep, interp = events[:, positions].transpose(2, 0, 1)
            x = t_dep[:, 2:] - t_arr[:, 2:]
            road = t_arr[:, 1] - t_dep[:, 0] - reduce(add, x.T, 0.0)  # nan: link not covered
            for u, v in zip(used[road <= 0.0].tolist(), road[road <= 0.0].tolist()):
                skips.append((r, u, link.index, f"{travs[u].trip_id} link {link.index}: "
                              f"nonpositive_road_time: road time {v:.3f}s at stop {link.to_stop}"))
            ok = np.flatnonzero(road > 0.0)
            ok = ok[np.argsort(t_dep[ok, 0], kind="stable")]  # ties in traversal order
            t_arr, t_dep, interp, x, road = t_arr[ok], t_dep[ok], interp[ok] > 0, x[ok], road[ok]
            speed, n = slowest[ok, link.index], road.shape[0]
            rows.append((np.full(n, r), used[ok], np.full(n, link.index), t_dep[:, 0],
                         t_dep[:, 1] - t_dep[:, 0], t_dep[:, 1] - t_arr[:, 1], road,
                         speed < thresholds[link.index], np.full(n, x.shape[1])))
            codes = np.array([x_ids.index(xid) for xid in link.intersection_ids], np.int64)
            xs.append((np.tile(codes, n), x.ravel(), interp[:, 2:].ravel()))
            names = ["interp_stop", *(f"interp_x={xid}" for xid in link.intersection_ids),
                     "unobs_traffic"]
            marks = np.column_stack((interp[:, 1:], speed == np.inf)).tolist()
            flags += [";".join(compress(names, m)) for m in marks]
    r, traversal, link, depart_prev, total, dwell, road, traffic, x_count = map(np.concatenate,
                                                                          zip(*rows))
    x_id, x_secs, x_interp = map(np.concatenate, zip(*xs))
    calls = np.lexsort((link, traversal, r))
    covariate_rows = np.empty((calls.shape[0], 4))
    covariate_rows[calls] = np.reshape(
        [covariates(t, f) for t, f in zip(depart_prev[calls].tolist(), traffic[calls].tolist())],
        (-1, 4))
    table = ObservationTable(
        route_keys=[routes[i][0].route_key for i in by_key], route=np.argsort(by_key)[r],
        link=link, depart_prev=depart_prev, total=total, dwell=dwell, road=road,
        covariates=covariate_rows, flags=flags, x_ids=x_ids,
        x_row=np.repeat(np.arange(link.shape[0]), x_count), x_id=x_id, x_secs=x_secs,
        x_interp=x_interp)
    n_used = len(set(zip(r.tolist(), traversal.tolist())))
    return table, [entry for *_, entry in sorted(skips)], n_used


def slowest_speeds(times: np.ndarray, arcs: np.ndarray, traversal: np.ndarray, n: int,
                   rm: RouteModel) -> np.ndarray:
    """``_open_road_speeds`` of ``n`` traversals at once, from their pings in
    order with each ping's traversal number: per (traversal, link index) the
    lowest speed, inf where the traversal has no open-road pair on the link.
    Pairs are taken ``PROJECT_BLOCK`` pings at a time, to keep work arrays small."""
    edges, link_of = map(np.asarray, rm.open_road)
    slowest = np.full((n, len(rm.links) + 1), np.inf)
    for lo in range(0, arcs.shape[0], PROJECT_BLOCK):
        part = slice(max(lo - 1, 0), lo + PROJECT_BLOCK)  # the block's pairs, and the ping before
        t, a, v = times[part], arcs[part], traversal[part]
        tags = link_of[np.searchsorted(edges, a, "right")]
        j = 1 + np.flatnonzero((tags[1:] >= 1) & (tags[1:] == tags[:-1])
                               & (v[1:] == v[:-1]) & (t[1:] > t[:-1]))
        np.minimum.at(slowest, (v[j], tags[j]), (a[j] - a[j - 1]) / (t[j] - t[j - 1]))
    return slowest


def _open_road_speeds(times, arcs, rm: RouteModel) -> dict:
    """Per link, the lowest space-mean speed of its consecutive open-road
    ping pairs; a link without such a pair is absent. The loop reference
    for ``slowest_speeds``."""
    tags = open_road_link_of(arcs, rm)
    slowest: dict = {}
    for j in range(1, len(arcs)):
        li = tags[j]
        if li >= 1 and tags[j - 1] == li and times[j] > times[j - 1]:
            v = (arcs[j] - arcs[j - 1]) / (times[j] - times[j - 1])
            slowest[li] = min(v, slowest.get(li, v))
    return slowest
