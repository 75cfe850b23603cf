"""Route geometry: arc-length projection, links, and buffer zones.

All distances are planar meters from an equirectangular projection
anchored at the route's centroid. Routes span well under 20 km, so the
flat-earth error is orders of magnitude below the 20 m buffer radius
that event detection works at.

The open-road rule, ``open_road_link_of``, is a fact about the route: a
position is open road when it lies strictly inside the stop span and
outside every buffer zone. ``RouteModel.open_road`` holds it as a step
table, built once per route model and read by infer and every
``markov.PredictionSession`` of the route.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .accel import project_onto_polyline
from .errors import GeometryError
from .ingest import StaticNetwork

EARTH_RADIUS_M = 6371000.0
DEFAULT_BUFFER_RADIUS_M = 20.0
DEFAULT_OFF_ROUTE_M = 30.0


@dataclass(frozen=True)
class Polyline:
    """Planar polyline with cumulative arc length per vertex."""

    xs: np.ndarray
    ys: np.ndarray
    cum: np.ndarray
    anchor_lat: float
    anchor_lon: float


def planar_xy(lats, lons, anchor_lat: float, anchor_lon: float):
    lat = np.radians(np.asarray(lats, dtype=float))
    lon = np.radians(np.asarray(lons, dtype=float))
    lat0 = np.radians(anchor_lat)
    lon0 = np.radians(anchor_lon)
    x = EARTH_RADIUS_M * (lon - lon0) * np.cos(lat0)
    y = EARTH_RADIUS_M * (lat - lat0)
    return x, y


def build_polyline(points) -> Polyline:
    """points: sequence of (lat, lon) with >= 2 entries, no consecutive dups."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise GeometryError("degenerate_shape", "polyline needs at least 2 points")
    anchor_lat = float(pts[:, 0].mean())
    anchor_lon = float(pts[:, 1].mean())
    xs, ys = planar_xy(pts[:, 0], pts[:, 1], anchor_lat, anchor_lon)
    seg = np.hypot(np.diff(xs), np.diff(ys))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return Polyline(xs=xs, ys=ys, cum=cum, anchor_lat=anchor_lat, anchor_lon=anchor_lon)


PROJECT_BLOCK = 1 << 12  # points per projection call: a route's work arrays stay small


def project_many(polyline: Polyline, lats, lons):
    """Arc position and perpendicular offset for a batch of lat/lon points.

    Ties between equidistant segments resolve to the smallest arc position.
    The coordinates must be finite: a NaN or infinite one raises
    GeometryError("non_finite").
    """
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    if not (np.isfinite(lats).all() and np.isfinite(lons).all()):
        raise GeometryError("non_finite", "coordinates must be finite numbers")
    arcs, offsets = np.empty(lats.shape[0]), np.empty(lats.shape[0])
    for lo in range(0, lats.shape[0], PROJECT_BLOCK):
        part = slice(lo, lo + PROJECT_BLOCK)
        qx, qy = planar_xy(lats[part], lons[part], polyline.anchor_lat, polyline.anchor_lon)
        arcs[part], offsets[part] = project_onto_polyline(qx, qy, polyline.xs, polyline.ys,
                                                          polyline.cum)
    return arcs, offsets


@dataclass(frozen=True)
class Link:
    index: int
    to_stop: str
    start_arc: float
    end_arc: float
    intersection_ids: tuple

    @property
    def length(self) -> float:
        return self.end_arc - self.start_arc


@dataclass(frozen=True)
class RouteModel:
    route_key: tuple
    polyline: Polyline
    projected_stops: tuple  # ((stop_id, arc), ...) strictly increasing in arc
    projected_intersections: tuple  # ((intersection_id, arc), ...) kept ones
    links: tuple  # (Link, ...)
    buffer_radius: float
    merge_log: tuple = field(default=())

    @property
    def first_arc(self) -> float:
        return self.projected_stops[0][1]

    @property
    def last_arc(self) -> float:
        return self.projected_stops[-1][1]

    @cached_property
    def features(self) -> tuple:
        """((kind, feature_id, arc), ...) over stops and intersections, by arc."""
        feats = [("stop", sid, arc) for sid, arc in self.projected_stops]
        feats += [("intersection", xid, arc) for xid, arc in self.projected_intersections]
        return tuple(sorted(feats, key=lambda f: f[2]))

    @cached_property
    def feature_arcs(self) -> tuple:
        return tuple(f[2] for f in self.features)

    @cached_property
    def stop_arcs(self) -> tuple:
        return tuple(arc for _, arc in self.projected_stops)

    @cached_property
    def link_features(self) -> tuple:
        """Per link: the positions in ``features`` of its start stop, its end
        stop and then its intersections."""
        stops = [k for k, f in enumerate(self.features) if f[0] == "stop"]
        xs = {f[1]: k for k, f in enumerate(self.features) if f[0] == "intersection"}
        return tuple((stops[link.index - 1], stops[link.index],
                      *(xs[xid] for xid in link.intersection_ids)) for link in self.links)

    @cached_property
    def open_road(self) -> tuple:
        """``open_road_link_of`` as a step table: ``edges``, the sorted floats where a
        comparison of the rule can change (each stop and the float above it, each
        feature, each zone's least arc and the float above its greatest), and ``tags``,
        -1 and the rule at each edge: ``tags[bisect_right(edges, arc)]`` for any arc,
        ``tags[np.searchsorted(edges, arcs, "right")]`` for an array."""
        feats, stops, r = self.feature_arcs, self.stop_arcs, self.buffer_radius
        edges = sorted({*stops, *(math.nextafter(s, math.inf) for s in stops), *feats,
                        *(zone_edge(f, r, t) for f in feats for t in (-math.inf, math.inf))})
        return tuple(edges), (-1, *open_road_link_of(edges, self))


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


def zone_edge(f: float, r: float, toward: float) -> float:
    """Where f's zone ``abs(x - f) <= r`` starts (toward -inf: its least float) or
    stops (+inf: the float above its greatest): bisected from f and f +- (2 r + 1),
    cut short by four ``nextafter`` steps from f +- r unless f +- r cancels."""
    inside, outside, x = f, f + math.copysign(2.0 * r + 1.0, toward), f + math.copysign(r, toward)
    for _ in range(4):
        inside, outside, x = ((x, outside, math.nextafter(x, toward)) if abs(x - f) <= r
                              else (inside, x, math.nextafter(x, -toward)))
    while (mid := inside / 2 + outside / 2) not in (inside, outside):
        inside, outside = (mid, outside) if abs(mid - f) <= r else (inside, mid)
    return inside if toward < 0 else outside


def _modal_trip(net: StaticNetwork, route_key) -> str:
    trips = [t for t in net.trips.values()
             if (t.route_id, t.direction_id) == tuple(route_key)]
    if not trips:
        raise GeometryError("no_trips", f"no trips for route {route_key}")
    counts = Counter(t.stop_ids for t in trips)
    top = max(counts.values())
    # deterministic tie break: highest count, then lexicographically smallest
    best_seq = min(s for s in counts if counts[s] == top)
    return min(t.trip_id for t in trips if t.stop_ids == best_seq)


def build_route_model(net: StaticNetwork, xs: tuple, route_key,
                      buffer_radius: float = DEFAULT_BUFFER_RADIUS_M,
                      off_route_m: float = DEFAULT_OFF_ROUTE_M) -> RouteModel:
    """Build the arc-length model for one (route_id, direction_id).

    The representative trip is the modal stop sequence among the route's
    trips. ``xs`` holds ``(intersection_id, lat, lon)`` per intersection, as
    ``ingest.load_intersections`` returns them. Intersections more than
    ``off_route_m`` from the shape are excluded; intersections whose buffer
    zone would overlap another feature's zone are merged away and recorded
    in the merge log.
    """
    trip = net.trips[_modal_trip(net, route_key)]
    polyline = build_polyline(net.shapes[trip.shape_id])

    stop_lats = [net.stops[s][0] for s in trip.stop_ids]
    stop_lons = [net.stops[s][1] for s in trip.stop_ids]
    arcs, offs = project_many(polyline, stop_lats, stop_lons)
    for k in range(1, len(arcs)):
        if arcs[k] <= arcs[k - 1]:
            raise GeometryError(
                "non_monotone_stops",
                f"stop {trip.stop_ids[k]} projects at {arcs[k]:.1f} m, not after "
                f"{trip.stop_ids[k - 1]} at {arcs[k - 1]:.1f} m")
    projected_stops = tuple((sid, float(a)) for sid, a in zip(trip.stop_ids, arcs))

    merge_log = []
    kept = []
    if xs:
        x_ids = [p[0] for p in xs]
        x_arcs, x_offs = project_many(polyline, [p[1] for p in xs], [p[2] for p in xs])
        order = np.argsort(x_arcs, kind="stable")
        first_arc, last_arc = float(arcs[0]), float(arcs[-1])
        stop_arcs = np.asarray(arcs, dtype=float)
        for i in order:
            xid, arc, off = x_ids[i], float(x_arcs[i]), float(x_offs[i])
            if off > off_route_m:
                merge_log.append((xid, "off_route", off))
                continue
            if not (first_arc < arc < last_arc):
                merge_log.append((xid, "off_extent", arc))
                continue
            if np.min(np.abs(stop_arcs - arc)) <= 2.0 * buffer_radius:
                merge_log.append((xid, "near_stop", arc))
                continue
            if kept and arc - kept[-1][1] <= 2.0 * buffer_radius:
                merge_log.append((xid, "near_intersection", arc))
                continue
            kept.append((xid, arc))

    links = []
    for i in range(1, len(projected_stops)):
        a0, a1 = projected_stops[i - 1][1], projected_stops[i][1]
        in_link = tuple(xid for xid, arc in kept if a0 < arc < a1)
        links.append(Link(index=i, to_stop=projected_stops[i][0],
                          start_arc=a0, end_arc=a1, intersection_ids=in_link))

    return RouteModel(route_key=tuple(route_key), polyline=polyline,
                      projected_stops=projected_stops,
                      projected_intersections=tuple(kept),
                      links=tuple(links), buffer_radius=buffer_radius,
                      merge_log=tuple(merge_log))

