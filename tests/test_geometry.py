import math

import numpy as np
import pytest

from buslink.errors import GeometryError
from buslink.geometry import (EARTH_RADIUS_M, Polyline, build_polyline,
                              build_route_model, project_many)
from buslink.ingest import StaticNetwork, Trip

from conftest import feature_zone_test

LAT0 = 29.65
LON0 = -82.33


def lon_at(meters: float) -> float:
    return LON0 + math.degrees(meters / (EARTH_RADIUS_M * math.cos(math.radians(LAT0))))


def lat_at(meters: float) -> float:
    return LAT0 + math.degrees(meters / EARTH_RADIUS_M)


def straight_polyline(length=1000.0, n=3) -> Polyline:
    pts = [(LAT0, lon_at(length * k / (n - 1))) for k in range(n)]
    return build_polyline(pts)


def test_project_point_midpoint():
    pl = straight_polyline()
    (arc,), (off,) = project_many(pl, [LAT0], [lon_at(500.0)])
    assert arc == pytest.approx(500.0, abs=1e-3)
    assert off == pytest.approx(0.0, abs=1e-6)


def test_project_point_perpendicular():
    pl = straight_polyline()
    (arc,), (off,) = project_many(pl, [lat_at(30.0)], [lon_at(500.0)])
    assert arc == pytest.approx(500.0, abs=0.1)
    assert off == pytest.approx(30.0, abs=0.1)


def test_project_point_l_shape_tie_smaller_arc():
    # east leg then north leg in exact planar meters; the query is exactly
    # equidistant from both legs and the tie goes to the smaller arc position
    from buslink.accel import project_onto_polyline
    vx = np.array([0.0, 1000.0, 1000.0])
    vy = np.array([0.0, 0.0, 1000.0])
    cum = np.array([0.0, 1000.0, 2000.0])
    arc, off = project_onto_polyline(np.array([990.0]), np.array([10.0]), vx, vy, cum)
    assert off[0] == pytest.approx(10.0, abs=1e-12)
    assert arc[0] == pytest.approx(990.0, abs=1e-12)


def test_project_point_clamps_to_ends():
    pl = straight_polyline()
    (arc,), (off,) = project_many(pl, [LAT0], [lon_at(-50.0)])
    assert arc == pytest.approx(0.0, abs=1e-6)
    assert off == pytest.approx(50.0, abs=0.1)


@pytest.mark.parametrize("lat, lon", [(math.nan, lon_at(500.0)), (LAT0, math.inf)])
def test_non_finite_ping_rejected_before_the_kernel(monkeypatch, lat, lon):
    """The kernel and its scalar reference disagree on a non-finite point
    (arc inf against 0.0), so such a point never reaches either."""
    from buslink import geometry

    def kernel(*args):
        raise AssertionError("non-finite point reached the kernel")

    monkeypatch.setattr(geometry, "project_onto_polyline", kernel)
    with pytest.raises(GeometryError) as e:
        project_many(straight_polyline(), [LAT0, lat], [lon_at(100.0), lon])
    assert e.value.kind == "non_finite"


def test_vertex_projection_recovers_cumulative_length():
    pts = [(LAT0, lon_at(0)), (LAT0, lon_at(400)), (lat_at(300), lon_at(400)),
           (lat_at(300), lon_at(900))]
    pl = build_polyline(pts)
    for k in range(len(pts)):
        (arc,), (off,) = project_many(pl, [pts[k][0]], [pts[k][1]])
        assert arc == pytest.approx(pl.cum[k], abs=1e-6)
        assert off == pytest.approx(0.0, abs=1e-6)


def network_with(stop_arcs, x_arcs, off_meters=0.0):
    stops = {f"S{i}": (lat_at(off_meters), lon_at(a), f"Stop {i}")
             for i, a in enumerate(stop_arcs)}
    total = max(stop_arcs) + 50.0
    shape = tuple((LAT0, lon_at(total * k / 10)) for k in range(11))
    trips = {"T1": Trip(trip_id="T1", route_id="R", direction_id=0, shape_id="S",
                        stop_ids=tuple(f"S{i}" for i in range(len(stop_arcs))))}
    net = StaticNetwork(routes=(("R", 0),), shapes={"S": shape}, stops=stops, trips=trips)
    xs = tuple((xid, LAT0, lon_at(a)) for xid, a in x_arcs)
    return net, xs


def test_build_route_model_single_link():
    net, xs = network_with([0.0, 800.0], [("X1", 400.0)])
    rm = build_route_model(net, xs, ("R", 0))
    assert len(rm.links) == 1
    assert rm.links[0].length == pytest.approx(800.0, abs=1e-3)
    assert rm.links[0].intersection_ids == ("X1",)


def test_intersection_near_stop_dropped_and_logged():
    net, xs = network_with([0.0, 800.0], [("X1", 790.0)])
    rm = build_route_model(net, xs, ("R", 0))
    assert rm.projected_intersections == ()
    assert any(entry[0] == "X1" and entry[1] == "near_stop" for entry in rm.merge_log)


def test_off_route_intersection_excluded():
    net, _ = network_with([0.0, 800.0], [])
    xs = (("X1", lat_at(45.0), lon_at(400.0)),)
    rm = build_route_model(net, xs, ("R", 0))
    assert rm.projected_intersections == ()
    assert rm.merge_log[0][1] == "off_route"


def test_adjacent_intersections_merged():
    net, xs = network_with([0.0, 800.0], [("X1", 300.0), ("X2", 330.0)])
    rm = build_route_model(net, xs, ("R", 0))
    assert [x[0] for x in rm.projected_intersections] == ["X1"]
    assert any(e[0] == "X2" and e[1] == "near_intersection" for e in rm.merge_log)


def test_three_stop_link_lengths():
    net, xs = network_with([0.0, 500.0, 1200.0], [])
    rm = build_route_model(net, xs, ("R", 0))
    assert [l.length for l in rm.links] == [pytest.approx(500.0, abs=1e-3),
                                            pytest.approx(700.0, abs=1e-3)]


def test_link_lengths_sum_to_stop_span():
    net, xs = network_with([0.0, 500.0, 1200.0, 1500.0], [("X1", 250.0), ("X2", 900.0)])
    rm = build_route_model(net, xs, ("R", 0))
    total = sum(l.length for l in rm.links)
    assert total == pytest.approx(rm.last_arc - rm.first_arc, abs=1e-6)


def test_no_trips_error():
    net, xs = network_with([0.0, 800.0], [])
    with pytest.raises(GeometryError) as e:
        build_route_model(net, xs, ("R", 1))
    assert e.value.kind == "no_trips"


def test_non_monotone_stop_projection_rejected():
    # the trip's stop order disagrees with the projected arc order
    net, xs = network_with([0.0, 800.0], [])
    trip = net.trips["T1"]
    from buslink.ingest import StaticNetwork, Trip
    reversed_trip = Trip(trip_id="T1", route_id="R", direction_id=0, shape_id="S",
                         stop_ids=tuple(reversed(trip.stop_ids)))
    net2 = StaticNetwork(routes=net.routes, shapes=net.shapes, stops=net.stops,
                         trips={"T1": reversed_trip})
    with pytest.raises(GeometryError) as e:
        build_route_model(net2, xs, ("R", 0))
    assert e.value.kind == "non_monotone_stops"


def test_zone_test_boundaries():
    net, xs = network_with([0.0, 800.0], [("X1", 400.0)])
    rm = build_route_model(net, xs, ("R", 0))
    assert feature_zone_test(rm, 785.0).feature_id == "S1"
    assert feature_zone_test(rm, 779.9).kind == "road"
    assert feature_zone_test(rm, 420.0).feature_id == "X1"  # inclusive boundary
    assert feature_zone_test(rm, 420.1).kind == "road"


def test_zone_sequence_matches_feature_order():
    net, xs = network_with([0.0, 500.0, 1200.0], [("X1", 250.0), ("X2", 900.0)])
    rm = build_route_model(net, xs, ("R", 0))
    seen = []
    for arc in np.arange(0.0, 1200.0, 1.0):
        z = feature_zone_test(rm, float(arc))
        if z.kind != "road" and (not seen or seen[-1] != z.feature_id):
            seen.append(z.feature_id)
    assert seen == ["S0", "X1", "S1", "X2", "S2"]

