import math
import struct
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from buslink import inference
from buslink.errors import InferenceError
from buslink.geometry import RouteModel, build_route_model
from buslink.inference import (DEFAULT_PEAK_HOURS, ProjectedPing, _open_road_speeds,
                               build_covariates, detect_events, observations_from_traversal,
                               open_road_link_of, repair_mask, repair_monotonic, route_observations,
                               slowest_speeds)
from buslink.ingest import DEFAULT_RAIN_LABELS, Traversal, load_weather
from buslink.pipeline import RunConfig, covariates_for

from conftest import feature_zone_test, link_scan
from test_geometry import network_with


@pytest.fixture
def single_link_rm():
    net, xs = network_with([0.0, 800.0], [("X1", 400.0)])
    return build_route_model(net, xs, ("R", 0))


def pp(t, arc):
    return ProjectedPing(timestamp=float(t), arc_pos=float(arc))


def events_of(pings, rm):
    return detect_events([p.timestamp for p in pings], [p.arc_pos for p in pings], rm)


def arcs_of(rm):
    return {sid: a for sid, a in rm.projected_stops}


# positions in single_link_rm.features
S0, X1, S1 = 0, 1, 2


class TestDetectEvents:
    def test_zone_entry_and_exit(self, single_link_rm):
        # stop S1 near arc 800, buffer 20: 770 road, 790 in, 805 in, 825 out
        pings = [pp(0, 770), pp(10, 790), pp(20, 805), pp(30, 825)]
        assert events_of(pings, single_link_rm)[S1] == (10, 30, False)

    def test_jumped_feature_interpolated(self, single_link_rm):
        # X1 observed (395 and 405 inside its zone), S1 jumped between 700 and 900
        pings = [pp(0, 395), pp(10, 405), pp(20, 700), pp(40, 900)]
        events = events_of(pings, single_link_rm)
        assert events[X1] == (0, 20, False)
        t_arrival, t_departure, interpolated = events[S1]
        assert interpolated
        stop_arc = arcs_of(single_link_rm)["S1"]
        expected = 20 + (stop_arc - 700) / (900 - 700) * 20
        assert t_arrival == pytest.approx(expected, abs=1e-6)
        assert t_departure == t_arrival

    def test_dwell_with_jitter(self, single_link_rm):
        pings = [pp(0, 790), pp(10, 795), pp(20, 792), pp(30, 825)]
        assert events_of(pings, single_link_rm)[S1] == (0, 30, False)

    def test_too_sparse(self, single_link_rm):
        # both X1 and S1 jumped: 2 of 2 crossed features interpolated
        pings = [pp(0, 30), pp(60, 830)]
        with pytest.raises(InferenceError) as e:
            events_of(pings, single_link_rm)
        assert e.value.kind == "too_sparse"

    def test_event_times_monotone(self, single_link_rm):
        pings = [pp(0, 30), pp(10, 200), pp(25, 370), pp(40, 430), pp(50, 600),
                 pp(62, 790), pp(75, 830)]
        events = [e for e in events_of(pings, single_link_rm) if e is not None]
        assert len(events) == 2
        for (_, a_dep, _), (b_arr, _, _) in zip(events, events[1:]):
            assert a_dep <= b_arr


class AnyWeather:
    def condition(self, date, hour):
        return "Rain" if hour % 2 else "Clear"


COVARIATES = covariates_for(RunConfig(tz_offset=-5.0), AnyWeather())


def infer(rm, pings, speed_threshold=5.0):
    """observations_from_traversal on (timestamp, arc) pairs, one threshold
    for every link."""
    ts = np.array([t for t, _ in pings], dtype=np.int64)
    trav = Traversal("T1", "V1", ts, np.zeros(len(ts)), np.zeros(len(ts)))
    thresholds = RunConfig(speed_threshold=speed_threshold).speed_threshold_by_link
    return observations_from_traversal(trav, np.array([a for _, a in pings], dtype=float), rm,
                                       COVARIATES, thresholds)


class TestDecompose:
    """Link times of crafted traversals over S0 (arc 0) -> X1 (400) -> S1
    (800), buffer 20."""

    def test_worked_example(self, single_link_rm):
        # S0 left at 100, X1 from 120 to 135, S1 from 150 to 160
        pings = [(90, 0), (100, 30), (110, 200), (120, 390), (135, 430), (150, 790), (160, 830)]
        (obs,), skips = infer(single_link_rm, pings)
        assert skips == []
        assert obs.depart_prev == 100.0
        assert obs.total_time == 60.0
        assert obs.dwell_time == 10.0
        assert obs.intersection_times == (("X1", 15.0, False),)
        assert obs.road_time == 35.0
        assert obs.road_time + obs.dwell_time + 15.0 == obs.total_time
        assert obs.flags == ()

    def test_skipped_stop(self, single_link_rm):
        # S1 jumped between 700 and 900: arrival = departure, interpolated
        pings = [(90, 0), (100, 30), (110, 390), (120, 430), (130, 700), (150, 900)]
        (obs,), _ = infer(single_link_rm, pings)
        t_stop = 100.0 + obs.total_time
        assert t_stop == pytest.approx(130 + (arcs_of(single_link_rm)["S1"] - 700) / 10, abs=1e-6)
        assert obs.road_time == t_stop - 100.0 - 10.0
        assert obs.dwell_time == 0.0
        assert obs.flags == ("interp_stop",)

    def test_interpolated_intersection_zero_kept_in_identity(self, single_link_rm):
        # X1 jumped between 300 and 500; S1 from 150 to 158
        pings = [(90, 0), (100, 30), (110, 300), (130, 500), (150, 790), (158, 830)]
        (obs,), _ = infer(single_link_rm, pings)
        assert obs.intersection_times == (("X1", 0.0, True),)
        assert obs.road_time == 50.0
        assert obs.total_time == obs.road_time + obs.dwell_time + 0.0
        assert obs.flags == ("interp_x=X1",)

    def test_nonpositive_road_time(self, single_link_rm):
        # zone to zone with no road between: S0 -> X1 at 110, X1 -> S1 at 130
        pings = [(100, 10), (110, 390), (120, 410), (130, 790), (140, 830)]
        observations, skips = infer(single_link_rm, pings)
        assert observations == []
        assert skips == ["T1 link 1: nonpositive_road_time: road time 0.000s at stop S1"]


def through_link(speeds, dt=2):
    """Pings over single_link_rm whose open-road pairs have the given
    space-mean speeds (dt seconds apart, before X1); the other pairs
    touch a buffer zone."""
    arcs = 30.0 + np.cumsum([0.0] + [dt * v for v in speeds])
    pings = [(0, 0.0)] + [(10 + dt * k, a) for k, a in enumerate(arcs)]
    t = pings[-1][0]
    return pings + [(t + 10, 400.0), (t + 20, 430.0), (t + 30, 790.0), (t + 40, 830.0)]


class TestSpeeds:
    def test_traffic_indicator(self, single_link_rm):
        for speeds, traffic, flags in (([7.5, 2.0, 8.0], 1, ()), ([7.5, 8.0], 0, ()),
                                       ([], 0, ("unobs_traffic",))):
            (obs,), _ = infer(single_link_rm, through_link(speeds), speed_threshold=5.0)
            assert (obs.covariates.traffic, obs.flags) == (traffic, flags)

    def test_per_link_threshold_resolution(self):
        assert RunConfig().speed_threshold_by_link[3] == 5.0
        table = RunConfig(speed_threshold=4.5, link_speed_thresholds="2:3.5").speed_threshold_by_link
        assert (table[1], table[2], table[3]) == (4.5, 3.5, 4.5)

    def test_traffic_monotone_in_threshold(self, single_link_rm):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pings = through_link(rng.uniform(0, 15, size=rng.integers(1, 8)))
            flags = [infer(single_link_rm, pings, speed_threshold=v)[0][0].covariates.traffic
                     for v in (2.0, 5.0, 8.0, 12.0)]
            assert flags == sorted(flags)


class TestCovariates:
    @pytest.fixture
    def weather(self, tmp_path):
        rows = ["date,hour,condition"]
        for d in ("2023-09-05", "2023-09-09", "2023-09-08"):
            for h in range(24):
                wet = "Rain" if (d == "2023-09-09" or (d == "2023-09-05" and h == 6)) else "Clear"
                rows.append(f"{d},{h},{wet}")
        p = tmp_path / "w.csv"
        p.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return load_weather(p)

    def _posix_local(self, date, hh, mm, tz=-5.0):
        from datetime import datetime, timezone
        base = datetime.strptime(date, "%Y-%m-%d").replace(tzinfo=timezone.utc)
        return base.timestamp() + hh * 3600 + mm * 60 - tz * 3600

    def test_tuesday_peak_clear(self, weather):
        t = self._posix_local("2023-09-05", 8, 30)  # Tuesday
        cov = build_covariates(t, weather, 0, -5.0, DEFAULT_PEAK_HOURS, DEFAULT_RAIN_LABELS)
        assert cov == (0, 1, 1, 0)

    def test_saturday_rain_traffic(self, weather):
        t = self._posix_local("2023-09-09", 12, 0)  # Saturday
        cov = build_covariates(t, weather, 1, -5.0, DEFAULT_PEAK_HOURS, DEFAULT_RAIN_LABELS)
        assert cov == (1, 0, 0, 1)

    def test_friday_16_boundary_is_peak(self, weather):
        t = self._posix_local("2023-09-08", 16, 0)  # Friday
        cov = build_covariates(t, weather, 0, -5.0, DEFAULT_PEAK_HOURS, DEFAULT_RAIN_LABELS)
        assert cov.peak == 1 and cov.weekday == 1


class TestRepair:
    def test_drops_large_regressions(self):
        pings = [pp(0, 100), pp(10, 200), pp(20, 150), pp(30, 210)]
        kept = repair_monotonic(pings, backward_tolerance=5.0)
        assert [p.arc_pos for p in kept] == [100, 200, 210]

    def test_keeps_small_jitter(self):
        pings = [pp(0, 100), pp(10, 200), pp(20, 197), pp(30, 210)]
        kept = repair_monotonic(pings, backward_tolerance=5.0)
        assert len(kept) == 4


def running_max_repair(arcs, backward_tolerance):
    """The monotone repair as a loop over the pings (the reference for
    ``repair_mask``): keep a ping unless it lies more than the tolerance
    behind the highest arc kept so far."""
    keep = []
    high = -math.inf
    for arc in arcs:
        keep.append(not arc < high - backward_tolerance)
        if keep[-1] and arc > high:
            high = arc
    return keep


@given(arcs=st.lists(st.one_of(st.integers(0, 12).map(float),
                               st.sampled_from([2.5, 7.25, -math.inf, math.inf, math.nan])),
                     max_size=30),
       tolerance=st.sampled_from([0.0, 0.5, 1.0, 5.0, 1e300]))  # finite, as the config reads it
@settings(deadline=None, max_examples=300)
def test_repair_mask_is_the_running_max_loop(arcs, tolerance):
    """Ties, plateaus, infinities and NaN arcs: the vectorized mask and the
    ping-list repair both keep exactly the pings the loop keeps."""
    expected = running_max_repair(arcs, tolerance)
    assert repair_mask(arcs, tolerance).tolist() == expected
    pings = [pp(t, a) for t, a in enumerate(arcs)]
    kept = repair_monotonic(pings, tolerance)
    assert [p.timestamp for p in kept] == [t for t, k in enumerate(expected) if k]


@pytest.fixture(scope="module")
def three_link_rm():
    net, xs = network_with([0.0, 500.0, 1200.0, 1500.0], [("X1", 250.0), ("X2", 900.0)])
    return build_route_model(net, xs, ("R", 0))


@given(start=st.one_of(st.integers(-10**4, 10**4), st.integers(-2**34, 2**34)),
       start_arc=st.floats(-60.0, 200.0),
       steps=st.lists(st.tuples(st.integers(1, 45),
                                st.one_of(st.just(0.0), st.floats(0.0, 160.0))),
                      min_size=1, max_size=60))
# an interpolated stop departure at small timestamps, where event times are
# not all on one grid unless interpolation snaps them
@example(start=0, start_arc=-35.0, steps=[(5, 67.0), (20, 115.0), (12, 108.0), (7, 0.0),
                                          (39, 111.0), (9, 123.0), (39, 46.0)])
@settings(deadline=None, max_examples=300)
def test_monotone_pings_give_the_identity_or_a_typed_skip(three_link_rm, start, start_arc,
                                                          steps):
    """Random strictly increasing timestamps with stops, slow and fast
    stretches and jumped zones: every observation satisfies
    total = road + dwell + sum(intersections) exactly; the rest is a skip
    with a typed kind."""
    ts = start + np.cumsum([0] + [dt for dt, _ in steps])
    arcs = start_arc + np.cumsum([0.0] + [da for _, da in steps])
    trav = Traversal("T1", "V1", ts.astype(np.int64), np.zeros(len(ts)), np.zeros(len(ts)))
    try:
        observations, skips = observations_from_traversal(trav, arcs, three_link_rm, COVARIATES,
                                                          RunConfig().speed_threshold_by_link)
    except InferenceError as exc:
        assert exc.kind == "too_sparse"
        return
    for obs in observations:
        assert obs.identity_residual() == 0.0
        assert obs.road_time > 0.0
    for skip in skips:
        assert skip.split(": ")[1] == "nonpositive_road_time"


def test_identity_holds_on_corpus(corpus_observations):
    observations, _ = corpus_observations
    assert observations
    for obs in observations:
        assert obs.identity_residual() == 0.0


def test_extra_open_road_pings_do_not_change_times(single_link_rm):
    base = [pp(0, 10), pp(12, 120), pp(25, 250), pp(38, 385), pp(50, 500),
            pp(62, 620), pp(70, 700), pp(80, 790), pp(95, 830)]
    # inserted pings sit strictly between existing open-road pings, away from
    # any zone transition, so the detected events cannot change
    extra = sorted(base + [pp(18, 180), pp(31, 300), pp(66, 660)],
                   key=lambda p: p.timestamp)
    observed = [[e if e is not None and not e[2] else None for e in events_of(p, single_link_rm)]
                for p in (base, extra)]
    assert observed[0] == observed[1]


# Route-pass properties. They take the default number of examples, so that
# the ``ci`` profile (tests/conftest.py) can raise it.
ROUTE_PASS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def traversal_pings(draw):
    """Timestamps and arcs of one traversal over three_link_rm: drives and
    stands, with jitter inside the backward tolerance, regressions past it
    and jumps over zones (too sparse when they recur), some starting past
    the first features and some ending inside a zone. The steps come from a
    seeded generator, at rates hypothesis picks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    dt = rng.integers(1, 7, n)
    steps = rng.uniform(0.0, 9.0, n) * dt * (rng.random(n) > 0.15)
    for low, high in ((-3.0, 3.0), (-60.0, -5.5), (300.0, 900.0)):
        rate = draw(st.sampled_from([0.0, 0.01, 0.1]))
        steps = np.where(rng.random(n) < rate, rng.uniform(low, high, n), steps)
    arcs = draw(st.one_of(st.floats(-60.0, 40.0), st.floats(40.0, 1300.0))) + np.cumsum(steps)
    if draw(st.booleans()):  # end inside a zone
        arcs[-1] = draw(st.sampled_from([0.0, 250.0, 500.0, 900.0, 1200.0, 1500.0])) \
            + draw(st.floats(-15.0, 15.0))
    return draw(st.integers(0, 10**6)) + np.cumsum(dt), arcs


@given(pings=st.lists(traversal_pings(), min_size=1, max_size=6), chained=st.booleans())
@ROUTE_PASS
def test_route_pass_is_batch_invariant(three_link_rm, pings, chained):
    """One pass over k traversals gives the rows, skip entries and used count
    of k one-traversal passes: no pair, running maximum or event leaks
    across a traversal boundary, also where each starts after the last."""
    thresholds = RunConfig().speed_threshold_by_link
    if chained:
        ends = np.cumsum([ts[-1] - ts[0] + 1 for ts, _ in pings])
        pings = [(ts - ts[0] + end - (ts[-1] - ts[0]), arcs)
                 for (ts, arcs), end in zip(pings, ends)]
    travs = [Traversal(f"T{i}", "V1", ts, np.zeros(len(ts)), np.zeros(len(ts)))
             for i, (ts, _) in enumerate(pings)]
    table, skips, n_used = route_observations(
        [(three_link_rm, travs, np.concatenate([arcs for _, arcs in pings]))], COVARIATES,
        thresholds)
    rows, one_skips, one_used = [], [], 0
    for i, (trav, (_, arcs)) in enumerate(zip(travs, pings)):
        one, s, u = route_observations([(three_link_rm, [trav], arcs)], COVARIATES, thresholds)
        rows += [(o.link_index, o.depart_prev, i, o) for o in one]
        one_skips += s
        one_used += u
    assert list(table) == [o for *_, o in sorted(rows, key=lambda r: r[:3])]
    assert (skips, n_used) == (one_skips, one_used)


def exact_arcs(rm):
    """Each feature's arc and the arcs at its buffer radius, each stop's arc,
    and the floats either side of each."""
    r = rm.buffer_radius
    points = [a + d for a in rm.feature_arcs for d in (-r, 0.0, r)] + list(rm.stop_arcs)
    return [b for a in points for b in (np.nextafter(a, -np.inf), a, np.nextafter(a, np.inf))]


def arcs_on(rm):
    return st.one_of(st.floats(-100.0, rm.last_arc + 100.0), st.sampled_from(exact_arcs(rm)))


@given(data=st.data())
@ROUTE_PASS
def test_route_pass_tags_are_the_scalar_rule(three_link_rm, data):
    arcs = data.draw(st.lists(arcs_on(three_link_rm), max_size=60))
    edges, tags = three_link_rm.open_road
    tags = np.asarray(tags)[np.searchsorted(edges, np.array(arcs, dtype=float), "right")]
    assert tags.tolist() == open_road_link_of(arcs, three_link_rm)


@given(data=st.data(), block=st.sampled_from([1, 2, 3, 4096]))
@ROUTE_PASS
def test_route_pass_slowest_speeds_are_the_scalar_rule(three_link_rm, monkeypatch, data, block):
    """The grouped minimum over several traversals, whose times run on
    across their boundaries and repeat, equals ``_open_road_speeds`` on each
    traversal alone, also in blocks of 1-3 pings, whose pairs straddle them.
    A ping moves a step from the last or lands on an exact arc."""
    monkeypatch.setattr(inference, "PROJECT_BLOCK", block)
    moves = st.one_of(st.floats(-30.0, 60.0).map(lambda d: (d, False)),
                      st.sampled_from(exact_arcs(three_link_rm)).map(lambda a: (a, True)))
    pings = data.draw(st.lists(st.lists(st.tuples(st.integers(0, 3), moves), max_size=20),
                               min_size=1, max_size=5))
    arc = data.draw(arcs_on(three_link_rm))
    arcs = [np.array([arc := (a if exact else arc + a) for _, (a, exact) in p]) for p in pings]
    times = np.split(np.cumsum([float(dt) for p in pings for dt, _ in p]),
                     np.cumsum([len(p) for p in pings])[:-1])
    slowest = slowest_speeds(np.concatenate(times), np.concatenate(arcs),
                             np.repeat(np.arange(len(pings)), [len(p) for p in pings]),
                             len(pings), three_link_rm)
    for speeds, t, a in zip(slowest.tolist(), times, arcs):
        expected = _open_road_speeds(t.tolist(), a.tolist(), three_link_rm)
        assert {li: v for li, v in enumerate(speeds) if v != math.inf} == expected


def float_rank(x: float) -> int:
    """A float's place in the order of the floats, -0.0 and 0.0 one place."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def ranked_float(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -(2**63) - k))[0]


def zone_ends(f: float, r: float) -> tuple:
    """The least and the greatest float x with ``abs(x - f) <= r``: a
    bisection over the floats' order, independent of the table's search."""
    ends = []
    for far in (f - 2.0 * r - 1.0, f + 2.0 * r + 1.0):
        inside, outside = float_rank(f), float_rank(far)
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            inside, outside = (mid, outside) if abs(ranked_float(mid) - f) <= r else (inside, mid)
        ends.append(ranked_float(inside))
    return tuple(ends)


@given(data=st.data())
@ROUTE_PASS
def test_open_road_table_is_the_scalar_rule(data):
    """On random route models, overlapping zones included, ``RouteModel.open_road``
    looked up by ``bisect_right`` and by ``np.searchsorted`` gives
    ``open_road_link_of`` at every arc: uniform draws, nan and +-inf, and
    near each stop, feature, zone end and table edge. Stops lie up to 1e6 m
    from the start, where a float's step is 1.2e-10 m. Features at about +-r,
    where f -+ r cancels, put zone ends up to 4e18 float steps from f -+ r."""
    r = data.draw(st.sampled_from([0.0, 1e-9, 20.0, 400.0]))
    first = data.draw(st.one_of(st.floats(-1e6, 1e6),
                                st.sampled_from([0.0, 1e-9, r, 2 * r, -3 * r - 1.0, 1e6])))
    gaps = data.draw(st.lists(st.one_of(st.floats(1e-3, 2000.0), st.sampled_from([r, 2 * r])),
                              min_size=1, max_size=6))
    stops = sorted({*accumulate(gaps, initial=first)})
    assume(len(stops) >= 2)
    xs = [stops[0] + u * (stops[-1] - stops[0])
          for u in data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))]
    xs += [s + d for s in data.draw(st.lists(st.sampled_from(stops), max_size=2))
           for d in data.draw(st.lists(st.sampled_from([-r, r, 2 * r]), max_size=2))]
    xs += data.draw(st.lists(st.sampled_from([r, r + 1e-6, -r, -r - 1e-6]), max_size=2))
    check_open_road_table(route_model(stops, xs, r), data.draw(
        st.lists(st.floats(stops[0] - 2 * r - 10.0, stops[-1] + 2 * r + 10.0), max_size=50)))


def test_open_road_table_past_a_cancelling_zone_end():
    """X0's zone starts 512 float steps below 400.5 - 400 = 0.5, on open road."""
    rm = route_model([-1000.0, 2000.0], [400.5], 400.0)
    assert zone_ends(400.5, 400.0)[0] == 0.5 - 2**-45
    check_open_road_table(rm, [])


def route_model(stops, xs, r):
    """A route model with only what the open-road rule reads."""
    return RouteModel(("R", 0), None, tuple((f"S{i}", a) for i, a in enumerate(stops)),
                      tuple((f"X{i}", a) for i, a in enumerate(xs)), (), r)


def check_open_road_table(rm, arcs):
    """The table, looked up by ``bisect_right`` and by ``np.searchsorted``, at
    ``arcs``, nan, +-inf and two floats either side of each stop, feature,
    zone end and table edge."""
    edges, tags = rm.open_road
    points = [*rm.feature_arcs, *edges,
              *(e for f in rm.feature_arcs for e in zone_ends(f, rm.buffer_radius))]
    arcs = [*arcs, math.nan, math.inf, -math.inf,
            *(ranked_float(float_rank(p) + d) for p in points for d in (-2, -1, 0, 1, 2))]
    expected = open_road_link_of(arcs, rm)
    assert [tags[bisect_right(edges, a)] for a in arcs] == expected
    assert np.asarray(tags)[np.searchsorted(edges, np.array(arcs), "right")].tolist() == expected


class TestOpenRoadLinkOf:
    """The per-ping classifier against the brute-force zone test and link
    lookup: open road strictly inside the stop span gives the link, any
    buffer zone (boundary inclusive) or a position off the span gives -1."""

    @pytest.fixture
    def rm(self):
        net, xs = network_with([0.0, 500.0, 1200.0, 1500.0], [("X1", 250.0), ("X2", 900.0)])
        return build_route_model(net, xs, ("R", 0))

    @staticmethod
    def oracle(rm, arc):
        if feature_zone_test(rm, arc).kind != "road" or not rm.first_arc < arc < rm.last_arc:
            return -1
        return link_scan(rm, arc)

    def check(self, rm, arcs):
        tags = open_road_link_of([float(a) for a in arcs], rm)
        assert tags == [self.oracle(rm, float(a)) for a in arcs]
        return tags

    def test_random_arcs(self, rm):
        arcs = np.random.default_rng(0).uniform(-100.0, rm.last_arc + 100.0, 2000)
        tags = self.check(rm, arcs)
        assert set(tags) == {-1, 1, 2, 3}

    def test_exact_arcs(self, rm):
        r = rm.buffer_radius
        arcs = []
        for _, _, farc in rm.features:
            for a in (farc - r, farc + r, farc):
                arcs += [a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf)]
        arcs += [rm.first_arc - 1.0, rm.last_arc + 1.0, -1e9, 1e9]
        tags = self.check(rm, arcs)
        assert tags[-4:] == [-1, -1, -1, -1]

    def test_features_are_sorted_once(self, rm):
        assert [f[1] for f in rm.features] == ["S0", "X1", "S1", "X2", "S2", "S3"]
        assert rm.features is rm.features
        assert rm.feature_arcs == tuple(f[2] for f in rm.features)
        assert rm.stop_arcs == tuple(a for _, a in rm.projected_stops)
