import json

import pytest

from buslink import synth
from buslink.errors import ConfigError, IngestError
from buslink.geometry import build_route_model, project_many
from buslink.inference import observations_from_traversal
from buslink.ingest import (load_gtfs_static, load_intersections, load_pings,
                            load_weather)
from buslink.pipeline import RunConfig, covariates_for

from conftest import SMALL_TRUTH, write_truth

RUN = RunConfig(tz_offset=-5.0)  # synth's zone, default rules


def load_spec(tmp_path, truth):
    return synth.load_truth(write_truth(tmp_path / "t.json", truth))


class TestValidation:
    def test_small_truth_valid(self, tmp_path):
        load_spec(tmp_path, SMALL_TRUTH)

    def test_rejects_times_below_delta_t(self, tmp_path):
        truth = json.loads(json.dumps(SMALL_TRUTH))
        truth["links"][0]["beta"][0] = 1.0  # e^1 = 2.7 s < delta_t
        with pytest.raises(ConfigError) as e:
            load_spec(tmp_path, truth)
        assert e.value.kind == "infeasible_truth"

    def test_rejects_unrealizable_speeds(self, tmp_path):
        truth = json.loads(json.dumps(SMALL_TRUTH))
        truth["links"][0]["beta"][0] = 5.5  # 245 s over 660 m: under 2.8 m/s uncongested
        with pytest.raises(ConfigError):
            load_spec(tmp_path, truth)

    def test_rejects_short_dwell_pool(self, tmp_path):
        truth = json.loads(json.dumps(SMALL_TRUTH))
        truth["links"][0]["dwell_pool"] = [1.0, 10.0, 20.0]
        with pytest.raises(ConfigError):
            load_spec(tmp_path, truth)

    def test_rejects_intersection_near_stop(self, tmp_path):
        truth = json.loads(json.dumps(SMALL_TRUTH))
        truth["links"][1]["intersections"][0]["offset"] = 25.0
        with pytest.raises(ConfigError):
            load_spec(tmp_path, truth)


    @pytest.mark.parametrize("change, named", [
        (lambda t: t.update(route_id="R 1"), "route_id"),
        (lambda t: t["links"][1]["intersections"][0].update(id="X=1"), "intersection_id"),
    ], ids=["route_id", "intersection_id"])
    def test_rejects_ids_the_readers_cannot_read_back(self, tmp_path, change, named):
        truth = json.loads(json.dumps(SMALL_TRUTH))
        change(truth)
        with pytest.raises(IngestError) as e:
            load_spec(tmp_path, truth)
        assert e.value.kind == "bad_id" and named in str(e.value)

    @pytest.mark.parametrize("offsets", [(425.0, 440.0), (425.0, 465.0), (600.0, 300.0)],
                             ids=["15_m_apart", "2_buffer_radii_apart", "out_of_order"])
    def test_rejects_intersections_infer_would_merge(self, tmp_path, offsets):
        with pytest.raises(ConfigError) as e:
            load_spec(tmp_path, with_link_2_intersections(offsets))
        assert e.value.kind == "infeasible_truth" and "link 2" in str(e.value)

    def test_intersections_just_past_the_merge_distance_both_reach_infer(self, tmp_path):
        truth = with_link_2_intersections((425.0, 466.0), n_days=1, slots_per_day=1)
        paths = synth.generate_corpus(load_spec(tmp_path, truth), tmp_path / "c")
        rm = build_route_model(load_gtfs_static(paths.gtfs_dir),
                               load_intersections(paths.intersections), ("R1", 0))
        assert [xid for xid, _ in rm.projected_intersections] == ["X1", "X2"]
        assert rm.merge_log == ()


def with_link_2_intersections(offsets, **changes):
    """SMALL_TRUTH with intersections X1, X2, ... at ``offsets`` on link 2."""
    truth = dict(json.loads(json.dumps(SMALL_TRUTH)), **changes)
    truth["links"][1]["intersections"] = [{"id": f"X{k}", "offset": at, "mu": 2.8, "sigma": 0.35}
                                          for k, at in enumerate(offsets, start=1)]
    return truth


def test_corpus_bytes_deterministic(tmp_path):
    spec = load_spec(tmp_path, SMALL_TRUTH)
    p1 = synth.generate_corpus(spec, tmp_path / "c1")
    p2 = synth.generate_corpus(spec, tmp_path / "c2")
    for name in ("pings", "weather", "intersections", "truth_events", "truth_links"):
        assert getattr(p1, name).read_bytes() == getattr(p2, name).read_bytes()
    for table in ("stops.txt", "shapes.txt", "trips.txt", "routes.txt", "stop_times.txt"):
        assert (p1.gtfs_dir / table).read_bytes() == (p2.gtfs_dir / table).read_bytes()


ZERO_VARIANCE_TRUTH = {
    "route_id": "R1", "direction_id": 0, "n_days": 2, "slots_per_day": 5,
    "seed": 21, "ping_interval": 1, "congestion_prob": 0.0, "rain_hour_prob": 0.0,
    "links": [
        {"length": 700.0, "beta": [4.20, 0.0, 0.0, 0.0, 0.5],
         "gamma": [-30.0, 0.0, 0.0, 0.0, 0.0],
         "dwell_pool": [8.0], "intersections": []},
        {"length": 800.0, "beta": [4.30, 0.0, 0.0, 0.0, 0.5],
         "gamma": [-30.0, 0.0, 0.0, 0.0, 0.0],
         "dwell_pool": [12.0], "intersections": []},
    ],
}


def test_zero_variance_truth_recovered_within_quantization(tmp_path):
    """With deterministic truth and 1 s pings, inferred component times match
    the generator's ground truth to the ping-interval quantization."""
    spec = load_spec(tmp_path, ZERO_VARIANCE_TRUTH)
    paths = synth.generate_corpus(spec, tmp_path / "c")
    net = load_gtfs_static(paths.gtfs_dir)
    xs = load_intersections(paths.intersections)
    weather = load_weather(paths.weather)
    series = load_pings(paths.pings)
    rm = build_route_model(net, xs, ("R1", 0))

    truth = {}
    for line in paths.truth_links.read_text().splitlines()[1:]:
        p = line.split(",")
        truth[(p[0], int(p[2]), round(float(p[3])))] = (float(p[4]), float(p[5]))

    checked = 0
    for trav in series.segments:
        arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
        obs, _ = observations_from_traversal(trav, arcs, rm, covariates_for(RUN, weather),
                                             RUN.speed_threshold_by_link)
        for o in obs:
            match = [v for (tid, li, dep), v in truth.items()
                     if tid == trav.trip_id and li == o.link_index
                     and abs(dep - o.depart_prev) <= 2.0]
            assert len(match) == 1
            road_true, dwell_true = match[0]
            assert abs(o.road_time - road_true) <= 1.0 + 1e-9
            assert abs(o.dwell_time - dwell_true) <= 1.0 + 1e-9
            assert abs(o.total_time - (road_true + dwell_true)) <= 1.0 + 1e-9
            checked += 1
    assert checked >= 15


def test_end_to_end_coefficient_recovery(corpus, corpus_observations):
    """The whole pipeline (generate -> ingest -> project -> detect -> decompose
    -> fit) recovers every link's mean coefficients within 0.05."""
    import numpy as np

    from buslink.hetlognorm import fit
    from conftest import TRUTH

    observations, _ = corpus_observations
    for li, truth_link in enumerate(TRUTH["links"], start=1):
        rows = [o for o in observations if o.link_index == li]
        ys = np.log([o.road_time for o in rows])
        X = np.array([o.covariates for o in rows], dtype=float)
        m = fit(ys, X)
        assert np.all(np.abs(m.beta - np.array(truth_link["beta"])) < 0.05), li


def test_corpus_traffic_labels_match_truth(corpus, corpus_observations):
    """Measured traffic indicators must reproduce the generator's congestion
    draws; mislabels would attenuate the fitted traffic coefficients."""
    import bisect

    observations, _ = corpus_observations
    per_link: dict = {}
    for line in corpus["paths"].truth_links.read_text().splitlines()[1:]:
        p = line.split(",")
        per_link.setdefault(int(p[2]), []).append((float(p[3]), int(p[10])))
    for rows in per_link.values():
        rows.sort()

    mismatches = 0
    total = 0
    for o in observations:
        rows = per_link[o.link_index]
        times = [r[0] for r in rows]
        # measured departure trails the true crossing by at most one interval
        i = bisect.bisect_left(times, o.depart_prev + 1e-9)
        candidates = [rows[j] for j in (i - 1, i) if 0 <= j < len(rows)]
        best = min(candidates, key=lambda r: abs(r[0] - o.depart_prev))
        if abs(best[0] - o.depart_prev) > 6.0:
            continue
        total += 1
        if o.covariates.traffic != best[1]:
            mismatches += 1
    assert total > 0.9 * len(observations)
    assert mismatches / total < 0.01


# Trips start at 23:57:50 local. Road times depend only on the weekday, so
# the slow Friday trip's second link departs after midnight, on Saturday,
# while the fast weekend trips finish their links before midnight.
MIDNIGHT_TRUTH = {
    "route_id": "R1", "direction_id": 0, "start_date": "2023-09-08", "n_days": 3,
    "slots_per_day": 1, "first_slot_s": 86400 - 130, "seed": 5,
    "congestion_prob": 0.0, "rain_hour_prob": 0.5,
    "links": [
        {"length": 1040.0, "beta": [4.174, 0.0, 0.0, 0.956, 0.4],
         "gamma": [-30.0, 0.0, 0.0, 0.0, 0.0], "dwell_pool": [8.0], "intersections": []},
    ] * 2,
}


def test_truth_covariates_equal_inferred_across_midnight(tmp_path):
    from buslink.ingest import local_date_hour

    spec = load_spec(tmp_path, MIDNIGHT_TRUTH)
    paths = synth.generate_corpus(spec, tmp_path / "c")
    rm = build_route_model(load_gtfs_static(paths.gtfs_dir),
                           load_intersections(paths.intersections), ("R1", 0))
    weather = load_weather(paths.weather)
    truth = []
    crossed = []
    for line in paths.truth_links.read_text().splitlines()[1:]:
        p = line.split(",")
        truth.append((int(p[2]), float(p[3]), tuple(map(int, p[7:10]))))
        if local_date_hour(float(p[3]), -5.0)[0] != p[1]:
            crossed.append((p[1], int(p[2]), p[9]))
    assert crossed == [("2023-09-08", 2, "0")]

    inferred = []
    for trav in load_pings(paths.pings).segments:
        arcs, _ = project_many(rm.polyline, trav.lats, trav.lons)
        inferred += observations_from_traversal(trav, arcs, rm, covariates_for(RUN, weather),
                                                RUN.speed_threshold_by_link)[0]
    assert len(inferred) == len(truth) == 6
    for o in inferred:
        # a measured departure trails the true one by at most one ping interval
        match = [cov for li, dep, cov in truth
                 if li == o.link_index and 0.0 <= o.depart_prev - dep <= spec.ping_interval]
        assert match == [tuple(o.covariates)[:3]]


def test_truth_link_without_weather_rejected(tmp_path):
    # the fourth day's trip, on a slow Monday, leaves its second link on
    # Tuesday, a day without weather
    spec = load_spec(tmp_path, dict(MIDNIGHT_TRUTH, n_days=4))
    with pytest.raises(ConfigError) as e:
        synth.generate_corpus(spec, tmp_path / "c")
    assert e.value.kind == "infeasible_truth"
    assert "trip T000 of 2023-09-11" in str(e.value) and "2023-09-12 hour 0" in str(e.value)
