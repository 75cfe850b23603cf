from datetime import datetime, timezone

import pytest

from buslink.errors import IngestError
from buslink.ingest import (load_gtfs_static, load_intersections, load_pings,
                            load_weather, rain_indicator, write_pings)

GTFS_MINIMAL = {
    "stops.txt": "stop_id,stop_name,stop_lat,stop_lon\nA,Alpha,29.0,-82.0\nB,Beta,29.0,-81.99\n",
    "shapes.txt": ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                   "S,29.0,-82.0,1\nS,29.0,-81.995,2\nS,29.0,-81.99,3\n"),
    "routes.txt": "route_id,route_short_name\nR,R\n",
    "trips.txt": "trip_id,route_id,direction_id,shape_id\nT1,R,0,S\n",
    "stop_times.txt": ("trip_id,arrival_time,departure_time,stop_id,stop_sequence\n"
                       "T1,06:00:00,06:00:00,A,1\nT1,06:05:00,06:05:00,B,2\n"),
}


def write_gtfs(tmp_path, tables):
    d = tmp_path / "gtfs"
    d.mkdir(exist_ok=True)
    for name, content in tables.items():
        (d / name).write_text(content, encoding="utf-8")
    return d


def test_minimal_feed(tmp_path):
    net = load_gtfs_static(write_gtfs(tmp_path, GTFS_MINIMAL))
    assert len(net.trips) == 1
    assert net.trips["T1"].stop_ids == ("A", "B")
    assert len(net.shapes["S"]) == 3
    assert net.routes == (("R", 0),)


def test_missing_table(tmp_path):
    tables = dict(GTFS_MINIMAL)
    del tables["shapes.txt"]
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "missing_table"


def test_dangling_shape_reference(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["trips.txt"] = "trip_id,route_id,direction_id,shape_id\nT1,R,0,NOPE\n"
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "referential"
    assert "NOPE" in str(e.value)


def test_dangling_stop_reference(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["stop_times.txt"] = ("trip_id,arrival_time,departure_time,stop_id,stop_sequence\n"
                                "T1,06:00:00,06:00:00,A,1\nT1,06:05:00,06:05:00,ZZ,2\n")
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "referential"


@pytest.mark.parametrize("bad", ["Stop 1", "A]", "[A", "A,1", "A;1", "A=1", "A\t1"])
def test_stop_id_that_breaks_output_files_rejected(tmp_path, bad):
    tables = dict(GTFS_MINIMAL)
    tables["stops.txt"] = ("stop_id,stop_name,stop_lat,stop_lon\n"
                           f'A,Alpha,29.0,-82.0\n"{bad}",Beta,29.0,-81.99\n')
    tables["stop_times.txt"] = ("trip_id,arrival_time,departure_time,stop_id,stop_sequence\n"
                                f'T1,06:00:00,06:00:00,A,1\nT1,06:05:00,06:05:00,"{bad}",2\n')
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "bad_id"


def test_route_id_that_breaks_output_files_rejected(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["routes.txt"] = "route_id,route_short_name\nR 1,R\n"
    tables["trips.txt"] = "trip_id,route_id,direction_id,shape_id\nT1,R 1,0,S\n"
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "bad_id"


def test_unused_stop_id_is_not_checked(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["stops.txt"] = GTFS_MINIMAL["stops.txt"] + "Stop 9,Unused,29.0,-81.98\n"
    net = load_gtfs_static(write_gtfs(tmp_path, tables))
    assert "Stop 9" in net.stops


def test_two_routes_two_directions(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["routes.txt"] = "route_id,route_short_name\nR,R\nQ,Q\n"
    tables["trips.txt"] = ("trip_id,route_id,direction_id,shape_id\n"
                           "T1,R,0,S\nT2,R,1,S\nT3,Q,0,S\nT4,Q,1,S\n")
    st = ["trip_id,arrival_time,departure_time,stop_id,stop_sequence"]
    for t in ("T1", "T2", "T3", "T4"):
        st.append(f"{t},06:00:00,06:00:00,A,1")
        st.append(f"{t},06:05:00,06:05:00,B,2")
    tables["stop_times.txt"] = "\n".join(st) + "\n"
    net = load_gtfs_static(write_gtfs(tmp_path, tables))
    assert net.routes == (("Q", 0), ("Q", 1), ("R", 0), ("R", 1))


def test_duplicate_shape_points_dropped(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["shapes.txt"] = ("shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                            "S,29.0,-82.0,1\nS,29.0,-82.0,2\nS,29.0,-81.99,3\n")
    net = load_gtfs_static(write_gtfs(tmp_path, tables))
    assert len(net.shapes["S"]) == 2


def write_ping_file(tmp_path, lines):
    p = tmp_path / "pings.csv"
    p.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return p


def test_pings_one_group(tmp_path):
    p = write_ping_file(tmp_path, [f"T1,V1,{t},29.0,-82.0" for t in (0, 15, 30)])
    series = load_pings(p)
    assert len(series.segments) == 1
    assert len(series.segments[0].pings) == 3


def test_pings_dedup(tmp_path):
    p = write_ping_file(tmp_path, ["T1,V1,10,29.0,-82.0", "T1,V1,10,29.0,-82.0",
                                   "T1,V1,25,29.0,-82.0"])
    series = load_pings(p)
    assert len(series.records) == 2


def test_pings_gap_split(tmp_path):
    p = write_ping_file(tmp_path, [f"T1,V1,{t},29.0,-82.0" for t in (0, 15, 300)])
    series = load_pings(p, max_gap_s=120)
    assert [len(s.pings) for s in series.segments] == [2, 1]


def test_pings_parse_error_names_line(tmp_path):
    p = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "garbage line"])
    with pytest.raises(IngestError) as e:
        load_pings(p)
    assert e.value.kind == "parse"
    assert ":2:" in str(e.value)


def test_pings_empty(tmp_path):
    p = write_ping_file(tmp_path, [])
    with pytest.raises(IngestError) as e:
        load_pings(p)
    assert e.value.kind == "empty"


def test_ping_round_trip(tmp_path):
    lines = ["T1,V1,0,29.5,-82.25", "T1,V1,15,29.5001,-82.2499",
             "T2,V1,7,29.0,-82.0", "T1,V2,3,29.9,-82.1", "T1,V1,200,29.51,-82.24"]
    series = load_pings(write_ping_file(tmp_path, lines))
    out = tmp_path / "out.csv"
    write_pings(series, out)
    series2 = load_pings(out)
    assert series2 == series


def test_grouping_is_partition(tmp_path):
    lines = [f"T{t % 2},V{v},{ts},29.0,-82.0"
             for t in range(2) for v in range(2) for ts in (0, 10, 400, 410)]
    series = load_pings(write_ping_file(tmp_path, lines))
    in_segments = sum(len(s.pings) for s in series.segments)
    assert in_segments == len(series.records)
    seen = set()
    for seg in series.segments:
        for ping in seg.pings:
            key = (ping.trip_id, ping.vehicle_id, ping.timestamp)
            assert key not in seen
            seen.add(key)


def write_weather(tmp_path, rows):
    p = tmp_path / "weather.csv"
    p.write_text("date,hour,condition\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return p


def test_weather_lookup(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Rain"]))
    assert w.condition("2023-09-01", 14) == "Rain"


def test_weather_duplicate(tmp_path):
    with pytest.raises(IngestError) as e:
        load_weather(write_weather(tmp_path, ["2023-09-01,14,Rain", "2023-09-01,14,Clear"]))
    assert e.value.kind == "duplicate"


def test_weather_full_day(tmp_path):
    rows = [f"2023-09-01,{h},Clear" for h in range(24)]
    w = load_weather(write_weather(tmp_path, rows))
    assert len(w.entries) == 24


def _posix(y, mo, d, h, mi):
    return datetime(y, mo, d, h, mi, tzinfo=timezone.utc).timestamp()


def test_rain_indicator_labels(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Thunderstorm",
                                              "2023-09-01,15,Clear"]))
    t_wet = _posix(2023, 9, 1, 14, 30)  # tz 0 for simplicity
    t_dry = _posix(2023, 9, 1, 15, 30)
    assert rain_indicator(w, t_wet, 0) == 1
    assert rain_indicator(w, t_dry, 0) == 0


def test_rain_indicator_missing_hour(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Clear"]))
    with pytest.raises(IngestError) as e:
        rain_indicator(w, _posix(2023, 9, 1, 16, 0), 0)
    assert e.value.kind == "missing_weather"


def test_rain_indicator_tz_boundary(tmp_path):
    # 23:30 local at offset -4 is 03:30 UTC the next day; must hit hour 23 of
    # the same local date
    w = load_weather(write_weather(tmp_path, ["2023-09-01,23,Rain"]))
    t = _posix(2023, 9, 2, 3, 30)
    assert rain_indicator(w, t, -4) == 1


def test_rain_indicator_constant_within_hour(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Rain"]))
    base = _posix(2023, 9, 1, 14, 0)
    values = {rain_indicator(w, base + s, 0) for s in (0, 600, 1800, 3599)}
    assert values == {1}


def test_intersections_load_and_duplicates(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("intersection_id,lat,lon\nX1,29.0,-82.0\nX2,29.1,-82.1\n", encoding="utf-8")
    xs = load_intersections(p)
    assert [x[0] for x in xs.points] == ["X1", "X2"]
    p.write_text("X1,29.0,-82.0\nX1,29.1,-82.1\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert e.value.kind == "duplicate"


@pytest.mark.parametrize("bad", ["X=1", "X 1", "X;1", "X]"])
def test_intersection_id_that_breaks_output_files_rejected(tmp_path, bad):
    p = tmp_path / "x.csv"
    p.write_text(f"intersection_id,lat,lon\nX0,29.0,-82.0\n{bad},29.1,-82.1\n",
                 encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert e.value.kind == "bad_id"
