import builtins
import math
import warnings
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buslink import ingest
from buslink.errors import BuslinkError, IngestError
from buslink.inference import DEFAULT_PEAK_HOURS, build_covariates
from buslink.ingest import (DEFAULT_RAIN_LABELS, Ping, _ping, day_number, file_lines,
                            load_gtfs_static, load_intersections, load_pings, load_weather,
                            read_rows)
from buslink.pipeline import load_config
from buslink.store import OBS_HEADER, read_observations, read_store

from conftest import examples

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


# a coordinate outside its range, and ones on or just inside the bound
OUT_OF_RANGE = [("95", "-82.0", "(95.0, -82.0)"), ("29.0", "181", "(29.0, 181.0)"),
                ("-1e300", "-82.0", "(-1e+300, -82.0)"), ("29.0", "1e300", "(29.0, 1e+300)")]
BOUNDS = "is outside [-90, 90] x [-180, 180]"
JUST_INSIDE = [("90", "-180"), ("-90", "180"), ("89.99999999999999", "-179.99999999999997")]


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


# "#A": every reader skips a line that begins with #, so rows keyed by it
# would vanish when the observation file is read back
@pytest.mark.parametrize("bad", ["Stop 1", "A]", "[A", "A,1", "A;1", "A=1", "A\t1", "#A"])
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
    for bad in ("R 1", "#R"):
        tables = dict(GTFS_MINIMAL)
        tables["routes.txt"] = f"route_id,route_short_name\n{bad},R\n"
        tables["trips.txt"] = f"trip_id,route_id,direction_id,shape_id\nT1,{bad},0,S\n"
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


@pytest.mark.parametrize("table,column,value", [
    ("stops.txt", "stop_lat", "nan"), ("stops.txt", "stop_lon", "inf"),
    ("shapes.txt", "shape_pt_lat", "-inf"), ("shapes.txt", "shape_pt_lon", "NaN")])
def test_gtfs_non_finite_number_rejected(tmp_path, table, column, value):
    tables = dict(GTFS_MINIMAL)
    lines = tables[table].splitlines()
    row = lines[1].split(",")
    row[lines[0].split(",").index(column)] = value
    tables[table] = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert e.value.kind == "parse"
    assert f"{table}:2:" in str(e.value) and column in str(e.value)


@pytest.mark.parametrize("table,lat_column,lon_column", [
    ("stops.txt", "stop_lat", "stop_lon"), ("shapes.txt", "shape_pt_lat", "shape_pt_lon")])
@pytest.mark.parametrize("lat,lon,message", OUT_OF_RANGE)
def test_gtfs_out_of_range_coordinate_rejected(tmp_path, table, lat_column, lon_column,
                                               lat, lon, message):
    tables = dict(GTFS_MINIMAL)
    lines = tables[table].splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index(lat_column)], row[header.index(lon_column)] = lat, lon
    tables[table] = "\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n"
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert str(e.value) == f"parse: {table}:3: {message} {BOUNDS}"


def test_gtfs_coordinate_on_the_bound_kept(tmp_path):
    tables = dict(GTFS_MINIMAL)
    tables["stops.txt"] = "stop_id,stop_name,stop_lat,stop_lon\nA,Alpha,90,-180\nB,Beta,-90,180\n"
    assert load_gtfs_static(write_gtfs(tmp_path, tables)).stops == {
        "A": (90.0, -180.0, "Alpha"), "B": (-90.0, 180.0, "Beta")}


@pytest.mark.parametrize("table,lineno,column,value,message", [
    ("stops.txt", 3, "stop_lat", "north", "stops.txt:3: field 'stop_lat' is not a number: 'north'"),
    ("stop_times.txt", 3, "stop_sequence", "2nd",
     "stop_times.txt:3: field 'stop_sequence' is not a number: '2nd'"),
    ("shapes.txt", 4, "shape_pt_lon", "", "shapes.txt:4: missing field 'shape_pt_lon'"),
    ("trips.txt", 2, "shape_id", "", "trips.txt:2: missing field 'shape_id'"),
    ("trips.txt", 2, "direction_id", "2", "trips.txt:2: trip T1: direction_id must be 0 or 1")])
def test_gtfs_parse_error_names_line(tmp_path, table, lineno, column, value, message):
    tables = dict(GTFS_MINIMAL)
    lines = tables[table].splitlines()
    row = lines[lineno - 1].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[lineno - 1] = ",".join(row)
    tables[table] = "\n".join(lines) + "\n"
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert str(e.value) == f"parse: {message}"


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


@pytest.mark.parametrize("line", ["T1,V1,0,nan,-82.0", "T1,V1,0,29.0,inf",
                                  "T1,V1,0,-inf,-82.0", "T1,V1,0,29.0,NaN"])
def test_pings_non_finite_number_rejected(tmp_path, line):
    p = write_ping_file(tmp_path, ["T1,V1,15,29.0,-82.0", line])
    with pytest.raises(IngestError) as e:
        load_pings(p)
    assert e.value.kind == "parse"
    assert "pings.csv:2:" in str(e.value)


# Blocks of one and two lines, the default block and a block of 16K lines.
@pytest.mark.parametrize("block", [1, 2, ingest.PING_BLOCK_LINES, 1 << 14])
@pytest.mark.parametrize("lat,lon,message", OUT_OF_RANGE)
def test_pings_out_of_range_coordinate_rejected(tmp_path, monkeypatch, block, lat, lon, message):
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    p = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "T1,V1,15,29.0,-82.0",
                                   f"T1,V1,30,{lat},{lon}"])
    with pytest.raises(IngestError) as e:
        load_pings(p)
    assert str(e.value) == f"parse: pings.csv:3: {message} {BOUNDS}"


@pytest.mark.parametrize("lat,lon", JUST_INSIDE)
def test_pings_coordinate_on_the_bound_kept(tmp_path, lat, lon):
    p = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", f"T1,V1,15,{lat},{lon}"])
    (seg,) = load_pings(p).segments
    assert seg.lats[1] == float(lat) and seg.lons[1] == float(lon)


ping_rows = st.lists(st.tuples(st.sampled_from(["T1", "T2"]), st.sampled_from(["V1", "V2"]),
                               st.integers(0, 40).map(lambda k: 15 * k),
                               st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
                     min_size=1, max_size=40)


@given(rows=ping_rows, max_gap=st.sampled_from([15.0, 40.0, 120.0]), data=st.data())
@settings(deadline=None, max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_pings_matches_brute_force_grouping(tmp_path, rows, max_gap, data):
    """Random lines in random order, with duplicate (trip, vehicle, timestamp)
    records, blank lines and comments: the first record in the file wins,
    groups are sorted and split at gaps, and floats round-trip through repr."""
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    for filler in data.draw(st.lists(st.sampled_from(["", "   ", "# note", "#T1,V1,0,1.0,2.0"]),
                                     max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    series = load_pings(write_ping_file(tmp_path, lines), max_gap_s=max_gap)
    assert_brute_force_grouping(series, rows, max_gap)


def assert_brute_force_grouping(series, rows, max_gap):
    """The first record of each (trip, vehicle, timestamp) in file order,
    grouped, sorted and split at gaps, as records and as segments."""
    first = {}
    for row in rows:
        first.setdefault(row[:3], row)
    expected = []
    for key in sorted({row[:2] for row in first}):
        group = sorted((row for row in first.values() if row[:2] == key), key=lambda r: r[2])
        segments = [[group[0]]]
        for row in group[1:]:
            if row[2] - segments[-1][-1][2] > max_gap:
                segments.append([])
            segments[-1].append(row)
        expected.extend(segments)
    assert [tuple(p) for p in series.records] == [row for seg in expected for row in seg]
    assert [(s.trip_id, s.vehicle_id, [tuple(p) for p in s.pings]) for s in series.segments] \
        == [(seg[0][0], seg[0][1], seg) for seg in expected]


@given(rows=ping_rows, max_gap=st.sampled_from([15.0, 40.0, 120.0]), block=st.integers(1, 5),
       data=st.data())
@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunked_load_pings_matches_brute_force_grouping(tmp_path, monkeypatch, rows, max_gap,
                                                         block, data):
    """Blocks of 1-5 lines: groups, duplicates and gaps that straddle block
    boundaries come out as from one block."""
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    for filler in data.draw(st.lists(st.sampled_from(["", "# note"]), max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    series = load_pings(write_ping_file(tmp_path, lines), max_gap_s=max_gap)
    assert_brute_force_grouping(series, rows, max_gap)


# Block-reader properties. They take the default number of examples, so that
# the ``ci`` profile (tests/conftest.py) can raise it.
# Ids of 8 characters fill the reader's first text width; 9, 16, 17 and 40
# make it widen once or more, in whichever block they first appear.
ID_LENGTHS = (8, 9, 16, 17, 40)
KEY_POOL = [("T1", "V1"), ("T1", "V2"), ("T2", "V1"),
            *((f"T{n}".ljust(n, "t"), "V1") for n in ID_LENGTHS),
            *(("T1", f"V{n}".ljust(n, "v")) for n in ID_LENGTHS)]


@given(runs=st.lists(st.tuples(st.sampled_from(KEY_POOL), st.integers(1, 4)),
                     min_size=1, max_size=12),
       block=st.integers(1, 3), data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_block_reader_key_runs_match_brute_force(tmp_path, monkeypatch, runs, block, data):
    """Runs of one key that recur apart and cross block boundaries, with
    repeated timestamps, blank lines and comments: one code per key."""
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    rows = [(trip, vehicle, 15 * data.draw(st.integers(0, 20)), 29.0, -82.0)
            for (trip, vehicle), n in runs for _ in range(n)]
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    for filler in data.draw(st.lists(st.sampled_from(["", "  ", "# note"]), max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    series = load_pings(write_ping_file(tmp_path, lines), max_gap_s=40.0)
    assert_brute_force_grouping(series, rows, 40.0)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_key_runs_and_fillers_across_block_boundaries(tmp_path, monkeypatch, block):
    """One key in three runs apart, each crossing a boundary of blocks of 1-3
    lines, and a blank line and a comment on either side of the first
    boundary: the segments of one block."""
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    rows = [("T1", "V1", 0), ("T1", "V1", 15), ("T2", "V1", 0), ("T1", "V1", 30),
            ("T1", "V1", 45), ("T1", "V1", 60), ("T1", "V2", 0), ("T2", "V1", 15),
            ("T1", "V1", 75), ("T1", "V1", 90)]
    rows = [(*row, 29.0, -82.0) for row in rows]
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    lines[block - 1:block - 1] = ["", "# between blocks"]
    series = load_pings(write_ping_file(tmp_path, lines))
    assert_brute_force_grouping(series, rows, ingest.DEFAULT_MAX_GAP_S)
    assert [(s.trip_id, s.vehicle_id, len(s.pings)) for s in series.segments] == [
        ("T1", "V1", 7), ("T1", "V2", 1), ("T2", "V1", 2)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_bad_first_line_of_the_second_block_names_its_line(tmp_path, monkeypatch, block):
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    lines = [f"T1,V1,{15 * k},29.0,-82.0" for k in range(block)]
    lines += ["T1,V1,x,29.0,-82.0", "T1,V1,900,29.0"]
    with pytest.raises(IngestError) as e:
        load_pings(write_ping_file(tmp_path, lines))
    assert str(e.value) == (f"parse: pings.csv:{block + 1}: "
                            "invalid literal for int() with base 10: 'x'")


def test_duplicate_across_block_boundary_keeps_the_first(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", 2)
    p = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "T1,V1,15,29.5,-82.0",
                                   "T1,V1,15,29.9,-82.0", "T1,V1,0,29.9,-82.0"])
    assert [p.lat for p in load_pings(p).records] == [29.0, 29.5]


def row_read(path):
    """The row-by-row reading of a ping file: its rows, or its error."""
    try:
        return list(read_rows(file_lines(path), path.name, Ping._fields, _ping))
    except IngestError as exc:
        return str(exc)


BAD_LINES = [
    ("T1,V1,45,29.0", "pings.csv:8: expected 5 fields, got 4"),
    ("T1,V1,45,29.0,-82.0,7", "pings.csv:8: expected 5 fields, got 6"),
    ("T1,V1,4.5,29.0,-82.0", "pings.csv:8: invalid literal for int() with base 10: '4.5'"),
    ("T1,V1,45,29.0,inf", "pings.csv:8: 'inf' is not a finite number"),
    ("T1,V1,9223372036854775808,29.0,-82.0",
     "pings.csv:8: '9223372036854775808' is outside int64"),
    ("T1,V1,-9223372036854775809,29.0,-82.0",
     "pings.csv:8: '-9223372036854775809' is outside int64"),
]


@pytest.mark.parametrize("bad, message", BAD_LINES)
def test_bad_line_in_a_later_block_names_its_line(tmp_path, monkeypatch, bad, message):
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", 2)
    lines = ["T1,V1,0,29.0,-82.0", "", "T1,V1,15,29.0,-82.0", "# comment",
             "T1,V1,30,29.0,-82.0", "T2,V1,0,29.0,-82.0", "T2,V1,15,29.0,-82.0", bad,
             "T1,V1,60,29.0,-82.0", "also bad"]
    path = write_ping_file(tmp_path, lines)
    with pytest.raises(IngestError) as e:
        load_pings(path)
    assert str(e.value) == f"parse: {message}" == row_read(path)


# Chunks of 1-3 characters: every line straddles chunk boundaries.
@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("bad, message", BAD_LINES)
def test_bad_line_in_a_later_block_names_its_line_in_small_chunks(tmp_path, monkeypatch, bad,
                                                                  message, chunk):
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    test_bad_line_in_a_later_block_names_its_line(tmp_path, monkeypatch, bad, message)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 2, 3])
def test_bad_first_line_of_the_second_block_names_its_line_in_small_chunks(tmp_path, monkeypatch,
                                                                           block, chunk):
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    test_bad_first_line_of_the_second_block_names_its_line(tmp_path, monkeypatch, block)


def test_a_bad_line_leaves_no_file_open(tmp_path, monkeypatch):
    """The block reader is closed before the row-by-row re-read raises,
    also while the error and its traceback are still held."""
    opened = []

    def tracking_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ingest, "open", tracking_open, raising=False)
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", 1)
    path = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "bad line", "T1,V1,5,29.0,-82.0"])
    with pytest.raises(IngestError) as e:
        load_pings(path)
    assert e.value.kind == "parse"
    assert len(opened) == 2 and all(fh.closed for fh in opened)


def test_int64_timestamp_limits_are_kept(tmp_path):
    p = write_ping_file(tmp_path, ["T1,V1,9223372036854775807,29.0,-82.0",
                                   "T1,V1,-9223372036854775808,29.0,-82.0"])
    assert [s.pings[0].timestamp for s in load_pings(p).segments] == [-2**63, 2**63 - 1]


# tokens on which int(), float(), np.loadtxt and the number grammar could
# disagree: among them padding that float() takes and loadtxt skips or not
odd_token = st.sampled_from(["0", "15", " 30 ", "+45", "1_5", "\u0661\u0665", "4.5", "1e3", "nan",
                             "-inf", "1e400", "", "x", "29.0", "-82.0", "0x1f",
                             "9223372036854775807", "9223372036854775808",
                             "-9223372036854775808", "-9223372036854775809",
                             "\x0b15\x0c", "\x1c15", "15\x1f", "\x8515", "15\xa0", "\u202815",
                             "15\u3000", "15\x00", "\x00"])


@given(lines=st.lists(st.lists(odd_token, min_size=3, max_size=4).map(
           lambda f: ",".join(["T1", "V1"] + f)), min_size=1, max_size=12),
       block=st.integers(1, 4))
@settings(deadline=None, max_examples=examples(200),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_block_parse_accepts_what_the_row_parse_accepts(tmp_path, monkeypatch, lines, block):
    """``_ping`` row by row is the definition of a valid line: the block
    parse raises its error at its line, or reads the rows it reads."""
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    path = write_ping_file(tmp_path, lines)
    expected = row_read(path)
    if isinstance(expected, str):
        with pytest.raises(IngestError) as e:
            load_pings(path, max_gap_s=1e30)
        assert str(e.value) == expected
    else:
        assert_brute_force_grouping(load_pings(path, max_gap_s=1e30),
                                    [tuple(r) for r in expected], 1e30)


colliding_rows = st.lists(st.tuples(st.sampled_from(["T1", "T10", "T1x", "T2"]),
                                    st.sampled_from(["V1", "V2"]),
                                    st.integers(0, 40).map(lambda k: 15 * k),
                                    st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
                          max_size=40)


@given(rows=colliding_rows, trip=st.sampled_from(["T1", "T10", "T1x", "T2", "T"]),
       max_gap=st.sampled_from([15.0, 40.0, 120.0]), data=st.data())
@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_trip_read_is_full_read_filtered(tmp_path, rows, trip, max_gap, data):
    """Ids that prefix one another (T1, T10, T1x), duplicates, gaps, blank
    lines, comments and any order: reading one trip gives the segments and
    records of the full read that belong to it."""
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    for filler in data.draw(st.lists(st.sampled_from(["", "   ", "# T1", "#T1,V1,0,1.0,2.0"]),
                                     max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    path = write_ping_file(tmp_path, lines)
    one = load_pings(path, max_gap_s=max_gap, trip_id=trip)
    full_segments, full_records = (), ()
    if rows:
        full = load_pings(path, max_gap_s=max_gap)
        full_segments, full_records = full.segments, full.records
    assert [(s.trip_id, s.vehicle_id, s.pings) for s in one.segments] \
        == [(s.trip_id, s.vehicle_id, s.pings) for s in full_segments if s.trip_id == trip]
    assert one.records == tuple(p for p in full_records if p.trip_id == trip)


def test_one_trip_read_checks_only_its_lines(tmp_path):
    p = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "T10,V1,0,29.0", "T1,V1,15,29.0,-82.0",
                                   "T1x,V1,0,nan,-82.0", "T1,V1,30,29.0"])
    assert load_pings(p, trip_id="T10x").segments == ()
    with pytest.raises(IngestError) as e:
        load_pings(p, trip_id="T1")
    assert str(e.value) == "parse: pings.csv:5: expected 5 fields, got 4"
    with pytest.raises(IngestError) as e:
        load_pings(p, trip_id="T1x")
    assert e.value.kind == "parse" and "pings.csv:4:" in str(e.value)
    p.write_text("T1,V1,0,29.0,-82.0\nT10,V1,0,29.0\nT1,V1,15,29.0,-82.0\n", encoding="utf-8")
    assert [len(s.pings) for s in load_pings(p, trip_id="T1").segments] == [2]


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_one_trip_read_checks_only_its_lines_in_small_chunks(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    test_one_trip_read_checks_only_its_lines(tmp_path)


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_one_trip_read_skips_chunks_without_the_id(tmp_path, monkeypatch, chunk):
    """Another trip's malformed line in a chunk that lacks the id is never
    stripped, filtered or parsed, so it raises nothing."""
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    seen = []
    keep = ingest.data_text

    def data_text(lines, only=None):
        seen.extend(lines)
        return keep(lines, only)

    monkeypatch.setattr(ingest, "data_text", data_text)
    p = write_ping_file(tmp_path, ["T2,V2,0,nan", "T1,V1,0,29.0,-82.0", "T2,V2,15,x,y",
                                   "T1,V1,15,29.0,-82.0", "T2,V2,30"])
    (seg,) = load_pings(p, trip_id="T1").segments
    assert seg.timestamps.tolist() == [0, 15]
    assert not any("T2" in line for line in seen)


def test_pings_not_utf8(tmp_path, monkeypatch):
    """A byte that is not UTF-8 is ``not_utf8`` in the full and one-trip
    reads, also when it lies in a chunk the one-trip read skips."""
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", 4)
    p = tmp_path / "pings.csv"
    p.write_bytes(b"T1,V1,0,29.0,-82.0\nT2,V\xff,0,29.0,-82.0\n")
    for trip in (None, "T1", "T3"):
        with pytest.raises(IngestError) as e:
            load_pings(p, trip_id=trip)
        assert e.value.kind == "not_utf8"


# (lines, line pattern, report): the bad byte after the 1,200th short line,
# more than 1,024 lines past the bad line but in its chunk of the default
# size; after the 900th long line, in the next chunk but within 1,024 lines
# of the bad line; right after the bad line; and far past it. Each chunk is
# decoded whole before its lines are parsed, so the chunk the byte lies in
# decides, not the line count.
@pytest.mark.parametrize("lines, good, report", [
    (1200, "T1,V1,{},29.0,-82.0", "not_utf8"),
    (900, "T1,V1,{},29.123456789,-82.123456789", "parse"),
    (2, "T1,V1,{},29.0,-82.0", "not_utf8"),
    (3000, "T1,V1,{},29.0,-82.0", "parse"),
])
def test_first_of_a_bad_line_and_a_bad_byte(tmp_path, lines, good, report):
    """Of a bad line and a byte that is not UTF-8, the byte is reported
    when it lies in the bad line's chunk or before it, else the line."""
    text = "".join(f"{good.format(15 * k)}\n" for k in range(lines)).replace("15,", "x,", 1)
    assert (len(text) < ingest._PING_CHUNK_CHARS) == (report == "not_utf8")
    p = tmp_path / "pings.csv"
    p.write_bytes(text.encode() + b"T2,\xff\n")
    for trip in (None, "T1"):
        with pytest.raises(IngestError) as e:
            load_pings(p, trip_id=trip)
        assert e.value.kind == report
        assert report == "not_utf8" or str(e.value) == (
            "parse: pings.csv:2: invalid literal for int() with base 10: 'x'")


@pytest.mark.parametrize("offset", [1 << 13, 1 << 15])
@pytest.mark.parametrize("chunk", [4, 1 << 15])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_crlf_at_the_end_of_a_decoded_read(tmp_path, monkeypatch, offset, chunk, end):
    """A CRLF whose CR is the last byte the text reader decodes at once (it
    reads 8 KiB, or as many bytes as characters asked for) ends one line."""
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    rows = [("T1", "V1", 15 * k, 29.0, -82.0) for k in range(3)]
    first, *rest = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    comment = "#" + "x" * (offset - len(first) - len(end) - 2)
    text = first + end + comment + "\r\n" + end.join(rest)
    assert text.index("\r\n", len(first) + len(end)) == offset - 1
    p = tmp_path / "pings.csv"
    p.write_bytes(text.encode())
    for only in (None, "T1"):
        assert_brute_force_grouping(load_pings(p, trip_id=only), rows, 120.0)


# Ids that hold another trip id, and ids with characters that splitlines, but
# not iterating over a file, would split a line at.
CHUNK_TRIPS = ["T1", "T10", "xT1", "T\x1c1", "T\x851", "T\u20281"]


@given(rows=st.lists(st.tuples(st.sampled_from(CHUNK_TRIPS), st.sampled_from(["V1", "T1", "VT10"]),
                               st.integers(0, 40).map(lambda k: 15 * k),
                               st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)), max_size=16),
       trip=st.sampled_from(CHUNK_TRIPS + ["T", "T10x"]), chunk=st.integers(1, 9),
       max_gap=st.sampled_from([15.0, 120.0]), data=st.data())
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunk_source_matches_file_iteration(tmp_path, monkeypatch, rows, trip, chunk, max_gap,
                                             data):
    """Chunks of 1-9 characters over LF, CRLF and lone CR endings (a CR may
    end a chunk), a byte-order mark, a last line with no newline, padded
    lines and comments longer than several chunks, and ids that hold the
    requested one: the full and one-trip reads give the segments of the
    lines that ``data_text`` keeps when iterating over the file."""
    pad = st.sampled_from(["", " ", " " * 12])
    lines = [f"{data.draw(pad)}{t},{v},{ts},{lat!r},{lon!r}{data.draw(pad)}"
             for t, v, ts, lat, lon in rows]
    for filler in data.draw(st.lists(st.sampled_from(["", "  ", "# T1", "#T10,V1,0,1.0,2.0",
                                                      "# a comment longer than chunks, T1 T10"]),
                                     max_size=4)):
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    ends = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and data.draw(st.booleans()):
        ends[-1] = ""
    text = data.draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, ends))
    path = tmp_path / "pings.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(ingest, "_PING_CHUNK_CHARS", chunk)
    for only in (None, trip):
        with ingest.open_text(path) as fh:
            kept = ingest.data_text(fh, only)
        expected = [tuple(_ping(line.split(","))) for line in kept]
        assert expected == [row for row in rows if only in (None, row[0])]
        if only is None and not rows:
            with pytest.raises(IngestError, match="no records"):
                load_pings(path, max_gap_s=max_gap)
            continue
        series = load_pings(path, max_gap_s=max_gap, trip_id=only)
        assert_brute_force_grouping(series, expected, max_gap)
        with monkeypatch.context() as m:  # the whole file as one block of iterated lines
            m.setattr(ingest, "_line_blocks", lambda fh, only: [list(fh)])
            plain = load_pings(path, max_gap_s=max_gap, trip_id=only)
        assert segment_bytes(series) == segment_bytes(plain)


def segment_bytes(series):
    return [(s.trip_id, s.vehicle_id, s.timestamps.tobytes(), s.lats.tobytes(), s.lons.tobytes())
            for s in series.segments]


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
    assert w.condition(day_number("2023-09-01"), 14) == "Rain"


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


def _rain(t, weather, tz_offset):
    return build_covariates(t, weather, 0, tz_offset, DEFAULT_PEAK_HOURS,
                            DEFAULT_RAIN_LABELS).rain


def test_rain_indicator_labels(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Thunderstorm",
                                              "2023-09-01,15,Clear"]))
    t_wet = _posix(2023, 9, 1, 14, 30)  # tz 0 for simplicity
    t_dry = _posix(2023, 9, 1, 15, 30)
    assert _rain(t_wet, w, 0) == 1
    assert _rain(t_dry, w, 0) == 0


def test_rain_indicator_missing_hour(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Clear"]))
    with pytest.raises(IngestError) as e:
        _rain(_posix(2023, 9, 1, 16, 0), w, 0)
    assert e.value.kind == "missing_weather"


def test_rain_indicator_tz_boundary(tmp_path):
    # 23:30 local at offset -4 is 03:30 UTC the next day; must hit hour 23 of
    # the same local date
    w = load_weather(write_weather(tmp_path, ["2023-09-01,23,Rain"]))
    t = _posix(2023, 9, 2, 3, 30)
    assert _rain(t, w, -4) == 1


def test_rain_indicator_constant_within_hour(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-09-01,14,Rain"]))
    base = _posix(2023, 9, 1, 14, 0)
    values = {_rain(base + s, w, 0) for s in (0, 600, 1800, 3599)}
    assert values == {1}


def test_intersections_load_and_duplicates(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("intersection_id,lat,lon\nX1,29.0,-82.0\nX2,29.1,-82.1\n", encoding="utf-8")
    xs = load_intersections(p)
    assert [x[0] for x in xs] == ["X1", "X2"]
    p.write_text("X1,29.0,-82.0\nX1,29.1,-82.1\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert e.value.kind == "duplicate"


@pytest.mark.parametrize("bad", ["X=1", "X 1", "X;1", "X]", "X\0"])
def test_intersection_id_that_breaks_output_files_rejected(tmp_path, bad):
    p = tmp_path / "x.csv"
    p.write_text(f"intersection_id,lat,lon\nX0,29.0,-82.0\n{bad},29.1,-82.1\n",
                 encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert e.value.kind == "bad_id"


def test_weather_header_only_on_line_one(tmp_path):
    with pytest.raises(IngestError) as e:
        load_weather(write_weather(tmp_path, ["2023-09-01,14,Rain", "Date,2,Rain"]))
    assert e.value.kind == "parse"
    assert "weather.csv:3:" in str(e.value)


def test_intersection_header_only_on_line_one(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("Intersection_ID,Lat,Lon\nX1,29.0,-82.0\nIntersection_ID,29.1,-82.1\n",
                 encoding="utf-8")
    assert [x[0] for x in load_intersections(p)] == ["X1", "Intersection_ID"]


@pytest.mark.parametrize("line", ["X3,nan,inf", "X3,29.1,nan", "X3,-inf,-82.1"])
def test_intersection_non_finite_number_rejected(tmp_path, line):
    p = tmp_path / "x.csv"
    p.write_text(f"intersection_id,lat,lon\nX1,29.0,-82.0\n{line}\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert e.value.kind == "parse"
    assert "x.csv:3:" in str(e.value)


@pytest.mark.parametrize("lat,lon,message", OUT_OF_RANGE)
def test_intersection_out_of_range_coordinate_rejected(tmp_path, lat, lon, message):
    p = tmp_path / "x.csv"
    p.write_text(f"intersection_id,lat,lon\nX1,29.0,-82.0\nX3,{lat},{lon}\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_intersections(p)
    assert str(e.value) == f"parse: x.csv:3: {message} {BOUNDS}"


@pytest.mark.parametrize("lat,lon", JUST_INSIDE)
def test_intersection_coordinate_on_the_bound_kept(tmp_path, lat, lon):
    p = tmp_path / "x.csv"
    p.write_text(f"X1,{lat},{lon}\n", encoding="utf-8")
    assert load_intersections(p) == (("X1", float(lat), float(lon)),)


# The number grammar: ASCII text that int() or float() accepts, with no _.
# Hypothesis tokens draw on the characters of numbers, inf and nan and on
# those where Python, np.loadtxt and the grammar could part: underscores,
# non-ASCII digits, NUL, and whitespace that float() takes or np.loadtxt skips.
GRAMMAR_TEXT = "0123456789+-.eEinfaINFA_"
HAZARD_TEXT = "\u0661\u0665\u06f3\0\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 \t"
number_token = st.text(st.sampled_from(GRAMMAR_TEXT + HAZARD_TEXT), max_size=7)


def stated_grammar(token, kind):
    """The grammar as README states it: the value, or None for no number."""
    if not token.isascii() or "_" in token:
        return None
    try:
        value = kind(token)
    except ValueError:
        return None
    return value if kind is float or -2**63 <= value < 2**63 else None


def ping_outcome(tmp_path, token, column):
    """A ping file with ``token`` in ``column`` of its second line: what the
    grammar says, the row reference reads and the block parse reads."""
    fields = ["T1", "V1", "15", "29.0", "-82.0"]
    fields[column] = token
    path = write_ping_file(tmp_path, ["T1,V0,0,29.5,-82.5", ",".join(fields)])  # no duplicate
    # data_text strips the line, so the end of the last field
    value = stated_grammar(token.rstrip() if column == 4 else token, int if column == 2 else float)
    if value is not None and column != 2:
        bound = 90.0 if column == 3 else 180.0
        value = value if abs(value) <= bound else None  # also refuses nan
    if value is not None:
        fields[column] = value
        value = [("T1", "V0", 0, 29.5, -82.5), (*fields[:2], int(fields[2]), *map(float,
                                                                                 fields[3:]))]
    try:
        block = [tuple(p) for p in load_pings(path, max_gap_s=1e30).records]
    except IngestError as exc:
        block = str(exc)
    return value, row_read(path), block


def observation_outcome(tmp_path, token, column):
    """An observation file with ``token`` in ``column`` of its second data
    line, 7 being the seconds of its intersection time: what the grammar says,
    the row reference reads and the table reads."""
    from buslink.store import OBS_HEADER, _observation, read_observations
    fields = "R1,0,1,1692354000.0,61.25,10.5,35.0,X1=15.75,1,0,1,0,".split(",")
    good = ",".join(fields)
    fields[column] = "X1=" + token if column == 7 else token
    path = tmp_path / "observations.csv"
    path.write_text("\n".join([OBS_HEADER, good, ",".join(fields)]) + "\n", encoding="utf-8")
    value = stated_grammar(token, int if column in (1, 2) else float)
    if column >= 3 and value is not None and not (math.isfinite(value)
                                                  and (column == 3 or value >= 0.0)):
        value = None  # a departure is finite, an intersection time finite and >= 0
    try:
        rows = list(read_rows(file_lines(path, "route_id"), path.name, OBS_HEADER.split(","),
                              _observation))
        reference = [(o.route_key, o.link_index, o.depart_prev, o.intersection_times)
                     for o in rows]
    except IngestError as exc:
        reference = str(exc)
    try:
        table = [(o.route_key, o.link_index, o.depart_prev, o.intersection_times)
                 for o in read_observations(path)]
    except IngestError as exc:
        table = str(exc)
    if value is not None:
        key = ("R1", value if column == 1 else 0)
        link = value if column == 2 else 1
        depart = value if column == 3 else 1692354000.0
        seconds = value if column == 7 else 15.75
        value = [(("R1", 0), 1, 1692354000.0, (("X1", 15.75, False),)),
                 (key, link, depart, (("X1", seconds, False),))]
    return value, reference, table


def assert_one_grammar(value, reference, block):
    """The grammar's outcome, the row reference's and the block parse's agree:
    the same rows, or the same ``parse`` error naming the second line."""
    if value is None:
        assert isinstance(reference, str) and reference.startswith("parse: ")
        assert block == reference
    else:
        assert reference == block == value


@given(token=number_token, column=st.sampled_from([2, 3, 4]))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_number_grammar_pings(tmp_path, token, column):
    """A timestamp, lat or lon token: the stated grammar, ``_ping`` row by
    row and ``load_pings``' block parse accept the same tokens, with the
    same values."""
    value, reference, block = ping_outcome(tmp_path, token, column)
    assert_one_grammar(value, reference, block)
    assert isinstance(reference, list) or "pings.csv:2: " in reference


@given(token=number_token, column=st.sampled_from([1, 2, 3, 7]))
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_number_grammar_observations(tmp_path, token, column):
    """A direction, link index, departure or intersection-time token: the
    stated grammar, ``_observation`` row by row and the observation table's
    parse accept the same tokens, with the same values."""
    value, reference, table = observation_outcome(tmp_path, token, column)
    assert_one_grammar(value, reference, table)
    assert isinstance(reference, list) or "observations.csv:3: " in reference


# every code point below U+3001 that is whitespace or below " ", but the two
# that end a line
PADS = [chr(c) for c in range(0x3001) if (chr(c).isspace() or c < 0x20) and chr(c) not in "\n\r"]


@pytest.mark.parametrize("pad", PADS, ids=[f"U+{ord(c):04X}" for c in PADS])
def test_number_grammar_padding(tmp_path, pad):
    """A number padded on either side, or on both: the grammar, the row
    references and both block parses agree. Space, tab, \\x0b and \\x0c are
    padding; \\x1c-\\x1f, NUL and all non-ASCII whitespace are not."""
    for token in (pad + "15", "15" + pad, pad + "15" + pad):
        for column in (2, 3):
            assert_one_grammar(*ping_outcome(tmp_path, token, column))
        for column in (2, 3, 7):
            assert_one_grammar(*observation_outcome(tmp_path, token, column))
    assert (stated_grammar(pad + "15", float) is not None) == (pad in " \t\x0b\x0c")


@pytest.mark.parametrize("token", ["1_000", "\u0661\u0665"])
def test_number_outside_the_grammar_is_refused(tmp_path, token):
    """int() and float() take both tokens; the grammar takes neither."""
    for column in (2, 3):
        value, reference, block = ping_outcome(tmp_path, token, column)
        assert value is None and block == reference == (
            f"parse: pings.csv:2: {token!r} is not a number: not ASCII, or holds _")
    for column in (2, 3, 7):
        value, reference, table = observation_outcome(tmp_path, token, column)
        assert value is None and table == reference == (
            f"parse: observations.csv:3: {token!r} is not a number: not ASCII, or holds _")



def test_integer_read_through_float_is_refused(tmp_path, monkeypatch):
    """numpy 1.23 and later releases read int64 text such as ``4.5`` as 4 with
    only a DeprecationWarning; here ``np.loadtxt`` does so whatever numpy is
    installed, and both block parses still refuse the token as the row
    references do."""
    loadtxt = np.loadtxt

    def through_float(lines, **kwargs):
        if any(",4.5," in line for line in lines):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        return loadtxt([line.replace(",4.5,", ",4,") for line in lines], **kwargs)

    monkeypatch.setattr(np, "loadtxt", through_float)
    value, reference, block = ping_outcome(tmp_path, "4.5", 2)
    assert value is None and "pings.csv:2: " in reference
    assert_one_grammar(value, reference, block)
    value, reference, table = observation_outcome(tmp_path, "4.5", 2)
    assert value is None and "observations.csv:3: " in reference
    assert_one_grammar(value, reference, table)

def test_id_with_a_trailing_nul_is_refused(tmp_path):
    """np.loadtxt would read ``T1\\x00`` as ``T1``; no data line may hold a NUL."""
    from buslink.store import OBS_HEADER, read_observations
    path = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0", "T1\0,V1,15,29.0,-82.0"])
    for trip in (None, "T1\0"):
        with pytest.raises(IngestError) as e:
            load_pings(path, trip_id=trip)
        assert str(e.value) == "parse: pings.csv:2: a field holds a NUL"
    path = tmp_path / "observations.csv"
    path.write_text("\n".join([OBS_HEADER, "R1\0,0,1,1692354000.0,61.25,10.5,35.0,,1,0,1,0,"]),
                    encoding="utf-8")
    with pytest.raises(IngestError) as e:
        read_observations(path)
    assert str(e.value) == "parse: observations.csv:2: a field holds a NUL"


@pytest.mark.parametrize("block", [1, 2, ingest.PING_BLOCK_LINES])
def test_long_id_after_short_ones_is_read_whole(tmp_path, monkeypatch, block):
    """A 40-character trip id, and then a vehicle id, in a block after short
    ones: their text fields are widened, not cut, and later blocks keep the
    width."""
    from buslink.store import OBS_HEADER, read_observations
    monkeypatch.setattr(ingest, "PING_BLOCK_LINES", block)
    long_trip, long_vehicle = "T" * 40, "V" * 17
    rows = [("T1", "V1", 0), ("T1", "V1", 15), (long_trip, "V1", 0), ("T2", long_vehicle, 0),
            ("T2", "V2", 15)]
    rows = [(*row, 29.0, -82.0) for row in rows]
    lines = [f"{t},{v},{ts},{lat!r},{lon!r}" for t, v, ts, lat, lon in rows]
    assert_brute_force_grouping(load_pings(write_ping_file(tmp_path, lines)), rows, 120.0)
    path = tmp_path / "observations.csv"
    flags = ";".join(["interp_x=" + "X" * 30, "unobs_traffic"])
    path.write_text("\n".join([OBS_HEADER, "R1,0,1,1692354000.0,61.25,10.5,35.0,,1,0,1,0,",
                               f"{long_trip},1,2,1692354000.0,61.25,10.5,35.0,"
                               f"{'X' * 30}=15.75,1,0,1,0,{flags}"]), encoding="utf-8")
    table = read_observations(path)
    assert table.route_keys == [("R1", 0), (long_trip, 1)]
    assert table.x_ids == ["X" * 30] and table.x_interp.tolist() == [True]
    assert table.flags == ["", flags]


# ---------------------------------------------------------------------------
# NUL, weather conditions, and one read per file
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("quote", ["", '"'], ids=["split", "csv_reader"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("table", sorted(GTFS_MINIMAL))
def test_nul_in_a_gtfs_table_names_its_line(tmp_path, table, end, quote):
    """A NUL in a GTFS table is a parse error at its line, on the split and the
    csv.reader path alike: Python 3.10's csv refuses it with its own error, and
    an id holding it would reach the observation file."""
    tables = dict(GTFS_MINIMAL)
    lines = tables[table].splitlines()
    first, _, rest = lines[-1].partition(",")
    lines[-1] = f"{quote}{first}\0{quote},{rest}"
    tables[table] = end.join(lines) + end
    with pytest.raises(IngestError) as e:
        load_gtfs_static(write_gtfs(tmp_path, tables))
    assert str(e.value) == f"parse: {table}:{len(lines)}: a field holds a NUL"


@pytest.mark.parametrize("row, condition", [("2023-08-18,7, Rain", "' Rain'"),
                                            ("2023-08-18,7,\tRain", "'\\tRain'"),
                                            ("2023-08-18,7,", "''")])
def test_blank_or_padded_weather_condition_names_its_line(tmp_path, row, condition):
    """A condition padded inside its line used to read as not rain, and a blank
    one as no label at all."""
    with pytest.raises(IngestError) as e:
        load_weather(write_weather(tmp_path, ["2023-08-18,6,Rain", row, "2023-08-18,8,Rain"]))
    assert str(e.value) == f"parse: weather.csv:3: condition {condition} is blank or padded"


def test_weather_condition_padded_at_the_line_end_is_stripped(tmp_path):
    w = load_weather(write_weather(tmp_path, ["2023-08-18,7,Rain \t"]))
    assert w.entries == {(day_number("2023-08-18"), 7): "Rain"}


def opens(monkeypatch) -> Counter:
    """The names of the files ``open`` is called on from now, counted."""
    counts, real = Counter(), builtins.open

    def counting(file, *args, **kwargs):
        counts[Path(file).name] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    return counts


OBS_LINE = "R1,0,1,1692354000.0,61.25,10.5,35.0,X1=15.75,1,0,1,0,"
STORE_TEXT = ("[intersection R1 0 X1]\nmu_s = 2.5\nsigma_s = 0.5\nn = 10\n"
              "excluded_zero_fraction = 0\npooled = {}\n")
# reader, file name, a clean text, and the text with a bad last line
READS = {
    "weather": (load_weather, "weather.csv", "date,hour,condition\n2023-09-01,14,Rain\n",
                "date,hour,condition\n2023-09-01,14,Rain\n2023-09-01,24,Rain\n"),
    "observations": (read_observations, "observations.csv", f"{OBS_HEADER}\n{OBS_LINE}\n",
                     f"{OBS_HEADER}\n{OBS_LINE}\n{OBS_LINE.replace('35.0', '-1.0')}\n"),
    "intersections": (load_intersections, "intersections.csv",
                      "intersection_id,lat,lon\nX1,29.0,-82.0\n",
                      "intersection_id,lat,lon\nX1,29.0,-82.0\nX2,95,-82.0\n"),
    "store": (read_store, "models.txt", STORE_TEXT.format("0"), STORE_TEXT.format("2")),
    "config": (load_config, "run.cfg", "tz_offset = -5\n", "tz_offset = -5\nruns = 10\n"),
}


@pytest.mark.parametrize("refused", [False, True], ids=["clean", "refused"])
@pytest.mark.parametrize("reader", sorted(READS))
def test_each_reader_opens_its_file_once(tmp_path, monkeypatch, reader, refused):
    """A clean file and one refused at its last line are each opened once: the
    line that is named is found in the lines already read."""
    read, name, clean, bad = READS[reader]
    path = tmp_path / name
    path.write_text(bad if refused else clean, encoding="utf-8")
    counts = opens(monkeypatch)
    if refused:
        with pytest.raises(BuslinkError) as e:
            read(path)
        assert f"{name}:{len(bad.splitlines())}:" in str(e.value)
    else:
        read(path)
    assert counts == {name: 1}


GTFS_ORDER = ["stops.txt", "shapes.txt", "routes.txt", "trips.txt", "stop_times.txt"]
BAD_GTFS_ROWS = {"stops.txt": "C,Gamma,north,-82.0", "shapes.txt": "S,29.0,-81.98,x",
                 "routes.txt": ",R2", "trips.txt": "T2,R9,0,S",
                 "stop_times.txt": "T1,06:10:00,06:10:00,Z,3"}


@pytest.mark.parametrize("refused", [None, *GTFS_ORDER])
def test_each_gtfs_table_is_opened_once(tmp_path, monkeypatch, refused):
    """The tables up to the refused one, or all five, are each opened once."""
    tables = dict(GTFS_MINIMAL)
    if refused:
        tables[refused] += BAD_GTFS_ROWS[refused] + "\n"
    d = write_gtfs(tmp_path, tables)
    counts = opens(monkeypatch)
    if refused:
        with pytest.raises(IngestError):
            load_gtfs_static(d)
    else:
        load_gtfs_static(d)
    read = GTFS_ORDER[:GTFS_ORDER.index(refused) + 1] if refused else GTFS_ORDER
    assert counts == dict.fromkeys(read, 1)


def rewritten_after_its_read(monkeypatch, path: Path, text: str) -> None:
    """``open_text`` rewrites ``path`` with ``text`` as each read of it ends, as a
    feed updater might between two reads."""
    real = ingest.open_text

    @contextmanager
    def open_then_rewrite(file, *args, **kwargs):
        with real(file, *args, **kwargs) as fh:
            yield fh
        if Path(file) == path:
            path.write_text(text, encoding="utf-8")

    monkeypatch.setattr(ingest, "open_text", open_then_rewrite)


def test_gtfs_table_rewritten_after_its_read_gives_its_error(tmp_path, monkeypatch):
    """The error names the row of the table as read, where a second read of
    the rewritten table found fewer rows and raised IndexError."""
    tables = dict(GTFS_MINIMAL)
    tables["stop_times.txt"] += BAD_GTFS_ROWS["stop_times.txt"] + "\n"
    d = write_gtfs(tmp_path, tables)
    rewritten_after_its_read(monkeypatch, d / "stop_times.txt",
                             GTFS_MINIMAL["stop_times.txt"].splitlines()[0] + "\n")
    with pytest.raises(IngestError) as e:
        load_gtfs_static(d)
    assert str(e.value) == "referential: trip T1 references unknown stop Z"


def test_observation_file_rewritten_after_its_read_gives_its_error(tmp_path, monkeypatch):
    """The error names the line as read, where a second read of the mended
    file found none and the first read's ValueError escaped."""
    path = tmp_path / "observations.csv"
    path.write_text(READS["observations"][3], encoding="utf-8")
    rewritten_after_its_read(monkeypatch, path, READS["observations"][2])
    with pytest.raises(IngestError) as e:
        read_observations(path)
    assert str(e.value) == "parse: observations.csv:3: road time '-1.0' is not positive"


def completed_after_the_block_read(monkeypatch, path: Path, tail: str) -> None:
    """The first ping block that fails makes a logger append ``tail`` to
    ``path`` before its error reaches ``load_pings``."""
    real = ingest._ping_block

    def block_then_append(lines, fields):
        try:
            return real(lines, fields)
        except ValueError:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(tail)
            raise

    monkeypatch.setattr(ingest, "_ping_block", block_then_append)


def test_ping_file_changed_while_read(tmp_path, monkeypatch):
    """A partial last line that a logger completes after the block read: the
    second read finds no bad line, and the file is not as it was opened."""
    path = tmp_path / "pings.csv"
    path.write_text("T1,V1,0,29.0,-82.0\nT1,V1,15,29.0", encoding="utf-8")
    completed_after_the_block_read(monkeypatch, path, ",-82.0\n")
    with pytest.raises(IngestError) as e:
        load_pings(path)
    assert str(e.value) == f"changed: {path}: changed while it was read"


def test_ping_block_fault_on_an_unchanged_file_keeps_its_traceback(tmp_path, monkeypatch):
    """A block parse that refuses lines the row parse takes is a program fault:
    its ValueError is raised, not an input error."""
    path = write_ping_file(tmp_path, ["T1,V1,0,29.0,-82.0"])

    def fault(lines, fields):
        raise ValueError("block fault")

    monkeypatch.setattr(ingest, "_ping_block", fault)
    with pytest.raises(ValueError, match="block fault"):
        load_pings(path)
