"""The readers of the static inputs against their row references.

``load_gtfs_static`` and ``load_weather`` read each file whole and check
its rules on columns; ``read_store`` reads its file whole and then line by
line, each value by its field's reader. Each reference below reads the same
file row by row, as the GTFS and weather readers did before they read
columns, with the duplicate-key rule of the GTFS tables added; the store's
reference reads the file by lines from the open file, and stays as a guard
on the reader. The GTFS and weather rules are stated row by row only here
(``_req``, ``_req_position``, ``weather_row``): the package states each
once, on columns, and names a file's first bad row by bisection over
prefixes of its rows. On random files, clean and corrupted, and on long
tables with one bad row, a reader and its reference return equal values,
with dict keys in the same order, or raise the same IngestError."""

import csv
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buslink.errors import IngestError
from buslink.ingest import (StaticNetwork, Trip, _checked_id, date_text, day_number, file_lines,
                            finite_float, int64, load_gtfs_static, load_weather, position,
                            read_rows)
from buslink.store import _SECTIONS, ModelStore, _model, _section, read_store, write_store

from conftest import examples
from test_store_properties import assert_same_store, stores

SETTINGS = settings(deadline=None, max_examples=examples(150),
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])


def outcome(read, path):
    try:
        return read(path)
    except IngestError as exc:
        return str(exc)


# ---------------------------------------------------------------------------
# GTFS
# ---------------------------------------------------------------------------

def _req(row: dict, key: str, where: str, conv=str):
    val = row.get(key)
    if val is None or val == "":
        raise IngestError("parse", f"{where}: missing field {key!r}")
    try:
        return conv(val)
    except ValueError:
        raise IngestError("parse", f"{where}: field {key!r} is not a number: {val!r}") from None


def _req_position(row: dict, prefix: str, where: str) -> tuple:
    try:
        return position(*(_req(row, prefix + c, where, finite_float) for c in ("lat", "lon")))
    except ValueError as exc:
        raise IngestError("parse", f"{where}: {exc}") from None


def reference_gtfs(dir_path) -> StaticNetwork:
    """The five tables read row by row through ``csv.DictReader``; a row's
    key that repeats an earlier row's is refused once the row's other rules
    pass."""

    def rows(name):
        path = dir_path / name
        if not path.is_file():
            raise IngestError("missing_table", f"{name} not found in {dir_path}")
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames == []:  # a blank first line, where an empty file reads None
                raise IngestError("parse", f"{name}:1: blank header line")
            return [(f"{name}:{reader.line_num}", row) for row in reader]

    def duplicate(where, **key):
        return IngestError("duplicate", f"{where}: duplicate " + ", ".join(
            f"{k} {v!r}" for k, v in key.items()))

    stops = {}
    for where, row in rows("stops.txt"):
        sid = _req(row, "stop_id", where)
        position = _req_position(row, "stop_", where)
        if sid in stops:
            raise duplicate(where, stop_id=sid)
        stops[sid] = (*position, row.get("stop_name", ""))
    shape_pts = {}
    for where, row in rows("shapes.txt"):
        sid = _req(row, "shape_id", where)
        seq = _req(row, "shape_pt_sequence", where, int64)
        point = _req_position(row, "shape_pt_", where)
        if seq in (p[0] for p in shape_pts.get(sid, ())):
            raise duplicate(where, shape_id=sid, shape_pt_sequence=seq)
        shape_pts.setdefault(sid, []).append((seq, *point))
    shapes = {}
    for sid, pts in shape_pts.items():
        coords = []
        for _, lat, lon in sorted(pts, key=lambda p: p[0]):
            if not coords or coords[-1] != (lat, lon):
                coords.append((lat, lon))
        if len(coords) < 2:
            raise IngestError("referential", f"shape {sid} has fewer than 2 distinct points")
        shapes[sid] = tuple(coords)
    route_ids = {_req(row, "route_id", where) for where, row in rows("routes.txt")}
    trip_rows = {}
    for where, row in rows("trips.txt"):
        tid = _req(row, "trip_id", where)
        rid = _checked_id(_req(row, "route_id", where), "route_id")
        if rid not in route_ids:
            raise IngestError("referential", f"trip {tid} references unknown route {rid}")
        shape_id = _req(row, "shape_id", where)
        if shape_id not in shapes:
            raise IngestError("referential", f"trip {tid} references unknown shape {shape_id}")
        direction = _req(row, "direction_id", where, int64) if row.get("direction_id") else 0
        if direction not in (0, 1):
            raise IngestError("parse", f"{where}: trip {tid}: direction_id must be 0 or 1")
        if tid in trip_rows:
            raise duplicate(where, trip_id=tid)
        trip_rows[tid] = (rid, direction, shape_id)
    seq = {}
    for where, row in rows("stop_times.txt"):
        tid = _req(row, "trip_id", where)
        if tid not in trip_rows:
            raise IngestError("referential", f"stop_times references unknown trip {tid}")
        sid = _checked_id(_req(row, "stop_id", where), "stop_id")
        if sid not in stops:
            raise IngestError("referential", f"trip {tid} references unknown stop {sid}")
        k = _req(row, "stop_sequence", where, int64)
        if k in (p[0] for p in seq.get(tid, ())):
            raise duplicate(where, trip_id=tid, stop_sequence=k)
        seq.setdefault(tid, []).append((k, sid))
    trips = {}
    for tid, (rid, direction, shape_id) in trip_rows.items():
        if tid not in seq:
            raise IngestError("referential", f"trip {tid} has no stop_times rows")
        if len(seq[tid]) < 2:
            raise IngestError("referential", f"trip {tid} has fewer than 2 stops")
        trips[tid] = Trip(tid, rid, direction, shape_id,
                          tuple(sid for _, sid in sorted(seq[tid], key=lambda p: p[0])))
    routes = tuple(sorted({(t.route_id, t.direction_id) for t in trips.values()}))
    return StaticNetwork(routes=routes, shapes=shapes, stops=stops, trips=trips)


LAT = ["29.0", "29.5", "-0.0", "90", "-90", " 29.25", "1e-3", "29.0\n"]
LON = ["-82.0", "-81.5", "-180", "180", "0", "-81.75 "]
BAD_COORD = ["", "nan", "inf", "-inf", "95", "-181", "1e999", "1_0", "٣", "x", "29,0"]
SEQ = ["1", "2", "3", "4", "5", "-1", "07", " 6"]
BAD_SEQ = ["", "1.5", "x", "9223372036854775808", "1_0", "١"]
BAD_ID = ["", "ZZ", "A B", "#A", "A,1", "A;1", "A\nB", "A=1", "[A"]
BAD_DIRECTION = ["2", "-1", "x", "0.0", " 1", "01"]
EXTRA = ["", "x", "a,b", 'say "hi"', "two\r\nlines"]
KEYS = {"stops.txt": ("stop_id",), "shapes.txt": ("shape_id", "shape_pt_sequence"),
        "routes.txt": ("route_id",), "trips.txt": ("trip_id",),
        "stop_times.txt": ("trip_id", "stop_sequence")}
REFERENCES = {"trips.txt": ("route_id", "shape_id"), "stop_times.txt": ("trip_id", "stop_id")}


@st.composite
def gtfs_feeds(draw):
    """Five tables as ``{name: (columns, rows)}`` of text fields: a valid feed,
    then a few corruptions, each of one field, one row, one column or one table."""
    stop_ids = draw(st.lists(st.sampled_from(["A", "B", "C", "D", "Sé1"]), min_size=1,
                             max_size=4, unique=True))
    lat, lon = st.sampled_from(LAT), st.sampled_from(LON)
    stops = [{"stop_id": s, "stop_name": draw(st.sampled_from(EXTRA)), "stop_lat": draw(lat),
              "stop_lon": draw(lon)} for s in stop_ids]
    shape_ids = draw(st.lists(st.sampled_from(["P", "Q", "R"]), min_size=1, max_size=2,
                              unique=True))
    shapes = [{"shape_id": s, "shape_pt_sequence": k, "shape_pt_lat": draw(lat),
               "shape_pt_lon": draw(lon)}
              for s in shape_ids for k in draw(st.lists(st.sampled_from(SEQ), min_size=2,
                                                        max_size=4, unique_by=int))]
    route_ids = draw(st.lists(st.sampled_from(["R", "R2"]), min_size=1, max_size=2, unique=True))
    routes = [{"route_id": r, "route_short_name": draw(st.sampled_from(EXTRA))} for r in route_ids]
    trip_ids = draw(st.lists(st.sampled_from(["T1", "T2", "T3"]), min_size=1, max_size=3,
                             unique=True))
    trips = [{"trip_id": t, "route_id": draw(st.sampled_from(route_ids)),
              "direction_id": draw(st.sampled_from(["0", "1", ""])),
              "shape_id": draw(st.sampled_from(shape_ids))} for t in trip_ids]
    stop_times = [{"trip_id": t, "arrival_time": "06:00:00", "stop_id": draw(st.sampled_from(
        stop_ids)), "stop_sequence": k} for t in trip_ids
        for k in draw(st.lists(st.sampled_from(SEQ), min_size=2, max_size=4, unique_by=int))]
    tables = {"stops.txt": stops, "shapes.txt": shapes, "routes.txt": routes,
              "trips.txt": trips, "stop_times.txt": stop_times}
    feed = {}
    for name, rows in tables.items():
        rows = draw(st.permutations(rows))
        columns = draw(st.permutations(list(rows[0]) if rows else []))
        optional = {"stop_name", "direction_id", "route_short_name", "arrival_time"}
        columns = [c for c in columns if c not in optional or draw(st.booleans())]
        feed[name] = (columns, [dict(row) for row in rows])
    bad = {"stop_id": BAD_ID, "shape_id": BAD_ID, "route_id": BAD_ID, "trip_id": BAD_ID,
           "stop_lat": BAD_COORD, "stop_lon": BAD_COORD, "shape_pt_lat": BAD_COORD,
           "shape_pt_lon": BAD_COORD, "shape_pt_sequence": BAD_SEQ, "stop_sequence": BAD_SEQ,
           "direction_id": BAD_DIRECTION}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(feed)))
        columns, rows = feed[name]
        kind = draw(st.sampled_from(["field", "field", "field", "repeat", "repeat", "copy_row",
                                     "unknown", "drop_column", "drop_table"]))
        if kind == "drop_table":
            del feed[name]
        elif kind == "drop_column" and columns:
            columns.remove(draw(st.sampled_from(columns)))
        elif rows and kind == "copy_row":
            rows.insert(draw(st.integers(0, len(rows))), dict(draw(st.sampled_from(rows))))
        elif rows and kind == "unknown" and name in REFERENCES:
            draw(st.sampled_from(rows))[draw(st.sampled_from(REFERENCES[name]))] = "X9"
        elif rows and kind == "repeat":  # another row's key, or a part of it
            row, other = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            for column in KEYS[name][:draw(st.integers(1, 2))]:
                row[column] = other[column]
        elif rows:
            row = draw(st.sampled_from(rows))
            column = draw(st.sampled_from(sorted(set(row) & set(bad))))
            row[column] = draw(st.sampled_from(bad[column]))
    return feed


def write_feed(d, feed, quote_all: bool, crlf: bool, bom: bool, short: tuple, blank: set):
    """The tables as CSV files; row ``short[1]`` of table ``short[0]`` lacks its
    last field, and a blank line follows each row in ``blank``."""
    d.mkdir(exist_ok=True)
    for path in d.iterdir():
        path.unlink()
    for name, (columns, rows) in feed.items():
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL,
                            lineterminator="\r\n" if crlf else "\n")
        writer.writerow(columns)
        for i, row in enumerate(rows):
            fields = [row.get(c, "") for c in columns]
            writer.writerow(fields[:-1] if (name, i) == short else fields)
            if i in blank:
                writer.writerow([])
        (d / name).write_text(("\ufeff" if bom else "") + buf.getvalue(), encoding="utf-8",
                              newline="")


def assert_same_network(got, want):
    assert got == want
    if isinstance(want, StaticNetwork):
        for a, b in ((got.stops, want.stops), (got.shapes, want.shapes),
                     (got.trips, want.trips)):
            assert list(a) == list(b)


@given(feed=gtfs_feeds(), quote_all=st.booleans(), crlf=st.booleans(), bom=st.booleans(),
       short=st.tuples(st.sampled_from(["", "stops.txt", "trips.txt", "stop_times.txt"]),
                       st.integers(0, 3)),
       blank=st.sets(st.integers(0, 8), max_size=2))
@SETTINGS
def test_gtfs_reader_equals_the_row_reference(tmp_path, feed, quote_all, crlf, bom, short,
                                              blank):
    """Columns in any order, optional columns present or not, quoted fields
    with commas, quotes or line ends, a BOM, CRLF, short and blank rows, and
    bad, unknown or repeated values: the column reader returns the row
    reference's network, or raises its error."""
    d = tmp_path / "gtfs"
    write_feed(d, feed, quote_all, crlf, bom, short, blank)
    assert_same_network(outcome(load_gtfs_static, d), outcome(reference_gtfs, d))


def long_feed() -> dict:
    """A valid feed whose shapes.txt and stop_times.txt hold 1,000 rows each;
    every seventh row has a quoted field holding a line end. Stop ``A B`` is
    in stops.txt, where ids are not checked, but no trip may use it."""
    note = lambda i: "two\r\nlines" if i % 7 == 3 else ""
    stops = [{"stop_id": s, "stop_lat": "29.0", "stop_lon": f"-82.{k}"}
             for k, s in enumerate([*"ABCDE", "A B"])]
    shapes = [{"shape_id": "P", "shape_pt_sequence": str(i + 1),
               "shape_pt_lat": "29.0", "shape_pt_lon": f"{-82 + i / 1000}", "note": note(i)}
              for i in range(1000)]
    trips = [{"trip_id": f"T{t}", "route_id": "R", "shape_id": "P"} for t in range(100)]
    stop_times = [{"trip_id": f"T{i // 10}", "stop_id": "ABCDE"[i % 5],
                   "stop_sequence": str(i % 10 + 1), "stop_headsign": note(i)}
                  for i in range(1000)]
    tables = {"stops.txt": stops, "shapes.txt": shapes, "routes.txt": [{"route_id": "R"}],
              "trips.txt": trips, "stop_times.txt": stop_times}
    return {name: (list(rows[0]), rows) for name, rows in tables.items()}


@pytest.mark.parametrize("row", [1, 2, 500, 999, 1000])
@pytest.mark.parametrize("table,bad", [
    ("shapes.txt", "number"), ("shapes.txt", "repeat"), ("stop_times.txt", "number"),
    ("stop_times.txt", "unknown_stop"), ("stop_times.txt", "bad_id"),
    ("stop_times.txt", "repeat")])
def test_gtfs_first_bad_row_at_scale(tmp_path, table, bad, row):
    """One bad row among 1,000, after blank rows and quoted line ends, at
    either end of the table or in its middle: the column reader names the
    row that the row reference names, with the same error."""
    feed = long_feed()
    rows = feed[table][1]
    target = rows[row - 1]
    if bad == "number":
        target["shape_pt_sequence" if table == "shapes.txt" else "stop_sequence"] = "1.5"
    elif bad == "unknown_stop":
        target["stop_id"] = "X9"
    elif bad == "bad_id":
        target["stop_id"] = "A B"
    else:  # the key of the row before, or for row 1 of row 2, whose error it becomes
        for column in KEYS[table]:
            target[column] = rows[row - 2 if row > 1 else 1][column]
    d = tmp_path / "gtfs"
    write_feed(d, feed, quote_all=False, crlf=table == "stop_times.txt", bom=False,
               short=("", 0), blank={0, row - 2} - {-1})
    want = outcome(reference_gtfs, d)
    assert isinstance(want, str) and any(w in want for w in (f"{table}:", "X9", "'A B'"))
    assert outcome(load_gtfs_static, d) == want


@pytest.mark.parametrize("quote", ["", '"'], ids=["split", "csv_reader"])
def test_short_row_ends_in_none(tmp_path, quote):
    """A row without its last fields reads None there, as ``csv.DictReader``
    reads it, whether the table is split on commas or read by ``csv.reader``:
    a stop_name left out of one row or of every row is None, and a stop_lon
    left out is missing."""
    tables = {"stops.txt": (f"stop_id,stop_lat,stop_lon,stop_name\n{quote}A{quote},29.0,-82.0,"
                            f"{quote}Alpha{quote}\nB,29.0,-81.99\n"),
              "shapes.txt": "shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence\n"
                            "S,29.0,-82.0,1\nS,29.0,-81.99,2\n",
              "routes.txt": "route_id\nR\n", "trips.txt": "trip_id,route_id,shape_id\nT1,R,S\n",
              "stop_times.txt": "trip_id,stop_id,stop_sequence\nT1,A,1\nT1,B,2\n"}
    d = tmp_path / "gtfs"
    d.mkdir()
    for name, text in tables.items():
        (d / name).write_text(text, encoding="utf-8")
    assert load_gtfs_static(d).stops == {"A": (29.0, -82.0, "Alpha"), "B": (29.0, -81.99, None)}
    (d / "stops.txt").write_text(tables["stops.txt"].replace(f",{quote}Alpha{quote}", ""),
                                 encoding="utf-8")
    assert load_gtfs_static(d).stops == {"A": (29.0, -82.0, None), "B": (29.0, -81.99, None)}
    (d / "stops.txt").write_text(tables["stops.txt"].replace(",-81.99", ""), encoding="utf-8")
    with pytest.raises(IngestError) as e:
        load_gtfs_static(d)
    assert str(e.value) == "parse: stops.txt:3: missing field 'stop_lon'"


# ---------------------------------------------------------------------------
# weather
# ---------------------------------------------------------------------------

def weather_row(f) -> tuple:
    day, hour = day_number(f[0]), int64(f[1])
    if not 0 <= hour <= 23:
        raise ValueError(f"hour {hour} out of range")
    if not f[2] or f[2] != f[2].strip():
        raise ValueError(f"condition {f[2]!r} is blank or padded")
    return day, hour, f[2]


def reference_weather(path) -> dict:
    entries = {}
    for day, hour, condition in read_rows(file_lines(path, "date"), path.name,
                                          ("date", "hour", "condition"), weather_row):
        if (day, hour) in entries:
            raise IngestError("duplicate",
                              f"duplicate weather entry for {date_text(day)} hour {hour}")
        entries[(day, hour)] = condition
    return entries


DATES = ["2023-09-01", "2023-09-02", "2023-10-29"]
BAD_DATES = ["", "2023-9-01", "20230901", "2023-02-30", "x", " 2023-09-01"]
HOURS = [str(h) for h in range(0, 24, 5)] + ["23", "07", " 5", "+3", "\t4"]
BAD_HOURS = ["", "24", "-1", "1.0", "1_0", "٣", "9223372036854775808", "x"]
# blank or padded inside the line (refused), and padded at the line end (stripped):
# drawn only as the ``label`` corruption, so that most files reach the key rule
BAD_LABELS = ["", " ", " Rain", "\tClear", "Rain ", "Heavy Rain\t"]


@st.composite
def weather_lines(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(DATES), st.sampled_from(HOURS),
                                   st.sampled_from(["Rain", "Clear", "Heavy Rain"])),
                         max_size=8))
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        kind = draw(st.sampled_from(["date", "hour", "label", "fields", "shift", "repeat"]))
        if kind == "date":
            fields[0] = draw(st.sampled_from(BAD_DATES))
        elif kind == "hour":
            fields[1] = draw(st.sampled_from(BAD_HOURS))
        elif kind == "label":
            fields[2:] = [draw(st.sampled_from(BAD_LABELS))]
        elif kind == "fields":
            fields = fields[:2] if draw(st.booleans()) else [*fields, "x"]
        elif kind == "shift" and i + 1 < len(lines):  # 4 fields, then 2: as many as before
            first, _, lines[i + 1] = lines[i + 1].partition(",")
            fields.append(first)
        else:
            fields = draw(st.sampled_from(lines)).split(",")
        lines[i] = ",".join(fields)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "# note", "Date,hour,condition"])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["date,hour,condition", "DATE,Hour,Condition"])))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    return [pad + line + pad for line in lines]


@given(lines=weather_lines(), crlf=st.booleans())
@SETTINGS
def test_weather_reader_equals_the_row_reference(tmp_path, lines, crlf):
    """Headers, comments, blank and padded lines, bad dates and hours, blank
    and padded conditions, wrong field counts and repeated hours: the column
    reader returns the row reference's entries, in the same order, or raises
    its error."""
    path = tmp_path / "weather.csv"
    path.write_text(("\r\n" if crlf else "\n").join(lines) + "\n", encoding="utf-8", newline="")
    got, want = outcome(load_weather, path), outcome(reference_weather, path)
    got = got if isinstance(got, str) else got.entries
    assert got == want
    if isinstance(want, dict):
        assert list(got) == list(want)


# ---------------------------------------------------------------------------
# model store
# ---------------------------------------------------------------------------

def reference_store(path) -> ModelStore:
    """The model store read line by line, each value by its field's reader."""
    sections: dict = {}
    fields = None
    with open(path, encoding="utf-8-sig") as fh:
        numbered = list(enumerate(fh, start=1))
    for lineno, line in ((n, raw.strip()) for n, raw in numbered):
        if not line or line[0] == "#":
            continue
        try:
            if line.startswith("["):
                section = _section(line)
                if section in sections:
                    raise ValueError(f"section {line!r} repeated")
                fields, table = {}, _SECTIONS[section[0]][1]
                sections[section] = (lineno, fields)
                continue
            key, sep, value = (t.strip() for t in line.partition("="))
            if not sep:
                raise ValueError(f"{line!r} is neither a [section] header nor field = value")
            if fields is None:
                raise ValueError(f"field {key!r} before the first section header")
            if key not in table:
                raise ValueError(f"{section[0]} section has no field {key!r}")
            parsed = table[key].read(value)
            if table[key].rows:
                fields.setdefault(key, []).append(parsed)
            elif key in fields:
                raise ValueError(f"field {key!r} repeated")
            else:
                fields[key] = parsed
        except ValueError as exc:
            raise IngestError("parse", f"{path.name}:{lineno}: {exc}") from exc
    models: dict = {kind: {} for kind in _SECTIONS}
    for (kind, rk, ident), (lineno, fields) in sections.items():
        try:
            models[kind][(rk, ident)] = _model(kind, ident, fields)
        except ValueError as exc:
            raise IngestError("parse", f"{path.name}:{lineno}: [{kind} {rk[0]} {rk[1]} {ident}] "
                              f"{exc}") from exc
    if not any(models.values()):
        raise IngestError("empty", f"{path} contains no models")
    return ModelStore(*models.values())


BAD_TOKENS = ["", "nan", "inf", "-1", "-0.5", "1.5", "1e999", "1_0", "٣", "x", "absent",
              "2", " 7", "1e3"]
BAD_FLOATS = ["-1", "-0.5", "-0.0", "nan", "1e999", "x", "1_0"]


@st.composite
def corrupted_lines(draw, lines):
    """``lines`` with a few lines changed: a token replaced (often one of a
    FIM row or dwell samples), a line dropped, repeated or moved, or a
    token added."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "token", "fim", "samples", "drop", "repeat", "move",
                                     "add"]))
        lists = [k for k, line in enumerate(lines) if line.startswith(kind)]
        bad = st.sampled_from(BAD_TOKENS)
        if kind in ("fim", "samples") and lists:  # a float list, read by ``_floats``
            i, kind, bad = draw(st.sampled_from(lists)), "token", st.sampled_from(BAD_FLOATS)
        if kind == "token":
            head, sep, value = lines[i].partition(" = ")
            tokens = value.split(",")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(bad)
            lines[i] = head + sep + ",".join(tokens)
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "move":
            lines.insert(draw(st.integers(0, len(lines))), lines.pop(i))
        else:
            lines[i] += "," + draw(st.sampled_from(["0", "1", "x"]))
    return lines


@given(store=stores.filter(lambda s: s.road or s.dwell or s.intersections), data=st.data())
@SETTINGS
def test_store_reader_equals_the_row_reference(tmp_path, store, data):
    """Model stores of ``test_store_properties``' strategy, written and then
    corrupted: ``read_store``, which reads the file whole and then each value
    at its own line, returns the row reference's models or raises its error."""
    path = tmp_path / "models.txt"
    write_store(path, store)
    lines = data.draw(corrupted_lines(path.read_text(encoding="utf-8").splitlines()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, want = outcome(read_store, path), outcome(reference_store, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_store(got, want)
        for a, b in ((got.road, want.road), (got.dwell, want.dwell),
                     (got.intersections, want.intersections)):
            assert list(a) == list(b)
