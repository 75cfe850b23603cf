"""Loaders for GTFS static tables, ping records, weather, and intersections.

All loaders are pure functions of their input files and return
structures that are not changed after loading. Pings are columnar: each
traversal segment holds int64 timestamp and float lat/lon arrays, and
its ``Ping`` rows are built only when something reads them. Timestamps
are POSIX seconds UTC throughout; all calendar logic (hour, weekday, date)
is ``local_day_hour``, under a single signed ``tz_offset`` in hours. Every
text input of the package is opened by ``open_text``, and every
line-oriented one keeps the lines ``data_text`` keeps.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import groupby, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import IngestError

DEFAULT_TZ_OFFSET = -5  # US Eastern standard time; the feeds carry no zone info
DEFAULT_MAX_GAP_S = 120.0
DEFAULT_RAIN_LABELS = frozenset({"Rain", "Thunderstorm", "Drizzle"})
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # day number 0


def local_day_hour(t: float, tz_offset: float) -> tuple:
    """``(day, hour)`` of POSIX time ``t`` on the local clock at a fixed
    offset of ``tz_offset`` hours, both floored; ``day`` counts days since
    1970-01-01, and ``(day + 3) % 7`` is its weekday (0 = Monday). Exact
    from 2004 to 2038, where ``t`` and ``t + 3600 * tz_offset`` share a binade."""
    day, second = divmod(t + 3600 * tz_offset, 86400)
    return int(day), int(second // 3600)


def day_number(text: str) -> int:
    """Day number of a ``YYYY-MM-DD`` date; ValueError for other text,
    such as the ``20231009`` that Python 3.11's ``fromisoformat`` takes."""
    parsed = date.fromisoformat(text)
    if parsed.isoformat() != text:
        raise ValueError(f"{text!r} is not a YYYY-MM-DD date")
    return parsed.toordinal() - EPOCH_ORDINAL


def date_text(day: int) -> str:
    """The ``YYYY-MM-DD`` date of a day number in years 1-9999."""
    return date.fromordinal(day + EPOCH_ORDINAL).isoformat()


def local_date_hour(t: float, tz_offset: float):
    """``local_day_hour`` with the day as ``YYYY-MM-DD`` text."""
    day, hour = local_day_hour(t, tz_offset)
    return date_text(day), hour


# ---------------------------------------------------------------------------
# Text lines and fields
# ---------------------------------------------------------------------------

@contextmanager
def open_text(path, newline: str | None = None):
    """``path`` open for reading as UTF-8 text, a leading byte-order mark
    dropped; a byte that is not UTF-8 raises IngestError naming the file."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise IngestError("not_utf8", f"{path}: not UTF-8 text ({exc.reason})") from None


def data_text(lines, only: str | None = None) -> list:
    """The stripped ``lines`` that are neither blank nor a ``#`` comment and,
    with ``only``, whose first comma-separated field is ``only``."""
    if only is None:
        return [s for s in map(str.strip, lines) if s and s[0] != "#"]
    return [s for raw in lines if only in raw for s in (raw.strip(),)
            if s and s[0] != "#" and s.partition(",")[0] == only]


def data_lines(path, only: str | None = None):
    """Yield ``(line number, line)`` for every line of a text file that
    ``data_text`` keeps."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            for line in data_text((raw,), only):
                yield lineno, line


def read_rows(path, columns, convert, header: bool = True, only: str | None = None):
    """Yield ``convert(fields)`` for each data line of a comma-separated file
    with the given ``columns``, or only of those whose first field is
    ``only``. With ``header``, line 1 is skipped if its first field is the
    first column name, ignoring case. A wrong field count or a ValueError
    from ``convert`` raises IngestError("parse") naming file:line."""
    path = Path(path)
    first = columns[0].lower()
    for lineno, line in data_lines(path, only):
        parts = line.split(",")
        if header and lineno == 1 and parts[0].lower() == first:
            continue
        if len(parts) != len(columns):
            raise IngestError("parse", f"{path.name}:{lineno}: expected {len(columns)} "
                              f"fields, got {len(parts)}")
        try:
            row = convert(parts)
        except ValueError as exc:
            raise IngestError("parse", f"{path.name}:{lineno}: {exc}") from None
        yield row


def finite_float(text: str) -> float:
    """float() that also rejects ``nan`` and ``inf`` with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def position(lat: float, lon: float) -> tuple:
    """``(lat, lon)``, or ValueError unless both are in [-90, 90] x [-180, 180]."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"({lat!r}, {lon!r}) is outside [-90, 90] x [-180, 180]")
    return lat, lon


# ---------------------------------------------------------------------------
# GTFS static
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trip:
    trip_id: str
    route_id: str
    direction_id: int
    shape_id: str
    stop_ids: tuple


@dataclass(frozen=True)
class StaticNetwork:
    routes: tuple  # ((route_id, direction_id), ...)
    shapes: dict  # shape_id -> ((lat, lon), ...)
    stops: dict  # stop_id -> (lat, lon, name)
    trips: dict  # trip_id -> Trip


def _read_table(dir_path: Path, name: str):
    """``(where, row)`` for each row of a GTFS table, where ``where`` is
    ``table:line`` (the row's last physical line)."""
    path = dir_path / name
    if not path.is_file():
        raise IngestError("missing_table", f"{name} not found in {dir_path}")
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [(f"{name}:{reader.line_num}", row) for row in reader]


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


_BAD_ID = re.compile(r"^#|[\s,;=\[\]]")


def _checked_id(value: str, what: str) -> str:
    """Reject an id that the observation file (split on ``,`` ``;`` ``=``)
    or the model store's ``[kind id ...]`` headers (split on whitespace)
    could not read back, or that would start a line every reader skips."""
    if _BAD_ID.search(value):
        raise IngestError("bad_id", f"{what} {value!r} begins with # or contains "
                          "whitespace or one of , ; = [ ]")
    return value


def load_gtfs_static(dir_path) -> StaticNetwork:
    """Parse the five core GTFS tables into a validated StaticNetwork.

    The route and stop ids that trips use must be usable in the output
    files (see ``_checked_id``); others are kept as read.
    """
    dir_path = Path(dir_path)

    stops = {}
    for where, row in _read_table(dir_path, "stops.txt"):
        sid = _req(row, "stop_id", where)
        stops[sid] = (*_req_position(row, "stop_", where),
                      row.get("stop_name", ""))

    shape_pts = {}
    for where, row in _read_table(dir_path, "shapes.txt"):
        sid = _req(row, "shape_id", where)
        shape_pts.setdefault(sid, []).append(
            (_req(row, "shape_pt_sequence", where, int),
             *_req_position(row, "shape_pt_", where)))
    shapes = {}
    for sid, pts in shape_pts.items():
        pts.sort(key=lambda p: p[0])
        coords = []
        for _, lat, lon in pts:
            if coords and coords[-1] == (lat, lon):
                continue  # drop exact consecutive duplicates
            coords.append((lat, lon))
        if len(coords) < 2:
            raise IngestError("referential", f"shape {sid} has fewer than 2 distinct points")
        shapes[sid] = tuple(coords)

    route_ids = set()
    for where, row in _read_table(dir_path, "routes.txt"):
        route_ids.add(_req(row, "route_id", where))

    trip_rows = {}
    for where, row in _read_table(dir_path, "trips.txt"):
        tid = _req(row, "trip_id", where)
        rid = _checked_id(_req(row, "route_id", where), "route_id")
        if rid not in route_ids:
            raise IngestError("referential", f"trip {tid} references unknown route {rid}")
        shape_id = _req(row, "shape_id", where)
        if shape_id not in shapes:
            raise IngestError("referential", f"trip {tid} references unknown shape {shape_id}")
        direction = _req(row, "direction_id", where, int) if row.get("direction_id") else 0
        if direction not in (0, 1):
            raise IngestError("parse", f"{where}: trip {tid}: direction_id must be 0 or 1")
        trip_rows[tid] = (rid, direction, shape_id)

    seq = {}
    for where, row in _read_table(dir_path, "stop_times.txt"):
        tid = _req(row, "trip_id", where)
        if tid not in trip_rows:
            raise IngestError("referential", f"stop_times references unknown trip {tid}")
        sid = _checked_id(_req(row, "stop_id", where), "stop_id")
        if sid not in stops:
            raise IngestError("referential", f"trip {tid} references unknown stop {sid}")
        seq.setdefault(tid, []).append((_req(row, "stop_sequence", where, int), sid))

    trips = {}
    for tid, (rid, direction, shape_id) in trip_rows.items():
        if tid not in seq:
            raise IngestError("referential", f"trip {tid} has no stop_times rows")
        ordered = [sid for _, sid in sorted(seq[tid], key=lambda p: p[0])]
        if len(ordered) < 2:
            raise IngestError("referential", f"trip {tid} has fewer than 2 stops")
        trips[tid] = Trip(trip_id=tid, route_id=rid, direction_id=direction,
                          shape_id=shape_id, stop_ids=tuple(ordered))

    routes = tuple(sorted({(t.route_id, t.direction_id) for t in trips.values()}))
    return StaticNetwork(routes=routes, shapes=shapes, stops=stops, trips=trips)


# ---------------------------------------------------------------------------
# Vehicle position records
# ---------------------------------------------------------------------------

class Ping(NamedTuple):
    trip_id: str
    vehicle_id: str
    timestamp: int
    lat: float
    lon: float


@dataclass(frozen=True, eq=False)
class Traversal:
    trip_id: str
    vehicle_id: str
    timestamps: np.ndarray  # int64, strictly increasing
    lats: np.ndarray
    lons: np.ndarray

    @property
    def pings(self) -> tuple:
        """The segment as ``Ping`` rows, built on each use and not kept: a
        caller that reads one row of every segment holds one segment's rows."""
        return tuple(map(Ping, repeat(self.trip_id), repeat(self.vehicle_id),
                         self.timestamps.tolist(), self.lats.tolist(), self.lons.tolist()))


@dataclass(frozen=True)
class PingSeries:
    segments: tuple  # (Traversal, ...) split at gaps > max_gap_s

    @cached_property
    def records(self) -> tuple:
        """All pings after dedup as ``Ping`` rows, sorted within groups."""
        return tuple(p for seg in self.segments for p in seg.pings)


PING_BLOCK_LINES = 1 << 10  # lines parsed per vectorized block; few, so its strings stay few


def _ping(f) -> Ping:
    ts = int(f[2])
    if not -2**63 <= ts < 2**63:
        raise ValueError(f"timestamp {ts} is outside int64")
    return Ping(f[0], f[1], ts, *position(finite_float(f[3]), finite_float(f[4])))


def _ping_block(lines):
    """Trip ids, vehicle ids, int64 timestamps and 2 x n lats and lons of ping
    lines, each field converted with ``int`` or ``float`` as ``_ping`` does;
    a ValueError or OverflowError means some line is not valid for ``_ping``.
    Joined by newlines, n lines of 5 fields hold 5n - 1 separators, every
    fifth of them a newline, exactly when each line has 5 fields."""
    b = np.frombuffer("\n".join(lines).encode(), dtype=np.uint8)
    sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
    k = len(Ping._fields)
    if sep.shape[0] != k * len(lines) - 1 or not (b[sep[k - 1::k]] == ord("\n")).all():
        raise ValueError("wrong field count")
    f = ",".join(lines).split(",")
    coords = np.array([f[3::5], f[4::5]], dtype=float)
    bound = np.array([90.0, 180.0])  # a nan fails both comparisons
    if not ((coords.min(axis=1) >= -bound) & (coords.max(axis=1) <= bound)).all():
        raise ValueError("coordinate out of range or nan")
    return f[0::5], f[1::5], np.array(f[2::5], dtype=np.int64), coords


def load_pings(path, max_gap_s: float = DEFAULT_MAX_GAP_S,
               trip_id: str | None = None) -> PingSeries:
    """Load ``trip_id,vehicle_id,timestamp,lat,lon`` lines (no header),
    grouped by (trip_id, vehicle_id) and sorted by timestamp. Of records
    with one timestamp the file's first is kept; gaps larger than
    ``max_gap_s`` split a group into separate traversal segments. With
    ``trip_id`` only that trip's lines are read and checked; none is no error.

    The file is read in blocks of ``PING_BLOCK_LINES`` lines, each kept by
    ``data_text`` and parsed at once; a (trip_id, vehicle_id) key is coded
    once per run of equal keys in a block. A block that fails the
    vectorized checks is re-read row by row through ``_ping``, so the
    first bad line raises IngestError("parse") naming file:line.
    """
    codes: dict = {}  # (trip_id, vehicle_id) -> a distinct int
    blocks = []
    with open_text(path) as fh:
        while lines := list(islice(fh, PING_BLOCK_LINES)):
            if not (lines := data_text(lines, trip_id)):
                continue
            try:
                trips, vehicles, ts, coords = _ping_block(lines)
            except (ValueError, OverflowError):
                for _ in read_rows(path, Ping._fields, _ping, header=False, only=trip_id):
                    pass  # raises at the file's first bad line, which is in this block
                raise
            runs = [(codes.setdefault(key, len(codes)), len(list(group)))
                    for key, group in groupby(zip(trips, vehicles))]
            blocks.append((np.repeat(*zip(*runs)), ts, coords))
    if not blocks:
        if trip_id is None:
            raise IngestError("empty", f"{path} contains no records")
        return PingSeries(segments=())
    # One column at a time, each copy replacing the one it was made from, so
    # that the file's columns are held about once.
    columns = list(zip(*blocks))
    blocks.clear()
    group, ts, coords = (np.concatenate(columns.pop(0), axis=-1) for _ in range(3))
    keys = sorted(codes)
    group = np.argsort([codes[key] for key in keys])[group]  # code -> its key's sorted place
    order = np.lexsort((ts, group))  # stable: the file's first duplicate leads
    group = group[order]
    ts = ts[order]
    coords = coords[:, order]
    keep = np.concatenate(([True], (group[1:] != group[:-1]) | (ts[1:] != ts[:-1])))
    group = group[keep]
    ts = ts[keep]
    lats, lons = coords[:, keep]
    # unsigned differences cannot overflow within a sorted group
    split = (group[1:] != group[:-1]) | (np.diff(ts.view(np.uint64)) > max_gap_s)
    bounds = np.flatnonzero(np.concatenate(([True], split, [True]))).tolist()
    return PingSeries(segments=tuple(Traversal(*keys[group[a]], ts[a:b], lats[a:b], lons[a:b])
                                     for a, b in zip(bounds, bounds[1:])))


# ---------------------------------------------------------------------------
# Weather
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeatherTable:
    entries: dict  # (day number, hour 0-23) -> condition label

    def condition(self, day: int, hour: int) -> str:
        if (day, hour) not in self.entries:
            dated = 0 < day + EPOCH_ORDINAL <= date.max.toordinal()
            when = date_text(day) if dated else f"day number {day}"
            raise IngestError("missing_weather", f"no weather entry for {when} hour {hour}")
        return self.entries[(day, hour)]


def _weather_row(f) -> tuple:
    day, hour = day_number(f[0]), int(f[1])
    if not 0 <= hour <= 23:
        raise ValueError(f"hour {hour} out of range")
    return day, hour, f[2]


def load_weather(path) -> WeatherTable:
    """Load ``date,hour,condition`` rows; duplicate (date, hour) is an error."""
    entries = {}
    for day, hour, condition in read_rows(path, ("date", "hour", "condition"), _weather_row):
        if (day, hour) in entries:
            raise IngestError("duplicate",
                              f"duplicate weather entry for {date_text(day)} hour {hour}")
        entries[(day, hour)] = condition
    return WeatherTable(entries=entries)


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionSet:
    points: tuple  # ((intersection_id, lat, lon), ...)


def load_intersections(path) -> IntersectionSet:
    """Load ``intersection_id,lat,lon`` rows; a duplicate id is an error."""
    points = []
    seen = set()
    for xid, lat, lon in read_rows(path, ("intersection_id", "lat", "lon"),
                                   lambda f: (f[0], *position(*map(finite_float, f[1:])))):
        _checked_id(xid, "intersection_id")
        if xid in seen:
            raise IngestError("duplicate", f"duplicate intersection id {xid}")
        seen.add(xid)
        points.append((xid, lat, lon))
    return IntersectionSet(points=tuple(points))
