"""Loaders for GTFS static tables, ping records, weather, and intersections.

All loaders are pure functions of their input files and return
structures that are not changed after loading. Pings are columnar: each
traversal segment holds int64 timestamp and float lat/lon arrays, and
its ``Ping`` rows are built only when something reads them. Timestamps
are POSIX seconds UTC throughout; all calendar logic (hour, weekday, date)
is ``local_day_hour``, under a single signed ``tz_offset`` in hours. Every
text input of the package is opened by ``open_text``, every
line-oriented one keeps the lines ``data_text`` keeps, and every number
of a data file is in the one grammar of ``number``. The GTFS tables and
the weather file are read whole and checked on columns; the row rules
(``_req``, ``_weather_row``, ...) run only when a check fails, to name
the first bad row.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain, count, repeat, zip_longest
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


def headed_lines(path, first: str) -> list:
    """The lines of a text file that ``read_rows`` reads with the header column
    ``first``: those ``data_text`` keeps, less line 1 if its first field is ``first``."""
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if lines[0].strip().partition(",")[0].lower() == first:
        lines[0] = ""  # the header, allowed on line 1 only
    return data_text(lines)


def number_text(text: str) -> bool:
    """Whether ``text`` may hold numbers: ASCII, with no ``_``."""
    return text.isascii() and "_" not in text


def number(text: str, kind: type = float):
    """``kind(text)`` (``float`` or ``int``) of a number, which is ``number_text``
    that ``kind`` accepts: ValueError for ``1_000`` or ``١٥``."""
    if not number_text(text):
        raise ValueError(f"{text!r} is not a number: not ASCII, or holds _")
    return kind(text)


def finite_float(text: str) -> float:
    """A ``number`` that is not ``nan`` or ``inf``; ValueError for any other text."""
    value = number(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def int64(text: str) -> int:
    """A ``number`` read by ``int``; ValueError outside int64."""
    value = number(text, int)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text!r} is outside int64")
    return value


def position(lat: float, lon: float) -> tuple:
    """``(lat, lon)``, or ValueError unless both are in [-90, 90] x [-180, 180]."""
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"({lat!r}, {lon!r}) is outside [-90, 90] x [-180, 180]")
    return lat, lon


def without_nul(fields: list) -> list:
    """``fields``, or ValueError if one holds a NUL, which ``np.loadtxt`` drops
    from the end of a text field: no ping or observation line may."""
    if any("\0" in f for f in fields):
        raise ValueError("a field holds a NUL")
    return fields


def read_records(lines: list, fields: list, reference) -> np.ndarray:
    """Comma-separated ``lines`` read by ``np.loadtxt`` as records of the dtypes
    ``fields`` (``U``, ``i8``, ``f8``). It reads numbers as ``number`` does but
    for padding of NUL, ``\\x1c``-``\\x1f`` or non-ASCII whitespace, and drops a
    text field's last NULs: lines that are not ASCII or hold one of these are
    checked by ``reference`` too. A text field that a value fills is widened in
    ``fields`` and read again, so that none is cut. A ValueError means that
    either of them refuses a line."""
    while True:
        with warnings.catch_warnings():  # numpy 1.23 on read i8 text 4.5 as 4, warning only
            warnings.simplefilter("error", DeprecationWarning)
            try:
                records = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                                     ndmin=1, dtype=[(f"f{k}", t) for k, t in enumerate(fields)])
            except DeprecationWarning as exc:
                raise ValueError(exc) from None
        full = [k for k, t in enumerate(fields) if t.kind == "U"  # last code unit not 0
                and records[f"f{k}"].view((np.uint32, t.itemsize // 4))[:, -1].any()]
        if not full:
            break
        for k in full:
            fields[k] = np.dtype(f"U{2 * fields[k].itemsize // 4}")
    if not (text := "".join(lines)).isascii() or any(c in text for c in "\0\x1c\x1d\x1e\x1f"):
        for line in lines:
            reference(line.split(","))  # loadtxt has checked each line's field count
    return records


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


def _columns(path: Path) -> tuple:
    """A GTFS table as ``(n, column)``: its n data rows and ``column(name, default)``,
    the name's n fields as ``csv.DictReader`` reads them: blank lines dropped, of two
    columns of one name the later, None past the end of a short row, and ``default``
    (n Nones) for a name not in the header. A table with a ``"`` (or a NUL, which
    Python 3.10's csv refuses) is read by one ``csv.reader`` pass; any other is split
    on line ends and commas as ``csv.reader`` splits it, with no list per row."""
    if not path.is_file():
        raise IngestError("missing_table", f"{path.name} not found in {path.parent}")
    with open_text(path, newline="") as fh:
        text = fh.read()
    if '"' in text or "\0" in text:
        header, *rows = [*csv.reader(io.StringIO(text, newline=""))] or [[]]
        rows = list(filter(None, rows))
        widths, cells = set(map(len, rows)), list(chain.from_iterable(rows))
    else:
        first, *rows = text.replace("\r", "\n").split("\n")
        header, rows = first.split(",") if first else [], list(filter(None, rows))
        widths = {c + 1 for c in set(map(str.count, rows, repeat(",")))}
        cells = ",".join(rows).split(",") if rows else []
        rows = rows if widths <= {len(header)} else [row.split(",") for row in rows]
    n, width, none = len(rows), len(header), [None] * len(rows)
    if widths <= {width}:  # each column a stride of the row-major fields
        get = lambda k: cells[k::width]
    else:
        get = [*zip_longest(*rows), *repeat(none, width)].__getitem__
    index = dict(zip(header, count()))
    return n, lambda name, default=none: default if (k := index.get(name)) is None else get(k)


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


def _texts(column) -> list:
    """``column``; ValueError if a field is missing or empty, as for ``_req``."""
    if not all(column):
        raise ValueError("missing field")
    return column


def _numbers(column, kind: type = float) -> np.ndarray:
    """The fields as ``number(text, kind)`` reads each, in an array of ``kind``
    (``float`` or ``np.int64``); ValueError, TypeError or OverflowError if not."""
    if not number_text("".join(column)):
        raise ValueError("not a number")
    return np.array(column, dtype=kind)  # each field as float() or int() reads it


def _positions(column, prefix: str) -> tuple:
    """The lat and lon arrays of ``_req_position``; ValueError if a row fails it."""
    lat, lon = (_numbers(column(prefix + c)) for c in ("lat", "lon"))
    if not ((np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):  # nan fails
        raise ValueError("not a position")
    return lat, lon


def _by_key(keys, seq: np.ndarray, groups) -> tuple:
    """``(order, bounds)``: rows by the place of their key in ``groups`` (KeyError
    for another key), then by ``seq``, and where each key's rows begin and end;
    ValueError if a ``(key, seq)`` repeats."""
    index = dict(zip(groups, count()))
    code = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    order = np.lexsort((seq, code))
    code, seq = code[order], seq[order]
    if ((code[1:] == code[:-1]) & (seq[1:] == seq[:-1])).any():
        raise ValueError("a key repeats")
    return order, np.searchsorted(code, np.arange(len(index) + 1)).tolist()


_BAD_ID = re.compile(r"^#|[\s,;=\[\]]")


def _checked_id(value: str, what: str) -> str:
    """Reject an id that the observation file (split on ``,`` ``;`` ``=``)
    or the model store's ``[kind id ...]`` headers (split on whitespace)
    could not read back, or that would start a line every reader skips."""
    if _BAD_ID.search(value):
        raise IngestError("bad_id", f"{what} {value!r} begins with # or contains "
                          "whitespace or one of , ; = [ ]")
    return value


# Each GTFS table has a row rule, which states its field and reference rules
# on one ``csv.DictReader`` row in the order they are checked, and a column
# pass, which checks the same rules on whole columns.

def _stop(row: dict, where: str) -> tuple:
    return _req(row, "stop_id", where), *_req_position(row, "stop_", where)


def _stops(n: int, column) -> dict:
    ids = _texts(column("stop_id"))
    lat, lon = _positions(column, "stop_")
    if len(set(ids)) < n:
        raise ValueError("a stop_id repeats")
    return dict(zip(ids, zip(lat.tolist(), lon.tolist(), column("stop_name", repeat("")))))


def _shape_point(row: dict, where: str) -> tuple:
    return (_req(row, "shape_id", where), _req(row, "shape_pt_sequence", where, int64),
            *_req_position(row, "shape_pt_", where))


def _shapes(n: int, column) -> dict:
    ids = _texts(column("shape_id"))
    seq = _numbers(column("shape_pt_sequence"), np.int64)
    lat, lon = _positions(column, "shape_pt_")
    order, bounds = _by_key(ids, seq, groups := dict.fromkeys(ids))  # in first-row order
    points = list(zip(lat[order].tolist(), lon[order].tolist()))
    shapes = {}
    for sid, a, b in zip(groups, bounds, bounds[1:]):
        # exact consecutive duplicates dropped
        shapes[sid] = tuple(p for p, q in zip(points[a:b], [None, *points[a:b]]) if p != q)
        if len(shapes[sid]) < 2:
            raise IngestError("referential", f"shape {sid} has fewer than 2 distinct points")
    return shapes


def _trip(row: dict, where: str, route_ids: set, shapes: dict) -> tuple:
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
    return tid, rid, direction, shape_id


def _trips(n: int, column, route_ids: set, shapes: dict) -> dict:
    """trip_id -> (route_id, direction_id, shape_id), in file order."""
    tids, rids, shape_ids = map(_texts, map(column, ("trip_id", "route_id", "shape_id")))
    texts = column("direction_id")
    directions = {t: int64(t) if t else 0 for t in set(texts)}
    if (len(set(tids)) < n or not set(rids) <= route_ids or any(map(_BAD_ID.search, set(rids)))
            or not set(shape_ids) <= shapes.keys() or not set(directions.values()) <= {0, 1}):
        raise ValueError("a trips.txt row breaks a rule")
    return dict(zip(tids, zip(rids, map(directions.__getitem__, texts), shape_ids)))


def _stop_time(row: dict, where: str, trips: dict, stops: dict) -> tuple:
    tid = _req(row, "trip_id", where)
    if tid not in trips:
        raise IngestError("referential", f"stop_times references unknown trip {tid}")
    sid = _checked_id(_req(row, "stop_id", where), "stop_id")
    if sid not in stops:
        raise IngestError("referential", f"trip {tid} references unknown stop {sid}")
    return tid, _req(row, "stop_sequence", where, int64), sid


def _stop_times(n: int, column, trips: dict, stops: dict) -> tuple:
    """The stop ids by trip, in the order of ``trips``, then by stop_sequence, and
    where each trip's ids begin and end. No key of trips or stops is missing."""
    tids, sids, seq = column("trip_id"), column("stop_id"), column("stop_sequence")
    seq, used = _numbers(seq, np.int64), set(sids)
    if not used <= stops.keys() or any(map(_BAD_ID.search, used)):
        raise ValueError("a stop_times.txt row breaks a rule")
    order, bounds = _by_key(tids, seq, trips)
    return list(map(sids.__getitem__, order.tolist())), bounds


def _gtfs_table(dir_path: Path, name: str, key: tuple, columns, row, *context):
    """The column pass ``columns(n, column, *context)`` of a table. If it fails,
    the error of the table's first row that ``row(fields, where, *context)``
    refuses, or whose first ``len(key)`` values, its ``key`` columns, repeat an
    earlier row's: IngestError("duplicate") naming ``table:line``."""
    path = dir_path / name
    try:
        return columns(*_columns(path), *context)
    except (ValueError, TypeError, OverflowError, KeyError):
        seen = set()
        with open_text(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for fields in reader:
                where = f"{name}:{reader.line_num}"  # the row's last physical line
                values = row(fields, where, *context)[:len(key)]
                if key and values in seen:
                    raise IngestError("duplicate", f"{where}: duplicate " + ", ".join(
                        f"{k} {v!r}" for k, v in zip(key, values))) from None
                seen.add(values)
        raise


def load_gtfs_static(dir_path) -> StaticNetwork:
    """Parse the five core GTFS tables into a validated StaticNetwork.

    Each table is read whole and checked column by column (``_gtfs_table``).
    A repeated stop_id, trip_id, (shape_id, shape_pt_sequence) or (trip_id,
    stop_sequence) is an error. The route and stop ids that trips use must
    be usable in the output files (see ``_checked_id``); others are kept as read.
    """
    dir_path = Path(dir_path)
    stops = _gtfs_table(dir_path, "stops.txt", ("stop_id",), _stops, _stop)
    shapes = _gtfs_table(dir_path, "shapes.txt", ("shape_id", "shape_pt_sequence"),
                         _shapes, _shape_point)
    route_ids = _gtfs_table(dir_path, "routes.txt", (),
                            lambda n, column: set(_texts(column("route_id"))),
                            lambda row, where: (_req(row, "route_id", where),))
    trip_rows = _gtfs_table(dir_path, "trips.txt", ("trip_id",), _trips, _trip,
                            route_ids, shapes)
    stop_ids, bounds = _gtfs_table(dir_path, "stop_times.txt", ("trip_id", "stop_sequence"),
                                   _stop_times, _stop_time, trip_rows, stops)
    trips = {}
    for (tid, (rid, direction, shape_id)), a, b in zip(trip_rows.items(), bounds, bounds[1:]):
        if b - a < 2:
            raise IngestError("referential", f"trip {tid} has no stop_times rows" if a == b
                              else f"trip {tid} has fewer than 2 stops")
        trips[tid] = Trip(trip_id=tid, route_id=rid, direction_id=direction,
                          shape_id=shape_id, stop_ids=tuple(stop_ids[a:b]))
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


PING_BLOCK_LINES = 1 << 10  # most lines per vectorized parse, so its strings stay few
_PING_CHUNK_CHARS = 1 << 15  # characters per read; below 8 Ki, whole-file reads slow down


def _ping(f) -> Ping:
    return Ping(f[0], f[1], int64(without_nul(f)[2]),
                *position(finite_float(f[3]), finite_float(f[4])))


def _ping_block(lines, fields: list):
    """Trip ids and vehicle ids (text arrays), int64 timestamps, lats and lons
    of ping lines, read by ``read_records`` into ``fields`` as ``_ping`` reads
    them; a ValueError means some line is not valid for ``_ping``."""
    records = read_records(lines, fields, _ping)
    # copies, not views: the block's records are freed once its ids are coded
    ts, lats, lons = (records[f].copy() for f in ("f2", "f3", "f4"))
    if not (np.abs(lats).max() <= 90.0 and np.abs(lons).max() <= 180.0):  # a nan fails
        raise ValueError("coordinate out of range or nan")
    return records["f0"], records["f1"], ts, lats, lons


def _line_blocks(fh, only: str | None):
    """The lines of text file ``fh``, split on ``"\\n"`` alone as iterating over it splits
    them, in lists of at most ``PING_BLOCK_LINES``. With ``only``, lines that end in a chunk
    that lacks ``only``, with the line it continues, are dropped unsplit: none holds it."""
    pieces = []  # the unfinished line, joined once where it ends
    while chunk := fh.read(_PING_CHUNK_CHARS):
        pieces.append(chunk)
        if "\n" not in chunk:
            continue
        text = "".join(pieces)
        lines = [text[text.rindex("\n") + 1:]] if only and only not in text else text.split("\n")
        pieces = [lines.pop()]
        for start in range(0, len(lines), PING_BLOCK_LINES):
            yield lines[start:start + PING_BLOCK_LINES]
    yield ["".join(pieces)]


def load_pings(path, max_gap_s: float = DEFAULT_MAX_GAP_S,
               trip_id: str | None = None) -> PingSeries:
    """Load ``trip_id,vehicle_id,timestamp,lat,lon`` lines (no header),
    grouped by (trip_id, vehicle_id) and sorted by timestamp. Of records
    with one timestamp the file's first is kept; gaps larger than
    ``max_gap_s`` split a group into separate traversal segments. With
    ``trip_id`` only that trip's lines are read and checked; none is no error.

    The file is read in the blocks of ``_line_blocks``, which skips text that
    cannot hold ``trip_id``, each kept by ``data_text`` and parsed by one
    ``read_records`` call; a (trip_id, vehicle_id) key is coded once per run of
    equal keys in a block. A block that fails is re-read row by row through
    ``_ping`` (no NUL, numbers in the grammar of ``number``), so the first bad
    line raises IngestError("parse") naming file:line.
    """
    codes: dict = {}  # (trip_id, vehicle_id) -> a distinct int
    blocks = []
    fields = [np.dtype("U8"), np.dtype("U8"), np.dtype("i8"), np.dtype("f8"), np.dtype("f8")]
    with open_text(path) as fh:
        for lines in _line_blocks(fh, trip_id):
            if not (lines := data_text(lines, trip_id)):
                continue
            try:
                trips, vehicles, ts, lats, lons = _ping_block(lines, fields)
            except ValueError:
                for _ in read_rows(path, Ping._fields, _ping, header=False, only=trip_id):
                    pass  # raises at the file's first bad line, which is in this block
                raise
            first = np.concatenate(([True], (trips[1:] != trips[:-1])
                                    | (vehicles[1:] != vehicles[:-1])))  # of a run of one key
            runs = [codes.setdefault(key, len(codes))
                    for key in zip(trips[first].tolist(), vehicles[first].tolist())]
            blocks.append((np.array(runs)[first.cumsum() - 1], ts, lats, lons))
    if not blocks:
        if trip_id is None:
            raise IngestError("empty", f"{path} contains no records")
        return PingSeries(segments=())
    # One column at a time, each copy replacing the one it was made from, so
    # that the file's columns are held about once.
    columns = list(zip(*blocks))
    blocks.clear()
    group, ts, lats, lons = (np.concatenate(columns.pop(0)) for _ in range(4))
    keys = sorted(codes)
    group = np.argsort([codes[key] for key in keys])[group]  # code -> its key's sorted place
    order = np.lexsort((ts, group))  # stable: the file's first duplicate leads
    group = group[order]
    ts = ts[order]
    lats = lats[order]
    lons = lons[order]
    keep = np.concatenate(([True], (group[1:] != group[:-1]) | (ts[1:] != ts[:-1])))
    group = group[keep]
    ts = ts[keep]
    lats = lats[keep]
    lons = lons[keep]
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
    day, hour = day_number(f[0]), int64(f[1])
    if not 0 <= hour <= 23:
        raise ValueError(f"hour {hour} out of range")
    return day, hour, f[2]


def load_weather(path) -> WeatherTable:
    """Load ``date,hour,condition`` rows; duplicate (date, hour) is an error.
    The file is read whole and checked column by column: each distinct date by
    ``day_number``, all hours by one ``np.array`` call. A file that fails is read
    again through ``read_rows``, so that its first bad line is the one named."""
    lines = headed_lines(path, "date")
    fields = ",".join(lines).split(",") if lines else []
    try:
        if set(map(str.count, lines, repeat(","))) - {2}:
            raise ValueError("a line without 3 fields")
        hours = _numbers(fields[1::3], np.int64)
        days = {text: day_number(text) for text in set(fields[0::3])}
        keys = list(zip(map(days.__getitem__, fields[0::3]), hours.tolist()))
        if not ((hours >= 0) & (hours <= 23)).all() or len(set(keys)) < len(keys):
            raise ValueError("an hour out of range or repeated")
    except (ValueError, OverflowError):
        seen = set()
        for day, hour, _ in read_rows(path, ("date", "hour", "condition"), _weather_row):
            if (day, hour) in seen:
                raise IngestError("duplicate", f"duplicate weather entry for {date_text(day)} "
                                  f"hour {hour}") from None
            seen.add((day, hour))
        raise
    return WeatherTable(entries=dict(zip(keys, fields[2::3])))


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def load_intersections(path) -> tuple:
    """Load ``intersection_id,lat,lon`` rows as ``((intersection_id, lat, lon),
    ...)``; a duplicate id is an error."""
    points = []
    seen = set()
    for xid, lat, lon in read_rows(path, ("intersection_id", "lat", "lon"),
                                   lambda f: (f[0], *position(*map(finite_float, f[1:])))):
        _checked_id(xid, "intersection_id")
        if xid in seen:
            raise IngestError("duplicate", f"duplicate intersection id {xid}")
        seen.add(xid)
        points.append((xid, lat, lon))
    return tuple(points)
