"""Loaders for GTFS static tables, ping records, weather, and intersections.

All loaders are pure functions of their input files and return
structures that are not changed after loading. Pings are columnar: each
traversal segment holds int64 timestamp and float lat/lon arrays, and
its ``Ping`` rows are built only when something reads them. Timestamps
are POSIX seconds UTC throughout; all calendar logic (hour, weekday, date)
is ``local_day_hour``, under a single signed ``tz_offset`` in hours. Every
text input of the package is opened by ``open_text``, every
line-oriented one keeps the lines ``data_text`` keeps, and every number
of a data file is in the one grammar of ``number``. Every input but the
ping file is read once, whole. The GTFS tables and the weather file are
checked on columns, each row rule stated once; a file that fails is checked
again on prefixes of the rows read (``_first_bad_row``) to name its first bad row.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from bisect import bisect_left
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from itertools import chain, count, repeat, zip_longest
from operator import attrgetter
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


def file_lines(path, header: str | None = None) -> list:
    """The lines of a whole text file; with ``header``, a lower-case column name, line 1
    reads as blank if its first field is ``header`` in any case: a header is on line 1 only."""
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    if header and lines[0].strip().partition(",")[0].lower() == header:
        lines[0] = ""
    return lines


def data_text(lines, only: str | None = None) -> list:
    """The stripped ``lines`` that are neither blank nor a ``#`` comment and,
    with ``only``, whose first comma-separated field is ``only``."""
    kept = [s for s in map(str.strip, lines if only is None else
                           [raw for raw in lines if only in raw]) if s and s[0] != "#"]
    return kept if only is None else [s for s in kept if s.partition(",")[0] == only]


def numbered(lines, only: str | None = None):
    """``(line number, line)`` for each of ``lines`` that ``data_text`` keeps."""
    return ((n, s) for n, raw in enumerate(lines, start=1) for s in data_text((raw,), only))


def read_rows(lines, name: str, columns, convert, only: str | None = None):
    """Yield ``convert(fields)`` for each line ``numbered(lines, only)`` keeps, ``lines``
    being those of the comma-separated file ``name`` with the given ``columns``. A wrong
    field count or a ValueError from ``convert`` raises IngestError("parse") naming name:line."""
    for lineno, line in numbered(lines, only):
        parts = line.split(",")
        if len(parts) != len(columns):
            raise IngestError("parse", f"{name}:{lineno}: expected {len(columns)} "
                              f"fields, got {len(parts)}")
        try:
            row = convert(parts)
        except ValueError as exc:
            raise IngestError("parse", f"{name}:{lineno}: {exc}") from None
        yield row


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


def _numbers(column, kind: type = float) -> np.ndarray:
    """The fields as ``number(text, kind)`` reads each, in an array of ``kind``
    (``float`` or ``np.int64``); ValueError, TypeError or OverflowError if not."""
    if not number_text("".join(column)):
        raise ValueError("not a number")
    return np.array(column, dtype=kind)  # each field as float() or int() reads it


def _first_bad_row(check, n: int, lines, name: str):
    """``check(None, name)``, the check of all n rows of file ``name``; if it raises
    IngestError, that of ``check(k, f"{name}:{lines()[k - 1]}")``, the check of the first
    k rows, for the least k that fails. A row rule that fails on a prefix fails on every
    longer one, so bisection over k finds that prefix, which ends at the first bad row."""
    with suppress(IngestError):  # whose message is found again below
        return check(None, name)
    ends = lines()

    def error(k: int):  # of the first k rows, or None
        try:
            check(k, f"{name}:{ends[k - 1]}")
        except IngestError as exc:
            return exc

    raise error(1 + bisect_left(range(1, n + 1), True, key=lambda k: error(k) is not None))


# The column checks of a GTFS table or the weather file. Each states one rule of its
# rows, in the order a row is checked, and raises its IngestError if a row breaks it,
# naming the last row (``where``, as ``file:line``) and the values of the last row or
# of a bad row: in the least prefix of rows that fails, both are the first bad row.

def _required(column, key: str, where: str, kind: type | None = None):
    """The fields of ``key``, as an array of ``kind`` (``float`` read as
    ``finite_float``, ``np.int64`` as ``int64``) if given; IngestError("parse")
    if one is missing or empty, or is not such a number."""
    fields = column(key)
    if kind is not None:
        with suppress(ValueError, TypeError, OverflowError):  # a missing field too
            if np.isfinite(values := _numbers(fields, kind)).all():
                return values
    if not all(fields):
        raise IngestError("parse", f"{where}: missing field {key!r}")
    if kind is not None:
        raise IngestError("parse", f"{where}: field {key!r} is not a number: {fields[-1]!r}")
    return fields


def _positions(column, prefix: str, where: str) -> tuple:
    """The lat and lon arrays, each in range, as ``position`` takes them."""
    lat, lon = (_required(column, prefix + c, where, float) for c in ("lat", "lon"))
    if not ((np.abs(lat) <= 90.0).all() and (np.abs(lon) <= 180.0).all()):
        raise IngestError("parse", f"{where}: ({lat[-1].item()!r}, {lon[-1].item()!r}) is "
                          "outside [-90, 90] x [-180, 180]")
    return lat, lon


def _by_key(keys, seq: np.ndarray, groups, where: str, names: tuple) -> tuple:
    """``(order, bounds)``: rows by the place of their key in ``groups``, then by
    ``seq``, and where each key's rows begin and end; IngestError("duplicate") if
    a ``(key, seq)``, of the columns ``names``, repeats."""
    index = dict(zip(groups, count()))
    code = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    order = np.lexsort((seq, code))
    code, ordered = code[order], seq[order]
    if ((code[1:] == code[:-1]) & (ordered[1:] == ordered[:-1])).any():
        raise IngestError("duplicate", f"{where}: duplicate {names[0]} {keys[-1]!r}, "
                          f"{names[1]} {seq[-1].item()!r}")
    return order, np.searchsorted(code, np.arange(len(index) + 1)).tolist()


_BAD_ID = re.compile(r"^#|[\s,;=\[\]\0]")


def _checked_id(value: str, what: str) -> str:
    """Reject an id that the observation file (split on ``,`` ``;`` ``=``)
    or the model store's ``[kind id ...]`` headers (split on whitespace)
    could not read back, or that would start a line every reader skips."""
    if _BAD_ID.search(value):
        raise IngestError("bad_id", f"{what} {value!r} begins with # or contains "
                          "whitespace, a NUL or one of , ; = [ ]")
    return value


def _checked_ids(ids, what: str) -> set:
    """The distinct ``ids``; the error of ``_checked_id`` for the first it refuses."""
    if any(map(_BAD_ID.search, distinct := set(ids))):
        _checked_id(next(filter(_BAD_ID.search, ids)), what)
    return distinct


def _stops(column, where: str) -> dict:
    ids = _required(column, "stop_id", where)
    lat, lon = _positions(column, "stop_", where)
    if len(set(ids)) < len(ids):
        raise IngestError("duplicate", f"{where}: duplicate stop_id {ids[-1]!r}")
    return dict(zip(ids, zip(lat.tolist(), lon.tolist(), column("stop_name", [""] * len(ids)))))


def _shapes(column, where: str) -> dict:
    """shape_id -> its points by shape_pt_sequence, exact consecutive repeats dropped."""
    ids = _required(column, "shape_id", where)
    seq = _required(column, "shape_pt_sequence", where, np.int64)
    lat, lon = _positions(column, "shape_pt_", where)
    groups = dict.fromkeys(ids)  # in first-row order
    order, bounds = _by_key(ids, seq, groups, where, ("shape_id", "shape_pt_sequence"))
    points = list(zip(lat[order].tolist(), lon[order].tolist()))
    return {sid: tuple(p for p, q in zip(points[a:b], [None, *points[a:b]]) if p != q)
            for sid, a, b in zip(groups, bounds, bounds[1:])}


def _trips(column, where: str, route_ids: set, shapes: dict) -> dict:
    """trip_id -> (route_id, direction_id, shape_id), in file order."""
    tids = _required(column, "trip_id", where)
    rids = _required(column, "route_id", where)
    if not _checked_ids(rids, "route_id") <= route_ids:
        raise IngestError("referential", f"trip {tids[-1]} references unknown route {rids[-1]}")
    shape_ids = _required(column, "shape_id", where)
    if not set(shape_ids) <= shapes.keys():
        raise IngestError("referential",
                          f"trip {tids[-1]} references unknown shape {shape_ids[-1]}")
    texts = column("direction_id")
    try:  # a missing or empty direction_id is 0
        directions = {t: int64(t) if t else 0 for t in set(texts)}
    except ValueError:
        raise IngestError("parse", f"{where}: field 'direction_id' is not a number: "
                          f"{texts[-1]!r}") from None
    if not set(directions.values()) <= {0, 1}:
        raise IngestError("parse", f"{where}: trip {tids[-1]}: direction_id must be 0 or 1")
    if len(set(tids)) < len(tids):
        raise IngestError("duplicate", f"{where}: duplicate trip_id {tids[-1]!r}")
    return dict(zip(tids, zip(rids, map(directions.__getitem__, texts), shape_ids)))


def _stop_times(column, where: str, trips: dict, stops: dict) -> tuple:
    """The stop ids by trip, in the order of ``trips``, then by stop_sequence, and
    where each trip's ids begin and end."""
    tids = _required(column, "trip_id", where)
    if not set(tids) <= trips.keys():
        raise IngestError("referential", f"stop_times references unknown trip {tids[-1]}")
    sids = _required(column, "stop_id", where)
    if not _checked_ids(sids, "stop_id") <= stops.keys():
        raise IngestError("referential", f"trip {tids[-1]} references unknown stop {sids[-1]}")
    seq = _required(column, "stop_sequence", where, np.int64)
    order, bounds = _by_key(tids, seq, trips, where, ("trip_id", "stop_sequence"))
    return list(map(sids.__getitem__, order.tolist())), bounds


def _gtfs_table(dir_path: Path, name: str, check, *context):
    """``check(column, where, *context)`` by ``_first_bad_row`` on a table's n rows, where
    ``column(key, default)`` is the key's fields as csv's dict reader reads them: blank
    lines dropped, of two columns of one name the later, None past the end of a short
    row, ``default`` (n Nones) for a key not in the header. A table with a ``"`` is read
    by one ``csv.reader`` pass, any other split as it splits it. A blank header line and
    a NUL (which Python 3.10's csv refuses) are refused at their line."""
    path = dir_path / name
    if not path.is_file():
        raise IngestError("missing_table", f"{path.name} not found in {path.parent}")
    with open_text(path, newline="") as fh:
        text = fh.read()
    if text[:1] in ("\n", "\r"):
        raise IngestError("parse", f"{name}:1: blank header line")
    if "\0" in text:  # at the line after the line ends before it
        line = len(re.findall(r"\r\n|\r|\n", text[:text.index("\0")])) + 1
        raise IngestError("parse", f"{name}:{line}: a field holds a NUL")
    if '"' in text:
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
    column = lambda key, default=none: default if (k := index.get(key)) is None else get(k)

    def ends():  # the line each data row ends on
        reader = csv.reader(io.StringIO(text, newline=""))
        return [reader.line_num for row in reader if row][1:]  # the header is not blank

    return _first_bad_row(
        lambda k, where: check(column if k is None else (lambda *a: column(*a)[:k]), where,
                               *context), n, ends, name)


def load_gtfs_static(dir_path) -> StaticNetwork:
    """Parse the five core GTFS tables, each read once and checked on columns
    (``_gtfs_table``), into a validated StaticNetwork. A repeated stop_id, trip_id,
    (shape_id, shape_pt_sequence) or (trip_id, stop_sequence) is an error. The route
    and stop ids that trips use must be usable in the output files (``_checked_id``);
    others are kept as read."""
    dir_path = Path(dir_path)
    stops = _gtfs_table(dir_path, "stops.txt", _stops)
    shapes = _gtfs_table(dir_path, "shapes.txt", _shapes)
    for sid, points in shapes.items():
        if len(points) < 2:
            raise IngestError("referential", f"shape {sid} has fewer than 2 distinct points")
    route_ids = _gtfs_table(dir_path, "routes.txt",
                            lambda column, where: set(_required(column, "route_id", where)))
    trip_rows = _gtfs_table(dir_path, "trips.txt", _trips, route_ids, shapes)
    stop_ids, bounds = _gtfs_table(dir_path, "stop_times.txt", _stop_times, trip_rows, stops)
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


_stamp = attrgetter("st_ino", "st_size", "st_mtime_ns")  # of a stat; a rewrite changes it
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
    ``_ping`` (no NUL, numbers in the grammar of ``number``) from a second open,
    so the first bad line raises IngestError("parse") naming file:line, or if none
    does, IngestError("changed") if the file's inode, size or mtime changed.
    """
    codes: dict = {}  # (trip_id, vehicle_id) -> a distinct int
    blocks = []
    fields = [np.dtype("U8"), np.dtype("U8"), np.dtype("i8"), np.dtype("f8"), np.dtype("f8")]
    with open_text(path) as fh:
        opened = _stamp(os.fstat(fh.fileno()))
        for lines in _line_blocks(fh, trip_id):
            if not (lines := data_text(lines, trip_id)):
                continue
            try:
                trips, vehicles, ts, lats, lons = _ping_block(lines, fields)
            except ValueError:
                with open_text(path) as again:
                    for _ in read_rows(again, Path(path).name, Ping._fields, _ping, trip_id):
                        pass  # raises at the file's first bad line, which is in this block
                if _stamp(os.stat(path)) != opened:
                    raise IngestError("changed", f"{path}: changed while it was read") from None
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


def _weather(lines: list, where: str) -> dict:
    """The entries of weather data lines by a row's rules, in order: 3 fields, a ``day_number``
    date, an ``int64`` hour in 0-23, a condition not blank or padded, a new (date, hour)."""
    if set(map(str.count, lines, repeat(","))) - {2}:
        raise IngestError("parse", f"{where}: expected 3 fields, got {lines[-1].count(',') + 1}")
    fields = ",".join(lines).split(",") if lines else []
    dates, texts, conditions = fields[0::3], fields[1::3], fields[2::3]
    try:
        days = {text: day_number(text) for text in set(dates)}
        try:
            hours = _numbers(texts, np.int64)
        except (ValueError, TypeError, OverflowError):  # the message of a bad hour
            hours = np.array(list(map(int64, texts)), dtype=np.int64)
    except ValueError as exc:
        raise IngestError("parse", f"{where}: {exc}") from None
    if not ((hours >= 0) & (hours <= 23)).all():
        raise IngestError("parse", f"{where}: hour {hours[-1]} out of range")
    if not all(c and c == c.strip() for c in set(conditions)):
        raise IngestError("parse", f"{where}: condition {conditions[-1]!r} is blank or padded")
    keys = list(zip(map(days.__getitem__, dates), hours.tolist()))
    if len(set(keys)) < len(keys):
        raise IngestError("duplicate", f"duplicate weather entry for {date_text(keys[-1][0])} "
                          f"hour {keys[-1][1]}")
    return dict(zip(keys, conditions))


def load_weather(path) -> WeatherTable:
    """Load ``date,hour,condition`` rows; duplicate (date, hour) is an error. The
    file's rows are checked on columns by ``_weather`` (each distinct date by
    ``day_number``, all hours by one ``np.array`` call) under ``_first_bad_row``."""
    path = Path(path)
    lines = data_text(raw := file_lines(path, "date"))
    return WeatherTable(entries=_first_bad_row(
        lambda k, where: _weather(lines[:k], where), len(lines),
        lambda: [lineno for lineno, _ in numbered(raw)], path.name))


# ---------------------------------------------------------------------------
# Intersections
# ---------------------------------------------------------------------------

def load_intersections(path) -> tuple:
    """Load ``intersection_id,lat,lon`` rows as ``((intersection_id, lat, lon),
    ...)``; a duplicate id is an error."""
    path = Path(path)
    points = {}
    for xid, lat, lon in read_rows(file_lines(path, "intersection_id"), path.name,
                                   ("intersection_id", "lat", "lon"),
                                   lambda f: (f[0], *position(*map(finite_float, f[1:])))):
        if _checked_id(xid, "intersection_id") in points:
            raise IngestError("duplicate", f"duplicate intersection id {xid}")
        points[xid] = (xid, lat, lon)
    return tuple(points.values())
