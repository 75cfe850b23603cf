"""Plain-text persistence: the link-observation file and the model store.

Each file is read once, whole, by ``ingest.file_lines``. The observation
file becomes an ``ObservationTable`` of column arrays, its rows grouped by
link; like ``infer``'s rows, each has a road time > 0 and dwell and
intersection times >= 0. The model store's
format is the table ``_SECTIONS``: per section kind, the model class and
its fields in written order, each with its writer and its parser.
Model-store floats are written with 17 significant digits so that
write -> read -> write reproduces the file byte for byte; the reader
parses each value at its own line by its field's reader. Ids never
contain whitespace or any of ``, ; = [ ]``: ingest rejects them
(``bad_id``), since neither file could read them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import count
from operator import methodcaller
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .components import EmpiricalDwell, IntersectionLogNormal
from .errors import IngestError
from .hetlognorm import COEF_COUNT, HetLogNormalModel
from .ingest import (data_text, file_lines, finite_float, int64, number_text, numbered,
                     read_records, read_rows, without_nul)

OBS_HEADER = ("route_id,direction_id,link_index,depart_prev,total,dwell,road,"
              "intersection_times,rain,peak,weekday,traffic,flags")
# a line's fields for ``read_records``, text at its first widths (a covariate fills no U2)
_RECORD = ("U16", "i8", "i8", "f8", "f8", "f8", "f8", "U16", "U2", "U2", "U2", "U2", "U16")


def _g17(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# observation file
# ---------------------------------------------------------------------------

class CovariateVector(NamedTuple):
    rain: int
    peak: int
    weekday: int
    traffic: int


class LinkObservation(NamedTuple):
    """One row of the observation file."""
    route_key: tuple
    link_index: int
    depart_prev: float
    total_time: float
    dwell_time: float
    intersection_times: tuple  # ((intersection_id, seconds, interpolated), ...)
    road_time: float
    covariates: CovariateVector
    flags: tuple = ()

    def identity_residual(self) -> float:
        parts = self.road_time + self.dwell_time + sum(x[1] for x in self.intersection_times)
        return self.total_time - parts


def _bit(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"covariate {text!r} is not 0 or 1")
    return int(text)


def _observation(f) -> LinkObservation:
    flags = tuple(t for t in without_nul(f)[12].split(";") if t)
    interp_ids = {t.split("=", 1)[1] for t in flags if t.startswith("interp_x=")}
    xs = []
    for tok in f[7].split(";") if f[7] else ():
        xid, sep, secs = tok.partition("=")
        if not sep:
            raise ValueError(f"intersection time {tok!r} is not id=seconds")
        seconds = finite_float(secs)
        if seconds < 0.0:
            raise ValueError(f"intersection time {tok!r} is negative")
        xs.append((xid, seconds, xid in interp_ids))
    route_key, link_index = (f[0], int64(f[1])), int64(f[2])
    depart_prev, total, dwell, road = map(finite_float, f[3:7])
    if dwell < 0.0:
        raise ValueError(f"dwell time {f[5]!r} is negative")
    if road <= 0.0:
        raise ValueError(f"road time {f[6]!r} is not positive")
    return LinkObservation(
        route_key=route_key, link_index=link_index, depart_prev=depart_prev, total_time=total,
        dwell_time=dwell, intersection_times=tuple(xs), road_time=road,
        covariates=CovariateVector(*map(_bit, f[8:12])), flags=flags)


def _runs(major: np.ndarray, minor: np.ndarray) -> list:
    """Positions grouped by equal ``(major, minor)``: groups in ascending key
    order, positions ascending within each."""
    if not major.size:
        return []
    order = np.lexsort((minor, major))  # stable
    a, b = major[order], minor[order]
    return np.split(order, np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1])) + 1)


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """The observation file as columns, rows in file order. Route keys and
    intersection ids are codes into their sorted distinct values; the
    intersection times of all rows are flattened in file order."""
    route_keys: list  # distinct (route_id, direction_id), sorted
    route: np.ndarray  # per row: index into route_keys
    link: np.ndarray  # per row: link index
    depart_prev: np.ndarray
    total: np.ndarray
    dwell: np.ndarray
    road: np.ndarray
    covariates: np.ndarray  # n x 4 float: rain, peak, weekday, traffic
    flags: list  # per row: its flags field
    x_ids: list  # distinct intersection ids, sorted
    x_row: np.ndarray  # per intersection time: its row
    x_id: np.ndarray  # per intersection time: index into x_ids
    x_secs: np.ndarray
    x_interp: np.ndarray  # bool

    def __iter__(self):
        """The rows as ``LinkObservation``s, built as they are read."""
        bounds = np.searchsorted(self.x_row, np.arange(self.link.shape[0] + 1)).tolist()
        xs = list(zip(map(self.x_ids.__getitem__, self.x_id.tolist()), self.x_secs.tolist(),
                      self.x_interp.tolist()))
        rows = zip(self.route.tolist(), self.link.tolist(), self.depart_prev.tolist(),
                   self.total.tolist(), self.dwell.tolist(), self.road.tolist(),
                   self.covariates.astype(int).tolist(), self.flags)
        for i, (route, link, dp, total, dwell, road, cov, flags) in enumerate(rows):
            yield LinkObservation(
                route_key=self.route_keys[route], link_index=link, depart_prev=dp,
                total_time=total, dwell_time=dwell,
                intersection_times=tuple(xs[bounds[i]:bounds[i + 1]]), road_time=road,
                covariates=CovariateVector(*cov), flags=tuple(t for t in flags.split(";") if t))

    @cached_property
    def groups(self) -> dict:
        """(route_key, link_index) -> row indices, keys sorted, rows in file order."""
        return {(self.route_keys[self.route[p[0]]], int(self.link[p[0]])): p
                for p in _runs(self.route, self.link)}

    def intersections_of(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the intersection times of ``rows``, in the rows' order."""
        start = np.searchsorted(self.x_row, rows)
        count = np.searchsorted(self.x_row, rows, side="right") - start
        return np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())

    def by_intersection(self, entries: np.ndarray) -> dict:
        """(route_key, intersection_id) -> the ``entries`` (intersection-time
        indices) of that key, keys sorted, each in the order given."""
        route = self.route[self.x_row[entries]]
        return {(self.route_keys[route[p[0]]], self.x_ids[self.x_id[entries[p[0]]]]): entries[p]
                for p in _runs(route, self.x_id[entries])}

    def usable_intersections(self) -> np.ndarray:
        """Per intersection time: positive and not interpolated, so fitted."""
        return (self.x_secs > 0.0) & ~self.x_interp


def _codes(values: list) -> tuple:
    """The sorted distinct values and each value's index into them."""
    distinct = sorted(set(values))
    index = dict(zip(distinct, count()))
    return distinct, np.fromiter(map(index.__getitem__, values), np.int64, len(values))


def _table(lines: list) -> ObservationTable:
    """The table of data lines, read by ``read_records`` as ``_observation``
    reads them; a ValueError means some line is not valid for ``_observation``."""
    records = read_records(lines, [np.dtype(t) for t in _RECORD], _observation)
    floats = np.array([records[f"f{k}"] for k in (3, 4, 5, 6)])
    cov = np.array([records[f"f{k}"] for k in (8, 9, 10, 11)])
    ones = cov == "1"
    if not (np.isfinite(floats).all() and (floats[2] >= 0.0).all() and (floats[3] > 0.0).all()
            and (ones | (cov == "0")).all()):
        raise ValueError("non-finite number, dwell time < 0, road time <= 0 or covariate not 0/1")
    route_keys, route = _codes(list(zip(records["f0"].tolist(), records["f1"].tolist())))
    cells, flags = records["f7"].tolist(), records["f12"].tolist()
    tokens = [t for c in cells if c for t in c.split(";")]
    if set(map(methodcaller("count", "="), tokens)) - {1}:
        raise ValueError("intersection time not id=seconds")
    x_row = np.repeat(np.arange(len(lines)), [c.count(";") + 1 if c else 0 for c in cells])
    pairs = "=".join(tokens).split("=") if tokens else []
    x_secs = np.array(pairs[1::2], dtype=float)
    if not (number_text("=".join(pairs[1::2])) and np.isfinite(x_secs).all()
            and (x_secs >= 0.0).all()):
        raise ValueError("intersection time not a number, not finite or negative")
    marked = {(i, t.partition("=")[2]) for i, fl in enumerate(flags) if "interp_x=" in fl
              for t in fl.split(";") if t.startswith("interp_x=")}
    x_interp = np.fromiter(map(marked.__contains__, zip(x_row.tolist(), pairs[0::2])), bool,
                           x_secs.shape[0])
    x_ids, x_id = _codes(pairs[0::2])
    return ObservationTable(
        route_keys=route_keys, route=route, link=records["f2"].copy(), depart_prev=floats[0],
        total=floats[1], dwell=floats[2], road=floats[3],
        covariates=np.ascontiguousarray(ones.T, dtype=float), flags=flags,
        x_ids=x_ids, x_row=x_row, x_id=x_id, x_secs=x_secs, x_interp=x_interp)


def read_observations(path) -> ObservationTable:
    """The observation file as one ``ObservationTable``, parsed by one ``read_records``
    call (numbers in the grammar of ``ingest.number``, no NUL). Lines that fail, by a
    road time <= 0 or a dwell or intersection time < 0 (``infer`` writes none) among
    others, are walked again row by row through ``_observation``, so the first bad
    line raises IngestError("parse") naming file:line."""
    path = Path(path)
    if not (lines := data_text(raw := file_lines(path, OBS_HEADER.partition(",")[0]))):
        raise IngestError("empty", f"{path} contains no observations")
    try:
        return _table(lines)
    except ValueError:
        for _ in read_rows(raw, path.name, OBS_HEADER.split(","), _observation):
            pass  # raises at the file's first bad line
        raise


_COVARIATE_TEXT = [",".join(f"{k:04b}") for k in range(16)]  # covariates @ [8, 4, 2, 1] -> text


def write_observations(path, table: ObservationTable) -> None:
    """Write a table in the layout ``read_observations`` reads, each float
    as its ``repr``."""
    bounds = np.searchsorted(table.x_row, np.arange(table.link.shape[0] + 1)).tolist()
    xs = [f"{table.x_ids[i]}={secs!r}"
          for i, secs in zip(table.x_id.tolist(), table.x_secs.tolist())]
    keys = [f"{route_id},{direction}" for route_id, direction in table.route_keys]
    fields = ([keys[r] for r in table.route.tolist()], map(str, table.link.tolist()),
              *(map(repr, column.tolist())
                for column in (table.depart_prev, table.total, table.dwell, table.road)),
              [";".join(xs[a:b]) for a, b in zip(bounds, bounds[1:])],
              map(_COVARIATE_TEXT.__getitem__,
                  (table.covariates @ [8, 4, 2, 1]).astype(int).tolist()),
              table.flags)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in [OBS_HEADER, *map(",".join, zip(*fields))])


# ---------------------------------------------------------------------------
# model store
# ---------------------------------------------------------------------------

@dataclass
class ModelStore:
    road: dict  # (route_key, link_index) -> HetLogNormalModel
    dwell: dict  # (route_key, stop_id) -> EmpiricalDwell
    intersections: dict  # (route_key, intersection_id) -> IntersectionLogNormal

    def for_route(self, route_key):
        rk = tuple(route_key)
        return ({li: m for (r, li), m in self.road.items() if r == rk},
                {sid: m for (r, sid), m in self.dwell.items() if r == rk},
                {xid: m for (r, xid), m in self.intersections.items() if r == rk})


def _g17s(values) -> str:
    return ",".join(map(_g17, values))


def _coef_line(values: np.ndarray, mask: np.ndarray) -> str:
    return ",".join(_g17(v) if m else "absent" for v, m in zip(values, mask))


def _coefs(value: str) -> np.ndarray:
    """The coefficients, nan where ``absent``."""
    tokens = value.split(",")
    if len(tokens) != COEF_COUNT:
        raise ValueError(f"{len(tokens)} coefficients, not {COEF_COUNT}")
    return np.array([math.nan if t == "absent" else finite_float(t) for t in tokens])


def _within(text: str, low: float, high: float = math.inf) -> float:
    value = finite_float(text)
    if not low <= value <= high:
        raise ValueError(f"{text!r} is outside [{low:g}, {high:g}]")
    return value


def _floats(value: str, low: float = -math.inf) -> np.ndarray:
    tokens = value.split(",")
    # each token as float() reads it, once the text is in the number grammar
    if not number_text(value) or not np.isfinite(values := np.array(tokens, dtype=float)).all():
        list(map(finite_float, tokens))  # raises, naming the first bad token
    if (values < low).any():
        raise ValueError(f"{float(values[values < low][0])!r} is outside [{low:g}, inf]")
    return values


def _bits(value: str, size: int) -> np.ndarray:
    tokens = value.split(",")
    if len(tokens) != size or not set(tokens) <= {"0", "1"}:
        raise ValueError(f"{value!r} is not {size} comma-separated 0/1 values")
    return np.array(tokens) == "1"


def _flag(value: str) -> bool:
    return bool(_bits(value, 1)[0])


def _count(value: str) -> int:
    n = int64(value)
    if n < 0:
        raise ValueError(f"count {n} is negative")
    return n


class _Field(NamedTuple):
    # how one ``name = value`` line of a section is written from its model
    # and read back; a ``rows`` field has one such line per row of a matrix
    write: Callable  # model -> the value, or with ``rows`` the value of each line
    read: Callable  # one value -> what the model holds, or with ``rows`` one row
    rows: bool = False


# section kind -> (its model from the header's id and the fields by name,
# its fields in written order), kinds in ModelStore's field order. Each
# parser refuses what its writer never writes: every number is finite and
# in its field's range. The model holds an ``absent`` (masked) coefficient
# as 0.0; a dwell model holds no ``n``, which is its sample count.
_SECTIONS = {
    "road": (lambda _, **fields: HetLogNormalModel(**fields), {
        "n": _Field(lambda m: m.n, _count),
        "loglik": _Field(lambda m: _g17(m.loglik), finite_float),
        "active_mask": _Field(lambda m: _g17s(m.active_mask), partial(_bits, size=COEF_COUNT)),
        "beta": _Field(lambda m: _coef_line(m.beta, m.active_mask), _coefs),
        "gamma": _Field(lambda m: _coef_line(m.gamma, m.active_mask), _coefs),
        "fim": _Field(lambda m: map(_g17s, m.fim), _floats, rows=True),
    }),
    "dwell": (lambda stop_id, n, **fields: EmpiricalDwell(stop_id, **fields), {
        "n": _Field(lambda d: d.samples.shape[0], _count),
        "pooled": _Field(lambda d: int(d.pooled), _flag),
        "samples": _Field(lambda d: _g17s(d.samples), partial(_floats, low=0.0)),
    }),
    "intersection": (IntersectionLogNormal, {
        "mu_s": _Field(lambda x: _g17(x.mu_s), finite_float),
        "sigma_s": _Field(lambda x: _g17(x.sigma_s), partial(_within, low=0.0)),
        "n": _Field(lambda x: x.n, _count),
        "excluded_zero_fraction": _Field(lambda x: _g17(x.excluded_zero_fraction),
                                         partial(_within, low=0.0, high=1.0)),
        "pooled": _Field(lambda x: int(x.pooled), _flag),
    }),
}


def write_store(path, store: ModelStore) -> None:
    lines = ["# buslink model store v1"]
    kinds = zip(_SECTIONS.items(), (store.road, store.dwell, store.intersections))
    for (kind, (_, fields)), models in kinds:
        for (rk, ident), model in sorted(models.items()):
            lines.append(f"[{kind} {rk[0]} {rk[1]} {ident}]")
            for name, field in fields.items():
                values = field.write(model)
                lines.extend(f"{name} = {v}" for v in (values if field.rows else (values,)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _section(line: str):
    """``(kind, route_key, id)`` of a ``[kind route direction id]`` header."""
    inner = line[1:-1]  # a header opens with one [ and closes with one ]
    parts = inner.split() if line[-1] == "]" and "[" not in inner and "]" not in inner else []
    if len(parts) != 4 or parts[0] not in _SECTIONS:
        raise ValueError(f"bad section header {line!r}: not [{'|'.join(_SECTIONS)} "
                         "route direction id]")
    kind, route_id, direction, ident = parts
    return kind, (route_id, int64(direction)), int64(ident) if kind == "road" else ident


def _model(kind: str, ident, fields: dict):
    """The model of a section's fields; ValueError if one is missing or they disagree."""
    make, written = _SECTIONS[kind]
    missing = [name for name in written if name not in fields]
    if missing:
        raise ValueError(f"has no {', '.join(missing)}")
    if kind == "road":
        size = 2 * COEF_COUNT
        fim, mask = fields["fim"], fields["active_mask"]
        if len(fim) != size or any(r.shape != (size,) for r in fim):
            raise ValueError(f"FIM is not {size}x{size}")
        if not mask[0]:
            raise ValueError("active_mask masks the intercept")
        for name in ("beta", "gamma"):
            if (np.isnan(fields[name]) == mask).any():
                raise ValueError(f"{name} is not absent exactly where active_mask is 0")
            fields[name] = np.where(mask, fields[name], 0.0)
        fields["fim"] = np.array(fim)
    elif kind == "dwell" and fields["n"] != fields["samples"].shape[0]:
        raise ValueError(f"n = {fields['n']} but {fields['samples'].shape[0]} samples")
    return make(ident, **fields)


def read_store(path) -> ModelStore:
    """Parse a model store in one pass over its lines, each value by its field's reader. The
    first line its writer would not write, a value outside its field's range among them,
    raises IngestError("parse") naming the file and line; so does a section ``_model`` refuses."""
    path = Path(path)
    sections: dict = {}  # (kind, route_key, id) -> (header line number, fields)
    fields = None
    for lineno, line in numbered(file_lines(path)):
        try:
            if line.startswith("["):
                section = _section(line)
                if section in sections:
                    raise ValueError(f"section {line!r} repeated")
                fields, table = {}, _SECTIONS[section[0]][1]
                sections[section] = (lineno, fields)
                continue
            key, sep, value = line.partition("=")
            key, value = key.strip(), value.strip()
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
