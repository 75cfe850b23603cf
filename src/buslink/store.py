"""Plain-text persistence: the link-observation file and the model store.

The observation file is read whole into an ``ObservationTable`` of
column arrays, its rows grouped by link. Model-store floats are written with 17 significant digits so that
write -> read -> write reproduces the file byte for byte. Ids never
contain whitespace or any of ``, ; = [ ]``: ingest rejects them
(``bad_id``), since neither file could read them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count
from operator import methodcaller
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .components import EmpiricalDwell, IntersectionLogNormal
from .errors import IngestError
from .hetlognorm import COEF_COUNT, HetLogNormalModel
from .ingest import data_lines, data_text, finite_float, open_text, read_rows

OBS_HEADER = ("route_id,direction_id,link_index,depart_prev,total,dwell,road,"
              "intersection_times,rain,peak,weekday,traffic,flags")


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


def _int64(text: str) -> int:
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{text!r} is outside int64")
    return value


def _bit(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"covariate {text!r} is not 0 or 1")
    return int(text)


def _observation(f) -> LinkObservation:
    flags = tuple(t for t in f[12].split(";") if t)
    interp_ids = {t.split("=", 1)[1] for t in flags if t.startswith("interp_x=")}
    xs = []
    for tok in f[7].split(";") if f[7] else ():
        xid, sep, secs = tok.partition("=")
        if not sep:
            raise ValueError(f"intersection time {tok!r} is not id=seconds")
        xs.append((xid, finite_float(secs), xid in interp_ids))
    return LinkObservation(
        route_key=(f[0], _int64(f[1])), link_index=_int64(f[2]), depart_prev=finite_float(f[3]),
        total_time=finite_float(f[4]), dwell_time=finite_float(f[5]),
        road_time=finite_float(f[6]), intersection_times=tuple(xs),
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
    """The table of data lines, each field converted with ``int`` or
    ``float`` as ``_observation`` does; a ValueError or OverflowError means
    some line is not valid for ``_observation``."""
    width = len(OBS_HEADER.split(","))
    if set(map(methodcaller("count", ","), lines)) != {width - 1}:
        raise ValueError("wrong field count")
    f = ",".join(lines).split(",")
    ints = np.array([f[1::width], f[2::width]], dtype=np.int64)
    floats = np.array([f[k::width] for k in (3, 4, 5, 6)], dtype=float)
    cov = list(chain.from_iterable(f[k::width] for k in (8, 9, 10, 11)))
    if not (np.isfinite(floats).all() and set(cov) <= {"0", "1"}):
        raise ValueError("non-finite number or covariate not 0 or 1")
    route_keys, route = _codes(list(zip(f[0::width], ints[0].tolist())))
    cells, flags = f[7::width], f[12::width]
    tokens = [t for c in cells if c for t in c.split(";")]
    if set(map(methodcaller("count", "="), tokens)) - {1}:
        raise ValueError("intersection time not id=seconds")
    x_row = np.repeat(np.arange(len(lines)), [c.count(";") + 1 if c else 0 for c in cells])
    pairs = "=".join(tokens).split("=") if tokens else []
    x_secs = np.array(pairs[1::2], dtype=float)
    if not np.isfinite(x_secs).all():
        raise ValueError("non-finite intersection time")
    marked = {(i, t.partition("=")[2]) for i, fl in enumerate(flags) if "interp_x=" in fl
              for t in fl.split(";") if t.startswith("interp_x=")}
    x_interp = np.fromiter(map(marked.__contains__, zip(x_row.tolist(), pairs[0::2])), bool,
                           x_secs.shape[0])
    x_ids, x_id = _codes(pairs[0::2])
    # every covariate is the one character 0 or 1
    covariates = (np.frombuffer("".join(cov).encode(), np.uint8) == ord("1")).reshape(4, -1)
    return ObservationTable(
        route_keys=route_keys, route=route, link=ints[1], depart_prev=floats[0],
        total=floats[1], dwell=floats[2], road=floats[3],
        covariates=np.ascontiguousarray(covariates.T, dtype=float), flags=flags,
        x_ids=x_ids, x_row=x_row, x_id=x_id, x_secs=x_secs, x_interp=x_interp)


def read_observations(path) -> ObservationTable:
    """The observation file as one ``ObservationTable``, read and split
    whole. A file that fails the vectorized checks is read again row by row
    through ``_observation``, so the first bad line raises
    IngestError("parse") naming file:line."""
    with open_text(path) as fh:
        lines = fh.read().split("\n")
    first = OBS_HEADER.partition(",")[0]
    if lines[0].strip().partition(",")[0].lower() == first:
        lines[0] = ""  # the header, allowed on line 1 only
    lines = data_text(lines)
    if not lines:
        raise IngestError("empty", f"{path} contains no observations")
    try:
        return _table(lines)
    except (ValueError, OverflowError):
        for _ in read_rows(path, OBS_HEADER.split(","), _observation):
            pass  # raises at the file's first bad line
        raise


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
              (",".join(map(str, row)) for row in table.covariates.astype(int).tolist()),
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


def _coef_line(values: np.ndarray, mask: np.ndarray) -> str:
    return ",".join(_g17(v) if m else "absent" for v, m in zip(values, mask))


def write_store(path, store: ModelStore) -> None:
    lines = ["# buslink model store v1"]
    for (rk, link_index) in sorted(store.road):
        m = store.road[(rk, link_index)]
        lines.append(f"[road {rk[0]} {rk[1]} {link_index}]")
        lines.append(f"n = {m.n}")
        lines.append(f"loglik = {_g17(m.loglik)}")
        lines.append("active_mask = " + ",".join("1" if b else "0" for b in m.active_mask))
        lines.append("beta = " + _coef_line(m.beta, m.active_mask))
        lines.append("gamma = " + _coef_line(m.gamma, m.active_mask))
        for row in m.fim:
            lines.append("fim = " + ",".join(_g17(v) for v in row))
    for (rk, stop_id) in sorted(store.dwell):
        d = store.dwell[(rk, stop_id)]
        lines.append(f"[dwell {rk[0]} {rk[1]} {stop_id}]")
        lines.append(f"n = {d.samples.shape[0]}")
        lines.append(f"pooled = {int(d.pooled)}")
        lines.append("samples = " + ",".join(_g17(v) for v in d.samples))
    for (rk, xid) in sorted(store.intersections):
        x = store.intersections[(rk, xid)]
        lines.append(f"[intersection {rk[0]} {rk[1]} {xid}]")
        lines.append(f"mu_s = {_g17(x.mu_s)}")
        lines.append(f"sigma_s = {_g17(x.sigma_s)}")
        lines.append(f"n = {x.n}")
        lines.append(f"excluded_zero_fraction = {_g17(x.excluded_zero_fraction)}")
        lines.append(f"pooled = {int(x.pooled)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _coefs(value: str) -> tuple:
    """The coefficients, 0.0 where ``absent``, and where they are absent."""
    tokens = value.split(",")
    if len(tokens) != COEF_COUNT:
        raise ValueError(f"{len(tokens)} coefficients, not {COEF_COUNT}")
    absent = np.array(tokens) == "absent"
    return np.array([0.0 if a else finite_float(t) for t, a in zip(tokens, absent)]), absent


def _floats(value: str) -> np.ndarray:
    return np.array([finite_float(t) for t in value.split(",")])


def _bits(value: str, size: int) -> np.ndarray:
    tokens = value.split(",")
    if len(tokens) != size or not set(tokens) <= {"0", "1"}:
        raise ValueError(f"{value!r} is not {size} comma-separated 0/1 values")
    return np.array(tokens) == "1"


def _count(value: str) -> int:
    n = int(value)
    if n < 0:
        raise ValueError(f"count {n} is negative")
    return n


# model-store field -> parser of its value; each value is of the shape and
# range its writer gives it. Every number is finite; an ``absent``
# coefficient reads as 0.0, the value of a masked one.
_STORE_FIELDS = {
    "n": _count, "pooled": lambda v: bool(_bits(v, 1)[0]),
    "loglik": finite_float, "mu_s": finite_float, "sigma_s": finite_float,
    "excluded_zero_fraction": finite_float,
    "active_mask": lambda v: _bits(v, COEF_COUNT),
    "beta": _coefs, "gamma": _coefs, "fim": _floats, "samples": _floats,
}
# section kind -> the fields its writer gives it, each once, except that a
# road section has one ``fim`` line per row of its information matrix
_SECTION_FIELDS = {
    "road": ("n", "loglik", "active_mask", "beta", "gamma", "fim"),
    "dwell": ("n", "pooled", "samples"),
    "intersection": ("mu_s", "sigma_s", "n", "excluded_zero_fraction", "pooled"),
}


def _section(line: str):
    """``(kind, route_key, id)`` of a ``[kind route direction id]`` header."""
    parts = line.strip("[]").split()
    if len(parts) != 4 or parts[0] not in _SECTION_FIELDS:
        raise ValueError(f"bad section header {line!r}: not [road|dwell|intersection "
                         "route direction id]")
    kind, route_id, direction, ident = parts
    return kind, (route_id, int(direction)), int(ident) if kind == "road" else ident


def _model(kind: str, ident, fields: dict):
    """The model of one section; ValueError when a field is missing or the
    fields disagree."""
    missing = [f for f in _SECTION_FIELDS[kind] if f not in fields]
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
            if (fields[name][1] == mask).any():
                raise ValueError(f"{name} is not absent exactly where active_mask is 0")
        return HetLogNormalModel(beta=fields["beta"][0], gamma=fields["gamma"][0],
                                 fim=np.array(fim), n=fields["n"], active_mask=mask,
                                 loglik=fields["loglik"])
    if kind == "dwell":
        samples = fields["samples"]
        if fields["n"] != samples.shape[0]:
            raise ValueError(f"n = {fields['n']} but {samples.shape[0]} samples")
        return EmpiricalDwell(stop_id=ident, samples=samples, pooled=fields["pooled"])
    return IntersectionLogNormal(
        intersection_id=ident, mu_s=fields["mu_s"], sigma_s=fields["sigma_s"], n=fields["n"],
        excluded_zero_fraction=fields["excluded_zero_fraction"], pooled=fields["pooled"])


def read_store(path) -> ModelStore:
    """Parse a model store. A line its writer would not write raises
    IngestError("parse") naming the file and line, as does a section that
    lacks a field, whose dwell ``n`` is not its sample count, whose
    ``active_mask`` masks the intercept, or whose ``beta`` or ``gamma`` is
    ``absent`` anywhere but at the masked positions."""
    path = Path(path)
    sections: dict = {}  # (kind, route_key, id) -> (header line number, fields)
    fields = None
    for lineno, line in data_lines(path):
        try:
            if line.startswith("["):
                section = _section(line)
                if section in sections:
                    raise ValueError(f"section {line!r} repeated")
                fields = {}
                sections[section] = (lineno, fields)
                continue
            key, sep, value = (t.strip() for t in line.partition("="))
            if not sep:
                raise ValueError(f"{line!r} is neither a [section] header nor field = value")
            if fields is None:
                raise ValueError(f"field {key!r} before the first section header")
            if key not in _SECTION_FIELDS[section[0]]:
                raise ValueError(f"{section[0]} section has no field {key!r}")
            parsed = _STORE_FIELDS[key](value)
            if key == "fim":
                fields.setdefault(key, []).append(parsed)
            elif key in fields:
                raise ValueError(f"field {key!r} repeated")
            else:
                fields[key] = parsed
        except ValueError as exc:
            raise IngestError("parse", f"{path.name}:{lineno}: {exc}") from exc
    store = ModelStore(road={}, dwell={}, intersections={})
    by_kind = {"road": store.road, "dwell": store.dwell, "intersection": store.intersections}
    for (kind, rk, ident), (lineno, fields) in sections.items():
        try:
            by_kind[kind][(rk, ident)] = _model(kind, ident, fields)
        except ValueError as exc:
            raise IngestError("parse", f"{path.name}:{lineno}: [{kind} {rk[0]} {rk[1]} {ident}] "
                              f"{exc}") from exc
    if not store.road and not store.dwell and not store.intersections:
        raise IngestError("empty", f"{path} contains no models")
    return store
