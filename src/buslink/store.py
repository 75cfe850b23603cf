"""Plain-text persistence: the link-observation file and the model store.

Model-store floats are written with 17 significant digits so that
write -> read -> write reproduces the file byte for byte. Ids never
contain whitespace or any of ``, ; = [ ]``: ingest rejects them
(``bad_id``), since neither file could read them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import EmpiricalDwell, IntersectionLogNormal
from .errors import IngestError
from .hetlognorm import COEF_COUNT, HetLogNormalModel
from .inference import CovariateVector, LinkObservation
from .ingest import data_lines, finite_float, read_rows

OBS_HEADER = ("route_id,direction_id,link_index,depart_prev,total,dwell,road,"
              "intersection_times,rain,peak,weekday,traffic,flags")


def _g17(v: float) -> str:
    return format(float(v), ".17g")


# ---------------------------------------------------------------------------
# observation file
# ---------------------------------------------------------------------------

def format_observation(obs: LinkObservation) -> str:
    xs = ";".join(f"{xid}={x_t!r}" for xid, x_t, _ in obs.intersection_times)
    cov = obs.covariates
    return ",".join([
        obs.route_key[0], str(obs.route_key[1]), str(obs.link_index),
        repr(float(obs.depart_prev)), repr(float(obs.total_time)),
        repr(float(obs.dwell_time)), repr(float(obs.road_time)), xs,
        str(cov.rain), str(cov.peak), str(cov.weekday), str(cov.traffic),
        ";".join(obs.flags),
    ])


def write_observations(path, observations) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(OBS_HEADER + "\n")
        for obs in observations:
            fh.write(format_observation(obs) + "\n")


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
        route_key=(f[0], int(f[1])), link_index=int(f[2]), depart_prev=finite_float(f[3]),
        total_time=finite_float(f[4]), dwell_time=finite_float(f[5]),
        road_time=finite_float(f[6]), intersection_times=tuple(xs),
        covariates=CovariateVector(int(f[8]), int(f[9]), int(f[10]), int(f[11])),
        flags=flags)


def read_observations(path) -> list:
    out = list(read_rows(path, OBS_HEADER.split(","), _observation))
    if not out:
        raise IngestError("empty", f"{path} contains no observations")
    return out


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


def _coefs(value: str) -> np.ndarray:
    return np.array([np.nan if t == "absent" else finite_float(t) for t in value.split(",")])


def _floats(value: str) -> np.ndarray:
    return np.array([finite_float(t) for t in value.split(",")])


# model-store field -> parser of its value.
# Every number is finite: only an ``absent`` coefficient reads as NaN.
_STORE_FIELDS = {
    "n": int, "pooled": lambda v: bool(int(v)),
    "loglik": finite_float, "mu_s": finite_float, "sigma_s": finite_float,
    "excluded_zero_fraction": finite_float,
    "active_mask": lambda v: np.array([c == "1" for c in v.split(",")]),
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
        fim = fields["fim"]
        if len(fim) != size or any(r.shape != (size,) for r in fim):
            raise ValueError(f"FIM is not {size}x{size}")
        return HetLogNormalModel(beta=fields["beta"], gamma=fields["gamma"], fim=np.array(fim),
                                 n=fields["n"], active_mask=fields["active_mask"],
                                 loglik=fields["loglik"])
    if kind == "dwell":
        samples = fields["samples"]
        if fields["n"] != samples.shape[0]:
            raise ValueError(f"n = {fields['n']} but {samples.shape[0]} samples")
        return EmpiricalDwell(stop_id=ident, samples=samples, mean=float(np.mean(samples)),
                              pooled=fields["pooled"])
    return IntersectionLogNormal(
        intersection_id=ident, mu_s=fields["mu_s"], sigma_s=fields["sigma_s"], n=fields["n"],
        excluded_zero_fraction=fields["excluded_zero_fraction"], pooled=fields["pooled"])


def read_store(path) -> ModelStore:
    """Parse a model store. A line its writer would not write raises
    IngestError("parse") naming the file and line, as does a section that
    lacks a field or whose dwell ``n`` is not its sample count."""
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
