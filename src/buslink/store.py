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


def read_observations(path) -> list:
    path = Path(path)
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("route_id,"):
                continue
            parts = line.split(",")
            if len(parts) != 13:
                raise IngestError("parse", f"{path.name}:{lineno}: expected 13 fields")
            try:
                flags = tuple(t for t in parts[12].split(";") if t)
                interp_ids = {t.split("=", 1)[1] for t in flags if t.startswith("interp_x=")}
                xs = []
                if parts[7]:
                    for tok in parts[7].split(";"):
                        xid, secs = tok.split("=", 1)
                        xs.append((xid, float(secs), xid in interp_ids))
                out.append(LinkObservation(
                    route_key=(parts[0], int(parts[1])), link_index=int(parts[2]),
                    depart_prev=float(parts[3]), total_time=float(parts[4]),
                    dwell_time=float(parts[5]), road_time=float(parts[6]),
                    intersection_times=tuple(xs),
                    covariates=CovariateVector(rain=int(parts[8]), peak=int(parts[9]),
                                               weekday=int(parts[10]), traffic=int(parts[11])),
                    flags=flags))
            except (ValueError, IndexError) as exc:
                raise IngestError("parse", f"{path.name}:{lineno}: {exc}") from exc
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


def read_store(path) -> ModelStore:
    path = Path(path)
    store = ModelStore(road={}, dwell={}, intersections={})
    section = None
    fields: dict = {}
    fim_rows: list = []

    def flush():
        if section is None:
            return
        kind, rk, ident = section
        if kind == "road":
            mask = np.array([c == "1" for c in fields["active_mask"].split(",")])
            beta = np.array([np.nan if t == "absent" else float(t)
                             for t in fields["beta"].split(",")])
            gamma = np.array([np.nan if t == "absent" else float(t)
                              for t in fields["gamma"].split(",")])
            fim = np.array(fim_rows, dtype=float)
            if fim.shape != (2 * COEF_COUNT, 2 * COEF_COUNT):
                raise IngestError("parse", f"{path.name}: bad FIM shape {fim.shape} in {section}")
            store.road[(rk, int(ident))] = HetLogNormalModel(
                beta=beta, gamma=gamma, fim=fim, n=int(fields["n"]),
                active_mask=mask, loglik=float(fields["loglik"]))
        elif kind == "dwell":
            samples = np.array([float(t) for t in fields["samples"].split(",")])
            store.dwell[(rk, ident)] = EmpiricalDwell(
                stop_id=ident, samples=samples, mean=float(np.mean(samples)),
                pooled=bool(int(fields.get("pooled", "0"))))
        elif kind == "intersection":
            store.intersections[(rk, ident)] = IntersectionLogNormal(
                intersection_id=ident, mu_s=float(fields["mu_s"]),
                sigma_s=float(fields["sigma_s"]), n=int(fields["n"]),
                excluded_zero_fraction=float(fields.get("excluded_zero_fraction", "0")),
                pooled=bool(int(fields.get("pooled", "0"))))

    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("["):
                flush()
                parts = line.strip("[]").split()
                if len(parts) != 4:
                    raise IngestError("parse", f"{path.name}: bad section header {line!r}")
                section = (parts[0], (parts[1], int(parts[2])), parts[3])
                fields = {}
                fim_rows = []
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "fim":
                fim_rows.append([float(t) for t in value.split(",")])
            else:
                fields[key] = value
    flush()
    if not store.road and not store.dwell and not store.intersections:
        raise IngestError("empty", f"{path} contains no models")
    return store
