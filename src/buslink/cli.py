"""Command-line surface: infer, fit, validate, predict, simulate, evaluate,
synth.

Exit codes: 0 success, 2 input error, 3 numerical failure. Errors print
as single machine-parseable lines prefixed ``error:``. Every command is
deterministic given its inputs and configuration (``synth``: and its
``--seed``), and takes only the flags it reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline, synth
from .errors import (ConfigError, FitError, GeometryError, IngestError,
                     MetricError, NumericalError, SimError)
from .evaluation import METRICS
from .ingest import finite_float, int64, number

# OSError: a file that is missing or cannot be read or written
INPUT_ERRORS = (IngestError, GeometryError, ConfigError, MetricError, SimError, OSError)
NUMERIC_ERRORS = (FitError, NumericalError)


def _fmt(v, digits: int = 3) -> str:
    if v is None:
        return "-"
    return f"{v:.{digits}f}"


# input flag -> (config key, help); each command takes its own subset
_INPUT_FLAGS = {
    "gtfs": ("gtfs_dir", "GTFS static directory"),
    "pings": ("pings", "ping record file"),
    "weather": ("weather", "weather file"),
    "intersections": ("intersections", "intersection file"),
    "observations": ("observations", "observation file name"),
    "store": ("model_store", "model store file name"),
    "cut": ("cut_date", "test period start date YYYY-MM-DD"),
}


def _shared_flags(sub, *inputs):
    """``--out``, ``--json`` and, for a command run on a ``RunConfig`` (one
    that names its ``inputs``), ``--config`` and the input flags."""
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--json", action="store_true", help="JSON output instead of tables")
    if inputs:
        sub.add_argument("--config", help="key = value configuration file")
    for flag in inputs:
        sub.add_argument(f"--{flag}", help=_INPUT_FLAGS[flag][1])


def _config_from(args) -> pipeline.RunConfig:
    overrides = {key: getattr(args, flag, None) for flag, (key, _) in _INPUT_FLAGS.items()}
    overrides["out_dir"] = args.out
    return pipeline.load_config(args.config, overrides)


def cmd_infer(args) -> int:
    cfg = _config_from(args)
    report = pipeline.run_infer(cfg)
    if args.json:
        print(json.dumps({
            "observations": report.observations_path,
            "traversals": report.n_traversals,
            "traversals_used": report.n_used,
            "observations_count": report.n_observations,
            "observations_with_interpolated_events": report.n_interpolated,
            "per_link": {f"{rk[0]}/{rk[1]}/{li}": c
                         for (rk, li), c in sorted(report.per_link_counts.items())},
            "skipped": len(report.skipped),
        }, indent=2, sort_keys=True))
    else:
        print(f"wrote {report.observations_path}")
        print(f"traversals {report.n_traversals} used {report.n_used} "
              f"observations {report.n_observations} "
              f"interpolated {report.n_interpolated} skipped {len(report.skipped)}")
        for (rk, li), c in sorted(report.per_link_counts.items()):
            print(f"{rk[0]}/{rk[1]} link {li}: {c}")
    return 0


def cmd_fit(args) -> int:
    cfg = _config_from(args)
    report = pipeline.run_fit(cfg)
    if args.json:
        print(json.dumps({
            "store": report.store_path,
            "fitted": [f"{rk[0]}/{rk[1]}/{li}" for (rk, li) in report.fitted_links],
            "failed": [[str(key), reason] for key, reason in report.failed_links],
        }, indent=2, sort_keys=True))
    else:
        print(f"wrote {report.store_path}")
        for (rk, li) in report.fitted_links:
            print(f"fitted {rk[0]}/{rk[1]} link {li}")
        for key, reason in report.failed_links:
            print(f"failed {key}: {reason}")
    if not report.fitted_links:
        print("error: no link could be fitted", file=sys.stderr)
        return 3
    return 0


def cmd_validate(args) -> int:
    cfg = _config_from(args)
    rows = pipeline.run_validate(cfg)
    if args.json:
        print(json.dumps([{
            "component": r.component, "test": r.test_name, "statistic": r.statistic,
            "p_value": r.p_value, "n": r.n, "note": r.note} for r in rows],
            indent=2, sort_keys=True))
    else:
        print("component,test,statistic,p_value,n,note")
        for r in rows:
            stat = "-" if r.statistic is None else repr(r.statistic)
            p = "-" if r.p_value is None else repr(r.p_value)
            print(f"{r.component},{r.test_name},{stat},{p},{r.n},{r.note}")
    return 0


def cmd_predict(args) -> int:
    cfg = _config_from(args)
    x = [args.rain, args.peak, args.weekday, args.traffic]
    bounds = pipeline.run_predict(cfg, args.route, args.direction,
                                  args.link, x, level=args.level)
    if args.json:
        print(json.dumps({"route_id": args.route, "direction_id": args.direction,
                          "link_index": args.link, "covariates": x, "point_s": bounds.point,
                          "lower_s": bounds.lower, "upper_s": bounds.upper,
                          "level": bounds.level}, indent=2, sort_keys=True))
    else:
        print("point_s,lower_s,upper_s,level")
        print(f"{bounds.point!r},{bounds.lower!r},{bounds.upper!r},{bounds.level!r}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _config_from(args)
    batches = pipeline.run_simulate(cfg, args.trip, at=args.at, replay=args.replay)
    if args.json:
        payload = [{
            "timestamp": b.timestamp, "trip_id": b.trip_id,
            "segment_start": b.segment_start, "segment_count": b.segment_count,
            "origin": {"link_index": b.summary.origin_link,
                       "arc_pos_m": b.summary.origin_arc,
                       "timestamp": b.summary.origin_time},
            "stops": [{"stop_id": s.stop_id, "mean_s": s.mean_remaining,
                       "p2_5_s": s.p2_5, "p97_5_s": s.p97_5}
                      for s in b.summary.stops],
        } for b in batches]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for b in batches:
            print(f"# t={int(b.timestamp)} trip={b.trip_id} link={b.summary.origin_link} "
                  f"arc={b.summary.origin_arc:.1f}")
            print("stop_id,mean_s,p2_5_s,p97_5_s")
            for s in b.summary.stops:
                print(f"{s.stop_id},{s.mean_remaining!r},{s.p2_5!r},{s.p97_5!r}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _config_from(args)
    rows = pipeline.run_evaluate(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "evaluation.csv"
    lines = [",".join(("route_id,direction_id,link_index,n_train,n_test", *METRICS))]
    for r in rows:
        cells = [r.route_key[0], str(r.route_key[1]), str(r.link_index),
                 str(r.n_train), str(r.n_test)]
        cells += ["" if v is None else repr(v) for v in (getattr(r, k) for k in METRICS)]
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.json:
        print(json.dumps([{
            "route_id": r.route_key[0], "direction_id": r.route_key[1],
            "link_index": r.link_index, "n_train": r.n_train, "n_test": r.n_test,
            **{k: getattr(r, k) for k in METRICS},
            "note": r.note} for r in rows], indent=2, sort_keys=True))
    else:
        print(f"wrote {csv_path}")
        heads = [f"{kind.upper()} {model}" for kind, _, model in (k.partition("_") for k in METRICS)]
        print(" ".join([f"{'link':<14}", *(f"{h:>8}" for h in heads)]))
        for r in rows:
            label = f"{r.route_key[0]}/{r.route_key[1]}#{r.link_index}"
            print(" ".join([f"{label:<14}", *(f"{_fmt(getattr(r, k)):>8}" for k in METRICS)]))
    return 0


def cmd_synth(args) -> int:
    spec = synth.load_truth(args.truth)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    paths = synth.generate_corpus(spec, args.out or ".")
    if args.json:
        print(json.dumps({"root": str(paths.root), "gtfs": str(paths.gtfs_dir),
                          "pings": str(paths.pings), "weather": str(paths.weather),
                          "intersections": str(paths.intersections),
                          "truth_events": str(paths.truth_events),
                          "truth_links": str(paths.truth_links),
                          "traversals": paths.n_traversals,
                          "ping_count": paths.n_pings}, indent=2, sort_keys=True))
    else:
        print(f"wrote corpus under {paths.root}: {paths.n_traversals} traversals, "
              f"{paths.n_pings} pings")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buslink",
        description="Bus link travel-time inference, fitting, and prediction from GTFS data")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("infer", help="infer link observations from pings")
    _shared_flags(p, "gtfs", "pings", "weather", "intersections")
    p.set_defaults(func=cmd_infer)

    p = subs.add_parser("fit", help="fit per-link models from observations")
    _shared_flags(p, "gtfs", "intersections", "observations", "store")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("validate", help="statistical tests per link")
    _shared_flags(p, "observations")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("predict", help="point + interval for one link")
    _shared_flags(p, "store")
    p.add_argument("--route", required=True)
    p.add_argument("--direction", type=int64, default=0)
    p.add_argument("--link", type=int64, required=True)
    p.add_argument("--rain", type=int64, default=0, choices=(0, 1))
    p.add_argument("--peak", type=int64, default=0, choices=(0, 1))
    p.add_argument("--weekday", type=int64, default=0, choices=(0, 1))
    p.add_argument("--traffic", type=int64, default=0, choices=(0, 1))
    p.add_argument("--level", type=number, default=0.95)
    p.set_defaults(func=cmd_predict)

    p = subs.add_parser("simulate", help="remaining-time simulation for a trip")
    _shared_flags(p, "gtfs", "pings", "weather", "intersections", "store")
    p.add_argument("--trip", required=True)
    p.add_argument("--at", type=finite_float, default=None, help="POSIX timestamp")
    p.add_argument("--replay", action="store_true",
                   help="emit a batch at start and at each traffic-indicator flip")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("evaluate", help="train/test comparison against baselines")
    _shared_flags(p, "observations", "cut")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("synth", help="generate a synthetic corpus from a truth spec")
    _shared_flags(p)
    p.add_argument("--seed", type=int64, default=None, help="overrides the truth spec's seed")
    p.add_argument("--truth", required=True, help="truth spec JSON")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
