"""One benchmark run of one workload: set-up, timed stages, checks, metrics.

Import this module after putting ``src`` on ``sys.path``.

The timed region has six stages, each called through the program's
public API: ``run_infer``, ``run_fit``, ``run_validate``,
``run_evaluate``, a cold ``run_simulate(replay=True)`` of the next of
five fixed trips, and the stream of one test-period day. A stream day
feeds every ping of the day, merged in timestamp order, into one
``PredictionSession`` per traversal; it is a closed loop with one
client (the next ping goes in when the previous call has returned).
Every stage first runs once, the stream for a whole pass over the test
days. Then, until ``--seconds`` have passed, the stage with the least
time so far runs next. So each stage gets a like share of the run, and
the samples of short stages are spread over it rather than bunched,
since a shared host's speed can drift over seconds.

Every operation (driver call, replay, streamed ping) is checked; it
fails if it raises or its check fails.

The host is shared: other tenants slow the same code by up to 1.6-fold
in spells of seconds to minutes, on either core. So a fixed probe of
interpreter and numpy work that uses none of the program
(``host_probe_s``) runs before and after each set-up, driver call,
replay and streamed day, and every time sample of that unit is scaled
by ``PROBE_REF_S`` over the mean of its two probes: the end-to-end
times read as on a host where the probe takes ``PROBE_REF_S``. A change
to the program moves them as it moves wall time; a slower host does
not. The run record keeps the raw medians and the probe times.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from buslink import accel, geometry, inference, ingest, markov, pipeline, store
from spans import Tracer, install
from workloads import REPLAY_TRIPS, ROOT, Workload, run_config

SETUP_REPEATS = 3
PROBE_REF_S = 0.005  # host_probe_s on the host speed the metrics are scaled to
MIN_COVERAGE = 0.90  # acceptance criterion 7's level
MAX_ERRORS_KEPT = 10


def percentiles(samples, scale: float) -> dict:
    if not samples:
        return {}
    ps = (10, 50, 90, 95, 99)
    return {f"p{p}": float(v) for p, v in zip(ps, np.percentile(samples, ps) * scale)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown"
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def forecast_problem(summary) -> str:
    """Each stop's band holds its mean; means rise strictly downstream."""
    prev = -np.inf
    for s in summary.stops:
        if not s.p2_5 <= s.mean_remaining <= s.p97_5:
            return f"stop {s.stop_id}: mean {s.mean_remaining} outside [{s.p2_5}, {s.p97_5}]"
        if not s.mean_remaining > prev:
            return f"stop {s.stop_id}: mean {s.mean_remaining} not above upstream {prev}"
        prev = s.mean_remaining
    return ""


@dataclass
class Setup:
    """Program state the stream needs, built before the first timed call."""

    rm: object
    road: dict
    dwell: dict
    inters: dict
    covariates: object  # covariate_fn(t, traffic) for the sessions
    days: list  # (local date, [(trip_id, repaired projected pings), ...]) by date


class Run:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.cfg = run_config(pipeline, work / "corpus", self.out, workload, seed)
        self.ref_sha = {name: sha256(work / "ref" / name)
                        for name in ("observations.csv", "models.txt")}
        self.inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        self.truth_departures = self._truth_departures()
        self.identity_problem = self._identity_problem()
        self.tracer = None
        self.samples: dict = {}  # stage -> seconds per call, failed ones included
        self.setup_s: list = []
        self.forecast_s: list = []
        self.update_s: list = []
        self.day_pings: list = []  # pings per streamed day, as samples["stream"]
        self.probe_s: list = []  # host_probe_s between the measured units
        self.scaled: dict = {}  # as _raw(), each sample scaled to PROBE_REF_S
        self.covered = 0
        self.coverage_points = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.forecasts_s = 0.0  # within the stream samples
        self._replays = 0
        self._stream_days = 0

    def _truth_departures(self) -> dict:
        deps = {}
        with open(self.work / "corpus" / "truth_events.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                trip, date, kind, feature, _arr, dep = line.rstrip("\n").split(",")
                if kind == "stop":
                    deps[(trip, date, feature)] = float(dep)
        return deps

    def _identity_problem(self) -> str:
        """Every timed infer must reproduce the reference file, so the
        decomposition identity is checked once, on its read-back."""
        for o in store.read_observations(self.work / "ref" / "observations.csv"):
            if o.identity_residual() != 0.0:
                return f"identity residual {o.identity_residual()!r} on link {o.link_index}"
        return ""

    # -- bookkeeping --------------------------------------------------------

    def _stage(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.stage = name

    def _fail(self, stage: str, problem: str, exc: Exception | None = None) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(f"{stage}: {problem}")
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)

    def _op(self, stage: str, call, check) -> float:
        """One checked driver call; returns its wall time."""
        self._stage(stage)
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result, problem, error = None, f"{type(exc).__name__}: {exc}", exc
        else:
            problem, error = "", None
        elapsed = perf_counter() - t0
        self.samples.setdefault(stage, []).append(elapsed)
        problem = problem or check(result)
        if problem:
            self._fail(stage, problem, error)
        return elapsed

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> Setup:
        cfg = self.cfg
        self._stage("setup")
        net = ingest.load_gtfs_static(cfg.gtfs_dir)
        xs = ingest.load_intersections(cfg.intersections)
        weather = ingest.load_weather(cfg.weather)
        series = ingest.load_pings(cfg.pings, max_gap_s=cfg.max_gap)
        models = store.read_store(self.work / "train" / "models.txt")
        (route_key,) = net.routes
        rm = geometry.build_route_model(net, xs, route_key, buffer_radius=cfg.buffer_radius,
                                        off_route_m=cfg.off_route)
        by_date: dict = {}
        for trav in series.segments:
            date, _ = ingest.local_date_hour(trav.pings[0].timestamp, cfg.tz_offset)
            if date >= cfg.cut_date:
                pps = inference.repair_monotonic(inference.project_traversal(trav, rm),
                                                 cfg.backward_tolerance)
                by_date.setdefault(date, []).append((trav.trip_id, pps))
        road, dwell, inters = models.for_route(route_key)
        peak, rain = cfg.peak_hour_set, cfg.rain_label_set

        def covariates(t, traffic):
            return inference.build_covariates(t, weather, traffic, cfg.tz_offset, peak, rain)

        return Setup(rm=rm, road=road, dwell=dwell, inters=inters,
                     covariates=covariates, days=sorted(by_date.items()))

    def timed_setup(self) -> Setup:
        def unit():
            gc.collect()
            t0 = perf_counter()
            s = self.setup()
            self.setup_s.append(perf_counter() - t0)
            return s
        return self.measured(unit)

    # -- host speed -----------------------------------------------------------

    def _raw(self) -> dict:
        """Every list of raw time samples, by name."""
        return dict(self.samples, forecast=self.forecast_s, update=self.update_s,
                    setup=self.setup_s)

    def probe(self) -> float:
        p = host_probe_s()
        self.probe_s.append(p)
        return p

    def measured(self, unit):
        """Runs ``unit`` between two host probes and adds each time
        sample it took to ``scaled``, multiplied by PROBE_REF_S over the
        mean of the two probes. Returns what ``unit`` returns."""
        before = {k: len(v) for k, v in self._raw().items()}
        p0 = self.probe_s[-1] if self.probe_s else self.probe()
        result = unit()
        factor = 2.0 * PROBE_REF_S / (p0 + self.probe())
        for k, v in self._raw().items():
            self.scaled.setdefault(k, []).extend(x * factor for x in v[before.get(k, 0):])
        return result

    # -- checks ---------------------------------------------------------------

    def _check_infer(self, report) -> str:
        got = sha256(self.out / self.cfg.observations)
        if got != self.ref_sha["observations.csv"]:
            return f"observations.csv {got[:12]} differs from reference"
        return self.identity_problem

    def _check_fit(self, n_links):
        def check(report) -> str:
            got = sha256(self.out / self.cfg.model_store)
            if got != self.ref_sha["models.txt"]:
                return f"models.txt {got[:12]} differs from reference"
            if len(report.fitted_links) != n_links or report.failed_links:
                return f"fitted {len(report.fitted_links)}/{n_links}, failed {report.failed_links}"
            return ""
        return check

    def _check_validate(self, n_links):
        def check(rows) -> str:
            road = [r for r in rows if r.component.startswith("road ")]
            if len(road) != 3 * n_links:
                return f"{len(road)} road test rows for {n_links} links"
            bad = [r for r in rows if r.p_value is None or not 0.0 <= r.p_value <= 1.0]
            return f"{len(bad)} rows without a p-value in [0, 1]" if bad else ""
        return check

    def _check_evaluate(self, n_links):
        def check(rows) -> str:
            wins = sum(1 for r in rows if r.bw_ln is not None and r.bw_hm is not None
                       and r.bw_lr is not None and r.bw_ln < r.bw_hm and r.bw_ln < r.bw_lr)
            if len(rows) != n_links or wins < n_links - 1:
                return f"LN bounds narrowest on {wins}/{len(rows)} links"
            return ""
        return check

    @staticmethod
    def _check_replay(batches) -> str:
        if not batches:
            return "no forecast"
        for b in batches:
            problem = forecast_problem(b.summary)
            if problem:
                return f"{b.trip_id} at {b.timestamp}: {problem}"
        return ""

    # -- the timed stages -----------------------------------------------------

    def stage_units(self, s: Setup) -> dict:
        """Stage name -> (one unit of work returning its wall time, units
        in the first round)."""
        cfg = self.cfg
        n_links = len(s.rm.links)

        def replay():
            trip = REPLAY_TRIPS[self._replays % len(REPLAY_TRIPS)]
            self._replays += 1
            return pipeline.run_simulate(cfg, trip, replay=True)

        def op(stage, call, check):
            return (lambda: self._op(stage, call, check)), 1

        return {
            "infer": op("infer", lambda: pipeline.run_infer(cfg), self._check_infer),
            "fit": op("fit", lambda: pipeline.run_fit(cfg), self._check_fit(n_links)),
            "validate": op("validate", lambda: pipeline.run_validate(cfg),
                           self._check_validate(n_links)),
            "evaluate": op("evaluate", lambda: pipeline.run_evaluate(cfg),
                           self._check_evaluate(n_links)),
            "replay": op("replay", replay, self._check_replay),
            "stream": (lambda: self.stream_day(s), len(s.days)),
        }

    def timed(self, s: Setup, seconds: float) -> dict:
        """The first round, then least-time-first until ``seconds``
        (none with ``seconds=0``). Each unit is ``measured``."""
        units = self.stage_units(s)
        spent = {name: 0.0 for name in units}
        counts = dict.fromkeys(units, 0)
        t_start = perf_counter()

        def one(name):
            spent[name] += self.measured(units[name][0])
            counts[name] += 1

        for name, (_unit, n) in units.items():
            for _ in range(n):
                one(name)
        while perf_counter() - t_start < seconds:
            one(min(spent, key=spent.get))
        return {"units": counts, "seconds": spent}

    def stream_day(self, s: Setup) -> float:
        cfg = self.cfg
        date, traversals = s.days[self._stream_days % len(s.days)]
        self._stream_days += 1
        order = sorted((p.timestamp, k, i) for k, (_trip, pps) in enumerate(traversals)
                       for i, p in enumerate(pps))
        self._stage("stream")
        gc.collect()
        sessions: dict = {}
        forecasts = []
        forecast_wall = 0.0
        t_day = perf_counter()
        for _ts, k, i in order:
            ping = traversals[k][1][i]
            self.attempted += 1
            try:
                if i == 0:
                    session = sessions[k] = markov.PredictionSession(
                        s.rm, s.road, s.dwell, s.inters, s.covariates,
                        markov.MarkovConfig(delta_t=cfg.delta_t, runs=self.w.stream_runs,
                                            seed=cfg.seed + k),
                        cfg.speed_threshold_by_link)
                    t0 = perf_counter()
                    summary = session.start(ping)
                else:
                    session = sessions[k]
                    t0 = perf_counter()
                    summary = session.update(ping)
                elapsed = perf_counter() - t0
            except Exception as exc:  # a failed operation is counted, not fatal
                self._fail("stream", f"{type(exc).__name__}: {exc}", exc)
                continue
            if i == len(traversals[k][1]) - 1:
                del sessions[k]
            if summary is None:
                self.update_s.append(elapsed)
            else:
                self.forecast_s.append(elapsed)
                forecast_wall += elapsed
                forecasts.append((k, ping.timestamp, summary))
        wall = perf_counter() - t_day
        self.samples.setdefault("stream", []).append(wall)
        self.day_pings.append(len(order))
        self.forecasts_s += forecast_wall

        for k, ts, summary in forecasts:
            problem = forecast_problem(summary)
            if problem:
                self._fail("stream", problem)
            trip = traversals[k][0]
            for stop in summary.stops:
                dep = self.truth_departures.get((trip, date, stop.stop_id))
                if dep is not None and dep > ts:
                    self.coverage_points += 1
                    self.covered += int(stop.p2_5 <= dep - ts <= stop.p97_5)
        return wall

    # -- results --------------------------------------------------------------

    def check_coverage(self) -> None:
        """One more operation: all the stream's forecast bands together
        must hold the true remaining times at ``MIN_COVERAGE``."""
        self.attempted += 1
        rate = self.covered / self.coverage_points if self.coverage_points else 0.0
        if rate < MIN_COVERAGE:
            self._fail("stream", f"coverage {rate:.3f} of {self.coverage_points} points "
                                 f"below {MIN_COVERAGE}")

    def end_to_end(self, import_s: float) -> dict:
        """Medians over the run of the scaled samples: per call for the
        drivers and the streamed calls; for the replays, the mean over
        trips of each trip's median, so that how often each trip ran
        does not matter; streamed pings over streaming time for the
        throughput; set-up, with the import counted in each, as the
        median of its repeats. Raw times are in the run record."""
        def med(stage, scale=1.0):
            return statistics.median(self.scaled.get(stage, [])) * scale

        replays = self.scaled.get("replay", [])  # sample j replayed trip j % n
        n = len(REPLAY_TRIPS)
        per_trip = [statistics.median(replays[t::n]) for t in range(min(n, len(replays)))]

        host = PROBE_REF_S / statistics.median(self.probe_s)
        return {
            "setup_s": (import_s * host + med("setup"), "s"),
            "infer_s": (med("infer"), "s"),
            "fit_s": (med("fit"), "s"),
            "validate_s": (med("validate"), "s"),
            "evaluate_s": (med("evaluate"), "s"),
            "replay_trip_s": (statistics.mean(per_trip), "s"),
            "forecast_ms": (med("forecast", 1e3), "ms"),
            "update_us": (med("update", 1e6), "us"),
            "stream_pings_per_s": (sum(self.day_pings) / sum(self.scaled["stream"]), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def record(self, s: Setup) -> dict:
        return {
            "workload": self.w.name, "seed": self.seed,
            "meta": {"commit": git_commit(ROOT), "python": platform.python_version(),
                     "numpy": np.__version__, "nproc": os.cpu_count(),
                     "backend": accel.backend_name()},
            "inputs": dict(self.inputs, stream_runs=self.w.stream_runs,
                           stream_days=len(s.days),
                           stream_traversals=sum(len(t) for _d, t in s.days),
                           stream_pings_per_pass=sum(len(pps) for _d, t in s.days
                                                     for _trip, pps in t)),
            "sha256": self.ref_sha,
            "samples": {k: [round(v, 6) for v in vs] for k, vs in self.samples.items()},
            "setup_samples": [round(v, 6) for v in self.setup_s],
            "emissions": len(self.forecast_s), "update_samples": len(self.update_s),
            "days_streamed": len(self.day_pings),
            "forecast_ms": percentiles(self.forecast_s, 1e3),
            "update_us": percentiles(self.update_s, 1e6),
            "coverage": [self.covered, self.coverage_points],
            "host_probe_ms": percentiles(self.probe_s, 1e3),
            "raw_medians": {k: statistics.median(v) for k, v in self._raw().items() if v},
            "raw_stream_pings_per_s": sum(self.day_pings) / sum(self.samples["stream"]),
            "errors": self.errors,
        }


_PROBE_ARRAY = np.random.default_rng(0).random(20_000)


def host_probe_s() -> float:
    """Wall time of fixed interpreter and numpy work that uses none of
    the program: how fast the host ran at that moment."""
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(20_000):
        x = i * 0.5
        acc += x * x
        table[i & 255] = acc
    acc += sum(float(f) for f in ",".join(map(str, range(2_000))).split(","))
    for _ in range(10):
        acc += float(np.sort(_PROBE_ARRAY)[5] + np.exp(_PROBE_ARRAY).sum())
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(run: Run, seconds: float, import_s: float):
    s = None
    for _ in range(SETUP_REPEATS):
        s = None  # free the previous set-up before building the next
        s = run.timed_setup()
    schedule = run.timed(s, seconds)
    run.check_coverage()
    return run.end_to_end(import_s), dict(run.record(s), schedule=schedule)


def run_traced(run: Run):
    """A set-up and first round untraced, then the same traced; the
    per-layer metrics come from the traced one."""
    t0 = perf_counter()
    s = run.setup()
    run.timed(s, 0.0)
    untraced = perf_counter() - t0
    s = None
    run.samples, run.day_pings, run.forecasts_s = {}, [], 0.0
    run._replays = 0  # the same trip as the untraced round
    tracer = run.tracer = Tracer()
    uninstall = install(tracer)
    try:
        t0 = perf_counter()
        s = run.setup()
        run.timed(s, 0.0)
        traced = perf_counter() - t0
    finally:
        uninstall()
        run.tracer = None
    run.check_coverage()
    metrics = {}
    for name, value in tracer.totals().items():
        unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (value, unit)
    metrics["tracing_overhead_s"] = (traced - untraced, "s")
    walls = {stage: sum(v) for stage, v in run.samples.items()}
    walls["stream.forecasts"] = run.forecasts_s
    return metrics, dict(run.record(s), stages=tracer.by_stage(), stage_walls=walls,
                         untraced_s=untraced, traced_s=traced)
