"""Workload definitions shared by the input generator and the runner.

Every workload runs the same sequence of operations: the batch drivers
(infer, fit, validate, evaluate), cold replays of fixed trips, and a
stream of the test-period traversals through one PredictionSession per
traversal. The workloads differ only in their inputs, each chosen so a
different layer dominates:

* ``history``: 21 days (14 to train, 7 to stream) on synth's 11-vertex
  shape, at the CLI's 1,000 Markov runs per forecast. Ping parsing,
  per-ping objects and the observation-file re-reads dominate.
* ``dense_stream``: six days (five to train, one to stream) on a
  250-vertex shape along the same line, at 10,000 Markov runs per
  streamed forecast. Point-to-polyline projection dominates the batch
  drivers and the simulation kernel dominates the forecasts; the
  geometry is unchanged, so the outputs must equal those of the
  11-vertex shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRUTH_PATH = HERE / "truth.json"

TZ_OFFSET = -5.0
REPLAY_TRIPS = ("T005", "T017", "T029", "T041", "T053")  # spread over the service day
REPLAY_RUNS = 1000  # the CLI default M


@dataclass(frozen=True)
class Workload:
    name: str
    n_days: int
    start_date: str  # empty: the truth's own start date
    cut_date: str  # first local date of the test period
    shape_vertices: int  # 0: synth's own 11-vertex shape
    stream_runs: int  # Markov runs M per streamed forecast


WORKLOADS = {w.name: w for w in (
    Workload("history", n_days=21, start_date="2023-09-25", cut_date="2023-10-09",
             shape_vertices=0, stream_runs=1000),
    Workload("dense_stream", n_days=6, start_date="", cut_date="2023-08-23",
             shape_vertices=250, stream_runs=10000),
)}


def run_config(pipeline, corpus: Path, out_dir: Path, workload: Workload, seed: int):
    """The RunConfig every driver call of a workload uses. ``pipeline`` is
    ``buslink.pipeline``, passed in because this module is imported
    before ``src`` is on the path."""
    return pipeline.RunConfig(
        gtfs_dir=str(corpus / "gtfs"), pings=str(corpus / "pings.csv"),
        weather=str(corpus / "weather.csv"),
        intersections=str(corpus / "intersections.csv"),
        out_dir=str(out_dir), tz_offset=TZ_OFFSET, seed=seed,
        cut_date=workload.cut_date, runs=REPLAY_RUNS)

