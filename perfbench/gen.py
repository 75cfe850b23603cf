"""Input generator for one benchmark run (not timed).

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes into DIR:

* ``corpus/``: the synthetic corpus of ``truth.json`` with ``--seed``
  as the truth seed (and, for dense_stream, the dense shapes.txt);
* ``ref/``: observations.csv and models.txt from run_infer and run_fit
  on synth's own 11-vertex shape, the outputs every timed call must
  reproduce byte for byte;
* ``train/``: the observations before the workload's cut date and the
  models fitted on them, which the streamed forecasts use;
* ``inputs.json``: input sizes.

It runs in its own process so that the runner's peak memory is that of
the measured work alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from workloads import SRC, TRUTH_PATH, TZ_OFFSET, WORKLOADS, run_config

sys.path.insert(0, str(SRC))

from buslink import ingest, pipeline, synth  # noqa: E402


def dense_shape_lines(spec, n_vertices: int) -> list:
    """shapes.txt rows for ``n_vertices`` collinear vertices on synth's
    east-west line: ``n_vertices - 1`` evenly spaced up to the terminal
    stop plus synth's 30 m tail past it."""
    total = sum(link.length for link in spec.links)
    m_per_rad = synth.EARTH_RADIUS_M * math.cos(math.radians(spec.origin_lat))
    lines = ["shape_id,shape_pt_lat,shape_pt_lon,shape_pt_sequence"]
    for k in range(n_vertices):
        arc = total * k / (n_vertices - 2) if k < n_vertices - 1 else total + 30.0
        lon = spec.origin_lon + math.degrees(arc / m_per_rad)
        lines.append(f"SH1,{spec.origin_lat!r},{lon!r},{k}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    out = Path(args.out)

    spec = synth.load_truth(TRUTH_PATH)
    changes = {"seed": args.seed, "n_days": w.n_days}
    if w.start_date:
        changes["start_date"] = w.start_date
    spec = dataclasses.replace(spec, **changes)
    corpus = out / "corpus"
    paths = synth.generate_corpus(spec, corpus)

    ref_cfg = run_config(pipeline, corpus, out / "ref", w, args.seed)
    pipeline.run_infer(ref_cfg)
    pipeline.run_fit(ref_cfg)

    train_dir = out / "train"
    train_dir.mkdir()
    with open(out / "ref" / "observations.csv", encoding="utf-8") as src, \
            open(train_dir / "observations.csv", "w", encoding="utf-8") as dst:
        dst.write(next(src))
        for line in src:
            depart_prev = float(line.split(",", 4)[3])
            if ingest.local_date_hour(depart_prev, TZ_OFFSET)[0] < w.cut_date:
                dst.write(line)
    pipeline.run_fit(run_config(pipeline, corpus, train_dir, w, args.seed))

    shapes = corpus / "gtfs" / "shapes.txt"
    if w.shape_vertices:
        lines = dense_shape_lines(spec, w.shape_vertices)
        shapes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    shape_vertices = len(shapes.read_text(encoding="utf-8").splitlines()) - 1
    (out / "inputs.json").write_text(json.dumps({
        "pings": paths.n_pings, "traversals": paths.n_traversals,
        "shape_vertices": shape_vertices, "days": w.n_days}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
