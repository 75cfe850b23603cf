import argparse
import ast
import inspect
import json
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from buslink import cli
from buslink.cli import main
from buslink.errors import ConfigError
from buslink.pipeline import RunConfig
from buslink.store import CovariateVector, LinkObservation, write_observations

from conftest import SMALL_TRUTH, table_of, write_truth
from test_synth import MIDNIGHT_TRUTH


@pytest.fixture(scope="module")
def workdir(small_corpus, tmp_path_factory):
    """Small corpus plus a config file and a fully run infer+fit pipeline."""
    root = tmp_path_factory.mktemp("cli")
    paths = small_corpus["paths"]
    out = root / "out"
    out.mkdir()
    cfg = root / "run.cfg"
    cfg.write_text("\n".join([
        f"gtfs_dir = {paths.gtfs_dir}",
        f"pings = {paths.pings}",
        f"weather = {paths.weather}",
        f"intersections = {paths.intersections}",
        f"out_dir = {out}",
        "tz_offset = -5",
        "cut_date = 2023-08-22",
    ]) + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg)])
    assert rc == 0
    rc = main(["fit", "--config", str(cfg)])
    assert rc == 0
    return {"cfg": cfg, "out": out, "paths": paths}


def test_infer_output_and_identity(workdir, capsys):
    obs_path = workdir["out"] / "observations.csv"
    assert obs_path.is_file()
    from buslink.store import read_observations
    rows = read_observations(obs_path)
    assert rows
    for o in rows:
        assert o.identity_residual() == 0.0


def test_validate_table(workdir, capsys):
    rc = main(["validate", "--config", str(workdir["cfg"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ks_lognormal" in out and "breusch_pagan" in out and "runs" in out


def test_predict_json(workdir, capsys):
    rc = main(["predict", "--config", str(workdir["cfg"]), "--route", "R1",
               "--link", "1", "--peak", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_s"] < payload["point_s"] < payload["upper_s"]


def test_predict_missing_link_is_input_error(workdir, capsys):
    rc = main(["predict", "--config", str(workdir["cfg"]), "--route", "R1",
               "--link", "99"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def _first_trip_start(paths):
    line = paths.pings.read_text().splitlines()[0].split(",")
    return line[0], int(line[2])


def test_simulate_single_batch(workdir, capsys):
    trip, t0 = _first_trip_start(workdir["paths"])
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip,
               "--at", str(t0 + 150)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "stop_id,mean_s,p2_5_s,p97_5_s" in out
    data_rows = [l for l in out.splitlines() if l and l[0] == "S"]
    assert data_rows
    means = [float(r.split(",")[1]) for r in data_rows]
    assert means == sorted(means)


def test_simulate_replay_emits_batches(workdir, capsys):
    trip, _ = _first_trip_start(workdir["paths"])
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip,
               "--replay", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) >= 1
    for batch in payload:
        for s in batch["stops"]:
            assert s["p2_5_s"] <= s["mean_s"] <= s["p97_5_s"]


def test_simulate_grid_too_large_exit_2(workdir, tmp_path, capsys):
    """A last link whose predicted road time is e^16 s: its stay
    probability is 1 - 6e-7, and the law's grid would need ~10^8 points."""
    text = (workdir["out"] / "models.txt").read_text(encoding="utf-8")
    head, sep, last = text.rpartition("[road ")
    beta = re.search(r"^beta = ([^,\n]+)", last, flags=re.M)
    last = last[:beta.start(1)] + "16" + last[beta.end(1):]
    (tmp_path / "models.txt").write_text(head + sep + last, encoding="utf-8")
    trip, t0 = _first_trip_start(workdir["paths"])
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip,
               "--at", str(t0 + 150), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "grid_too_large")


@pytest.mark.parametrize("delta_t", ["1e-10", "1e-9"])
def test_simulate_tiny_delta_t_exit_2(workdir, tmp_path, capsys, delta_t):
    """A step of at most 1e-9 s still gets one grid step per delta_t, not
    zero, so its plans need too large a grid rather than a division by 0."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(workdir["cfg"].read_text(encoding="utf-8") + f"delta_t = {delta_t}\n",
                   encoding="utf-8")
    trip, _ = _first_trip_start(workdir["paths"])
    rc = main(["simulate", "--config", str(cfg), "--trip", trip, "--replay"])
    assert_input_error(rc, capsys, "grid_too_large")


def test_simulate_from_the_last_ping(workdir, tmp_path, capsys):
    """Without ``--at`` or ``--replay`` the forecast starts at the segment's
    last ping: the ``--at`` batch of that ping, or past the terminal an error
    that names its time."""
    trip, t0 = _first_trip_start(workdir["paths"])
    base = ["simulate", "--config", str(workdir["cfg"]), "--trip", trip]
    own = [line.split(",") for line in workdir["paths"].pings.read_text().splitlines()
           if line.startswith(trip + ",")]
    assert main(base) == 2
    assert capsys.readouterr().err == \
        f"error: not_found: trip {trip} already past the terminal at {own[-1][2]}\n"
    pings = tmp_path / "pings.csv"
    pings.write_text("".join(",".join(f) + "\n" for f in own if int(f[2]) <= t0 + 150),
                     encoding="utf-8")
    assert main(base + ["--pings", str(pings)]) == 0
    expected = capsys.readouterr().out
    assert main(base + ["--pings", str(pings), "--at", str(t0 + 150)]) == 0
    assert capsys.readouterr().out == expected
    assert "stop_id,mean_s,p2_5_s,p97_5_s" in expected


def test_simulate_unknown_trip(workdir, capsys):
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", "NOPE"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: not_found: trip NOPE")


def test_simulate_json_names_the_replayed_segment(workdir, capsys):
    """The small corpus runs T000 on 6 service days; replay takes the last
    day's segment, and ``--at`` the one running then."""
    trip, t0 = _first_trip_start(workdir["paths"])
    assert (trip, t0) == ("T000", 1692356400)
    base = ["simulate", "--config", str(workdir["cfg"]), "--trip", trip, "--json"]
    assert main(base + ["--replay"]) == 0
    replay = json.loads(capsys.readouterr().out)
    assert {(b["segment_start"], b["segment_count"]) for b in replay} == {(1692788400, 6)}
    assert replay[0]["timestamp"] == 1692788400
    assert main(base + ["--at", str(t0 + 150)]) == 0
    (at,) = json.loads(capsys.readouterr().out)
    assert (at["segment_start"], at["segment_count"]) == (1692356400, 6)


def _pings_with(workdir, tmp_path, extra_line):
    """A copy of the corpus ping file, named pings.csv, with one line appended;
    returns it and the appended line's number."""
    lines = workdir["paths"].pings.read_text(encoding="utf-8").splitlines() + [extra_line]
    path = tmp_path / "pings.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, len(lines)


def test_simulate_skips_malformed_line_of_other_trip(workdir, tmp_path, capsys):
    trip, _ = _first_trip_start(workdir["paths"])
    cmd = ["simulate", "--config", str(workdir["cfg"]), "--trip", trip, "--replay"]
    assert main(cmd) == 0
    expected = capsys.readouterr().out
    pings, lineno = _pings_with(workdir, tmp_path, "T0001,B0,12,nan")
    assert main(cmd + ["--pings", str(pings)]) == 0
    assert capsys.readouterr().out == expected
    # infer reads every line, so it still rejects the file
    assert main(["infer", "--config", str(workdir["cfg"]), "--pings", str(pings),
                 "--out", str(tmp_path)]) == 2
    assert f"pings.csv:{lineno}:" in capsys.readouterr().err


def test_simulate_malformed_line_of_its_trip_exit_2(workdir, tmp_path, capsys):
    trip, t0 = _first_trip_start(workdir["paths"])
    pings, lineno = _pings_with(workdir, tmp_path, f"{trip},B0,{t0 + 3},29.651")
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip, "--replay",
               "--pings", str(pings)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: parse: pings.csv:{lineno}: expected 5 fields, got 4\n"


@pytest.mark.parametrize("token, message", [
    ("1_000", "'1_000' is not a number: not ASCII, or holds _"),
    ("\u0661\u0665", "'\u0661\u0665' is not a number: not ASCII, or holds _"),
    ("\x1c15", "could not convert string to float: '\\x1c15'"),
    ("NUL", "a field holds a NUL")])
def test_token_outside_the_number_grammar_exit_2(workdir, tmp_path, capsys, token, message):
    """infer on a ping line, and fit on an observation line, with a token
    that int() or float() or np.loadtxt would take: exit 2, ``parse`` at
    file:line."""
    trip, t0 = _first_trip_start(workdir["paths"])
    line = f"{trip}\0,B0,{t0 + 3},29.651,-82.3" if token == "NUL" else \
        f"{trip},B0,{t0 + 3},{token},-82.3"
    pings, lineno = _pings_with(workdir, tmp_path, line)
    assert main(["infer", "--config", str(workdir["cfg"]), "--pings", str(pings),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: parse: pings.csv:{lineno}: {message}\n"
    lines = (workdir["out"] / "observations.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split(",")
    if token == "NUL":
        fields[0] += "\0"
    else:
        fields[3] = token
    lines.append(",".join(fields))
    (tmp_path / "observations.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["fit", "--config", str(workdir["cfg"]), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: parse: observations.csv:{len(lines)}: {message}\n"


def test_simulate_trip_without_pings_exit_2(workdir, tmp_path, capsys):
    trip, _ = _first_trip_start(workdir["paths"])
    pings = tmp_path / "pings.csv"
    pings.write_text("".join(l + "\n" for l in workdir["paths"].pings.read_text().splitlines()
                             if not l.startswith(trip + ",")), encoding="utf-8")
    rc = main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip, "--replay",
               "--pings", str(pings)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: not_found: no ping segment for trip {trip}")
    pings.write_text("", encoding="utf-8")
    assert main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip,
                 "--pings", str(pings)]) == 2
    assert capsys.readouterr().err.startswith("error: not_found:")


def test_evaluate_writes_csv(workdir, capsys):
    rc = main(["evaluate", "--config", str(workdir["cfg"])])
    assert rc == 0
    csv_path = workdir["out"] / "evaluation.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("route_id,")
    assert len(lines) == 3  # header + 2 links


def test_empty_pings_exit_2(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--pings", str(empty),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["pings", "weather"])
def test_byte_order_mark_is_dropped(workdir, tmp_path, capsys, flag):
    """An input that starts with a UTF-8 byte-order mark reads as without it."""
    marked = tmp_path / f"{flag}.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + getattr(workdir["paths"], flag).read_bytes())
    rc = main(["infer", "--config", str(workdir["cfg"]), f"--{flag}", str(marked),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "skipped 0" in capsys.readouterr().out
    assert ((tmp_path / "observations.csv").read_bytes()
            == (workdir["out"] / "observations.csv").read_bytes())


@pytest.mark.parametrize("flag", ["pings", "weather"])
def test_input_not_utf8_exit_2(workdir, tmp_path, capsys, flag):
    """A latin-1 byte in an input is one error line naming the file."""
    text = getattr(workdir["paths"], flag).read_bytes()
    bad = tmp_path / f"{flag}.csv"
    bad.write_bytes(text + text.splitlines()[-1].replace(b",", b"\xe9,", 1) + b"\n")
    rc = main(["infer", "--config", str(workdir["cfg"]), f"--{flag}", str(bad),
               "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "not_utf8", str(bad))


def test_input_that_is_a_directory_exit_2(workdir, tmp_path, capsys):
    rc = main(["infer", "--config", str(workdir["cfg"]), "--pings", str(tmp_path),
               "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "Is a directory", str(tmp_path))


def test_missing_weather_hour_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "weather.csv"
    bad.write_text("date,hour,condition\n2023-08-18,0,Clear\n", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--weather", str(bad),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hour" in err


@pytest.mark.parametrize("shift, when", [(10**9, r"2055-\d\d-\d\d"),
                                         (9 * 10**17, r"day number \d+")],
                         ids=["year_2055", "past_year_9999"])
def test_timestamp_past_the_weather_exit_2(workdir, tmp_path, capsys, shift, when):
    # one trip's pings moved 31 years on, or far past year 9999
    lines = workdir["paths"].pings.read_text(encoding="utf-8").splitlines()
    shifted = []
    for line in lines:
        trip, vehicle, ts, rest = line.split(",", 3)
        if trip == "T001":
            ts = str(int(ts) + shift)
        shifted.append(",".join((trip, vehicle, ts, rest)))
    pings = tmp_path / "pings.csv"
    pings.write_text("\n".join(shifted) + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--pings", str(pings),
               "--out", str(tmp_path)])
    assert rc == 2
    assert re.search(f"error: missing_weather: no weather entry for {when} hour \\d+$",
                     capsys.readouterr().err)


@pytest.mark.parametrize("change, named", [
    (lambda t: t.update(colour="red"), "colour"),
    (lambda t: t["links"][1].pop("beta"), "beta"),
    (lambda t: t.update(start_date="2023-13-01"), "start_date"),
    (lambda t: t.update(n_days="3"), "n_days"),
    (lambda t: t.update(seed=1.5), "seed"),
    (lambda t: t.update(seed=-1), "seed"),
    (lambda t: t.update(speed_threshold=5.0), "speed_threshold"),
    (lambda t: t["links"][0]["beta"].__setitem__(1, True), "link 1 beta"),
    (None, "t.json"),
    (lambda t: t.update(buffer_radius=0.0), "buffer_radius"),
    (lambda t: t.update(zone_speed=0.0), "zone_speed"),
    (lambda t: t.update(zone_speed=-8.0), "zone_speed"),
    (lambda t: t.update(delta_t=0.0), "delta_t"),
    (lambda t: t.update(n_days=0), "n_days"),
    (lambda t: t.update(n_days=-2), "n_days"),
    (lambda t: t.update(slots_per_day=0), "slots_per_day"),
    (lambda t: t.update(ping_interval=0), "ping_interval"),
    (lambda t: t.update(congestion_prob=1.5), "congestion_prob"),
    (lambda t: t.update(rain_hour_prob=-1), "rain_hour_prob"),
    (lambda t: t.update(direction_id=3), "direction_id"),
    (lambda t: t.update(links=[]), "links"),
    (lambda t: t["links"][0].update(dwell_pool=[]), "link 1 dwell_pool"),
    (lambda t: t["links"][0]["beta"].pop(), "link 1 beta"),
    (lambda t: t["links"][1]["gamma"].append(0.0), "link 2 gamma"),
    (lambda t: t["links"][1]["intersections"][0].update(sigma=-0.35), "intersection X1 sigma"),
    (lambda t: t.update(origin_lat=95.0), "origin_lat"),
    (lambda t: t.update(origin_lon=-181.0), "origin_lon"),
    (lambda t: t.update(origin_lon=179.99), "the shape's last vertex"),
    (lambda t: t.update(tz_offset=1e306), "tz_offset"),
    (lambda t: t.update(tz_offset=-12.5), "tz_offset"),
    (lambda t: t.update(start_date="9999-12-31", n_days=2), "9999-12-31"),
    (lambda t: t["links"][0]["intersections"].append(
        {"id": "X1", "offset": 350.0, "mu": 2.8, "sigma": 0.35}), "intersection id"),
], ids=["unknown_key", "link_without_beta", "bad_start_date", "str_for_int", "float_for_int",
        "negative_seed", "no_threshold_key", "bool_for_float", "truncated_file",
        "zero_buffer_radius", "zero_zone_speed", "negative_zone_speed", "zero_delta_t",
        "zero_days", "negative_days", "zero_slots", "zero_ping_interval",
        "congestion_prob_above_1", "negative_rain_prob", "direction_3", "no_links",
        "empty_dwell_pool", "four_betas", "six_gammas", "negative_sigma", "origin_lat_95",
        "origin_lon_below_-180", "shape_past_180", "tz_offset_1e306", "tz_offset_below_-12",
        "past_year_9999", "repeated_intersection_id"])
def test_bad_truth_exit_2(tmp_path, capsys, change, named):
    path = write_truth(tmp_path / "t.json", SMALL_TRUTH)
    if change is None:
        path.write_text(path.read_text(encoding="utf-8")[:200], encoding="utf-8")
    else:
        truth = json.loads(json.dumps(SMALL_TRUTH))
        change(truth)
        write_truth(path, truth)
    rc = main(["synth", "--truth", str(path), "--out", str(tmp_path / "c")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: bad_config: " in err
    assert named in err
    assert not (tmp_path / "c").exists()


def test_rejected_truth_writes_nothing(tmp_path, capsys):
    """The fourth day's trip leaves its second link on a day without
    weather: the truth is rejected before any file is written."""
    path = write_truth(tmp_path / "t.json", dict(MIDNIGHT_TRUTH, n_days=4))
    out = tmp_path / "c"
    out.mkdir()
    rc = main(["synth", "--truth", str(path), "--out", str(out)])
    assert rc == 2
    assert "error: infeasible_truth: " in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_delimiter_in_intersection_id_exit_2(workdir, tmp_path, capsys):
    bad = tmp_path / "intersections.csv"
    bad.write_text("intersection_id,lat,lon\nX=1,29.0,-82.0\n", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--intersections", str(bad),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "bad_id" in capsys.readouterr().err
    assert not (tmp_path / "observations.csv").exists()


def test_fit_partial_failure_reports_gap(tmp_path, workdir, capsys):
    # link 1 has plenty of rows; link 2 too few to fit
    rng = np.random.default_rng(0)
    rows = []
    for i in range(60):
        rows.append(LinkObservation(
            route_key=("R1", 0), link_index=1, depart_prev=1692354000.0 + 600 * i,
            total_time=50.0, dwell_time=10.0, intersection_times=(),
            road_time=float(np.exp(rng.normal(3.5, 0.3))),
            covariates=CovariateVector(int(rng.random() < 0.3), i % 2, 1, int(rng.random() < 0.4))))
    for i in range(5):
        rows.append(LinkObservation(
            route_key=("R1", 0), link_index=2, depart_prev=1692354000.0 + 600 * i,
            total_time=50.0, dwell_time=10.0, intersection_times=(),
            road_time=30.0, covariates=CovariateVector(0, 0, 1, 0)))
    obs_dir = tmp_path / "gap"
    obs_dir.mkdir()
    write_observations(obs_dir / "observations.csv", table_of(rows))
    rc = main(["fit", "--config", str(workdir["cfg"]), "--out", str(obs_dir),
               "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert payload["fitted"] == ["R1/0/1"]
    assert any("insufficient_data" in f[1] for f in payload["failed"])


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n", encoding="utf-8")
    rc = main(["validate", "--config", str(cfg)])
    assert rc == 2


def assert_input_error(rc, capsys, *words):
    """Exit 2 with exactly one ``error:`` line on stderr naming ``words``."""
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert len(lines) == 1 and lines[0].startswith("error:")
    for word in words:
        assert word in lines[0]


def test_bad_number_in_config_exit_2(tmp_path, capsys):
    """A float or integer field, a tuple's integer and a threshold's link
    index read every number in the number grammar: ASCII, with no ``_``."""
    cfg = tmp_path / "bad.cfg"
    for line in ("delta_t = abc", "min_fit_samples = 1_000", "peak_hours = 7,1_7",
                 "link_speed_thresholds = \u0661:4.0"):
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = main(["validate", "--config", str(cfg)])
        assert_input_error(rc, capsys, "bad_config", line.split(" = ")[0])


@pytest.mark.parametrize("argv", [
    ["predict", "--route", "R1", "--link", "\u0661"],
    ["predict", "--route", "R1", "--link", "1", "--rain", "\u0661"],
    ["predict", "--route", "R1", "--link", "1", "--direction", "0_0"],
    ["synth", "--truth", "truth.json", "--seed", "1_0"],
], ids=["link", "rain", "direction", "seed"])
def test_integer_flag_outside_the_number_grammar_exit_2(capsys, argv):
    """Integer flags read their value as the config file's integers are read."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"invalid int64 value: {argv[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["inf", "nan", "1e999", "1_0"])
def test_at_flag_outside_the_number_grammar_exit_2(capsys, value):
    """``simulate --at`` reads its value as the config file's floats are read:
    a finite number in the number grammar."""
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--trip", "T005", "--at", value])
    assert exit_.value.code == 2
    assert f"invalid finite_float value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.9_5", "1_0"])
def test_level_flag_outside_the_number_grammar_exit_2(capsys, value):
    """``predict --level`` reads its value in the number grammar, so ``0.9_5``
    is refused where Python's ``float`` reads it as 0.95."""
    with pytest.raises(SystemExit) as exit_:
        main(["predict", "--route", "R1", "--link", "1", "--level", value])
    assert exit_.value.code == 2
    assert f"invalid number value: {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["runs", "seed"])
def test_retired_config_key_exit_2(tmp_path, capsys, key):
    """No driver reads ``runs`` or ``seed``, so a file that sets one is
    refused like any other unknown key, naming file and line."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"delta_t = 5\n{key} = 7\n", encoding="utf-8")
    rc = main(["validate", "--config", str(cfg)])
    assert_input_error(rc, capsys, "bad_config", f"bad.cfg:2: unknown key '{key}'")


def test_repeated_config_key_exit_2(tmp_path, capsys):
    """A key set twice is refused at its second line, not read as the last."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("delta_t = 5\n# the step\ndelta_t = 7\n", encoding="utf-8")
    rc = main(["validate", "--config", str(cfg)])
    assert_input_error(rc, capsys, "bad_config", "bad.cfg:3: repeats key 'delta_t'")


def test_negative_backward_tolerance_exit_2(tmp_path, capsys):
    """The monotone repair's running maximum needs a tolerance >= 0."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("backward_tolerance = -1\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "bad_config", "backward_tolerance")


@pytest.mark.parametrize("line", [
    "buffer_radius = -5", "off_route = 0", "max_gap = -1", "delta_t = 0",
    "min_fit_samples = 0", "min_component_samples = 0", "peak_hours = 7,24",
    "tz_offset = 1e306",
], ids=lambda line: line.split(" = ")[0])
def test_out_of_range_config_exit_2(tmp_path, capsys, line):
    """A value no run can use is rejected before any input is read."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "bad_config", line.split(" = ")[0])
    assert not (tmp_path / "observations.csv").exists()


def test_tz_offset_span_is_inclusive():
    """UTC offsets in use run from -12 to +14 hours, both ends taken."""
    assert [RunConfig(tz_offset=v).tz_offset for v in (-12, 14)] == [-12, 14]
    for v in (-12.5, 14.25):
        with pytest.raises(ConfigError, match="tz_offset"):
            RunConfig(tz_offset=v)


@pytest.mark.parametrize("line", ["delta_t = nan", "off_route = inf", "tz_offset = -inf",
                                  "link_speed_thresholds = 2:nan"])
def test_non_finite_number_in_config_exit_2(workdir, tmp_path, capsys, line):
    key = line.split(" = ")[0]
    kept = [s for s in workdir["cfg"].read_text(encoding="utf-8").splitlines()
            if s.split(" = ")[0] != key]  # a key may be set once
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join([*kept, line]) + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "bad_config", line.split(" = ")[1])
    assert not (tmp_path / "observations.csv").exists()


def test_bad_link_speed_threshold_exit_2(workdir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(workdir["cfg"].read_text(encoding="utf-8")
                   + "link_speed_thresholds = a:4.0\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "bad_config", "a:4.0")
    assert not (tmp_path / "observations.csv").exists()


@pytest.mark.parametrize("line, named", [
    ("speed_threshold = -5", "speed_threshold"),
    ("speed_threshold = 0", "speed_threshold"),
    ("link_speed_thresholds = 0:4.0", "'0:4.0'"),
    ("link_speed_thresholds = 1:4.0,-3:1.0", "'-3:1.0'"),
    ("link_speed_thresholds = 2:-1.0", "'2:-1.0'"),
    ("link_speed_thresholds = 2:0", "'2:0'"),
    ("link_speed_thresholds = 2:4.0,2:9.0", "'2:9.0'"),
], ids=["negative_default", "zero_default", "link_0", "negative_link", "negative_value",
        "zero_value", "repeated_link"])
def test_out_of_range_link_speed_threshold_exit_2(workdir, tmp_path, capsys, line, named):
    """Link indices start at 1, thresholds are > 0 and a link has one
    override; the entry that breaks a rule is named."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(workdir["cfg"].read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(cfg), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "bad_config", named)
    assert not (tmp_path / "observations.csv").exists()


def test_link_speed_threshold_override_changes_only_its_link(workdir, tmp_path):
    """Under a 0.001 m/s threshold on link 2 no pair of link 2 is congested:
    its traffic column turns all 0 and nothing else in the file changes."""
    rows = {}
    for name, extra in (("default", ""), ("override", "link_speed_thresholds = 2:0.001\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(workdir["cfg"].read_text(encoding="utf-8") + extra, encoding="utf-8")
        assert main(["infer", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        text = (tmp_path / name / "observations.csv").read_text(encoding="utf-8")
        rows[name] = [line.split(",") for line in text.splitlines()]
    header = rows["default"][0]
    link, traffic = header.index("link_index"), header.index("traffic")
    assert len(rows["override"]) == len(rows["default"])
    changed = 0
    for old, new in zip(rows["default"], rows["override"]):
        assert new[:traffic] + new[traffic + 1:] == old[:traffic] + old[traffic + 1:]
        if old[link] == "2":
            changed += old[traffic] != new[traffic]
            assert new[traffic] == "0"
        else:
            assert new[traffic] == old[traffic]
    assert changed > 0


def test_negative_seed_synth_exit_2(small_corpus, tmp_path, capsys):
    rc = main(["synth", "--truth", str(small_corpus["truth_path"]), "--seed", "-1",
               "--out", str(tmp_path / "c")])
    assert_input_error(rc, capsys, "bad_config", "seed")
    assert not (tmp_path / "c").exists()


def test_seed_flag_refused_outside_synth_exit_2(workdir, capsys):
    """A forecast draws no random numbers, so ``simulate`` has no ``--seed``."""
    trip, _ = _first_trip_start(workdir["paths"])
    with pytest.raises(SystemExit) as exit_:
        main(["simulate", "--config", str(workdir["cfg"]), "--trip", trip, "--replay",
              "--seed", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def _args_read(func) -> set:
    """The ``args.<name>`` attributes that ``func``'s source reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_option_is_read():
    """Each option of a subcommand is read by its handler or, for a handler
    that builds a RunConfig, by ``_config_from``, which also reads every
    input flag through ``_INPUT_FLAGS``: no flag is accepted and ignored."""
    config_reads = _args_read(cli._config_from) | set(cli._INPUT_FLAGS)
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    inert = []
    for name, sub in subcommands.choices.items():
        handler = sub.get_default("func")
        reads = _args_read(handler)
        if "_config_from(args)" in inspect.getsource(handler):
            reads |= config_reads
        inert += [f"{name} {action.option_strings[0]}" for action in sub._actions
                  if action.option_strings and action.dest not in reads | {"help"}]
    assert inert == []


def test_bad_number_in_gtfs_table_exit_2(workdir, tmp_path, capsys):
    gtfs = tmp_path / "gtfs"
    shutil.copytree(workdir["paths"].gtfs_dir, gtfs)
    lines = (gtfs / "stops.txt").read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("stop_lat")
    row = lines[1].split(",")
    row[col] = "north"
    lines[1] = ",".join(row)
    (gtfs / "stops.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--gtfs", str(gtfs),
               "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "parse", "stops.txt:2:", "stop_lat")


@pytest.mark.parametrize("table,key", [
    ("stops.txt", "stop_id"), ("shapes.txt", "shape_id"), ("trips.txt", "trip_id"),
    ("stop_times.txt", "stop_sequence")])
def test_duplicate_gtfs_key_exit_2(workdir, tmp_path, capsys, table, key):
    """A second row with an earlier row's key (stop_id, trip_id, shape_id and
    shape_pt_sequence, trip_id and stop_sequence) is refused, naming the line
    of the second row, where it used to overwrite or follow the first."""
    gtfs = tmp_path / "gtfs"
    shutil.copytree(workdir["paths"].gtfs_dir, gtfs)
    lines = (gtfs / table).read_text(encoding="utf-8").splitlines()
    lines.insert(3, lines[1])
    (gtfs / table).write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["infer", "--config", str(workdir["cfg"]), "--gtfs", str(gtfs),
               "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "duplicate", f"{table}:4:", key)


def test_bad_number_in_model_store_exit_2(workdir, tmp_path, capsys):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("loglik"))
    lines[lineno - 1] = "loglik = -12.5x"
    (tmp_path / "models.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["predict", "--config", str(workdir["cfg"]), "--out", str(tmp_path),
               "--route", "R1", "--link", "1"])
    assert_input_error(rc, capsys, "parse", f"models.txt:{lineno}:")


@pytest.mark.parametrize("column,value,words", [
    (6, "-3.5", ["road time '-3.5' is not positive"]),
    (6, "0.0", ["road time '0.0' is not positive"]),
    (5, "-0.5", ["dwell time '-0.5' is negative"]),
    (7, "X1=-2.0", ["intersection time 'X1=-2.0' is negative"]),
], ids=["negative_road", "zero_road", "negative_dwell", "negative_intersection"])
def test_observation_out_of_range_exit_2(workdir, tmp_path, capsys, column, value, words):
    """``infer`` never writes these values; ``fit`` refuses them, naming the line."""
    lines = (workdir["out"] / "observations.csv").read_text(encoding="utf-8").splitlines()
    lineno = len(lines) // 2
    parts = lines[lineno - 1].split(",")
    parts[column] = value
    lines[lineno - 1] = ",".join(parts)
    (tmp_path / "observations.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main(["fit", "--config", str(workdir["cfg"]), "--out", str(tmp_path)])
    assert_input_error(rc, capsys, "parse", f"observations.csv:{lineno}:", *words)
    assert not (tmp_path / "models.txt").exists()


def _predict_with_store(workdir, tmp_path, lines):
    (tmp_path / "models.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main(["predict", "--config", str(workdir["cfg"]), "--out", str(tmp_path),
                 "--route", "R1", "--link", "1"])


@pytest.mark.parametrize("field,value", [("mu_s", "nan"), ("sigma_s", "inf"),
                                         ("loglik", "-inf"), ("beta", "nan"),
                                         ("gamma", "inf"), ("fim", "nan"),
                                         ("samples", "nan"),
                                         ("excluded_zero_fraction", "nan")])
def test_non_finite_number_in_model_store_exit_2(workdir, tmp_path, capsys, field, value):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(f"{field} = "))
    values = lines[lineno - 1].split(" = ")[1].split(",")
    lines[lineno - 1] = f"{field} = " + ",".join([value] + values[1:])
    rc = _predict_with_store(workdir, tmp_path, lines)
    assert_input_error(rc, capsys, "parse", f"models.txt:{lineno}:", repr(value))


def test_fitted_model_store_round_trip_is_byte_stable(workdir, tmp_path):
    from buslink.store import read_store, write_store
    fitted = workdir["out"] / "models.txt"
    write_store(tmp_path / "models.txt", read_store(fitted))
    assert (tmp_path / "models.txt").read_bytes() == fitted.read_bytes()


def test_model_store_missing_field_exit_2(workdir, tmp_path, capsys):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    for field, kind in (("loglik", "road"), ("pooled", "dwell"),
                        ("excluded_zero_fraction", "intersection"), ("pooled", "intersection")):
        # drop the field from the first section of the kind on
        header = next(line for line in lines if line.startswith(f"[{kind} "))
        start = lines.index(header)
        rc = _predict_with_store(workdir, tmp_path, lines[:start] + [
            line for line in lines[start:] if not line.startswith(f"{field} =")])
        assert_input_error(rc, capsys, "parse", "models.txt", header, field)


def test_model_store_unknown_section_exit_2(workdir, tmp_path, capsys):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    i = lines.index("[road R1 0 2]")
    lines[i] = "[bus R1 0 2]"
    rc = _predict_with_store(workdir, tmp_path, lines)
    assert_input_error(rc, capsys, "parse", f"models.txt:{i + 1}:", "[bus R1 0 2]")


@pytest.mark.parametrize("header", ["[road R1 0 2", "[[road R1 0 2]", "[road R1 0 2]]"],
                         ids=["no_close", "two_open", "two_close"])
def test_model_store_section_brackets_exit_2(workdir, tmp_path, capsys, header):
    """A header opens with exactly one ``[`` and closes with exactly one ``]``."""
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    i = lines.index("[road R1 0 2]")
    lines[i] = header
    rc = _predict_with_store(workdir, tmp_path, lines)
    assert_input_error(rc, capsys, "parse", f"models.txt:{i + 1}:", header)


def _insert_after(prefix, new_line):
    """Edit inserting ``new_line`` after the first line that starts with
    ``prefix``; returns the new lines and the inserted line's number."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + 1
        return lines[:i] + [new_line] + lines[i:], i + 1
    return edit


def _repeat_first_dwell_section(lines):
    start = next(i for i, line in enumerate(lines) if line.startswith("[dwell "))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("["))
    return lines + lines[start:end], len(lines) + 1


def _dwell_n_off_by_one(lines):
    start = next(i for i, line in enumerate(lines) if line.startswith("[dwell "))
    n = int(lines[start + 1].removeprefix("n = "))  # the writer puts n first
    return lines[:start + 1] + [f"n = {n + 1}"] + lines[start + 2:], start + 1


@pytest.mark.parametrize("edit,words", [
    (_insert_after("[road ", "colour = red"), ["no field 'colour'"]),
    (_insert_after("[road ", "loglik 2094.2"), ["'loglik 2094.2'", "field = value"]),
    (_insert_after("# buslink", "n = 3540"), ["before the first section header"]),
    (_repeat_first_dwell_section, ["[dwell R1 0 S1]", "repeated"]),
    (_insert_after("loglik = ", "loglik = 1.5"), ["field 'loglik' repeated"]),
    (_dwell_n_off_by_one, ["[dwell R1 0 S1]", "samples"]),
], ids=["unknown_key", "no_equals", "field_before_header", "repeated_section",
        "repeated_field", "dwell_n_not_sample_count"])
def test_model_store_line_its_writer_never_writes_exit_2(workdir, tmp_path, capsys, edit, words):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    lines, lineno = edit(lines)
    rc = _predict_with_store(workdir, tmp_path, lines)
    assert_input_error(rc, capsys, "parse", f"models.txt:{lineno}:", *words)


def _replace_first(prefix, new_line):
    """Edit replacing the first line that starts with ``prefix`` by
    ``new_line``; returns the new lines and the replaced line's number."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return lines[:i] + [new_line] + lines[i + 1:], i + 1
    return edit


@pytest.mark.parametrize("edit,words", [
    (_replace_first("beta = ", "beta = 4.1,0.1,0.2"), ["3 coefficients, not 5"]),
    (_replace_first("gamma = ", "gamma = -4.4,0.1,0.2,0.3,0.4,0.5"), ["6 coefficients, not 5"]),
    (_replace_first("active_mask = ", "active_mask = 1,1,1"), ["'1,1,1'", "5", "0/1"]),
    (_replace_first("active_mask = ", "active_mask = 1,2,1,1,1"), ["'1,2,1,1,1'", "0/1"]),
    (_replace_first("pooled = ", "pooled = 7"), ["'7'", "0/1"]),
    (_replace_first("n = ", "n = -5"), ["count -5 is negative"]),
    (_replace_first("sigma_s = ", "sigma_s = -0.25"), ["'-0.25' is outside [0, inf]"]),
    (_replace_first("samples = ", "samples = -5,5,5"), ["-5.0 is outside [0, inf]"]),
    (_replace_first("excluded_zero_fraction = ", "excluded_zero_fraction = 1.5"),
     ["'1.5' is outside [0, 1]"]),
    (_replace_first("excluded_zero_fraction = ", "excluded_zero_fraction = -0.125"),
     ["'-0.125' is outside [0, 1]"]),
], ids=["beta_3_values", "gamma_6_values", "mask_3_flags", "mask_flag_2", "pooled_7",
        "negative_n", "negative_sigma_s", "negative_dwell_sample", "zero_fraction_above_1",
        "negative_zero_fraction"])
def test_model_store_value_of_wrong_shape_or_range_exit_2(workdir, tmp_path, capsys, edit,
                                                          words):
    lines = (workdir["out"] / "models.txt").read_text(encoding="utf-8").splitlines()
    lines, lineno = edit(lines)
    rc = _predict_with_store(workdir, tmp_path, lines)
    assert_input_error(rc, capsys, "parse", f"models.txt:{lineno}:", *words)


@pytest.mark.parametrize("level", ["0", "1", "-0.5", "1.5", "nan"])
def test_predict_level_outside_unit_interval_exit_2(workdir, capsys, level):
    rc = main(["predict", "--config", str(workdir["cfg"]), "--route", "R1", "--link", "1",
               "--level", level])
    assert_input_error(rc, capsys, "bad_config", "level")


def test_program_lookup_error_is_not_input_error(workdir, monkeypatch):
    from buslink import pipeline

    def broken(cfg):
        raise KeyError("bug")

    monkeypatch.setattr(pipeline, "run_validate", broken)
    with pytest.raises(KeyError):
        main(["validate", "--config", str(workdir["cfg"])])


def test_console_entrypoint_subprocess(workdir):
    import os
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-m", "buslink", "validate",
                          "--config", str(workdir["cfg"])],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert "ks_lognormal" in out.stdout
