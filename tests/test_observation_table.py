"""The observation table against the row reader it replaces: on random
observation files, ``read_observations`` gives the groups, designs and
intersection samples that ``_observation`` rows give, in the same order,
and rejects a file with the row reader's exact error."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from buslink.errors import IngestError
from buslink.ingest import file_lines, read_rows
from buslink.store import OBS_HEADER, _observation, read_observations

from conftest import examples

SETTINGS = settings(deadline=None, max_examples=examples(150),
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# an id may hold the characters at which np.loadtxt and the number grammar part
ROUTE_IDS = ("R1", "R10", "r1", "R\x1c1", "R\u30001")
XIDS = ("X1", "X2", "X10", "X\xa0")
# spellings that int() reads as the same direction, in the number grammar
DIRECTIONS = {0: ("0", "00", "+0", "-0", "\x0b0"), 1: ("1", "01", "+1", " 1", "1\x0c")}
# total times; dwell and intersection times are >= 0, road times > 0
SECONDS = [0.0, -0.0, 1.5, 2.0, 17.25, -3.0, 1e-300, 123456.789]
NONNEGATIVE = [s for s in SECONDS if s >= 0.0]
POSITIVE = [s for s in SECONDS if s > 0.0]
PADDING = st.sampled_from(["", " ", "\t", "  \t"])
# edits of a data line; each gives a line the row reader rejects
CORRUPTIONS = {
    "bad_float": lambda f: f.__setitem__(3, "17x"),
    "nan": lambda f: f.__setitem__(4, "nan"),
    "infinite": lambda f: f.__setitem__(6, "-inf"),
    "no_equals": lambda f: f.__setitem__(7, "X1"),
    "empty_entry": lambda f: f.__setitem__(7, f[7] + ";"),
    "covariate_2": lambda f: f.__setitem__(8, "2"),
    "padded_covariate": lambda f: f.__setitem__(9, " 1"),
    "link_beyond_int64": lambda f: f.__setitem__(2, "99999999999999999999"),
    "float_direction": lambda f: f.__setitem__(1, "1.0"),
    "12_fields": lambda f: f.pop(),
    "14_fields": lambda f: f.append(""),
    "negative_dwell": lambda f: f.__setitem__(5, "-0.5"),
    "zero_road": lambda f: f.__setitem__(6, "0.0"),
    "negative_intersection_time": lambda f: f.__setitem__(7, "X1=-2.0"),
    # int() or float() takes each, the number grammar none
    "underscore": lambda f: f.__setitem__(2, "1_0"),
    "arabic_digits": lambda f: f.__setitem__(4, "\u0661\u0665"),
    "padded_by_x1c": lambda f: f.__setitem__(3, "\x1c" + f[3]),
    "padded_by_nbsp": lambda f: f.__setitem__(7, "X1=\xa015.75"),
    "padded_by_u3000": lambda f: f.__setitem__(1, f[1] + "\u3000"),
    "nul_in_flags": lambda f: f.__setitem__(12, f[12] + "\x00"),
}


@st.composite
def data_line(draw, route_keys):
    route_id, direction = draw(st.sampled_from(route_keys))
    xids = draw(st.lists(st.sampled_from(XIDS), unique=True, max_size=2))
    interp = draw(st.lists(st.sampled_from(XIDS), unique=True, max_size=2))
    flags = ([f"interp_x={x}" for x in interp]
             + draw(st.lists(st.sampled_from(["interp_stop", "unobs_traffic", ""]), max_size=2)))
    fields = [
        route_id, draw(st.sampled_from(DIRECTIONS[direction])),
        draw(st.sampled_from(["1", "2", "3", "03"])),
        repr(draw(st.sampled_from([1692354000.0, 1692354000.5, 1692357600.0]))),
        *(repr(draw(st.sampled_from(values))) for values in (SECONDS, NONNEGATIVE, POSITIVE)),
        ";".join(f"{x}={draw(st.sampled_from(NONNEGATIVE))!r}" for x in xids),
        *(draw(st.sampled_from("01")) for _ in range(4)),
        ";".join(draw(st.permutations(flags))),
    ]
    if draw(st.integers(0, 30)) == 0:
        draw(st.sampled_from(list(CORRUPTIONS.values())))(fields)
    return draw(PADDING) + ",".join(fields) + draw(PADDING)


@st.composite
def observation_file(draw):
    route_keys = draw(st.lists(st.tuples(st.sampled_from(ROUTE_IDS), st.integers(0, 1)),
                               min_size=2, max_size=2, unique=True))
    lines = draw(st.lists(data_line(route_keys), min_size=1, max_size=25))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "   ", "# comment", "  #,a,b"])))
    header = draw(st.sampled_from([None, "route_id", "ROUTE_ID", "Route_Id"]))
    if header is not None:
        lines.insert(0, draw(PADDING) + header + OBS_HEADER[len("route_id"):])
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def reference_rows(path):
    return list(read_rows(file_lines(path, "route_id"), path.name, OBS_HEADER.split(","),
                          _observation))


def bits(values) -> list:
    """Floats as their reprs, so that -0.0 and 0.0 differ."""
    return [repr(float(v)) for v in values]


@given(text=observation_file())
@SETTINGS
def test_table_equals_the_row_reader(tmp_path, text):
    path = tmp_path / "observations.csv"
    path.write_text(text, encoding="utf-8")
    try:
        rows = reference_rows(path)
    except IngestError as exc:
        with pytest.raises(IngestError) as e:
            read_observations(path)
        assert str(e.value) == str(exc)
        return
    if not rows:
        with pytest.raises(IngestError) as e:
            read_observations(path)
        assert e.value.kind == "empty"
        return
    table = read_observations(path)
    assert list(table) == rows

    # groups: keys sorted, rows in file order
    groups: dict = {}
    for i, o in enumerate(rows):
        groups.setdefault((o.route_key, o.link_index), []).append(i)
    groups = dict(sorted(groups.items()))
    assert list(table.groups) == list(groups)
    for key, idx in groups.items():
        got = table.groups[key]
        assert got.tolist() == idx
        assert bits(table.road[got]) == bits(rows[i].road_time for i in idx)
        assert bits(table.dwell[got]) == bits(rows[i].dwell_time for i in idx)
        assert bits(table.depart_prev[got]) == bits(rows[i].depart_prev for i in idx)
        assert table.covariates[got].tolist() == [list(map(float, rows[i].covariates))
                                                   for i in idx]
    assert table.route_keys == sorted({o.route_key for o in rows})

    # intersection samples in file order, split by use in the fits
    usable: dict = {}
    others: dict = {}
    for o in rows:
        for xid, secs, interpolated in o.intersection_times:
            side = usable if secs > 0.0 and not interpolated else others
            side.setdefault((o.route_key, xid), []).append(secs)
    fitted = table.usable_intersections()
    for side, mask in ((usable, fitted), (others, ~fitted)):
        got = table.by_intersection(np.flatnonzero(mask))
        assert list(got) == sorted(side)
        assert {k: bits(table.x_secs[v]) for k, v in got.items()} == \
            {k: bits(v) for k, v in side.items()}

    # a route's intersection times in link order, then file order
    for rk in table.route_keys:
        route_rows = [i for (r, _), idx in groups.items() if r == rk for i in idx]
        entries = table.intersections_of(np.array(route_rows, dtype=np.int64))
        assert bits(table.x_secs[entries]) == \
            bits(x[1] for i in route_rows for x in rows[i].intersection_times)


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_table_rejects_what_the_row_reader_rejects(tmp_path, corrupt):
    lines = [OBS_HEADER] + [
        f"R1,0,{k},1692354000.0,61.25,10.5,35.0,X1=15.75;X2=0.0,1,0,1,0,interp_x=X2"
        for k in (1, 2, 3)]
    fields = lines[2].split(",")
    corrupt(fields)
    lines[2] = ",".join(fields)
    path = tmp_path / "observations.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError) as expected:
        reference_rows(path)
    with pytest.raises(IngestError) as e:
        read_observations(path)
    assert str(e.value) == str(expected.value)
    assert "observations.csv:3:" in str(e.value)
