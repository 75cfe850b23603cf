"""Round trips of the observation file and the model store on random
content: write -> read gives the same rows, and writing them again gives
the same bytes. The table writer writes each row as the field-by-field
reference ``conftest.observation_line`` does. A road model's masked
coefficients are 0.0 in memory and ``absent`` in the file, and a file
whose ``absent`` positions disagree with its ``active_mask`` does not
read."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from buslink.components import EmpiricalDwell, IntersectionLogNormal
from buslink.errors import IngestError
from buslink.hetlognorm import COEF_COUNT, HetLogNormalModel
from buslink.store import (OBS_HEADER, CovariateVector, LinkObservation, ModelStore,
                           read_observations, read_store, write_observations, write_store)

from conftest import examples, observation_line, table_of

SETTINGS = settings(deadline=None, max_examples=examples(60),
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# ids may hold anything but whitespace and , ; = [ ], and may not begin
# with # (ingest rejects those)
ids = st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"),
                            blacklist_characters=",;=[]"), min_size=1, max_size=8
              ).filter(lambda s: not s.startswith("#"))
finite = st.floats(allow_nan=False, allow_infinity=False)
# the readers refuse a negative dwell or intersection time, sample, sigma_s
# or excluded_zero_fraction, and a road time <= 0
nonnegative = st.floats(min_value=-0.0, allow_infinity=False)
route_keys = st.tuples(ids, st.integers(0, 1))
bits = st.integers(0, 1)


@st.composite
def observations(draw):
    xids = draw(st.lists(ids, unique=True, max_size=3))
    xs = tuple((xid, draw(nonnegative), draw(st.booleans())) for xid in xids)
    flags = (["interp_stop"] if draw(st.booleans()) else []) \
        + [f"interp_x={xid}" for xid, _, interpolated in xs if interpolated] \
        + (["unobs_traffic"] if draw(st.booleans()) else [])
    return LinkObservation(
        route_key=draw(route_keys), link_index=draw(st.integers(1, 99)),
        depart_prev=draw(finite), total_time=draw(finite), dwell_time=draw(nonnegative),
        intersection_times=xs,
        road_time=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        covariates=CovariateVector(*draw(st.tuples(bits, bits, bits, bits))),
        flags=tuple(flags))


@given(rows=st.lists(observations(), min_size=1, max_size=6))
@example(rows=[LinkObservation(
    route_key=("route_id", 0), link_index=1, depart_prev=0.0, total_time=1.0,
    dwell_time=0.0, intersection_times=(), road_time=1.0,
    covariates=CovariateVector(0, 0, 0, 0))])
@SETTINGS
def test_observation_file_round_trip(tmp_path, rows):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_observations(first, table_of(rows))
    lines = [OBS_HEADER, *map(observation_line, rows)]
    assert first.read_text(encoding="utf-8") == "".join(f"{line}\n" for line in lines)
    table = read_observations(first)
    assert list(table) == rows
    write_observations(second, table)
    assert first.read_bytes() == second.read_bytes()


@st.composite
def road_entries(draw):
    mask = np.array([True] + draw(st.lists(st.booleans(), min_size=COEF_COUNT - 1,
                                           max_size=COEF_COUNT - 1)))
    coefs = st.lists(finite, min_size=COEF_COUNT, max_size=COEF_COUNT)
    size = 2 * COEF_COUNT
    return (draw(route_keys), draw(st.integers(1, 99))), HetLogNormalModel(
        beta=np.where(mask, draw(coefs), 0.0), gamma=np.where(mask, draw(coefs), 0.0),
        fim=np.array(draw(st.lists(st.lists(finite, min_size=size, max_size=size),
                                   min_size=size, max_size=size))),
        n=draw(st.integers(0, 10**6)), active_mask=mask, loglik=draw(finite))


@st.composite
def dwell_entries(draw):
    stop_id = draw(ids)
    samples = np.sort(draw(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=8)))
    return (draw(route_keys), stop_id), EmpiricalDwell(
        stop_id=stop_id, samples=samples, pooled=draw(st.booleans()))


@st.composite
def intersection_entries(draw):
    xid = draw(ids)
    return (draw(route_keys), xid), IntersectionLogNormal(
        intersection_id=xid, mu_s=draw(finite), sigma_s=draw(nonnegative),
        n=draw(st.integers(0, 10**6)), excluded_zero_fraction=draw(st.floats(-0.0, 1.0)),
        pooled=draw(st.booleans()))


def _models(entries):
    return st.lists(entries, max_size=3, unique_by=lambda e: e[0]).map(dict)


stores = st.builds(ModelStore, road=_models(road_entries()), dwell=_models(dwell_entries()),
                   intersections=_models(intersection_entries()))


def assert_same_store(a: ModelStore, b: ModelStore):
    assert a.road.keys() == b.road.keys()
    for key, m in a.road.items():
        r = b.road[key]
        assert np.array_equal(m.active_mask, r.active_mask)
        assert m.beta.tobytes() == r.beta.tobytes()
        assert m.gamma.tobytes() == r.gamma.tobytes()
        assert np.array_equal(m.fim, r.fim)
        assert (m.n, m.loglik) == (r.n, r.loglik)
    assert a.dwell.keys() == b.dwell.keys()
    for key, d in a.dwell.items():
        r = b.dwell[key]
        assert np.array_equal(d.samples, r.samples)
        assert (d.stop_id, d.pooled) == (r.stop_id, r.pooled)
    assert a.intersections == b.intersections


@given(store=stores.filter(lambda s: s.road or s.dwell or s.intersections))
@SETTINGS
def test_model_store_round_trip(tmp_path, store):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_store(first, store)
    again = read_store(first)
    assert_same_store(store, again)
    write_store(second, again)
    assert first.read_bytes() == second.read_bytes()
    # the file says absent exactly at the masked coefficients, read as 0.0
    lines = first.read_text(encoding="utf-8").splitlines()
    for (rk, link), m in again.road.items():
        header = lines.index(f"[road {rk[0]} {rk[1]} {link}]")
        for name in ("beta", "gamma"):
            line = next(t for t in lines[header:] if t.startswith(f"{name} = "))
            absent = np.array(line.partition(" = ")[2].split(",")) == "absent"
            assert absent.tolist() == (~m.active_mask).tolist()
            assert getattr(m, name)[absent].tobytes() == bytes(8 * absent.sum())


MASKED_ROAD = """\
# buslink model store v1
[road R 0 1]
n = 40
loglik = -1.5
active_mask = 1,0,1,1,1
beta = 3.5,absent,0.25,-0.5,0.75
gamma = -2,absent,0.5,0,1
""" + "fim = 0,0,0,0,0,0,0,0,0,0\n" * 10


@pytest.mark.parametrize("old,new", [
    ("beta = 3.5,", "beta = absent,"),  # absent at an active position
    ("beta = 3.5,absent,", "beta = 3.5,0,"),  # a number at a masked one
    ("gamma = -2,absent,0.5", "gamma = -2,absent,absent"),
    ("gamma = -2,absent,", "gamma = -2,0.125,"),
    ("active_mask = 1,0,1,1,1\nbeta = 3.5,absent,0.25,-0.5,0.75\ngamma = -2,absent,",
     "active_mask = 0,0,1,1,1\nbeta = absent,absent,0.25,-0.5,0.75\ngamma = absent,absent,"),
], ids=["beta_absent_at_active", "beta_number_at_masked", "gamma_absent_at_active",
        "gamma_number_at_masked", "intercept_masked"])
def test_absent_not_at_the_mask_is_a_parse_error(tmp_path, old, new):
    path = tmp_path / "m.txt"
    path.write_text(MASKED_ROAD, encoding="utf-8")
    m = read_store(path).road[(("R", 0), 1)]
    assert m.beta.tolist() == [3.5, 0.0, 0.25, -0.5, 0.75]
    assert m.gamma.tolist() == [-2.0, 0.0, 0.5, 0.0, 1.0]
    assert MASKED_ROAD.count(old) == 1
    path.write_text(MASKED_ROAD.replace(old, new), encoding="utf-8")
    with pytest.raises(IngestError) as e:
        read_store(path)
    assert e.value.kind == "parse"
    assert "m.txt:2: [road R 0 1]" in str(e.value)
