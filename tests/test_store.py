import math

import numpy as np
import pytest

from buslink.components import fit_dwell, fit_intersection
from buslink.errors import IngestError
from buslink.hetlognorm import fit
from buslink.ingest import finite_float
from buslink.store import (CovariateVector, LinkObservation, ModelStore, read_observations,
                           _floats, read_store, write_observations, write_store)

from conftest import generate_synthetic, table_of


def sample_observation(link=1, interp=False):
    return LinkObservation(
        route_key=("R1", 0), link_index=link, depart_prev=1692354017.0,
        total_time=61.25, dwell_time=10.5,
        intersection_times=(("X1", 15.75, False), ("X2", 0.0, True)),
        road_time=35.0, covariates=CovariateVector(1, 0, 1, 0),
        flags=("interp_x=X2",) if interp else ("interp_x=X2", "unobs_traffic"))


def test_observation_round_trip(tmp_path):
    obs = [sample_observation(1), sample_observation(2, interp=True)]
    path = tmp_path / "obs.csv"
    write_observations(path, table_of(obs))
    again = list(read_observations(path))
    assert again == obs


def test_observation_round_trip_is_byte_stable(tmp_path):
    obs = [sample_observation()]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_observations(p1, table_of(obs))
    write_observations(p2, read_observations(p1))
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("field,value", [(3, "nan"), (4, "inf"), (6, "-inf"),
                                         (7, "X1=nan;X2=0.0")])
def test_observation_non_finite_number_rejected(tmp_path, field, value):
    path = tmp_path / "obs.csv"
    write_observations(path, table_of([sample_observation()]))
    header, line = path.read_text(encoding="utf-8").splitlines()
    parts = line.split(",")
    parts[field] = value
    path.write_text(f"{header}\n{','.join(parts)}\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        read_observations(path)
    assert e.value.kind == "parse"
    assert "obs.csv:2:" in str(e.value)


def _drop_last_field(parts):
    parts.pop()


@pytest.mark.parametrize("edit,message", [
    (lambda parts: parts.__setitem__(3, "1692354017.0x"),
     "could not convert string to float: '1692354017.0x'"),
    (lambda parts: parts.__setitem__(6, "nan"), "'nan' is not a finite number"),
    (_drop_last_field, "expected 13 fields, got 12"),
    (lambda parts: parts.__setitem__(7, "X1;X2=0.0"), "intersection time 'X1' is not id=seconds"),
], ids=["bad_float", "nan", "field_count", "no_equals"])
def test_observation_error_names_its_line_deep_in_the_file(tmp_path, edit, message):
    path = tmp_path / "obs.csv"
    write_observations(path, table_of([sample_observation(1 + i % 5) for i in range(5000)]))
    lines = path.read_text(encoding="utf-8").splitlines()
    parts = lines[4998].split(",")
    edit(parts)
    lines[4998] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        read_observations(path)
    assert str(e.value) == f"parse: obs.csv:4999: {message}"


def test_empty_observation_file(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("route_id,direction_id\n", encoding="utf-8")
    with pytest.raises(IngestError) as e:
        read_observations(p)
    assert e.value.kind == "empty"


def build_store():
    ys, X = generate_synthetic([3, 0.1, 0.2, -0.1, 0.5], [-2, 0, 0.3, 0, 0.8],
                               2000, seed=1)
    model = fit(ys, X)
    ys2, X2 = generate_synthetic([2.5, 0.1, 0.0, 0.0, 0.4], [-3, 0, 0, 0, 0.5],
                                 1500, seed=2)
    X2[:, 2] = 0.0  # force a masked column through the store
    model2 = fit(ys2, X2)
    dwell = fit_dwell("S1", np.random.default_rng(3).exponential(8.0, 40))
    x = fit_intersection("X1", np.exp(np.random.default_rng(4).normal(2.5, 0.4, 60)),
                         excluded_zero_fraction=0.125)
    return ModelStore(road={(("R1", 0), 1): model, (("R1", 0), 2): model2},
                      dwell={(("R1", 0), "S1"): dwell},
                      intersections={(("R1", 0), "X1"): x})


def test_store_round_trip_bit_exact(tmp_path):
    store = build_store()
    p1 = tmp_path / "m1.txt"
    p2 = tmp_path / "m2.txt"
    write_store(p1, store)
    loaded = read_store(p1)
    write_store(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()

    m0 = store.road[(("R1", 0), 1)]
    m1 = loaded.road[(("R1", 0), 1)]
    assert np.array_equal(m0.beta, m1.beta)
    assert np.array_equal(m0.gamma, m1.gamma)
    assert np.array_equal(m0.fim, m1.fim)
    assert m0.loglik == m1.loglik and m0.n == m1.n
    masked = loaded.road[(("R1", 0), 2)]
    assert list(masked.active_mask) == [True, True, True, False, True]
    # the file says absent at the masked coefficient; it reads back as 0.0
    assert "beta = " in p1.read_text() and ",absent," in p1.read_text()
    assert masked.beta[3] == masked.gamma[3] == 0.0
    assert masked.beta.tobytes() == store.road[(("R1", 0), 2)].beta.tobytes()
    assert masked.gamma.tobytes() == store.road[(("R1", 0), 2)].gamma.tobytes()

    d0 = store.dwell[(("R1", 0), "S1")]
    d1 = loaded.dwell[(("R1", 0), "S1")]
    assert np.array_equal(d0.samples, d1.samples)
    assert d0.pooled == d1.pooled
    x0 = store.intersections[(("R1", 0), "X1")]
    x1 = loaded.intersections[(("R1", 0), "X1")]
    assert (x0.mu_s, x0.sigma_s, x0.n, x0.excluded_zero_fraction) == \
        (x1.mu_s, x1.sigma_s, x1.n, x1.excluded_zero_fraction)


def test_store_for_route_filters():
    store = build_store()
    road, dwell, inters = store.for_route(("R1", 0))
    assert set(road) == {1, 2}
    assert set(dwell) == {"S1"}
    assert set(inters) == {"X1"}
    road_b, _, _ = store.for_route(("R9", 1))
    assert road_b == {}


def per_token_floats(value, low=-math.inf):
    """The model store's list of floats parsed one ``finite_float`` at a time."""
    values = np.array([finite_float(t) for t in value.split(",")])
    if (values < low).any():
        raise ValueError(f"{float(values[values < low][0])!r} is outside [{low:g}, inf]")
    return values


def parsed(parse, *args):
    try:
        return parse(*args).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("value", ["1,2.5,-0.0,1e-320", "nan", "1,inf", "-inf,2", "2,1e400,nan",
                                   "1,,2", "", "1_000,2", "\u0661,2.5", "-5,1", " 1, 2 ", "0x1f",
                                   "\x0b1,2\x0c", "\x1c1,2", "1,2\x1f", "\x851,2", "1,\xa02",
                                   "\u20281,2", "1,2\u3000", "1\x00,2", "inf,1_0"])
@pytest.mark.parametrize("low", [-math.inf, 0.0])
def test_floats_parse_as_the_per_token_parser(value, low):
    """One array conversion per line gives the values, and the messages,
    of one ``finite_float`` per token: non-finite, empty and malformed
    tokens, underscores, non-ASCII digits, padding that float() takes or
    refuses, NUL, and a negative dwell sample."""
    assert parsed(_floats, value, low) == parsed(per_token_floats, value, low)
