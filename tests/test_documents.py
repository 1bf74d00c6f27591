"""Library-level fuzzing of every document reader.

Each test takes a valid document, replaces one field (or the whole document)
with an arbitrary JSON value, and checks that reading it, and using what was
read, lets no exception out but a FragilisError. Distribution documents also
have one number nudged, so that most of them are read and reach the stress code.
"""

import copy
import csv
import functools
import io
import json
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragilis.cashflow import appraise, load_model, model_from_dict
from fragilis.dists import dist_from_dict, load_dist
from fragilis.errors import FragilisError
from fragilis.refclass import CSV_COLUMNS, group_stats, read_records_csv, summarize
from fragilis.stress import StressConfig, run_stress, size_contingency

_FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)

# values at the edges of what floats and the readers accept; drawn half the time
_EDGES = st.sampled_from([
    0, -1, 10**400, -(10**400), 1e308, -1e308, 5e-324, 0.5, 1.5, 1e400, -1e400,
    float("nan"), "x", "", None, True, [], {},
])
JSON_VALUES = _EDGES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _fields(doc):
    """Strategy for doc with one field replaced by an arbitrary JSON value."""
    return st.builds(_replaced, st.just(doc), st.sampled_from(list(_paths(doc))), JSON_VALUES)


# moves from a number to one nearby: a small relative step, the next float either way, the sign flip
_NEAR = st.floats(-0.05, 0.05).map(lambda e: lambda v: v * (1.0 + e)) | st.sampled_from(
    [lambda v: math.nextafter(v, math.inf), lambda v: math.nextafter(v, -math.inf), operator.neg])


def _nudged(doc):
    """Strategy for doc with one number moved to a nearby value, so that most
    examples stay valid and reach the code that uses what was read."""
    def at(path):
        return functools.reduce(operator.getitem, path, doc)

    numbers = [path for path in _paths(doc) if isinstance(at(path), float)]
    return st.builds(lambda path, move: _replaced(doc, path, move(at(path))),
                     st.sampled_from(numbers), _NEAR)


def _only_fragilis_errors(fn, *args):
    try:
        return fn(*args)
    except FragilisError:
        return None


MODEL = {
    "discount_rate": 0.05,
    "base_year": 2000,
    "capex": [{"t": 0, "amount": 100.0}, {"t": 1, "amount": 50.0}],
    "om": [{"t": 1, "amount": 5.0}],
    "benefits": [{"t": 1, "amount": 60.0}, {"t": 2, "amount": 70.0}, {"t": 3, "amount": 80.0}],
}
DIST = {
    "anchors": [{"p": 0.5, "x": 1.27}, {"p": 0.8, "x": 1.99}],
    "floor_x": 0.4,
    "tail": {"shape": 0.3, "scale": 0.5},
}
CALIBRATED_DIST = {**DIST, "tail": {"calibrate_mean": 1.6}}
SHORTFALL_DIST = {"anchors": [{"p": 0.5, "x": 0.11}], "floor_x": 0.001,
                  "tail": {"shape": -0.25, "scale": 0.04}}
_DISTS = (DIST, CALIBRATED_DIST, SHORTFALL_DIST)


@_FUZZ
@given(_fields(MODEL))
def test_model_documents_raise_only_fragilis_errors(doc):
    model = _only_fragilis_errors(model_from_dict, doc)
    if model is not None:
        _only_fragilis_errors(appraise, model)


@_FUZZ
@given(_fields(MODEL))
def test_model_files_raise_only_fragilis_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _only_fragilis_errors(load_model, path)


@_FUZZ
@given(st.one_of(*map(_fields, _DISTS), *map(_nudged, _DISTS * 3)))  # 58 of 100 read cleanly
def test_dist_documents_raise_only_fragilis_errors(doc):
    dist = _only_fragilis_errors(dist_from_dict, doc)
    if dist is not None:
        model, base, short = model_from_dict(MODEL), dist_from_dict(DIST), dist_from_dict(SHORTFALL_DIST)
        _only_fragilis_errors(dist.mean)
        _only_fragilis_errors(size_contingency, model, dist, 0.8)
        # full-shape runs with the distribution as the capex, the schedule and the shortfall draw
        for roles in ((dist, base, 8.6, short), (base, dist, 8.6, short), (base, base, 8.6, dist)):
            config = _only_fragilis_errors(StressConfig, 50, 3, *roles)
            if config is not None:
                _only_fragilis_errors(run_stress, model, config)


@_FUZZ
@given(_fields(CALIBRATED_DIST))
def test_dist_files_raise_only_fragilis_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "dist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _only_fragilis_errors(load_dist, path)


@pytest.mark.parametrize("loader", [load_model, load_dist])
def test_deeply_nested_json_file_is_input_error(tmp_path, loader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(FragilisError, match="not valid JSON"):
        loader(path)


_ROWS = [
    list(CSV_COLUMNS),
    ["A", "Dam A", "X", "Asia", "hydro", "1975", "100", "150", "60", "80", "", ""],
    ["B", "Dam B", "Y", "Europe", "hydro", "1988", "200", "210", "48", "50", "90", "80"],
    ["C", "Road C", "Z", "Africa", "road", "2001", "50", "95", "30", "45", "", ""],
]
_CELLS = [(r, c) for r in range(len(_ROWS)) for c in range(len(CSV_COLUMNS))]


@_FUZZ
@given(st.sampled_from(_CELLS), JSON_VALUES.map(json.dumps) | st.text(max_size=8))
def test_records_csv_raises_only_fragilis_errors(cell, text):
    rows = [list(r) for r in _ROWS]
    rows[cell[0]][cell[1]] = text
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _only_fragilis_errors(read_records_csv, io.StringIO(buf.getvalue()), "", True)
    lenient = _only_fragilis_errors(read_records_csv, io.StringIO(buf.getvalue()), "", False)
    if cell[0] > 0:  # a bad data row is skipped, never fatal
        assert lenient is not None and lenient.n_accepted + lenient.n_skipped >= 2
    if lenient is not None:
        for metric in ("cost", "schedule", "benefit"):
            _only_fragilis_errors(summarize, lenient.reference_class, metric)
            _only_fragilis_errors(group_stats, lenient.reference_class, "decade", metric)
