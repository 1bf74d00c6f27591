"""Library-level fuzzing of every document reader.

Each test takes a valid document, replaces one field (or the whole document)
with an arbitrary JSON value, and checks that reading it, and using what was
read, lets no exception out but a FragilisError.
"""

import copy
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragilis.cashflow import appraise, load_model, model_from_dict
from fragilis.dists import dist_from_dict, load_dist
from fragilis.errors import FragilisError
from fragilis.refclass import CSV_COLUMNS, group_stats, read_records_csv, summarize
from fragilis.stress import StressConfig, run_stress, size_contingency
from fragilis.systems import graph_from_json, system_threshold, system_threshold_report

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
    "mean_target": 1.6,
}
CALIBRATED_DIST = {**DIST, "tail": {"calibrate_mean": 1.6}}
SHORTFALL_DIST = {"anchors": [{"p": 0.5, "x": 0.11}], "floor_x": 0.001,
                  "tail": {"shape": -0.25, "scale": 0.04}}
STRESS_CONFIG = {
    "n_trials": 50,
    "seed": 3,
    "capex_dist": DIST,
    "schedule_dist": CALIBRATED_DIST,
    "est_duration_years": 8.6,
    "shortfall": SHORTFALL_DIST,
}
GRAPH = {
    "components": {"a": {"threshold": 1.2, "recoverability": 0.5},
                   "b": {"threshold": 2.0, "recoverability": 0.1},
                   "c": {"threshold": 1.5, "recoverability": 0.9}},
    "system": {"kind": "series", "children": ["a", {"kind": "redundant", "children": ["b", "c"]}]},
}


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
@given(_fields(DIST) | _fields(CALIBRATED_DIST))
def test_dist_documents_raise_only_fragilis_errors(doc):
    dist = _only_fragilis_errors(dist_from_dict, doc)
    if dist is not None:
        _only_fragilis_errors(dist.mean)
        _only_fragilis_errors(size_contingency, model_from_dict(MODEL), dist, 0.8)


@_FUZZ
@given(_fields(CALIBRATED_DIST))
def test_dist_files_raise_only_fragilis_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "dist.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _only_fragilis_errors(load_dist, path)


@_FUZZ
@given(_fields(STRESS_CONFIG))
def test_stress_config_documents_raise_only_fragilis_errors(doc):
    config = _only_fragilis_errors(StressConfig.from_dict, doc)
    if config is not None and config.n_trials <= 1000:  # larger counts are valid, only slow
        _only_fragilis_errors(run_stress, model_from_dict(MODEL), config)


@pytest.mark.parametrize("doc", [[1], {**STRESS_CONFIG, "n_trials": float("inf")}])
def test_stress_config_malformed_documents(doc):
    with pytest.raises(FragilisError, match="malformed stress config document"):
        StressConfig.from_dict(doc)


@_FUZZ
@given(_fields(GRAPH))
def test_graph_documents_raise_only_fragilis_errors(doc):
    graph = _only_fragilis_errors(graph_from_json, json.dumps(doc))
    if graph is not None:
        system_threshold(graph)
        system_threshold_report(graph)


@pytest.mark.parametrize("depth", [50, 150, 5000])
def test_deeply_nested_graph_is_input_error(depth):
    node = '{"kind": "series", "children": [' * depth + '"a"' + "]}" * depth
    text = '{"components": {"a": {"threshold": 1.0, "recoverability": 0.5}}, "system": %s}' % node
    if depth <= 100:
        assert system_threshold(graph_from_json(text)) == 1.0
    else:
        with pytest.raises(FragilisError, match="deeper than|not valid JSON"):
            graph_from_json(text)


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
