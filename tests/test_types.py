"""The package's value types: immutable, equal by their fields, named in repr.

Result records are named tuples, so they also equal, hash and iterate as plain
tuples of their fields. The checked ones (inputs with invariants) validate every
build. AppraisalModel and ReferenceClass are slotted classes that take their
equality, hash, repr, pickling and immutability from errors.Frozen, by their
fields alone, and no other module writes those methods again.
"""

import ast
import copy
import dataclasses
import importlib
import io
import pickle
from pathlib import Path

import pytest

import fragilis
from fragilis import stats
from fragilis.cashflow import (
    AppraisalModel,
    CashFlowStream,
    appraise,
    payoff_curve,
)
from fragilis.dists import GeneralizedParetoTail, build_quantile_dist
from fragilis.errors import InputError
from fragilis.refclass import (
    ProjectRecord,
    ReferenceClass,
    Region,
    read_records_csv,
    summarize,
)
from fragilis.stress import (
    StressConfig,
    run_stress,
    sensitivity_grid,
    size_contingency,
)
from fragilis.systems import CompositionNode, Cutoffs, FragilityProfile, SystemGraph

CSV = ("id,name,country,region,project_type,decision_year,est_cost,act_cost,est_months,"
       "act_months,est_benefit,act_benefit\n"
       "P1,One,X,Asia,dam,1970,100,150,60,80,,\n"
       "P2,Two,X,Europe,dam,1980,100,90,60,50,,\n"
       "P3,Bad,X,Mars,dam,1980,100,90,60,50,,\n")


def _model() -> AppraisalModel:
    return AppraisalModel(CashFlowStream(((0.0, 100.0), (1.0, 50.0))),
                          CashFlowStream.of((float(t), 30.0) for t in range(1, 9)), 0.05)


def _dist():
    return build_quantile_dist([(0.5, 1.2), (0.8, 1.6)], 0.5, tail_shape=0.2, tail_scale=0.3)


def _ref() -> ReferenceClass:
    return read_records_csv(io.StringIO(CSV), strict=False).reference_class


def _graph() -> SystemGraph:
    profile = FragilityProfile(2.0, 0.5)
    return SystemGraph({"a": profile, "b": profile}, CompositionNode("series", ("a", "b")))


# (a function called twice for two equal values, a field to try to assign)
_TYPES = {
    "CashFlowStream": (lambda: CashFlowStream(((0.0, 1.0),)), "entries"),
    "AppraisalModel": (_model, "discount_rate"),
    "PayoffCurve": (lambda: payoff_curve(_model()), "fragility_index"),
    "AppraisalResult": (lambda: appraise(_model()), "npv"),
    "GeneralizedParetoTail": (lambda: GeneralizedParetoTail(0.2, 0.3), "shape"),
    "QuantileDistribution": (_dist, "floor_x"),
    "ReferenceClass": (_ref, "label"),
    "IngestResult": (lambda: read_records_csv(io.StringIO(CSV), strict=False), "errors"),
    "SummaryStats": (lambda: summarize(_ref(), "cost", (1.4,)), "n"),
    "TestResult": (lambda: stats.mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]), "statistic"),
    "TrendResult": (lambda: stats.trend_f([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), "slope"),
    "StressConfig": (lambda: StressConfig(100, 1, _dist()), "seed"),
    "StressResult": (lambda: run_stress(_model(), StressConfig(100, 1, _dist())), "p_break"),
    "SensitivityGrid": (lambda: sensitivity_grid(_model(), [0.9, 1.0], [1.0, 1.2]), "bcr"),
    "ContingencyResult": (lambda: size_contingency(_model(), _dist(), 0.8), "proceed"),
    "FragilityProfile": (lambda: FragilityProfile(2.0, 0.5), "threshold"),
    "Cutoffs": (lambda: Cutoffs(1.0, 0.5), "recoverability"),
    "CompositionNode": (lambda: CompositionNode("series", ("a", "b")), "children"),
    "SystemGraph": (_graph, "root"),
}
_UNHASHABLE = {"SummaryStats", "StressResult", "SystemGraph"}  # a dict field, as before


@pytest.mark.parametrize("name", sorted(_TYPES))
def test_type_is_frozen_equal_by_fields_and_named_in_repr(name):
    build, field = _TYPES[name]
    a, b = build(), build()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1  # slotted: no instance dict
    assert a == b
    if name in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    back = pickle.loads(pickle.dumps(a))
    assert back == a and type(back) is type(a)


def test_only_the_two_records_perfbench_reads_stay_dataclasses():
    # perfbench reads RowError and DensityTrace with dataclasses.asdict; every other class
    # is a named tuple or a slotted class, so most commands never import dataclasses
    found = set()
    for path in Path(fragilis.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"fragilis.{path.stem}" if path.stem != "__init__"
                                         else "fragilis")
        found |= {name for name, obj in vars(module).items() if isinstance(obj, type)
                  and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)}
    assert found == {"RowError", "DensityTrace"}


def test_model_keeps_its_present_values_out_of_equality_and_repr():
    model = _model()
    assert repr(model) == (
        "AppraisalModel(capex=CashFlowStream(entries=((0.0, 100.0), (1.0, 50.0))), "
        f"benefits={model.benefits!r}, discount_rate=0.05, "
        "om_costs=CashFlowStream(entries=()), base_year=0)")
    assert model.pv_capex == 100.0 + 50.0 / 1.05
    assert model != AppraisalModel(model.capex, model.benefits, 0.06)
    assert model != AppraisalModel(model.capex, model.benefits, 0.05, base_year=1)
    back = pickle.loads(pickle.dumps(model))  # rebuilt through the constructor: same B, C, O
    assert (back.pv_benefits, back.pv_capex, back.pv_om) == (
        model.pv_benefits, model.pv_capex, model.pv_om)


def test_reference_class_len_counts_records():
    ref = _ref()
    assert len(ref) == len(ref.records) == 2
    assert ref == ReferenceClass(ref.records) and ref != ReferenceClass(ref.records, "other")
    assert ref != ReferenceClass(ref.records[:1])
    # the stored ratio columns stay out of repr, and each ratios() list is the caller's own
    assert repr(ref) == f"ReferenceClass(records={ref.records!r}, label='')"
    for metric, column in {"cost": [1.5, 0.9], "schedule": [80 / 60, 50 / 60]}.items():
        ref.ratios(metric).clear()
        assert ref.ratios(metric) == column


def test_only_errors_writes_the_value_class_methods():
    # errors.Frozen holds the one copy of the rule; a value class elsewhere inherits it
    methods = {"__eq__", "__hash__", "__reduce__", "__setattr__"}
    found = set()
    for path in Path(fragilis.__file__).parent.glob("*.py"):
        if path.stem != "errors":
            found |= {f"{path.stem}.{node.name}" for node in ast.walk(ast.parse(path.read_bytes()))
                      if isinstance(node, ast.FunctionDef) and node.name in methods}
    assert not found


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda value: pickle.loads(pickle.dumps(value))])
def test_copies_of_the_slotted_classes_equal_the_original(copier):
    ref, model = _ref(), _model()
    back = copier(ref)  # rebuilt through the constructor: same ratio columns
    assert back == ref and back._columns == ref._columns and back._columns is not ref._columns
    back = copier(model)  # rebuilt through the constructor: same B, C, O
    assert back == model and (back.pv_benefits, back.pv_capex, back.pv_om) == (
        model.pv_benefits, model.pv_capex, model.pv_om)


@pytest.mark.parametrize("cls, fields, message", [
    (ReferenceClass, {"records": (_ref().records[0],) * 2, "label": ""}, "duplicate record id"),
    (AppraisalModel, {**dict(zip(AppraisalModel._fields, _model()._values)),
                      "capex": CashFlowStream(((0.0, -1.0),))}, "capex amounts must be >= 0"),
])
def test_slotted_classes_check_every_unpickling(cls, fields, message):
    invalid = object.__new__(cls)  # unchecked, as a tampered pickle
    for name, value in fields.items():
        object.__setattr__(invalid, name, value)
    with pytest.raises(InputError, match=message):
        pickle.loads(pickle.dumps(invalid))


def test_result_records_are_tuples_of_their_fields():
    result = size_contingency(_model(), _dist(), 0.8)
    assert tuple(result) == (result.coverage, result.contingency, result.adjusted_bcr,
                             result.proceed)
    assert result._asdict() == dict(zip(result._fields, result))


_RECORD = ProjectRecord("P1", "One", "X", Region.ASIA, "dam", 1970, 100.0, 150.0, 60.0, 80.0)


@pytest.mark.parametrize("value, change, message", [
    (CashFlowStream(((0.0, 1.0),)), {"entries": ((-1.0, 1.0),)}, "cash flow time must be >= 0"),
    (GeneralizedParetoTail(0.2, 0.3), {"scale": 0.0}, "tail scale must be finite and > 0"),
    (_dist(), {"floor_x": 0.0}, "floor value must be positive"),
    (StressConfig(100, 1, _dist()), {"n_trials": 0}, r"n_trials must be in \[1, "),
    (StressConfig(100, 1, _dist()), {"est_duration_years": 2.0}, "applies only with a"),
    (FragilityProfile(2.0, 0.5), {"recoverability": 1.5}, r"recoverability must be in \[0, 1\]"),
    (Cutoffs(1.0, 0.5), {"threshold": 0.0}, "cutoffs must be positive and finite"),
    (CompositionNode("series", ("a",)), {"kind": "parallel"}, "node kind must be series"),
    (_graph(), {"root": CompositionNode("series", ("a",))}, "components missing from the tree"),
    (_RECORD, {"act_months": -1.0}, "act_months must be a positive number"),
])
def test_checked_types_check_every_build(value, change, message):
    fields = {**value._asdict(), **change}
    with pytest.raises(InputError, match=message):
        type(value)(**fields)
    with pytest.raises(InputError, match=message):
        type(value)._make(fields.values())
    with pytest.raises(InputError, match=message):
        value._replace(**change)
    invalid = tuple.__new__(type(value), fields.values())  # unchecked, as a tampered pickle
    with pytest.raises(InputError, match=message):
        pickle.loads(pickle.dumps(invalid))
