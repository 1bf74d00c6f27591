import json
import math
import time

import numpy as np
import pytest

from fragilis.errors import InputError
from fragilis.systems import (
    BOUNDARY_NOTE,
    REDUNDANT_NOTE,
    CompositionNode,
    Cutoffs,
    FragilityProfile,
    SystemGraph,
    classification_report,
    classify_quadrant,
    degrade_threshold,
    graph_from_json,
    graph_to_json,
    system_threshold,
    system_threshold_report,
)

CUTS = Cutoffs(threshold=1.0, recoverability=0.5)


def graph_of(thresholds: dict[str, float], root: CompositionNode) -> SystemGraph:
    return SystemGraph(
        components={k: FragilityProfile(v, 0.5) for k, v in thresholds.items()},
        root=root,
    )


# ---------------------------------------------------------------------------
# quadrants


def test_quadrant_egg():
    assert classify_quadrant(FragilityProfile(0.2, 0.1), CUTS) == "Q4"


def test_quadrant_diamond():
    assert classify_quadrant(FragilityProfile(5.0, 0.1), CUTS) == "Q2"


def test_quadrant_fuse_and_fungi():
    assert classify_quadrant(FragilityProfile(0.2, 0.9), CUTS) == "Q3"
    assert classify_quadrant(FragilityProfile(5.0, 0.9), CUTS) == "Q1"


def test_quadrant_boundary_counts_high():
    assert classify_quadrant(FragilityProfile(1.0, 0.1), CUTS) == "Q2"
    assert classify_quadrant(FragilityProfile(1.0, 0.5), CUTS) == "Q1"


def test_quadrant_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(2)
    for _ in range(200):
        tau = float(rng.uniform(0.1, 3.0))
        rec = float(rng.uniform(0.0, 1.0))
        scale = float(rng.uniform(0.5, 4.0))
        before = classify_quadrant(
            FragilityProfile(tau, rec), Cutoffs(1.0, 0.5)
        )
        after = classify_quadrant(
            FragilityProfile(tau * scale, rec), Cutoffs(1.0 * scale, 0.5)
        )
        assert before == after


def test_classification_report_embeds_notes():
    report = classification_report(FragilityProfile(5.0, 0.1), CUTS)
    assert report["quadrant"] == "Q2"
    assert report["labels"] == {"threshold": "high", "recoverability": "low"}
    assert BOUNDARY_NOTE in report["notes"]


def test_profile_validation():
    with pytest.raises(InputError):
        FragilityProfile(0.0, 0.5)
    with pytest.raises(InputError):
        FragilityProfile(1.0, 1.5)


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_profile_and_cutoffs_need_positive_finite_values(value):
    with pytest.raises(InputError, match="positive and finite"):
        FragilityProfile(value, 0.5)
    for cutoffs in ((value, 0.5), (1.0, value)):
        with pytest.raises(InputError, match="positive and finite"):
            Cutoffs(*cutoffs)


# ---------------------------------------------------------------------------
# system threshold


def test_series_takes_weakest():
    g = graph_of(
        {"a": 1.4, "b": 1.1, "c": 2.0},
        CompositionNode("series", ("a", "b", "c")),
    )
    assert system_threshold(g) == 1.1


def test_single_component():
    g = graph_of({"only": 2.0}, CompositionNode("series", ("only",)))
    assert system_threshold(g) == 2.0


def test_nested_redundant_series():
    g = graph_of(
        {"a": 1.0, "b": 3.0, "c": 2.0},
        CompositionNode("series", (CompositionNode("redundant", ("a", "b")), "c")),
    )
    assert system_threshold(g) == 2.0
    report = system_threshold_report(g)
    assert report["system_threshold"] == 2.0
    assert REDUNDANT_NOTE in report["notes"]


def test_series_report_has_no_redundancy_note():
    g = graph_of({"a": 1.0}, CompositionNode("series", ("a",)))
    assert system_threshold_report(g)["notes"] == []


def test_adding_series_component_never_raises_threshold():
    rng = np.random.default_rng(6)
    for _ in range(100):
        taus = {f"c{i}": float(rng.uniform(0.2, 4.0)) for i in range(int(rng.integers(1, 6)))}
        base = graph_of(dict(taus), CompositionNode("series", tuple(taus)))
        extended_taus = dict(taus, extra=float(rng.uniform(0.2, 4.0)))
        extended = graph_of(extended_taus, CompositionNode("series", tuple(extended_taus)))
        assert system_threshold(extended) <= system_threshold(base)
        assert system_threshold(base) == min(taus.values())


def test_graph_validation():
    with pytest.raises(InputError, match="unknown component"):
        graph_of({"a": 1.0}, CompositionNode("series", ("a", "ghost")))
    with pytest.raises(InputError, match="more than once"):
        graph_of({"a": 1.0}, CompositionNode("series", ("a", "a")))
    with pytest.raises(InputError, match="unknown component 'ghost-1'"):  # the first, depth first
        graph_of({"a": 1.0}, CompositionNode(
            "series", (CompositionNode("redundant", ("a", "ghost-1")), "ghost-2")))
    with pytest.raises(InputError, match="missing"):
        SystemGraph(
            components={"a": FragilityProfile(1.0, 0.5), "b": FragilityProfile(2.0, 0.5)},
            root=CompositionNode("series", ("a",)),
        )
    with pytest.raises(InputError):
        CompositionNode("parallel-ish", ("a",))


def test_graph_references_are_counted_once():
    # a count per reference grew with the square of the references
    text = json.dumps({
        "components": {c: {"threshold": 1.0, "recoverability": 0.5} for c in "ab"},
        "system": {"kind": "series", "children": ["a"] * 200_000},
    })
    started = time.perf_counter()
    with pytest.raises(InputError, match=r"referenced more than once: \['a'\]"):  # before 'b'
        graph_from_json(text)
    assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# degradation


def test_degrade_no_decay_never_breaks():
    path = degrade_threshold(2.0, 0.0, 10, stressor=1.5)
    assert path.first_break is None
    assert all(t == 2.0 for t in path.thresholds)


def test_degrade_hand_iteration():
    path = degrade_threshold(2.0, 0.5, 5, stressor=0.6)
    assert path.thresholds[:3] == (2.0, 1.0, 0.5)
    assert path.first_break == 2


def test_degrade_stressor_at_initial_threshold_breaks_immediately():
    assert degrade_threshold(2.0, 0.1, 5, stressor=2.0).first_break == 0
    assert degrade_threshold(2.0, 0.1, 5, stressor=2.5).first_break == 0


def test_degrade_monotone_properties():
    rng = np.random.default_rng(8)
    for _ in range(100):
        tau0 = float(rng.uniform(0.5, 5.0))
        rate = float(rng.uniform(0.01, 0.9))
        sigma = float(rng.uniform(0.05, tau0))
        path = degrade_threshold(tau0, rate, 50, sigma)
        assert all(a >= b for a, b in zip(path.thresholds, path.thresholds[1:]))
        faster = degrade_threshold(tau0, min(rate * 1.5, 0.95), 50, sigma)
        bigger = degrade_threshold(tau0, rate, 50, min(sigma * 1.5, tau0))
        for other in (faster, bigger):
            if path.first_break is not None:
                assert other.first_break is not None
                assert other.first_break <= path.first_break


def test_degrade_validation():
    with pytest.raises(InputError):
        degrade_threshold(0.0, 0.1, 5, 1.0)
    with pytest.raises(InputError):
        degrade_threshold(1.0, 1.0, 5, 1.0)


# ---------------------------------------------------------------------------
# JSON form


def test_graph_json_round_trip():
    g = SystemGraph(
        components={
            "wall": FragilityProfile(2.5, 0.2),
            "gen-a": FragilityProfile(1.2, 0.8),
            "gen-b": FragilityProfile(1.5, 0.8),
        },
        root=CompositionNode("series", ("wall", CompositionNode("redundant", ("gen-a", "gen-b")))),
    )
    back = graph_from_json(graph_to_json(g))
    assert back == g
    assert system_threshold(back) == 1.5


def test_graph_json_malformed():
    with pytest.raises(InputError):
        graph_from_json('{"components": {}}')
    with pytest.raises(InputError):
        graph_from_json('{"components": {')  # truncated JSON
    with pytest.raises(InputError):
        graph_from_json('{"components": [], "system": "a"}')
    with pytest.raises(InputError):
        graph_from_json(
            '{"components": {"a": {"threshold": "x", "recoverability": 0.5}}, "system": "a"}'
        )


@pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_graph_json_rejects_non_finite_threshold(literal):
    text = '{"components": {"a": {"threshold": %s, "recoverability": 0.5}}, "system": "a"}'
    with pytest.raises(InputError):
        graph_from_json(text % literal)
    assert system_threshold(graph_from_json(text % "1e300")) == 1e300
