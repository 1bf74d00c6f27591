import math
import time

import numpy as np
import pytest

from fragilis.errors import InputError
from fragilis.systems import (
    CompositionNode,
    Cutoffs,
    FragilityProfile,
    SystemGraph,
    classify_quadrant,
    system_threshold,
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
    started = time.perf_counter()
    with pytest.raises(InputError, match=r"referenced more than once: \['a'\]"):  # before 'b'
        graph_of({"a": 1.0, "b": 1.0}, CompositionNode("series", ("a",) * 200_000))
    assert time.perf_counter() - started < 5.0
