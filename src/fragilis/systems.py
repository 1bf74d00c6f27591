"""Fragility classification and composition across components.

A FragilityProfile places one thing on two axes: how big a stressor it takes
to break it (threshold) and how easily it is restored once broken
(recoverability). Components compose into a SystemGraph whose series nodes
inherit the weakest child's threshold; redundant nodes take the strongest
child's, an extension beyond the plain weakest-component rule and flagged as
such in reports.

The time-degradation model is an illustrative toy: a geometric decay of the
threshold standing in for cumulative hidden wear; no claim is made that real
systems decay geometrically.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import InputError, parse_json

QUADRANT_DESCRIPTIONS = {
    "Q1": "high threshold, high recoverability (fungi-like: hard to break, easy to restore)",
    "Q2": "high threshold, low recoverability (diamond-like: hard to break, broken for good)",
    "Q3": "low threshold, high recoverability (fuse-like: breaks easily, swapped easily)",
    "Q4": "low threshold, low recoverability (egg-like: breaks easily, stays broken)",
}

BOUNDARY_NOTE = "values exactly at a cutoff classify as high"
REDUNDANT_NOTE = (
    "redundant nodes take the max of child thresholds, an extension beyond the "
    "weakest-component rule for systems without redundancy"
)


@dataclass(frozen=True, slots=True)
class FragilityProfile:
    """Threshold (abstract stressor units, finite, > 0); recoverability in [0, 1]."""

    threshold: float
    recoverability: float

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise InputError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0.0 <= self.recoverability <= 1.0:
            raise InputError(
                f"recoverability must be in [0, 1], got {self.recoverability}"
            )


@dataclass(frozen=True, slots=True)
class Cutoffs:
    """Axis cutoffs separating low from high; at-cutoff values count as high."""

    threshold: float
    recoverability: float

    def __post_init__(self) -> None:
        if not (0 < self.threshold < math.inf and 0 < self.recoverability < math.inf):
            raise InputError("cutoffs must be positive and finite")


_QUADRANTS = {("high", "high"): "Q1", ("high", "low"): "Q2",
              ("low", "high"): "Q3", ("low", "low"): "Q4"}


def _labels(profile: FragilityProfile, cutoffs: Cutoffs) -> dict[str, str]:
    """"high" or "low" on the threshold and recoverability axes; a value at
    its cutoff counts as high."""
    return {axis: "high" if getattr(profile, axis) >= getattr(cutoffs, axis) else "low"
            for axis in ("threshold", "recoverability")}


def classify_quadrant(profile: FragilityProfile, cutoffs: Cutoffs) -> str:
    """Quadrant of the fragility map: Q1 high/high, Q2 high-threshold/low-
    recoverability, Q3 low/high, Q4 low/low."""
    return _QUADRANTS[tuple(_labels(profile, cutoffs).values())]


def classification_report(profile: FragilityProfile, cutoffs: Cutoffs) -> dict:
    """Quadrant plus axis labels and embedded convention notes, JSON-ready."""
    quadrant = classify_quadrant(profile, cutoffs)
    return {
        "quadrant": quadrant,
        "description": QUADRANT_DESCRIPTIONS[quadrant],
        "labels": _labels(profile, cutoffs),
        "threshold": profile.threshold,
        "recoverability": profile.recoverability,
        "cutoffs": {"threshold": cutoffs.threshold, "recoverability": cutoffs.recoverability},
        "notes": [BOUNDARY_NOTE],
    }


@dataclass(frozen=True, slots=True)
class CompositionNode:
    """Interior node of the composition tree.

    kind "series" breaks when its weakest child breaks; kind "redundant"
    survives until its strongest child breaks. Children are component ids or
    nested nodes.
    """

    kind: str
    children: tuple[Union[str, "CompositionNode"], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("series", "redundant"):
            raise InputError(f"node kind must be series or redundant, got {self.kind!r}")
        if not self.children:
            raise InputError("composition node needs at least one child")


def _walk(node: Union[str, CompositionNode]) -> Iterator[Union[str, CompositionNode]]:
    """node and every node under it, in depth-first order."""
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)


@dataclass(frozen=True, slots=True)
class SystemGraph:
    """Components plus the composition tree referencing each exactly once."""

    components: dict[str, FragilityProfile]
    root: CompositionNode

    def __post_init__(self) -> None:
        if not self.components:
            raise InputError("system graph needs at least one component")
        counts = Counter(node for node in _walk(self.root) if isinstance(node, str))
        if unknown := [c for c in counts if c not in self.components]:  # in depth-first order
            raise InputError(f"composition tree references unknown component {unknown[0]!r}")
        if dupes := sorted(c for c, n in counts.items() if n > 1):
            raise InputError(f"components referenced more than once: {dupes}")
        if missing := self.components.keys() - counts.keys():
            raise InputError(f"components missing from the tree: {sorted(missing)}")

    def has_redundancy(self) -> bool:
        return any(getattr(node, "kind", "") == "redundant" for node in _walk(self.root))


def system_threshold(graph: SystemGraph) -> float:
    """Fragility threshold of the composed system: min over series children,
    max over redundant children, recursively."""

    def walk(node: Union[str, CompositionNode]) -> float:
        if isinstance(node, str):
            return graph.components[node].threshold
        values = [walk(c) for c in node.children]
        return min(values) if node.kind == "series" else max(values)

    return walk(graph.root)


def system_threshold_report(graph: SystemGraph) -> dict:
    report = {"system_threshold": system_threshold(graph), "notes": []}
    if graph.has_redundancy():
        report["notes"].append(REDUNDANT_NOTE)
    return report


@dataclass(frozen=True, slots=True)
class DegradationPath:
    """Threshold trajectory under geometric decay and the first break time
    against a constant stressor, None if it survives the horizon."""

    thresholds: tuple[float, ...]
    first_break: int | None


def degrade_threshold(
    tau0: float, rate: float, periods: int, stressor: float
) -> DegradationPath:
    """Toy cumulative-degradation model: tau(t) = tau0 * (1 - rate)**t.

    The system breaks at the first t where the stressor reaches the decayed
    threshold (stressor >= tau(t), matching the "ratio of tau or greater
    breaches" convention used for overrun thresholds).
    """
    if not tau0 > 0:
        raise InputError(f"initial threshold must be positive, got {tau0}")
    if not 0.0 <= rate < 1.0:
        raise InputError(f"decay rate must be in [0, 1), got {rate}")
    if periods < 0:
        raise InputError(f"periods must be >= 0, got {periods}")
    taus = tuple(tau0 * (1.0 - rate) ** t for t in range(periods + 1))
    first = next((t for t, tau in enumerate(taus) if stressor >= tau), None)
    return DegradationPath(taus, first)


# ---------------------------------------------------------------------------
# JSON tree form


def _node_to_obj(node: Union[str, CompositionNode]):
    if isinstance(node, str):
        return node
    return {"kind": node.kind, "children": [_node_to_obj(c) for c in node.children]}


MAX_TREE_DEPTH = 100  # nesting levels a JSON composition tree may have


def _node_from_obj(obj, depth: int = 1) -> Union[str, CompositionNode]:
    if isinstance(obj, str):
        return obj
    if depth > MAX_TREE_DEPTH:
        raise InputError(f"composition tree is nested deeper than {MAX_TREE_DEPTH} levels")
    try:
        kind = obj["kind"]
        children = obj["children"]
    except (KeyError, TypeError):
        raise InputError(f"malformed composition node: {obj!r}") from None
    return CompositionNode(kind, tuple(_node_from_obj(c, depth + 1) for c in children))


def graph_to_json(graph: SystemGraph) -> str:
    doc = {
        "components": {
            cid: {"threshold": p.threshold, "recoverability": p.recoverability}
            for cid, p in graph.components.items()
        },
        "system": _node_to_obj(graph.root),
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def graph_from_json(text: str) -> SystemGraph:
    doc = parse_json(text, "system graph document")
    try:
        components = {
            cid: FragilityProfile(float(spec["threshold"]), float(spec["recoverability"]))
            for cid, spec in doc["components"].items()
        }
        root = _node_from_obj(doc["system"])
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed system graph document: {exc}") from None
    if isinstance(root, str):
        root = CompositionNode("series", (root,))
    return SystemGraph(components, root)
