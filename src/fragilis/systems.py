"""Fragility classification and composition across components.

A FragilityProfile places one thing on two axes: how big a stressor it takes
to break it (threshold) and how easily it is restored once broken
(recoverability). Components compose into a SystemGraph whose series nodes
inherit the weakest child's threshold; redundant nodes take the strongest
child's, an extension beyond the plain weakest-component rule.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, NamedTuple, Union

from .errors import InputError, checked


@checked
class FragilityProfile(NamedTuple):
    """Threshold (abstract stressor units, finite, > 0); recoverability in [0, 1]."""

    threshold: float
    recoverability: float

    def _check(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise InputError(f"threshold must be positive and finite, got {self.threshold}")
        if not 0.0 <= self.recoverability <= 1.0:
            raise InputError(
                f"recoverability must be in [0, 1], got {self.recoverability}"
            )


@checked
class Cutoffs(NamedTuple):
    """Axis cutoffs separating low from high; at-cutoff values count as high."""

    threshold: float
    recoverability: float

    def _check(self) -> None:
        if not (0 < self.threshold < math.inf and 0 < self.recoverability < math.inf):
            raise InputError("cutoffs must be positive and finite")


_QUADRANTS = {("high", "high"): "Q1", ("high", "low"): "Q2",
              ("low", "high"): "Q3", ("low", "low"): "Q4"}


def classify_quadrant(profile: FragilityProfile, cutoffs: Cutoffs) -> str:
    """Quadrant of the fragility map: Q1 high/high, Q2 high-threshold/low-
    recoverability, Q3 low/high, Q4 low/low. A value at its cutoff counts as
    high."""
    return _QUADRANTS[tuple("high" if getattr(profile, axis) >= getattr(cutoffs, axis) else "low"
                            for axis in ("threshold", "recoverability"))]


@checked
class CompositionNode(NamedTuple):
    """Interior node of the composition tree.

    kind "series" breaks when its weakest child breaks; kind "redundant"
    survives until its strongest child breaks. Children are component ids or
    nested nodes.
    """

    kind: str
    children: tuple[Union[str, "CompositionNode"], ...]

    def _check(self) -> None:
        if self.kind not in ("series", "redundant"):
            raise InputError(f"node kind must be series or redundant, got {self.kind!r}")
        if not self.children:
            raise InputError("composition node needs at least one child")


def _walk(node: Union[str, CompositionNode]) -> Iterator[Union[str, CompositionNode]]:
    """node and every node under it, in depth-first order."""
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)


@checked
class SystemGraph(NamedTuple):
    """Components plus the composition tree referencing each exactly once."""

    components: dict[str, FragilityProfile]
    root: CompositionNode

    def _check(self) -> None:
        if not self.components:
            raise InputError("system graph needs at least one component")
        counts = Counter(node for node in _walk(self.root) if isinstance(node, str))
        if unknown := [c for c in counts if c not in self.components]:  # in depth-first order
            raise InputError(f"composition tree references unknown component {unknown[0]!r}")
        if dupes := sorted(c for c, n in counts.items() if n > 1):
            raise InputError(f"components referenced more than once: {dupes}")
        if missing := self.components.keys() - counts.keys():
            raise InputError(f"components missing from the tree: {sorted(missing)}")


def system_threshold(graph: SystemGraph) -> float:
    """Fragility threshold of the composed system: min over series children,
    max over redundant children, recursively."""

    def walk(node: Union[str, CompositionNode]) -> float:
        if isinstance(node, str):
            return graph.components[node].threshold
        values = [walk(c) for c in node.children]
        return min(values) if node.kind == "series" else max(values)

    return walk(graph.root)
