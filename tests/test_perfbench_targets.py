"""Every function the benchmark's layer probes wrap still exists.

perfbench/layers.py names its probe targets as "module:qualname" strings and
reports a missing one as absent rather than failing, so a rename or a deletion
in the package would silently drop a layer from every benchmark run. This test
reads the targets from that file's source and resolves each one.
"""

import ast
import functools
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _probe_targets() -> list[str]:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Probe" and node.args and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("fragilis")]


def test_every_perfbench_probe_target_exists():
    targets = _probe_targets()
    assert len(targets) >= 20  # the parse found the probe table
    missing = []
    for target in targets:
        module, qualname = target.split(":")
        try:
            functools.reduce(getattr, qualname.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(target)
    assert missing == []
