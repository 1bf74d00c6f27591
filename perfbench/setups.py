"""Workload set-up: import fragilis and load the inputs through its loaders.

The probe (probe.py) times these functions in fresh interpreters, so this
module imports nothing but the standard library at top level; fragilis, and
numpy through it, are imported inside the timed functions.
"""

from __future__ import annotations

from pathlib import Path


def setup_stress_mc(work: Path):
    from fragilis import datasets

    return (
        datasets.load_stylized_model(),
        datasets.resolve_dist("big-dam"),
        datasets.resolve_dist("big-dam-schedule"),
    )


def setup_refclass_analysis(work: Path):
    # The records CSV is read inside every timed pass; set-up is the import.
    import fragilis.refclass
    import fragilis.stats

    return fragilis.refclass, fragilis.stats


def setup_cli_pipeline(work: Path):
    # Each command is a fresh interpreter; its set-up is the import.
    import fragilis.cli

    return fragilis.cli


SETUPS = {
    "stress-mc": setup_stress_mc,
    "refclass-analysis": setup_refclass_analysis,
    "cli-pipeline": setup_cli_pipeline,
}
