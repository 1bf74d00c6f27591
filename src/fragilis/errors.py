"""Exception taxonomy shared by the library and the CLI, and its two checks.

The CLI maps InputError to exit code 2 (validation) and ComputeError to
exit code 3 (computation); everything else is a bug. finite is the overflow
check on every scalar figure (run_stress checks its numpy sum itself), and
parse_json reads every JSON document: system graphs, and through load_json
every model, distribution and report artifact file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any, Callable


class FragilisError(Exception):
    """Base class for all errors raised by this package."""


class InputError(FragilisError, ValueError):
    """Invalid argument, malformed file, or violated precondition."""


class ComputeError(FragilisError, RuntimeError):
    """Inputs were valid but the requested computation is undefined."""


class CalibrationError(ComputeError):
    """A distribution tail cannot be calibrated to the requested mean."""


class DegenerateSampleError(ComputeError):
    """A statistic is undefined because the sample carries no variance."""


def finite(message: str, compute: Callable[[], float]) -> float:
    """compute(), or ComputeError(message) when it leaves the float range: an
    OverflowError, a ZeroDivisionError, the ValueError math.fsum raises for
    inf - inf, or an inf or NaN result. An InputError passes through."""
    try:
        value = compute()
    except InputError:
        raise
    except (OverflowError, ZeroDivisionError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ComputeError(message)
    return value


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


def parse_json(source: str | IO[str], what: str) -> Any:
    """The JSON document in source, a text or an open text file. Bad JSON or
    UTF-8, nesting too deep, or the NaN, Infinity and -Infinity that RFC 8259
    has no place for raise InputError naming the document as `what`."""
    try:
        return json.loads(source if isinstance(source, str) else source.read(),
                          parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from None


def load_json(path: str | Path, what: str) -> Any:
    """parse_json of the file at path, naming it as `what` and the path."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh, f"{what} {path}")
