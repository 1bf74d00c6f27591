"""Exception taxonomy shared by the library and the CLI, and its checks.

The CLI maps InputError to exit code 2 (validation), and ComputeError and
MemoryError to exit code 3 (computation); everything else is a bug. finite
is the overflow check on every scalar figure (run_stress checks its numpy
sum itself) and checked_fsum on every sum over a sample; sorted_quantile
reads every sample quantile from a sorted sample; load_json reads every JSON
document: each model, distribution and report artifact file.
checked makes a named tuple validate every instance it builds, document turns
a result named tuple into its JSON document, and Frozen is the base of the
immutable slotted classes (AppraisalModel, ReferenceClass) that equal, hash,
repr and pickle by their _fields alone.
"""

from __future__ import annotations

import functools
import json
import math
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Sequence


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


def checked_fsum(terms) -> float:
    """math.fsum of finite values, with a sum or square past the float range
    (an OverflowError, an infinite term, or inf - inf) as a ComputeError."""
    return finite("a sum or square of the sample overflows the float range",
                  lambda: math.fsum(terms))


def sorted_quantile(s: Sequence[float], ps: Sequence[float]) -> tuple[float, ...]:
    """Type 7 quantiles of the sorted, non-empty array s at checked levels ps: with
    h = (n-1)p, each is s[h] where h is a whole number, and otherwise
    s[floor(h)] + (h - floor(h)) * (s[floor(h)+1] - s[floor(h)]), written out so
    sort-based brute-force oracles can match bit for bit. So p = 0 and p = 1 give the
    minimum and maximum exactly. Where the difference of the two order statistics
    overflows (-1e308 to 1e308, say), the same point is (1 - f) * a + f * b."""
    out = []
    for p in ps:
        h = (len(s) - 1) * p
        lo = math.floor(h)
        if lo == h:
            out.append(float(s[lo]))
        else:
            a, b, f = float(s[lo]), float(s[lo + 1]), h - lo
            out.append(a + f * (b - a) if b - a < math.inf else (1.0 - f) * a + f * b)
    return tuple(out)


def checked(cls):
    """Class decorator: every way of building the named tuple cls (the constructor, _make,
    _replace, unpickling) runs its _check method, which raises on an invalid value."""
    new = cls.__new__

    @functools.wraps(new)  # the constructor keeps its signature
    def checked_new(cls, *args, **kwargs):
        self = new(cls, *args, **kwargs)
        self._check()
        return self

    # namedtuple's own _make skips __new__, and _replace builds through _make
    cls.__new__, cls._make = staticmethod(checked_new), classmethod(lambda c, it: c(*it))
    return cls


def document(result) -> dict:
    """The named tuple result as a JSON document: its fields by name, each map's keys as
    str(key). JSON keys are strings, and str of a float round-trips (0.1 stays "0.1")."""
    return {name: {str(k): v for k, v in value.items()} if isinstance(value, dict) else value
            for name, value in result._asdict().items()}


class Frozen:
    """Base of an immutable slotted class that equals (its own type only), hashes, reprs
    and pickles by its _fields (two or more of its slots) alone: other slots, derived from
    them, take no part. A subclass sets its slots with object.__setattr__. Unpickling and
    copying rebuild through the constructor, so its checks run again."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._values)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


def load_json(path: str | Path, what: str) -> Any:
    """The JSON document in the file at path. Bad JSON or UTF-8, nesting too
    deep, or the NaN, Infinity and -Infinity that RFC 8259 has no place for
    raise InputError naming the document as `what` and the path."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{what} {path} is not valid JSON: {exc}") from None
