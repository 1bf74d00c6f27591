"""Counter-based uniform random numbers for reproducible trials.

Every variate is a pure function of (seed, trial_index, variable_tag), so a
batch of trials can be evaluated in any order and in any chunking, and still
produce bit-identical streams.  The generator is a SplitMix64-style finalizer
applied to a per-(seed, tag) affine counter walk; the odd gamma increment
keeps the counter sequence equidistributed and the double finalizer gives
full avalanche between adjacent trial indices.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment, odd


def _mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer on a 64-bit integer (pure Python ints)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _stream_base(seed: int, tag: int) -> int:
    """Derive the per-(seed, tag) stream origin. Keyed twice so that streams
    for different tags under the same seed are unrelated."""
    return _mix64(_mix64(seed & _MASK) ^ _mix64((tag & _MASK) + _GAMMA))


def uniforms(seed: int, tag: int, start: int, stop: int) -> np.ndarray:
    """Uniform(0, 1) variates for trial indices [start, stop).

    Open interval on both ends: values are ((z >> 11) + 0.5) * 2**-53, so
    they are always strictly inside (0, 1) and safe to feed to an inverse CDF.
    """
    import numpy as np

    if stop < start:
        raise ValueError("stop must be >= start")
    base = _stream_base(seed, tag)
    idx = np.arange(start, stop, dtype=np.uint64)
    z = np.uint64(base) + idx * np.uint64(_GAMMA)  # wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def uniform_at(seed: int, tag: int, index: int) -> float:
    """Single variate; exactly equal to uniforms(seed, tag, index, index+1)[0]."""
    z = _mix64((_stream_base(seed, tag) + index * _GAMMA) & _MASK)
    return ((z >> 11) + 0.5) * 2.0**-53
