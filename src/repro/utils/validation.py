"""Small argument-validation helpers shared across modules."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def check_positive_int(value, name: str) -> int:
    """Return ``value`` as an int, raising ``ValueError`` unless it is >= 1."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def integers(values, name: str, error: type[ReproError]) -> np.ndarray:
    """``values`` as an array of its own integer dtype; any other raises.

    Only integers are state indices, site ids or counts.  An int64 cast
    would silently truncate a float (``0.9`` becomes state 0) and accept
    a bool or object array, so those are refused — an integer-valued
    float included.  The test reads the dtype only: O(1).  An empty
    array holds nothing to truncate, so it passes whatever its dtype
    (NumPy reads ``[]`` as float64).
    """
    array = np.asarray(values)
    if array.dtype.kind not in "iu" and array.size:
        raise error(f"{name} must hold integers, got dtype {array.dtype}")
    return array


def integer_array(values, name: str, error: type[ReproError]) -> np.ndarray:
    """:func:`integers`, widened to int64 (no copy for an int64 input)."""
    return integers(values, name, error).astype(np.int64, copy=False)


def check_fraction(value, name: str, *, inclusive: bool = False) -> float:
    """Validate that ``value`` lies in (0, 1), or [0, 1] if ``inclusive``."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    elif not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_probability_vector(values, name: str, *, atol: float = 1e-8) -> np.ndarray:
    """Validate a 1-D nonnegative vector summing to one.

    Returns the values as a float64 array.  Raises ``ReproError`` subclasses'
    base ``ValueError`` style errors for malformed input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    if not np.isclose(total, 1.0, atol=atol):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return arr
