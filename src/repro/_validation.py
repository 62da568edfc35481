"""Small shared validation helpers used across the package.

These keep argument checking terse and the error messages uniform.  All
checks raise :class:`ValueError` (or :class:`TypeError` for type problems)
with a message naming the offending parameter, which makes failures from
deep inside the simulator attributable to the user-facing call site.
"""

from __future__ import annotations

import math
from typing import Sequence


def require_positive(name: str, value: float) -> float:
    """Return *value* if it is a finite number > 0, else raise ValueError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_nonnegative(name: str, value: float) -> float:
    """Return *value* if it is a finite number >= 0, else raise ValueError."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def require_fraction(name: str, value: float) -> float:
    """Return *value* if it lies in the closed interval [0, 1]."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def require_positive_int(name: str, value: int) -> int:
    """Return *value* if it is an int > 0, else raise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def require_nonnegative_int(name: str, value: int) -> int:
    """Return *value* if it is an int >= 0, else raise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def require_nonempty(name: str, seq: Sequence) -> Sequence:
    """Return *seq* if it has at least one element, else raise ValueError."""
    if len(seq) == 0:
        raise ValueError(f"{name} must be non-empty")
    return seq
