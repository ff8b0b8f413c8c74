"""The public surface's one argument policy: each converter returns a well-formed count, finite
number, unit-interval fraction or bool as a plain Python value, or raises PreconditionError."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import PreconditionError


def count(name: str, value, low: int | None = None) -> int:
    """``value`` as an int: an integer (numpy's too, bools not), at least ``low`` when given."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral) or low is not None and value < low:
        at_least = "" if low is None else f" of at least {low}"
        raise PreconditionError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def _float(value) -> float:
    """``float(value)``, or NaN for a value ``float`` cannot convert."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def finite(who: str, name: str, value, positive: bool = False, k: int | None = None) -> float:
    """``float(value)`` for the setting ``name`` that ``who`` reads: a finite number, and > 0
    if ``positive``; ``k`` is the iteration a schedule gave the value for."""
    v = _float(value)
    if not math.isfinite(v) or positive and v <= 0.0:
        at = "" if k is None else f" at iteration {k}"
        raise PreconditionError(f"{who} needs a finite{' positive' if positive else ''} {name}, got {value!r}{at}")
    return v


def fraction(name: str, value, interval: str = "(0, 1)") -> float:
    """``float(value)`` in the unit interval ``interval``: "(0, 1)", "[0, 1)" or "(0, 1]"."""
    v = _float(value)
    if not ((v >= 0.0 if interval[0] == "[" else v > 0.0) and (v <= 1.0 if interval[-1] == "]" else v < 1.0)):
        raise PreconditionError(f"{name} must lie in {interval}, got {value!r}")
    return v


def flag(who: str, name: str, value) -> bool:
    """``value`` as a bool for the setting ``name`` that ``who`` reads: a bool, numpy's included."""
    if not isinstance(value, (bool, np.bool_)):
        raise PreconditionError(f"{who} needs a bool {name}, got {value!r}")
    return bool(value)
