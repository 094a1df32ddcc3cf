"""The one vocabulary for a numeric knob's contract.

Every configuration and front door states what a valid knob is with these
functions, once, where it is constructed.  Each refuses NaN (a NaN fails
every comparison they make), raises :class:`~repro.errors.ConfigurationError`
with the message ``"<name> must be ..., got <value!r>"`` and returns
``value`` unchanged, so a guard is one call.

"A real number" is meant literally: ``inf`` is not one.  A knob for which
infinity means something (an unbounded store, a timeout that never fires)
says so with :func:`interval` and an infinite bound.
"""

from __future__ import annotations

import math
import operator

from .errors import ConfigurationError

__all__ = ["count", "positive", "nonnegative", "finite", "fraction", "interval"]

_BRACKETS = {"both": "[]", "left": "[)", "right": "(]", "neither": "()"}


def _refuse(name: str, rule: str, value) -> None:
    raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


def _holds(value, lo, hi, closed: str) -> bool:
    try:
        return (lo <= value if closed in ("both", "left") else lo < value) and (
            value <= hi if closed in ("both", "right") else value < hi
        )
    except TypeError:  # not a number at all
        return False


def count(name: str, value, lo: int = 1):
    """An integer -- anything ``operator.index`` takes, so numpy integers
    pass and ``2.0`` does not -- that is ``>= lo``."""
    try:
        small = operator.index(value) < lo
    except TypeError:
        _refuse(name, "an integer", value)
    if small:
        _refuse(name, f">= {lo}", value)
    return value


def positive(name: str, value):
    """A real number ``> 0``."""
    if not _holds(value, 0, math.inf, "neither"):
        _refuse(name, "a real number > 0", value)
    return value


def nonnegative(name: str, value):
    """A real number ``>= 0``."""
    if not _holds(value, 0, math.inf, "left"):
        _refuse(name, "a real number >= 0", value)
    return value


def finite(name: str, value):
    """A real number of either sign."""
    if not _holds(value, -math.inf, math.inf, "neither"):
        _refuse(name, "a real number", value)
    return value


def fraction(name: str, value):
    """A share in ``[0, 1]``."""
    return interval(name, value, 0, 1)


def interval(name: str, value, lo, hi, closed: str = "both"):
    """A number between ``lo`` and ``hi``; ``closed`` names the ends that
    belong to the interval (``"both"``, ``"left"``, ``"right"`` or
    ``"neither"``, as :class:`pandas.Interval` spells it)."""
    if not _holds(value, lo, hi, closed):
        left, right = _BRACKETS[closed]
        _refuse(name, f"in {left}{lo}, {hi}{right}", value)
    return value
