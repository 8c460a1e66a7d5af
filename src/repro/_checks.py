"""Type and range checks for arguments at the public API.

One contract for every entry point: a wrong type raises ``TypeError``, a
wrong value raises ``ValueError``, and the message names the argument
(``"<name> must be <requirement>, got <value>"``).  Layers below an entry
point take what these checks passed and do not check it again.

Only generic checks live here.  A check that needs its domain, such as a
partition covering the profile or a stage index below the depth, stays
with the code of that domain.
"""

from __future__ import annotations

import math

import numpy as np

_INTEGERS = (int, np.integer)
_BOOLS = (bool, np.bool_)
_REALS = (int, float, np.integer, np.floating)
_INF = math.inf

#: The simulators' two communication models (``comm_mode``).
COMM_MODES = ("paper", "edges")


def count(name: str, value, minimum: int = 1) -> int:
    """``value`` as an ``int`` of at least ``minimum``.

    Numpy integers pass; a bool, a float (even ``4.0``) or a string does
    not, since schedules and plans are keyed on counts.
    """
    if isinstance(value, bool) or not isinstance(value, _INTEGERS):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def flag(name: str, value) -> bool:
    """``value`` as a ``bool`` (``numpy.bool_`` passes), so that a string
    such as ``"False"`` cannot switch a knob on by its truthiness."""
    if not isinstance(value, _BOOLS):
        raise TypeError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def real(name: str, value, *, positive: bool = False) -> None:
    """``value`` is a finite real number, ``>= 0`` (``> 0`` if
    ``positive``).  A bool is no number here."""
    if isinstance(value, bool) or not isinstance(value, _REALS):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (0.0 < value < _INF if positive else 0.0 <= value < _INF):
        raise ValueError(
            f"{name} must be {_requirement(value, positive)}, got {value!r}"
        )


def reals(name: str, values, *, positive: bool = False) -> None:
    """Every entry of ``values`` is finite and ``>= 0`` (``> 0`` if
    ``positive``).

    An array is checked with one ``min`` and one ``max`` pass and no
    temporary (NaN fails both compares); a sequence of floats, such as a
    stage-time tuple, with ``isfinite`` and ``min``, since the built-in
    ``min`` is order-dependent on NaN.
    """
    if isinstance(values, np.ndarray):
        ok = values.size == 0 or (
            (values.min() > 0.0 if positive else values.min() >= 0.0)
            and values.max() < _INF
        )
    else:
        ok = all(map(math.isfinite, values)) and (
            not values or (min(values) > 0.0 if positive else min(values) >= 0.0)
        )
    if not ok:
        raise ValueError(f"{name} must be {_requirement(values, positive)}")


def _requirement(values, positive: bool) -> str:
    """The requirement ``values`` breaks.  A sign is reported before
    finiteness, wherever each bad entry sits."""
    low = np.less_equal(values, 0.0) if positive else np.less(values, 0.0)
    if np.any(low):
        return "positive" if positive else "non-negative"
    return "finite"


def choice(name: str, value, options) -> None:
    """``value`` is one of the strings ``options``: ``TypeError`` for a
    value that is no string, ``ValueError`` for an unknown one."""
    if value in options:
        return
    error = ValueError if isinstance(value, str) else TypeError
    raise error(f"{name} must be one of {options}, got {value!r}")


def removed_keywords(jobs, cache) -> None:
    """Accept only ``jobs=1`` and ``cache=False``: the searches run in the
    calling process and keep no plan cache.  The keywords survive so
    existing callers keep working."""
    if count("jobs", jobs) != 1:
        raise ValueError(
            f"jobs must be 1, got {jobs}: the multiprocess search was removed"
        )
    if cache is not False:
        raise TypeError(
            f"cache must be False, got {cache!r}: the plan cache was removed"
        )
