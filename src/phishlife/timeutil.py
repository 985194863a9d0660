"""UTC timestamp parsing and formatting, and the mean and median of durations.

All timestamps in the toolkit are timezone-aware UTC datetimes. Feeds and
CSVs carry ISO-8601 instants of one fixed grammar (``parse_utc``); values
without an offset are UTC, non-zero offsets are rejected.
"""

from __future__ import annotations

import math
import re
from datetime import datetime, timedelta, timezone

SECONDS_PER_DAY = 86400.0

# the one grammar of a timestamp; an offset other than zero is no match
_TIMESTAMP = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})"
    r"([T ][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}|\.[0-9]{6})?)?)?)?"
    r"(?:Z|z|[+-]00:00)?")

def parse_utc(text: str) -> datetime:
    """Parse a date or datetime as a UTC instant, by one grammar on every Python.

    Accepts ``YYYY-MM-DD``, optionally followed by ``T`` or a space and
    ``HH[:MM[:SS[.fff|.ffffff]]]``, then an optional ``Z``, ``z``,
    ``+00:00`` or ``-00:00``; digits are ASCII and surrounding blanks are
    ignored. A value without a suffix is UTC. Raises ValueError for
    anything else, a non-zero offset included, and for a date or time out
    of range.
    """
    match = _TIMESTAMP.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"timestamp {text!r} is not YYYY-MM-DD[THH[:MM[:SS[.fff]]]] in UTC")
    # every Python from 3.10 on reads a date, a time and a zero offset alike
    return datetime.fromisoformat(f"{match[1]}{match[2] or 'T00'}+00:00")


def format_utc(dt: datetime) -> str:
    """Render a UTC instant as ISO-8601 with a Z suffix and a four-digit year.

    Microseconds are written only when non-zero. ``isoformat`` pads the
    year, which ``strftime("%Y")`` does not below year 1000.
    """
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt.isoformat() + "Z"


def to_days(delta: timedelta) -> float:
    """Express a duration as fractional days with seconds precision."""
    return delta.total_seconds() / SECONDS_PER_DAY


def fmean(values: list[float]) -> float:
    """The mean of a non-empty list, as ``statistics.fmean`` computes it."""
    return math.fsum(values) / len(values)


def median_low(values: list[float]) -> float:
    """The lower median of a non-empty list, as ``statistics.median_low`` picks it."""
    return sorted(values)[(len(values) - 1) // 2]
