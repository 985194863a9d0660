"""UTC timestamp parsing and formatting.

All timestamps in the toolkit are timezone-aware UTC datetimes. Feeds and
CSVs must carry ISO-8601 instants; naive values are interpreted as UTC,
non-zero offsets are rejected.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

SECONDS_PER_DAY = 86400.0


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 date or datetime as a UTC instant.

    Accepts ``YYYY-MM-DD``, ``YYYY-MM-DDTHH:MM:SS[.ffffff]`` with an
    optional ``Z`` or ``+00:00`` suffix. Raises ValueError for anything
    else, including non-UTC offsets.
    """
    cleaned = text.strip()
    if not cleaned:
        raise ValueError("empty timestamp")
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        return dt.replace(tzinfo=timezone.utc)
    if dt.utcoffset() != timedelta(0):
        raise ValueError(f"non-UTC offset in timestamp: {text!r}")
    return dt.astimezone(timezone.utc)


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
