"""Shared exception types, and ``TYPE_CODES``, the one table of the record types the
monitor tracks and their wire codes. ``RRTYPES`` is its types in order, which ``cli``
checks ``rrtypes`` against without loading ``dnsmon``."""

TYPE_CODES = {"A": 1, "AAAA": 28, "CNAME": 5, "NS": 2, "MX": 15, "TXT": 16, "SOA": 6}
RRTYPES = tuple(TYPE_CODES)


class PhishlifeError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(PhishlifeError):
    """An input file could not be read."""


class StoreFailure(PhishlifeError):
    """The snapshot store could not be written."""
