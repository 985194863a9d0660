"""Shared exception types, and the record types that ``cli`` checks ``rrtypes``
against without loading ``dnsmon``."""

RRTYPES = ("A", "AAAA", "CNAME", "NS", "MX", "TXT", "SOA")


class PhishlifeError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(PhishlifeError):
    """An input file could not be read."""


class StoreFailure(PhishlifeError):
    """The snapshot store could not be written."""
