"""Blocklist feed ingestion.

Parses feed files, normalizes URLs to registrable domains via public-suffix
rules, and merges duplicate observations into one table keyed by the
registrable domain.
"""

from __future__ import annotations

import csv
import io
import json
import re
import reprlib
from datetime import datetime
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .errors import IoFailure, PhishlifeError
from .timeutil import parse_utc

MAX_LABEL_LEN = 63
MAX_HOST_LEN = 253

_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")
_ASCII_LABEL_RE = re.compile(r"[a-z0-9-]+")
# a lower-case ASCII host whose labels are all 1-63 characters long
_ASCII_HOST_RE = re.compile(r"(?:[a-z0-9-]{1,63}\.)*[a-z0-9-]{1,63}")


class MalformedUrl(PhishlifeError):
    """No host could be extracted from the raw URL."""


class InvalidLabel(PhishlifeError):
    """A host label is empty, too long, or has illegal characters."""


class EmptyRuleSet(PhishlifeError):
    """The suffix rules file parsed to zero rules."""


class HostIsSuffix(PhishlifeError):
    """The host equals a public suffix; there is no registrable part."""


class AllRecordsMalformed(PhishlifeError):
    """Every record in a feed file failed to parse."""


class FeedEntry(NamedTuple):
    """One blocklist observation."""

    url: str
    detected_at: datetime
    source: str
    brand: Optional[str] = None


class SuffixRules(NamedTuple):
    """Public-suffix rules split by rule kind."""

    exact: frozenset[str]
    wildcard: frozenset[str]
    exception: frozenset[str]


class RegistrableParts(NamedTuple):
    """Result of splitting a host at its public suffix.

    ``suffix_listed`` is False when no rule matched and the last label was
    used as a fallback suffix.
    """

    subdomain: str
    registrable: str
    public_suffix: str
    suffix_listed: bool = True


class DomainRecord(NamedTuple):
    """A distinct registrable domain with its merged observation history."""

    registrable: str
    public_suffix: str
    subdomain: str
    subdomain_count: int
    first_detections: dict[str, datetime]
    brands: set[str]
    url_count: int
    suffix_unlisted: bool = False


class FeedLoadResult(NamedTuple):
    entries: list[FeedEntry]
    skipped: int


class DomainTable(NamedTuple):
    records: list[DomainRecord]
    skipped_urls: int
    # every entry's source, counted whether or not its URL gave a host
    urls_by_source: dict[str, int]


def _normalize_label(label: str) -> str:
    """Lowercase one host label and convert it to punycode if needed."""
    if not label:
        raise InvalidLabel("empty label in host")
    if label.isascii():
        label = label.lower()
        if not _ASCII_LABEL_RE.fullmatch(label):
            raise InvalidLabel(f"illegal characters in label {label!r}")
    else:
        try:
            label = label.encode("idna").decode("ascii").lower()
        except UnicodeError as exc:
            raise InvalidLabel(f"cannot punycode label {label!r}: {exc}") from exc
    if len(label) > MAX_LABEL_LEN:
        raise InvalidLabel(f"label longer than {MAX_LABEL_LEN} chars: {label!r}")
    return label


def normalize_host(host: str) -> str:
    """Normalize a raw hostname to lowercase punycode ASCII.

    An ASCII host that is already a valid name only needs lower-casing, so it
    skips the label-by-label path, which handles everything else and raises.
    """
    host = host.rstrip(".")  # tolerate a FQDN trailing dot
    if host.isascii() and len(host) <= MAX_HOST_LEN:
        lowered = host.lower()
        if _ASCII_HOST_RE.fullmatch(lowered):
            return lowered
    if not host:
        raise MalformedUrl("empty host")
    labels = [_normalize_label(l) for l in host.split(".")]
    normalized = ".".join(labels)
    if len(normalized) > MAX_HOST_LEN:
        raise InvalidLabel(f"host longer than {MAX_HOST_LEN} chars")
    return normalized


def parse_url(raw: str) -> str:
    """Extract a raw feed URL's host, normalized to lowercase punycode.

    A URL without a scheme is read as http; port and userinfo are dropped.
    """
    from urllib.parse import urlsplit

    raw = raw.strip()
    if not raw:
        raise MalformedUrl("empty URL")
    if not _SCHEME_RE.match(raw):
        raw = "http://" + raw
    try:
        hostname = urlsplit(raw).hostname
    except ValueError as exc:
        raise MalformedUrl(f"unparseable URL: {exc}") from exc
    if not hostname:
        raise MalformedUrl(f"no host in URL {raw!r}")
    return normalize_host(hostname)


def read_input(path: str | Path, what: str) -> str:
    """Read a UTF-8 input file, line endings kept; OSError or UnicodeError raises IoFailure."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeError) as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc


def _split_lines(text: str) -> list[str]:
    """``text``'s lines, broken only at LF, CRLF and CR, as universal newlines read them;
    ``str.splitlines`` also breaks at a form feed, U+0085 and more, which a URL may hold."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_lines(path: str | Path, what: str) -> list[str]:
    """A text input's lines, ends removed, less blanks and lines whose first non-blank is ``#``."""
    return [line for line in _split_lines(read_input(path, what))
            if (head := line.lstrip()) and head[0] != "#"]


def read_json(path: str | Path, what: str) -> object:
    """Read and decode a JSON input file; invalid or too deeply nested JSON raises IoFailure."""
    text = read_input(path, what)
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise IoFailure(f"malformed {what} {path}: {exc}") from exc


# The one rule for what a decoded JSON value may be: its type is exactly the
# one asked for, so JSON true is no int, and a string encodes as UTF-8, which
# one with a lone surrogate escape such as "\ud800" does not. A value that
# breaks it raises TypeError, whose message shows the value as reprlib
# shortens it, so that a long or deeply nested value gives a short message.

def typed(value: object, kind: type) -> Any:
    """``value`` if it is of type ``kind`` by the rule above, else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{reprlib.repr(value)} is not of type {kind.__name__}")
    if kind is str and not value.isascii():  # an ASCII string costs one C call
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise TypeError(f"{reprlib.repr(value)} is not UTF-8 text") from None
    return value


def strings(value: object) -> tuple[str, ...]:
    """A JSON list of strings, each checked as ``typed`` checks one, as a tuple; else TypeError."""
    for item in typed(value, list):
        if type(item) is not str or not item.isascii():  # typed's own fast path, inlined
            typed(item, str)
    return tuple(value)


def read_csv(path: str | Path, header: Sequence[str], what: str) -> list[dict[str, str]]:
    """Read a CSV file whose header must be exactly ``header``.

    Returns the data rows keyed by the names in ``header``, even where the
    file pads them with spaces; a short row's missing fields read as "".
    A wrong header or a row the csv module rejects raises IoFailure.
    """
    try:
        reader = csv.DictReader(io.StringIO(read_input(path, what), newline=""), restval="")
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(header):
            raise IoFailure(f"{path}: expected header {','.join(header)}")
        reader.fieldnames = list(header)
        return list(reader)
    except csv.Error as exc:
        raise IoFailure(f"malformed {what} {path}: {exc}") from exc


def load_suffix_rules(path: str | Path) -> SuffixRules:
    """Load a public-suffix-list text file.

    ``//`` comment lines and blanks are ignored; ``*.``-prefixed lines are
    wildcard rules, ``!``-prefixed lines exception rules, everything else
    an exact rule.
    """
    text = read_input(path, "suffix rules")
    exact: set[str] = set()
    wildcard: set[str] = set()
    exception: set[str] = set()
    for line in _split_lines(text):
        fields = line.split(None, 1)
        if not fields or fields[0].startswith("//"):
            continue
        rule = fields[0]
        if rule[0] == "!":
            target, bucket = rule[1:], exception
        elif rule.startswith("*."):
            target, bucket = rule[2:], wildcard
        else:
            target, bucket = rule, exact
        try:
            bucket.add(normalize_host(target))
        except PhishlifeError:
            continue  # skip malformed rule lines
    if not (exact or wildcard or exception):
        raise EmptyRuleSet(f"no rules parsed from {path}")
    return SuffixRules(frozenset(exact), frozenset(wildcard), frozenset(exception))


def split_registrable(host: str, rules: SuffixRules) -> RegistrableParts:
    """Split a normalized host into (subdomain, registrable, public suffix).

    Walks the host's label suffixes, shortest first, and looks each one up in
    the three rule sets, so the cost grows with the host's labels, not with
    the rules. Exception rules beat wildcard rules beat exact rules; within a
    kind the longest match wins. A wildcard therefore beats a longer exact
    rule: with ``*.c.com`` and ``a.b.c.com`` the host ``x.a.b.c.com`` gets
    suffix ``b.c.com``, where the PSL's "most labels wins" gives
    ``a.b.c.com``. With no rule, the last label is the suffix, flagged via
    ``suffix_listed=False``; an all-digit one, as in an IPv4 literal, raises InvalidLabel.
    """
    labels = host.split(".")
    # label count of the longest match of each kind; 0 for none
    exception = wildcard = exact = 0
    for k in range(1, len(labels) + 1):
        suffix = ".".join(labels[-k:])
        if suffix in rules.exception:
            exception = k
        if k < len(labels) and suffix in rules.wildcard:  # "*" takes one more label
            wildcard = k
        if suffix in rules.exact:
            exact = k

    # n is the label count of the public suffix
    listed = True
    if exception:
        # An exception names a registrable domain inside a wildcard block:
        # the public suffix is the rule minus its leftmost label.
        n = exception - 1
    elif wildcard:
        n = wildcard + 1
    elif exact:
        n = exact
    elif labels[-1].isdigit():  # a TLD is never all-numeric (RFC 3696 section 2)
        raise InvalidLabel(f"{host!r} ends in an all-numeric label, as an IPv4 address does")
    else:
        n, listed = 1, False

    if len(labels) <= n:
        raise HostIsSuffix(f"{host!r} is a public suffix")
    registrable = ".".join(labels[-(n + 1):])
    subdomain = ".".join(labels[: -(n + 1)])
    public_suffix = ".".join(labels[len(labels) - n:])
    return RegistrableParts(subdomain, registrable, public_suffix, suffix_listed=listed)


def _entry_from_line(line: str) -> FeedEntry:
    parts = line.split("\t")
    if len(parts) not in (3, 4):
        raise ValueError(f"expected 3 or 4 tab-separated fields, got {len(parts)}")
    return _entry_from_obj(dict(zip(("detected_at", "url", "source", "brand"), parts)))


def _entry_from_obj(obj: object) -> FeedEntry:
    """One feed record of either format; ``url``, ``source`` and ``brand`` are stripped."""
    if not isinstance(obj, dict):
        raise ValueError("feed record is not an object")
    url, source, at = [typed(obj.get(k), str) for k in ("url", "source", "detected_at")]
    brand = obj.get("brand")
    url, source = url.strip(), source.strip()
    if not (url and source):
        raise ValueError("empty url or source field")
    return FeedEntry(url=url, detected_at=parse_utc(at), source=source,
                     brand=None if brand is None else typed(brand, str).strip() or None)


def load_feed(path: str | Path, format: str = "lines") -> FeedLoadResult:
    """Load a feed file in ``lines`` (tab-separated) or ``json`` format.

    Malformed records are skipped and counted, not fatal; a file whose
    records all fail raises AllRecordsMalformed, and a JSON file that
    ``read_json`` cannot decode raises IoFailure.
    """
    if format not in ("lines", "json"):
        raise ValueError(f"unknown feed format {format!r}")
    if format == "lines":
        records: list = read_lines(path, "feed")
        parse = _entry_from_line
    else:
        records = read_json(path, "feed")
        if not isinstance(records, list):
            raise AllRecordsMalformed(f"{path}: top-level JSON value is not an array")
        parse = _entry_from_obj
    entries: list[FeedEntry] = []
    skipped = 0
    for record in records:
        try:
            entries.append(parse(record))
        except (TypeError, ValueError):
            skipped += 1
    if skipped and not entries:
        raise AllRecordsMalformed(f"all {skipped} records in {path} are malformed")
    return FeedLoadResult(entries=entries, skipped=skipped)


def build_domain_table(entries: Iterable[FeedEntry], rules: SuffixRules) -> DomainTable:
    """Merge feed entries into one record per distinct registrable domain.

    first_detections holds per-source minima, brands the union; duplicate
    URLs count toward url_count. Output order is lexicographic by
    registrable, and the merge is independent of input order. Every
    entry's source is counted in urls_by_source, its URL's host good or not.
    """
    # per registrable: [its first entry's parts, url count, first detection
    # per source, brands, subdomains seen, the (detected_at, subdomain)
    # minimum, so the record's subdomain is stable under permutation of the input]
    merged: dict[str, list] = {}
    urls_by_source: dict[str, int] = {}
    skipped = 0

    for entry in entries:
        urls_by_source[entry.source] = urls_by_source.get(entry.source, 0) + 1
        try:
            parts = split_registrable(parse_url(entry.url), rules)
        except PhishlifeError:
            skipped += 1
            continue

        key = (entry.detected_at, parts.subdomain)
        acc = merged.get(parts.registrable)
        if acc is None:
            acc = merged[parts.registrable] = [parts, 0, {}, set(), set(), key]
        acc[1] += 1
        prev = acc[2].get(entry.source)
        if prev is None or entry.detected_at < prev:
            acc[2][entry.source] = entry.detected_at
        if entry.brand:
            acc[3].add(entry.brand.lower())
        if parts.subdomain:
            acc[4].add(parts.subdomain)
        if key < acc[5]:
            acc[5] = key

    # popped in sorted order, so each accumulator is freed as its record is made
    records = [DomainRecord(parts.registrable, parts.public_suffix, first[1], len(subs),
                            detections, brands, count, not parts.suffix_listed)
               for parts, count, detections, brands, subs, first in map(merged.pop, sorted(merged))]
    return DomainTable(records=records, skipped_urls=skipped, urls_by_source=urls_by_source)
