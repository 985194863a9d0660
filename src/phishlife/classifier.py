"""Maliciously-registered-domain classification.

Runs the allowlist/platform prefilter and then four non-exclusive checks
over each domain: brand name in domain, squatted domain, random-looking
label, and bulk registration. Any firing check yields a
MaliciousRegistration verdict; otherwise the domain is Compromised.
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import IoFailure, PhishlifeError
from .ingest import DomainRecord, normalize_host, read_csv, read_lines
from .squatgen import BrandCatalog, SquatIndex, match as squat_match
from .timeutil import parse_utc

BRAND_IN_DOMAIN = "brand_in_domain"
SQUATTED = "squatted"
RANDOM_LOOKING = "random_looking"
BULK_REGISTERED = "bulk_registered"
FLAG_ORDER = (BRAND_IN_DOMAIN, SQUATTED, RANDOM_LOOKING, BULK_REGISTERED)

VERDICT_MALICIOUS = "MaliciousRegistration"
VERDICT_COMPROMISED = "Compromised"
VERDICT_PLATFORM = "PlatformSubdomainAbuse"
VERDICT_ALLOWLISTED = "Allowlisted"

_STRIP_RE = re.compile(r"[0-9-]")


class EmptyAllowlist(PhishlifeError):
    """The allowlist file parsed to zero domains."""


class RegistrationLogEntry(NamedTuple):
    registrable: str
    registered_at: datetime
    registrar: str


class BulkCluster(NamedTuple):
    """A connected group of similar names registered together."""

    members: frozenset[str]
    registrar: str
    window_start: datetime


class BrandHit(NamedTuple):
    brand_id: str
    location: str  # "registrable_label" | "subdomain"


class ClassificationResult(NamedTuple):
    registrable: str
    flags: frozenset[str]
    verdict: str
    evidence: Sequence[tuple[str, str]] = ()


class ClassifierContext(NamedTuple):
    """Immutable inputs shared across classify() calls."""

    allow: frozenset[str]
    catalog: BrandCatalog
    squat_index: SquatIndex
    word_list: frozenset[str]
    bulk_membership: Mapping[str, BulkCluster]
    min_word_len: int


def load_allowlist(path: str | Path) -> frozenset[str]:
    """Load an allowlist as CSV ``rank,domain`` or one domain per line.

    Domains are normalized like feed hosts. A CSV line whose rank is not an
    integer, such as a header, and a domain that is not a host are skipped.
    """
    domains: set[str] = set()
    for line in read_lines(path, "allowlist"):
        try:
            if "," in line:
                rank, line = line.split(",", 1)
                int(rank)
            domains.add(normalize_host(line.strip()))
        except (PhishlifeError, ValueError):
            continue
    if not domains:
        raise EmptyAllowlist(f"no domains parsed from {path}")
    return frozenset(domains)


def load_word_list(path: str | Path) -> frozenset[str]:
    """Load a dictionary file, one lowercase word per line."""
    return frozenset(w.strip().lower() for w in read_lines(path, "word list"))


def load_registration_log(path: str | Path) -> list[RegistrationLogEntry]:
    """Load a registration log CSV (``registrable,registered_at,registrar``, header required).

    Domains are normalized like feed hosts; a row that is not a host or has
    a bad timestamp raises IoFailure.
    """
    rows = read_csv(path, ("registrable", "registered_at", "registrar"), "registration log")
    try:
        entries = [
            RegistrationLogEntry(
                registrable=normalize_host(row["registrable"].strip()),
                registered_at=parse_utc(row["registered_at"]),
                registrar=row["registrar"].strip(),
            )
            for row in rows
        ]
    except (PhishlifeError, ValueError) as exc:
        raise IoFailure(f"malformed registration log {path}: {exc}") from exc
    return entries


def match_brand(record: DomainRecord, catalog: BrandCatalog) -> Optional[BrandHit]:
    """Search the top brand ids inside the domain's labels.

    Brand ids of 4+ characters match as substrings of the second-level
    label or any subdomain label; shorter ids require a whole-label or
    hyphen-delimited-token match. The lowest-ranked brand wins, and the
    registrable label is preferred over subdomain labels. Each label's
    substrings of the long ids' lengths, and its hyphen tokens, are looked
    up in the catalog's ``brand_positions``.
    """
    long_ids, short_ids, lengths = catalog.brand_positions
    sld = record.registrable.split(".", 1)[0]
    scan: list[tuple[str, str]] = [("registrable_label", sld)]
    scan += [("subdomain", lbl) for lbl in record.subdomain.split(".") if lbl]

    best: Optional[tuple[int, str]] = None  # (position, location); the first location keeps a tie
    for location, label in scan:
        found = [pos for token in (label, *label.split("-"))
                 if (pos := short_ids.get(token)) is not None]
        found += [pos for n in lengths for i in range(len(label) - n + 1)
                  if (pos := long_ids.get(label[i:i + n])) is not None]
        if found and (best is None or min(found) < best[0]):
            best = (min(found), location)
    if best is None:
        return None
    return BrandHit(brand_id=catalog.brands[best[0]].brand_id, location=best[1])


def is_random_looking(record: DomainRecord, words: frozenset[str], min_word_len: int) -> bool:
    """True iff the second-level label contains no dictionary word.

    Digits and hyphens are stripped first; only words of at least
    min_word_len characters count. A label that strips to fewer than
    min_word_len characters is random by convention.
    """
    label = record.registrable.split(".", 1)[0]
    stripped = _STRIP_RE.sub("", label)
    if len(stripped) < min_word_len:
        return True
    for length in range(min_word_len, len(stripped) + 1):
        for i in range(len(stripped) - length + 1):
            if stripped[i:i + length] in words:
                return False
    return True


def levenshtein(a: str, b: str) -> int:
    """Edit distance: Myers' bit-vector algorithm (JACM 1999) in Hyyrö's form.

    Bit i of the ints ``pv``/``mv`` marks a rise/fall of the DP column over
    the longer string from row i to i + 1; the loop walks the shorter string."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}  # each character's positions in a
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask, last = (1 << len(a)) - 1, 1 << (len(a) - 1)
    pv, mv, score = mask, 0, len(a)
    for ch in b:
        x = peq.get(ch, 0) | mv
        d0 = (((x & pv) + pv) ^ pv) | x
        hp = mv | ~(d0 | pv)
        hn = pv & d0
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        hp = (hp << 1) | 1  # the top row rises by one per column
        pv = ((hn << 1) | ~(d0 | hp)) & mask
        mv = hp & d0
    return score


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def _window_start(at: datetime, window: timedelta) -> datetime:
    """The start of the whole-second window, counted from the epoch, that
    holds ``at``; a start before year 1 is ``datetime.min`` in UTC."""
    width = int(window.total_seconds())
    try:
        return _EPOCH + _SECOND * (_window_index(at, width) * width)
    except OverflowError:
        return datetime.min.replace(tzinfo=timezone.utc)


def _window_index(at: datetime, width: int) -> int:
    """The number of the ``width``-second ``_window_start`` window that holds ``at``."""
    return (at - _EPOCH) // _SECOND // width  # // floors, also before the epoch


def _candidates(labels: list[str], k: int) -> Iterator[tuple[int, list[int]]]:
    """Yield each label's index j and the sorted i < j that may lie within k edits of it.

    Partition filter (Pass-Join, Li et al., VLDB 2011): a label longer than k
    is cut into k + 1 segments. An edit touches at most one segment and
    moves the later ones by at most one place, so a label within k edits,
    and so within k in length, holds a segment intact at most k places from
    its start. Each label probes those substrings of the earlier labels'
    segments before it adds its own. A label no longer than k has one empty
    segment, which every label holds. The filter drops only pairs more than k apart.
    """
    # label length -> (start, end, segment -> label indices) of each of its segments
    index: dict[int, list[tuple[int, int, dict[str, list[int]]]]] = {}
    for j, label in enumerate(labels):
        size = len(label)
        near: set[int] = set()
        for length, segments in index.items():
            if abs(length - size) <= k:
                for start, end, seen in segments:
                    width = end - start
                    first = max(0, start - k)
                    last = min(size - width, start + k) if width else first  # one probe finds ""
                    for at in range(first, last + 1):
                        near.update(seen.get(label[at:at + width], ()))
        yield j, sorted(near)
        if size not in index:
            cuts = [size * n // (k + 1) for n in range(k + 2)] if size > k else [0, 0]
            index[size] = [(start, end, {}) for start, end in zip(cuts, cuts[1:])]
        for start, end, seen in index[size]:
            seen.setdefault(label[start:end], []).append(j)


def cluster_bulk(
    log: list[RegistrationLogEntry],
    window: timedelta,
    max_edit_distance: int,
    min_cluster_size: int,
) -> list[BulkCluster]:
    """Find groups of similar names registered together at one registrar.

    Entries are bucketed by registrar and a tumbling, epoch-aligned window
    over registered_at; within a bucket, second-level labels within
    max_edit_distance form edges, and connected components of at least
    min_cluster_size become clusters. Each label's candidates not yet joined
    get ``levenshtein`` as its probes find them: no pair list is built.
    """
    if window < _SECOND:  # windows are whole seconds, so a shorter one has width 0
        raise ValueError("window must be at least one second")

    # each bucket's window start is computed once, from its first entry
    width = int(window.total_seconds())
    buckets: dict[tuple[str, int], tuple[datetime, set[str]]] = {}
    for entry in log:
        key = (entry.registrar, _window_index(entry.registered_at, width))
        if (bucket := buckets.get(key)) is None:
            bucket = buckets[key] = (_window_start(entry.registered_at, window), set())
        bucket[1].add(entry.registrable)

    clusters: list[BulkCluster] = []
    for (registrar, _), (start, members) in buckets.items():
        domains = sorted(members)
        if len(domains) < min_cluster_size:
            continue
        labels = [d.split(".", 1)[0] for d in domains]
        parent = list(range(len(domains)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for j, near in _candidates(labels, max_edit_distance):
            for i in near:
                root_i, root_j = find(i), find(j)
                if root_i != root_j and levenshtein(labels[i], labels[j]) <= max_edit_distance:
                    parent[root_i] = root_j

        components: dict[int, set[str]] = {}
        for i, domain in enumerate(domains):
            components.setdefault(find(i), set()).add(domain)
        for comp in components.values():
            if len(comp) >= min_cluster_size:
                clusters.append(BulkCluster(frozenset(comp), registrar, start))

    clusters.sort(key=lambda c: (c.registrar, c.window_start, min(c.members)))
    return clusters


def bulk_membership(clusters: list[BulkCluster]) -> dict[str, BulkCluster]:
    """Map each clustered registrable to its cluster."""
    members: dict[str, BulkCluster] = {}
    for cluster in clusters:
        for domain in cluster.members:
            members[domain] = cluster
    return members


def classify(record: DomainRecord, ctx: ClassifierContext) -> ClassificationResult:
    """Run the allowlist/platform prefilter, then the four checks, over one domain record.

    An allowlisted registrable seen only bare is legitimate; seen under any
    subdomain it is platform abuse (a hosting or site-builder service).
    Neither goes on to the checks.
    """
    if record.registrable in ctx.allow:
        if record.subdomain or record.subdomain_count > 0:
            return ClassificationResult(
                record.registrable, frozenset(), VERDICT_PLATFORM,
                evidence=[("platform", f"subdomain of allowlisted {record.registrable}")],
            )
        return ClassificationResult(record.registrable, frozenset(), VERDICT_ALLOWLISTED)

    flags: set[str] = set()
    evidence: list[tuple[str, str]] = []

    brand_hit = match_brand(record, ctx.catalog)
    if brand_hit:
        flags.add(BRAND_IN_DOMAIN)
        evidence.append((BRAND_IN_DOMAIN, f"{brand_hit.brand_id} in {brand_hit.location}"))

    squat_hit = squat_match(ctx.squat_index, record)
    if squat_hit:
        flags.add(SQUATTED)
        evidence.append((SQUATTED, f"{squat_hit.technique.value} variant of {squat_hit.brand_id}"))

    # random-looking is only evaluated once brand and squat have both passed
    if not brand_hit and not squat_hit:
        if is_random_looking(record, ctx.word_list, ctx.min_word_len):
            flags.add(RANDOM_LOOKING)
            label = record.registrable.split(".", 1)[0]
            evidence.append((RANDOM_LOOKING, f"no dictionary word in {label!r}"))

    cluster = ctx.bulk_membership.get(record.registrable)
    if cluster is not None:
        flags.add(BULK_REGISTERED)
        evidence.append((BULK_REGISTERED, f"cluster of {len(cluster.members)} via {cluster.registrar}"))

    verdict = VERDICT_MALICIOUS if flags else VERDICT_COMPROMISED
    return ClassificationResult(record.registrable, frozenset(flags), verdict, evidence)


def ordered_flags(flags: frozenset[str]) -> list[str]:
    return [f for f in FLAG_ORDER if f in flags]
