"""Domain lifecycle reconciliation and delay statistics.

Folds the registration and deregistration timestamps of heterogeneous
sources into one event per domain as the rows are read, joins the events
with blocklist detections and classification verdicts, and computes
detection-delay, takedown-delay, and blocklist-lag aggregates.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .classifier import ClassificationResult
from .errors import PhishlifeError
from .ingest import DomainRecord, normalize_host, read_csv
from .timeutil import fmean, median_low, parse_utc, to_days

KIND_WHOIS = "whois"
KIND_RDAP = "rdap"
KIND_CT = "ct_log"
KIND_PDNS = "passive_dns_first_seen"
KIND_ZONE_FIRST = "zone_first_appearance"
KIND_ZONE_LAST = "zone_last_seen"

# earliest-timestamp ties are broken by this order
KIND_ORDER = {
    KIND_WHOIS: 0,
    KIND_RDAP: 1,
    KIND_CT: 2,
    KIND_PDNS: 3,
    KIND_ZONE_FIRST: 4,
    KIND_ZONE_LAST: 5,
}

# the (metric, group key) of each aggregate a lifecycle run writes, in order
AGGREGATES = (
    *[("detection_delay", g) for g in ("brand", "tld", "flag_category", "verdict", "source")],
    *[("takedown_delay", g) for g in ("brand", "tld", "flag_category", "verdict")],
    ("lag", "source"),
)


class EmptyInput(PhishlifeError):
    """No records, or no record carries the grouping attribute."""


class RegistrationEvent(NamedTuple):
    registrable: str
    registered_at: datetime
    provenance: str
    deregistered_at: Optional[datetime] = None


class LifecycleRecord(NamedTuple):
    domain: DomainRecord  # the domain table's record itself, not a copy
    registration: Optional[RegistrationEvent]
    detection_delay: Optional[timedelta]
    takedown_delay: Optional[timedelta]
    classification: ClassificationResult


class AggregateRow(NamedTuple):
    key: str
    count: int  # shadows tuple.count, which nothing calls
    mean_days: Optional[float]
    median_days: Optional[float]
    missing: int


class AggregateReport(NamedTuple):
    rows: list[AggregateRow]
    ungrouped: int


def load_timestamp_sources(path: str | Path) -> tuple[dict[str, RegistrationEvent], int]:
    """Fold a timestamp-source CSV (``registrable,kind,at``, header required) as it is read.

    Returns each domain's registration event and the count of rows skipped.
    An event takes the earliest of the domain's registration kinds (ties
    broken by kind order) and its latest zone_last_seen; a domain with only
    last-seen rows gets none. Domains are normalized like feed hosts. Rows
    with a domain that is not a host, an unknown kind or an unparseable
    timestamp are skipped.
    """
    earliest: dict[str, tuple[datetime, int, str]] = {}
    latest_seen: dict[str, datetime] = {}
    skipped = 0
    for row in read_csv(path, ("registrable", "kind", "at"), "timestamp sources"):
        kind = row["kind"].strip()
        try:
            if kind not in KIND_ORDER:
                raise ValueError(f"unknown kind {kind!r}")
            domain = normalize_host(row["registrable"].strip())
            at = parse_utc(row["at"])
        except (PhishlifeError, ValueError):
            skipped += 1
            continue
        if kind == KIND_ZONE_LAST:
            latest_seen[domain] = max(latest_seen.get(domain, at), at)
        else:
            rank = (at, KIND_ORDER[kind], kind)
            earliest[domain] = min(earliest.get(domain, rank), rank)
    return ({domain: RegistrationEvent(domain, at, kind, latest_seen.get(domain))
             for domain, (at, _, kind) in earliest.items()}, skipped)


def detection_delay(
    reg: Optional[RegistrationEvent],
    detections: Mapping[str, datetime],
    reference_source: str,
) -> Optional[timedelta]:
    """Reference detection minus registration, when both are known."""
    if reg is None or reference_source not in detections:
        return None
    return detections[reference_source] - reg.registered_at


def takedown_delay(
    reg: Optional[RegistrationEvent],
    detections: Mapping[str, datetime],
    reference_source: str,
) -> Optional[timedelta]:
    """Deregistration minus reference detection, when both are known."""
    if reg is None or reg.deregistered_at is None or reference_source not in detections:
        return None
    return reg.deregistered_at - detections[reference_source]


def join_record(
    domain: DomainRecord,
    classification: ClassificationResult,
    registrations: Mapping[str, RegistrationEvent],
    reference_source: str,
) -> LifecycleRecord:
    """Join one domain table record with its classification and registration event."""
    reg, detections = registrations.get(domain.registrable), domain.first_detections
    return LifecycleRecord(domain, reg, detection_delay(reg, detections, reference_source),
                           takedown_delay(reg, detections, reference_source), classification)


# each group key's values of a record
_GROUP_VALUES = {
    "brand": lambda record: record.domain.brands,
    "tld": lambda record: [record.domain.public_suffix],
    "flag_category": lambda record: record.classification.flags,
    "verdict": lambda record: [record.classification.verdict],
    "source": lambda record: record.domain.first_detections,
}


class Aggregates:
    """Every aggregate of AGGREGATES, folded one lifecycle record at a time.

    Records lacking the metric are excluded from a row's statistics but
    counted in its missing column; records lacking the grouping attribute
    are tallied as ungrouped. A source's lag is its detection minus the
    reference source's, so the reference source itself is no lag group.
    """

    def __init__(self, reference_source: str):
        self.reference_source = reference_source
        # per aggregate: the ungrouped count, and each group's day values, None
        # for a record lacking the metric
        self._folds = {agg: [0, {}] for agg in AGGREGATES}

    def add(self, record: LifecycleRecord) -> None:
        reference, detections = self.reference_source, record.domain.first_detections
        groups_of = {key: values(record) for key, values in _GROUP_VALUES.items()}
        delays = {"detection_delay": record.detection_delay,
                  "takedown_delay": record.takedown_delay}
        days = {metric: None if d is None else to_days(d) for metric, d in delays.items()}
        for (metric, group_key), fold in self._folds.items():
            groups = [g for g in groups_of[group_key] if metric != "lag" or g != reference]
            if not groups:
                fold[0] += 1
            for group in groups:
                if metric != "lag":
                    value = days[metric]
                else:
                    value = (to_days(detections[group] - detections[reference])
                             if reference in detections else None)
                fold[1].setdefault(group, []).append(value)

    def report(self, metric: str, group_key: str) -> AggregateReport:
        """The rows of one of AGGREGATES, by count descending, then key.

        Medians use lower interpolation. EmptyInput is raised when no
        record is grouped, as when none was added.
        """
        ungrouped, groups = self._folds[metric, group_key]
        if not groups:
            raise EmptyInput(f"no record carries grouping attribute {group_key!r}")
        rows = []
        for key, kept in groups.items():
            vals = [v for v in kept if v is not None]
            rows.append(AggregateRow(key, len(vals), fmean(vals) if vals else None,
                                     median_low(vals) if vals else None, len(kept) - len(vals)))
        rows.sort(key=lambda r: (-r.count, r.key))
        return AggregateReport(rows, ungrouped)
