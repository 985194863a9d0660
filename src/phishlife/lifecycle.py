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

PRE_REGISTRATION_DETECTION = "pre_registration_detection"
DEREGISTERED_BEFORE_DETECTION = "deregistered_before_detection"

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
    data_flags: frozenset[str] = frozenset()


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


def build_lifecycle_records(
    domain_records: list[DomainRecord],
    classifications: list[ClassificationResult],
    registrations: Mapping[str, RegistrationEvent],
    reference_source: str,
) -> list[LifecycleRecord]:
    """Join the domain table, its classifications in table order, and registration events."""
    records = []
    for rec, classification in zip(domain_records, classifications, strict=True):
        reg = registrations.get(rec.registrable)
        det = detection_delay(reg, rec.first_detections, reference_source)
        take = takedown_delay(reg, rec.first_detections, reference_source)
        data_flags = set()
        if det is not None and det < timedelta(0):
            data_flags.add(PRE_REGISTRATION_DETECTION)
        if take is not None and take < timedelta(0):
            data_flags.add(DEREGISTERED_BEFORE_DETECTION)
        records.append(LifecycleRecord(
            domain=rec,
            registration=reg,
            detection_delay=det,
            takedown_delay=take,
            classification=classification,
            data_flags=frozenset(data_flags),
        ))
    return records


# each group key's values of a record
_GROUP_VALUES = {
    "brand": lambda record: sorted(record.domain.brands),
    "tld": lambda record: [record.domain.public_suffix],
    "flag_category": lambda record: sorted(record.classification.flags),
    "verdict": lambda record: [record.classification.verdict],
    "source": lambda record: sorted(record.domain.first_detections),
}


def _metric_value(
    record: LifecycleRecord, metric: str, group: str, reference_source: str,
) -> Optional[float]:
    if metric == "detection_delay":
        return to_days(record.detection_delay) if record.detection_delay is not None else None
    if metric == "takedown_delay":
        return to_days(record.takedown_delay) if record.takedown_delay is not None else None
    # lag: group is a blocklist source; value is its lag behind the reference
    detections = record.domain.first_detections
    if reference_source not in detections or group not in detections:
        return None
    return to_days(detections[group] - detections[reference_source])


def aggregate(
    records: list[LifecycleRecord],
    metric: str,
    group_key: str,
    reference_source: str,
) -> AggregateReport:
    """Group records and compute count/mean/median of a delay metric.

    ``(metric, group_key)`` is one of AGGREGATES. Records lacking the
    metric are excluded from a row's statistics but counted in its missing
    column; records lacking the grouping attribute are tallied as
    ungrouped. EmptyInput is raised when no record is grouped, as when
    there are none. Medians use lower interpolation. Rows sort by count
    descending, then key.
    """
    values: dict[str, list[float]] = {}
    missing: dict[str, int] = {}
    ungrouped = 0
    group_values = _GROUP_VALUES[group_key]
    for record in records:
        groups = group_values(record)
        if metric == "lag":
            groups = [g for g in groups if g != reference_source]
        if not groups:
            ungrouped += 1
            continue
        for group in groups:
            value = _metric_value(record, metric, group, reference_source)
            kept = values.setdefault(group, [])
            if value is None:
                missing[group] = missing.get(group, 0) + 1
            else:
                kept.append(value)

    if not values:  # every group seen has a list, if an empty one
        raise EmptyInput(f"no record carries grouping attribute {group_key!r}")

    rows = []
    for key in values:
        vals = sorted(values[key])
        rows.append(AggregateRow(
            key=key,
            count=len(vals),
            mean_days=fmean(vals) if vals else None,
            median_days=float(median_low(vals)) if vals else None,
            missing=missing.get(key, 0),
        ))
    rows.sort(key=lambda r: (-r.count, r.key))
    return AggregateReport(rows=rows, ungrouped=ungrouped)
