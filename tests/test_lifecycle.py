from __future__ import annotations

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from phishlife.classifier import (
    ClassificationResult,
    VERDICT_COMPROMISED,
    VERDICT_MALICIOUS,
)
from phishlife.ingest import DomainRecord
from phishlife.lifecycle import (
    DEREGISTERED_BEFORE_DETECTION,
    EmptyInput,
    KIND_CT,
    KIND_ORDER,
    KIND_PDNS,
    KIND_RDAP,
    KIND_WHOIS,
    KIND_ZONE_FIRST,
    KIND_ZONE_LAST,
    LifecycleRecord,
    RegistrationEvent,
    aggregate,
    build_lifecycle_records,
    detection_delay,
    load_timestamp_sources,
    takedown_delay,
)
from phishlife.timeutil import format_utc, to_days

UTC = timezone.utc


def ts(text):
    return datetime.fromisoformat(text).replace(tzinfo=UTC)


NOT_A_HOST = "bad..com"
UNKNOWN_KIND = "carrier_pigeon"


class SourceRow(NamedTuple):
    """One row of a timestamp-source CSV."""

    kind: str
    registrable: str
    at: Optional[datetime]  # None is written as a timestamp that does not parse


def src(kind, at, registrable="a.com"):
    return SourceRow(kind=kind, registrable=registrable, at=ts(at))


def fold(rows):
    """load_timestamp_sources over the rows, written as CSV text into a temp directory."""
    text = "registrable,kind,at\n" + "".join(
        f"{r.registrable},{r.kind},{format_utc(r.at) if r.at else 'yesterday'}\n" for r in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timestamp_sources.csv"
        path.write_text(text, encoding="utf-8")
        return load_timestamp_sources(path)


def domain_record(registrable, detections=None, brands=(), suffix="com"):
    return DomainRecord(
        registrable=registrable, public_suffix=suffix, subdomain="", subdomain_count=0,
        first_detections=dict(detections or {}), brands=set(brands), url_count=1)


def lifecycle_record(registrable, verdict, detection=None, takedown=None,
                     brands=(), suffix="com", flags=frozenset(), sources=("apwg",)):
    return LifecycleRecord(
        domain=domain_record(registrable, {s: ts("2024-01-01T00:00:00") for s in sources},
                             brands, suffix),
        registration=None,
        detection_delay=timedelta(days=detection) if detection is not None else None,
        takedown_delay=timedelta(days=takedown) if takedown is not None else None,
        classification=ClassificationResult(registrable, frozenset(flags), verdict),
    )


def merge_one(sources):
    """The event the fold gives a.com, or None when it gives none."""
    events, skipped = fold(sources)
    assert set(events) <= {"a.com"} and skipped == 0
    return events.get("a.com")


def oracle_registrations(written):
    """Sort each domain's kept rows: the first registration row and the last zone_last_seen win.

    Returns the events and the count of rows skipped.
    """
    sources = [r for r in written
               if r.kind in KIND_ORDER and r.registrable != NOT_A_HOST and r.at is not None]
    events = {}
    for domain in {s.registrable for s in sources}:
        rows = [s for s in sources if s.registrable == domain and s.kind != KIND_ZONE_LAST]
        seen = sorted(s.at for s in sources if s.registrable == domain and s.kind == KIND_ZONE_LAST)
        if rows:
            first = sorted(rows, key=lambda s: (s.at, KIND_ORDER[s.kind]))[0]
            events[domain] = RegistrationEvent(domain, first.at, first.kind,
                                               seen[-1] if seen else None)
    return events, len(written) - len(sources)


BASE = ts("2024-01-01T00:00:00")


@st.composite
def source_rows(draw):
    """Rows over four domains and five instants, some repeated, and the same rows reordered.

    With so few domains and instants, rows tie on their instant (kind order
    breaks the tie) and some domains have only last-seen rows. Some rows are
    skipped: an unknown kind, a name that is not a host, a bad timestamp.
    """
    row = st.builds(
        SourceRow,
        kind=st.sampled_from(sorted(KIND_ORDER) + [UNKNOWN_KIND]),
        registrable=st.sampled_from(["a.com", "b.com", "c.net", "d.org", NOT_A_HOST]),
        at=st.none() | st.integers(min_value=0, max_value=4).map(
            lambda d: BASE + timedelta(days=d)),
    )
    rows = draw(st.lists(row, max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return rows, draw(st.permutations(rows))


# a tie on the instant, two last-seen rows, and a domain with last-seen rows only
TIE_AND_LAST_SEEN = [
    src(KIND_RDAP, "2024-01-01T00:00:00"), src(KIND_WHOIS, "2024-01-01T00:00:00"),
    src(KIND_ZONE_LAST, "2024-02-01T00:00:00"), src(KIND_ZONE_LAST, "2024-03-01T00:00:00"),
    src(KIND_ZONE_LAST, "2024-02-01T00:00:00", "b.com"),
]


class TestMergeRegistration:
    def test_zone_first_beats_later_rdap(self):
        event = merge_one([
            src(KIND_RDAP, "2024-01-05T00:00:00"),
            src(KIND_ZONE_FIRST, "2024-01-04T00:00:00"),
        ])
        assert event.registered_at == ts("2024-01-04T00:00:00")
        assert event.provenance == KIND_ZONE_FIRST

    def test_only_last_seen_is_no_evidence(self):
        assert fold([src(KIND_ZONE_LAST, "2024-02-01T00:00:00")]) == ({}, 0)

    def test_tie_broken_by_kind_order(self):
        event = merge_one([
            src(KIND_RDAP, "2024-01-05T00:00:00"),
            src(KIND_WHOIS, "2024-01-05T00:00:00"),
        ])
        assert event.provenance == KIND_WHOIS

    def test_latest_last_seen_wins(self):
        event = merge_one([
            src(KIND_WHOIS, "2024-01-01T00:00:00"),
            src(KIND_ZONE_LAST, "2024-02-01T00:00:00"),
            src(KIND_ZONE_LAST, "2024-03-01T00:00:00"),
        ])
        assert event.deregistered_at == ts("2024-03-01T00:00:00")

    @given(st.permutations(list(range(4))))
    def test_order_independent(self, order):
        sources = [
            src(KIND_RDAP, "2024-01-05T00:00:00"),
            src(KIND_ZONE_FIRST, "2024-01-04T00:00:00"),
            src(KIND_CT, "2024-01-06T00:00:00"),
            src(KIND_ZONE_LAST, "2024-03-01T00:00:00"),
        ]
        reference = merge_one(sources)
        assert merge_one([sources[i] for i in order]) == reference

    def test_merge_all_skips_dereg_only_domains(self):
        events, _ = fold([
            src(KIND_WHOIS, "2024-01-01T00:00:00", "a.com"),
            src(KIND_ZONE_LAST, "2024-02-01T00:00:00", "b.com"),
        ])
        assert set(events) == {"a.com"}

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(source_rows())
    @example((TIE_AND_LAST_SEEN, TIE_AND_LAST_SEEN[::-1]))
    def test_merge_all_equals_oracle(self, drawn):
        rows, reordered = drawn
        expected = oracle_registrations(rows)
        assert fold(rows) == expected
        assert fold(reordered) == expected


class TestDelays:
    REG = RegistrationEvent("a.com", ts("2024-01-01T00:00:00"), KIND_RDAP,
                            deregistered_at=ts("2024-03-12T12:00:00"))

    def test_detection_delay_fractional_days(self):
        delay = detection_delay(self.REG, {"apwg": ts("2024-01-17T07:12:00")}, "apwg")
        assert to_days(delay) == pytest.approx(16.3)

    def test_detection_absent(self):
        assert detection_delay(self.REG, {}, "apwg") is None

    def test_detection_equals_registration(self):
        delay = detection_delay(self.REG, {"apwg": ts("2024-01-01T00:00:00")}, "apwg")
        assert delay == timedelta(0)

    def test_takedown_delay(self):
        delay = takedown_delay(self.REG, {"apwg": ts("2024-03-01T00:00:00")}, "apwg")
        assert to_days(delay) == pytest.approx(11.5)

    def test_takedown_without_dereg(self):
        reg = RegistrationEvent("a.com", ts("2024-01-01T00:00:00"), KIND_RDAP)
        assert takedown_delay(reg, {"apwg": ts("2024-03-01T00:00:00")}, "apwg") is None

    def test_negative_takedown_flagged_in_records(self, rules):
        rec = domain_record("a.com", {"apwg": ts("2024-03-02T00:00:00")})
        reg = RegistrationEvent("a.com", ts("2024-01-01T00:00:00"), KIND_RDAP,
                                deregistered_at=ts("2024-03-01T00:00:00"))
        classification = ClassificationResult("a.com", frozenset(), VERDICT_COMPROMISED)
        (life,) = build_lifecycle_records([rec], [classification], {"a.com": reg}, "apwg")
        assert life.takedown_delay == timedelta(days=-1)
        assert DEREGISTERED_BEFORE_DETECTION in life.data_flags


class TestBlocklistLag:
    """Per-source lag behind the reference list: aggregate(records, "lag", "source", reference)."""

    @staticmethod
    def lag_rows(*detections, reference="apwg"):
        records = []
        for i, by_source in enumerate(detections):
            record = lifecycle_record(f"d{i}.com", VERDICT_MALICIOUS)
            detections = {s: ts(at) for s, at in by_source.items()}
            records.append(record._replace(
                domain=record.domain._replace(first_detections=detections)))
        report = aggregate(records, "lag", "source", reference)
        return {row.key: row for row in report.rows}, report.ungrouped

    def test_phishtank_lag(self):
        rows, _ = self.lag_rows({"apwg": "2024-01-01T00:00:00",
                                 "phishtank": "2024-01-05T09:36:00"})
        assert rows["phishtank"].median_days == pytest.approx(4.4)

    def test_reference_only(self):
        rows, ungrouped = self.lag_rows({"apwg": "2024-01-01T00:00:00"},
                                        {"apwg": "2024-01-01T00:00:00",
                                         "openphish": "2024-01-02T00:00:00"})
        assert ungrouped == 1
        assert list(rows) == ["openphish"] and rows["openphish"].count == 1

    def test_negative_lag_retained(self):
        rows, _ = self.lag_rows({"apwg": "2024-01-03T00:00:00",
                                 "openphish": "2024-01-01T00:00:00"})
        assert rows["openphish"].median_days == pytest.approx(-2)

    def test_reference_missing(self):
        rows, _ = self.lag_rows({"openphish": "2024-01-01T00:00:00"})
        assert (rows["openphish"].count, rows["openphish"].missing) == (0, 1)

    def test_antisymmetry(self):
        detections = {"apwg": "2024-01-01T00:00:00", "openphish": "2024-01-04T00:00:00"}
        forward, _ = self.lag_rows(detections, reference="apwg")
        backward, _ = self.lag_rows(detections, reference="openphish")
        assert forward["openphish"].median_days == -backward["apwg"].median_days


class TestAggregate:
    def test_single_group_arithmetic(self):
        records = [
            lifecycle_record(f"d{i}.com", VERDICT_MALICIOUS, detection=d)
            for i, d in enumerate([1, 1, 2, 10, 100])
        ]
        report = aggregate(records, "detection_delay", "verdict", "apwg")
        (row,) = report.rows
        assert row.count == 5
        assert row.mean_days == pytest.approx(22.8)
        assert row.median_days == pytest.approx(2)

    def test_verdict_medians(self):
        records = [
            lifecycle_record("m.com", VERDICT_MALICIOUS, detection=16.3),
            lifecycle_record("c.com", VERDICT_COMPROMISED, detection=86),
        ]
        report = aggregate(records, "detection_delay", "verdict", "apwg")
        medians = {row.key: row.median_days for row in report.rows}
        assert medians[VERDICT_MALICIOUS] == pytest.approx(16.3)
        assert medians[VERDICT_COMPROMISED] == pytest.approx(86)

    def test_missing_column_and_totals(self):
        records = [
            lifecycle_record("a.com", VERDICT_MALICIOUS, detection=5),
            lifecycle_record("b.com", VERDICT_MALICIOUS),           # missing metric
            lifecycle_record("c.com", VERDICT_COMPROMISED),
        ]
        report = aggregate(records, "detection_delay", "verdict", "apwg")
        totals = sum(r.count + r.missing for r in report.rows) + report.ungrouped
        assert totals == len(records)

    def test_rows_sorted_by_count_desc(self):
        records = (
            [lifecycle_record(f"a{i}.com", VERDICT_MALICIOUS, detection=1) for i in range(3)]
            + [lifecycle_record("z.com", VERDICT_COMPROMISED, detection=2)]
        )
        report = aggregate(records, "detection_delay", "verdict", "apwg")
        assert [r.key for r in report.rows] == [VERDICT_MALICIOUS, VERDICT_COMPROMISED]

    def test_grouping_attribute_absent(self):
        records = [lifecycle_record("a.com", VERDICT_MALICIOUS, detection=1)]
        with pytest.raises(EmptyInput):
            aggregate(records, "detection_delay", "brand", "apwg")

    def test_empty_records(self):
        with pytest.raises(EmptyInput):
            aggregate([], "detection_delay", "verdict", "apwg")

    def test_single_record_mean_equals_median(self):
        records = [lifecycle_record("a.com", VERDICT_MALICIOUS, detection=7.25)]
        (row,) = aggregate(records, "detection_delay", "verdict", "apwg").rows
        assert row.mean_days == row.median_days == pytest.approx(7.25)

    def test_median_invariant_under_duplication(self):
        records = [
            lifecycle_record(f"d{i}.com", VERDICT_MALICIOUS, detection=d)
            for i, d in enumerate([1, 2, 50])
        ]
        once = aggregate(records, "detection_delay", "verdict", "apwg").rows[0]
        twice = aggregate(records + records, "detection_delay", "verdict", "apwg").rows[0]
        assert once.median_days == twice.median_days

    def test_brand_grouping_multi_membership(self):
        records = [
            lifecycle_record("a.com", VERDICT_MALICIOUS, detection=3,
                             brands=("facebook", "usps")),
        ]
        report = aggregate(records, "detection_delay", "brand", "apwg")
        assert {r.key for r in report.rows} == {"facebook", "usps"}

    def test_lag_by_source(self):
        record = lifecycle_record("a.com", VERDICT_MALICIOUS, sources=("apwg", "phishtank"))
        detections = record.domain.first_detections
        detections["phishtank"] = detections["apwg"] + timedelta(days=4.4)
        report = aggregate([record], "lag", "source", "apwg")
        (row,) = report.rows
        assert row.key == "phishtank"
        assert row.median_days == pytest.approx(4.4)


class TestIdentity:
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_delay_sum_identity(self, reg_off, det_off, dereg_off):
        base = ts("2024-01-01T00:00:00")
        reg_at = base + timedelta(seconds=reg_off)
        det_at = reg_at + timedelta(seconds=det_off)
        dereg_at = det_at + timedelta(seconds=dereg_off)
        reg = RegistrationEvent("a.com", reg_at, KIND_RDAP, deregistered_at=dereg_at)
        detections = {"apwg": det_at}
        det = detection_delay(reg, detections, "apwg")
        take = takedown_delay(reg, detections, "apwg")
        assert det + take == dereg_at - reg_at  # exact identity on timedeltas


class TestLoadSources:
    def test_fixture_loads(self, data_dir):
        events, skipped = load_timestamp_sources(data_dir / "timestamp_sources.csv")
        assert skipped == 0
        kinds = {e.provenance for e in events.values()}
        # a zone_last_seen row is kept as a deregistration
        assert any(e.deregistered_at for e in events.values())
        assert KIND_PDNS in kinds and KIND_CT in kinds

    def test_unknown_kind_skipped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("registrable,kind,at\na.com,carrier_pigeon,2024-01-01T00:00:00Z\n"
                     "b.com,whois,2024-01-01T00:00:00Z\n")
        events, skipped = load_timestamp_sources(p)
        assert len(events) == 1 and skipped == 1

    def test_domains_normalized_like_feed_hosts(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("registrable,kind,at\nbücher.de,whois,2024-01-01T00:00:00Z\n"
                     "Example.com.,rdap,2024-01-01T00:00:00Z\nbad..com,whois,2024-01-01T00:00:00Z\n")
        events, skipped = load_timestamp_sources(p)
        assert list(events) == ["xn--bcher-kva.de", "example.com"]
        assert skipped == 1
