"""The feed and lifecycle path against oracles written with plain loops.

Each oracle computes from the drawn parts themselves, not through the code
under test: the domain table groups entries whose registrable, subdomain
and suffix are known by construction, and the aggregates group records by
hand and use ``statistics``. Two more checks hold the path to its input
order and format: a lines feed and a JSON feed of the same records load
alike, and ``report`` writes the same bytes over shuffled feed lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings, strategies as st

from phishlife.classifier import (
    BRAND_IN_DOMAIN, BULK_REGISTERED, RANDOM_LOOKING, SQUATTED, ClassificationResult,
    VERDICT_COMPROMISED, VERDICT_MALICIOUS,
)
from phishlife.cli import main
from phishlife.ingest import DomainRecord, FeedEntry, SuffixRules, build_domain_table, load_feed
from phishlife.lifecycle import AGGREGATES, EmptyInput, LifecycleRecord, aggregate

from test_cli import config_copy

UTC = timezone.utc
BASE = datetime(2024, 1, 1, tzinfo=UTC)
BOUNDED = settings(max_examples=60, derandomize=True, deadline=None)
DATA = Path(__file__).parent / "data"

RULES = SuffixRules(frozenset({"com", "net", "co.uk"}), frozenset(), frozenset())
# (registrable, public suffix, suffix listed?)
REGISTRABLES = [("a.com", "com", True), ("b.com", "com", True),
                ("c.co.uk", "co.uk", True), ("d.zz", "zz", False)]
SOURCES = ["apwg", "openphish", "phishtank"]
SUBDOMAINS = ["", "www", "x", "m.x"]
BRANDS = [None, "PayPal", "paypal", "Apple"]
UNPARSEABLE = "http://" + "a" * 64 + ".com/"  # a label longer than 63 characters


def instant(hours: int) -> datetime:
    return BASE + timedelta(hours=hours)


# ------------------------------------------------------------ domain table


@st.composite
def feed_entries(draw):
    """Entries with their parts, some repeated, maybe one unparseable URL, and a permutation.

    Each part is None for the unparseable URL, else (registrable, suffix,
    listed, subdomain). Few instants make detections tie.
    """
    part = st.tuples(st.sampled_from(REGISTRABLES), st.sampled_from(SUBDOMAINS))
    drawn = draw(st.lists(st.tuples(part, st.sampled_from(SOURCES), st.integers(0, 3),
                                     st.sampled_from(BRANDS)), max_size=12))
    pairs = []
    for ((registrable, suffix, listed), sub), source, hours, brand in drawn:
        host = f"{sub}.{registrable}" if sub else registrable
        url = f"http://{host}/{len(pairs)}"
        pairs.append((FeedEntry(url, instant(hours), source, brand),
                      (registrable, suffix, listed, sub)))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(pairs)))
        pairs.insert(at, (FeedEntry(UNPARSEABLE, instant(0), draw(st.sampled_from(SOURCES))), None))
    return pairs, draw(st.permutations(pairs))


def table_oracle(pairs) -> tuple[list[DomainRecord], int, dict[str, int]]:
    """Group entries by their known registrable with plain loops.

    Returns the records, the URLs whose host fails, and every entry's
    source counted.
    """
    grouped: dict[str, list] = {}
    skipped = 0
    urls_by_source: dict[str, int] = {}
    for entry, parts in pairs:
        urls_by_source[entry.source] = urls_by_source.get(entry.source, 0) + 1
        if parts is None:
            skipped += 1
        else:
            grouped.setdefault(parts[0], []).append((entry, parts))
    records = []
    for registrable in sorted(grouped):
        rows = grouped[registrable]
        _, suffix, listed, _ = rows[0][1]
        detections: dict[str, datetime] = {}
        for entry, _ in rows:
            if entry.source not in detections or entry.detected_at < detections[entry.source]:
                detections[entry.source] = entry.detected_at
        first = min((entry.detected_at, parts[3]) for entry, parts in rows)
        records.append(DomainRecord(
            registrable=registrable,
            public_suffix=suffix,
            subdomain=first[1],
            subdomain_count=len({parts[3] for _, parts in rows if parts[3]}),
            first_detections=detections,
            brands={entry.brand.lower() for entry, _ in rows if entry.brand},
            url_count=len(rows),
            suffix_unlisted=not listed,
        ))
    return records, skipped, urls_by_source


@BOUNDED
@given(feed_entries())
def test_domain_table_equals_oracle(drawn):
    pairs, shuffled = drawn
    records, skipped, urls_by_source = table_oracle(pairs)
    for order in (pairs, shuffled):
        table = build_domain_table((entry for entry, _ in order), RULES)
        assert table.records == records
        assert table.skipped_urls == skipped
        assert table.urls_by_source == urls_by_source


# ------------------------------------------------------------ aggregates

REFERENCE = "apwg"


@st.composite
def lifecycle_records(draw):
    """Records over a few brands, suffixes, flags, verdicts and sources; delays may be absent."""
    days = st.none() | st.integers(-3, 6).map(lambda n: timedelta(hours=12 * n))
    records = []
    for i in range(draw(st.integers(0, 7))):
        sources = draw(st.sets(st.sampled_from(SOURCES)))
        registrable = f"d{i}.com"
        domain = DomainRecord(
            registrable=registrable, public_suffix=draw(st.sampled_from(["com", "net"])),
            subdomain="", subdomain_count=0,
            first_detections={s: instant(draw(st.integers(0, 4)) * 12) for s in sorted(sources)},
            brands=draw(st.sets(st.sampled_from(["paypal", "apple"]))), url_count=1)
        flags = draw(st.sets(st.sampled_from(
            [BRAND_IN_DOMAIN, SQUATTED, RANDOM_LOOKING, BULK_REGISTERED])))
        verdict = draw(st.sampled_from([VERDICT_MALICIOUS, VERDICT_COMPROMISED]))
        records.append(LifecycleRecord(
            domain=domain, registration=None,
            detection_delay=draw(days), takedown_delay=draw(days),
            classification=ClassificationResult(registrable, frozenset(flags), verdict)))
    return records


def group_values(record: LifecycleRecord, group: str) -> list[str]:
    if group == "brand":
        return list(record.domain.brands)
    if group == "tld":
        return [record.domain.public_suffix]
    if group == "flag_category":
        return list(record.classification.flags)
    if group == "verdict":
        return [record.classification.verdict]
    return list(record.domain.first_detections)


def metric_days(record: LifecycleRecord, metric: str, group: str):
    if metric == "lag":
        detections = record.domain.first_detections
        if REFERENCE not in detections:
            return None
        delta = detections[group] - detections[REFERENCE]
    else:
        delta = getattr(record, metric)
        if delta is None:
            return None
    return delta.total_seconds() / 86400


def aggregate_oracle(records, metric: str, group: str):
    """(rows, ungrouped) from hand-grouped records, or None where no record is grouped."""
    values: dict[str, list[float]] = {}
    missing: dict[str, int] = {}
    ungrouped = 0
    for record in records:
        keys = [k for k in group_values(record, group) if not (metric == "lag" and k == REFERENCE)]
        if not keys:
            ungrouped += 1
        for key in keys:
            values.setdefault(key, [])
            missing.setdefault(key, 0)
            value = metric_days(record, metric, group=key)
            if value is None:
                missing[key] += 1
            else:
                values[key].append(value)
    if not values:
        return None
    rows = [(key, len(v), statistics.fmean(v) if v else None,
             statistics.median_low(v) if v else None, missing[key])
            for key, v in values.items()]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows, ungrouped


@BOUNDED
@given(lifecycle_records())
def test_every_aggregate_equals_oracle(records):
    for metric, group in AGGREGATES:
        expected = aggregate_oracle(records, metric, group)
        try:
            report = aggregate(records, metric, group, REFERENCE)
        except EmptyInput:
            assert expected is None, (metric, group)
            continue
        rows = [(r.key, r.count, r.mean_days, r.median_days, r.missing) for r in report.rows]
        assert (rows, report.ungrouped) == expected, (metric, group)


# ------------------------------------------------------------ feed formats

FEED_URLS = ["http://a.com/1", " http://b.com/x ", "c.net", "http://bücher.de/"]
FEED_TIMES = ["2024-06-01T00:00:00Z", "2024-06-02 12:00", "2024-06-03", "20240603T000000Z"]


@st.composite
def feed_records(draw):
    """(detected_at, url, source, brand) records; a compact timestamp or a blank url is malformed."""
    record = st.tuples(st.sampled_from(FEED_TIMES), st.sampled_from(FEED_URLS + [" "]),
                       st.sampled_from(SOURCES + [" apwg "]),
                       st.sampled_from([None, "PayPal", " apple ", ""]))
    good = st.tuples(st.sampled_from(FEED_TIMES[:3]), st.sampled_from(FEED_URLS),
                     st.sampled_from(SOURCES), st.sampled_from([None, "PayPal"]))
    records = draw(st.lists(record, max_size=8))
    return draw(st.permutations(records + draw(st.lists(good, min_size=1, max_size=3))))


@BOUNDED
@given(feed_records())
def test_lines_and_json_feeds_load_alike(records):
    lines = "".join("\t".join(r[:3] if r[3] is None else r) + "\n" for r in records)
    objs = [{"detected_at": t, "url": u, "source": s, **({} if b is None else {"brand": b})}
            for t, u, s, b in records]
    with tempfile.TemporaryDirectory() as tmp:
        as_lines, as_json = Path(tmp) / "feed.tsv", Path(tmp) / "feed.json"
        as_lines.write_text(lines, encoding="utf-8")
        as_json.write_text(json.dumps(objs), encoding="utf-8")
        from_lines, from_json = load_feed(as_lines, "lines"), load_feed(as_json, "json")
    assert from_lines.entries == from_json.entries
    assert from_lines.skipped == from_json.skipped
    assert len(from_lines.entries) + from_lines.skipped == len(records)


# ------------------------------------------------------------ report

CORPUS_LINES = [line for line in (DATA / "corpus40_feed.tsv").read_text().splitlines()
                if line and not line.startswith("#")]


def run_report(tmp: Path, feed_text: str, out: str) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, stdout, stderr and output bytes of ``report`` over a feed at one path."""
    (tmp / "feed.tsv").write_text(feed_text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["report", "--config", str(tmp / "config.json"), "--out-dir", str(tmp / out)])
    outputs = {p.name: p.read_bytes() for p in sorted((tmp / out).iterdir())}
    return code, stdout.getvalue(), stderr.getvalue(), outputs


def test_report_is_independent_of_feed_line_order(monkeypatch):
    # Outputs are not fsynced: removing fsynced files took 50-70 ms a
    # file on ext4 mounted with discard, most of this test's time, and what
    # it checks does not depend on durability.
    monkeypatch.setattr(os, "fsync", lambda fd: None)

    @settings(max_examples=10, derandomize=True, deadline=None)
    @given(st.lists(st.sampled_from(CORPUS_LINES), min_size=1, max_size=14).flatmap(
        lambda lines: st.tuples(st.just(lines), st.permutations(lines))))
    def check(drawn):
        lines, shuffled = drawn
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            # no resolver fixture: report runs ingest, classify and lifecycle
            config_copy(tmp, {"feeds": [str(tmp / "feed.tsv")], "resolver_fixture": None})
            first = run_report(tmp, "".join(l + "\n" for l in lines), "first")
            second = run_report(tmp, "".join(l + "\n" for l in shuffled), "second")
        assert first == second
        assert first[0] in (0, 3)

    check()
