"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

from __future__ import annotations

import csv
import filecmp
import random
import string
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from phishlife import classifier, dnsmon, lifecycle, squatgen
from phishlife.cli import main

from test_classifier import clusters_oracle, levenshtein_oracle

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "config.json")
UTC = timezone.utc
T0 = datetime(2024, 6, 6, tzinfo=UTC)
DELAYS = dnsmon.backoff_delays(0.5, 8.0)  # the backoff_base_ms and backoff_cap_ms defaults

LABEL_ALPHABET = string.ascii_lowercase + string.digits


def ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def random_label(rng: random.Random, max_len: int = 12) -> str:
    n = rng.randint(1, max_len)
    return "".join(rng.choice(LABEL_ALPHABET) for _ in range(n))


def test_squat_engine_known_impersonation_variants():
    started = time.perf_counter()
    facebook = {c.label for c in squatgen.generate("facebook.com")}
    google = {c.label for c in squatgen.generate("google.com")}
    elapsed = time.perf_counter() - started

    for variant in ("facebook0", "faaebook", "faceb0ok", "face-book", "dfacebook"):
        assert variant in facebook, variant
    assert "goole" in google
    assert elapsed < 1.0, f"generation took {elapsed:.3f}s"
    ok(f"squat engine emits the five known facebook variants and goole ({elapsed * 1000:.0f} ms)")


def test_bitflip_soundness_exhaustive():
    rng = random.Random(2024)
    started = time.perf_counter()
    checked = 0
    for _ in range(1000):
        label = random_label(rng)
        for cand in squatgen.generate(f"{label}.com"):
            if cand.technique is not squatgen.Technique.BITFLIP:
                continue
            checked += 1
            assert len(cand.label) == len(label)
            diffs = [(a, b) for a, b in zip(label, cand.label) if a != b]
            assert len(diffs) == 1, (label, cand.label)
            xor = ord(diffs[0][0]) ^ ord(diffs[0][1])
            assert xor != 0 and (xor & (xor - 1)) == 0, (label, cand.label)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"bitflip check took {elapsed:.1f}s"
    ok(f"bitflip soundness on 1000 random labels ({checked} candidates, {elapsed:.2f}s)")


def test_levenshtein_matches_oracle_on_10k_pairs():
    rng = random.Random(42)
    mismatches = 0
    for _ in range(10_000):
        a, b = random_label(rng), random_label(rng)
        if classifier.levenshtein(a, b) != levenshtein_oracle(a, b):
            mismatches += 1
    assert mismatches == 0
    ok("clustering distance equals brute-force DP oracle on 10,000 pairs")


def test_classifier_corpus_exact_labels(corpus_table, classifier_ctx):
    with open(DATA / "corpus40_expected.csv", newline="") as fh:
        expected = {row["registrable"]: (row["verdict"], row["flags"])
                    for row in csv.DictReader(fh)}
    results = classifier.classify_all(corpus_table.records, classifier_ctx)
    assert len(results) == 40

    for res in results:
        verdict, flags = expected[res.registrable]
        assert res.verdict == verdict, res.registrable
        assert ";".join(classifier.ordered_flags(res.flags)) == flags, res.registrable

    overlap = [r for r in results
               if {"brand_in_domain", "bulk_registered"} <= r.flags]
    assert overlap, "expected at least one brand+bulk overlap case"
    malicious = [r for r in results if r.verdict == classifier.VERDICT_MALICIOUS]
    assert sum(len(r.flags) for r in malicious) > len(malicious)
    ok(f"40-domain corpus matches hand labels ({len(overlap)} brand+bulk overlaps)")


def test_bulk_clustering_recovers_planted_clusters():
    def entry(name, minute, registrar="alibaba"):
        return classifier.RegistrationLogEntry(
            registrable=name,
            registered_at=datetime(2024, 5, 1, 10, minute, tzinfo=UTC),
            registrar=registrar,
        )

    planted_a = [f"usps-pay{i}.top" for i in range(1, 4)]      # size 3, distance 1
    planted_b = [f"track-usps-{i}.shop" for i in range(1, 6)]  # size 5, distance 1
    log = [entry(n, i) for i, n in enumerate(planted_a)]
    log += [entry(n, 10 + i) for i, n in enumerate(planted_b)]

    rng = random.Random(7)
    decoys = []
    while len(decoys) < 14:  # singletons, far apart in edit distance
        name = random_label(rng, 12) + random_label(rng, 6) + ".com"
        if all(levenshtein_oracle(name.split(".")[0], d.split(".")[0]) > 2 for d in decoys):
            decoys.append(name)
    log += [entry(d, 20 + i) for i, d in enumerate(decoys)]
    # a same-registrar pair below min cluster size
    log += [entry("pairx-1.net", 40), entry("pairx-2.net", 41)]
    # similar names split across registrars
    log += [entry("shop-z1.top", 45, "godaddy"), entry("shop-z2.top", 46, "namesilo")]
    # similar names on different days
    log += [
        classifier.RegistrationLogEntry("retry-a1.com", datetime(2024, 5, 2, tzinfo=UTC), "alibaba"),
        classifier.RegistrationLogEntry("retry-a2.com", datetime(2024, 5, 3, tzinfo=UTC), "alibaba"),
    ]
    assert len(log) == 8 + 20

    window = timedelta(hours=24)
    clusters = classifier.cluster_bulk(log, window, max_edit_distance=2, min_cluster_size=3)
    got = {c.members for c in clusters}
    assert got == {frozenset(planted_a), frozenset(planted_b)}
    assert got == clusters_oracle(log, window, 2, 3)
    ok("bulk clustering recovers exactly the planted 3- and 5-clusters among 20 decoys")


def test_retry_contract_and_backoff():
    vantage = dnsmon.VantagePoint("v1", "192.0.2.1:53", "us")

    def script(fails):
        return dnsmon.ScriptedResolver({"a.com": {"A": [
            {"values": ["192.0.2.1"], "ttl": 300, "fail_count_before_success": fails},
        ]}})

    pairs, lookups = [("a.com", vantage)], [(vantage, "a.com", "A")]
    _, (snap,), _ = dnsmon.collect_snapshots(pairs, lookups, script(4), T0, DELAYS)
    assert snap.status == "ok" and snap.attempts == 5

    _, (snap2,), _ = dnsmon.collect_snapshots(pairs, lookups, script(5), T0, DELAYS)
    assert snap2.status == "failed" and snap2.attempts == 5
    resolver = script(5)
    (outcome,) = resolver.resolve([(vantage, "a.com", "A")], DELAYS)
    assert outcome.attempts == 5 and outcome.error == "A:timeout"
    assert resolver.query(vantage, "a.com", "A").values == ("192.0.2.1",)  # no sixth attempt
    # the backoff a live resolver waits between the five attempts
    assert DELAYS == sorted(DELAYS) == [0.5, 1.0, 2.0, 4.0]
    ok("retries stop at 5 attempts (ok after 4 failures, failed after 5), backoff nondecreasing")


def test_scheduler_three_rounds_in_ninety_minutes(tmp_path):
    vantages = [dnsmon.VantagePoint("v1", "192.0.2.1:53", "us"),
                dnsmon.VantagePoint("v2", "192.0.2.2:53", "eu")]
    resolver = dnsmon.ScriptedResolver({
        "a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 60}]},
        "b.com": {"A": [{"values": ["192.0.2.2"], "ttl": 60}]},
    })
    store = dnsmon.SnapshotStore(tmp_path / "snaps.jsonl")
    ticks = dnsmon.run_schedule(["a.com", "b.com"], vantages, ("A",), DELAYS, resolver, store,
                                T0, timedelta(minutes=30), T0 + timedelta(minutes=90), [], False)
    assert ticks == 3
    per_key: dict = {}
    for snap in store.load():
        per_key.setdefault((snap.registrable, snap.vantage_id), []).append(snap)
    assert all(len(v) == 3 for v in per_key.values())
    assert len(per_key) == 4
    ok("simulated 90 minutes at 30-minute interval yields exactly 3 snapshots per domain per vantage")


def test_change_detection_fixture(tmp_path):
    vantages = dnsmon.load_vantages(DATA / "vantages.json")
    resolver = dnsmon.ScriptedResolver.from_file(DATA / "resolver_fixture.json")
    store = dnsmon.SnapshotStore(tmp_path / "snaps.jsonl")
    domains = ["flux.top", "static1.com", "static2.com", "static3.com"]
    dnsmon.run_schedule(domains, vantages, ("A", "NS"), DELAYS, resolver, store,
                        T0, timedelta(minutes=30), T0 + timedelta(minutes=60), [], False)

    changes = dnsmon.detect_changes(store.load())
    assert len(changes) == 1
    assert changes[0].rrtype == "NS" and changes[0].registrable == "flux.top"
    changed = {c.registrable for c in changes}
    rate = 100.0 * len(changed) / len(domains)
    assert rate == pytest.approx(25.0)
    # static2.com drifts only in TTL and must not appear
    assert "static2.com" not in changed
    ok("1-of-4 NS swap fixture reports a 25% change rate and a single RecordChange(NS)")


def test_ttl_bucket_fixture():
    ttls = [45, 300, 3600, 50000, 90000]
    snaps = [
        dnsmon.DnsSnapshot(
            registrable=f"d{i}.example", vantage_id="v1", taken_at=T0,
            rrsets=(dnsmon.RrSet("A", ("192.0.2.1",), ttl),),
            status="ok", attempts=1,
        )
        for i, ttl in enumerate(ttls)
    ]
    summary = dnsmon.ttl_stats(snaps)
    assert summary.under_60s == 1
    assert summary.under_3600s == 2
    assert summary.over_43200s == 2
    assert summary.between_43200s_and_86400s == 1
    assert summary.overall_median_ttl == pytest.approx(3600, abs=0.01)
    assert summary.overall_mean_ttl == pytest.approx(28789.0, abs=0.01)
    ok("TTL multiset {45,300,3600,50000,90000} buckets to 1/2/2/1 with median 3600, mean 28789.00")


def test_lifecycle_identity_and_planted_medians(corpus_table, classifier_ctx):
    registrations, _ = lifecycle.load_timestamp_sources(DATA / "timestamp_sources.csv")
    classifications = classifier.classify_all(corpus_table.records, classifier_ctx)
    records = lifecycle.build_lifecycle_records(
        corpus_table.records, classifications, registrations, "apwg")

    complete = [
        r for r in records
        if r.registration is not None
        and r.registration.deregistered_at is not None
        and "apwg" in r.domain.first_detections
    ]
    assert complete, "fixture must contain fully-timestamped records"
    for rec in complete:
        total = rec.registration.deregistered_at - rec.registration.registered_at
        assert rec.detection_delay + rec.takedown_delay == total  # exact identity

    detection = lifecycle.aggregate(records, "detection_delay", "verdict", "apwg")
    medians = {row.key: row.median_days for row in detection.rows}
    assert medians["MaliciousRegistration"] == pytest.approx(16.3, abs=0.05)
    assert medians["Compromised"] == pytest.approx(86.0, abs=0.05)

    takedown = lifecycle.aggregate(records, "takedown_delay", "verdict", "apwg")
    take_medians = {row.key: row.median_days for row in takedown.rows}
    assert take_medians["MaliciousRegistration"] == pytest.approx(11.5, abs=0.05)
    ok(f"delay identity exact on {len(complete)} records; planted medians 16.3/86/11.5 reproduced")


def test_end_to_end_determinism(tmp_path, capsys):
    started = time.perf_counter()
    first, second = tmp_path / "run1", tmp_path / "run2"
    assert main(["report", "--config", CONFIG, "--out-dir", str(first)]) == 0
    assert main(["report", "--config", CONFIG, "--out-dir", str(second)]) == 0
    capsys.readouterr()  # command output is not under test here
    elapsed = time.perf_counter() - started

    csvs = sorted(p.name for p in first.glob("*.csv"))
    assert csvs, "report produced no CSVs"
    assert csvs == sorted(p.name for p in second.glob("*.csv"))
    for name in csvs:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    jsonls = sorted(p.name for p in first.glob("*.jsonl"))
    for name in jsonls:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    ok(f"two pipeline runs over the corpus are byte-identical "
       f"({len(csvs)} CSVs, {len(jsonls)} JSONL files, {elapsed:.1f}s for both runs)")
