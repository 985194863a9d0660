from __future__ import annotations

import contextlib
import csv
import itertools
import random
import string
import time
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from phishlife import classifier
from phishlife.classifier import (
    ClassifierContext,
    EmptyAllowlist,
    RegistrationLogEntry,
    VERDICT_ALLOWLISTED,
    VERDICT_COMPROMISED,
    VERDICT_MALICIOUS,
    VERDICT_PLATFORM,
    classify,
    classify_all,
    cluster_bulk,
    is_random_looking,
    levenshtein,
    load_allowlist,
    load_registration_log,
    match_brand,
    ordered_flags,
)
from phishlife.ingest import DomainRecord
from phishlife.squatgen import Brand, BrandCatalog

UTC = timezone.utc
WORD_STRAT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=0, max_size=12)
# past one 64-bit word, from a small alphabet so that distances vary, with non-ASCII characters
LONG_STRAT = st.text(alphabet="ab-éж漢😀", max_size=150)


def record(registrable, subdomain="", suffix=None, sub_count=None):
    return DomainRecord(
        registrable=registrable,
        public_suffix=suffix or registrable.split(".", 1)[1],
        subdomain=subdomain,
        subdomain_count=(1 if subdomain else 0) if sub_count is None else sub_count,
        first_detections={}, brands=set(), url_count=1,
    )


def log_entry(registrable, ts, registrar):
    return RegistrationLogEntry(
        registrable=registrable,
        registered_at=datetime.fromisoformat(ts).replace(tzinfo=UTC),
        registrar=registrar,
    )


def levenshtein_oracle(a: str, b: str) -> int:
    """Full-matrix dynamic program, kept independent of the implementation."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[-1][-1]


class TestAllowlist:
    def test_csv_form(self, tmp_path):
        p = tmp_path / "allow.csv"
        p.write_text("1,google.com\n2,blogspot.com\n")
        assert load_allowlist(p) == {"google.com", "blogspot.com"}

    def test_duplicate_domain_loads_once(self, tmp_path):
        p = tmp_path / "allow.csv"
        p.write_text("5,dup.com\n9,DUP.com\n")
        assert load_allowlist(p) == {"dup.com"}

    def test_csv_header_skipped(self, tmp_path):
        p = tmp_path / "allow.csv"
        p.write_text("rank,domain\n1,google.com\n")
        assert load_allowlist(p) == {"google.com"}

    def test_plain_list_form(self, tmp_path):
        p = tmp_path / "allow.txt"
        p.write_text("google.com\nBLOGSPOT.COM\n")
        allow = load_allowlist(p)
        assert "blogspot.com" in allow

    def test_empty(self, tmp_path):
        p = tmp_path / "allow.csv"
        p.write_text("\n")
        with pytest.raises(EmptyAllowlist):
            load_allowlist(p)

    def test_domains_normalized_like_feed_hosts(self, tmp_path):
        p = tmp_path / "allow.csv"
        p.write_text("1,bücher.de\n2, Example.com. \n3,bad..com\nnot-a-host_\n")
        assert load_allowlist(p) == {"xn--bcher-kva.de", "example.com"}


class TestRegistrationLog:
    def test_domains_normalized_like_feed_hosts(self, tmp_path):
        p = tmp_path / "log.csv"
        p.write_text("registrable,registered_at,registrar\n"
                     "bücher.de,2024-05-01T10:00:00Z,r\n Example.com. ,2024-05-01T10:00:00Z,r\n")
        assert [e.registrable for e in load_registration_log(p)] == [
            "xn--bcher-kva.de", "example.com"]


ALLOW = frozenset({"blogspot.com", "facebook.com"})


class TestPrefilter:
    """classify's allowlist/platform prefilter, which runs before the four checks."""

    @pytest.fixture
    def ctx(self, classifier_ctx):
        return classifier_ctx._replace(allow=ALLOW)

    def test_platform_subdomain(self, ctx):
        rec = record("blogspot.com", subdomain="usps-tracking-service")
        assert classify(rec, ctx).verdict == VERDICT_PLATFORM

    def test_allowlisted_bare(self, ctx):
        assert classify(record("facebook.com"), ctx).verdict == VERDICT_ALLOWLISTED

    def test_candidate(self, ctx):
        assert classify(record("faceb0ok.com"), ctx).verdict in (
            VERDICT_MALICIOUS, VERDICT_COMPROMISED)


def match_brand_oracle(record, catalog):
    """match_brand as it was before its dict lookup: each top brand in rank
    order against each label, the registrable label first."""
    sld = record.registrable.split(".", 1)[0]
    scan = [("registrable_label", sld)]
    scan += [("subdomain", lbl) for lbl in record.subdomain.split(".") if lbl]
    for brand in catalog.top_brands():
        bid = brand.brand_id
        for location, label in scan:
            if len(bid) >= 4:
                hit = bid in label
            else:
                hit = bid == label or bid in label.split("-")
            if hit:
                return (bid, location)
    return None


# a small alphabet, so that ids overlap and sit inside labels often
BRAND_TEXT = st.text(alphabet="abc-", max_size=6)


class TestMatchBrand:
    @given(ids=st.lists(BRAND_TEXT, min_size=1, max_size=15, unique=True),
           top_n=st.integers(1, 15),
           sld=st.text(alphabet="abc-", min_size=1, max_size=14),
           subdomain=st.lists(st.text(alphabet="abc-", max_size=10), max_size=3))
    def test_equals_oracle(self, ids, top_n, sld, subdomain):
        # ids of 0-3 characters and ids with "-" included; a catalog holds
        # each id once
        catalog = BrandCatalog([Brand(bid, "x.com", rank) for rank, bid in enumerate(ids, 1)],
                               brand_top_n=top_n, squat_top_n=0)
        rec = record(f"{sld}.com", subdomain=".".join(subdomain))
        assert match_brand(rec, catalog) == match_brand_oracle(rec, catalog)

    def test_planted_ids_equal_oracle(self, catalog):
        ids = [b.brand_id for b in catalog.brands]
        rng = random.Random(8)
        for _ in range(500):
            parts = [rng.choice(ids + ["login", "x", "secure"]) for _ in range(rng.randint(1, 4))]
            sld = rng.choice(["", "-"]).join(parts)
            sub = ".".join(rng.choice(ids + ["www", "m"]) + rng.choice(["", "-app"])
                           for _ in range(rng.randint(0, 2)))
            rec = record(f"{sld}.com", subdomain=sub)
            assert match_brand(rec, catalog) == match_brand_oracle(rec, catalog), rec

    def test_brand_in_subdomain(self, catalog):
        rec = record("example.com", subdomain="usps-security")
        hit = match_brand(rec, catalog)
        assert hit == ("usps", "subdomain")

    def test_brand_in_registrable_label(self, catalog):
        rec = record("usps-security-login.com", subdomain="www")
        hit = match_brand(rec, catalog)
        assert hit == ("usps", "registrable_label")

    def test_no_hit(self, catalog):
        assert match_brand(record("example.com"), catalog) is None

    def test_short_brand_requires_token(self, catalog):
        # "dhl" must not fire inside an unrelated word
        assert match_brand(record("redhletter.com"), catalog) is None
        hit = match_brand(record("dhl-package.com"), catalog)
        assert hit == ("dhl", "registrable_label")

    def test_lowest_rank_wins(self, catalog):
        # label contains both usps (rank 2) and apple (rank 6)
        hit = match_brand(record("usps-apple.com"), catalog)
        assert hit.brand_id == "usps"


class TestRandomLooking:
    WORDS = frozenset({"secure", "login", "blog", "word"})

    def test_random_label(self):
        assert is_random_looking(record("xkqzvrtw.top"), self.WORDS, 4)

    def test_dictionary_words_present(self):
        assert not is_random_looking(record("securelogin.com"), self.WORDS, 4)

    def test_digits_only_label(self):
        assert is_random_looking(record("1234.com"), self.WORDS, 4)

    def test_strip_digits_then_match(self):
        # "s3cure"-style labels strip to a dictionary hit only if letters align
        assert not is_random_looking(record("blog123.com"), self.WORDS, 4)

    def test_short_words_ignored(self):
        words = frozenset({"cat"})
        assert is_random_looking(record("catcat.com"), words, 4)

    @given(WORD_STRAT)
    def test_matches_substring_scan_oracle(self, label):
        words = self.WORDS
        stripped = label.replace("-", "")
        oracle = not any(
            w in stripped for w in words if len(w) >= 4
        )
        rec = record((label or "x") + "x.com")
        stripped_rec = ((label or "x") + "x").replace("-", "")
        oracle_rec = not any(w in stripped_rec for w in words if len(w) >= 4)
        assert is_random_looking(rec, words, 4) == oracle_rec


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("usps-a1", "usps-a2", 1),
        ("alpha", "omega", 4),
        ("", "", 0),
        ("abc", "", 3),
        ("kitten", "sitting", 3),
    ])
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(st.one_of(WORD_STRAT, LONG_STRAT), st.one_of(WORD_STRAT, LONG_STRAT))
    def test_equals_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    @given(WORD_STRAT, WORD_STRAT)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(WORD_STRAT, WORD_STRAT, WORD_STRAT)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def clusters_oracle(entries, window, max_dist, min_size):
    """Independent pairwise-edge + BFS connected-components oracle."""
    buckets = {}
    for e in entries:
        start = int(e.registered_at.timestamp()) // int(window.total_seconds())
        buckets.setdefault((e.registrar, start), set()).add(e.registrable)
    out = set()
    for (_reg, _start), members in buckets.items():
        members = sorted(members)
        adj = {m: set() for m in members}
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if levenshtein_oracle(a.split(".")[0], b.split(".")[0]) <= max_dist:
                    adj[a].add(b)
                    adj[b].add(a)
        seen = set()
        for m in members:
            if m in seen:
                continue
            comp, queue = set(), [m]
            while queue:
                cur = queue.pop()
                if cur in comp:
                    continue
                comp.add(cur)
                queue.extend(adj[cur] - comp)
            seen |= comp
            if len(comp) >= min_size:
                out.add(frozenset(comp))
    return out


class TestClusterBulk:
    WINDOW = timedelta(hours=24)

    def test_three_similar_same_hour(self):
        log = [
            log_entry("usps-a1.top", "2024-05-01T10:00:00", "alibaba"),
            log_entry("usps-a2.top", "2024-05-01T10:05:00", "alibaba"),
            log_entry("usps-a3.top", "2024-05-01T10:10:00", "alibaba"),
        ]
        (cluster,) = cluster_bulk(log, self.WINDOW, 2, 3)
        assert cluster.members == {"usps-a1.top", "usps-a2.top", "usps-a3.top"}
        assert cluster.registrar == "alibaba"

    def test_same_names_three_days_apart(self):
        log = [
            log_entry("usps-a1.top", "2024-05-01T10:00:00", "alibaba"),
            log_entry("usps-a2.top", "2024-05-02T10:00:00", "alibaba"),
            log_entry("usps-a3.top", "2024-05-03T10:00:00", "alibaba"),
        ]
        assert cluster_bulk(log, self.WINDOW, 2, 3) == []

    def test_distance_above_threshold(self):
        log = [
            log_entry("alpha.com", "2024-05-01T10:00:00", "ns"),
            log_entry("omega.com", "2024-05-01T10:30:00", "ns"),
            log_entry("gamma.com", "2024-05-01T11:00:00", "ns"),
        ]
        assert cluster_bulk(log, self.WINDOW, 2, 3) == []

    def test_different_registrars_do_not_mix(self):
        log = [
            log_entry("shop-a1.top", "2024-05-01T10:00:00", "r1"),
            log_entry("shop-a2.top", "2024-05-01T10:00:00", "r1"),
            log_entry("shop-a3.top", "2024-05-01T10:00:00", "r2"),
        ]
        assert cluster_bulk(log, self.WINDOW, 2, 3) == []

    def test_chained_components(self):
        # a1-a2 distance 1, a2-a9 distance 1, a1-a9 distance 1: all connect
        # even when one pair would exceed the threshold via chaining
        log = [
            log_entry("aaaa.com", "2024-05-01T10:00:00", "r"),
            log_entry("aaab.com", "2024-05-01T10:00:00", "r"),
            log_entry("aabb.com", "2024-05-01T10:00:00", "r"),
            log_entry("abbb.com", "2024-05-01T10:00:00", "r"),
        ]
        (cluster,) = cluster_bulk(log, self.WINDOW, 1, 4)
        assert len(cluster.members) == 4

    def test_fixture_matches_oracle(self, data_dir):
        log = load_registration_log(data_dir / "registration_log.csv")
        got = {c.members for c in cluster_bulk(log, self.WINDOW, 2, 3)}
        assert got == clusters_oracle(log, self.WINDOW, 2, 3)

    @given(st.lists(st.tuples(st.text(alphabet="ab-", max_size=9), st.sampled_from(["com", "top"])),
                    min_size=2, max_size=30),
           st.integers(0, 5))
    def test_equals_oracle_on_random_buckets(self, names, max_dist):
        log = [log_entry(f"{label}.{tld}", "2024-05-01T10:00:00", "r") for label, tld in names]
        got = {c.members for c in cluster_bulk(log, self.WINDOW, max_dist, 2)}
        assert got == clusters_oracle(log, self.WINDOW, max_dist, 2)

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.text(alphabet="ab-", max_size=9), min_size=1, max_size=20)
           .map(lambda labels: labels + labels[::3]),  # some labels twice
           st.integers(0, 5))
    def test_candidate_pairs_hold_every_close_pair(self, labels, max_dist):
        pairs = [(i, j) for j, near in classifier._candidates(labels, max_dist) for i in near]
        assert len(pairs) == len(set(pairs)) and all(i < j for i, j in pairs)
        close = {(i, j) for j in range(len(labels)) for i in range(j)
                 if levenshtein_oracle(labels[i], labels[j]) <= max_dist}
        assert close <= set(pairs)

    def test_large_templated_bucket_keeps_no_pair_list(self):
        # four series of 500 names, a prefix and two letters: every two names
        # of a series are candidates, so a list of the pairs takes megabytes.
        # The prefixes differ in length by 3, so the series never meet.
        tails = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=2)][:500]
        log = [log_entry(f"{prefix}{tail}.com", "2024-05-01T10:00:00", "r")
               for prefix in ("dhl", "fedex-", "usps-mail", "wells-fargo-") for tail in tails]
        tracemalloc.start()
        try:
            clusters = cluster_bulk(log, self.WINDOW, 2, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert [len(c.members) for c in clusters] == [500] * 4

    def test_huge_max_edit_distance_gives_all_pairs_quickly(self):
        rng = random.Random(3)
        labels = {"".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 40)))
                  for _ in range(300)}
        log = [log_entry(f"{label}.com", "2024-05-01T10:00:00", "r") for label in labels]
        started = time.perf_counter()
        clusters = cluster_bulk(log, self.WINDOW, 10**9, 2)
        assert time.perf_counter() - started < 1.0
        # every pair is within 10**9 edits, so the whole bucket is one cluster
        assert [c.members for c in clusters] == [{e.registrable for e in log}]

    def test_distance_computed_for_few_pairs(self, monkeypatch):
        calls = []
        exact = classifier.levenshtein

        def counted(a: str, b: str) -> int:
            calls.append((a, b))
            return exact(a, b)

        monkeypatch.setattr(classifier, "levenshtein", counted)
        rng = random.Random(1)
        labels = set()
        while len(labels) < 300:
            labels.add("".join(rng.choices(string.ascii_lowercase, k=12)))
        log = [log_entry(f"{label}.com", "2024-05-01T10:00:00", "r") for label in sorted(labels)]
        cluster_bulk(log, self.WINDOW, 2, 3)
        assert len(calls) < 0.01 * (300 * 299 // 2)
        # the counter sees the calls cluster_bulk makes
        self.test_three_similar_same_hour()
        assert calls

    def test_cluster_invariants(self, data_dir):
        log = load_registration_log(data_dir / "registration_log.csv")
        by_domain = {}
        for e in log:
            by_domain.setdefault(e.registrable, []).append(e)
        for cluster in cluster_bulk(log, self.WINDOW, 2, 3):
            assert len(cluster.members) >= 3
            for member in cluster.members:
                entries = [e for e in by_domain[member] if e.registrar == cluster.registrar]
                assert any(
                    cluster.window_start <= e.registered_at < cluster.window_start + self.WINDOW
                    for e in entries
                )


class TestWindowStart:
    def test_floors_before_the_epoch(self):
        at = datetime(1969, 12, 31, 23, 59, 59, 500000, tzinfo=UTC)
        day = classifier._window_start(at, timedelta(hours=24))
        assert day == datetime(1969, 12, 31, tzinfo=UTC)
        assert classifier._window_start(at, timedelta(seconds=1)) == at.replace(microsecond=0)

    def test_start_before_year_one_is_datetime_min(self):
        at = datetime(1, 1, 1, tzinfo=UTC)  # a WHOIS placeholder date
        start = classifier._window_start(at, timedelta(hours=168))
        assert start == datetime.min.replace(tzinfo=UTC) and start.tzinfo is UTC

    @given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
           st.integers(1, 10**9))
    def test_window_holds_its_times(self, at, seconds):
        at = at.replace(tzinfo=UTC)
        width = timedelta(seconds=seconds)
        start = classifier._window_start(at, width)
        assert start <= at and (at - start < width or start == datetime.min.replace(tzinfo=UTC))
        if at.year >= 1970 and at.microsecond == 0:  # as the float timestamp bucketed it
            bucket = int(at.timestamp()) // seconds * seconds
            assert start == datetime.fromtimestamp(bucket, tz=UTC)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data(), st.integers(1, 10**6) | st.sampled_from([86400, 10**11, 86399999999999]))
    def test_window_index_groups_instants_as_window_start(self, data, seconds):
        # instants near year 1, near the epoch and anywhere, with microseconds,
        # each with neighbours a few widths, seconds or microseconds away
        base = data.draw(st.sampled_from([datetime(1, 1, 1), datetime(1969, 12, 31, 23, 59, 59)])
                         | st.datetimes(min_value=datetime(1, 1, 1),
                                        max_value=datetime(9999, 12, 31, 23, 59, 59)))
        steps = st.integers(-3, 3).map(lambda k: k * seconds * 10**6) | st.integers(-10**7, 10**7)
        instants = []
        for step in data.draw(st.lists(steps, min_size=1, max_size=6)):
            with contextlib.suppress(OverflowError):  # a step past year 1 or 9999
                instants.append((base + timedelta(microseconds=step)).replace(tzinfo=UTC))
        window = timedelta(seconds=seconds)
        for a in instants:
            for b in instants:
                starts = classifier._window_start(a, window), classifier._window_start(b, window)
                indexes = classifier._window_index(a, seconds), classifier._window_index(b, seconds)
                assert (indexes[0] == indexes[1]) == (starts[0] == starts[1]), (a, b)


class TestClassify:
    def test_homoglyph_is_malicious(self, classifier_ctx):
        result = classify(record("faceb0ok.com"), classifier_ctx)
        assert result.flags == {"squatted"}
        assert result.verdict == VERDICT_MALICIOUS

    def test_dictionary_domain_is_compromised(self, classifier_ctx):
        result = classify(record("legitblog.net"), classifier_ctx)
        assert result.flags == frozenset()
        assert result.verdict == VERDICT_COMPROMISED

    def test_brand_plus_bulk_overlap(self, classifier_ctx):
        result = classify(record("usps-a1.top"), classifier_ctx)
        assert result.flags == {"brand_in_domain", "bulk_registered"}
        assert result.verdict == VERDICT_MALICIOUS

    def test_platform_verdict(self, classifier_ctx):
        rec = record("blogspot.com", subdomain="usps-tracking-service")
        assert classify(rec, classifier_ctx).verdict == VERDICT_PLATFORM

    def test_allowlist_monotonicity(self, classifier_ctx):
        rec = record("faceb0ok.com")
        assert classify(rec, classifier_ctx).verdict == VERDICT_MALICIOUS
        widened = ClassifierContext(
            allow=classifier_ctx.allow | {"faceb0ok.com"},
            catalog=classifier_ctx.catalog,
            squat_index=classifier_ctx.squat_index,
            word_list=classifier_ctx.word_list,
            bulk_membership=classifier_ctx.bulk_membership,
            min_word_len=classifier_ctx.min_word_len,
        )
        assert classify(rec, widened).verdict != VERDICT_MALICIOUS

    def test_corpus_invariants(self, corpus_table, classifier_ctx):
        results = classify_all(corpus_table.records, classifier_ctx)
        assert len(results) == len(corpus_table.records)  # exactly one verdict each
        for res in results:
            if "random_looking" in res.flags:
                assert "brand_in_domain" not in res.flags
                assert "squatted" not in res.flags
            if res.verdict == VERDICT_MALICIOUS:
                assert res.flags
            else:
                assert not res.flags or res.verdict == VERDICT_MALICIOUS

    def test_corpus_against_hand_labels(self, corpus_table, classifier_ctx, data_dir):
        with open(data_dir / "corpus40_expected.csv", newline="") as fh:
            expected = {
                row["registrable"]: (row["verdict"], row["flags"])
                for row in csv.DictReader(fh)
            }
        results = classify_all(corpus_table.records, classifier_ctx)
        assert len(results) == 40
        for res in results:
            want_verdict, want_flags = expected[res.registrable]
            assert res.verdict == want_verdict, res.registrable
            assert ";".join(ordered_flags(res.flags)) == want_flags, res.registrable

    def test_overlap_exceeds_hundred_percent(self, corpus_table, classifier_ctx):
        results = classify_all(corpus_table.records, classifier_ctx)
        malicious = [r for r in results if r.verdict == VERDICT_MALICIOUS]
        flag_instances = sum(len(r.flags) for r in malicious)
        assert flag_instances > len(malicious)  # Table-2-style overlap
