from __future__ import annotations

import gc
import json
from datetime import datetime, timedelta, timezone

import pytest

from phishlife import dnsmon
from phishlife.dnsmon import (
    DnsSnapshot,
    NoObservations,
    NxDomain,
    RrSet,
    ScriptedResolver,
    SnapshotStore,
    VantagePoint,
    backoff_delays,
    collect_snapshots,
    detect_changes,
    parse_resolver_address,
    run_schedule,
    ttl_stats,
)
from phishlife.errors import IoFailure

UTC = timezone.utc
T0 = datetime(2024, 6, 6, tzinfo=UTC)
DELAYS = backoff_delays(0.5, 8.0)  # the backoff_base_ms and backoff_cap_ms defaults

V1 = VantagePoint("v1", "192.0.2.1:53", "us")
V2 = VantagePoint("v2", "192.0.2.2:53", "eu")
V3 = VantagePoint("v3", "192.0.2.3:53", "apac")


def tick(domains, vantages, types, resolver, at=T0, previous=None):
    """One tick, from the (domain, vantage) pairs and the lookups that
    run_schedule builds once per run."""
    pairs = [(d, v) for d in domains for v in vantages]
    lookups = [(v, d, t) for d, v in pairs for t in types]
    return collect_snapshots(pairs, lookups, resolver, at, DELAYS, previous)


def collect(domains, vantages, types, resolver, at=T0):
    """One tick's snapshots."""
    _, snapshots, _ = tick(domains, vantages, types, resolver, at)
    return snapshots


def snapshot(domain, vantage, minute, rrsets, status="ok", errors=(), attempts=1):
    return DnsSnapshot(
        registrable=domain, vantage_id=vantage,
        taken_at=T0 + timedelta(minutes=minute),
        rrsets=tuple(rrsets), status=status, attempts=attempts, errors=tuple(errors),
    )


def a_rrset(*values, ttl=300):
    return RrSet("A", tuple(values), ttl)


def ns_rrset(*values, ttl=3600):
    return RrSet("NS", tuple(values), ttl)


class TestRrSet:
    def test_valid(self):
        assert a_rrset("192.0.2.1").ttl == 300

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            RrSet("A", (), 300)

    def test_ttl_bounds(self):
        with pytest.raises(ValueError):
            RrSet("A", ("x",), 2**31)

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            RrSet("PTR", ("x",), 300)


class TestScriptedQuery:
    def test_scripted_answer(self):
        resolver = ScriptedResolver({"a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 300}]}})
        rrset = resolver.query(V1, "a.com", "A")
        assert rrset == RrSet("A", ("192.0.2.1",), 300)

    def test_scripted_nxdomain(self):
        resolver = ScriptedResolver({"a.com": {"A": ["nxdomain"]}})
        assert type(resolver.query(V1, "a.com", "A")) is NxDomain

    def test_empty_answer_for_missing_type(self):
        resolver = ScriptedResolver({"a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 300}]}})
        assert resolver.query(V1, "a.com", "TXT") is None

    def test_unknown_domain_is_nxdomain(self):
        resolver = ScriptedResolver({})
        assert type(resolver.query(V1, "missing.com", "A")) is NxDomain

    def test_per_vantage_override(self):
        resolver = ScriptedResolver({
            "a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 60}]},
            "a.com@v2": {"A": [{"values": ["198.51.100.1"], "ttl": 60}]},
        })
        assert resolver.query(V1, "a.com", "A").values == ("192.0.2.1",)
        assert resolver.query(V2, "a.com", "A").values == ("198.51.100.1",)


class TestRetryContract:
    def script(self, fails):
        return ScriptedResolver({
            "a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 300,
                             "fail_count_before_success": fails}]},
        })

    def test_four_failures_then_success(self):
        (snap,) = collect(["a.com"], [V1], ["A"], self.script(4))
        assert snap.status == "ok"
        assert snap.attempts == 5
        assert snap.rrsets[0].values == ("192.0.2.1",)

    def test_five_failures_is_failed(self):
        resolver = self.script(5)
        (snap,) = collect(["a.com"], [V1], ["A"], resolver)
        assert snap.status == "failed"
        assert snap.attempts == 5
        assert snap.rrsets == ()
        # retry bound: five attempts, each timed out, and the script's sixth answers
        resolver = self.script(5)
        (outcome,) = resolver.resolve([(V1, "a.com", "A")], DELAYS)
        assert outcome == (None, 5, "A:timeout", False)
        assert resolver.query(V1, "a.com", "A") == a_rrset("192.0.2.1")

    def test_backoff_nondecreasing_and_capped(self):
        # one delay between each two of the five attempts; only a live resolver waits them
        assert DELAYS == sorted(DELAYS)
        assert DELAYS == [0.5, 1.0, 2.0, 4.0]
        assert max(DELAYS) <= 8.0

    def test_cap_applies(self):
        assert backoff_delays(3.0, 8.0) == [3.0, 6.0, 8.0, 8.0]

    def test_partial_type_failure_downgrades(self):
        resolver = ScriptedResolver({"a.com": {
            "A": [{"values": ["192.0.2.1"], "ttl": 300}],
            "NS": ["servfail"],
        }})
        (snap,) = collect(["a.com"], [V1], ["A", "NS"], resolver)
        assert snap.status == "ok"
        assert [r.rrtype for r in snap.rrsets] == ["A"]
        assert snap.errors == ("NS:servfail",)

    def test_nxdomain_recorded(self):
        resolver = ScriptedResolver({})
        (snap,) = collect(["gone.com"], [V1], ["A"], resolver)
        assert snap.status == "ok"
        assert snap.nxdomain
        assert snap.rrsets == ()

    def test_three_vantages_share_taken_at(self):
        resolver = ScriptedResolver({"a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 60}]}})
        snaps = collect(["a.com"], [V1, V2, V3], ["A"], resolver)
        assert len(snaps) == 3
        assert {s.taken_at for s in snaps} == {T0}
        assert all(s.status == "ok" for s in snaps)


@pytest.mark.parametrize("script", [
    pytest.param([], id="array"),
    pytest.param({"a.com": ["nxdomain"]}, id="entry_not_object"),
    pytest.param({"a.com": {"A": "nxdomain"}}, id="steps_not_list"),
    pytest.param({"a.com": {"A": [5]}}, id="step_number"),
    pytest.param({"a.com": {"A": ["refused"]}}, id="unknown_step"),
    pytest.param({"a.com": {"A": [{"values": "192.0.2.1"}]}}, id="values_not_list"),
    pytest.param({"a.com": {"A": [{"values": [1]}]}}, id="value_not_string"),
    pytest.param({"a.com": {"A": [{"values": ["x"], "ttl": -1}]}}, id="negative_ttl"),
    pytest.param({"a.com": {"A": [{"values": ["x"], "ttl": 2**31}]}}, id="ttl_over_max"),
    pytest.param({"a.com": {"A": [{"values": ["x"], "ttl": "60"}]}}, id="ttl_string"),
    pytest.param({"a.com": {"A": [{"fail_count_before_success": -1}]}}, id="negative_fails"),
    pytest.param({"a.com": {"A": [{"fail_count_before_success": True}]}}, id="bool_fails"),
    pytest.param({"a.com": {"A": [{"values": ["\ud800"]}, "nxdomain"]}}, id="value_lone_surrogate"),
    pytest.param({"a.com": {"A": ["nx\ud800domain"]}}, id="step_lone_surrogate"),
    pytest.param({"a.com": {"FOO": []}}, id="key_not_an_rrtype"),
    pytest.param({"a.com": {"a": [{"values": ["192.0.2.1"]}]}}, id="lower_case_rrtype"),
    pytest.param({"bad..com": {}}, id="key_not_a_host"),
    pytest.param({"exa_mple.com@v1": {}}, id="override_key_not_a_host"),
    pytest.param({"@v1": {}}, id="override_key_without_domain"),
    pytest.param({"a.com": {}, "A.COM.": {}}, id="keys_normalize_alike"),
    pytest.param({"a.com@v1": {}, "A.com@v1": {}}, id="override_keys_normalize_alike"),
])
def test_fixture_shape_checked_on_load(script, tmp_path):
    with pytest.raises(ValueError):
        ScriptedResolver(script)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(script))
    with pytest.raises(IoFailure, match="malformed resolver fixture"):
        ScriptedResolver.from_file(path)


def test_documented_fixture_shapes_load(tmp_path):
    script = {"a.com": {"A": ["nxdomain", "servfail", {}, {"values": [], "ttl": 0},
                              {"values": ["192.0.2.1"], "ttl": 2**31 - 1,
                               "fail_count_before_success": 2}],
                        "TXT": []},
              "a.com@v1": {}}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(script))
    resolver = ScriptedResolver.from_file(path)
    assert type(resolver.query(V2, "a.com", "A")) is NxDomain
    assert resolver.query(V2, "a.com", "TXT") is None
    assert resolver.query(V1, "a.com", "A") is None


def test_fixture_keys_normalized_like_monitored_domains():
    resolver = ScriptedResolver({
        "Flux.TOP": {"A": [{"values": ["192.0.2.1"], "ttl": 45}]},
        "Flux.TOP.@v2": {"A": [{"values": ["198.51.100.1"], "ttl": 45}]},
        "bücher.de": {"A": [{"values": ["192.0.2.2"], "ttl": 45}]},
    })
    assert resolver.query(V1, "flux.top", "A") == a_rrset("192.0.2.1", ttl=45)
    assert resolver.query(V2, "flux.top", "A") == a_rrset("198.51.100.1", ttl=45)
    assert resolver.query(V1, "xn--bcher-kva.de", "A") == a_rrset("192.0.2.2", ttl=45)


def test_steps_compiled_once():
    # every answer of a step is the rrset compiled with the script
    resolver = ScriptedResolver({"a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 60}]}})
    first = resolver.query(V1, "a.com", "A")
    assert first == a_rrset("192.0.2.1", ttl=60)
    assert resolver.query(V1, "a.com", "A") is first and resolver.query(V2, "a.com", "A") is first


class TestSettledLookups:
    """A key whose steps are steady, one lookup from the first step ending
    there again, gives its steady outcome with no query while it has no
    replay; every other lookup replays attempt by attempt."""

    def queries_per_tick(self, steps, ticks):
        """The queries each of ``ticks`` lookups of a.com/A makes."""
        calls = []

        class Counting(ScriptedResolver):
            def query(self, *lookup):
                calls.append(lookup)
                return super().query(*lookup)

        resolver = Counting({"a.com": {"A": steps}})
        counts = []
        for _ in range(ticks):
            before = len(calls)
            resolver.resolve([(V1, "a.com", "A")], DELAYS)
            counts.append(len(calls) - before)
        return counts

    @pytest.mark.parametrize("steps, counts", [
        ([{"values": ["192.0.2.1"], "fail_count_before_success": 2}], [0, 0, 0]),
        (["servfail"], [0, 0, 0]),
        (["nxdomain"], [0, 0, 0]),
        ([], [0, 0, 0]),  # an empty answer
        # a key off its first step replays every lookup, also on its last step
        ([{"values": ["192.0.2.1"]}, "nxdomain", {"values": ["192.0.2.2"]}], [1, 1, 1, 1]),
        # five timeouts or more carry over into the next lookup, so the key is not steady
        ([{"values": ["192.0.2.1"], "fail_count_before_success": 5}], [5, 1, 5, 1]),
        ([{"values": ["192.0.2.1"], "fail_count_before_success": 7}], [5, 3, 5, 3]),
    ])
    def test_queries_per_tick(self, steps, counts):
        assert self.queries_per_tick(steps, len(counts)) == counts

    def test_replays_held_only_for_keys_off_their_first_step(self, tmp_path):
        resolver = ScriptedResolver({
            "a.com": {"A": [{"values": ["192.0.2.1"], "fail_count_before_success": 2}],
                      "NS": ["nxdomain", {"values": ["ns1.a.com"]}],
                      "TXT": ["servfail", "nxdomain"]},
            "b.com": {"A": [{"values": ["192.0.2.2"], "fail_count_before_success": 6}],
                      "NS": []},
            "b.com@v2": {"A": ["nxdomain"]},
        })
        run_schedule(["a.com", "b.com", "gone.com"], [V1, V2], ("A", "NS", "TXT"), DELAYS,
                     resolver, SnapshotStore(tmp_path / "snaps.jsonl"), T0,
                     timedelta(minutes=30), T0 + timedelta(minutes=90), [], False)
        resolver.query(V2, "gone.com", "A")  # a direct query gives a steady key a replay
        assert set(resolver._replays) == {("v1", "a.com", "NS"), ("v2", "a.com", "NS"),
                                          ("v1", "b.com", "A"), ("v2", "gone.com", "A")}


def test_simulated_ticks_leave_no_cyclic_garbage(tmp_path):
    # cli.main keeps the cyclic collector off while a command runs, which
    # frees nothing only while a tick leaves no reference cycle behind
    resolver = ScriptedResolver({
        "a.com": {"A": [{"values": ["192.0.2.1"], "fail_count_before_success": 6}],
                  "NS": ["servfail"]},
        "b.com": {"A": ["nxdomain", {"values": ["192.0.2.2"], "ttl": 60}], "TXT": []},
        "b.com@v2": {"A": [{"values": ["192.0.2.3"], "fail_count_before_success": 2}]},
    })
    store, last = SnapshotStore(tmp_path / "snaps.jsonl"), None
    gc.collect()
    gc.disable()
    try:
        for minute in (30, 60, 90):
            last = tick(["a.com", "b.com", "gone.com"], [V1, V2], ["A", "NS", "TXT"],
                        resolver, T0 + timedelta(minutes=minute), last)
            store.append_many(*last[1:])
            assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(store.load()) == 18


class TestScheduler:
    RESOLVER_SCRIPT = {
        "a.com": {"A": [{"values": ["192.0.2.1"], "ttl": 60}]},
        "b.com": {"A": [{"values": ["192.0.2.2"], "ttl": 60}]},
    }

    def run(self, domains, minutes, tmp_path=None):
        store = SnapshotStore(tmp_path / "snaps.jsonl")
        resolver = ScriptedResolver(self.RESOLVER_SCRIPT)
        ticks = run_schedule(domains, [V1, V2], ("A",), DELAYS, resolver, store, T0,
                             timedelta(minutes=30), T0 + timedelta(minutes=minutes), [], False)
        return ticks, store.load()

    def test_ninety_minutes_three_rounds(self, tmp_path):
        ticks, snaps = self.run(["a.com", "b.com"], 90, tmp_path=tmp_path)
        assert ticks == 3
        per_key = {}
        for s in snaps:
            per_key.setdefault((s.registrable, s.vantage_id), []).append(s)
        assert set(per_key) == {(d, v) for d in ("a.com", "b.com") for v in ("v1", "v2")}
        assert all(len(v) == 3 for v in per_key.values())

    def test_zero_domains_idles(self, tmp_path):
        ticks, snaps = self.run([], 90, tmp_path=tmp_path)
        assert ticks == 3
        assert snaps == []
        assert not (tmp_path / "snaps.jsonl").exists()

    def test_serialized_collections_complete(self, tmp_path):
        ticks, snaps = self.run(["a.com", "b.com"], 30, tmp_path=tmp_path)
        assert ticks == 1
        assert [(-s.taken_at.timestamp(), s.registrable, s.vantage_id) for s in snaps] == sorted(
            (-s.taken_at.timestamp(), s.registrable, s.vantage_id) for s in snaps)
        assert len(snaps) == 4

    def test_one_call_per_tick_matches_each_domain_apart(self, tmp_path):
        # one tick hands every lookup to the resolver at once; the snapshots
        # equal those of collecting each domain on its own
        _, together = self.run(["a.com", "b.com"], 60, tmp_path=tmp_path)
        resolver = ScriptedResolver(self.RESOLVER_SCRIPT)
        apart = [snap for minute in (30, 60) for domain in ("a.com", "b.com")
                 for snap in collect([domain], [V1, V2], ["A"], resolver,
                                     T0 + timedelta(minutes=minute))]
        assert together == apart

    def test_ticks_fall_at_start_plus_multiples_of_the_interval(self, tmp_path):
        kept, resolver = [], ScriptedResolver(self.RESOLVER_SCRIPT)
        ticks = run_schedule(["a.com"], [V1], ("A",), DELAYS, resolver,
                             SnapshotStore(tmp_path / "snaps.jsonl"), T0, timedelta(minutes=7),
                             T0 + timedelta(minutes=20), kept, False)
        assert ticks == 2
        assert [s.taken_at for s in kept] == [T0 + timedelta(minutes=7), T0 + timedelta(minutes=14)]
        assert kept == SnapshotStore(tmp_path / "snaps.jsonl").load()

    def test_simulated_run_never_sleeps(self, tmp_path, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"slept {seconds} s")
        monkeypatch.setattr(dnsmon._time, "sleep", no_sleep)
        # the ticks lie in the future, so a run that slept until each was due would sleep
        start = datetime.now(UTC) + timedelta(days=1)
        resolver = ScriptedResolver(self.RESOLVER_SCRIPT)
        ticks = run_schedule(["a.com"], [V1], ("A",), DELAYS, resolver,
                             SnapshotStore(tmp_path / "snaps.jsonl"), start, timedelta(minutes=30),
                             start + timedelta(minutes=90), [], False)
        assert ticks == 3

    def test_live_run_resolves_no_earlier_than_each_tick(self, tmp_path):
        calls = []  # the wall-clock time of each resolve call

        class Recorder(ScriptedResolver):
            def resolve(self, lookups, delays):
                calls.append(datetime.now(UTC))
                return super().resolve(lookups, delays)

        interval = timedelta(milliseconds=50)
        start = datetime.now(UTC)
        kept = []
        ticks = run_schedule(["a.com"], [V1], ("A",), DELAYS, Recorder(self.RESOLVER_SCRIPT),
                             SnapshotStore(tmp_path / "snaps.jsonl"), start, interval,
                             start + 3 * interval, kept, True)
        assert ticks == 3
        taken = [s.taken_at for s in kept]
        assert taken == [start + k * interval for k in (1, 2, 3)]
        # only the lower bound: the host may be slow
        assert all(called >= at for called, at in zip(calls, taken)) and len(calls) == 3

    def test_kept_snapshots_hold_only_their_fields(self, tmp_path):
        # the retake memo lives in the last tick alone: a kept snapshot
        # references its eight field values and its class, no outcomes or text
        resolver, kept = ScriptedResolver(self.RESOLVER_SCRIPT), []
        run_schedule(["a.com", "b.com", "gone.com"], [V1, V2], ("A",), DELAYS, resolver,
                     SnapshotStore(tmp_path / "snaps.jsonl"), T0, timedelta(minutes=30),
                     T0 + timedelta(minutes=90), kept, False)
        assert len(kept) == 18
        names = ("registrable", "vantage_id", "taken_at", "rrsets", "status", "attempts",
                 "errors", "nxdomain")
        for snap in kept:
            referents = [r for r in gc.get_referents(snap) if r is not DnsSnapshot]
            assert sorted(map(id, referents)) == sorted(id(getattr(snap, n)) for n in names)

    def test_interval_validation(self, tmp_path):
        for interval in (timedelta(0), timedelta(minutes=-1)):
            with pytest.raises(ValueError):
                run_schedule([], [V1], ("A",), DELAYS, ScriptedResolver({}),
                             SnapshotStore(tmp_path / "x.jsonl"), T0, interval, None, [], False)


@pytest.mark.parametrize("address, expected", [
    ("192.0.2.1", ("192.0.2.1", 53)),
    ("192.0.2.1:5353", ("192.0.2.1", 5353)),
    ("resolver.example:53", ("resolver.example", 53)),
    ("::1", ("::1", 53)),
    ("2001:db8::53", ("2001:db8::53", 53)),
    ("[::1]:5353", ("::1", 5353)),
    ("[2001:db8::53]:53", ("2001:db8::53", 53)),
])
def test_resolver_address_forms(address, expected):
    assert parse_resolver_address(address) == expected


def test_vantage_point_is_a_tuple_of_its_fields():
    assert V1 == ("v1", "192.0.2.1:53", "us") and hash(V1) == hash(("v1", "192.0.2.1:53", "us"))
    assert repr(V1) == "VantagePoint(id='v1', resolver_address='192.0.2.1:53', region_label='us')"


def test_vantages_load(tmp_path):
    path = tmp_path / "vantages.json"
    path.write_text(json.dumps([{"id": "v1", "resolver_address": "192.0.2.1:53", "region_label": "us"},
                                {"id": "v2", "resolver_address": "[::1]:5353"}]))
    assert dnsmon.load_vantages(path) == [V1, VantagePoint("v2", "[::1]:5353", "")]


@pytest.mark.parametrize("vantage", [
    pytest.param({"id": 1}, id="int_id"),
    pytest.param({"id": True}, id="bool_id"),
    pytest.param({"region_label": None}, id="null_region_label"),
    pytest.param({"id": "\ud800"}, id="lone_surrogate_id"),
    pytest.param({"region_label": "us\udc00"}, id="lone_surrogate_region_label"),
    pytest.param({"resolver_address": "192.0.2.1\ud800"}, id="lone_surrogate_address"),
    pytest.param({"resolver_address": ["192.0.2.1"]}, id="list_address"),
    pytest.param({"resolver_address": "192.0.2.1:port"}, id="bad_port"),
])
def test_vantage_values_checked_on_load(vantage, tmp_path):
    path = tmp_path / "vantages.json"
    path.write_text(json.dumps([{"id": "v1", "resolver_address": "192.0.2.1"} | vantage]))
    with pytest.raises(IoFailure, match="malformed vantages"):
        dnsmon.load_vantages(path)


# a bare host with two or more colons must be an IPv6 address
@pytest.mark.parametrize("address", ["[::1]", "[::1]5353", "[::1]:", "[::1]:port", "[::1]:70000",
                                     "192.0.2.1:", "192.0.2.1:-1", "", ":53", "[]:53",
                                     "1.2.3.4:53:1", "a:b:c"])
def test_bad_resolver_address_rejected(address):
    with pytest.raises(ValueError):
        parse_resolver_address(address)


class TestDiff:
    """The change rule, on two-snapshot series of one domain and vantage."""

    def test_ns_provider_change(self):
        prev = snapshot("a.com", "v1", 0, [ns_rrset("ns1.cloudflare.example")])
        nxt = snapshot("a.com", "v1", 30, [ns_rrset("ns1.google.example")])
        (change,) = detect_changes([prev, nxt])
        assert change.rrtype == "NS"
        assert change.before == ("ns1.cloudflare.example",)
        assert change.after == ("ns1.google.example",)
        assert change.observed_at == nxt.taken_at

    def test_ttl_only_drift_is_no_change(self):
        prev = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1", ttl=300)])
        nxt = snapshot("a.com", "v1", 30, [a_rrset("192.0.2.1", ttl=290)])
        assert detect_changes([prev, nxt]) == []

    def test_reorder_is_no_change(self):
        prev = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1", "192.0.2.2")])
        nxt = snapshot("a.com", "v1", 30, [a_rrset("192.0.2.2", "192.0.2.1")])
        assert detect_changes([prev, nxt]) == []

    def test_identical_is_empty(self):
        prev = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1"), ns_rrset("ns1.x")])
        nxt = snapshot("a.com", "v1", 30, [a_rrset("192.0.2.1"), ns_rrset("ns1.x")])
        assert detect_changes([prev, nxt]) == []

    def test_disappearance_is_a_change(self):
        prev = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1"), ns_rrset("ns1.x")])
        nxt = snapshot("a.com", "v1", 30, [ns_rrset("ns1.x")])
        (change,) = detect_changes([prev, nxt])
        assert change.rrtype == "A" and change.after == ()

    def test_failed_type_not_reported(self):
        prev = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1"), ns_rrset("ns1.x")])
        nxt = snapshot("a.com", "v1", 30, [ns_rrset("ns1.x")], errors=("A:timeout",))
        assert detect_changes([prev, nxt]) == []

    def test_detect_changes_across_store(self):
        snaps = [
            snapshot("flux.top", "v1", 0, [ns_rrset("ns1.cloudflare.example")]),
            snapshot("flux.top", "v1", 30, [ns_rrset("ns1.google.example")]),
            snapshot("static.com", "v1", 0, [a_rrset("192.0.2.9", ttl=300)]),
            snapshot("static.com", "v1", 30, [a_rrset("192.0.2.9", ttl=60)]),
            snapshot("broken.com", "v1", 0, [], status="failed"),
            snapshot("broken.com", "v1", 30, [a_rrset("192.0.2.5")]),
        ]
        changes = detect_changes(snaps)
        assert len(changes) == 1 and changes[0].registrable == "flux.top"


class TestTtlStats:
    def test_single_domain_small_ttl(self):
        summary = ttl_stats([snapshot("a.com", "v1", 0, [a_rrset("x", ttl=45)])])
        assert summary.under_60s == 1
        assert summary.under_3600s == 1

    def test_boundary_is_strict(self):
        summary = ttl_stats([snapshot("a.com", "v1", 0, [a_rrset("x", ttl=3600)])])
        assert summary.under_3600s == 0

    def test_median_and_mean(self):
        snaps = [snapshot("a.com", "v1", 0, [
            a_rrset("x", ttl=100), a_rrset("y", ttl=200), a_rrset("z", ttl=400),
        ])]
        summary = ttl_stats(snaps)
        (dom,) = summary.per_domain
        assert dom.median_ttl == 200
        assert dom.mean_ttl == pytest.approx(233.33, abs=0.01)

    def test_no_observations(self):
        with pytest.raises(NoObservations):
            ttl_stats([snapshot("a.com", "v1", 0, [], status="failed")])

    def test_buckets_match_brute_force_recount(self):
        ttl_values = [45, 300, 3600, 43200, 43201, 50000, 86400, 90000]
        snaps = [
            snapshot(f"d{i}.com", "v1", 0, [a_rrset("x", ttl=t)])
            for i, t in enumerate(ttl_values)
        ]
        summary = ttl_stats(snaps)
        mins = {f"d{i}.com": t for i, t in enumerate(ttl_values)}
        assert summary.under_60s == sum(1 for t in mins.values() if t < 60)
        assert summary.under_3600s == sum(1 for t in mins.values() if t < 3600)
        assert summary.over_43200s == sum(1 for t in mins.values() if t > 43200)
        assert summary.between_43200s_and_86400s == sum(
            1 for t in mins.values() if 43200 < t < 86400)
        assert summary.under_60s <= summary.under_3600s


class TestStore:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.jsonl")
        first = snapshot("a.com", "v1", 0, [a_rrset("192.0.2.1"), ns_rrset("ns1.x")])
        second = snapshot("a.com", "v1", 30, [], status="failed", attempts=5)
        store.append_many([first])
        store.append_many([second])
        loaded = store.load()
        assert loaded == [first, second]

    def test_append_only_growth(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.jsonl")
        counts = []
        for minute in (0, 30, 60):
            store.append_many([snapshot("a.com", "v1", minute, [a_rrset("x")])])
            counts.append(len(store.load()))
        assert counts == [1, 2, 3]

    def test_rerun_diff_deterministic(self, tmp_path):
        store = SnapshotStore(tmp_path / "s.jsonl")
        store.append_many([snapshot("a.com", "v1", 0, [ns_rrset("ns1.a")]),
                           snapshot("a.com", "v1", 30, [ns_rrset("ns1.b")])])
        assert detect_changes(store.load()) == detect_changes(store.load())
