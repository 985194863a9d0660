"""The snapshot lines, scripted replay and change detection against oracles.

Each oracle is the simple form the module had before its per-attempt and
per-snapshot costs were cut: a snapshot line through ``json.dumps``, a
replay that raises each query error, looks its state up in three dicts and
keeps no settled outcome, a snapshot built afresh at every tick, TTL
statistics through ``statistics``, and a change detection that sorts each
snapshot's values once per diff.
"""

from __future__ import annotations

import json
import statistics
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings, strategies as st

from phishlife import dnsmon
from phishlife.dnsmon import (
    MAX_TTL, RRTYPES, DnsSnapshot, DomainTtl, NoObservations, NxDomain, QueryTimeout,
    RecordChange, RrSet, ScriptedResolver, ServerFailure, SnapshotStore, TtlSummary, VantagePoint,
)
from phishlife.timeutil import format_utc

UTC = timezone.utc
T0 = datetime(2024, 6, 6, tzinfo=UTC)
BOUNDED = settings(max_examples=100, derandomize=True, deadline=None)

# ------------------------------------------------------------------ oracles


def oracle_to_json(snap: DnsSnapshot) -> str:
    return json.dumps({
        "registrable": snap.registrable,
        "vantage_id": snap.vantage_id,
        "taken_at": format_utc(snap.taken_at),
        "rrsets": [
            {"rrtype": r.rrtype, "values": list(r.values), "ttl": r.ttl}
            for r in snap.rrsets
        ],
        "status": snap.status,
        "attempts": snap.attempts,
        "errors": list(snap.errors),
        "nxdomain": snap.nxdomain,
    }, sort_keys=True)


class OracleResolver:
    """Scripted replay that raises each query error, catches it and retries."""

    def __init__(self, script: dict):
        self._script = {key: {rrtype: [dnsmon._compile_step(key, rrtype, step) for step in steps]
                              for rrtype, steps in entry.items()}
                        for key, entry in script.items()}
        self._cursor: dict = {}
        self._fails: dict = {}

    def _steps(self, vantage, domain, rrtype):
        per_vantage = self._script.get(f"{domain}@{vantage.id}")
        entry = per_vantage if per_vantage is not None else self._script.get(domain)
        if entry is None:
            raise NxDomain(domain)
        return entry.get(rrtype)

    def resolve(self, lookups, delays):
        outcomes = []
        for lookup in lookups:
            attempt = 1
            while (outcome := dnsmon.settle(lookup[2], attempt, self._attempt(*lookup))) is None:
                attempt += 1
            outcomes.append(outcome)
        return outcomes

    def _attempt(self, vantage, domain, rrtype):
        try:
            return self.query(vantage, domain, rrtype)
        except (QueryTimeout, ServerFailure, NxDomain) as exc:
            return exc

    def query(self, vantage, domain, rrtype):
        key = (vantage.id, domain, rrtype)
        steps = self._steps(vantage, domain, rrtype)
        if not steps:
            return None
        idx = min(self._cursor.get(key, 0), len(steps) - 1)
        step = steps[idx]
        if step == "nxdomain":
            self._cursor[key] = idx + 1
            raise NxDomain(domain)
        if step == "servfail":
            raise ServerFailure(domain)
        fails_needed, rrset = step
        if self._fails.get(key, 0) < fails_needed:
            self._fails[key] = self._fails.get(key, 0) + 1
            raise QueryTimeout(f"{domain}/{rrtype} (scripted)")
        self._cursor[key] = idx + 1
        self._fails[key] = 0
        return rrset


def oracle_snapshot(domain, vantage, taken_at, outcomes):
    """A (domain, vantage) snapshot built from its rrtypes' outcomes alone."""
    errors = tuple(o.error for o in outcomes if o.error is not None)
    return DnsSnapshot(
        domain, vantage.id, taken_at,
        rrsets=tuple(o.rrset for o in outcomes if o.rrset is not None),
        status=dnsmon.STATUS_OK if len(errors) < len(outcomes) else dnsmon.STATUS_FAILED,
        attempts=max([1, *(o.attempts for o in outcomes)]),
        errors=errors,
        nxdomain=any(o.nxdomain for o in outcomes),
    )


def oracle_ttl_stats(snapshots):
    ttls: dict = {}
    for snap in snapshots:
        if snap.status == dnsmon.STATUS_OK:
            for rrset in snap.rrsets:
                ttls.setdefault(snap.registrable, []).append(rrset.ttl)
    if not ttls:
        return None
    per_domain = tuple(DomainTtl(d, len(t), min(t), float(statistics.median_low(t)),
                                 statistics.fmean(t)) for d, t in sorted(ttls.items()))
    lows = [d.min_ttl for d in per_domain]
    medians = [d.median_ttl for d in per_domain]
    return TtlSummary(per_domain, sum(low < 60 for low in lows), sum(low < 3600 for low in lows),
                      sum(low > 43200 for low in lows), sum(43200 < low < 86400 for low in lows),
                      float(statistics.median_low(medians)), statistics.fmean(medians))


def _oracle_values_by_type(snapshot):
    merged: dict = {}
    for rrset in snapshot.rrsets:
        merged.setdefault(rrset.rrtype, []).extend(rrset.values)
    return {t: sorted(v) for t, v in merged.items()}


def oracle_diff(prev, nxt):
    before_map = _oracle_values_by_type(prev)
    after_map = _oracle_values_by_type(nxt)
    skip = ({e.split(":", 1)[0] for e in prev.errors}
            | {e.split(":", 1)[0] for e in nxt.errors})
    changes = []
    for rrtype in sorted(set(before_map) | set(after_map)):
        if rrtype in skip:
            continue
        before = before_map.get(rrtype, [])
        after = after_map.get(rrtype, [])
        if before != after:
            changes.append(RecordChange(prev.registrable, rrtype, prev.vantage_id,
                                        tuple(before), tuple(after), nxt.taken_at))
    return changes


def oracle_detect_changes(snapshots):
    series: dict = {}
    for snap in snapshots:
        if snap.status != dnsmon.STATUS_OK:
            continue
        series.setdefault((snap.registrable, snap.vantage_id), []).append(snap)
    changes = []
    for key in sorted(series):
        chain = sorted(series[key], key=lambda s: s.taken_at)
        for prev, nxt in zip(chain, chain[1:]):
            if prev.taken_at == nxt.taken_at:
                continue
            changes.extend(oracle_diff(prev, nxt))
    return changes


# ------------------------------------------------------------------ snapshot lines

# non-ASCII text, quotes, backslashes and control characters
TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", " ", "😀", ""])
TTL = st.integers(0, MAX_TTL) | st.sampled_from([0, MAX_TTL])
RRSET = st.builds(RrSet, st.sampled_from(RRTYPES), st.lists(TEXT, min_size=1, max_size=3).map(tuple),
                  TTL)
INSTANT = st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1),
                       timezones=st.just(UTC))  # microseconds included
SNAPSHOT = st.builds(
    DnsSnapshot,
    registrable=TEXT, vantage_id=TEXT, taken_at=INSTANT,
    rrsets=st.lists(RRSET, max_size=3).map(tuple),  # empty rrsets included
    status=st.sampled_from([dnsmon.STATUS_OK, dnsmon.STATUS_FAILED]) | TEXT,
    attempts=st.integers(0, 10**12),
    errors=st.lists(TEXT, max_size=3).map(tuple),
    nxdomain=st.booleans(),
)


@BOUNDED
@given(SNAPSHOT)
def test_to_json_equals_json_dumps_and_round_trips(tmp_path_factory, snap):
    # a snapshot's store line, as append_many writes it and load reads it back
    path = tmp_path_factory.getbasetemp() / "round_trip.jsonl"
    path.unlink(missing_ok=True)
    store = SnapshotStore(path)
    store.append_many([snap])
    store.append_many([snap])  # the rrsets' cached text reads the same
    assert path.read_text(encoding="utf-8") == 2 * (oracle_to_json(snap) + "\n")
    assert store.load() == [snap, snap]


@settings(BOUNDED, max_examples=40)
@given(st.lists(SNAPSHOT, min_size=1, max_size=6), st.lists(INSTANT, min_size=1, max_size=2))
def test_append_many_writes_the_oracle_lines(tmp_path_factory, snaps, instants):
    # a tick's snapshots share one taken_at, and rrset objects are shared
    shared = [DnsSnapshot(s.registrable, s.vantage_id, instants[k % len(instants)],
                          s.rrsets + snaps[0].rrsets, s.status, s.attempts, s.errors, s.nxdomain)
              for k, s in enumerate(snaps)]
    path = tmp_path_factory.getbasetemp() / "oracle_store.jsonl"
    path.unlink(missing_ok=True)
    SnapshotStore(path).append_many(shared)
    assert path.read_text(encoding="utf-8") == "".join(oracle_to_json(s) + "\n" for s in shared)


# ------------------------------------------------------------------ scripted replay

VANTAGES = [VantagePoint("v1", "192.0.2.1:53", "us"), VantagePoint("v2", "192.0.2.2:53", "eu")]
DOMAINS = ["a.com", "b.com", "unscripted.com"]
TYPES = ["A", "NS", "TXT"]
# an answer that owes five timeouts or more carries some into the key's next
# lookup, so a key whose last step it is never settles
STEP = st.one_of(
    st.sampled_from(["nxdomain", "servfail", {}, {"values": [], "ttl": 0}]),
    st.fixed_dictionaries({"values": st.lists(st.sampled_from(["x", "y", "z"]), min_size=1,
                                              max_size=2),
                           "ttl": TTL,
                           "fail_count_before_success": st.integers(0, 9)}),
)
ENTRY = st.dictionaries(st.sampled_from(TYPES), st.lists(STEP, max_size=4), max_size=3)
SCRIPT = st.dictionaries(
    st.sampled_from(["a.com", "b.com", "a.com@v2", "b.com@v1", "unscripted.com@v2"]),
    ENTRY | st.just({}),  # an empty override {} still overrides the plain domain
    max_size=5)
ALL_LOOKUPS = [(v, d, t) for v in VANTAGES for d in DOMAINS for t in TYPES]
# each tick looks every (vantage, domain, rrtype) up once, in a drawn order,
# and may be followed by one direct query, which unsettles its key
TICKS = st.lists(st.tuples(st.permutations(ALL_LOOKUPS), st.none() | st.sampled_from(ALL_LOOKUPS)),
                 min_size=1, max_size=6)


@BOUNDED
@given(SCRIPT, TICKS)
@example({"a.com": {"A": ["nxdomain", {"values": ["x"], "ttl": 1}],
                    "NS": [{"values": ["y"], "fail_count_before_success": 3}, "servfail"]},
          "a.com@v2": {}}, [(ALL_LOOKUPS, None)] * 3)
@example({"a.com": {"A": [{"values": ["x"], "fail_count_before_success": 2}],
                    "NS": [{"values": ["y"], "fail_count_before_success": 5}],
                    "TXT": ["nxdomain", "servfail"]}},
         [(ALL_LOOKUPS, None), (ALL_LOOKUPS, (VANTAGES[0], "a.com", "A")), (ALL_LOOKUPS, None)])
def test_scripted_replay_equals_oracle(script, ticks):
    # the oracle keeps no settled outcome, so a settled lookup must replay as it does
    resolver, oracle = ScriptedResolver(script), OracleResolver(script)
    delays = dnsmon.backoff_delays(0.5, 8.0)
    for lookups, direct in ticks:  # each outcome's attempts count the retries
        assert resolver.resolve(lookups, delays) == oracle.resolve(lookups, delays)
        if direct is not None:
            assert comparable(resolver.query(*direct)) == comparable(oracle._attempt(*direct))
    for lookup in ALL_LOOKUPS:  # one more attempt each, query by query
        assert comparable(resolver.query(*lookup)) == comparable(oracle._attempt(*lookup))


def comparable(result):
    """An attempt's result; an error as its type and message, which is what it says."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


class BetweenTicks:
    """A resolver around another that makes one direct attempt after tick
    ``direct[0]`` and, if ``fresh``, hands out equal copies of each outcome,
    as a live resolver's are new objects at every tick."""

    def __init__(self, inner, attempt, direct, fresh):
        self.inner, self.attempt, self.direct, self.fresh = inner, attempt, direct, fresh
        self.ticks = 0

    def resolve(self, lookups, delays):
        outcomes = self.inner.resolve(lookups, delays)
        if self.direct is not None and self.direct[0] == self.ticks:
            self.attempt(*self.direct[1])
        self.ticks += 1
        if self.fresh:
            outcomes = [o._replace(rrset=r and RrSet(r.rrtype, r.values, r.ttl))
                        for o in outcomes for r in [o.rrset]]
        return outcomes


@BOUNDED
@given(SCRIPT, st.integers(1, 5),
       st.none() | st.tuples(st.integers(0, 3), st.sampled_from(ALL_LOOKUPS)), st.booleans())
@example({"a.com": {"A": [{"values": ["x"], "fail_count_before_success": 6}],
                    "NS": [{"values": ["y"], "ttl": 5}, {"values": ["y"], "ttl": 7}]},
          "b.com@v1": {"TXT": ["servfail", {"values": ["z"], "fail_count_before_success": 1}]}},
         4, (1, (VANTAGES[0], "b.com", "TXT")), False)
def test_run_schedule_writes_each_tick_as_built_afresh(tmp_path_factory, script, ticks, direct,
                                                       fresh):
    # a snapshot retaken from the last tick equals one built from the tick's
    # outcomes, in the store, in what is kept and in the analyses
    path = tmp_path_factory.getbasetemp() / "schedule.jsonl"
    path.unlink(missing_ok=True)
    resolver = ScriptedResolver(script)
    oracle = OracleResolver(script)
    delays, interval, kept = dnsmon.backoff_delays(0.5, 8.0), timedelta(minutes=30), []
    assert dnsmon.run_schedule(DOMAINS, VANTAGES, TYPES, delays,
                               BetweenTicks(resolver, resolver.query, direct, fresh),
                               SnapshotStore(path), T0, interval, T0 + ticks * interval, kept,
                               False) == ticks

    oracle = BetweenTicks(oracle, oracle._attempt, direct, False)
    pairs = [(d, v) for d in DOMAINS for v in VANTAGES]
    expected = []
    for tick in range(1, ticks + 1):
        outcomes = oracle.resolve([(v, d, t) for d, v in pairs for t in TYPES], delays)
        expected += [oracle_snapshot(d, v, T0 + tick * interval, outcomes[k * 3:k * 3 + 3])
                     for k, (d, v) in enumerate(pairs)]
    assert path.read_text(encoding="utf-8") == "".join(oracle_to_json(s) + "\n" for s in expected)
    assert kept == expected
    assert dnsmon.detect_changes(kept) == oracle_detect_changes(expected)
    try:
        summary = dnsmon.ttl_stats(kept)
    except NoObservations:
        summary = None
    assert summary == oracle_ttl_stats(expected)


# ------------------------------------------------------------------ change detection

VALUES = st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=3).map(tuple)
SMALL_RRSET = st.builds(RrSet, st.sampled_from(["A", "NS"]), VALUES, st.sampled_from([60, 300]))
STORED = st.builds(
    DnsSnapshot,
    registrable=st.sampled_from(["a.com", "b.com"]),
    vantage_id=st.sampled_from(["v1", "v2"]),
    taken_at=st.sampled_from([T0 + timedelta(minutes=m) for m in (0, 30, 60)]),  # repeated times
    rrsets=st.lists(SMALL_RRSET, max_size=3).map(tuple),
    status=st.sampled_from([dnsmon.STATUS_OK, dnsmon.STATUS_OK, dnsmon.STATUS_FAILED]),
    attempts=st.just(1),
    errors=st.lists(st.sampled_from(["A:timeout", "NS:servfail"]), max_size=1).map(tuple),
)


@st.composite
def sharing_store(draw):
    """Snapshots whose rrsets come from one small pool: the same objects, as
    a settled lookup hands out, or equal but distinct ones, as a store loads."""
    pool = draw(st.lists(SMALL_RRSET, min_size=1, max_size=3))
    store = []
    for snap in draw(st.lists(STORED, max_size=14)):
        rrsets = draw(st.lists(st.sampled_from(pool), max_size=3))
        if draw(st.booleans()):
            rrsets = [RrSet(r.rrtype, r.values, r.ttl) for r in rrsets]
        store.append(DnsSnapshot(snap.registrable, snap.vantage_id, snap.taken_at, tuple(rrsets),
                                 snap.status, snap.attempts, snap.errors, snap.nxdomain))
    return store


@BOUNDED
@given(st.lists(STORED, max_size=14) | sharing_store())
def test_detect_changes_equals_oracle(store):
    assert dnsmon.detect_changes(store) == oracle_detect_changes(store)


@BOUNDED
@given(STORED, STORED)
def test_diff_snapshots_equals_oracle(prev, nxt):
    # a two-snapshot series: one Ok domain and vantage at two times
    prev = DnsSnapshot(prev.registrable, prev.vantage_id, T0, prev.rrsets, dnsmon.STATUS_OK,
                       prev.attempts, prev.errors, prev.nxdomain)
    nxt = DnsSnapshot(prev.registrable, prev.vantage_id, T0 + timedelta(minutes=30), nxt.rrsets,
                      dnsmon.STATUS_OK, nxt.attempts, nxt.errors, nxt.nxdomain)
    assert dnsmon.detect_changes([prev, nxt]) == oracle_diff(prev, nxt)
