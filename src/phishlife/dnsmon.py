"""DNS record monitoring across vantage points.

Collects snapshots of tracked domains through a pluggable resolver (scripted
in memory for tests and simulation, a stub client for operation), detects
record changes and computes TTL analytics. ``run_schedule`` ticks at
``start + k * interval``, k = 1, 2, ...: a live run sleeps until each tick is
due on the wall clock, a simulated one never sleeps. Each tick hands all of
its (domain x vantage x rrtype) lookups to the resolver at once, and
``dnswire.UdpResolver`` keeps up to ``dnswire.WINDOW`` of them in flight on
one selector loop. Both resolvers retry by ``settle``, up to five attempts;
only ``UdpResolver`` waits the backoff. A (domain, vantage) pair whose
outcomes equal the last tick's gets that tick's snapshot fields and store
line retaken, so a settled observation is built and formatted once; only
``run_schedule`` keeps that tick, so no kept snapshot holds its text.
``SnapshotStore.append_many`` writes each line of a tick as it is made,
never the tick's whole text. No tick leaves a reference cycle:
``cli.main`` keeps the cyclic collector off while a command runs.
"""

from __future__ import annotations

import json
import time as _time
from datetime import datetime, timedelta, timezone
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Protocol, Sequence, Union

from .errors import RRTYPES, IoFailure, PhishlifeError, StoreFailure
from .ingest import normalize_host, read_json
from .timeutil import fmean, format_utc, median_low, parse_utc

MAX_TTL = 2**31 - 1
MAX_ATTEMPTS = 5

STATUS_OK = "ok"
STATUS_FAILED = "failed"


class QueryTimeout(PhishlifeError):
    """The resolver did not answer in time."""


class ServerFailure(PhishlifeError):
    """The resolver answered SERVFAIL."""


class NxDomain(PhishlifeError):
    """The name does not exist (feeds deregistration evidence)."""


class NoObservations(PhishlifeError):
    """No Ok snapshot with TTL observations was supplied."""


# a class, not a NamedTuple, as it keeps its parsed address; equal and hashed by
# its three fields
class VantagePoint:
    def __init__(self, id: str, resolver_address: str, region_label: str):
        self.id, self.resolver_address, self.region_label = id, resolver_address, region_label

    def __repr__(self) -> str:
        return (f"VantagePoint(id={self.id!r}, resolver_address={self.resolver_address!r}, "
                f"region_label={self.region_label!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not VantagePoint:
            return NotImplemented
        return ((self.id, self.resolver_address, self.region_label)
                == (other.id, other.resolver_address, other.region_label))

    def __hash__(self) -> int:
        return hash((self.id, self.resolver_address, self.region_label))

    @cached_property
    def address(self) -> tuple[str, int]:
        """The resolver's (host, port), parsed on first use; a bad address raises ValueError."""
        return parse_resolver_address(self.resolver_address)


# a class, not a NamedTuple, as it caches its JSON text, which equality leaves
# out: rrsets are equal when their rrtype, values and ttl are. No rrset is
# changed once made, and nothing in src/ hashes one
class RrSet:
    __slots__ = ("rrtype", "values", "ttl", "_json_text")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, rrtype: str, values: tuple[str, ...], ttl: int):
        if rrtype not in RRTYPES:
            raise ValueError(f"unknown rrtype {rrtype!r}")
        if not values:
            raise ValueError("rrset values must be non-empty")
        if not 0 <= ttl <= MAX_TTL:
            raise ValueError(f"ttl out of range: {ttl}")
        self.rrtype, self.values, self.ttl, self._json_text = rrtype, values, ttl, None

    def __eq__(self, other: object) -> bool:
        if type(other) is not RrSet:
            return NotImplemented
        return (self.rrtype, self.values, self.ttl) == (other.rrtype, other.values, other.ttl)

    @property
    def json_text(self) -> str:
        """The rrset as ``json.dumps(..., sort_keys=True)`` writes it, made once per rrset."""
        text = self._json_text
        if text is None:
            text = self._json_text = (
                f'{{"rrtype": {_json_str(self.rrtype)}, "ttl": {self.ttl}, '
                f'"values": [{", ".join(map(_json_str, self.values))}]}}')
        return text


# a class, not a NamedTuple: Python 3.11 specialises a slot read but not a
# tuple-field read, and the analyses read these fields once per snapshot.
# Snapshots are equal when their fields are; no field is changed once it is made
class DnsSnapshot:
    __slots__ = ("registrable", "vantage_id", "taken_at", "rrsets", "status", "attempts",
                 "errors", "nxdomain")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, registrable: str, vantage_id: str, taken_at: datetime,
                 rrsets: tuple[RrSet, ...], status: str, attempts: int,
                 errors: tuple[str, ...] = (), nxdomain: bool = False):
        self.registrable, self.vantage_id, self.taken_at, self.rrsets = (
            registrable, vantage_id, taken_at, rrsets)
        self.status, self.attempts, self.errors, self.nxdomain = status, attempts, errors, nxdomain

    def __eq__(self, other: object) -> bool:
        if type(other) is not DnsSnapshot:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @classmethod
    def from_json(cls, line: str) -> "DnsSnapshot":
        """A store line's snapshot; a line of another shape or field type raises
        KeyError, TypeError or ValueError."""
        obj = json.loads(line)
        return cls(
            registrable=_typed(obj["registrable"], str),
            vantage_id=_typed(obj["vantage_id"], str),
            taken_at=parse_utc(_typed(obj["taken_at"], str)),
            rrsets=tuple(
                RrSet(r["rrtype"], _strings(r["values"]), _typed(r["ttl"], int))
                for r in _typed(obj["rrsets"], list)
            ),
            status=_typed(obj["status"], str),
            attempts=_typed(obj["attempts"], int),
            errors=_strings(obj.get("errors", [])),
            nxdomain=_typed(obj.get("nxdomain", False), bool),
        )


def _typed(value: object, kind: type) -> object:
    """``value`` if its type is exactly ``kind``, else TypeError; JSON true is no int."""
    if type(value) is not kind:
        raise TypeError(f"{value!r} is not of type {kind.__name__}")
    return value


def _strings(value: object) -> tuple[str, ...]:
    """A JSON list of strings as a tuple; any other value raises TypeError."""
    if not (type(value) is list and all(type(v) is str for v in value)):
        raise TypeError(f"{value!r} is not a list of strings")
    return tuple(value)


def _line(snap: DnsSnapshot) -> tuple[str, str]:
    """The snapshot's store line as ``json.dumps`` with sorted keys writes it,
    split at ``taken_at``: the text before and after the quoted instant."""
    return (f'{{"attempts": {snap.attempts}, '
            f'"errors": [{", ".join(map(_json_str, snap.errors))}], '
            f'"nxdomain": {"true" if snap.nxdomain else "false"}, '
            f'"registrable": {_json_str(snap.registrable)}, '
            f'"rrsets": [{", ".join([r.json_text for r in snap.rrsets])}], '
            f'"status": {_json_str(snap.status)}, "taken_at": ',
            f', "vantage_id": {_json_str(snap.vantage_id)}}}\n')


class RecordChange(NamedTuple):
    registrable: str
    rrtype: str
    vantage_id: str
    before: tuple[str, ...]
    after: tuple[str, ...]
    observed_at: datetime


class DomainTtl(NamedTuple):
    registrable: str
    observations: int
    min_ttl: int
    median_ttl: float
    mean_ttl: float


class TtlSummary(NamedTuple):
    """Per-domain TTL statistics plus fast-flux bucket counts.

    A domain counts in a bucket when its minimum observed TTL falls in it;
    bucket bounds are strict (a 3600 s TTL is not "under 3600 s").
    """

    per_domain: tuple[DomainTtl, ...]
    under_60s: int
    under_3600s: int
    over_43200s: int
    between_43200s_and_86400s: int
    overall_median_ttl: float
    overall_mean_ttl: float


Lookup = tuple[VantagePoint, str, str]  # (vantage, domain, rrtype)
# what one attempt gave: an rrset, None for an empty answer, or a query error
AttemptResult = Union[RrSet, None, QueryTimeout, ServerFailure, NxDomain]


class Outcome(NamedTuple):
    """A lookup's result after its last attempt."""

    rrset: Optional[RrSet]
    attempts: int
    error: Optional[str]  # "<rrtype>:timeout" or "<rrtype>:servfail" when every attempt failed
    nxdomain: bool


def settle(rrtype: str, attempt: int, result: AttemptResult) -> Optional[Outcome]:
    """The retry policy: a lookup's outcome after attempt ``attempt``, or None to retry.

    A timeout or SERVFAIL is retried up to MAX_ATTEMPTS attempts in all;
    an answer, an empty answer or NXDOMAIN ends the lookup.
    """
    if isinstance(result, NxDomain):
        return Outcome(None, attempt, None, True)
    if isinstance(result, (QueryTimeout, ServerFailure)):
        if attempt < MAX_ATTEMPTS:
            return None
        kind = "timeout" if isinstance(result, QueryTimeout) else "servfail"
        return Outcome(None, attempt, f"{rrtype}:{kind}", False)
    return Outcome(result, attempt, None, False)


class Resolver(Protocol):
    def resolve(self, lookups: Sequence[Lookup], delays: Sequence[float]) -> list[Outcome]:
        """Each lookup's outcome under ``settle``, in the order given.

        ``delays[k]`` is the backoff between attempts k + 1 and k + 2 that take time.
        """


# a compiled fixture step: "nxdomain", "servfail", or (timeouts before the
# answer, the answer's rrset or None for an empty answer)
Step = Union[str, tuple[int, Optional[RrSet]]]
_UNSCRIPTED: tuple[Step, ...] = ("nxdomain",)  # the steps of a domain absent from the script
_NO_RECORDS: tuple[Step, ...] = ((0, None),)  # of an rrtype a scripted domain lacks


class ScriptedResolver:
    """In-memory resolver driven by a fixture script.

    The script maps ``domain -> rrtype -> [step, ...]`` where each step is
    either the string "nxdomain", the string "servfail", or an object
    ``{"values": [...], "ttl": N, "fail_count_before_success": K}``. A step
    times out K times before answering; each delivered answer (or nxdomain)
    advances to the next step, and the last step repeats. Keys of the form
    ``domain@vantage_id`` override the plain domain entry for one vantage.
    Domains absent from the script resolve as nxdomain. The constructor
    compiles the script once and normalizes each key's domain as
    ``ingest.normalize_host`` does a monitored domain. Another shape, an
    rrtype key not in RRTYPES, a domain that is not a host, or two keys that
    normalize alike raise ValueError.
    """

    def __init__(self, script: object):
        self._script = _compile_script(script)
        # (vantage id, domain, rrtype) -> [its steps, index of the step to
        # replay, timeouts given on that step so far, the settled outcome or None]
        self._replays: dict[tuple[str, str, str], list] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedResolver":
        """Load a fixture; a file ``query`` could not replay raises IoFailure."""
        script = read_json(path, "resolver fixture")
        try:
            return cls(script)
        except ValueError as exc:
            raise IoFailure(f"malformed resolver fixture {path}: {exc}") from exc

    def resolve(self, lookups: Sequence[Lookup], delays: Sequence[float]) -> list[Outcome]:
        """Each lookup's outcome, one attempt after another; a scripted attempt
        takes no time, so no backoff is waited and ``delays`` goes unread.

        A lookup that starts and ends on its key's last step with no timeouts
        owed is settled: every later one replays the same attempts, so they
        return its outcome without a query, until a direct ``query`` of the key.
        """
        query, replays = self.query, self._replays
        outcomes = []
        for vantage, domain, rrtype in lookups:
            key = (vantage.id, domain, rrtype)
            replay = replays.get(key)
            if replay is not None and replay[3] is not None:
                outcomes.append(replay[3])
                continue
            start = (0, 0) if replay is None else (replay[1], replay[2])
            attempt = 1
            while (outcome := settle(rrtype, attempt, query(vantage, domain, rrtype))) is None:
                attempt += 1
            replay = replays[key]
            if start == (replay[1], replay[2]) == (len(replay[0]) - 1, 0):
                replay[3] = outcome
            outcomes.append(outcome)
        return outcomes

    def query(self, vantage: VantagePoint, domain: str, rrtype: str) -> AttemptResult:
        """One attempt: the rrset, None for an empty answer, or the query error."""
        key = (vantage.id, domain, rrtype)
        replay = self._replays.get(key)
        if replay is None:  # the key's first attempt
            entry = self._script.get(f"{domain}@{vantage.id}")
            if entry is None:  # an empty override {} still overrides
                entry = self._script.get(domain)
            steps = _UNSCRIPTED if entry is None else entry.get(rrtype) or _NO_RECORDS
            replay = self._replays[key] = [steps, 0, 0, None]
        else:  # a direct query may move a settled key off its settled state
            replay[3] = None
        steps, idx, fails, _ = replay
        step = steps[idx]
        if step == "servfail":
            return ServerFailure(domain)
        if step == "nxdomain":
            result: AttemptResult = NxDomain(domain)
        else:
            fails_needed, result = step
            if fails < fails_needed:
                replay[2] = fails + 1
                return QueryTimeout(f"{domain}/{rrtype} (scripted)")
            replay[2] = 0
        if idx + 1 < len(steps):  # the last step repeats
            replay[1] = idx + 1
        return result


def _compile_step(key: str, rrtype: str, step: object) -> Step:
    """A fixture step as ``query`` replays it; a step of another shape raises ValueError."""
    if step in ("nxdomain", "servfail"):
        return str(step)
    if isinstance(step, dict):
        values, ttl = step.get("values", []), step.get("ttl", 0)
        fails = step.get("fail_count_before_success", 0)
        # a count is a non-negative int; JSON true and false load as bool, an int subclass
        if (isinstance(values, list) and all([isinstance(v, str) for v in values])
                and type(ttl) is int and type(fails) is int and 0 <= ttl <= MAX_TTL and fails >= 0):
            return fails, RrSet(rrtype, tuple(values), ttl) if values else None
    raise ValueError(f"{key}/{rrtype}: bad step {json.dumps(step)}")


def _compile_script(script: object) -> dict[str, dict[str, list[Step]]]:
    """The script's steps compiled for ``query``, by normalized key; another
    shape, a domain that is not a host or two keys that normalize alike raise
    ValueError."""
    if not isinstance(script, dict):
        raise ValueError("not a JSON object")
    compiled = {}
    for key, entry in script.items():
        domain, at, vantage_id = key.partition("@")
        try:
            host = normalize_host(domain)
        except PhishlifeError as exc:
            raise ValueError(f"{key}: not a host: {exc}") from exc
        name = key if host == domain else host + at + vantage_id
        if name in compiled:
            raise ValueError(f"{key}: another key also names {name}")
        if not (isinstance(entry, dict)
                and all(t in RRTYPES and isinstance(s, list) for t, s in entry.items())):
            raise ValueError(f"{key}: not an object of rrtype -> list of steps, "
                             f"with rrtypes among {', '.join(RRTYPES)}")
        compiled[name] = {rrtype: [_compile_step(key, rrtype, step) for step in steps]
                          for rrtype, steps in entry.items()}
    return compiled


def backoff_delays(base: float, cap: float) -> list[float]:
    """Delays waited between live attempts: base, 2*base, ... capped at cap."""
    return [min(base * (2 ** k), cap) for k in range(MAX_ATTEMPTS - 1)]


def _snapshot(domain: str, vantage: VantagePoint, at: datetime,
              outcomes: Sequence[Outcome]) -> DnsSnapshot:
    """One vantage's snapshot of a domain from its rrtypes' outcomes.

    Partial rrtype failures downgrade to Ok with the failed type noted;
    only a snapshot with no answered rrtype at all is marked failed. An
    NXDOMAIN is a definitive negative answer, not a failure.
    """
    rrsets, errors = [], []
    attempts, answered, nxdomain = 1, False, False
    for rrset, tries, error, nx in outcomes:
        if rrset is not None:
            rrsets.append(rrset)
        if error is None:
            answered = True
        else:
            errors.append(error)
        if nx:
            nxdomain = True
        if tries > attempts:
            attempts = tries
    return DnsSnapshot(domain, vantage.id, at, tuple(rrsets),
                       STATUS_OK if answered else STATUS_FAILED, attempts, tuple(errors), nxdomain)


# one tick: the resolver's outcomes in lookup order, a snapshot per (domain,
# vantage) pair, and each snapshot's store line as ``_line`` splits it
Tick = tuple[list[Outcome], list[DnsSnapshot], list[tuple[str, str]]]


def collect_snapshots(pairs: Sequence[tuple[str, VantagePoint]], lookups: Sequence[Lookup],
                      resolver: Resolver, taken_at: datetime, delays: Sequence[float],
                      previous: Optional[Tick] = None) -> Tick:
    """One tick: a snapshot per (domain, vantage) pair, in that order, taken at ``taken_at``;
    ``lookups`` holds each pair's rrtype lookups in turn, and all go to the resolver at once.

    A snapshot is a function of its pair and outcomes: a pair whose outcomes equal those in
    ``previous`` (the last tick, or None) gets that tick's snapshot fields and line retaken."""
    outcomes = resolver.resolve(lookups, delays)
    n = len(outcomes) // len(pairs) if pairs else 0
    last_outcomes, last_snapshots, last_texts = previous or ((), (), ())
    snapshots, texts = [], []
    for k, (domain, vantage) in enumerate(pairs):
        group = outcomes[k * n:(k + 1) * n]
        if last_outcomes and last_outcomes[k * n:(k + 1) * n] == group:
            last = last_snapshots[k]
            snap = DnsSnapshot(domain, vantage.id, taken_at, last.rrsets, last.status,
                               last.attempts, last.errors, last.nxdomain)
            text = last_texts[k]
        else:
            snap = _snapshot(domain, vantage, taken_at, group)
            text = _line(snap)
        snapshots.append(snap)
        texts.append(text)
    return outcomes, snapshots, texts


class SnapshotStore:
    """Append-only JSON-lines store, one DnsSnapshot per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append_many(self, snapshots: Sequence[DnsSnapshot], texts: Optional[list] = None) -> None:
        """Append each snapshot's line: from ``texts``, a tick's lines, or else by ``_line``."""
        if not snapshots:
            return

        def lines() -> Iterator[str]:
            stamps: dict[datetime, str] = {}  # each distinct taken_at, formatted and quoted once
            for snap, text in zip(snapshots, map(_line, snapshots) if texts is None else texts):
                stamp = stamps.get(snap.taken_at)
                if stamp is None:
                    stamp = stamps[snap.taken_at] = _json_str(format_utc(snap.taken_at))
                yield stamp.join(text)  # the text around the quoted taken_at

        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.writelines(lines())
        except OSError as exc:
            raise StoreFailure(f"cannot append to {self.path}: {exc}") from exc

    def load(self) -> list[DnsSnapshot]:
        last = "\n"  # the last non-blank line; one without its newline is torn
        try:
            with open(self.path, encoding="utf-8") as fh:
                snapshots = [DnsSnapshot.from_json(last := line) for line in fh if line.strip()]
        except FileNotFoundError:  # no store yet; a path under a regular file fails below
            return []
        except OSError as exc:
            raise StoreFailure(f"cannot read {self.path}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:  # a torn or foreign line
            raise StoreFailure(f"malformed snapshot in {self.path}: {exc!r}") from exc
        if last[-1] != "\n":  # an append would run its first line onto this one
            raise StoreFailure(f"torn last line in {self.path}: it ends without a newline")
        return snapshots


def run_schedule(
    domains: Sequence[str],
    vantages: Sequence[VantagePoint],
    types: Sequence[str],
    delays: Sequence[float],
    resolver: Resolver,
    store: SnapshotStore,
    start: datetime,
    interval: timedelta,
    until: Optional[datetime],
    kept: list[DnsSnapshot],
    live: bool,
) -> int:
    """Collect every domain at each tick ``start + k * interval``, k = 1, 2, ...,
    while the tick is not after ``until`` (None: no end).

    A live run sleeps until each tick is due on the wall clock; a simulated
    run never sleeps. Each tick's snapshots are appended to the store and to
    ``kept`` in (domain, vantage) order, taken at the tick, so runs are
    deterministic. Returns the number of completed ticks.
    """
    if interval <= timedelta(0):
        raise ValueError("interval must be positive")  # else the loop would never end
    due = start + interval
    ticks = 0
    pairs = [(d, v) for d in domains for v in vantages]
    lookups = [(v, d, t) for d, v in pairs for t in types]
    tick: Optional[Tick] = None  # the last tick alone, for its retakes
    while until is None or due <= until:
        # a sleep that ends early by the wall clock is resumed, so no tick runs before it is due
        while live and (gap := (due - datetime.now(timezone.utc)).total_seconds()) > 0:
            _time.sleep(gap)
        tick = collect_snapshots(pairs, lookups, resolver, due, delays, tick)
        _, snapshots, texts = tick
        store.append_many(snapshots, texts)
        kept.extend(snapshots)
        due += interval
        ticks += 1
    return ticks


def _values(snapshot: DnsSnapshot) -> tuple[dict[str, list[str]], set[str]]:
    """What a diff reads of a snapshot: each rrtype's sorted values, and the failed rrtypes."""
    merged: dict[str, list[str]] = {}
    for rrset in snapshot.rrsets:
        merged.setdefault(rrset.rrtype, []).extend(rrset.values)
    for values in merged.values():
        values.sort()
    return merged, {err.split(":", 1)[0] for err in snapshot.errors}


def _diff(prev: DnsSnapshot, next: DnsSnapshot) -> list[RecordChange]:
    """Changes from one snapshot to the next of one domain from one vantage.

    One RecordChange per rrtype whose value multiset differs; TTL-only
    drift and value reordering are not changes. Rrtypes whose query failed
    on either side are skipped rather than reported as disappearances.
    """
    (before_map, before_failed), (after_map, after_failed) = _values(prev), _values(next)
    if before_map == after_map:
        return []
    skip = before_failed | after_failed
    changes = []
    for rrtype in sorted(before_map.keys() | after_map.keys()):
        if rrtype in skip:
            continue
        before = before_map.get(rrtype, [])
        after = after_map.get(rrtype, [])
        if before != after:
            changes.append(RecordChange(
                registrable=prev.registrable,
                rrtype=rrtype,
                vantage_id=prev.vantage_id,
                before=tuple(before),
                after=tuple(after),
                observed_at=next.taken_at,
            ))
    return changes


def detect_changes(snapshots: Iterable[DnsSnapshot]) -> list[RecordChange]:
    """Diff consecutive Ok snapshots per (domain, vantage) across a store, by ``_diff``.

    Each series is sorted by time, and a pair with equal times is skipped,
    as when a second run into one store repeats the first run's times.
    """
    series: dict[tuple[str, str], list[DnsSnapshot]] = {}
    for snap in snapshots:
        if snap.status != STATUS_OK:
            continue
        series.setdefault((snap.registrable, snap.vantage_id), []).append(snap)

    changes: list[RecordChange] = []
    for key in sorted(series):
        chain = sorted(series[key], key=lambda s: s.taken_at)
        for prev, nxt in zip(chain, chain[1:]):
            # equal rrsets have equal values, so only a pair whose rrsets differ is diffed
            if prev.taken_at != nxt.taken_at and prev.rrsets != nxt.rrsets:
                changes.extend(_diff(prev, nxt))
    return changes


def ttl_stats(snapshots: Iterable[DnsSnapshot]) -> TtlSummary:
    """Per-domain TTL statistics and fast-flux bucket counts."""
    ttls_by_domain: dict[str, list[int]] = {}
    for snap in snapshots:
        if snap.status != STATUS_OK:
            continue
        for rrset in snap.rrsets:
            ttls_by_domain.setdefault(snap.registrable, []).append(rrset.ttl)

    if not ttls_by_domain:
        raise NoObservations("no Ok snapshots with rrsets")

    per_domain = []
    under_60 = under_3600 = over_43200 = between = 0
    for registrable in sorted(ttls_by_domain):
        ttls = ttls_by_domain[registrable]
        low = min(ttls)
        per_domain.append(DomainTtl(
            registrable=registrable,
            observations=len(ttls),
            min_ttl=low,
            median_ttl=float(median_low(ttls)),
            mean_ttl=fmean(ttls),
        ))
        if low < 60:
            under_60 += 1
        if low < 3600:
            under_3600 += 1
        if low > 43200:
            over_43200 += 1
            if low < 86400:
                between += 1

    medians = [d.median_ttl for d in per_domain]
    return TtlSummary(
        per_domain=tuple(per_domain),
        under_60s=under_60,
        under_3600s=under_3600,
        over_43200s=over_43200,
        between_43200s_and_86400s=between,
        overall_median_ttl=float(median_low(medians)),
        overall_mean_ttl=fmean(medians),
    )


def parse_resolver_address(address: object) -> tuple[str, int]:
    """Split a resolver address into (host, port).

    The forms are ``host``, ``host:port``, a bare IPv6 address such as
    ``::1``, and ``[IPv6 address]:port``; the port defaults to 53. A
    non-string address, an empty host, a bracket without ``]:port`` after
    the address, or a port that is not decimal digits in 0-65535 raises
    ValueError: a socket connected to an empty host reaches the local one.
    """
    if not isinstance(address, str):
        raise ValueError(f"resolver address {address!r} is not a string")
    if address.startswith("["):
        host, close, port = address[1:].partition("]:")
        if not close:
            raise ValueError(f"resolver address {address!r} is not of the form [address]:port")
    elif address.count(":") == 1:
        host, port = address.split(":")
    else:  # a bare host, or a bare IPv6 address
        host, port = address, "53"
    if not host:
        raise ValueError(f"resolver address {address!r} has an empty host")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"port of resolver address {address!r} is not an integer in 0-65535")
    return host, int(port)


def load_vantages(path: str | Path) -> list[VantagePoint]:
    """Load vantage points from a JSON array of {id, resolver_address, region_label}.

    An unreadable or malformed file, an empty list, a non-string id or
    region_label, a bad resolver address or a repeated id raises IoFailure.
    """
    raw = read_json(path, "vantages")
    try:
        vantages = [
            VantagePoint(id=v["id"], resolver_address=v["resolver_address"],
                         region_label=v.get("region_label", ""))
            for v in raw
        ]
        for v in vantages:
            v.address  # parsed once here, and kept for the live resolver
            if not (isinstance(v.id, str) and isinstance(v.region_label, str)):
                raise ValueError(f"id and region_label of {v} must be strings")
    except (KeyError, TypeError, ValueError) as exc:
        raise IoFailure(f"malformed vantages {path}: {exc}") from exc
    if not vantages:
        raise IoFailure(f"no vantages in {path}")
    ids = [v.id for v in vantages]
    if len(set(ids)) != len(ids):
        raise IoFailure(f"duplicate vantage ids in {path}")
    return vantages
