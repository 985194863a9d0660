"""Minimal DNS stub-resolver client over UDP with TCP fallback.

Implements just enough of the RFC 1035 wire format to query the record
types the monitor tracks. ``UdpResolver.resolve`` runs all the lookups of
a monitor tick on one ``selectors`` loop, with no threads. It keeps at
most ``WINDOW`` attempts in flight, each on its own connected non-blocking
UDP socket, so every query leaves from its own source port (RFC 5452
section 9.2). Each attempt has one deadline, which also covers the
non-blocking TCP exchange it falls back to when a reply is truncated. The
backoff between attempts runs as timers on the monotonic clock, and
``dnsmon.settle`` decides what is retried. Each resolver's address is
parsed, and its host looked up, once per call, not at every connect. A
resolver keeps what one ``resolve`` learned for the next: lookups that
were retried or answered over TCP start first, and one answered over TCP
starts over TCP (RFC 7766 section 5); its retries go UDP first.

A reply is accepted only from the resolver's address and only if it
carries the query's id and question (RFC 5452 section 9.1); other
datagrams are dropped. A reply that cannot be parsed counts as SERVFAIL,
so it is retried with backoff. Tests exercise the encode/decode layer
against fixed and fuzzed byte strings, and the loop against loopback
servers.
"""

from __future__ import annotations

import errno
import heapq
import math
import os
import selectors
import socket
import struct
import time
from collections import deque
from typing import Callable, Container, Iterator, Optional, Sequence, Union

from .dnsmon import (
    MAX_TTL, AttemptResult, Lookup, NxDomain, Outcome, QueryTimeout, RrSet,
    ServerFailure, VantagePoint, parse_resolver_address, settle,
)
from .errors import TYPE_CODES

# Attempts in flight at once. On loopback, 1024 overflowed a resolver's
# receive buffer, and the lost queries waited out the timeout.
WINDOW = 256

RCODE_NXDOMAIN = 3

FLAG_RD = 0x0100
FLAG_TC = 0x0200


def encode_name(name: str) -> bytes:
    """Wire form of a name; an empty, non-ASCII or over-63-byte label raises ValueError."""
    out = b""
    for label in name.rstrip(".").split("."):
        if not (label.isascii() and 0 < len(label) < 64):
            raise ValueError(f"bad label {label!r} in {name!r}")
        out += bytes([len(label)]) + label.encode("ascii")
    return out + b"\x00"


def build_query(domain: str, rrtype: str, qid: int) -> bytes:
    if rrtype not in TYPE_CODES:
        raise ValueError(f"unsupported rrtype {rrtype!r}")
    header = struct.pack("!HHHHHH", qid, FLAG_RD, 1, 0, 0, 0)
    question = encode_name(domain) + struct.pack("!HH", TYPE_CODES[rrtype], 1)
    return header + question


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a possibly-compressed name; returns (name, next offset)."""
    labels = []
    jumped = False
    end = offset
    hops = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated name")
        length = data[offset]
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(data):
                raise ValueError("truncated pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if not jumped:
                end = offset + 2
            offset = pointer
            jumped = True
            hops += 1
            if hops > 64:
                raise ValueError("pointer loop")
            continue
        if length & 0xC0:  # 0x40-0xBF: label types that RFC 1035 section 4.1.4 reserves
            raise ValueError(f"reserved label type {length:#04x}")
        if length == 0:
            if not jumped:
                end = offset + 1
            break
        offset += 1
        labels.append(data[offset:offset + length].decode("ascii", errors="replace"))
        offset += length
    return ".".join(labels), end


def _decode_rdata(data: bytes, rtype: int, start: int, length: int) -> str:
    rdata = data[start:start + length]
    if rtype == TYPE_CODES["A"]:
        return socket.inet_ntop(socket.AF_INET, rdata)
    if rtype == TYPE_CODES["AAAA"]:
        return socket.inet_ntop(socket.AF_INET6, rdata)
    if rtype in (TYPE_CODES["NS"], TYPE_CODES["CNAME"]):
        name, _ = decode_name(data, start)
        return name
    if rtype == TYPE_CODES["MX"]:
        pref = struct.unpack("!H", rdata[:2])[0]
        name, _ = decode_name(data, start + 2)
        return f"{pref} {name}"
    if rtype == TYPE_CODES["TXT"]:
        parts, pos = [], 0
        while pos < len(rdata):
            n = rdata[pos]
            if pos + 1 + n > len(rdata):
                raise ValueError("TXT character-string runs past its rdata")
            parts.append(rdata[pos + 1:pos + 1 + n].decode("utf-8", errors="replace"))
            pos += 1 + n
        return "".join(parts)
    if rtype == TYPE_CODES["SOA"]:
        mname, pos = decode_name(data, start)
        rname, pos = decode_name(data, pos)
        serial, refresh, retry, expire, minimum = struct.unpack("!IIIII", data[pos:pos + 20])
        return f"{mname} {rname} {serial} {refresh} {retry} {expire} {minimum}"
    return rdata.hex()


def parse_response(data: bytes) -> tuple[int, bool, list[tuple[str, int, int, str]]]:
    """Parse a response into (rcode, truncated, [(name, type, ttl, text)]).

    A malformed or truncated response raises ValueError.
    """
    if len(data) < 12:
        raise ValueError("short DNS response")
    _qid, flags, qdcount, ancount, _ns, _ar = struct.unpack("!HHHHHH", data[:12])
    rcode = flags & 0x000F
    truncated = bool(flags & FLAG_TC)
    offset = 12
    for _ in range(qdcount):
        _, offset = decode_name(data, offset)
        offset += 4  # qtype + qclass
    answers = []
    try:
        for _ in range(ancount):
            name, offset = decode_name(data, offset)
            rtype, _rclass, ttl, rdlength = struct.unpack("!HHIH", data[offset:offset + 10])
            offset += 10
            if offset + rdlength > len(data):
                raise ValueError("rdata runs past the end of the reply")
            answers.append((name, rtype, min(ttl, MAX_TTL),
                            _decode_rdata(data, rtype, offset, rdlength)))
            offset += rdlength
    except struct.error as exc:  # a record header or fixed-size rdata cut short
        raise ValueError(f"truncated DNS response: {exc}") from exc
    return rcode, truncated, answers


def _is_reply_to(request: bytes, reply: bytes) -> bool:
    """True if reply carries the request's id and echoes its one question."""
    return (reply[:2] == request[:2] and reply[4:6] == request[4:6]
            and reply[12:len(request)] == request[12:])


def _family(host: str) -> socket.AddressFamily:
    return socket.AF_INET6 if ":" in host else socket.AF_INET


# a resolver's numeric socket address, or the text of the error its lookup raised
Address = Union[tuple, str]


def _sockaddr(resolver_address: str) -> Address:
    """The numeric address of a ``resolver_address``, which raises ValueError if it
    does not parse; a host name is looked up as IPv4."""
    host, port = parse_resolver_address(resolver_address)
    try:
        return socket.getaddrinfo(host, port, _family(host), socket.SOCK_DGRAM)[0][4]
    except (OSError, ValueError) as exc:  # no error is kept, so no traceback outlives the loop
        return str(exc)


# An exchange runs as a generator: it yields each (socket, selector event) it
# waits for, is resumed once the event fires, and returns its result. The
# loop registers the socket only while the generator waits on it, so the
# generator may close its sockets whenever it runs.
Exchange = Iterator[tuple[socket.socket, int]]


class _Attempt:
    """One attempt of one lookup in flight on the loop."""

    __slots__ = ("index", "number", "steps", "sock", "deadline")

    def __init__(self, index: int, number: int, steps: Exchange, deadline: float):
        self.index, self.number, self.steps, self.deadline = index, number, steps, deadline
        self.sock: Optional[socket.socket] = None  # None once the attempt has ended


class UdpResolver:
    """Stub resolver speaking to the vantage's configured recursive server.

    Each attempt waits at most ``timeout`` seconds. Query ids come from
    os.urandom; they are transport nonces and never reach report output.
    """

    def __init__(self, timeout: float = 3.0):
        self.timeout = timeout
        # what the last resolve learned: (vantage id, domain, rrtype) of each
        # slow lookup -> whether its answer came over TCP
        self._slow: dict[tuple[str, str, str], bool] = {}

    def query(self, vantage: VantagePoint, domain: str, rrtype: str) -> Optional[RrSet]:
        """One attempt: the rrset, None for an empty answer, or a raised query error."""
        results: list[AttemptResult] = []
        self._run([(vantage, domain, rrtype)],
                  lambda i, number, result, tcp: results.append(result), [0], ())
        if isinstance(results[0], Exception):
            raise results[0]
        return results[0]

    def resolve(self, lookups: Sequence[Lookup], delays: Sequence[float]) -> list[Outcome]:
        """Each lookup's outcome, all on one loop; the backoff runs on its timers.

        A lookup that was slow in the last call, retried or answered over
        TCP, starts before the others, each group in the given order (longest
        job first, Graham 1969); one answered over TCP starts over TCP (RFC
        7766 section 5). Outcomes come back in the given order.
        """
        outcomes: list[Optional[Outcome]] = [None] * len(lookups)
        keys = [(vantage.id, domain, rrtype) for vantage, domain, rrtype in lookups]
        slow = self._slow
        learned: dict[tuple[str, str, str], bool] = {}
        order = sorted(range(len(keys)), key=lambda i: keys[i] not in slow)  # a stable sort
        tcp_first = {i for i, key in enumerate(keys) if slow.get(key)}

        def done(i: int, number: int, result: AttemptResult, tcp: bool) -> Optional[float]:
            outcomes[i] = settle(lookups[i][2], number, result)
            if outcomes[i] is None:
                return delays[number - 1]
            if tcp or number > 1:
                learned[keys[i]] = tcp
            return None

        self._run(lookups, done, order, tcp_first)
        self._slow = learned
        return outcomes  # type: ignore[return-value]  # every lookup has settled

    def _run(self, lookups: Sequence[Lookup],
             done: Callable[[int, int, AttemptResult, bool], Optional[float]],
             order: Sequence[int], tcp_first: Container[int]) -> None:
        """Run the lookups' attempts on one selector loop until each is done.

        First attempts start in ``order``; that of a lookup in ``tcp_first``
        goes over TCP. ``done(i, number, result, tcp)`` receives the result of
        attempt ``number`` of lookup i, and whether its reply came over TCP,
        and returns the delay before the next attempt, or None when the
        lookup is finished.
        """
        ready = deque((i, 1) for i in order)  # (lookup, attempt) to start
        addresses: dict[str, Address] = {}  # by resolver address, each parsed and looked up once
        timers: list[tuple[float, int, int]] = []  # (due, lookup, attempt) in backoff
        flight: deque[_Attempt] = deque()  # in start order, so deadlines ascend

        def advance(att: _Attempt) -> None:
            vantage, domain, rrtype = lookups[att.index]
            tcp = False
            try:
                att.sock, event = next(att.steps)
            except StopIteration as stop:
                rcode, answers, tcp = stop.value
                result = _read_answer(domain, rrtype, rcode, answers)
            except OSError as exc:
                result = ServerFailure(f"{domain}/{rrtype} via {vantage.id}: {exc}")
            except ValueError as exc:  # a malformed reply is retried like SERVFAIL
                result = ServerFailure(
                    f"malformed reply for {domain}/{rrtype} via {vantage.id}: {exc}")
            else:
                sel.register(att.sock, event, att)
                return
            att.sock = None
            end(att, result, tcp)

        def end(att: _Attempt, result: AttemptResult, tcp: bool) -> None:
            delay = done(att.index, att.number, result, tcp)
            if delay is not None:
                heapq.heappush(timers, (time.monotonic() + delay, att.index, att.number + 1))

        with selectors.DefaultSelector() as sel:
            try:
                while ready or timers or sel.get_map():
                    now = time.monotonic()
                    while timers and timers[0][0] <= now:  # a retry chain is a tick's
                        ready.appendleft(heapq.heappop(timers)[1:])  # longest, so it goes first
                    while ready and len(sel.get_map()) < WINDOW:
                        i, number = ready.popleft()
                        vantage, domain, rrtype = lookups[i]
                        address = addresses.get(vantage.resolver_address)
                        if address is None:
                            address = addresses[vantage.resolver_address] = _sockaddr(
                                vantage.resolver_address)
                        request = build_query(domain, rrtype, int.from_bytes(os.urandom(2), "big"))
                        steps = self._exchange(request, address, number == 1 and i in tcp_first)
                        att = _Attempt(i, number, steps, now + self.timeout)
                        flight.append(att)
                        advance(att)
                    while flight and (flight[0].sock is None or flight[0].deadline <= now):
                        att = flight.popleft()
                        if att.sock is not None:
                            sel.unregister(att.sock)
                            att.sock = None
                            att.steps.close()
                            vantage, domain, rrtype = lookups[att.index]
                            end(att, QueryTimeout(f"{domain}/{rrtype} via {vantage.id}"), False)
                    wake = min(timers[0][0] if timers else math.inf,
                               flight[0].deadline if flight else math.inf)
                    if wake == math.inf:  # nothing waits: every lookup is done
                        continue
                    for key, _ in sel.select(wake - now):
                        sel.unregister(key.fileobj)
                        advance(key.data)
            finally:  # an escaping error or an interrupt closes every open socket
                for att in flight:
                    att.steps.close()

    def _exchange(self, request: bytes, address: Address, tcp: bool) -> Exchange:
        """One attempt over UDP, then TCP if the reply is truncated, or over TCP
        alone if ``tcp``; returns (rcode, answers, whether the reply came over TCP).
        An address whose lookup failed fails the attempt with its error."""
        if isinstance(address, str):
            raise OSError(address)
        if not tcp:
            with socket.socket(_family(address[0]), socket.SOCK_DGRAM) as sock:
                sock.setblocking(False)
                # connect() makes the kernel drop datagrams from any other source
                sock.connect(address)
                sock.send(request)
                reply = b""
                while not _is_reply_to(request, reply):
                    yield sock, selectors.EVENT_READ
                    reply = sock.recv(4096)
            rcode, tcp, answers = parse_response(reply)
        if tcp:
            reply = yield from self._exchange_tcp(request, address)
            rcode, _, answers = parse_response(reply)
        return rcode, answers, tcp

    def _exchange_tcp(self, request: bytes, address: tuple) -> Exchange:
        """The exchange over TCP, after a truncated reply or in its place; returns the reply."""
        with socket.socket(_family(address[0]), socket.SOCK_STREAM) as sock:
            sock.setblocking(False)
            error = sock.connect_ex(address)
            if error not in (0, errno.EINPROGRESS):
                raise OSError(error, os.strerror(error))
            yield sock, selectors.EVENT_WRITE
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                raise OSError(error, os.strerror(error))
            # a query of at most a few hundred bytes fits a new socket's send buffer
            sock.sendall(struct.pack("!H", len(request)) + request)
            data = b""
            while len(data) < 2 or len(data) < 2 + struct.unpack("!H", data[:2])[0]:
                yield sock, selectors.EVENT_READ
                chunk = sock.recv(65537)
                if not chunk:
                    raise OSError("connection closed mid-response")
                data += chunk
        reply = data[2:2 + struct.unpack("!H", data[:2])[0]]
        if not _is_reply_to(request, reply):
            raise ValueError("TCP reply does not match the query")
        return reply


def _read_answer(domain: str, rrtype: str, rcode: int,
                 answers: list[tuple[str, int, int, str]]) -> AttemptResult:
    """What a parsed reply means for the lookup: an rrset, None or a query error."""
    if rcode == RCODE_NXDOMAIN:
        return NxDomain(domain)
    if rcode != 0:
        return ServerFailure(f"rcode {rcode} for {domain}/{rrtype}")
    wanted = TYPE_CODES[rrtype]
    matched = [(ttl, text) for _, rtype, ttl, text in answers if rtype == wanted]
    if not matched:
        return None
    return RrSet(
        rrtype=rrtype,
        values=tuple(text for _, text in matched),
        ttl=min(ttl for ttl, _ in matched),
    )
