"""Minimal DNS stub-resolver client over UDP with TCP fallback.

Implements just enough of the RFC 1035 wire format to query the record
types the monitor tracks. A reply is accepted only from the resolver's
address and only if it carries the query's id and question (RFC 5452
section 9.1); other datagrams are dropped. A reply that cannot be parsed
raises ServerFailure, so the monitor retries it with backoff as it does
SERVFAIL. Tests exercise the encode/decode layer against fixed and fuzzed
byte strings, and ``query`` against a loopback server.
"""

from __future__ import annotations

import os
import socket
import struct
import time
from typing import Optional

from .dnsmon import (
    MAX_TTL, NxDomain, QueryTimeout, RrSet, ServerFailure, VantagePoint, parse_resolver_address,
)

TYPE_CODES = {"A": 1, "NS": 2, "CNAME": 5, "SOA": 6, "MX": 15, "TXT": 16, "AAAA": 28}
CODE_TYPES = {v: k for k, v in TYPE_CODES.items()}

RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

FLAG_RD = 0x0100
FLAG_TC = 0x0200


def encode_name(name: str) -> bytes:
    out = b""
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not 0 < len(raw) < 64:
            raise ValueError(f"bad label in {name!r}")
        out += bytes([len(raw)]) + raw
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
        parts = []
        pos = 0
        while pos < len(rdata):
            n = rdata[pos]
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


class UdpResolver:
    """Stub resolver speaking to the vantage's configured recursive server.

    Uses UDP with a per-query timeout and falls back to TCP on truncation.
    Query ids come from os.urandom; they are transport nonces and never
    reach report output.
    """

    workers = 64  # each query blocks its thread for up to ``timeout``

    def __init__(self, timeout: float = 3.0):
        self.timeout = timeout

    def query(self, vantage: VantagePoint, domain: str, rrtype: str) -> Optional[RrSet]:
        qid = int.from_bytes(os.urandom(2), "big")
        request = build_query(domain, rrtype, qid)
        host, port = parse_resolver_address(vantage.resolver_address)
        try:
            data = self._exchange_udp(request, host, port)
            rcode, truncated, answers = parse_response(data)
            if truncated:
                data = self._exchange_tcp(request, host, port)
                rcode, _, answers = parse_response(data)
        except socket.timeout as exc:
            raise QueryTimeout(f"{domain}/{rrtype} via {vantage.id}") from exc
        except OSError as exc:
            raise ServerFailure(f"{domain}/{rrtype} via {vantage.id}: {exc}") from exc
        except ValueError as exc:  # a malformed reply is retried like SERVFAIL
            raise ServerFailure(
                f"malformed reply for {domain}/{rrtype} via {vantage.id}: {exc}") from exc

        if rcode == RCODE_NXDOMAIN:
            raise NxDomain(domain)
        if rcode != 0:
            raise ServerFailure(f"rcode {rcode} for {domain}/{rrtype}")

        wanted = TYPE_CODES[rrtype]
        matched = [(ttl, text) for _, rtype, ttl, text in answers if rtype == wanted]
        if not matched:
            return None
        return RrSet(
            rrtype=rrtype,
            values=tuple(text for _, text in matched),
            ttl=min(ttl for ttl, _ in matched),
        )

    def _exchange_udp(self, request: bytes, host: str, port: int) -> bytes:
        # connect() makes the kernel drop datagrams from any other source;
        # a datagram that is not a reply to this request is skipped, and the
        # query's one timeout covers all of them.
        deadline = time.monotonic() + self.timeout
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.connect((host, port))
            sock.send(request)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("no matching reply")
                sock.settimeout(remaining)
                reply = sock.recv(4096)
                if _is_reply_to(request, reply):
                    return reply

    def _exchange_tcp(self, request: bytes, host: str, port: int) -> bytes:
        with socket.create_connection((host, port), timeout=self.timeout) as sock:
            sock.sendall(struct.pack("!H", len(request)) + request)
            size_raw = self._recv_exact(sock, 2)
            size = struct.unpack("!H", size_raw)[0]
            reply = self._recv_exact(sock, size)
        if not _is_reply_to(request, reply):
            raise ValueError("TCP reply does not match the query")
        return reply

    @staticmethod
    def _recv_exact(sock: socket.socket, n: int) -> bytes:
        chunks = b""
        while len(chunks) < n:
            chunk = sock.recv(n - len(chunks))
            if not chunk:
                raise OSError("connection closed mid-response")
            chunks += chunk
        return chunks
