"""Loopback DNS responder for the monitor_live workload.

One thread serves one UDP socket and one TCP listener on the same
127.0.0.1 port. Every reply leaves after a fixed delay, so a client that
overlaps queries finishes sooner than one that sends them one by one, as
against a real recursive resolver. Planted behaviours, by domain role:

- ``truncated``: UDP replies carry TC and no answers; TCP replies answer.
- ``servfail_first``: every other query for a (name, type) gets SERVFAIL,
  so each first attempt fails and its retry succeeds.
- ``nxdomain`` and names outside the zone: NXDOMAIN.

No packet is dropped: a lost datagram would cost the client a fixed 3 s
timeout and swamp the measurement.

The counters make the client's socket use visible from outside the
program: datagrams received, replies by outcome, TCP connections accepted
and the distinct UDP source ports seen.
"""

from __future__ import annotations

import heapq
import ipaddress
import selectors
import socket
import struct
import threading
import time
from collections import Counter

TYPE_CODES = {"A": 1, "NS": 2, "MX": 15, "TXT": 16, "AAAA": 28}
CODE_TYPES = {v: k for k, v in TYPE_CODES.items()}
RCODE_NAMES = {0: "noerror", 2: "servfail", 3: "nxdomain"}
REPLY_DELAY_S = 0.02


def _encode_name(name: str) -> bytes:
    out = b""
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        out += bytes([len(raw)]) + raw
    return out + b"\x00"


def _rdata(rrtype: str, value: str) -> bytes:
    if rrtype == "A":
        return ipaddress.IPv4Address(value).packed
    if rrtype == "AAAA":
        return ipaddress.IPv6Address(value).packed
    if rrtype == "NS":
        return _encode_name(value)
    if rrtype == "MX":
        pref, host = value.split(" ", 1)
        return struct.pack("!H", int(pref)) + _encode_name(host)
    raw = value.encode("utf-8")                      # TXT: one character-string
    return bytes([len(raw)]) + raw


def parse_question(query: bytes) -> tuple[int, str, int, bytes]:
    """Return (qid, qname, qtype, question bytes) of a single-question query."""
    qid = struct.unpack("!H", query[:2])[0]
    labels = []
    pos = 12
    while query[pos]:
        n = query[pos]
        labels.append(query[pos + 1:pos + 1 + n].decode("ascii").lower())
        pos += 1 + n
    qtype = struct.unpack("!H", query[pos + 1:pos + 3])[0]
    return qid, ".".join(labels), qtype, query[12:pos + 5]


class Responder:
    """Scripted DNS server on loopback; use as a context manager."""

    def __init__(self, zone: dict, roles: dict):
        self.zone = zone
        self.truncated = set(roles.get("truncated", ()))
        self.servfail_first = set(roles.get("servfail_first", ()))
        self.counters: Counter = Counter()
        self.ports: set[int] = set()
        self._asked: Counter = Counter()
        self._due: list = []                           # heap of (due, seq, send)
        self._seq = 0
        self._lock = threading.Lock()
        self._running = False
        self._thread: threading.Thread | None = None
        self._sel = selectors.DefaultSelector()
        self.udp, self.tcp = self._bind()
        self.port = self.udp.getsockname()[1]

    @staticmethod
    def _bind() -> tuple[socket.socket, socket.socket]:
        for _ in range(20):
            udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            udp.bind(("127.0.0.1", 0))
            tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                tcp.bind(("127.0.0.1", udp.getsockname()[1]))
            except OSError:
                udp.close()
                tcp.close()
                continue
            tcp.listen(256)
            udp.setblocking(False)
            tcp.setblocking(False)
            return udp, tcp
        raise OSError("no port free for both UDP and TCP on 127.0.0.1")

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "Responder":
        self._sel.register(self.udp, selectors.EVENT_READ, "udp")
        self._sel.register(self.tcp, selectors.EVENT_READ, "accept")
        self._running = True
        self._thread = threading.Thread(target=self._serve, name="dns-responder", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=10)
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        self._sel.close()

    def take_counters(self) -> dict:
        """Counters since the previous call, with ``client_ports``; then reset."""
        with self._lock:
            out = dict(self.counters, client_ports=len(self.ports))
            self.counters.clear()
            self.ports.clear()
            self._asked.clear()
        return out

    # ------------------------------------------------------------ serving

    def _serve(self) -> None:
        while self._running:
            now = time.monotonic()
            while self._due and self._due[0][0] <= now:
                _, _, send = heapq.heappop(self._due)
                send()
            timeout = 0.05 if not self._due else max(0.0, self._due[0][0] - now)
            for key, _ in self._sel.select(timeout=min(timeout, 0.05)):
                if key.data == "udp":
                    self._on_datagram()
                elif key.data == "accept":
                    self._on_accept()
                else:
                    self._on_tcp_data(key.fileobj, key.data)

    def _later(self, send) -> None:
        self._seq += 1
        heapq.heappush(self._due, (time.monotonic() + REPLY_DELAY_S, self._seq, send))

    def _on_datagram(self) -> None:
        while True:
            try:
                query, addr = self.udp.recvfrom(4096)
            except BlockingIOError:
                return
            with self._lock:
                self.counters["datagrams"] += 1
                self.ports.add(addr[1])
            reply = self._answer(query, tcp=False)
            self._later(lambda r=reply, a=addr: self._send_datagram(r, a))

    def _send_datagram(self, reply: bytes, addr) -> None:
        try:
            self.udp.sendto(reply, addr)
        except OSError:
            with self._lock:
                self.counters["send_errors"] += 1

    def _on_accept(self) -> None:
        while True:
            try:
                conn, _ = self.tcp.accept()
            except BlockingIOError:
                return
            with self._lock:
                self.counters["tcp_connections"] += 1
            conn.setblocking(False)
            self._sel.register(conn, selectors.EVENT_READ, bytearray())

    def _on_tcp_data(self, conn: socket.socket, buf: bytearray) -> None:
        try:
            chunk = conn.recv(4096)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        buf += chunk
        done = len(buf) >= 2 and len(buf) >= 2 + struct.unpack("!H", buf[:2])[0]
        if not chunk or done:
            self._sel.unregister(conn)
        if not done:
            if not chunk:
                conn.close()
            return
        reply = self._answer(bytes(buf[2:]), tcp=True)

        def send(c=conn, r=reply) -> None:
            try:
                c.setblocking(True)
                c.settimeout(1.0)
                c.sendall(struct.pack("!H", len(r)) + r)
            except OSError:
                with self._lock:
                    self.counters["send_errors"] += 1
            finally:
                c.close()
        self._later(send)

    def _answer(self, query: bytes, tcp: bool) -> bytes:
        qid, qname, qtype, question = parse_question(query)
        rrtype = CODE_TYPES.get(qtype, "")
        answers: list[tuple[str, int]] = []
        flags = 0x8180                                 # QR, RD, RA
        with self._lock:
            asked = self._asked[(qname, qtype)]
            self._asked[(qname, qtype)] += 1
            if qname not in self.zone:
                rcode = 3
            elif qname in self.servfail_first and asked % 2 == 0:
                rcode = 2
            elif qname in self.truncated and not tcp:
                rcode, flags = 0, flags | 0x0200
            else:
                rcode = 0
                rrset = self.zone[qname].get(rrtype)
                if rrset:
                    answers = [(v, rrset["ttl"]) for v in rrset["values"]]
            kind = "truncated" if flags & 0x0200 else RCODE_NAMES[rcode]
            self.counters[f"replies_{kind}"] += 1
        header = struct.pack("!HHHHHH", qid, flags | rcode, 1, len(answers), 0, 0)
        body = b""
        for value, ttl in answers:
            rdata = _rdata(rrtype, value)
            body += struct.pack("!HHHIH", 0xC00C, qtype, 1, ttl, len(rdata)) + rdata
        return header + question + body
