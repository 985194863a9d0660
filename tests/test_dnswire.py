from __future__ import annotations

import gc
import json
import selectors
import socket
import struct
import threading
import time
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from phishlife import dnsmon, dnswire
from phishlife.dnsmon import (
    QueryTimeout, ScriptedResolver, ServerFailure, SnapshotStore, VantagePoint,
    parse_resolver_address, run_schedule,
)
from phishlife.dnswire import (
    TYPE_CODES,
    UdpResolver,
    build_query,
    decode_name,
    encode_name,
    parse_response,
)


def header(qid=0x1234, flags=0x8180, qd=1, an=0):
    return struct.pack("!HHHHHH", qid, flags, qd, an, 0, 0)


def question(name="example.com", qtype=1):
    return encode_name(name) + struct.pack("!HH", qtype, 1)


def rr(name_bytes: bytes, rtype: int, ttl: int, rdata: bytes) -> bytes:
    return name_bytes + struct.pack("!HHIH", rtype, 1, ttl, len(rdata)) + rdata


class TestEncode:
    def test_encode_name(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_build_query_layout(self):
        packet = build_query("example.com", "A", 0xBEEF)
        qid, flags, qd, an, ns, ar = struct.unpack("!HHHHHH", packet[:12])
        assert qid == 0xBEEF
        assert flags == 0x0100  # recursion desired
        assert (qd, an, ns, ar) == (1, 0, 0, 0)
        assert packet[12:] == question("example.com", TYPE_CODES["A"])

    def test_label_length_enforced(self):
        with pytest.raises(ValueError):
            encode_name("a" * 64 + ".com")

    def test_unsupported_type(self):
        with pytest.raises(ValueError):
            build_query("example.com", "PTR", 1)


class TestDecode:
    def test_decode_name_with_compression(self):
        # name at offset 12: example.com; second name points back to it
        packet = header() + encode_name("example.com") + b"\xc0\x0c"
        name, end = decode_name(packet, 12)
        assert name == "example.com"
        pointed, end2 = decode_name(packet, end)
        assert pointed == "example.com"
        assert end2 == end + 2

    def test_pointer_loop_rejected(self):
        packet = header() + b"\xc0\x0c"  # pointer to itself
        with pytest.raises(ValueError):
            decode_name(packet, 12)

    def test_parse_a_answer(self):
        q = question()
        answer = rr(b"\xc0\x0c", TYPE_CODES["A"], 300, bytes([192, 0, 2, 1]))
        rcode, truncated, answers = parse_response(header(an=1) + q + answer)
        assert rcode == 0 and not truncated
        assert answers == [("example.com", TYPE_CODES["A"], 300, "192.0.2.1")]

    def test_parse_ns_with_compressed_rdata(self):
        q = question("example.com", TYPE_CODES["NS"])
        rdata = b"\x03ns1" + b"\xc0\x0c"  # ns1.example.com via pointer
        answer = rr(b"\xc0\x0c", TYPE_CODES["NS"], 3600, rdata)
        _, _, answers = parse_response(header(an=1) + q + answer)
        assert answers[0][3] == "ns1.example.com"

    def test_parse_mx(self):
        q = question("example.com", TYPE_CODES["MX"])
        rdata = struct.pack("!H", 10) + encode_name("mail.example.com")
        answer = rr(b"\xc0\x0c", TYPE_CODES["MX"], 600, rdata)
        _, _, answers = parse_response(header(an=1) + q + answer)
        assert answers[0][3] == "10 mail.example.com"

    def test_parse_txt(self):
        q = question("example.com", TYPE_CODES["TXT"])
        rdata = b"\x05hello\x06 world"
        answer = rr(b"\xc0\x0c", TYPE_CODES["TXT"], 60, rdata)
        _, _, answers = parse_response(header(an=1) + q + answer)
        assert answers[0][3] == "hello world"

    def test_parse_soa(self):
        q = question("example.com", TYPE_CODES["SOA"])
        rdata = (encode_name("ns1.example.com") + encode_name("hostmaster.example.com")
                 + struct.pack("!IIIII", 2024060601, 7200, 900, 1209600, 300))
        answer = rr(b"\xc0\x0c", TYPE_CODES["SOA"], 86400, rdata)
        _, _, answers = parse_response(header(an=1) + q + answer)
        assert answers[0][3] == "ns1.example.com hostmaster.example.com 2024060601 7200 900 1209600 300"

    def test_parse_aaaa(self):
        q = question("example.com", TYPE_CODES["AAAA"])
        rdata = bytes.fromhex("20010db8000000000000000000000001")
        answer = rr(b"\xc0\x0c", TYPE_CODES["AAAA"], 120, rdata)
        _, _, answers = parse_response(header(an=1) + q + answer)
        assert answers[0][3] == "2001:db8::1"

    def test_rcode_and_truncation_flags(self):
        rcode, truncated, _ = parse_response(header(flags=0x8183) + question())
        assert rcode == 3  # nxdomain
        rcode, truncated, _ = parse_response(header(flags=0x8380) + question())
        assert truncated

    def test_short_packet_rejected(self):
        with pytest.raises(ValueError):
            parse_response(b"\x00\x01")


# replies that parse_response must reject, each through a different path
MALFORMED_REPLIES = {
    "short_header": b"\x00\x01",
    "answer_header_cut_short": header(an=1) + question() + b"\xc0\x0c\x00\x01",
    "two_byte_a_rdata": header(an=1) + question() + rr(b"\xc0\x0c", TYPE_CODES["A"], 300, b"\xc0\x00"),
    "one_byte_mx_rdata": header(an=1) + question() + rr(b"\xc0\x0c", TYPE_CODES["MX"], 300, b"\x00"),
    "soa_counters_cut_short": header(an=1) + question()
    + rr(b"\xc0\x0c", TYPE_CODES["SOA"], 300, b"\xc0\x0c\xc0\x0c\x00\x00"),
    # a TXT answer whose last byte is cut: its rdlength runs past the reply
    "txt_rdata_past_reply": header(an=1) + question()
    + rr(b"\xc0\x0c", TYPE_CODES["TXT"], 300, b"\x0ahelloworld")[:-1],
    # a TXT character-string of 11 bytes in a rdata that holds 10 after its length
    "txt_string_past_rdata": header(an=1) + question()
    + rr(b"\xc0\x0c", TYPE_CODES["TXT"], 300, b"\x0bhelloworld"),
}

# a header with small section counts, then arbitrary bytes, so that most
# examples reach the question and answer parsers rather than the length check
REPLIES = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda qd, an, body: header(qd=qd, an=an) + body,
              st.integers(0, 2), st.integers(0, 3), st.binary(max_size=96)),
    st.builds(lambda rtype, rdata, tail: header(an=1) + question()
              + rr(b"\xc0\x0c", rtype, 300, rdata) + tail,
              st.sampled_from(sorted(TYPE_CODES.values())), st.binary(max_size=24),
              st.binary(max_size=8)),
)


class TestMalformedReply:
    @given(REPLIES)
    @example(MALFORMED_REPLIES["answer_header_cut_short"])
    @example(MALFORMED_REPLIES["one_byte_mx_rdata"])
    @example(MALFORMED_REPLIES["soa_counters_cut_short"])
    @example(MALFORMED_REPLIES["txt_rdata_past_reply"])
    @example(MALFORMED_REPLIES["txt_string_past_rdata"])
    def test_only_value_error_leaves_parse_response(self, data):
        try:
            parse_response(data)
        except ValueError:
            pass

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
    def test_query_raises_server_failure(self, reply):
        # the UDP reply is truncated, so the malformed one comes over TCP,
        # where its framing makes even a short one the reply to the query
        with LoopbackServer(on_udp=lambda q: [truncated(q)],
                            on_tcp=lambda q: q[:2] + reply[2:]) as server:
            with pytest.raises(ServerFailure, match="malformed reply"):
                UdpResolver(timeout=5).query(server.vantage, "example.com", "A")

    @pytest.mark.parametrize("reply", MALFORMED_REPLIES.values(), ids=MALFORMED_REPLIES)
    def test_malformed_udp_reply(self, reply):
        # a datagram too short to echo the question is no reply, and is dropped
        expected = QueryTimeout if len(reply) < 12 else ServerFailure
        with LoopbackServer(on_udp=lambda q: [q[:2] + reply[2:]]) as server:
            with pytest.raises(expected):
                UdpResolver(timeout=0.3).query(server.vantage, "example.com", "A")


def a_reply(query: bytes, address: str, qid_delta: int = 0, name: str = "", flags: int = 0x8180) -> bytes:
    """An A reply to query; qid_delta and name make it answer another query."""
    qid = (struct.unpack("!H", query[:2])[0] + qid_delta) % 0x10000
    asked = question(name) if name else query[12:]
    return (header(qid=qid, flags=flags, an=1) + asked
            + rr(b"\xc0\x0c", TYPE_CODES["A"], 300, socket.inet_aton(address)))


def loopback_vantage(port: int) -> VantagePoint:
    return VantagePoint(id="v1", resolver_address=f"127.0.0.1:{port}", region_label="")


@pytest.fixture
def in_thread():
    """Run functions on threads; after the test, each must have finished."""
    threads = []

    def start(target) -> None:
        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        threads.append(thread)

    yield start
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive()


def udp_server(in_thread, replies, stranger=()) -> int:
    """A UDP server on 127.0.0.1 that answers one query; returns its port.

    Each reply is a function of the query bytes. Before the server sends the
    replies, another socket sends the stranger datagrams to the same client.
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    server.bind(("127.0.0.1", 0))
    server.settimeout(5)

    def serve():
        with server, socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as other:
            query, client = server.recvfrom(512)
            for build in stranger:
                other.sendto(build(query), client)
            for build in replies:
                server.sendto(build(query), client)

    in_thread(serve)
    return server.getsockname()[1]


def truncated(query: bytes) -> bytes:
    """A reply to query with TC set and no answers."""
    return header(qid=struct.unpack("!H", query[:2])[0], flags=0x8380) + query[12:]


class LoopbackServer:
    """A DNS server on one loopback port, over UDP and TCP, on a thread.

    ``on_udp(query)`` gives the datagrams sent back for a UDP query, and
    ``on_tcp(query)`` the reply to a TCP query: ``b""`` closes the connection
    unanswered, and None leaves it open unanswered until the server stops.
    Use as a context manager; on exit the thread must have stopped.
    """

    def __init__(self, on_udp, on_tcp=None, host="127.0.0.1", vantage_id="v1"):
        self.on_udp, self.on_tcp = on_udp, on_tcp
        self.held: list[socket.socket] = []  # connections left open unanswered
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        for _ in range(20):  # a UDP port whose TCP twin is also free
            self.udp = socket.socket(family, socket.SOCK_DGRAM)
            self.udp.bind((host, 0))
            self.port = self.udp.getsockname()[1]
            self.tcp = socket.socket(family, socket.SOCK_STREAM)
            try:
                self.tcp.bind((host, self.port))
                break
            except OSError:
                self.udp.close()
                self.tcp.close()
        else:
            raise OSError("no port free for both UDP and TCP")
        self.tcp.listen(16)
        self.vantage = VantagePoint(id=vantage_id, region_label="", resolver_address=(
            f"[{host}]:{self.port}" if family == socket.AF_INET6 else f"{host}:{self.port}"))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5)
        self.udp.close()
        self.tcp.close()
        self.release()
        assert not self._thread.is_alive()

    def release(self) -> None:
        """Close the connections left open unanswered."""
        while self.held:
            self.held.pop().close()

    def _serve(self) -> None:
        with selectors.DefaultSelector() as sel:
            sel.register(self.udp, selectors.EVENT_READ)
            sel.register(self.tcp, selectors.EVENT_READ)
            while not self._stop.is_set():
                for key, _ in sel.select(0.05):
                    if key.fileobj is self.udp:
                        query, client = self.udp.recvfrom(4096)
                        for datagram in self.on_udp(query):
                            self.udp.sendto(datagram, client)
                    else:
                        self._answer_tcp()

    def _answer_tcp(self) -> None:
        conn, _ = self.tcp.accept()
        conn.settimeout(5)
        data = b""
        while len(data) < 2 or len(data) < 2 + struct.unpack("!H", data[:2])[0]:
            chunk = conn.recv(4096)
            if not chunk:  # the client gave up before its query was whole
                conn.close()
                return
            data += chunk
        reply = self.on_tcp(data[2:])
        if reply is None:
            self.held.append(conn)
            return
        with conn:
            if reply:
                conn.sendall(struct.pack("!H", len(reply)) + reply)


class TestLoopback:
    """query against servers on 127.0.0.1 (RFC 5452 section 9.1 reply matching)."""

    @pytest.mark.parametrize("stale", [
        pytest.param({"qid_delta": 1}, id="wrong_qid"),
        pytest.param({"name": "other.example"}, id="wrong_question"),
    ])
    def test_mismatched_reply_skipped(self, in_thread, stale):
        port = udp_server(in_thread, [lambda q: a_reply(q, "192.0.2.66", **stale),
                                      lambda q: a_reply(q, "192.0.2.7")])
        rrset = UdpResolver(timeout=5).query(loopback_vantage(port), "example.com", "A")
        assert rrset.values == ("192.0.2.7",)

    def test_reply_from_other_source_dropped(self, in_thread):
        port = udp_server(in_thread, [lambda q: a_reply(q, "192.0.2.7")],
                          stranger=[lambda q: a_reply(q, "192.0.2.66")])
        rrset = UdpResolver(timeout=5).query(loopback_vantage(port), "example.com", "A")
        assert rrset.values == ("192.0.2.7",)

    def test_only_wrong_qid_replies_time_out(self, in_thread):
        port = udp_server(in_thread, [lambda q: a_reply(q, "192.0.2.66", qid_delta=1)] * 3)
        with pytest.raises(QueryTimeout):
            UdpResolver(timeout=0.5).query(loopback_vantage(port), "example.com", "A")

    @pytest.mark.parametrize("qid_delta", [0, 1])
    def test_tcp_fallback_checks_qid(self, qid_delta):
        with LoopbackServer(
            on_udp=lambda q: [a_reply(q, "192.0.2.66", flags=0x8380)],
            on_tcp=lambda q: a_reply(q, "192.0.2.7", qid_delta=qid_delta),
        ) as server:
            resolver = UdpResolver(timeout=5)
            if qid_delta:
                with pytest.raises(ServerFailure, match="does not match"):
                    resolver.query(server.vantage, "example.com", "A")
            else:
                rrset = resolver.query(server.vantage, "example.com", "A")
                assert rrset.values == ("192.0.2.7",)

    def test_ipv6_loopback(self):
        try:
            server = LoopbackServer(on_udp=lambda q: [a_reply(q, "192.0.2.7")], host="::1")
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        with server:
            assert server.vantage.resolver_address.startswith("[::1]:")
            rrset = UdpResolver(timeout=5).query(server.vantage, "example.com", "A")
        assert rrset.values == ("192.0.2.7",)


def planted(asked: Counter):
    """A UDP handler that plants one behaviour per name; ``asked`` counts queries per name."""
    def on_udp(query: bytes) -> list[bytes]:
        name = decode_name(query, 12)[0]
        asked[name] += 1
        first = asked[name] == 1
        qid = struct.unpack("!H", query[:2])[0]
        if name == "silent.example":
            return []
        if name == "tc.example":
            return [truncated(query)]
        if name == "nx.example":
            return [header(qid=qid, flags=0x8183) + query[12:]]
        if name == "servfail.example" and first:
            return [header(qid=qid, flags=0x8182) + query[12:]]
        if name == "garbage.example" and first:
            return [query[:2] + MALFORMED_REPLIES["answer_header_cut_short"][2:12] + query[12:]
                    + b"\xc0\x0c\x00\x01"]
        stale = [a_reply(query, "192.0.2.66", qid_delta=1)] if name == "wrongqid.example" else []
        return stale + [a_reply(query, ANSWERS[name])]
    return on_udp


ANSWERS = {"garbage.example": "192.0.2.1", "nx.example": "", "plain.example": "192.0.2.2",
           "servfail.example": "192.0.2.3", "silent.example": "", "tc.example": "192.0.2.4",
           "wrongqid.example": "192.0.2.5"}


class TestLiveTick:
    """A whole monitor tick through run_schedule and UdpResolver on loopback."""

    def test_planted_replies(self, tmp_path, monkeypatch):
        asked: Counter = Counter()
        sockets = {"open": 0, "peak": 0}

        class CountedSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.counted = kwargs.get("fileno") is None  # not one the server accepted
                if self.counted:
                    sockets["open"] += 1
                    sockets["peak"] = max(sockets["peak"], sockets["open"])

            def close(self):
                if self.counted and not self._closed:
                    sockets["open"] -= 1
                super().close()

        with LoopbackServer(on_udp=planted(asked),
                            on_tcp=lambda q: a_reply(q, ANSWERS["tc.example"])) as server:
            monkeypatch.setattr(dnswire, "WINDOW", 3)
            monkeypatch.setattr(dnswire.socket, "socket", CountedSocket)
            store = SnapshotStore(tmp_path / "snaps.jsonl")
            start = datetime.now(timezone.utc)
            ticks = run_schedule(sorted(ANSWERS), [server.vantage], ("A",),
                                 dnsmon.backoff_delays(0.01, 0.02), UdpResolver(timeout=0.5), store,
                                 start, timedelta(milliseconds=10),
                                 start + timedelta(milliseconds=15), [], True)

        assert ticks == 1
        snaps = {s.registrable: s for s in store.load()}
        assert list(snaps) == sorted(ANSWERS)
        got = {name: (s.status, [r.values for r in s.rrsets], s.attempts, s.errors, s.nxdomain)
               for name, s in snaps.items()}
        assert got == {
            "garbage.example": ("ok", [("192.0.2.1",)], 2, (), False),
            "nx.example": ("ok", [], 1, (), True),
            "plain.example": ("ok", [("192.0.2.2",)], 1, (), False),
            "servfail.example": ("ok", [("192.0.2.3",)], 2, (), False),
            "silent.example": ("failed", [], 5, ("A:timeout",), False),
            "tc.example": ("ok", [("192.0.2.4",)], 1, (), False),
            "wrongqid.example": ("ok", [("192.0.2.5",)], 1, (), False),
        }
        assert asked["silent.example"] == 5
        assert sockets == {"open": 0, "peak": 3}  # the window filled, and held

    def test_tick_leaves_no_cyclic_garbage(self, tmp_path):
        # cli.main keeps the cyclic collector off while a command runs, which
        # frees nothing only while a live tick, with its timeouts, malformed
        # replies and TCP fallback, leaves no reference cycle behind; the
        # second tick also runs what the first one learned
        with LoopbackServer(on_udp=planted(Counter()),
                            on_tcp=lambda q: a_reply(q, ANSWERS["tc.example"])) as server:
            gc.collect()
            gc.disable()
            try:
                start = datetime.now(timezone.utc)
                ticks = run_schedule(sorted(ANSWERS), [server.vantage], ("A",),
                                     dnsmon.backoff_delays(0.01, 0.02), UdpResolver(timeout=0.2),
                                     SnapshotStore(tmp_path / "snaps.jsonl"), start,
                                     timedelta(milliseconds=10), start + timedelta(milliseconds=25),
                                     [], True)
                assert gc.collect() == 0
            finally:
                gc.enable()
        assert ticks == 2

    def test_backoff_waited_between_attempts(self):
        arrivals = []  # when each datagram reached the server

        def on_udp(query: bytes) -> list[bytes]:
            arrivals.append(time.monotonic())
            if len(arrivals) == 1:  # SERVFAIL to the first query
                return [header(qid=struct.unpack("!H", query[:2])[0], flags=0x8182) + query[12:]]
            return [a_reply(query, "192.0.2.3")]

        with LoopbackServer(on_udp=on_udp) as server:
            (outcome,) = UdpResolver(timeout=5).resolve(
                [(server.vantage, "servfail.example", "A")], [0.3] * 4)
        assert outcome.attempts == 2 and outcome.rrset.values == ("192.0.2.3",)
        assert len(arrivals) == 2
        assert arrivals[1] - arrivals[0] >= 0.3  # only the lower bound: the host may be slow

    def test_each_address_parsed_once(self, tmp_path, monkeypatch):
        parsed: Counter = Counter()

        def counted(address):
            parsed[address] += 1
            return parse_resolver_address(address)
        monkeypatch.setattr(dnsmon, "parse_resolver_address", counted)
        monkeypatch.setattr(dnswire, "parse_resolver_address", counted, raising=False)
        with LoopbackServer(on_udp=planted(Counter())) as one, \
                LoopbackServer(on_udp=planted(Counter())) as two:
            path = tmp_path / "vantages.json"
            path.write_text(json.dumps([
                {"id": v.id + str(n), "resolver_address": v.resolver_address}
                for n, v in enumerate([one.vantage, two.vantage])]))
            vantages = dnsmon.load_vantages(path)
            lookups = [(v, name, "A") for v in vantages
                       for name in ("servfail.example", "plain.example")]
            outcomes = UdpResolver(timeout=2).resolve(lookups, [0.01] * 4)
        # servfail.example takes a second attempt from each vantage
        assert [o.attempts for o in outcomes] == [2, 1, 2, 1]
        assert parsed == {v.resolver_address: 1 for v in vantages}


class Recorded:
    """The planted handlers, recording each query's (transport, name) as it arrives."""

    def __init__(self, on_tcp=None):
        self.arrivals: list[tuple[str, str]] = []
        self._udp, self._tcp = planted(Counter()), on_tcp or (lambda q: a_reply(q, ANSWERS["tc.example"]))

    def on_udp(self, query: bytes) -> list[bytes]:
        self.arrivals.append(("udp", decode_name(query, 12)[0]))
        return self._udp(query)

    def on_tcp(self, query: bytes) -> bytes:
        self.arrivals.append(("tcp", decode_name(query, 12)[0]))
        return self._tcp(query)

    def take(self) -> list[tuple[str, str]]:
        """The arrivals since the last take."""
        taken, self.arrivals = self.arrivals, []
        return taken


class TestLearnedFromLastCall:
    """What one resolve learns and the next uses: slow lookups start first,
    and one whose answer came over TCP starts over TCP."""

    def test_truncated_name_skips_udp_in_the_next_call(self):
        recorded = Recorded()
        with LoopbackServer(on_udp=recorded.on_udp, on_tcp=recorded.on_tcp) as server:
            lookups = [(server.vantage, name, "A") for name in ("plain.example", "tc.example")]
            resolver = UdpResolver(timeout=5)
            first = resolver.resolve(lookups, [0.01] * 4)
            assert sorted(recorded.take()) == [("tcp", "tc.example"), ("udp", "plain.example"),
                                               ("udp", "tc.example")]
            second = resolver.resolve(lookups, [0.01] * 4)
            assert sorted(recorded.take()) == [("tcp", "tc.example"), ("udp", "plain.example")]
        assert second == first
        assert first[1].rrset.values == (ANSWERS["tc.example"],) and first[1].attempts == 1

    def test_slow_names_reach_the_server_first_in_the_next_call(self, monkeypatch):
        monkeypatch.setattr(dnswire, "WINDOW", 1)  # one attempt at a time, so arrivals are ordered
        names = ["plain.example", "servfail.example", "wrongqid.example", "tc.example",
                 "garbage.example"]
        recorded = Recorded()
        with LoopbackServer(on_udp=recorded.on_udp, on_tcp=recorded.on_tcp) as server:
            lookups = [(server.vantage, name, "A") for name in names]
            resolver = UdpResolver(timeout=5)
            first = resolver.resolve(lookups, [0.0] * 4)
            first_order = list(dict.fromkeys(name for _, name in recorded.take()))
            second = resolver.resolve(lookups, [0.0] * 4)
            second_order = list(dict.fromkeys(name for _, name in recorded.take()))
        assert first_order == names
        # retried (SERVFAIL, malformed reply) or answered over TCP, in the given order
        assert second_order == ["servfail.example", "tc.example", "garbage.example",
                                "plain.example", "wrongqid.example"]
        assert [o.attempts for o in first] == [1, 2, 1, 1, 2]
        assert [o.attempts for o in second] == [1, 1, 1, 1, 1]  # the planted failures come once
        assert [o.rrset.values for o in second] == [o.rrset.values for o in first]

    def test_failed_tcp_first_attempt_retries_over_udp(self):
        answered = iter([True, False, True])  # the second TCP query is closed unanswered
        recorded = Recorded(on_tcp=lambda q: a_reply(q, ANSWERS["tc.example"]) if next(answered) else b"")
        with LoopbackServer(on_udp=recorded.on_udp, on_tcp=recorded.on_tcp) as server:
            lookups = [(server.vantage, "tc.example", "A")]
            resolver = UdpResolver(timeout=5)
            (first,) = resolver.resolve(lookups, [0.01] * 4)
            recorded.take()
            (second,) = resolver.resolve(lookups, [0.01] * 4)
            arrivals = recorded.take()
        # as an attempt that fails today: retried after the backoff, UDP first
        assert arrivals == [("tcp", "tc.example"), ("udp", "tc.example"), ("tcp", "tc.example")]
        assert second.attempts == 2 and second.rrset == first.rrset and second.error is None

    def test_query_neither_reads_nor_writes_what_resolve_learned(self):
        recorded = Recorded()
        with LoopbackServer(on_udp=recorded.on_udp, on_tcp=recorded.on_tcp) as server:
            lookups = [(server.vantage, "tc.example", "A")]
            resolver = UdpResolver(timeout=5)
            resolver.resolve(lookups, [0.01] * 4)
            recorded.take()
            assert resolver.query(server.vantage, "tc.example", "A").values == ("192.0.2.4",)
            assert recorded.take() == [("udp", "tc.example"), ("tcp", "tc.example")]

            fresh = UdpResolver(timeout=5)
            fresh.query(server.vantage, "tc.example", "A")
            recorded.take()
            fresh.resolve(lookups, [0.01] * 4)
            assert recorded.take() == [("udp", "tc.example"), ("tcp", "tc.example")]


# ------------------------------------------------ live against scripted resolution

WIRE_TYPES = ("A", "AAAA", "NS", "MX", "TXT")
HOSTS = st.lists(st.text("abcxyz", min_size=1, max_size=6), min_size=1, max_size=3).map(".".join)
# each rrtype's values as the wire carries them, so a decoded value is the scripted one
WIRE_VALUES = {
    "A": st.integers(0, 2**32 - 1).map(lambda n: socket.inet_ntop(socket.AF_INET, n.to_bytes(4, "big"))),
    "AAAA": st.integers(0, 2**128 - 1).map(
        lambda n: socket.inet_ntop(socket.AF_INET6, n.to_bytes(16, "big"))),
    "NS": HOSTS,
    "MX": st.builds("{} {}".format, st.integers(0, 0xFFFF), HOSTS),
    "TXT": st.text("abc xyz.-019", max_size=12),
}


def wire_steps(rrtype: str):
    answer = st.fixed_dictionaries({
        "values": st.lists(WIRE_VALUES[rrtype], max_size=3),
        "ttl": st.integers(0, dnsmon.MAX_TTL),
        "fail_count_before_success": st.integers(0, 4),
    })
    other = st.sampled_from(["nxdomain", "servfail"])
    return st.lists(st.one_of(answer, answer, other), min_size=1, max_size=3)


@st.composite
def two_ticks(draw):
    """(script, lookups as (vantage id, domain, rrtype), keys truncated over UDP)."""
    domains = draw(st.lists(st.sampled_from(["a.example", "b.example", "absent.example"]),
                            min_size=1, max_size=3, unique=True))
    types = draw(st.lists(st.sampled_from(WIRE_TYPES), min_size=1, max_size=2, unique=True))
    entry = st.fixed_dictionaries({}, optional={t: wire_steps(t) for t in types})
    script = {}
    for domain in domains:
        if domain != "absent.example":
            script[domain] = draw(entry)
        for vid in ("v1", "v2"):
            if draw(st.integers(0, 3)) == 0:  # an override, perhaps an empty one
                script[f"{domain}@{vid}"] = draw(entry)
    lookups = draw(st.permutations([(vid, d, t) for d in domains for vid in ("v1", "v2")
                                    for t in types]))
    return script, lookups, draw(st.sets(st.sampled_from(lookups), max_size=3))


def wire_rdata(rrtype: str, value: str) -> bytes:
    if rrtype in ("A", "AAAA"):
        return socket.inet_pton(socket.AF_INET if rrtype == "A" else socket.AF_INET6, value)
    if rrtype == "MX":
        pref, host = value.split(" ")
        return struct.pack("!H", int(pref)) + encode_name(host)
    if rrtype == "NS":
        return encode_name(value)
    return bytes([len(value)]) + value.encode("ascii")


def scripted_reply(query: bytes, result):
    """The reply that carries one scripted attempt's result; None for a timeout."""
    if isinstance(result, QueryTimeout):
        return None
    qid = struct.unpack("!H", query[:2])[0]
    flags = {ServerFailure: 0x8182, dnsmon.NxDomain: 0x8183}.get(type(result), 0x8180)
    answers = [] if not isinstance(result, dnsmon.RrSet) else [
        rr(b"\xc0\x0c", TYPE_CODES[result.rrtype], result.ttl, wire_rdata(result.rrtype, value))
        for value in result.values]
    return header(qid=qid, flags=flags, an=len(answers)) + query[12:] + b"".join(answers)


class ScriptedServer(LoopbackServer):
    """A loopback server that answers each attempt as ``ScriptedResolver.query`` would.

    A key in ``truncated`` answers TC over UDP without reading the script,
    and reads it over TCP, so a TCP-first attempt and a fallback after TC
    take the same step.
    """

    RRTYPES = {code: rrtype for rrtype, code in TYPE_CODES.items()}

    def __init__(self, vantage_id: str):
        super().__init__(on_udp=self._on_udp, on_tcp=self._on_tcp, vantage_id=vantage_id)
        self.script, self.truncated = ScriptedResolver({}), frozenset()

    def _key(self, query: bytes) -> tuple[str, str, str]:
        name, end = decode_name(query, 12)
        return self.vantage.id, name, self.RRTYPES[struct.unpack("!H", query[end:end + 2])[0]]

    def _attempt(self, query: bytes, key: tuple[str, str, str]):
        return scripted_reply(query, self.script.query(self.vantage, key[1], key[2]))

    def _on_udp(self, query: bytes) -> list[bytes]:
        key = self._key(query)
        if key in self.truncated:
            return [truncated(query)]
        reply = self._attempt(query, key)
        return [] if reply is None else [reply]

    def _on_tcp(self, query: bytes):
        return self._attempt(query, self._key(query))


# fast examples first: each planted fault fails one of them, and none retries a
# sticky SERVFAIL, which a retry that keeps its attempt number would never end
ORACLE_EXAMPLES = [
    ({"a.example": {"A": [{"values": ["192.0.2.1", "192.0.2.2"], "ttl": 60}]},
      "a.example@v2": {"A": [{"values": ["192.0.2.3"], "ttl": 30, "fail_count_before_success": 1}]},
      "b.example": {"A": [{"values": ["192.0.2.4"], "ttl": 90}, "nxdomain"]}},
     [("v1", "a.example", "A"), ("v2", "a.example", "A"), ("v1", "b.example", "A")],
     {("v1", "b.example", "A")}),
    ({"a.example": {"MX": ["servfail"]}, "a.example@v2": {"MX": [{"values": ["10 mx.a"]}]}},
     [("v1", "a.example", "MX"), ("v2", "a.example", "MX")], set()),
]


class TestLiveAgreesWithScripted:
    """Differential oracle: over two ticks on one resolver, ``UdpResolver``
    against loopback servers that replay a script gives, outcome for outcome,
    what a fresh ``ScriptedResolver`` of that script gives."""

    def test_two_ticks_agree(self):
        delays = [0.0] * (dnsmon.MAX_ATTEMPTS - 1)
        with ScriptedServer("v1") as one, ScriptedServer("v2") as two:
            vantages = {"v1": one.vantage, "v2": two.vantage}

            @settings(max_examples=16, derandomize=True, deadline=None, database=None,
                      report_multiple_bugs=False)
            @given(two_ticks())
            @example(ORACLE_EXAMPLES[0])
            @example(ORACLE_EXAMPLES[1])
            def check(drawn):
                script, keys, truncated_keys = drawn
                lookups = [(vantages[vid], domain, rrtype) for vid, domain, rrtype in keys]
                for server in (one, two):
                    server.script, server.truncated = ScriptedResolver(script), truncated_keys
                try:
                    live = UdpResolver(timeout=0.05)
                    got = [live.resolve(lookups, delays) for _ in range(2)]
                finally:
                    one.release()
                    two.release()
                scripted = ScriptedResolver(script)
                assert got == [scripted.resolve(lookups, delays) for _ in range(2)]

            check()
