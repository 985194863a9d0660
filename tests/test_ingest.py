from __future__ import annotations

import functools
import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from phishlife import classifier, lifecycle, squatgen
from phishlife.errors import IoFailure, PhishlifeError
from phishlife.ingest import (
    AllRecordsMalformed,
    EmptyRuleSet,
    FeedEntry,
    HostIsSuffix,
    InvalidLabel,
    MalformedUrl,
    SuffixRules,
    build_domain_table,
    load_feed,
    load_suffix_rules,
    normalize_host,
    parse_url,
    read_json,
    split_registrable,
    strings,
    typed,
)

UTC = timezone.utc

LABEL = st.from_regex(r"[a-z0-9]([a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)


def abc_names(min_labels: int, max_labels: int):
    """Hosts or rules over three labels, so that hosts often end in deep rules."""
    return st.lists(st.sampled_from("abc"), min_size=min_labels, max_size=max_labels).map(".".join)


def entry(url, ts, source="apwg", brand=None):
    return FeedEntry(url=url, detected_at=datetime.fromisoformat(ts).replace(tzinfo=UTC),
                     source=source, brand=brand)


class TestParseUrl:
    def test_platform_subdomain_example(self):
        host = parse_url("https://usps-tracking-service.blogspot.com/login")
        assert host == "usps-tracking-service.blogspot.com"

    def test_bare_host_defaults(self):
        assert parse_url("facebook.com") == "facebook.com"

    def test_capital_i_lowercased(self):
        assert parse_url("http://PayPaI.com/x") == "paypai.com"

    def test_port_and_userinfo_stripped(self):
        assert parse_url("http://user:pw@evil.com:8080/a") == "evil.com"

    def test_idn_to_punycode(self):
        assert parse_url("http://münchen.de/x") == "xn--mnchen-3ya.de"

    def test_trailing_dot_tolerated(self):
        assert parse_url("http://example.com./x") == "example.com"

    @pytest.mark.parametrize("raw", ["", "http:///path", "http://:80/x", "///"])
    def test_no_extractable_host(self, raw):
        with pytest.raises(MalformedUrl):
            parse_url(raw)

    def test_label_too_long(self):
        with pytest.raises(InvalidLabel):
            parse_url("http://" + "a" * 64 + ".com/")

    def test_illegal_character(self):
        with pytest.raises(InvalidLabel):
            parse_url("http://exa_mple.com/")

    def test_empty_label(self):
        with pytest.raises(InvalidLabel):
            parse_url("http://a..b.com/")


def normalize_host_oracle(host: str) -> str:
    """normalize_host as it was before its ASCII fast path: label by label.

    The one change is ``fullmatch`` for an ASCII label, which ``match`` and
    ``$`` let end in a newline.
    """
    def label_of(label: str) -> str:
        if not label:
            raise InvalidLabel("empty label in host")
        if label.isascii():
            label = label.lower()
            if not re.fullmatch(r"[a-z0-9-]+", label):
                raise InvalidLabel(f"illegal characters in label {label!r}")
        else:
            try:
                label = label.encode("idna").decode("ascii").lower()
            except UnicodeError as exc:
                raise InvalidLabel(f"cannot punycode label {label!r}: {exc}") from exc
        if len(label) > 63:
            raise InvalidLabel(f"label longer than 63 chars: {label!r}")
        return label

    host = host.rstrip(".")
    if not host:
        raise MalformedUrl("empty host")
    normalized = ".".join(label_of(l) for l in host.split("."))
    if len(normalized) > 253:
        raise InvalidLabel("host longer than 253 chars")
    return normalized


def outcome(fn, host):
    try:
        return fn(host)
    except PhishlifeError as exc:
        return type(exc)


# labels of every length class around 63, case, IDN, illegal characters,
# newlines and spaces; joined into hosts of up to about 300 characters
HOST_LABEL = st.one_of(
    st.text(alphabet="aZ9-_ \nü中ß", max_size=8),
    st.integers(60, 66).map(lambda n: "a" * n),
    st.sampled_from(["xn--mnchen-3ya", "münchen", "XN--A", "-a-", "", "a" * 50]),
)
HOST = st.lists(HOST_LABEL, max_size=8).map(".".join) | st.text(max_size=20)


class TestNormalizeHost:
    @given(HOST, st.sampled_from(["", ".", ".."]))
    def test_equals_oracle(self, host, tail):
        host += tail
        assert outcome(normalize_host, host) == outcome(normalize_host_oracle, host)

    @pytest.mark.parametrize("host", [
        "a" * 63, "a" * 64, "x." + "a" * 63, "x." + "a" * 64, "a" * 64 + ".x",
        # 253 and 254 characters
        "b" * 49 + "." + ".".join(["a" * 50] * 4), ".".join(["a" * 50] * 5),
    ])
    def test_equals_oracle_at_length_limits(self, host):
        assert outcome(normalize_host, host) == outcome(normalize_host_oracle, host)

    @pytest.mark.parametrize("host", ["example.com\n", "exa\nmple.com", "example\n.com"])
    def test_newline_in_label_rejected(self, host):
        with pytest.raises(InvalidLabel):
            normalize_host(host)

    @pytest.mark.parametrize("host, expected", [
        ("faß.de", "fass.de"),         # IDNA2008 gives xn--fa-hia.de
        ("a\u200db.com", "ab.com"),    # IDNA2008 rejects a bare zero-width joiner
    ])
    def test_idna2003_mapping_is_kept(self, host, expected):
        # the README's decision: nameprep pins Unicode 3.2, so no Python version changes this
        assert normalize_host(host) == expected


class TestSuffixRules:
    def test_single_rule(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("com\n")
        rules = load_suffix_rules(p)
        assert rules.exact == {"com"}
        assert not rules.wildcard and not rules.exception

    def test_documented_format_hand_trace(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("// header\ncom\n*.ck\n!www.ck\n")
        rules = load_suffix_rules(p)
        assert rules.exact == {"com"}
        assert rules.wildcard == {"ck"}
        assert rules.exception == {"www.ck"}

    def test_lines_break_only_at_newlines(self, tmp_path):
        # U+2028 ends a line for str.splitlines, not for universal newlines;
        # it is whitespace, so the rule is the text before it
        p = tmp_path / "r.dat"
        p.write_bytes("com\u2028net\r\norg\rio\n".encode("utf-8"))
        assert load_suffix_rules(p).exact == {"com", "org", "io"}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "r.dat"
        p.write_text("// nothing\n\n")
        with pytest.raises(EmptyRuleSet):
            load_suffix_rules(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_suffix_rules(tmp_path / "absent.dat")

    def test_exceptions_shadow_wildcards(self, rules):
        # corpus rule file sanity: each exception's parent is a wildcard
        for exc in rules.exception:
            parent = exc.split(".", 1)[1]
            assert parent in rules.wildcard


def _split_oracle(host: str, rules: SuffixRules):
    """Independent longest-match oracle: scan every label suffix of host.

    Returns the exception class that the split must raise, if any."""
    labels = host.split(".")
    suffixes = [".".join(labels[i:]) for i in range(len(labels))]

    def longest(matching):
        return max(matching, key=lambda s: len(s.split("."))) if matching else None

    exc = longest([s for s in suffixes if s in rules.exception])
    if exc is not None:
        ps = ".".join(exc.split(".")[1:])
    else:
        wild = longest([
            s for s in suffixes[:-1]  # wildcard consumes one extra label
            if ".".join(s.split(".")[1:]) in rules.wildcard
        ])
        exact = longest([s for s in suffixes if s in rules.exact])
        if wild is not None:
            ps = wild
        elif exact is not None:
            ps = exact
        elif labels[-1].isdigit():
            return InvalidLabel  # no TLD is all digits (RFC 3696 section 2)
        else:
            ps = labels[-1]
    n = len(ps.split(".")) if ps else 0  # a one-label exception leaves an empty suffix
    if len(labels) <= n:
        return HostIsSuffix
    return ".".join(labels[:-(n + 1)]), ".".join(labels[-(n + 1):]), ps


class TestSplitRegistrable:
    def test_platform_example(self):
        rules = SuffixRules(frozenset({"com"}), frozenset(), frozenset())
        parts = split_registrable("usps-tracking-service.blogspot.com", rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == (
            "usps-tracking-service", "blogspot.com", "com")

    def test_no_subdomain(self):
        rules = SuffixRules(frozenset({"com"}), frozenset(), frozenset())
        parts = split_registrable("facebook.com", rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == (
            "", "facebook.com", "com")

    def test_longest_match(self):
        rules = SuffixRules(frozenset({"co.uk", "uk"}), frozenset(), frozenset())
        parts = split_registrable("a.b.example.co.uk", rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == (
            "a.b", "example.co.uk", "co.uk")

    def test_wildcard(self, rules):
        parts = split_registrable("shop.foo.ck", rules)
        assert (parts.registrable, parts.public_suffix) == ("shop.foo.ck", "foo.ck")

    def test_exception_beats_wildcard(self, rules):
        parts = split_registrable("www.ck", rules)
        assert (parts.registrable, parts.public_suffix) == ("www.ck", "ck")
        parts = split_registrable("a.www.ck", rules)
        assert (parts.subdomain, parts.registrable) == ("a", "www.ck")

    def test_host_is_suffix(self, rules):
        with pytest.raises(HostIsSuffix):
            split_registrable("com", rules)
        with pytest.raises(HostIsSuffix):
            split_registrable("foo.ck", rules)  # wildcard makes foo.ck a suffix

    def test_unlisted_fallback_flagged(self, rules):
        parts = split_registrable("evil.zz", rules)
        assert parts.registrable == "evil.zz"
        assert parts.public_suffix == "zz"
        assert not parts.suffix_listed

    @pytest.mark.parametrize("host", ["192.0.2.1", "0x7f.1"])
    def test_all_numeric_unlisted_label_is_not_a_suffix(self, rules, host):
        # an IPv4 literal is no domain, and no TLD is all digits (RFC 3696 section 2)
        with pytest.raises(InvalidLabel):
            split_registrable(host, rules)

    @given(st.lists(LABEL, min_size=1, max_size=4))
    def test_matches_oracle_and_reassembles(self, labels):
        rules = SuffixRules(
            exact=frozenset({"com", "co.uk", "uk"}),
            wildcard=frozenset({"ck"}),
            exception=frozenset({"www.ck"}),
        )
        host = ".".join(labels)
        expected = _split_oracle(host, rules)
        if isinstance(expected, type):
            with pytest.raises(expected):
                split_registrable(host, rules)
            return
        parts = split_registrable(host, rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == expected
        rebuilt = parts.registrable if not parts.subdomain else (
            parts.subdomain + "." + parts.registrable)
        assert rebuilt == host
        assert parts.registrable.endswith("." + parts.public_suffix)
        extra = parts.registrable[: -(len(parts.public_suffix) + 1)]
        assert extra and "." not in extra  # exactly one more label


    @given(abc_names(1, 5), st.frozensets(abc_names(1, 3), max_size=6),
           st.frozensets(abc_names(1, 3), max_size=6), st.frozensets(abc_names(1, 3), max_size=6))
    def test_matches_oracle_on_multi_label_rules(self, host, exact, wildcard, exception):
        rules = SuffixRules(exact, wildcard, exception)
        expected = _split_oracle(host, rules)
        if isinstance(expected, type):
            with pytest.raises(expected):
                split_registrable(host, rules)
            return
        parts = split_registrable(host, rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == expected

    def test_wildcard_beats_longer_exact_rule(self):
        # A deliberate divergence from the PSL, where the rule with the most
        # labels (a.b.c.com) wins; ROADMAP item 2 leaves that fix to its own
        # change.
        rules = SuffixRules(frozenset({"com", "a.b.c.com"}), frozenset({"c.com"}), frozenset())
        parts = split_registrable("x.a.b.c.com", rules)
        assert (parts.subdomain, parts.registrable, parts.public_suffix) == (
            "x", "a.b.c.com", "b.c.com")


class TestLoadFeed:
    def test_line_roundtrip(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("2024-06-06T00:00:00Z\thttp://faceb0ok.com/a\tapwg\tfacebook\n")
        result = load_feed(p, "lines")
        assert result.skipped == 0
        (e,) = result.entries
        assert e.brand == "facebook"
        assert e.source == "apwg"
        assert e.detected_at == datetime(2024, 6, 6, tzinfo=UTC)

    def test_empty_json_array(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text("[]")
        result = load_feed(p, "json")
        assert result.entries == [] and result.skipped == 0

    def test_bad_timestamp_skipped(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text(
            "not-a-time\thttp://x.com/\tapwg\n"
            "2024-06-06T00:00:00Z\thttp://y.com/\tapwg\n")
        result = load_feed(p, "lines")
        assert len(result.entries) == 1 and result.skipped == 1

    def test_comments_ignored(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("# comment\n\n2024-06-06T00:00:00Z\thttp://y.com/\tapwg\n")
        assert len(load_feed(p, "lines").entries) == 1

    def test_lines_break_only_at_newlines(self, tmp_path):
        # a brand holding U+0085 and a URL path holding a form feed stay whole;
        # CRLF and a lone CR end a line, as universal newlines read them
        p = tmp_path / "f.tsv"
        p.write_bytes("2024-06-06T00:00:00Z\thttp://x.com/a\x0cb\tapwg\r\n"
                      "2024-06-06T00:00:00Z\thttp://y.com/\tapwg\tpay\u0085pal\r"
                      "2024-06-06T00:00:00Z\thttp://z.com/\tapwg\n".encode("utf-8"))
        result = load_feed(p, "lines")
        assert result.skipped == 0
        assert [(e.url, e.brand) for e in result.entries] == [
            ("http://x.com/a\x0cb", None), ("http://y.com/", "pay\u0085pal"),
            ("http://z.com/", None)]

    def test_all_malformed(self, tmp_path):
        p = tmp_path / "f.tsv"
        p.write_text("garbage line\nanother\t\n")
        with pytest.raises(AllRecordsMalformed):
            load_feed(p, "lines")

    def test_json_feed(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('[{"url": "http://x.com/", "detected_at": "2024-06-06T00:00:00Z", "source": "apwg"}]')
        result = load_feed(p, "json")
        assert result.entries[0].brand is None

    @pytest.mark.parametrize("field, value", [
        pytest.param("url", 5, id="int_url"),
        pytest.param("source", ["x"], id="list_source"),
        pytest.param("detected_at", 20240606, id="int_detected_at"),
        pytest.param("brand", 5, id="int_brand"),
        pytest.param("brand", {}, id="object_brand"),
        pytest.param("source", "ap\ud800", id="lone_surrogate_source"),
        pytest.param("brand", "\ud800", id="lone_surrogate_brand"),
        pytest.param("url", [[[]]], id="nested_url"),
    ])
    def test_json_record_of_wrong_type_skipped(self, tmp_path, field, value):
        good = {"url": "http://x.com/", "detected_at": "2024-06-06T00:00:00Z", "source": "apwg"}
        p = tmp_path / "f.json"
        p.write_text(json.dumps([good, {**good, field: value}]))
        result = load_feed(p, "json")
        assert len(result.entries) == 1 and result.skipped == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            load_feed(tmp_path / "absent.tsv", "lines")

    @pytest.mark.parametrize("text", ['[{"url": ', "[" * 1000 + "]" * 1000])
    def test_undecodable_json_feed(self, tmp_path, text):
        # invalid or too deeply nested JSON, decoded by read_json
        p = tmp_path / "f.json"
        p.write_text(text)
        with pytest.raises(IoFailure, match=f"^malformed feed {re.escape(str(p))}: "):
            load_feed(p, "json")

    def test_lines_and_json_load_alike(self, tmp_path):
        # padded fields, a blank brand, no brand, and a url of only spaces
        records = [
            {"detected_at": "2024-06-01T00:00:00Z", "url": " http://a.com/1 ",
             "source": " apwg ", "brand": " PayPal "},
            {"detected_at": "2024-06-02T00:00:00Z", "url": "http://b.com/x",
             "source": "openphish  ", "brand": "  "},
            {"detected_at": "2024-06-03T00:00:00Z", "url": "http://c.net/y", "source": "apwg"},
            {"detected_at": "2024-06-04T00:00:00Z", "url": "   ", "source": "apwg"},
        ]
        lines, as_json = tmp_path / "f.tsv", tmp_path / "f.json"
        lines.write_text("".join("\t".join(r.values()) + "\n" for r in records))
        as_json.write_text(json.dumps(records))
        result = load_feed(lines, "lines")
        assert result == load_feed(as_json, "json")
        assert result.entries == [
            entry("http://a.com/1", "2024-06-01T00:00:00", "apwg", "PayPal"),
            entry("http://b.com/x", "2024-06-02T00:00:00", "openphish"),
            entry("http://c.net/y", "2024-06-03T00:00:00", "apwg"),
        ]
        assert result.skipped == 1


class TestJsonValueRule:
    @pytest.mark.parametrize("value, kind", [
        ("x", str), ("pay\u0085pal", str), ("\u00e9\U0001f600", str), ("", str), (0, int),
        (-7, int), (True, bool), ([], list), ([1, "x"], list), ({}, dict),
    ])
    def test_accepts_its_own_type(self, value, kind):
        assert typed(value, kind) is value

    @pytest.mark.parametrize("value, kind", [
        pytest.param(True, int, id="true_as_int"),
        pytest.param(False, int, id="false_as_int"),
        pytest.param(1, bool, id="int_as_bool"),
        pytest.param(1.0, int, id="float_as_int"),
        pytest.param(None, str, id="null_as_str"),
        pytest.param("\ud800", str, id="lone_surrogate"),
        pytest.param("ap\udfffwg", str, id="lone_low_surrogate"),
        pytest.param(("x",), list, id="tuple_as_list"),
    ])
    def test_rejects_any_other(self, value, kind):
        with pytest.raises(TypeError):
            typed(value, kind)

    def test_strings(self):
        assert strings(["a", "pay\u0085pal"]) == ("a", "pay\u0085pal")
        assert strings([]) == ()
        for value in (["a", 5], ["a", "\ud800"], ("a",), "a", None, [["a"]]):
            with pytest.raises(TypeError):
                strings(value)

    def test_message_of_a_deep_value_is_short(self):
        deep = json.loads("[" * 900 + "]" * 900)
        with pytest.raises(TypeError) as info:
            typed(deep, str)
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("text", ['{"a": ', "[" * 1000 + "]" * 1000, '"\xff"'])
    def test_read_json_rejects_undecodable(self, tmp_path, text):
        p = tmp_path / "x.json"
        p.write_bytes(text.encode("latin-1"))
        with pytest.raises(IoFailure):
            read_json(p, "input")

    def test_read_json_keeps_lone_surrogate_for_the_rule(self, tmp_path):
        # a lone surrogate escape is valid JSON; the rule rejects the string it decodes to
        p = tmp_path / "x.json"
        p.write_text('["\\ud800"]')
        with pytest.raises(TypeError):
            strings(read_json(p, "input"))


COM_RULES = SuffixRules(frozenset({"com"}), frozenset(), frozenset())


# the loaders that read a header-checked CSV through ingest.read_csv, by data file
CSV_LOADERS = {
    "brands.csv": (functools.partial(squatgen.load_catalog, brand_top_n=10, squat_top_n=10),
                   "rank,brand_id,canonical_domain"),
    "registration_log.csv": (classifier.load_registration_log,
                             "registrable,registered_at,registrar"),
    "timestamp_sources.csv": (lifecycle.load_timestamp_sources, "registrable,kind,at"),
}


class TestCsvLoaders:
    @pytest.mark.parametrize("name", sorted(CSV_LOADERS))
    @pytest.mark.parametrize("text", [None, "registrable,at,kind\na.com,x,y\n"],
                             ids=["missing_file", "wrong_header"])
    def test_bad_file_raises_io_failure(self, tmp_path, name, text):
        path = tmp_path / "input.csv"
        if text is not None:
            path.write_text(text)
        loader, _ = CSV_LOADERS[name]
        with pytest.raises(IoFailure):
            loader(path)

    @pytest.mark.parametrize("name", sorted(CSV_LOADERS))
    def test_padded_header_loads(self, tmp_path, data_dir, name):
        loader, header = CSV_LOADERS[name]
        original = data_dir / name
        body = original.read_text().split("\n", 1)[1]
        padded = tmp_path / "input.csv"
        padded.write_text(header.replace(",", ", ") + "\n" + body)
        assert loader(padded) == loader(original)

    @pytest.mark.parametrize("name", ["brands.csv", "registration_log.csv"])
    def test_short_row_is_rejected(self, tmp_path, name):
        loader, header = CSV_LOADERS[name]
        path = tmp_path / "input.csv"
        path.write_text(f"{header}\n1\n")
        with pytest.raises(PhishlifeError):
            loader(path)

    def test_short_timestamp_row_is_skipped(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("registrable,kind,at\na.com\nb.com,whois,2024-01-01T00:00:00Z\n")
        events, skipped = lifecycle.load_timestamp_sources(path)
        assert list(events) == ["b.com"] and skipped == 1


class TestBuildDomainTable:
    def test_min_merge(self):
        entries = [
            entry("http://a.com/1", "2024-01-02T00:00:00", "apwg"),
            entry("http://a.com/2", "2024-01-01T00:00:00", "apwg"),
        ]
        table = build_domain_table(entries, COM_RULES)
        (rec,) = table.records
        assert rec.url_count == 2
        assert rec.first_detections["apwg"] == datetime(2024, 1, 1, tzinfo=UTC)

    def test_subdomain_merge(self):
        entries = [
            entry("http://x.a.com/", "2024-01-01T00:00:00"),
            entry("http://y.a.com/", "2024-01-02T00:00:00"),
        ]
        (rec,) = build_domain_table(entries, COM_RULES).records
        assert rec.registrable == "a.com"
        assert rec.subdomain == "x"  # earliest detection's subdomain
        assert rec.subdomain_count == 2

    def test_two_sources_tie(self):
        entries = [
            entry("http://a.com/", "2024-01-01T00:00:00", "apwg"),
            entry("http://a.com/", "2024-01-01T00:00:00", "phishtank"),
        ]
        (rec,) = build_domain_table(entries, COM_RULES).records
        assert rec.first_detections["apwg"] == rec.first_detections["phishtank"]
        assert rec.url_count >= len(rec.first_detections)

    def test_unparseable_urls_counted(self):
        entries = [
            entry("http://ok.com/", "2024-01-01T00:00:00"),
            entry("http://" + "a" * 64 + ".com/", "2024-01-01T00:00:00"),
        ]
        table = build_domain_table(entries, COM_RULES)
        assert len(table.records) == 1 and table.skipped_urls == 1

    def test_ipv4_literal_url_is_skipped(self):
        entries = [
            entry("http://ok.com/", "2024-01-01T00:00:00"),
            entry("http://192.0.2.1/login", "2024-01-01T00:00:00"),
            entry("http://0x7f.1/", "2024-01-01T00:00:00"),
        ]
        table = build_domain_table(entries, COM_RULES)
        assert [r.registrable for r in table.records] == ["ok.com"]
        assert table.skipped_urls == 2 and table.urls_by_source == {"apwg": 3}

    def test_idempotence_up_to_url_count(self):
        entries = [
            entry("http://a.com/1", "2024-01-01T00:00:00", "apwg", "brandx"),
            entry("http://b.com/2", "2024-01-02T00:00:00", "openphish"),
        ]
        once = build_domain_table(entries, COM_RULES).records
        twice = build_domain_table(entries + entries, COM_RULES).records
        assert [r.registrable for r in once] == [r.registrable for r in twice]
        for a, b in zip(once, twice):
            assert b.url_count == 2 * a.url_count
            assert a.first_detections == b.first_detections
            assert a.brands == b.brands
            assert a.subdomain == b.subdomain

    @given(st.permutations(list(range(5))))
    def test_order_independent(self, order):
        base = [
            entry("http://a.com/1", "2024-01-02T00:00:00", "apwg"),
            entry("http://x.a.com/2", "2024-01-01T00:00:00", "apwg"),
            entry("http://y.a.com/3", "2024-01-01T00:00:00", "openphish"),
            entry("http://b.com/4", "2024-01-03T00:00:00", "apwg", "brandx"),
            entry("http://b.com/5", "2024-01-01T00:00:00", "phishtank"),
        ]
        reference = build_domain_table(base, COM_RULES).records
        shuffled = build_domain_table([base[i] for i in order], COM_RULES).records
        assert reference == shuffled

    def test_lexicographic_order(self, corpus_table):
        names = [r.registrable for r in corpus_table.records]
        assert names == sorted(names)

    def test_corpus_size(self, corpus_table):
        assert len(corpus_table.records) == 40
        assert corpus_table.skipped_urls == 0
