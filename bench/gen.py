"""Seeded input generator for the phishlife benchmark.

``generate(workload, seed, out_dir)`` writes every input file a workload's
command reads, plus ``config.json``, and returns the ground truth the
harness checks the outputs against. All randomness lives here: the same
workload and seed give byte-identical files, and the pipeline itself
receives only these files.

The generator does not import phishlife, so it cannot drift with the code
it measures.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

WORKLOADS = ("report_mixed", "bulk_registration", "monitor_sim", "monitor_live")

RRTYPES = ("A", "AAAA", "NS", "MX", "TXT")
VANTAGES = ("us-east", "eu-west")
SOURCES = ("apwg", "phishtank", "openphish", "urlhaus")

# Sizes. Each workload is sized so that one command takes about 2 s on a
# 2-core machine, which leaves room for several timed repetitions per run.
SUFFIX_RULES = 10_000          # PSL-sized; split_registrable scans all of them
BRANDS = 1000
SQUAT_TOP_N = 200
WORDS = 3000
ALLOWLIST = 2000
REPORT_URLS = 60              # report parses the feed four times
REPORT_LOG_ENTRIES = 400       # registration log of small buckets only
BULK_FEED_URLS = 120
BULK_BUCKETS = 3               # registrar-window buckets of BULK_BUCKET_SIZE names
BULK_BUCKET_SIZE = 120
BULK_SMALL_ENTRIES = 1500
SIM_DOMAINS = 1500
SIM_TICKS = 3
LIVE_DOMAINS = 120
LIVE_TICKS = 2
REPORT_TICKS = 3

REAL_TLDS = ("com", "net", "org", "info", "top", "shop", "xyz", "ru", "io",
             "online", "site", "club", "app", "live", "store", "cn", "tk", "ml")
# TLDs the feed uses for planted names: never wildcarded, no two-label rule
# equals a planted registrable (checked by _Feed.plantable).
PLANT_TLDS = ("com", "net", "top", "shop", "info", "xyz", "online")

_CONS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
_EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)


def _iso(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


class _Names:
    """Pseudo-word source; every word it hands out is unique."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, lo: int = 4, hi: int = 8) -> str:
        rng = self.rng
        while True:
            n = rng.randint(lo, hi)
            chars = []
            for i in range(n):
                chars.append(rng.choice(_CONS if i % 2 == 0 else _VOWELS))
            w = "".join(chars)
            if w not in self.used:
                self.used.add(w)
                return w

    def random_label(self, n: int) -> str:
        """A consonant-heavy label meant to read as random."""
        rng = self.rng
        while True:
            w = "".join(rng.choice("bcdfghjkmnpqrstvwxz0123456789") for _ in range(n))
            if w[0].isalpha() and w not in self.used:
                self.used.add(w)
                return w


class _Corpus:
    """Reference data every workload shares: suffix rules, brands, words."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = _Names(rng)
        self.rules: set[str] = set()
        self.rule_lines: list[str] = []
        self.wild_tlds: list[str] = []
        self.exception_hosts: list[str] = []
        self.two_label_suffixes: list[str] = []
        self._build_rules()
        self.words = [self.names.word(4, 7) for _ in range(WORDS)]
        self.brands = self._build_brands()
        self.allow = self._build_allowlist()

    def _add_rule(self, rule: str) -> None:
        if rule not in self.rules:
            self.rules.add(rule)
            self.rule_lines.append(rule)

    def _build_rules(self) -> None:
        rng, names = self.rng, self.names
        second = ("com", "net", "org", "gov", "edu", "ac", "co")
        # a synthetic TLD must not shadow a real one: "*.ru" would swallow
        # every planted .ru name
        names.used.update(REAL_TLDS + second + ("uk", "www"))
        for tld in REAL_TLDS:
            self._add_rule(tld)
        self._add_rule("co.uk")
        self._add_rule("uk")
        self.two_label_suffixes.append("co.uk")
        for idn in ("рф", "中国", "онлайн"):
            self._add_rule(idn)
        synth = [names.word(2, 6) for _ in range(1400)]
        for tld in synth:
            self._add_rule(tld)
        for tld in synth[:120]:
            self._add_rule("*." + tld)
            self.wild_tlds.append(tld)
        for tld in synth[:60]:
            self._add_rule(f"!www.{tld}")
            self.exception_hosts.append(f"www.{tld}")
        while len(self.rules) < SUFFIX_RULES - 1000:
            tld = rng.choice(synth[120:] + list(REAL_TLDS))
            label = rng.choice(second) if rng.random() < 0.3 else names.word(3, 8)
            self._add_rule(f"{label}.{tld}")
            if tld in REAL_TLDS and len(self.two_label_suffixes) < 40 and tld not in PLANT_TLDS:
                self.two_label_suffixes.append(f"{label}.{tld}")
        while len(self.rules) < SUFFIX_RULES:
            tld = rng.choice(synth[120:])
            self._add_rule(f"{names.word(3, 6)}.{names.word(2, 4)}.{tld}")

    def _build_brands(self) -> list[tuple[int, str, str]]:
        rng, names = self.rng, self.names
        brands = []
        for rank in range(1, BRANDS + 1):
            # a few short ids exercise match_brand's whole-token path
            bid = names.word(3, 3) if rank % 40 == 0 else names.word(5, 9)
            tld = rng.choice(("com", "com", "com", "net", "org", "io", "ru"))
            brands.append((rank, bid, f"{bid}.{tld}"))
        return brands

    def _build_allowlist(self) -> list[str]:
        allow = [dom for _, _, dom in self.brands[:600]]
        while len(allow) < ALLOWLIST:
            allow.append(f"{self.names.word(5, 9)}.{self.rng.choice(('com', 'net', 'org'))}")
        return allow

    def write_reference(self, out: Path) -> None:
        rules = ["// PSL-shaped suffix rules, seeded", "// ===BEGIN ICANN DOMAINS===", ""]
        for i, rule in enumerate(self.rule_lines):
            rules.append(rule)
            if i % 500 == 499:
                rules += ["", f"// block {i // 500}"]
        (out / "suffixes.dat").write_text("\n".join(rules) + "\n", encoding="utf-8")
        lines = ["rank,brand_id,canonical_domain"]
        lines += [f"{rank},{bid},{dom}" for rank, bid, dom in self.brands]
        (out / "brands.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        lines = [f"{i},{dom}" for i, dom in enumerate(self.allow, start=1)]
        (out / "allowlist.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "words.txt").write_text("\n".join(self.words) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- feeds


def _squat_variant(rng: random.Random, label: str) -> str:
    """One squatting variant of a brand label, by a technique squatgen knows."""
    glyphs = {"o": "0", "l": "1", "i": "1", "e": "3", "a": "4", "s": "5", "b": "8", "g": "9"}
    while True:
        kind = rng.randrange(5)
        i = rng.randrange(1, len(label) - 1)
        if kind == 0:
            out = label[:i] + label[i + 1:]                      # omission
        elif kind == 1:
            out = label[:i] + label[i] + label[i:]               # repetition
        elif kind == 2:
            out = label[:i] + "-" + label[i:]                    # hyphenation
        elif kind == 3:
            out = label + rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")  # addition
        else:
            spots = [j for j, c in enumerate(label) if c in glyphs]
            if not spots:
                continue
            j = rng.choice(spots)
            out = label[:j] + glyphs[label[j]] + label[j + 1:]   # homoglyph
        if out != label:
            return out


class _Feed:
    """Feed entries plus the ground truth they plant."""

    def __init__(self, corpus: _Corpus):
        self.corpus = corpus
        self.rng = corpus.rng
        self.rows: list[tuple[datetime, str, str, str]] = []   # (at, url, source, brand)
        self.bad_rows: list[tuple[datetime, str, str, str]] = []  # rejected by parse/split
        self.bad_lines: list[str] = []                         # rejected by the loader
        self.registrables: set[str] = set()
        self.truth: dict[str, list[str]] = {"squatted": [], "brand_in_domain": [], "bulk_registered": []}
        self._allow = set(corpus.allow)
        self._canonical = {dom for _, _, dom in corpus.brands}

    def _at(self) -> datetime:
        return _EPOCH + timedelta(minutes=self.rng.randrange(0, 300 * 24 * 60))

    def _host_url(self, host: str) -> str:
        rng = self.rng
        scheme = rng.choice(("http://", "https://", "", "HTTP://"))
        path = rng.choice(("/", "/login", "/verify/account", "/wp-admin/x.php", "?id=1", ""))
        port = ":8080" if rng.random() < 0.03 else ""
        return f"{scheme}{host}{port}{path}"

    def add(self, registrable: str, brand: str = "", subdomain: str = "", copies: int = 1) -> None:
        rng = self.rng
        host = f"{subdomain}.{registrable}" if subdomain else registrable
        self.registrables.add(registrable)
        for _ in range(copies):
            self.rows.append((self._at(), self._host_url(host), rng.choice(SOURCES), brand))

    def plantable(self, registrable: str) -> bool:
        return (registrable not in self._allow and registrable not in self._canonical
                and registrable not in self.registrables
                and registrable not in self.corpus.rules)

    def add_squat(self) -> None:
        rng, corpus = self.rng, self.corpus
        while True:
            _, bid, dom = corpus.brands[rng.randrange(SQUAT_TOP_N)]
            if len(bid) < 5:
                continue
            if rng.random() < 0.15:
                tld = rng.choice([t for t in PLANT_TLDS if not dom.endswith("." + t)])
                reg = f"{bid}.{tld}"                    # tld swap
            else:
                reg = f"{_squat_variant(rng, bid)}.{dom.split('.', 1)[1]}"
            if self.plantable(reg):
                self.add(reg, brand=bid, copies=rng.randint(1, 3))
                self.truth["squatted"].append(reg)
                return

    def add_brand_in_domain(self) -> None:
        rng, corpus = self.rng, self.corpus
        while True:
            _, bid, _ = corpus.brands[rng.randrange(BRANDS)]
            if len(bid) < 4:
                continue
            pre, post = rng.choice(corpus.words), rng.choice(corpus.words)
            label = rng.choice((f"{bid}-{post}", f"{pre}-{bid}", f"{pre}{bid}{post}"))
            reg = f"{label}.{rng.choice(PLANT_TLDS)}"
            if self.plantable(reg):
                self.add(reg, brand=bid, subdomain=rng.choice(("", "", "secure", "www")),
                         copies=rng.randint(1, 2))
                self.truth["brand_in_domain"].append(reg)
                return

    def add_benign(self) -> None:
        """A compromised-looking site: dictionary words, maybe a subdomain."""
        rng, corpus = self.rng, self.corpus
        words = corpus.words
        label = rng.choice(words) + rng.choice(("", "-", "")) + rng.choice(words)
        kind = rng.random()
        if kind < 0.06:
            reg = f"{label}.{rng.choice(corpus.two_label_suffixes)}"
        elif kind < 0.10:
            # under "*.<tld>" the wildcard label is part of the suffix
            reg = f"{label}.{corpus.names.word(2, 3)}.{rng.choice(corpus.wild_tlds)}"
        elif kind < 0.12:
            reg = f"{label}.unlisted{rng.randrange(3)}"
        else:
            reg = f"{label}.{rng.choice(REAL_TLDS)}"
        if not self.plantable(reg):
            return
        sub = rng.choice(("", "", "", "www", "mail", "cdn.static", rng.choice(words)))
        self.add(reg, subdomain=sub, copies=rng.randint(1, 3))

    def add_random(self) -> None:
        label = self.corpus.names.random_label(self.rng.randint(8, 14))
        reg = f"{label}.{self.rng.choice(PLANT_TLDS)}"
        if self.plantable(reg):
            self.add(reg, copies=self.rng.randint(1, 2))

    def add_platform_and_allowlisted(self) -> None:
        rng, corpus = self.rng, self.corpus
        dom = rng.choice(corpus.allow)
        sub = rng.choice(("", f"{rng.choice(corpus.words)}-login", "support"))
        host = f"{sub}.{dom}" if sub else dom
        self.registrables.add(dom)
        self.rows.append((self._at(), self._host_url(host), rng.choice(SOURCES), ""))

    def add_idn(self) -> None:
        rng, corpus = self.rng, self.corpus
        uni = rng.choice(("bücher", "straße", "café", "пример", "данные", "例子"))
        label = f"{uni}{rng.choice(corpus.words)}"
        tld = rng.choice(("com", "рф", "онлайн", "net"))
        self.rows.append((self._at(), self._host_url(f"{label}.{tld}"), rng.choice(SOURCES), ""))

    def add_wildcard_exception(self) -> None:
        host = self.rng.choice(self.corpus.exception_hosts)
        self.rows.append((self._at(), self._host_url(host), self.rng.choice(SOURCES), ""))

    def add_bad_url(self) -> None:
        rng = self.rng
        host = rng.choice(("bad_label.com", "a..b.com", "com", "-", "[::1", "x" * 70 + ".com"))
        url = rng.choice(("http://", "https://")) + host + "/p"
        self.bad_rows.append((self._at(), url, rng.choice(SOURCES), ""))

    def add_bad_line(self) -> None:
        rng = self.rng
        self.bad_lines.append(rng.choice((
            "not-a-date\thttp://example.com/\tapwg",
            "2024-02-30T00:00:00Z\thttp://example.com/\tapwg",
            "2024-03-01T00:00:00Z\thttp://only-two-fields.com",
            "2024-03-01T00:00:00Z\t\tapwg",
        )))

    def duplicate_across_sources(self, n: int) -> None:
        """Re-report existing URLs from another source and a later time."""
        rng = self.rng
        good = list(self.rows)
        for _ in range(n):
            at, url, source, brand = rng.choice(good)
            other = rng.choice([s for s in SOURCES if s != source])
            self.rows.append((at + timedelta(hours=rng.randint(1, 96)), url, other, brand))

    def write(self, out: Path) -> list[dict]:
        """Write the feed as a lines file and a JSON file; returns feed config entries."""
        rows = sorted(self.rows + self.bad_rows)
        self.rng.shuffle(rows)
        cut = len(rows) // 2
        lines = ["# seeded feed, tab-separated: detected_at, url, source, brand"]
        lines += [f"{_iso(at)}\t{url}\t{src}" + (f"\t{brand}" if brand else "")
                  for at, url, src, brand in rows[:cut]]
        lines += self.bad_lines
        (out / "feed_a.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        objs = [{"url": url, "detected_at": _iso(at), "source": src, **({"brand": brand} if brand else {})}
                for at, url, src, brand in rows[cut:]]
        objs.append({"detected_at": "2024-01-01T00:00:00Z", "source": "apwg"})  # no url
        (out / "feed_b.json").write_text(json.dumps(objs, ensure_ascii=False, indent=0) + "\n",
                                         encoding="utf-8")
        return [{"path": "feed_a.tsv", "format": "lines"}, {"path": "feed_b.json", "format": "json"}]

    @property
    def url_count(self) -> int:
        return len(self.rows) + len(self.bad_rows)


def _mixed_feed(corpus: _Corpus, n_urls: int) -> _Feed:
    """Planted, platform, IDN, wildcard and malformed entries; filled up to
    n_urls by ``_finish_feed`` once the registration log has planted its own."""
    feed = _Feed(corpus)
    for _ in range(n_urls // 10):
        feed.add_squat()
    for _ in range(n_urls // 10):
        feed.add_brand_in_domain()
    for _ in range(max(3, n_urls // 40)):
        feed.add_platform_and_allowlisted()
        feed.add_idn()
        feed.add_wildcard_exception()
        feed.add_bad_url()
        feed.add_bad_line()
    for _ in range(n_urls // 12):
        feed.add_random()
    while feed.url_count < n_urls * 0.6:
        feed.add_benign()
    return feed


def _finish_feed(feed: _Feed, n_urls: int) -> None:
    """Top the feed up to exactly n_urls, so every seed does the same work."""
    while feed.url_count < n_urls * 0.9:
        feed.add_benign()
    feed.duplicate_across_sources(n_urls - feed.url_count)


# ---------------------------------------------------------------- registration log


def _bulk_names(corpus: _Corpus, rng: random.Random, size: int) -> tuple[list[str], list[str]]:
    """Names a bulk registrar drops in one window: templated series
    (neighbours within edit distance 2) mixed with unrelated names.

    Returns all names and the templated ones.
    """
    names: list[str] = []
    templated: list[str] = []
    # every label has 12 characters, so each seed costs cluster_bulk the same
    while len(names) < size:
        stem = corpus.names.word(5, 5) + corpus.names.word(5, 5)
        series = [f"{stem}{k:02d}" for k in range(rng.randint(8, 30))]
        names += series
        templated += series
        for _ in range(rng.randint(5, 20)):
            names.append(corpus.names.random_label(12))
    names = names[:size]
    kept = set(names)
    # a series cut short by the size limit may fall below min_cluster_size
    return names, [n for n in templated if n in kept and n[:-2] + "02" in kept]


def _registration_log(corpus: _Corpus, feed: _Feed, rng: random.Random,
                      bulk_buckets: int, bulk_size: int, small_entries: int) -> list[str]:
    rows: list[tuple[str, datetime, str]] = []
    registrars = [f"{corpus.names.word(5, 8)}-registrar" for _ in range(40)]
    tld_for = lambda: rng.choice(PLANT_TLDS)  # noqa: E731
    # planted small series: 3-5 names, one window, one registrar; some sit in the feed
    for _ in range(max(2, small_entries // 150)):
        stem = f"{rng.choice(corpus.words)}-{rng.choice(corpus.words)}"
        day = _EPOCH + timedelta(days=rng.randrange(300), hours=2)
        registrar = rng.choice(registrars)
        tld = tld_for()
        series = [f"{stem}{k}.{tld}" for k in range(rng.randint(3, 5))]
        for k, reg in enumerate(series):
            rows.append((reg, day + timedelta(minutes=k), registrar))
        for reg in series[: rng.randint(1, 2)]:
            if feed.plantable(reg):
                feed.add(reg, copies=1)
                feed.truth["bulk_registered"].append(reg)
    # large registrar-window buckets
    for b in range(bulk_buckets):
        registrar = registrars[b]
        day = _EPOCH + timedelta(days=10 + 7 * b, hours=1)
        tld = tld_for()
        names, templated = _bulk_names(corpus, rng, bulk_size)
        for k, name in enumerate(names):
            rows.append((f"{name}.{tld}", day + timedelta(seconds=37 * k), registrar))
        # the feed carries a sample of the templated (clustered) names
        for reg in (f"{n}.{tld}" for n in rng.sample(templated, 6)):
            if feed.plantable(reg):
                feed.add(reg, copies=1)
                feed.truth["bulk_registered"].append(reg)
    # background: many unrelated small buckets
    for _ in range(small_entries):
        reg = f"{corpus.names.random_label(rng.randint(6, 12))}.{tld_for()}"
        at = _EPOCH + timedelta(minutes=rng.randrange(300 * 24 * 60))
        rows.append((reg, at, rng.choice(registrars)))
    # feed domains registered one by one
    for reg in sorted(feed.registrables):
        if rng.random() < 0.5:
            at = _EPOCH + timedelta(minutes=rng.randrange(300 * 24 * 60))
            rows.append((reg, at, rng.choice(registrars)))
    rng.shuffle(rows)
    return ["registrable,registered_at,registrar"] + [f"{r},{_iso(at)},{g}" for r, at, g in rows]


def _timestamp_sources(feed: _Feed, rng: random.Random) -> list[str]:
    kinds = ("whois", "rdap", "ct_log", "passive_dns_first_seen", "zone_first_appearance")
    lines = ["registrable,kind,at"]
    for reg in sorted(feed.registrables):
        if rng.random() < 0.15:
            continue                                  # no registration evidence
        base = _EPOCH + timedelta(minutes=rng.randrange(-60 * 24 * 60, 250 * 24 * 60))
        for kind in rng.sample(kinds, rng.randint(1, 3)):
            lines.append(f"{reg},{kind},{_iso(base + timedelta(hours=rng.randint(0, 72)))}")
        if rng.random() < 0.6:
            gone = base + timedelta(days=rng.randint(1, 90))
            lines.append(f"{reg},zone_last_seen,{_iso(gone)}")
    lines.append("bad-row.com,carrier_pigeon,2024-01-01T00:00:00Z")
    lines.append("bad-row.com,whois,yesterday")
    return lines


# ---------------------------------------------------------------- DNS data


def _answer(rng: random.Random, rrtype: str, ttl: int) -> dict:
    if rrtype == "A":
        values = [f"198.51.{rng.randrange(256)}.{rng.randrange(1, 255)}" for _ in range(rng.randint(1, 2))]
    elif rrtype == "AAAA":
        values = [f"2001:db8::{rng.randrange(1, 65535):x}"]
    elif rrtype == "NS":
        values = [f"ns{k}.dns{rng.randrange(50)}.example" for k in (1, 2)]
    elif rrtype == "MX":
        values = [f"10 mx.mail{rng.randrange(50)}.example"]
    else:
        values = [f"v=spf1 include:spf{rng.randrange(50)}.example -all"]
    return {"values": sorted(values), "ttl": ttl}


def _monitor_domains(corpus: _Corpus, rng: random.Random, n: int) -> list[str]:
    out: set[str] = set()
    while len(out) < n:
        out.add(f"{rng.choice(corpus.words)}{rng.choice(corpus.words)}.{rng.choice(PLANT_TLDS)}")
    return sorted(out)


def _scripted_fixture(domains: list[str], rng: random.Random) -> tuple[dict, dict]:
    """Resolver script with planted behaviours, and the domains of each role.

    Roles: rotating values, TTL under 60 s, per-vantage override, timeouts
    before success, SERVFAIL on every attempt, NXDOMAIN, unscripted (also
    NXDOMAIN), and plain static answers.
    """
    roles = {"rotating": [], "fastflux": [], "override": [], "flaky": [],
             "servfail": [], "nxdomain": [], "unscripted": [], "static": []}
    order = ["rotating", "fastflux", "override", "flaky", "servfail", "nxdomain", "unscripted"]
    share = {"rotating": 0.08, "fastflux": 0.05, "override": 0.05, "flaky": 0.05,
             "servfail": 0.02, "nxdomain": 0.04, "unscripted": 0.04}
    shuffled = list(domains)
    rng.shuffle(shuffled)
    pos = 0
    for role in order:
        k = max(1, int(len(domains) * share[role]))
        roles[role] = sorted(shuffled[pos:pos + k])
        pos += k
    roles["static"] = sorted(shuffled[pos:])

    script: dict = {}
    for dom in domains:
        if dom in roles["unscripted"]:
            continue
        if dom in roles["nxdomain"]:
            script[dom] = {t: ["nxdomain"] for t in RRTYPES}
            continue
        if dom in roles["servfail"]:
            script[dom] = {"A": ["servfail"]}
            script[dom].update({t: [_answer(rng, t, 3600)] for t in RRTYPES[1:]})
            continue
        fast = dom in roles["fastflux"]
        entry = {}
        for t in RRTYPES:
            if t == "TXT" and rng.random() < 0.5:
                continue                                   # empty answer for this type
            ttl = rng.randint(5, 59) if fast else rng.choice((60, 300, 3600, 86400))
            entry[t] = [_answer(rng, t, ttl)]
        if dom in roles["rotating"]:
            entry["A"] = [{"values": [f"203.0.113.{step}"], "ttl": 120} for step in (1, 2, 3)]
        if dom in roles["flaky"]:
            entry["NS"] = [dict(_answer(rng, "NS", 3600), fail_count_before_success=rng.randint(1, 3))]
        script[dom] = entry
        if dom in roles["override"]:
            script[f"{dom}@{VANTAGES[1]}"] = dict(entry, A=[_answer(rng, "A", 600)])
    return script, roles


def _live_zone(domains: list[str], rng: random.Random) -> tuple[dict, dict]:
    """Answers the loopback responder serves, by domain and rrtype.

    Roles go by position in the sorted domain list, the order the monitor
    hands domains to its workers, so the slow domains (TC, SERVFAIL first)
    fall in the same places for every seed and the run time does not
    depend on where they land.
    """
    roles: dict[str, list[str]] = {"truncated": [], "servfail_first": [], "nxdomain": [], "static": []}
    for i, dom in enumerate(domains):
        role = ("truncated" if i % 10 == 0 else "servfail_first" if i % 10 == 5
                else "nxdomain" if i % 20 == 3 else "static")
        roles[role].append(dom)
    nx = set(roles["nxdomain"])
    zone = {dom: {t: _answer(rng, t, rng.choice((30, 300, 3600, 86400))) for t in RRTYPES}
            for dom in domains if dom not in nx}              # the rest answer NXDOMAIN
    return zone, roles


# ---------------------------------------------------------------- workloads


def _base_config(feeds: list[dict]) -> dict:
    return {
        "feeds": feeds,
        "suffix_rules": "suffixes.dat",
        "allowlist": "allowlist.csv",
        "brand_catalog": "brands.csv",
        "word_list": "words.txt",
        "vantage_config": "vantages.json",
        "brand_top_n": BRANDS,
        "squat_top_n": SQUAT_TOP_N,
        "bulk_window_hours": 24,
        "max_edit_distance": 2,
        "min_cluster_size": 3,
        "min_word_length": 4,
        "reference_source": "apwg",
    }


def write_vantages(out: Path, address: str) -> None:
    vantages = [{"id": v, "resolver_address": address, "region_label": v} for v in VANTAGES]
    (out / "vantages.json").write_text(json.dumps(vantages, indent=1) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's inputs under ``out`` and return its ground truth.

    The truth holds ``command`` (phishlife argv after the program name,
    relative to ``out``), ``ops`` (feed URLs or DNS lookups per command),
    the planted expectations the harness checks, and for monitor_live the
    ``zone`` the responder serves.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    corpus = _Corpus(rng)
    corpus.write_reference(out)
    write_vantages(out, "192.0.2.53:53")
    truth: dict = {}

    if workload in ("report_mixed", "bulk_registration"):
        if workload == "report_mixed":
            feed = _mixed_feed(corpus, REPORT_URLS)
            log = _registration_log(corpus, feed, rng, 0, 0, REPORT_LOG_ENTRIES)
        else:
            feed = _mixed_feed(corpus, BULK_FEED_URLS)
            log = _registration_log(corpus, feed, rng, BULK_BUCKETS, BULK_BUCKET_SIZE,
                                    BULK_SMALL_ENTRIES)
        (out / "registration_log.csv").write_text("\n".join(log) + "\n", encoding="utf-8")
        _finish_feed(feed, REPORT_URLS if workload == "report_mixed" else BULK_FEED_URLS)
        feeds = feed.write(out)
        cfg = _base_config(feeds)
        cfg["registration_log"] = "registration_log.csv"
        truth.update(ops=feed.url_count, skipped_urls=len(feed.bad_rows),
                     flags={k: sorted(v) for k, v in feed.truth.items()})
        if workload == "report_mixed":
            ts = _timestamp_sources(feed, rng)
            (out / "timestamp_sources.csv").write_text("\n".join(ts) + "\n", encoding="utf-8")
            fixture_domains = sorted(feed.registrables)
            script, _ = _scripted_fixture(fixture_domains[: len(fixture_domains) // 2], rng)
            (out / "resolver_fixture.json").write_text(json.dumps(script, sort_keys=True) + "\n",
                                                       encoding="utf-8")
            cfg.update(timestamp_sources="timestamp_sources.csv",
                       resolver_fixture="resolver_fixture.json",
                       monitor_interval_minutes=30,
                       monitor_duration_minutes=30 * REPORT_TICKS)
            truth["command"] = ["report"]
        else:
            truth["command"] = ["classify"]
    else:
        n = SIM_DOMAINS if workload == "monitor_sim" else LIVE_DOMAINS
        domains = _monitor_domains(corpus, rng, n)
        (out / "monitor_domains.txt").write_text("\n".join(domains) + "\n", encoding="utf-8")
        cfg = _base_config([])
        cfg["monitor_domains"] = "monitor_domains.txt"
        ticks = SIM_TICKS if workload == "monitor_sim" else LIVE_TICKS
        lookups = len(domains) * len(VANTAGES) * len(RRTYPES) * ticks
        truth.update(ops=lookups, ticks=ticks, domains=len(domains))
        if workload == "monitor_sim":
            script, roles = _scripted_fixture(domains, rng)
            (out / "resolver_fixture.json").write_text(json.dumps(script, sort_keys=True) + "\n",
                                                       encoding="utf-8")
            cfg.update(resolver_fixture="resolver_fixture.json",
                       monitor_interval_minutes=30, monitor_duration_minutes=30 * ticks)
            truth["roles"] = roles
            truth["command"] = ["monitor"]
        else:
            zone, roles = _live_zone(domains, rng)
            # ticks fire at k * interval for k <= duration / interval; the half
            # interval of slack keeps the last tick inside the window
            interval_min = 0.002
            cfg.update(monitor_interval_minutes=interval_min,
                       monitor_duration_minutes=interval_min * (ticks + 0.5),
                       backoff_base_ms=5, backoff_cap_ms=20)
            truth.update(roles=roles, zone=zone)
            truth["command"] = ["monitor", "--live"]
    (out / "config.json").write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    truth["command"] = truth["command"] + ["--config", "config.json", "--out-dir", "out"]
    return truth
