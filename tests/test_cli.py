from __future__ import annotations

import contextlib
import csv
import errno
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from phishlife import classifier, cli, dnsmon, dnswire, ingest, lifecycle, squatgen
from phishlife.cli import main

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "config.json")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def config_copy(tmp_path: Path, changes: dict) -> str:
    """tests/data/config.json written into tmp_path, with its paths made absolute.

    Each change sets a key; None drops it, and a (name, text) pair writes
    the file ``name`` into tmp_path and points the key at it.
    """
    raw = json.loads((DATA / "config.json").read_text())
    raw = {k: str(DATA / v) if isinstance(v, str) and (DATA / v).is_file() else v
           for k, v in raw.items()}
    raw["feeds"] = [{**f, "path": str(DATA / f["path"])} for f in raw["feeds"]]
    for key, value in changes.items():
        if value is None:
            del raw[key]
            continue
        if isinstance(value, tuple):
            name, text = value
            (tmp_path / name).write_text(text)
            value = name
        raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestIngestCommand:
    def test_mixed_formats_merged(self, tmp_path, capsys):
        code = main([
            "ingest",
            "--feeds", f"{DATA / 'feed_a.tsv'},{DATA / 'feed_b.json'}",
            "--suffix-rules", str(DATA / "suffixes.dat"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 domains, 3 TLDs" in out
        lines = (tmp_path / "domains.jsonl").read_text().splitlines()
        assert len(lines) == 4
        records = [json.loads(l) for l in lines]
        assert [r["registrable"] for r in records] == ["a.com", "b.com", "c.net", "d.top"]
        a_com = records[0]
        assert a_com["url_count"] == 2
        assert a_com["first_detections"]["apwg"] == "2024-06-01T00:00:00Z"

    def test_urls_counted_per_source_with_failed_hosts(self, tmp_path, capsys):
        bad = tmp_path / "bad_host.tsv"
        bad.write_text("2024-06-01T00:00:00Z\thttp://bad..com/\tphishtank\n")
        feeds = f"{DATA / 'feed_a.tsv'},{DATA / 'feed_b.json'},{bad}"
        assert main(["ingest", "--feeds", feeds, "--suffix-rules", str(DATA / "suffixes.dat"),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "4 domains, 3 TLDs (7 URLs, 1 skipped)",
            "  apwg: 4 URLs, 3 domains, 2 TLDs",
            "  openphish: 1 URLs, 1 domains, 1 TLDs",
            "  phishtank: 2 URLs, 1 domains, 1 TLDs",
        ]

    def test_malformed_records_counted_per_feed_file(self, tmp_path, capsys):
        # two records whose timestamps are not in the grammar; the summary
        # line counts the URLs whose host failed, so it reads as without them
        feed = tmp_path / "corpus40_feed.tsv"
        feed.write_text((DATA / "corpus40_feed.tsv").read_text()
                        + "2024-03-01T00:00:00.5Z\thttp://late.com/\tapwg\tnone\n"
                        + "20240101T000000Z\thttp://compact.com/\tapwg\tnone\n")
        other = DATA / "feed_b.json"
        config = config_copy(tmp_path, {"feeds": [str(feed), str(other)]})
        assert main(["ingest", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == [f"  {feed}: 2 malformed records skipped",
                            f"  {other}: 0 malformed records skipped"]
        clean = config_copy(tmp_path, {"feeds": [str(DATA / "corpus40_feed.tsv"), str(other)]})
        assert main(["ingest", "--config", clean, "--out-dir", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().out.splitlines()[:-2] == out[:-2]

    def test_empty_feed_exits_3(self, tmp_path, capsys):
        feed = tmp_path / "empty.tsv"
        feed.write_text("# nothing\n")
        code = main([
            "ingest", "--feeds", str(feed),
            "--suffix-rules", str(DATA / "suffixes.dat"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 3

    def test_missing_suffix_rules_exits_2(self, tmp_path):
        code = main([
            "ingest", "--feeds", str(DATA / "feed_a.tsv"),
            "--suffix-rules", str(tmp_path / "absent.dat"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2

    def test_bad_parameter_exits_2(self, tmp_path):
        code = main([
            "ingest", "--config", CONFIG,
            "--min-cluster-size", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 2


class TestClassifyCommand:
    def test_corpus_matches_hand_labels(self, tmp_path, capsys):
        code = main(["classify", "--config", CONFIG, "--out-dir", str(tmp_path)])
        assert code == 0

        got = read_csv(tmp_path / "classification.csv")
        expected = read_csv(DATA / "corpus40_expected.csv")
        assert [r["registrable"] for r in got] == [r["registrable"] for r in expected]
        for g, e in zip(got, expected):
            assert (g["registrable"], g["verdict"], g["flags"]) == (
                e["registrable"], e["verdict"], e["flags"])

        summary = {r["flag"]: r for r in read_csv(tmp_path / "flag_summary.csv")}
        assert summary["brand_in_domain"]["domains"] == "15"
        assert summary["squatted"]["domains"] == "11"
        assert summary["random_looking"]["domains"] == "4"
        assert summary["bulk_registered"]["domains"] == "6"
        assert summary["malicious_total"]["domains"] == "30"
        assert summary["malicious_total"]["pct_of_candidates"] == "83.3"
        assert "candidates after allowlist removal: 36" in capsys.readouterr().out

    def test_registrar_summary_shape(self, tmp_path):
        main(["classify", "--config", CONFIG, "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "registrar_summary.csv")
        assert [(r["rank"], r["registrar"], r["domains"], r["share"]) for r in rows] == [
            ("1", "alibaba", "3", "50.0"),
            ("2", "godaddy", "3", "50.0"),
        ]

    def test_jsonl_mirror(self, tmp_path):
        main(["classify", "--config", CONFIG, "--out-dir", str(tmp_path)])
        lines = (tmp_path / "classification.jsonl").read_text().splitlines()
        assert len(lines) == 40
        rec = json.loads(lines[0])
        assert set(rec) == {"registrable", "verdict", "flags", "evidence"}

    def test_all_allowlisted_gives_empty_summary(self, tmp_path, capsys):
        feed = tmp_path / "feed.tsv"
        feed.write_text(
            "2024-06-06T00:00:00Z\thttp://google.com/a\tapwg\n"
            "2024-06-06T00:00:00Z\thttp://facebook.com/b\tapwg\n")
        code = main([
            "classify", "--config", CONFIG,
            "--feeds", str(feed),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert "candidates after allowlist removal: 0" in capsys.readouterr().out
        rows = read_csv(tmp_path / "out" / "flag_summary.csv")
        assert all(r["domains"] == "0" and r["pct_of_candidates"] == "" for r in rows)

    def test_year_one_registration_date_is_bucketed(self, tmp_path, capsys):
        # many WHOIS dumps give 0001-01-01 as a placeholder date
        log = ((DATA / "registration_log.csv").read_text()
               + "placeholder.com,0001-01-01T00:00:00Z,RegA\n")
        config = config_copy(tmp_path, {"registration_log": ("registration_log.csv", log)})
        code = main(["classify", "--config", config, "--bulk-window-hours", "168",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().err


class TestMonitorCommand:
    def test_simulate_fixture(self, tmp_path, capsys):
        code = main(["monitor", "--config", CONFIG, "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 collection rounds over 4 domains" in out
        assert "25.0% of domains exhibit record changes" in out

        changes = read_csv(tmp_path / "record_changes.csv")
        assert len(changes) == 1
        assert changes[0]["registrable"] == "flux.top"
        assert changes[0]["rrtype"] == "NS"
        assert changes[0]["before"] == "ns1.cloudflare.example"
        assert changes[0]["after"] == "ns1.google.example"

        buckets = {r["metric"]: r["value"] for r in read_csv(tmp_path / "ttl_buckets.csv")}
        assert buckets["under_60s"] == "1"
        assert buckets["under_3600s"] == "3"
        assert buckets["over_43200s"] == "0"

        ttl = {r["registrable"]: r for r in read_csv(tmp_path / "ttl_summary.csv")}
        assert ttl["flux.top"]["min_ttl"] == "45"

    def test_store_written_and_loadable(self, tmp_path):
        main(["monitor", "--config", CONFIG, "--out-dir", str(tmp_path)])
        lines = (tmp_path / "snapshots.jsonl").read_text().splitlines()
        assert len(lines) == 8  # 4 domains x 1 vantage x 2 ticks
        snap = json.loads(lines[0])
        assert {"registrable", "vantage_id", "taken_at", "rrsets", "status", "attempts"} <= set(snap)

    def test_rerun_into_one_store_skips_equal_times(self, tmp_path, capsys):
        # the second run repeats the first run's times; a pair of snapshots
        # with equal times is not diffed, so the NS swap is one row
        args = ["monitor", "--config", CONFIG, "--snapshot-store", str(tmp_path / "s.jsonl")]
        assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "second")]) == 0
        out = tmp_path / "second"
        assert (out / "record_changes.csv").read_text() == (
            "registrable,rrtype,vantage_id,before,after,observed_at\n"
            "flux.top,NS,us-east,ns1.cloudflare.example,ns1.google.example,2024-06-06T01:00:00Z\n")
        assert (out / "ttl_summary.csv").read_text() == (
            "registrable,observations,min_ttl,median_ttl,mean_ttl\n"
            "flux.top,8,45,45.00,45.00\n"
            "static1.com,8,300,300.00,300.00\n"
            "static2.com,8,290,300.00,1947.50\n"
            "static3.com,8,3600,3600.00,5400.00\n")
        assert capsys.readouterr().out.count("(1 of 4, 1 changes)") == 2

    def test_change_rate_counts_the_domains_of_the_store(self, tmp_path, capsys):
        # a second run over one domain reads the first run's four from the
        # store; the rate divides the changed domains by all that the store holds
        store = str(tmp_path / "s.jsonl")
        assert main(["monitor", "--config", CONFIG, "--snapshot-store", store,
                     "--out-dir", str(tmp_path / "first")]) == 0
        capsys.readouterr()
        one = config_copy(tmp_path, {"monitor_domains": ("one.txt", "static1.com\n")})
        assert main(["monitor", "--config", one, "--snapshot-store", store,
                     "--out-dir", str(tmp_path / "second")]) == 0
        assert capsys.readouterr().out == (
            "2 collection rounds over 1 domains\n"
            "25.0% of domains exhibit record changes (1 of 4, 1 changes)\n")

    def test_rerun_into_one_store_before_year_1000(self, tmp_path, capsys):
        # the store's times carry a four-digit year, so the second run loads them
        config = config_copy(tmp_path, {"monitor_start": "0999-01-01T00:00:00Z"})
        args = ["monitor", "--config", config, "--out-dir", str(tmp_path / "out")]
        assert main(args) == 0
        assert main(args) == 0
        stored = [json.loads(line)["taken_at"]
                  for line in (tmp_path / "out" / "snapshots.jsonl").read_text().splitlines()]
        assert sorted(set(stored)) == ["0999-01-01T00:30:00Z", "0999-01-01T01:00:00Z"]
        assert len(stored) == 16
        assert capsys.readouterr().err == ""

    def test_fixture_key_normalized(self, tmp_path):
        # the fixture key Flux.TOP answers for the monitored domain flux.top
        fixture = json.loads((DATA / "resolver_fixture.json").read_text())
        fixture["Flux.TOP"] = fixture.pop("flux.top")
        config = config_copy(tmp_path, {"resolver_fixture": ("fixture.json", json.dumps(fixture))})
        assert main(["monitor", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        assert main(["monitor", "--config", CONFIG, "--out-dir", str(tmp_path / "plain")]) == 0
        for name in ("snapshots.jsonl", "record_changes.csv", "ttl_summary.csv"):
            assert (tmp_path / "out" / name).read_text() == (tmp_path / "plain" / name).read_text()

    @pytest.mark.parametrize("field, value", [
        pytest.param("taken_at", 5, id="taken_at_number"),
        pytest.param("registrable", 5, id="registrable_number"),
        pytest.param("vantage_id", None, id="vantage_id_null"),
        pytest.param("status", 1, id="status_number"),
        pytest.param("attempts", "5", id="attempts_string"),
        pytest.param("attempts", True, id="attempts_bool"),
        pytest.param("errors", [1], id="error_number"),
        pytest.param("errors", "A:timeout", id="errors_string"),
        pytest.param("nxdomain", "false", id="nxdomain_string"),
        pytest.param("rrsets", {}, id="rrsets_object"),
        pytest.param("rrsets", ["A"], id="rrset_string"),
        pytest.param("rrsets", [{"rrtype": "A", "values": [1], "ttl": 45}], id="value_number"),
        pytest.param("rrsets", [{"rrtype": "A", "values": "192.0.2.1", "ttl": 45}],
                     id="values_string"),
        pytest.param("rrsets", [{"rrtype": "A", "values": ["192.0.2.1"], "ttl": 45.0}],
                     id="ttl_float"),
        pytest.param("rrsets", [{"rrtype": "A", "values": ["192.0.2.1"], "ttl": True}],
                     id="ttl_bool"),
        pytest.param("rrsets", [{"rrtype": 5, "values": ["192.0.2.1"], "ttl": 45}],
                     id="rrtype_number"),
    ])
    def test_store_field_of_wrong_type_exits_4(self, field, value, tmp_path, capsys):
        store = tmp_path / "snaps.jsonl"
        args = ["monitor", "--config", CONFIG, "--snapshot-store", str(store)]
        assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
        first, *rest = store.read_text().splitlines()
        store.write_text("\n".join([json.dumps({**json.loads(first), field: value}), *rest]) + "\n")
        capsys.readouterr()
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("store failure: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "record_changes.csv").exists()

    def test_store_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main([
            "monitor", "--config", CONFIG,
            "--snapshot-store", str(blocker / "snaps.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 4

    def test_store_under_a_file_fails_before_any_query(self, tmp_path, monkeypatch):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        resolved = []
        monkeypatch.setattr(dnsmon.ScriptedResolver, "resolve",
                            lambda self, *args: resolved.append(args))
        code = main([
            "monitor", "--config", CONFIG,
            "--snapshot-store", str(blocker / "snaps.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 4
        assert resolved == []
        assert blocker.read_text() == "not a directory"

    def test_torn_store_line_exits_4(self, tmp_path, capsys):
        store = tmp_path / "snaps.jsonl"
        args = ["monitor", "--config", CONFIG, "--snapshot-store", str(store)]
        assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
        store.write_text(store.read_text()[:-20])  # a crash mid-append
        capsys.readouterr()
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("store failure: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "record_changes.csv").exists()

    def test_torn_store_fails_before_any_query(self, tmp_path, monkeypatch):
        store = tmp_path / "snaps.jsonl"
        args = ["monitor", "--config", CONFIG, "--snapshot-store", str(store)]
        assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
        whole = store.read_text()
        resolved = []
        monkeypatch.setattr(dnsmon.ScriptedResolver, "resolve",
                            lambda self, *args: resolved.append(args))
        # a crash mid-append, and one that cut the final newline alone: the
        # last line still parses, and an append would run onto it
        for cut in (20, 1):
            torn = whole[:-cut]
            store.write_text(torn)
            assert main(args + ["--out-dir", str(tmp_path / "out")]) == 4
            assert resolved == []
            assert store.read_text() == torn

    @pytest.mark.parametrize("last_line", [
        pytest.param(lambda line: "[" * 1000 + "]" * 1000, id="too_deep"),
        pytest.param(lambda line: line.replace('"vantage_id": "', '"vantage_id": "\\ud800'),
                     id="lone_surrogate"),
    ])
    def test_undecodable_store_line_fails_before_any_query(self, last_line, tmp_path,
                                                          monkeypatch, capsys):
        store = tmp_path / "snaps.jsonl"
        args = ["monitor", "--config", CONFIG, "--snapshot-store", str(store)]
        assert main(args + ["--out-dir", str(tmp_path / "first")]) == 0
        *lines, last = store.read_text().splitlines()
        assert last_line(last) != last
        bad = "".join(line + "\n" for line in (*lines, last_line(last)))
        store.write_text(bad)
        resolved = []
        monkeypatch.setattr(dnsmon.ScriptedResolver, "resolve",
                            lambda self, *args: resolved.append(args))
        capsys.readouterr()
        assert main(args + ["--out-dir", str(tmp_path / "out")]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("store failure: malformed snapshot in ")
        assert err.count("\n") == 1
        assert resolved == []
        assert store.read_text() == bad

    @pytest.mark.parametrize("domain", ["bad..com", "a" * 64 + ".com"])
    def test_live_domain_not_a_dns_name_exits_2(self, domain, tmp_path, capsys):
        config = config_copy(tmp_path, {
            "monitor_domains": ("domains.txt", f"ok.com\n{domain}\n"),
            "vantage_config": vantage_file("127.0.0.1:9"),
        })
        code = main(["monitor", "--live", "--config", config, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and domain in err, err
        assert not (tmp_path / "out" / "snapshots.jsonl").exists()

    def test_live_end_past_year_9999_exits_2(self, tmp_path, capsys):
        # the end is within year 9999 from monitor_start, but a live run starts now
        config = config_copy(tmp_path, {"vantage_config": vantage_file("127.0.0.1:9")})
        code = main(["monitor", "--live", "--config", config, "--out-dir", str(tmp_path / "out"),
                     "--monitor-start", "2024-01-01T00:00:00Z",
                     "--monitor-duration-minutes", "4194969000"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: now + ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "snapshots.jsonl").exists()

    @pytest.mark.parametrize("backoff_ms", [1e14, 1e300])
    def test_years_long_backoff_changes_no_simulated_output(self, backoff_ms, tmp_path, capsys):
        # a scripted attempt takes no time, so a simulated run waits no backoff
        fixture = json.loads((DATA / "resolver_fixture.json").read_text())
        fixture["static1.com"]["A"][0]["fail_count_before_success"] = 4
        long_backoff = {"backoff_base_ms": backoff_ms, "backoff_cap_ms": backoff_ms}
        runs = {}
        for name, backoff in [("default", {}), ("long", long_backoff)]:
            config = config_copy(tmp_path, {
                "resolver_fixture": ("fixture.json", json.dumps(fixture)), **backoff})
            out = tmp_path / name
            code = main(["monitor", "--config", config, "--out-dir", str(out)])
            runs[name] = code, capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["long"] == runs["default"]
        code, captured, outputs = runs["default"]
        assert code == 0 and captured.err == ""
        assert b'"attempts": 5' in outputs["snapshots.jsonl"]  # the four timeouts were retried

    @pytest.mark.parametrize("domain", ["bad..com", "exa_mple.com", "a" * 64 + ".com"])
    def test_simulated_domain_not_a_host_exits_2(self, domain, tmp_path, capsys):
        config = config_copy(tmp_path, {"monitor_domains": ("domains.txt", f"ok.com\n{domain}\n")})
        code = main(["monitor", "--config", config, "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(domain) in err, err
        assert not (tmp_path / "out" / "snapshots.jsonl").exists()

    @pytest.mark.parametrize("live", [False, True], ids=["simulate", "live"])
    def test_unicode_domain_is_monitored_as_punycode(self, live, tmp_path, monkeypatch):
        # both modes answer from the scripted fixture; the lookups are recorded
        scripted = dnsmon.ScriptedResolver.from_file(DATA / "resolver_fixture.json")
        scripted_resolve = dnsmon.ScriptedResolver.resolve
        looked_up = set()

        def resolve(self, lookups, delays):
            looked_up.update(domain for _vantage, domain, _rrtype in lookups)
            return scripted_resolve(scripted, lookups, delays)

        monkeypatch.setattr(dnswire.UdpResolver if live else dnsmon.ScriptedResolver,
                            "resolve", resolve)
        config = config_copy(tmp_path, {
            "monitor_domains": ("domains.txt", "flux.top\nMünchen.de.\n"),
            # one tick after 60 ms, so that the live run is short
            "monitor_interval_minutes": 0.001, "monitor_duration_minutes": 0.0015,
        })
        code = main(["monitor", *(["--live"] if live else []), "--config", config,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert looked_up == {"flux.top", "xn--mnchen-3ya.de"}
        snapshots = (tmp_path / "out" / "snapshots.jsonl").read_text().splitlines()
        assert {json.loads(l)["registrable"] for l in snapshots} == looked_up

    def test_no_answered_record_exits_3(self, tmp_path, capsys):
        # the fixture answers none of the 40 corpus domains
        config = config_copy(tmp_path, {"monitor_domains": None})
        code = main(["monitor", "--config", config, "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("empty output: ") and err.count("\n") == 1, err
        assert not (tmp_path / "out" / "record_changes.csv").exists()

    def test_concurrency_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["monitor", "--config", CONFIG, "--concurrency", "4",
                  "--out-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --concurrency 4" in capsys.readouterr().err


class TestLifecycleCommand:
    def test_lifecycle_outputs(self, tmp_path):
        code = main(["lifecycle", "--config", CONFIG, "--out-dir", str(tmp_path)])
        assert code == 0

        rows = {r["registrable"]: r for r in read_csv(tmp_path / "lifecycle.csv")}
        assert len(rows) == 40
        fb = rows["faceb0ok.com"]
        assert fb["registered_at"] == "2024-01-01T00:00:00Z"
        assert fb["provenance"] == "rdap"
        assert float(fb["detection_delay_days"]) == pytest.approx(16.3)
        assert float(fb["takedown_delay_days"]) == pytest.approx(11.5)
        goole = rows["goole.com"]
        assert goole["provenance"] == "zone_first_appearance"
        assert rows["dailynews.info"]["detection_delay_days"] == ""

        verdict_agg = {r["key"]: r for r in read_csv(tmp_path / "agg_detection_delay_verdict.csv")}
        assert float(verdict_agg["MaliciousRegistration"]["median_days"]) == pytest.approx(16.3)
        assert float(verdict_agg["Compromised"]["median_days"]) == pytest.approx(86.0)

        take_agg = {r["key"]: r for r in read_csv(tmp_path / "agg_takedown_delay_verdict.csv")}
        assert float(take_agg["MaliciousRegistration"]["median_days"]) == pytest.approx(11.5)

        lag = {r["key"]: r for r in read_csv(tmp_path / "agg_lag_source.csv")}
        assert float(lag["phishtank"]["median_days"]) == pytest.approx(4.4)
        assert float(lag["openphish"]["median_days"]) == pytest.approx(4.1)

    def test_skipped_timestamp_rows_counted(self, tmp_path, capsys):
        # one row of an unknown kind and one whose timestamp is not in the grammar
        text = ((DATA / "timestamp_sources.csv").read_text()
                + "late.com,carrier_pigeon,2024-01-01T00:00:00Z\n"
                + "compact.com,whois,20240101T000000Z\n")
        config = config_copy(tmp_path, {"timestamp_sources": ("timestamp_sources.csv", text)})
        assert main(["lifecycle", "--config", config, "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"  {tmp_path / 'timestamp_sources.csv'}: 2 timestamp rows skipped"
        assert main(["lifecycle", "--config", CONFIG, "--out-dir", str(tmp_path / "clean")]) == 0
        clean = capsys.readouterr().out.splitlines()
        assert clean[-1] == f"  {DATA / 'timestamp_sources.csv'}: 0 timestamp rows skipped"
        assert clean[:-1] == out[:-1]
        for name in os.listdir(tmp_path / "clean"):
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()

    def test_aggregate_totals(self, tmp_path):
        main(["lifecycle", "--config", CONFIG, "--out-dir", str(tmp_path)])
        rows = read_csv(tmp_path / "agg_detection_delay_verdict.csv")
        # verdict is single-valued: counts + missing covers every record
        assert sum(int(r["count"]) + int(r["missing"]) for r in rows) == 40


class TestSquatgenDump:
    def test_homoglyph_table(self, capsys):
        assert main(["squatgen", "dump"]) == 0
        out = capsys.readouterr().out
        assert "character,replacements" in out
        assert "o,0" in out
        assert "m,rn" in out

    def test_brand_dump(self, capsys):
        assert main(["squatgen", "dump", "--brand-domain", "ab.com"]) == 0
        out = capsys.readouterr().out
        assert "ab0,addition" in out
        assert "a-b,hyphenation" in out

    def test_invalid_brand_domain(self, capsys):
        assert main(["squatgen", "dump", "--brand-domain", "nodots"]) == 2


class TestReportCommand:
    def test_full_pipeline(self, tmp_path, capsys):
        code = main(["report", "--config", CONFIG, "--out-dir", str(tmp_path)])
        assert code == 0
        for name in [
            "domains.jsonl", "classification.csv", "flag_summary.csv",
            "registrar_summary.csv", "lifecycle.csv", "record_changes.csv",
            "ttl_summary.csv", "ttl_buckets.csv", "snapshots.jsonl",
        ]:
            assert (tmp_path / name).exists(), name

    def test_each_output_fsynced_once(self, tmp_path, monkeypatch):
        synced: Counter = Counter()
        fsync = os.fsync

        def counted(fd):
            synced[os.fstat(fd).st_ino] += 1
            fsync(fd)
        monkeypatch.setattr(os, "fsync", counted)
        assert main(["report", "--config", CONFIG, "--out-dir", str(tmp_path)]) == 0
        assert not list(tmp_path.glob("*.tmp"))
        # the snapshot store is appended to, not replaced
        outputs = [p for p in tmp_path.iterdir() if p.name != "snapshots.jsonl"]
        assert synced == {p.stat().st_ino: 1 for p in outputs}


# monitor reads its domains from monitor_domains, or else from the feed's table
@pytest.fixture(params=["monitor_domains", "feed_domains"])
def pipeline_config(request, tmp_path) -> str:
    if request.param == "monitor_domains":
        return CONFIG
    fixture = {"faceb0ok.com": {"A": [{"values": ["192.0.2.1"], "ttl": 300}]}}
    return config_copy(tmp_path, {"monitor_domains": None,
                                  "resolver_fixture": ("fixture.json", json.dumps(fixture))})


class TestOnePass:
    STAGES = [(ingest, "build_domain_table"), (ingest, "load_suffix_rules"),
              (squatgen, "build_index"), (classifier, "cluster_bulk"),
              (lifecycle, "load_timestamp_sources"), (classifier, "classify")]

    def test_report_matches_separate_commands(self, pipeline_config, tmp_path, capsys):
        report, apart = tmp_path / "report", tmp_path / "apart"
        assert main(["report", "--config", pipeline_config, "--out-dir", str(report)]) == 0
        printed = capsys.readouterr().out
        for command in ("ingest", "classify", "lifecycle", "monitor"):
            assert main([command, "--config", pipeline_config, "--out-dir", str(apart)]) == 0
        written = {p.name: p.read_bytes() for p in report.iterdir()}
        assert written == {p.name: p.read_bytes() for p in apart.iterdir()}
        # and the same lines, in the order of the commands
        assert printed == capsys.readouterr().out

    def test_report_computes_each_stage_once(self, pipeline_config, tmp_path, monkeypatch):
        calls: Counter = Counter()
        for module, name in self.STAGES:
            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        assert main(["report", "--config", pipeline_config, "--out-dir", str(tmp_path / "out")]) == 0
        # one pass classifies each table record once, for every stage
        records = len((tmp_path / "out" / "domains.jsonl").read_text().splitlines())
        assert calls == {name: records if name == "classify" else 1 for _, name in self.STAGES}


@pytest.mark.parametrize("command, absent", [
    ("monitor", ["phishlife.classifier", "phishlife.lifecycle", "phishlife.squatgen"]),
    ("classify", ["phishlife.dnsmon", "phishlife.lifecycle"]),
    ("ingest", ["phishlife.classifier", "phishlife.dnsmon", "phishlife.lifecycle",
                "phishlife.squatgen"]),
    ("lifecycle", ["phishlife.dnsmon"]),
])
def test_command_imports_only_its_own_modules(command, absent, tmp_path):
    # a fresh interpreter, so that no other test's imports count
    script = ("import json, sys\n"
              "from phishlife.cli import main\n"
              f"code = main([{command!r}, '--config', {CONFIG!r}, '--out-dir', {str(tmp_path)!r}])\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and "phishlife.cli" in modules
    assert [m for m in absent if m in modules] == []


MONITOR_KEYS = ["vantage_config", "resolver_fixture", "monitor_domains", "monitor_interval_minutes",
                "monitor_duration_minutes", "monitor_start", "rrtypes"]


@pytest.mark.parametrize("command, dropped, written", [
    ("ingest", [k for k in json.loads((DATA / "config.json").read_text())
                if k not in ("feeds", "suffix_rules")], ["domains.jsonl"]),
    ("classify", ["timestamp_sources", "vantage_config", "resolver_fixture"],
     ["classification.csv", "classification.jsonl", "flag_summary.csv", "registrar_summary.csv"]),
    ("lifecycle", MONITOR_KEYS,
     ["lifecycle.csv", *(f"agg_{metric}_{group}.csv" for metric, group in lifecycle.AGGREGATES)]),
])
def test_command_needs_only_its_own_config_keys(command, dropped, written, tmp_path, capsys):
    # tests/data/config.json without the keys the command does not read
    config = config_copy(tmp_path, dict.fromkeys(dropped))
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(written)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv", [
    ["monitor", "--config", CONFIG],
    ["ingest", "--config", CONFIG, "--min-cluster-size", "1"],  # exits 2
    ["monitor", "--no-such-flag"],  # argparse exits
], ids=["ok", "config-error", "usage-error"])
def test_main_restores_the_collector_and_registers_no_exit_hook(argv, enabled, tmp_path,
                                                                monkeypatch, capsys):
    # the collector is off while a command runs, as the caller had it after,
    # and only main run as the program freezes the heap at exit
    during, hooks, load_config = [], [], cli.load_config
    monkeypatch.setattr(cli.atexit, "register", hooks.append)
    monkeypatch.setattr(cli, "load_config",
                        lambda *args: during.append(gc.isenabled()) or load_config(*args))
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.suppress(SystemExit):
            main([*argv, "--out-dir", str(tmp_path)])
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    assert hooks == [] and during == ([] if argv[1] == "--no-such-flag" else [False])


def test_main_run_as_the_program_freezes_the_heap_at_exit(tmp_path, monkeypatch, capsys):
    hooks = []
    monkeypatch.setattr(cli.atexit, "register", hooks.append)
    monkeypatch.setattr(sys, "argv", ["phishlife", "monitor", "--config", CONFIG,
                                      "--out-dir", str(tmp_path)])
    assert main() == 0
    assert hooks == [gc.freeze] and gc.isenabled()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["report", "--config", CONFIG],
    ["squatgen", "dump", "--brand-domain", "example.com"],
], ids=["report", "squatgen-dump"])
def test_closed_stdout_ends_the_run_cleanly(argv, unbuffered, tmp_path):
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"

    def run(stdout, out_dir: Path) -> subprocess.CompletedProcess:
        extra = ["--out-dir", str(out_dir)] if argv[0] == "report" else []
        return subprocess.run([sys.executable, "-m", "phishlife.cli", *argv, *extra],
                              stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)

    # stdout is a pipe whose reader has gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run(write_end, tmp_path / "closed")
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")  # no traceback, no "Exception ignored"
    if argv[0] == "report":
        assert run(subprocess.DEVNULL, tmp_path / "normal").returncode == 0
        names = sorted(os.listdir(tmp_path / "normal"))
        assert sorted(os.listdir(tmp_path / "closed")) == names and len(names) == 20
        for name in names:
            assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "normal" / name).read_bytes()


DUPLICATE_VANTAGES = [{"id": "v1", "resolver_address": "192.0.2.1:53"},
                      {"id": "v1", "resolver_address": "192.0.2.2:53"}]


VANTAGE = {"id": "v1", "resolver_address": "192.0.2.1:53", "region_label": ""}


def vantage_file(address: object) -> tuple[str, str]:
    return "vantages.json", json.dumps([{"id": "v1", "resolver_address": address}])


def bad_input(changes, command="monitor", out_dir="out", *, id):
    """One case: config changes, the command run, and --out-dir under tmp_path."""
    return pytest.param(changes, command, out_dir, id=id)


@pytest.mark.parametrize("changes, command, out_dir", [
    bad_input({"max_edit_distance": "2"}, id="string_for_int"),
    bad_input({"brand_top_n": True}, id="bool_for_int"),
    bad_input({"rrtypes": "A,NS"}, id="string_for_list"),
    *[bad_input({"rrtypes": ["A", "FOO"]}, command, id=f"unknown_rrtype_{command}")
      for command in ("ingest", "classify", "monitor", "lifecycle", "report")],
    bad_input({"rrtypes": []}, id="no_rrtypes"),
    bad_input({"rrtypes": ["A", "a"]}, id="repeated_rrtype"),
    bad_input({"feeds": [{"format": "lines"}]}, id="feed_without_path"),
    bad_input({"feeds": [{"path": str(DATA / "corpus40_feed.tsv"), "format": "xml"}]}, "ingest",
              id="unknown_feed_format"),
    bad_input({"feeds": []}, "ingest", id="no_feeds"),
    bad_input({"suffix_rules": None}, "ingest", id="missing_suffix_rules"),
    bad_input({"timestamp_sources": None}, "lifecycle", id="missing_timestamp_sources"),
    bad_input({"vantage_config": None}, id="missing_vantage_config"),
    bad_input({"monitor_start": "garbage"}, id="monitor_start_garbage"),
    bad_input(None, id="top_level_array"),
    bad_input({"vantage_config": ("vantages.json", json.dumps(DUPLICATE_VANTAGES))},
              id="duplicate_vantage_id"),
    bad_input({"vantage_config": vantage_file("127.0.0.1:abc")}, id="non_integer_resolver_port"),
    bad_input({"vantage_config": vantage_file("127.0.0.1:70000")},
              id="resolver_port_out_of_range"),
    bad_input({"vantage_config": vantage_file(5)}, id="non_string_resolver_address"),
    bad_input({"vantage_config": vantage_file(":53")}, id="empty_resolver_host"),
    bad_input({"vantage_config": vantage_file("1.2.3.4:53:1")}, id="colons_in_non_ipv6_host"),
    bad_input({"resolver_fixture": ("fixture.json", '{"flux.top": {')},
              id="malformed_resolver_fixture"),
    bad_input({"resolver_fixture": ("fixture.json", '{"flux.top": {"A": [5]}}')},
              id="malformed_resolver_fixture_step"),
    bad_input({"resolver_fixture": ("fixture.json", '{"flux.top": {"FOO": []}}')},
              id="fixture_key_not_an_rrtype"),
    bad_input({"resolver_fixture": ("fixture.json", '{"flux..top": {}}')},
              id="fixture_key_not_a_host"),
    bad_input({"resolver_fixture": ("fixture.json", '{"flux.top": {}, "Flux.TOP": {}}')},
              id="fixture_keys_normalize_alike"),
    bad_input({"concurrency": 64}, id="removed_key"),
    bad_input({"max_edit_distnace": 3}, id="misspelt_key"),
    bad_input({"vantage_config": ("vantages.json", "[]")}, id="no_vantages"),
    bad_input({"vantage_config": ("vantages.json", json.dumps([{**VANTAGE, "id": 5}]))},
              id="non_string_vantage_id"),
    bad_input({"vantage_config": ("vantages.json", json.dumps([{**VANTAGE, "region_label": 5}]))},
              id="non_string_region_label"),
    bad_input({"brand_catalog": ("brands.csv", "rank,brand_id,canonical_domain\n"
                                 "2,usps,usps.com\n1,chase,chase.com\n")},
              "classify", id="brand_ranks_not_increasing"),
    bad_input({"brand_catalog": ("brands.csv", "rank,brand_id,canonical_domain\n"
                                 "1,,example.com\n2,usps,usps.com\n")},
              "classify", id="empty_brand_id"),
    bad_input({"brand_catalog": ("brands.csv", "rank,brand_id,canonical_domain\n"
                                 "1,xxxx,aab.com\n2,yyyy,abb.com\n3,xxxx,zzz.com\n")},
              "classify", id="repeated_brand_id"),
    bad_input({"registration_log": ("log.csv", "registrable,registered_at,registrar\n"
                                    "bad..com,2024-05-01T10:00:00Z,alibaba\n")},
              "classify", id="registration_log_name_not_a_host"),
    bad_input({}, out_dir="config.json", id="out_dir_is_a_file"),
    bad_input({"bulk_window_hours": 1e400}, "classify", id="bulk_window_hours_1e400"),
    bad_input({"bulk_window_hours": 1e300}, "classify", id="bulk_window_hours_1e300"),
    bad_input({"bulk_window_hours": 1e-4}, "classify", id="bulk_window_hours_under_a_second"),
    bad_input({"bulk_window_hours": float("nan")}, "classify", id="bulk_window_hours_nan"),
    bad_input({"monitor_interval_minutes": float("inf")}, id="monitor_interval_infinity"),
    bad_input({"monitor_interval_minutes": 1e-300}, id="monitor_interval_under_a_microsecond"),
    bad_input({"monitor_interval_minutes": 1e10}, id="monitor_interval_past_year_9999"),
    bad_input({"monitor_duration_minutes": 1e300}, id="monitor_duration_1e300"),
    bad_input({"monitor_duration_minutes": 1e10}, id="monitor_duration_past_year_9999"),
    bad_input({"backoff_base_ms": 10**400}, id="backoff_base_past_float_range"),
])
def test_bad_config_input_exits_2(changes, command, out_dir, tmp_path, capsys):
    if changes is None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps([CONFIG]))
    else:
        config = config_copy(tmp_path, changes)
    code = main([command, "--config", str(config), "--out-dir", str(tmp_path / out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / out_dir / "snapshots.jsonl").exists()  # the store is not touched


@pytest.mark.parametrize("text", ["{}", "[1, 2]"], ids=["object", "array_of_numbers"])
def test_json_feed_without_a_record_exits_2(text, tmp_path, capsys):
    (tmp_path / "feed.json").write_text(text)
    config = config_copy(tmp_path, {"feeds": [{"path": "feed.json", "format": "json"}]})
    code = main(["ingest", "--config", config, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "feed.json" in err, err


# (command, config changes, and the (file, text) written beside the config),
# with NEST where the nested value goes
NESTED_INPUTS = {
    "config_value": ("ingest", {"max_edit_distance": "NEST"}, None),
    "feed_entry": ("ingest", {"feeds": ["NEST"]}, None),
    "feed_url": ("ingest", {"feeds": ["feed.json"]},
                 ("feed.json", '[{"url": NEST, "detected_at": "2024-06-01", "source": "a"}]')),
    "fixture_step": ("monitor", {"resolver_fixture": "fixture.json"},
                     ("fixture.json", '{"a.com": {"A": [NEST]}}')),
    "vantage_id": ("monitor", {"vantage_config": "vantages.json"},
                   ("vantages.json", '[{"id": NEST, "resolver_address": "::1"}]')),
    "resolver_address": ("monitor", {"vantage_config": "vantages.json"},
                         ("vantages.json", '[{"id": "v", "resolver_address": NEST}]')),
}


@pytest.mark.parametrize("case", NESTED_INPUTS)
def test_value_nested_near_the_decoder_limit_exits_2(case, tmp_path, capsys):
    # json.loads decodes a value nested a little less deep than its limit,
    # which a message that quotes the value in full would nest past; at each
    # depth around that limit, decoding or checking the value fails with
    # exit 2 and one line
    command, changes, written = NESTED_INPUTS[case]
    config = Path(config_copy(tmp_path, changes))
    template = config.read_text()
    for depth in range(900, 1001):
        nest = "[" * depth + "]" * depth
        config.write_text(template.replace('"NEST"', nest))
        if written:
            name, text = written
            (tmp_path / name).write_text(text.replace("NEST", nest))
        code = main([command, "--config", str(config), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, depth
        assert err.startswith("error: ") and err.count("\n") == 1, (depth, err)


# blank lines and comment lines, indented ones too, as a line file may hold them
COMMENT_LINES = ["", "# a comment", "   ", "  # an indented note", "\t# a tabbed note"]


def monitor_outputs(domains: Path) -> tuple[int, dict[str, bytes]]:
    """monitor's exit code and outputs for a monitor_domains file, run beside it."""
    config = config_copy(domains.parent, {"monitor_domains": str(domains)})
    out = domains.parent / "out"
    code = main(["monitor", "--config", config, "--out-dir", str(out)])
    return code, {p.name: p.read_bytes() for p in out.iterdir()}


# each line file, by its file in tests/data, with what loads it
LINE_FILES = {
    "corpus40_feed.tsv": ingest.load_feed,  # its result holds the count of skipped lines
    "allowlist.csv": classifier.load_allowlist,
    "words.txt": classifier.load_word_list,
    "monitor_domains.txt": monitor_outputs,
}


@pytest.mark.parametrize("name", sorted(LINE_FILES))
def test_line_files_skip_blank_and_comment_lines(name, tmp_path):
    lines = (DATA / name).read_text().splitlines()
    commented = tmp_path / "commented" / name
    original = tmp_path / "original" / name
    for path, text in [(commented, COMMENT_LINES + lines[:2] + COMMENT_LINES + lines[2:]),
                       (original, lines)]:
        path.parent.mkdir()
        path.write_text("\n".join(text) + "\n")
    loaded = LINE_FILES[name](commented)
    assert loaded == LINE_FILES[name](original)
    if name == "monitor_domains.txt":
        assert loaded[0] == 0
    if name == "words.txt":
        assert not any("#" in word for word in loaded)


# every input a config key names; the snapshot store is left out, because
# its failures exit 4
INPUT_KEYS = ["feeds", "suffix_rules", "allowlist", "brand_catalog", "word_list",
              "registration_log", "timestamp_sources", "vantage_config",
              "resolver_fixture", "monitor_domains"]
CSV_KEYS = ["brand_catalog", "registration_log", "timestamp_sources"]


def write_unreadable(path: Path, kind: str, key: str) -> None:
    if kind == "directory":
        path.mkdir()
    elif kind == "non_utf8":
        path.write_bytes(b"\xff\xfe not utf-8\n")
    else:  # the right header, then a field one character over the csv limit
        name = json.loads((DATA / "config.json").read_text())[key]
        header = (DATA / name).read_text().split("\n", 1)[0]
        path.write_text(f"{header}\n{'x' * (csv.field_size_limit() + 1)},,\n")


@pytest.mark.parametrize("key,kind", [
    *[(key, kind) for key in INPUT_KEYS for kind in ("non_utf8", "directory")],
    *[(key, "csv_field_limit") for key in CSV_KEYS],
])
def test_unreadable_input_exits_2(key, kind, tmp_path, capsys):
    bad = tmp_path / "bad_input"
    write_unreadable(bad, kind, key)
    value = [{"path": str(bad), "format": "lines"}] if key == "feeds" else str(bad)
    config = config_copy(tmp_path, {key: value})
    code = main(["report", "--config", config, "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err, err


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_failed_output_write_exits_4(call, tmp_path, capsys, monkeypatch):
    def no_space(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, call, no_space)
    out = tmp_path / "out"
    code = main(["classify", "--config", CONFIG, "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("output failure: ") and err.count("\n") == 1, err
    assert "classification.csv" in err and "No space left on device" in err, err
    assert list(out.iterdir()) == []  # the temp file is gone too


def test_failed_rewrite_keeps_the_old_outputs(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["classify", "--config", CONFIG, "--out-dir", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def no_space(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", no_space)
    capsys.readouterr()
    assert main(["classify", "--config", CONFIG, "--out-dir", str(out)]) == 4
    assert "classification.csv" in capsys.readouterr().err
    # the first run's files are all there, byte for byte, and no temp file is left
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_error_while_rows_are_made_leaves_no_file(tmp_path, monkeypatch):
    # a CSV's rows are made as it is written: an exception from the third
    # delay formatted (the second lifecycle row's) escapes main, and takes
    # the temp file that already holds the header and first row with it
    out = tmp_path / "out"
    calls = Counter()
    fmt_days = cli._fmt_days

    def failing(value):
        calls["n"] += 1
        if calls["n"] == 3:
            assert [p.name for p in out.glob("*.tmp")] == [f"lifecycle.csv.{os.getpid()}.tmp"]
            raise RuntimeError("row failed")
        return fmt_days(value)

    monkeypatch.setattr(cli, "_fmt_days", failing)
    with pytest.raises(RuntimeError, match="row failed"):
        main(["lifecycle", "--config", CONFIG, "--out-dir", str(out)])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, named", [("lifecycle", "timestamp sources"),
                                             ("report", "allowlist")])
def test_bad_input_fails_before_any_output(command, named, tmp_path, capsys):
    # the allowlist and the timestamp sources are both missing: each command
    # names the one it has always read first, and writes and prints nothing
    config = config_copy(tmp_path, {"allowlist": str(tmp_path / "no-allowlist.csv"),
                                    "timestamp_sources": str(tmp_path / "no-sources.csv")})
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot read {named} ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("failure", ["row", "fsync"])
def test_failed_report_keeps_every_earlier_output(failure, tmp_path, capsys, monkeypatch):
    # report holds the row files of ingest, classify and lifecycle open at
    # once. An exception from the lifecycle stage's second row (the third
    # delay formatted), or a full disk at the first fsync, removes every temp
    # file and leaves each output of the earlier run byte for byte
    out = tmp_path / "out"
    argv = ["report", "--config", CONFIG, "--out-dir", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    if failure == "row":
        calls = Counter()
        fmt_days = cli._fmt_days

        def failing(value):
            calls["n"] += 1
            if calls["n"] == 3:
                row_files = ["classification.csv", "classification.jsonl", "domains.jsonl",
                             "lifecycle.csv"]
                assert (sorted(p.name for p in out.glob("*.tmp"))
                        == [f"{name}.{os.getpid()}.tmp" for name in row_files])
                raise RuntimeError("row failed")
            return fmt_days(value)

        monkeypatch.setattr(cli, "_fmt_days", failing)
        with pytest.raises(RuntimeError, match="row failed"):
            main(argv)
    else:
        def no_space(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", no_space)
        capsys.readouterr()
        assert main(argv) == 4
        assert "domains.jsonl" in capsys.readouterr().err
    assert not list(out.glob("*.tmp"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# (command, config key, data file, field separator, fields per line, has a header row)
MUTATED_INPUTS = [
    ("lifecycle", "timestamp_sources", "timestamp_sources.csv", b",", 3, True),
    ("ingest", "feeds", "corpus40_feed.tsv", b"\t", 4, False),
    # a JSON line's fields split at commas
    ("ingest", "feeds", "feed_b.json", b",", 3, False),
    # the monitor's inputs; a domain's fields split at dots, and the prior
    # snapshot store is the one a monitor run on tests/data writes
    ("monitor", "resolver_fixture", "resolver_fixture.json", b",", 3, False),
    ("monitor", "vantage_config", "vantages.json", b",", 3, False),
    ("monitor", "snapshot_store", "snapshots.jsonl", b",", 3, False),
    ("monitor", "monitor_domains", "monitor_domains.txt", b".", 2, False),
    # classify's reference data; a suffix rule's fields split at dots, and a word is one field
    ("classify", "suffix_rules", "suffixes.dat", b".", 2, False),
    ("classify", "allowlist", "allowlist.csv", b",", 2, False),
    ("classify", "brand_catalog", "brands.csv", b",", 3, True),
    ("classify", "word_list", "words.txt", b",", 1, False),
    ("classify", "registration_log", "registration_log.csv", b",", 3, True),
]

# what a JSON value's type is swapped for: one value of each JSON type
JSON_VALUES = [None, True, 7, 2.5, "x", [], {}]
# a value json.loads cannot decode, as Python nests no deeper than about 1,000 calls
DEEP = b"[" * 1000 + b"]" * 1000
# a string in place of a value, that the JSON text of the document then holds as DEEP
DEEP_MARK = "\0deep\0"


def json_values(value, path=()):
    """(path, value) of every value in a loaded JSON document, the root's first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_values(item, (*path, key))


def json_replaced(doc, path, new):
    """``doc`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    doc[path[0]] = json_replaced(doc[path[0]], path[1:], new)
    return doc


def json_text(doc) -> bytes:
    """``doc`` as JSON, with DEEP where it holds DEEP_MARK; a lone surrogate is escaped."""
    return json.dumps(doc).encode().replace(json.dumps(DEEP_MARK).encode(), DEEP)


@st.composite
def json_mutated(draw, doc, kind: str, whole: bool):
    """``doc`` with one value mutated as ``kind`` says, as JSON text; ``whole``
    makes a deep_nest replace the whole document."""
    path, old = draw(st.sampled_from([
        (path, value) for path, value in json_values(doc)
        if kind == "type_swap" or kind == "deep_nest" and not (whole and path)
        or kind == "lone_surrogate" and isinstance(value, str)
        or kind in ("empty", "drop_field") and isinstance(value, (list, dict)) and value]))
    if kind == "drop_field":
        del old[draw(st.sampled_from(list(old) if isinstance(old, dict) else range(len(old))))]
        return json_text(doc)
    if kind == "type_swap":
        new = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)]))
    elif kind == "lone_surrogate":
        at = draw(st.integers(0, len(old)))
        new = old[:at] + "\ud800" + old[at:]
    else:
        new = DEEP_MARK if kind == "deep_nest" else type(old)()
    return json_text(json_replaced(doc, path, new))


@st.composite
def mutated(draw, data: bytes, sep: bytes, fields: int, header: bool, json_kind: str) -> bytes:
    """``data`` with one drawn mutation.

    A feed has no header row, so swapping two header names swaps those two
    fields on every line, which is what a swapped header would mean. A JSON
    document (``json_kind`` "document"), or one line of a JSON-lines file
    ("lines"), may also have one value swapped for a value of another type,
    one array or object emptied, one key of an object or element of an array
    dropped, one value replaced by an array nested 1,000 deep, or one string
    given a lone surrogate. In a JSON-lines file the deep array replaces a line.
    """
    json_kinds = ["type_swap", "empty", "drop_field", "deep_nest", "lone_surrogate"]
    kind = draw(st.sampled_from(["truncate", "non_utf8", "nul", "drop_column", "crlf"]
                                + ["swap_header"] * (fields > 1) + json_kinds * bool(json_kind)))
    if kind in json_kinds:
        if json_kind == "document":
            return draw(json_mutated(json.loads(data), kind, False))
        lines = data.split(b"\n")
        at = draw(st.sampled_from([k for k, line in enumerate(lines) if line]))
        lines[at] = draw(json_mutated(json.loads(lines[at]), kind, True))
        return b"\n".join(lines)
    at = draw(st.integers(0, len(data)))
    if kind == "truncate":
        return data[:at]
    if kind in ("non_utf8", "nul"):
        return data[:at] + (b"\xff" if kind == "non_utf8" else b"\0") + data[at:]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    lines = [line.split(sep) for line in data.split(b"\n")]
    if kind == "drop_column":
        column = draw(st.integers(0, fields - 1))
        lines = [[f for k, f in enumerate(line) if k != column] for line in lines]
    else:
        i, j = draw(st.lists(st.integers(0, fields - 1), min_size=2, max_size=2, unique=True))
        for line in lines[:1] if header else lines:
            if len(line) > max(i, j):
                line[i], line[j] = line[j], line[i]
    return b"\n".join(sep.join(line) for line in lines)


def input_bytes(name: str) -> bytes:
    """A data file's bytes; the snapshot store is written by a monitor run on tests/data."""
    if name != "snapshots.jsonl":
        return (DATA / name).read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["monitor", "--config", CONFIG, "--out-dir", tmp]) == 0
        return (Path(tmp) / name).read_bytes()


@pytest.mark.parametrize("command,key,name,sep,fields,header", MUTATED_INPUTS,
                         ids=[m[2] for m in MUTATED_INPUTS])
def test_mutated_input_keeps_exit_code_contract(command, key, name, sep, fields, header,
                                                monkeypatch):
    # each example runs main in-process, under the row's command and then
    # under report, which reads every input, each into an out-dir of its
    # own: it returns 0, 2 or 3, or 4 for a bad snapshot store, writes at
    # most one stderr line and lets no exception out. Stdout is a strict
    # UTF-8 stream, as a console's or a pipe's is, so printing a string
    # that cannot be encoded fails. Outputs are not fsynced: removing
    # fsynced files took about 0.3 s an example on ext4, and what this test
    # checks does not depend on durability.
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    data = input_bytes(name)
    json_kind = {".json": "document", ".jsonl": "lines"}.get(Path(name).suffix, "")
    codes = (0, 2, 3, 4) if key == "snapshot_store" else (0, 2, 3)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(mutated(data, sep, fields, header, json_kind))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / name).write_bytes(text)
            config = config_copy(tmp, {key: [str(tmp / name)] if key == "feeds" else name})
            for run in (command, "report"):
                out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([run, "--config", config, "--out-dir", str(tmp / run)])
                out.flush()
                assert code in codes, run
                assert err.getvalue().count("\n") <= 1, (run, err.getvalue())
                assert "Traceback" not in out.buffer.getvalue().decode() + err.getvalue()

    check()
