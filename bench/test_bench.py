"""Tests of the benchmark itself: structure and counts, never timings.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from responder import Responder  # noqa: E402

from phishlife import dnsmon, ingest  # noqa: E402
from phishlife.dnswire import UdpResolver  # noqa: E402


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(tmp_path, workload):
    a = gen.generate(workload, 7, tmp_path / "a")
    b = gen.generate(workload, 7, tmp_path / "b")
    c = gen.generate(workload, 8, tmp_path / "c")
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert a["ops"] > 0


def test_suffix_file_is_psl_sized(tmp_path):
    gen.generate("report_mixed", 1, tmp_path)
    rules = ingest.load_suffix_rules(tmp_path / "suffixes.dat")
    total = len(rules.exact) + len(rules.wildcard) + len(rules.exception)
    assert total >= gen.SUFFIX_RULES - 10
    assert rules.wildcard and rules.exception


def test_planted_ground_truth_splits_as_planned(tmp_path):
    truth = gen.generate("report_mixed", 3, tmp_path)
    rules = ingest.load_suffix_rules(tmp_path / "suffixes.dat")
    for names in truth["flags"].values():
        assert names
        for name in names:
            assert ingest.split_registrable(name, rules).registrable == name


def test_tracer_records_nested_spans_and_restores():
    original_split = ingest.split_registrable
    original_load = dnsmon.SnapshotStore.load
    rules = ingest.SuffixRules(frozenset({"com"}), frozenset(), frozenset())
    entries = [ingest.FeedEntry(f"http://{h}/", datetime(2024, 1, 1, tzinfo=timezone.utc), "apwg")
               for h in ("a.example.com", "b.example.com", "x.org")]
    with tracer.Tracer("t") as t:
        assert ingest.split_registrable is not original_split
        table = ingest.build_domain_table(entries, rules)
    assert ingest.split_registrable is original_split
    assert dnsmon.SnapshotStore.load is original_load
    assert [r.registrable for r in table.records] == ["example.com", "x.org"]

    dump = t.dump()
    by_name: dict[str, list] = {}
    for span in dump["spans"]:
        by_name.setdefault(span[2], []).append(span)
    (root,) = by_name["ingest.build_domain_table"]
    assert root[1] == -1
    assert len(by_name["ingest.parse_url"]) == 3
    assert all(s[1] == root[0] for s in by_name["ingest.split_registrable"])
    # x.org has no listed suffix: split_registrable falls back, it does not raise
    assert len(by_name["ingest.split_registrable"]) == 3
    assert dump["counts"]["ingest.normalize_host.calls"] == 3

    metrics, repeat = tracer.layer_metrics([dump, dump], max_edit_distance=2,
                                           lookups_per_snapshot=10)
    assert repeat
    assert metrics["ingest.build_domain_table.calls"] == 1
    assert metrics["classifier.cluster_bulk.calls"] == 0


def test_layer_metrics_report_self_time():
    dump = {"counts": {}, "spans": [
        [0, -1, "ingest.build_domain_table", 0.0, 10.0, ""],
        [1, 0, "ingest.split_registrable", 1.0, 4.0, ""],
        [2, 0, "ingest.split_registrable", 5.0, 6.0, ""],
    ]}
    metrics, _ = tracer.layer_metrics([dump], 2, 10)
    assert metrics["ingest.build_domain_table_s"] == pytest.approx(6.0)
    assert metrics["ingest.split_registrable_us"] == pytest.approx(2.0e6)


def test_responder_plants_truncation_servfail_and_nxdomain():
    zone = {name: {"A": {"values": ["192.0.2.1"], "ttl": 30},
                   "MX": {"values": ["10 mx.example"], "ttl": 300}}
            for name in ("tc.example", "flaky.example", "plain.example")}
    roles = {"truncated": ["tc.example"], "servfail_first": ["flaky.example"]}
    with Responder(zone, roles) as server:
        vantage = dnsmon.VantagePoint("v", f"127.0.0.1:{server.port}", "")
        resolver = UdpResolver(timeout=2.0)
        assert resolver.query(vantage, "tc.example", "A").values == ("192.0.2.1",)
        with pytest.raises(dnsmon.ServerFailure):
            resolver.query(vantage, "flaky.example", "MX")
        assert resolver.query(vantage, "flaky.example", "MX").values == ("10 mx.example",)
        with pytest.raises(dnsmon.NxDomain):
            resolver.query(vantage, "missing.example", "A")
        assert resolver.query(vantage, "plain.example", "AAAA") is None
        seen = server.take_counters()
    assert seen["datagrams"] == 5
    assert seen["tcp_connections"] == 1
    assert seen["replies_truncated"] == 1
    assert seen["replies_servfail"] == 1
    assert seen["replies_nxdomain"] == 1
    assert seen["replies_noerror"] == 3             # 2 UDP + 1 over TCP
    assert 1 <= seen["client_ports"] <= 5


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert set(json.loads((BENCH / "digests.json").read_text())) == set(gen.WORKLOADS)
    assert set(checks.CHECKS) == set(gen.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "report_mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
