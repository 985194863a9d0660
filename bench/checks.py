"""Output checks for one benchmark command.

Each check compares a command's outputs with the ground truth the
generator planted, and returns the problems it found (empty when the
outputs are right) and the number of operations that failed inside an
otherwise complete run: DNS lookups whose snapshot records an error the
fixture did not plant. ``digest`` hashes the outputs that must be
byte-identical across runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

# outputs without wall-clock timestamps; live snapshots carry real times
LIVE_DETERMINISTIC = ("ttl_summary.csv", "ttl_buckets.csv")


def digest(workload: str, out: Path) -> str:
    names = LIVE_DETERMINISTIC if workload == "monitor_live" else \
        sorted(p.name for p in out.iterdir() if p.is_file())
    h = hashlib.sha256()
    for name in names:
        data = (out / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _snapshots(out: Path) -> list[dict]:
    with open(out / "snapshots.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _check_flags(truth: dict, out: Path) -> list[str]:
    flags = {r["registrable"]: set(r["flags"].split(";")) for r in _rows(out / "classification.csv")}
    problems = []
    for flag, planted in truth["flags"].items():
        missing = [d for d in planted if flag not in flags.get(d, ())]
        if missing:
            problems.append(f"{flag} missing on {len(missing)} of {len(planted)} planted "
                            f"domains, e.g. {missing[0]}")
    return problems


def check_report(truth: dict, out: Path, stdout: str) -> tuple[list[str], int]:
    problems = _check_flags(truth, out)
    m = re.search(r"\((\d+) URLs, (\d+) skipped\)", stdout)
    if m is None:
        problems.append("ingest summary line missing from stdout")
    elif (int(m[1]), int(m[2])) != (truth["ops"], truth["skipped_urls"]):
        problems.append(f"ingest read {m[1]} URLs and skipped {m[2]}; planted "
                        f"{truth['ops']} URLs of which {truth['skipped_urls']} malformed")
    return problems, 0


def check_classify(truth: dict, out: Path, stdout: str) -> tuple[list[str], int]:
    problems = _check_flags(truth, out)
    if not _rows(out / "registrar_summary.csv"):
        problems.append("registrar_summary.csv is empty")
    return problems, 0


def _check_snapshot_count(truth: dict, snaps: list[dict]) -> list[str]:
    expected = truth["domains"] * 2 * truth["ticks"]
    if len(snaps) != expected:
        return [f"{len(snaps)} snapshots, expected {expected}"]
    return []


def check_monitor_sim(truth: dict, out: Path, stdout: str) -> tuple[list[str], int]:
    roles = {k: set(v) for k, v in truth["roles"].items()}
    snaps = _snapshots(out)
    problems = _check_snapshot_count(truth, snaps)
    nx = roles["nxdomain"] | roles["unscripted"]
    wrong: dict[str, str] = {}
    failed = 0
    for s in snaps:
        dom = s["registrable"]
        if dom in roles["servfail"]:
            if s["errors"] != ["A:servfail"] or s["attempts"] != 5:
                wrong.setdefault("servfail", dom)
            continue
        failed += len(s["errors"])
        if (dom in nx) != s["nxdomain"]:
            wrong.setdefault("nxdomain", dom)
        if dom in roles["flaky"] and s["attempts"] < 2:
            wrong.setdefault("flaky", dom)
    problems += [f"{role} domain {dom} has the wrong snapshot" for role, dom in wrong.items()]
    changed = {r["registrable"] for r in _rows(out / "record_changes.csv")}
    if not roles["rotating"] <= changed:
        problems.append(f"{len(roles['rotating'] - changed)} rotating domains show no change")
    buckets = {r["metric"]: r["value"] for r in _rows(out / "ttl_buckets.csv")}
    if int(buckets["under_60s"]) != len(roles["fastflux"]):
        problems.append(f"under_60s = {buckets['under_60s']}, planted {len(roles['fastflux'])}")
    return problems, failed


def check_monitor_live(truth: dict, out: Path, stdout: str) -> tuple[list[str], int]:
    snaps = _snapshots(out)
    problems = _check_snapshot_count(truth, snaps)
    nx = set(truth["roles"]["nxdomain"])
    zone = truth["zone"]
    wrong: dict[str, str] = {}
    failed = 0
    for s in snaps:
        dom = s["registrable"]
        failed += len(s["errors"])
        if (dom in nx) != s["nxdomain"]:
            wrong.setdefault("nxdomain", dom)
        elif dom not in nx:
            got = {r["rrtype"]: r["values"] for r in s["rrsets"]}
            if got != {t: rr["values"] for t, rr in zone[dom].items()}:
                wrong.setdefault("answers", dom)
    problems += [f"{what} wrong for {dom}" for what, dom in wrong.items()]
    return problems, failed


CHECKS = {
    "report_mixed": check_report,
    "bulk_registration": check_classify,
    "monitor_sim": check_monitor_sim,
    "monitor_live": check_monitor_live,
}
