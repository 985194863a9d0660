"""Traced runner: per-layer spans and counts around a phishlife command.

Run as ``python3 bench/tracer.py SPANS_JSON -- <phishlife argv>`` with
``src`` on ``PYTHONPATH``. It wraps the public functions of each
phishlife module, plus the methods listed in ``METHODS``, calls
``phishlife.cli.main`` with the given argv, restores every wrapped
attribute, writes the spans and counts to SPANS_JSON and exits with
main's return code.

A span is ``(id, parent id, name, start, end, exception name)`` with times
from ``time.perf_counter``; parents are tracked per thread, so the spans of
a worker thread start new roots. Spans stay in memory until the run ends.

``layer_metrics`` turns the files of one or more traced runs into the
per-layer metrics; it does not import phishlife.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("ingest", "squatgen", "classifier", "dnsmon", "dnswire", "lifecycle", "cli")

# Functions called once per rule, label, pair or record inside another traced
# function. They are counted, not spanned, so their time stays in the caller's
# self time and the tracer does not keep one span per call.
COUNTED = frozenset({
    "ingest.normalize_host",
    "squatgen.generate",
    "classifier.levenshtein",
    "classifier.prefilter",
    "dnsmon.backoff_delays",
    "dnsmon.diff_snapshots",
    "dnswire.encode_name",
    "dnswire.decode_name",
    "dnswire.build_query",
    "lifecycle.merge_registration",
    "lifecycle.detection_delay",
    "lifecycle.takedown_delay",
})

# (module, class, method, spanned?)
METHODS = (
    ("dnsmon", "ScriptedResolver", "query", True),
    ("dnsmon", "SnapshotStore", "append_many", True),
    ("dnsmon", "SnapshotStore", "load", True),
    ("dnswire", "UdpResolver", "query", True),
    ("dnswire", "UdpResolver", "_exchange_tcp", False),
)


class Tracer:
    """Installs wrappers, records spans and counts, and restores on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, name: str, fn, on_result=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            error = ""
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, error))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name: str, fn, on_result=None):
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            with lock:
                counts[name + ".calls"] += 1
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return wrapper

    def add(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    # ------------------------------------------------------------ install

    def _patch(self, target, attr: str, new) -> None:
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"phishlife.{m}") for m in MODULES}
        wrapped = {}
        for m, mod in mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{m}.{attr}"
                wrap = self.counted if name in COUNTED else self.spanned
                wrapped[obj] = wrap(name, obj, ON_RESULT.get(name))
        # rebind every module-level reference, aliases such as
        # ``classifier.squat_match`` included
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for m, cls_name, meth, spanned in METHODS:
            cls = getattr(mods[m], cls_name)
            name = f"{m}.{cls_name}.{meth}"
            original = cls.__dict__[meth]
            wrap = self.spanned if spanned else self.counted
            self._patch(cls, meth, wrap(name, original, ON_RESULT.get(name)))

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": sorted(self.spans), "counts": dict(self.counts)}


# ---------------------------------------------------------------- result hooks


def _on_build_index(tracer: Tracer, args, kwargs, index) -> None:
    tracer.maximum("squatgen.index_labels", len(index.by_label))


def _on_store_load(tracer: Tracer, args, kwargs, snapshots) -> None:
    tracer.add("dnsmon.snapshots", len(snapshots))


def _on_levenshtein(tracer: Tracer, args, kwargs, distance: int) -> None:
    tracer.add(f"classifier.levenshtein.distance.{min(distance, 9)}")


def _on_cluster_bulk(tracer: Tracer, args, kwargs, clusters) -> None:
    from datetime import timedelta
    from phishlife.classifier import _window_start

    log = args[0] if args else kwargs["log"]
    window = kwargs.get("window", args[1] if len(args) > 1 else timedelta(hours=24))
    buckets: Counter = Counter()
    for entry in log:
        buckets[(entry.registrar, _window_start(entry.registered_at, window))] += 1
    tracer.maximum("classifier.largest_bucket", max(buckets.values(), default=0))


def _on_write_atomic(tracer: Tracer, args, kwargs, _result) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.add("cli.bytes_written", len(text.encode("utf-8")))


ON_RESULT = {
    "squatgen.build_index": _on_build_index,
    "dnsmon.SnapshotStore.load": _on_store_load,
    "classifier.levenshtein": _on_levenshtein,
    "classifier.cluster_bulk": _on_cluster_bulk,
    "cli.write_atomic": _on_write_atomic,
}


# ---------------------------------------------------------------- analysis


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _one_run(dump: dict, max_edit_distance: int, lookups_per_snapshot: int) -> tuple[dict, dict]:
    """(counts, timing samples) of one traced run."""
    spans = dump["spans"]
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    errors: Counter = Counter()
    starts = defaultdict(list)
    durations = defaultdict(list)
    for sid, _, name, start, end, error in spans:
        calls[name] += 1
        self_s[name] += end - start - child[sid]
        total_s[name] += end - start
        starts[name].append(start)
        durations[name].append(end - start)
        if error:
            errors[f"{name}.{error}"] += 1
    counts = dump["counts"]

    def per_op(name: str, scale: float) -> float:
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    dist = {int(k.rsplit(".", 1)[1]): v for k, v in counts.items()
            if k.startswith("classifier.levenshtein.distance.")}
    pairs = sum(dist.values())
    hits = sum(v for d, v in dist.items() if d <= max_edit_distance)
    ticks = sorted(starts["dnsmon.SnapshotStore.append_many"])
    snapshots = counts.get("dnsmon.snapshots", 0)
    lookups = calls["dnsmon.collect_snapshot"] * lookups_per_snapshot
    queries = calls["dnsmon.ScriptedResolver.query"] + calls["dnswire.UdpResolver.query"]

    run_counts = {
        "ingest.build_domain_table.calls": calls["ingest.build_domain_table"],
        "ingest.load_suffix_rules.calls": calls["ingest.load_suffix_rules"],
        "ingest.load_feed.calls": calls["ingest.load_feed"],
        "squatgen.build_index.calls": calls["squatgen.build_index"],
        "squatgen.index_labels": counts.get("squatgen.index_labels", 0),
        "classifier.cluster_bulk.calls": calls["classifier.cluster_bulk"],
        "classifier.levenshtein.calls": counts.get("classifier.levenshtein.calls", 0),
        "classifier.largest_bucket": counts.get("classifier.largest_bucket", 0),
        "lifecycle.aggregate.calls": calls["lifecycle.aggregate"],
        "dnsmon.tick.samples": max(0, len(ticks) - 1),
        "dnsmon.snapshots": snapshots,
        "dnswire.query.calls": calls["dnswire.UdpResolver.query"],
        "dnswire.tcp_fallbacks": counts.get("dnswire.UdpResolver._exchange_tcp.calls", 0),
        "dnswire.timeouts": errors["dnswire.UdpResolver.query.QueryTimeout"],
        "cli.write_atomic.calls": calls["cli.write_atomic"],
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
    }
    ratios = {
        "classifier.pair_hit_ratio": hits / pairs if pairs else 0.0,
        "dnsmon.attempts_per_lookup": queries / lookups if lookups else 0.0,
    }
    run_counts.update(ratios)
    timings = {
        "ingest.split_registrable_us": per_op("ingest.split_registrable", 1e6),
        "ingest.parse_url_us": per_op("ingest.parse_url", 1e6),
        "ingest.build_domain_table_s": self_s["ingest.build_domain_table"],
        "ingest.load_suffix_rules_s": self_s["ingest.load_suffix_rules"],
        "squatgen.build_index_s": self_s["squatgen.build_index"],
        "squatgen.match_us": per_op("squatgen.match", 1e6),
        "classifier.match_brand_us": per_op("classifier.match_brand", 1e6),
        "classifier.is_random_looking_us": per_op("classifier.is_random_looking", 1e6),
        "classifier.classify_us": per_op("classifier.classify", 1e6),
        "classifier.cluster_bulk_s": self_s["classifier.cluster_bulk"],
        "lifecycle.load_timestamp_sources_s": self_s["lifecycle.load_timestamp_sources"],
        "lifecycle.merge_all_registrations_s": self_s["lifecycle.merge_all_registrations"],
        "lifecycle.build_lifecycle_records_s": self_s["lifecycle.build_lifecycle_records"],
        "lifecycle.aggregate_s": self_s["lifecycle.aggregate"],
        "dnsmon.collect_snapshot_us": per_op("dnsmon.collect_snapshot", 1e6),
        "dnsmon.query_us": per_op("dnsmon.ScriptedResolver.query", 1e6),
        "dnsmon.append_many_s": self_s["dnsmon.SnapshotStore.append_many"],
        "dnsmon.store_load_us": (self_s["dnsmon.SnapshotStore.load"] / snapshots * 1e6
                                 if snapshots else 0.0),
        "dnsmon.detect_changes_s": self_s["dnsmon.detect_changes"],
        "dnsmon.ttl_stats_s": self_s["dnsmon.ttl_stats"],
        "dnswire.parse_response_us": per_op("dnswire.parse_response", 1e6),
        # stage times are inclusive: everything the command does in that stage
        "cli.stage.ingest_s": total_s["cli.cmd_ingest"],
        "cli.stage.classify_s": total_s["cli.cmd_classify"],
        "cli.stage.lifecycle_s": total_s["cli.cmd_lifecycle"],
        "cli.stage.monitor_s": total_s["cli.cmd_monitor"],
    }
    samples = {
        "tick_s": [b - a for a, b in zip(ticks, ticks[1:])],
        "query_ms": [d * 1e3 for d in durations["dnswire.UdpResolver.query"]],
    }
    return run_counts, {"timings": timings, **samples}


def layer_metrics(dumps: list[dict], max_edit_distance: int,
                  lookups_per_snapshot: int) -> tuple[dict, bool]:
    """Per-layer metrics over traced runs, and whether their counts repeat.

    Timings are medians over the runs; tick and query percentiles pool the
    samples of all runs; counts and ratios come from the first run.
    """
    runs = [_one_run(d, max_edit_distance, lookups_per_snapshot) for d in dumps]
    counts = runs[0][0]
    repeat = all(r[0] == counts for r in runs[1:])
    out = dict(counts)
    for key in runs[0][1]["timings"]:
        out[key] = statistics.median(r[1]["timings"][key] for r in runs)
    ticks = [x for r in runs for x in r[1]["tick_s"]]
    queries = [x for r in runs for x in r[1]["query_ms"]]
    out.update({
        "dnsmon.tick_s_p50": _pct(ticks, 0.50),
        "dnsmon.tick_s_p90": _pct(ticks, 0.90),
        "dnswire.query_ms_p50": _pct(queries, 0.50),
        "dnswire.query_ms_p99": _pct(queries, 0.99),
    })
    return out, repeat


# ---------------------------------------------------------------- entry point


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <phishlife argv>", file=sys.stderr)
        return 2
    spans_path, cli_argv = Path(argv[0]), argv[2:]
    from phishlife import cli

    tracer = Tracer(run_id=spans_path.stem)
    with tracer:
        code = cli.main(cli_argv)
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
