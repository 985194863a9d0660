"""Command-line front end.

Subcommands: ingest, classify, squatgen dump, monitor, lifecycle, report.
All inputs come from a JSON config file; every config key can be overridden
by a long flag of the same name, and list keys take comma-separated flag
values. Paths in the config file resolve against its directory, path flags
against the working directory. Each CSV/JSON-lines output in --out-dir is
written row by row to a temp file named after it and the process id, then
fsynced and renamed over it; identical inputs give byte-identical outputs.

Exit codes: 2 config error, 3 empty output, 4 snapshot-store or output
write failure. A closed stdout is not an error: the outputs are still
written and the exit code is 0.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import csv
import gc
import io
import json
import os
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Optional, TextIO, get_origin,
                    get_type_hints)

# classifier, squatgen, lifecycle and dnsmon are imported by the stages and
# commands that use them, so a command loads only its own modules
from . import ingest
from .errors import RRTYPES, PhishlifeError, StoreFailure
from .timeutil import format_utc, parse_utc, to_days

if TYPE_CHECKING:
    from . import classifier, lifecycle

EXIT_CONFIG = 2
EXIT_EMPTY = 3
EXIT_STORE = 4  # the snapshot store or an output file cannot be written

_MAX_HOURS = timedelta.max / timedelta(hours=1)


class ConfigError(PhishlifeError):
    pass


class EmptyOutput(PhishlifeError):
    pass


class OutputFailure(PhishlifeError):
    """An output file could not be written."""


# a class default is read until a config value is set on the instance; the
# two lists are made per instance, in __init__
class PipelineConfig:
    """Every config key; a field's type decides how its value is checked.

    Each tunable's default is here and nowhere else: the library functions
    that use a tunable take it as a required argument.
    """

    feeds: list[tuple[Path, str]]
    suffix_rules: Optional[Path] = None
    allowlist: Optional[Path] = None
    brand_catalog: Optional[Path] = None
    word_list: Optional[Path] = None
    registration_log: Optional[Path] = None
    timestamp_sources: Optional[Path] = None
    vantage_config: Optional[Path] = None
    snapshot_store: Optional[Path] = None
    resolver_fixture: Optional[Path] = None
    monitor_domains: Optional[Path] = None

    bulk_window_hours: float = 24.0
    max_edit_distance: int = 2
    min_cluster_size: int = 3
    min_word_length: int = 4
    reference_source: str = "apwg"
    monitor_interval_minutes: float = 30.0
    monitor_duration_minutes: float = 60.0
    monitor_start: str = "2024-01-01T00:00:00Z"
    brand_top_n: int = 1000
    squat_top_n: int = 200
    rrtypes: list[str]
    backoff_base_ms: float = 500.0
    backoff_cap_ms: float = 8000.0

    def __init__(self) -> None:
        self.feeds, self.rrtypes = [], ["A", "AAAA", "NS", "MX", "TXT"]


_FIELD_TYPES = get_type_hints(PipelineConfig)


def _feed_spec(entry: object, base: Path) -> tuple[Path, str]:
    if isinstance(entry, str):
        entry = {"path": entry}
    if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
        raise ConfigError(f"feed entry needs a path: {json.dumps(entry)}")
    path = base / entry["path"]
    fmt = str(entry.get("format", "")).strip()
    if not fmt:
        fmt = "json" if path.suffix in (".json", ".jsonl") else "lines"
    if fmt not in ("lines", "json"):
        raise ConfigError(f"unknown feed format {fmt!r} for {path}")
    return path, fmt


def _checked(key: str, value: object, kinds: type | tuple[type, ...], expected: str) -> object:
    # JSON true and false load as bool, which Python also counts as an int
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{key} must be {expected}, not {json.dumps(value)}")
    return value


def _coerce(key: str, value: object, base: Path) -> object:
    """Check a config or flag value against its field's type; paths join ``base``."""
    kind = _FIELD_TYPES[key]
    if kind == list[tuple[Path, str]]:
        return [_feed_spec(e, base) for e in _checked(key, value, list, "a list")]
    if kind == list[str]:  # rrtypes, whose record types are case-insensitive
        items = _checked(key, value, list, "a list of strings")
        return [_checked(key, v, str, "a list of strings").upper() for v in items]
    if kind == Optional[Path]:
        return base / _checked(key, value, str, "a path string")
    if kind is float:
        number = _checked(key, value, (int, float), "a number")
        if not abs(number) <= sys.float_info.max:  # NaN, an infinity or an int past the float range
            raise ConfigError(f"{key} must be a finite number")
        return float(number)
    if kind is int:
        return _checked(key, value, int, "an integer")
    return _checked(key, value, str, "a string")


def _apply(cfg: PipelineConfig, values: dict, base: Path) -> None:
    for key, kind in _FIELD_TYPES.items():
        value = values.get(key)
        # an empty path is unset, as an absent one is
        if value is None or (value == "" and kind == Optional[Path]):
            continue
        setattr(cfg, key, _coerce(key, value, base))


def load_config(path: Optional[str], args: argparse.Namespace) -> PipelineConfig:
    """Build the pipeline config from the JSON file plus flag overrides."""
    cfg = PipelineConfig()
    if path:
        cfg_path = Path(path)
        raw = ingest.read_json(cfg_path, "config")
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        unknown = sorted(set(raw) - set(_FIELD_TYPES))
        if unknown:
            raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
        try:
            _apply(cfg, raw, cfg_path.parent)
        except RecursionError as exc:  # a bad value nested too deep for its message to quote it
            raise ConfigError(f"malformed config {path}: {exc}") from exc
    _apply(cfg, vars(args), Path("."))
    _validate_params(cfg)
    return cfg


def _validate_params(cfg: PipelineConfig) -> None:
    checks = [
        # cluster_bulk buckets by whole seconds of a timedelta
        (1 / 3600 <= cfg.bulk_window_hours <= _MAX_HOURS,
         f"bulk_window_hours must be from 1/3600 (one second) to {_MAX_HOURS:.2g}"),
        (cfg.max_edit_distance >= 0, "max_edit_distance must be >= 0"),
        (cfg.min_cluster_size >= 2, "min_cluster_size must be >= 2"),
        (cfg.min_word_length >= 1, "min_word_length must be >= 1"),
        # a timedelta rounds to whole microseconds, and run_schedule refuses a zero interval
        (cfg.monitor_interval_minutes * 60e6 >= 1,
         "monitor_interval_minutes must be at least one microsecond"),
        (cfg.monitor_duration_minutes >= 0, "monitor_duration_minutes must be >= 0"),
        (cfg.brand_top_n >= 1, "brand_top_n must be >= 1"),
        (0 <= cfg.squat_top_n <= cfg.brand_top_n, "squat_top_n must be in [0, brand_top_n]"),
        (cfg.backoff_base_ms > 0, "backoff_base_ms must be positive"),
        (cfg.backoff_cap_ms >= cfg.backoff_base_ms, "backoff_cap_ms must be >= backoff_base_ms"),
        (bool(cfg.reference_source.strip()), "reference_source must be non-empty"),
        # known, distinct and at least one; each is upper-cased, so "a" repeats "A"
        (0 < len(cfg.rrtypes) == len(set(cfg.rrtypes) & set(RRTYPES)),
         f"rrtypes must name at least one of {RRTYPES}, each once"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    try:
        _monitor_end(cfg, parse_utc(cfg.monitor_start), "monitor_start")
    except ValueError as exc:
        raise ConfigError(f"monitor_start: {exc}") from exc


def _monitor_end(cfg: PipelineConfig, start: datetime, start_name: str) -> datetime:
    """A run's end from its start; ConfigError unless one interval past it is before year 10000."""
    try:
        end = start + timedelta(minutes=cfg.monitor_duration_minutes)
        end + timedelta(minutes=cfg.monitor_interval_minutes)
    except OverflowError as exc:
        raise ConfigError(f"{start_name} + monitor_duration_minutes + monitor_interval_minutes "
                          "must fall before year 10000") from exc
    return end


def _require(cfg_value: Optional[Path], name: str) -> Path:
    if cfg_value is None:
        raise ConfigError(f"config key {name!r} is required for this command")
    return Path(cfg_value)


@contextlib.contextmanager
def _output(path: Path) -> Iterator[TextIO]:
    """An output file open for writing: what is written goes to a temp file,
    which is fsynced and renamed over ``path`` when the block ends.

    The temp name carries the process id, so two runs writing into one
    output directory never share a temp file. On any exception, a row
    generator's included, the temp file is removed; an OSError is raised
    as OutputFailure.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputFailure(f"cannot write {path}: {exc}") from exc
    finally:  # after the rename there is no temp file left to remove
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _print(text: str, end: str = "\n") -> None:
    """print() to stdout and flush; a closed stdout does not end the run."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        # the reader has gone: as in the Python documentation's note on SIGPIPE,
        # point stdout at os.devnull, so later writes and the flush at exit go
        # nowhere, and the run goes on to write its outputs and exit 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _fmt_days(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


# ---------------------------------------------------------------- pipeline


class Run:
    """One pipeline run: the config, the output directory and every input it loads.

    Each input is loaded on first use and kept, so a command reads each
    input at most once and ``report`` shares them between its one pass and
    ``monitor``. A command touches only the inputs it needs.
    """

    def __init__(self, cfg: PipelineConfig, out_dir: Path):
        self.cfg, self.out_dir = cfg, out_dir

    @cached_property
    def feeds(self) -> list[tuple[Path, ingest.FeedLoadResult]]:
        if not self.cfg.feeds:
            raise ConfigError("no feeds configured")
        return [(path, ingest.load_feed(path, fmt)) for path, fmt in self.cfg.feeds]

    @cached_property
    def table(self) -> ingest.DomainTable:
        rules = ingest.load_suffix_rules(_require(self.cfg.suffix_rules, "suffix_rules"))
        table = ingest.build_domain_table(
            (entry for _, feed in self.feeds for entry in feed.entries), rules)
        if not table.records:
            raise EmptyOutput("domain table is empty")
        return table

    @cached_property
    def ctx(self) -> classifier.ClassifierContext:
        from . import classifier, squatgen
        cfg = self.cfg
        allow = classifier.load_allowlist(_require(cfg.allowlist, "allowlist"))
        catalog = squatgen.load_catalog(_require(cfg.brand_catalog, "brand_catalog"),
                                        cfg.brand_top_n, cfg.squat_top_n)
        words = classifier.load_word_list(_require(cfg.word_list, "word_list"))
        clusters: list[classifier.BulkCluster] = []
        if cfg.registration_log is not None:
            log = classifier.load_registration_log(cfg.registration_log)
            clusters = classifier.cluster_bulk(log, timedelta(hours=cfg.bulk_window_hours),
                                               cfg.max_edit_distance, cfg.min_cluster_size)
        return classifier.ClassifierContext(
            allow=allow,
            catalog=catalog,
            squat_index=squatgen.build_index(catalog),
            word_list=words,
            bulk_membership=classifier.bulk_membership(clusters),
            min_word_len=cfg.min_word_length,
        )

    @cached_property
    def registrations(self) -> tuple[dict[str, lifecycle.RegistrationEvent], int]:
        """Each domain's registration event, and the count of timestamp rows skipped."""
        from . import lifecycle
        return lifecycle.load_timestamp_sources(
            _require(self.cfg.timestamp_sources, "timestamp_sources"))

    @cached_property
    def monitor_domains(self) -> list[str]:
        if self.cfg.monitor_domains is None:  # the table's, already sorted and distinct
            return [r.registrable for r in self.table.records]
        domains = []
        for line in ingest.read_lines(self.cfg.monitor_domains, "monitor domains"):
            host = line.strip()
            try:  # normalized like a feed host, so an IDN name goes out as punycode
                domains.append(ingest.normalize_host(host))
            except PhishlifeError as exc:
                raise ConfigError(f"monitor domain {host!r} is not a host name: {exc}") from exc
        return sorted(set(domains))


def _domain_record_json(rec: ingest.DomainRecord) -> str:
    return json.dumps({
        "registrable": rec.registrable,
        "public_suffix": rec.public_suffix,
        "subdomain": rec.subdomain,
        "subdomain_count": rec.subdomain_count,
        "suffix_unlisted": rec.suffix_unlisted,
        "first_detections": {s: format_utc(t) for s, t in sorted(rec.first_detections.items())},
        "brands": sorted(rec.brands),
        "url_count": rec.url_count,
    }, sort_keys=True)


# A stage opens its row files and yields its sink, the function that takes each
# record, its classification and its lifecycle record. When the pass ends, it renames its
# row files into place, writes its summary files and prints its lines.


@contextlib.contextmanager
def _ingest_stage(run: Run) -> Iterator[Callable]:
    tlds: set[str] = set()
    domains_by_source: Counter = Counter()
    tlds_by_source: dict[str, set] = {}
    with _output(run.out_dir / "domains.jsonl") as fh:
        def sink(rec: ingest.DomainRecord, res, life) -> None:
            fh.write(_domain_record_json(rec) + "\n")
            tlds.add(rec.public_suffix)
            for source in rec.first_detections:
                domains_by_source[source] += 1
                tlds_by_source.setdefault(source, set()).add(rec.public_suffix)
        yield sink

    urls_by_source = run.table.urls_by_source
    _print(f"{len(run.table.records)} domains, {len(tlds)} TLDs "
           f"({sum(urls_by_source.values())} URLs, {run.table.skipped_urls} skipped)")
    for source in sorted(urls_by_source):
        _print(f"  {source}: {urls_by_source[source]} URLs, "
               f"{domains_by_source.get(source, 0)} domains, "
               f"{len(tlds_by_source.get(source, ()))} TLDs")
    for path, feed in run.feeds:
        _print(f"  {path}: {feed.skipped} malformed records skipped")


@contextlib.contextmanager
def _classify_stage(run: Run) -> Iterator[Callable]:
    from . import classifier
    # each verdict and each flag, whose names differ; only a candidate (a
    # malicious or compromised domain) has flags
    tally: Counter = Counter()
    bulk_by_registrar: Counter = Counter()
    # the CSV is entered last, so it is the first renamed into place
    with (_output(run.out_dir / "classification.jsonl") as lines,
          _output(run.out_dir / "classification.csv") as fh):
        table = csv.writer(fh, lineterminator="\n")
        table.writerow(["registrable", "verdict", "flags", "evidence"])

        def sink(rec, res: classifier.ClassificationResult, life) -> None:
            flags = classifier.ordered_flags(res.flags)
            table.writerow([res.registrable, res.verdict, ";".join(flags),
                            "|".join(f"{flag}={detail}" for flag, detail in res.evidence)])
            lines.write(json.dumps({
                "registrable": res.registrable,
                "verdict": res.verdict,
                "flags": flags,
                "evidence": [list(e) for e in res.evidence],
            }, sort_keys=True) + "\n")
            tally.update([res.verdict, *flags])
            if classifier.BULK_REGISTERED in res.flags:
                bulk_by_registrar[run.ctx.bulk_membership[res.registrable].registrar] += 1
        yield sink

    base = tally[classifier.VERDICT_MALICIOUS] + tally[classifier.VERDICT_COMPROMISED]

    def pct(n: int) -> str:
        return f"{100.0 * n / base:.1f}" if base else ""

    # allowlisted and platform-abuse domains are tallied apart from the
    # malicious/compromised percentages
    for verdict in (classifier.VERDICT_ALLOWLISTED, classifier.VERDICT_PLATFORM):
        _print(f"{verdict}: {tally[verdict]}")
    counts = ([(flag, tally[flag]) for flag in classifier.FLAG_ORDER]
              + [("malicious_total", tally[classifier.VERDICT_MALICIOUS])])
    _print(f"candidates after allowlist removal: {base}")
    for flag, n in counts:
        _print(f"  {flag}: {n} ({pct(n)}%)")
    _write_csv(run.out_dir / "flag_summary.csv", ["flag", "domains", "pct_of_candidates"],
               ([flag, n, pct(n)] for flag, n in counts))

    total_bulk = sum(bulk_by_registrar.values())  # each ranked registrar counts at least 1
    ranked = sorted(bulk_by_registrar.items(), key=lambda kv: (-kv[1], kv[0]))
    _write_csv(run.out_dir / "registrar_summary.csv", ["rank", "registrar", "domains", "share"],
               ([rank, registrar, n, f"{100.0 * n / total_bulk:.1f}"]
                for rank, (registrar, n) in enumerate(ranked, start=1)))


@contextlib.contextmanager
def _lifecycle_stage(run: Run) -> Iterator[Callable]:
    from . import classifier, lifecycle
    aggregates = lifecycle.Aggregates(run.cfg.reference_source)
    with_delay = 0
    with _output(run.out_dir / "lifecycle.csv") as fh:
        table = csv.writer(fh, lineterminator="\n")
        table.writerow(["registrable", "registered_at", "provenance", "deregistered_at",
                        "detection_delay_days", "takedown_delay_days", "flags", "verdict"])

        def sink(rec, res, life: lifecycle.LifecycleRecord) -> None:
            nonlocal with_delay
            reg, det, take = life.registration, life.detection_delay, life.takedown_delay
            table.writerow([
                rec.registrable,
                format_utc(reg.registered_at) if reg else "",
                reg.provenance if reg else "",
                format_utc(reg.deregistered_at) if reg and reg.deregistered_at else "",
                _fmt_days(to_days(det) if det is not None else None),
                _fmt_days(to_days(take) if take is not None else None),
                ";".join(classifier.ordered_flags(res.flags)),
                res.verdict,
            ])
            aggregates.add(life)
            with_delay += det is not None
        yield sink

    for metric, group in lifecycle.AGGREGATES:
        try:
            report = aggregates.report(metric, group)
        except lifecycle.EmptyInput:
            continue
        _write_csv(run.out_dir / f"agg_{metric}_{group}.csv",
                   ["key", "count", "mean_days", "median_days", "missing"],
                   ([row.key, row.count, _fmt_days(row.mean_days), _fmt_days(row.median_days),
                     row.missing] for row in report.rows))
    _print(f"{len(run.table.records)} lifecycle records ({with_delay} with detection delay)")
    _print(f"  {run.cfg.timestamp_sources}: {run.registrations[1]} timestamp rows skipped")


# the inputs each stage's command has always loaded, in that order
_INPUTS = {_ingest_stage: ["table"], _classify_stage: ["table", "ctx"],
           _lifecycle_stage: ["registrations", "table", "ctx"]}


def _one_pass(run: Run, *stages: Callable) -> None:
    """Classify and join each table record once, and hand it to every stage given.

    Every input is loaded before any output is opened, stage by stage in
    the order of _INPUTS, so the first bad input is the one it has always
    been. After the pass, the stages finish in the order given.
    """
    inputs = {name: getattr(run, name) for stage in stages for name in _INPUTS[stage]}
    ctx, registrations = inputs.get("ctx"), inputs.get("registrations")
    if ctx is not None:
        from . import classifier
    if registrations is not None:
        from . import lifecycle
    with contextlib.ExitStack() as stack:
        # entered last to first, so that the first given is the first to finish
        sinks = [stack.enter_context(stage(run)) for stage in reversed(stages)]
        for rec in run.table.records:
            res = classifier.classify(rec, ctx) if ctx is not None else None
            life = (lifecycle.join_record(rec, res, registrations[0], run.cfg.reference_source)
                    if registrations is not None else None)
            for sink in sinks:
                sink(rec, res, life)


def cmd_ingest(run: Run) -> None:
    _one_pass(run, _ingest_stage)


def cmd_classify(run: Run) -> None:
    _one_pass(run, _classify_stage)


def cmd_monitor(run: Run, live: bool) -> None:
    from . import dnsmon
    cfg, out_dir = run.cfg, run.out_dir
    vantages = dnsmon.load_vantages(_require(cfg.vantage_config, "vantage_config"))
    domains = run.monitor_domains
    store = dnsmon.SnapshotStore(cfg.snapshot_store or out_dir / "snapshots.jsonl")

    if live:
        # every domain is a normalized host, so it goes on the wire as it is
        from .dnswire import UdpResolver
        resolver = UdpResolver()
        start = datetime.now(timezone.utc)
    else:
        resolver = dnsmon.ScriptedResolver.from_file(
            _require(cfg.resolver_fixture, "resolver_fixture"))
        start = parse_utc(cfg.monitor_start)
    # a live run starts now, not at monitor_start, so its end is checked again here
    until = _monitor_end(cfg, start, "now" if live else "monitor_start")
    if live and cfg.monitor_duration_minutes == 0:
        until = None  # a live run without a duration lasts until interrupted

    # the prior snapshots, then this run's; a torn store fails before any query
    snapshots = store.load()
    try:
        ticks = dnsmon.run_schedule(
            domains, vantages, tuple(cfg.rrtypes),
            dnsmon.backoff_delays(cfg.backoff_base_ms / 1000.0, cfg.backoff_cap_ms / 1000.0),
            resolver, store, start, timedelta(minutes=cfg.monitor_interval_minutes), until,
            kept=snapshots, live=live)
        rounds = str(ticks)
    except KeyboardInterrupt:  # pragma: no cover - live mode only
        rounds = "interrupted"

    if not snapshots:
        raise EmptyOutput("no snapshots collected")
    try:
        summary = dnsmon.ttl_stats(snapshots)
    except dnsmon.NoObservations as exc:
        raise EmptyOutput(f"no answered record: {exc}") from exc

    # the changes and the domains of every snapshot analysed, the store's prior ones included
    changes = dnsmon.detect_changes(snapshots)
    changed_domains = {c.registrable for c in changes}
    observed = len({s.registrable for s in snapshots})
    _print(f"{rounds} collection rounds over {len(domains)} domains")
    _print(f"{100.0 * len(changed_domains) / observed:.1f}% of domains exhibit record changes "
           f"({len(changed_domains)} of {observed}, {len(changes)} changes)")

    ordered = sorted(changes, key=lambda c: (c.registrable, c.observed_at, c.rrtype, c.vantage_id))
    _write_csv(out_dir / "record_changes.csv",
               ["registrable", "rrtype", "vantage_id", "before", "after", "observed_at"],
               ([c.registrable, c.rrtype, c.vantage_id,
                 ";".join(c.before), ";".join(c.after), format_utc(c.observed_at)]
                for c in ordered))
    _write_csv(out_dir / "ttl_summary.csv",
               ["registrable", "observations", "min_ttl", "median_ttl", "mean_ttl"],
               ([d.registrable, d.observations, d.min_ttl,
                 f"{d.median_ttl:.2f}", f"{d.mean_ttl:.2f}"] for d in summary.per_domain))
    _write_csv(out_dir / "ttl_buckets.csv", ["metric", "value"], [
        ["under_60s", summary.under_60s],
        ["under_3600s", summary.under_3600s],
        ["over_43200s", summary.over_43200s],
        ["between_43200s_and_86400s", summary.between_43200s_and_86400s],
        ["overall_median_ttl", f"{summary.overall_median_ttl:.2f}"],
        ["overall_mean_ttl", f"{summary.overall_mean_ttl:.2f}"],
    ])


def cmd_lifecycle(run: Run) -> None:
    _one_pass(run, _lifecycle_stage)


def cmd_squatgen_dump(brand_domain: Optional[str]) -> None:
    from . import squatgen
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if brand_domain:
        rows = sorted([c.label, c.technique.value] for c in squatgen.generate(brand_domain))
        writer.writerow(["label", "technique"])
    else:
        rows = [[char, ";".join(squatgen.HOMOGLYPHS[char])] for char in sorted(squatgen.HOMOGLYPHS)]
        writer.writerow(["character", "replacements"])
    writer.writerows(rows)
    _print(buf.getvalue(), end="")


def cmd_report(run: Run) -> None:
    _one_pass(run, _ingest_stage, _classify_stage, _lifecycle_stage)
    if run.cfg.resolver_fixture is not None:
        cmd_monitor(run, live=False)


# ---------------------------------------------------------------- argparse


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="pipeline config JSON")
    common.add_argument("--out-dir", default="out", help="output directory")
    for key, kind in _FIELD_TYPES.items():
        flag = f"--{key.replace('_', '-')}"
        if kind in (int, float):
            common.add_argument(flag, type=kind)
        elif get_origin(kind) is list:
            common.add_argument(flag, type=_comma_list, help="comma-separated values")
        else:
            common.add_argument(flag)

    parser = argparse.ArgumentParser(prog="phishlife", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, parents=[common]) for name in
                ("ingest", "classify", "monitor", "lifecycle", "report", "squatgen")}
    commands["monitor"].add_argument("--live", action="store_true",
                                     help="query real resolvers instead of the scripted fixture")
    commands["squatgen"].add_argument("action", choices=["dump"])
    commands["squatgen"].add_argument("--brand-domain", help="dump candidates for one brand domain")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # a command keeps what it builds to its end and leaves no cyclic garbage,
    # so the cyclic collector stays off while it runs, and the caller's setting
    # comes back after; run as the program (argv None), main also freezes the
    # heap at exit, so the interpreter's last collection skips what is left
    enabled = gc.isenabled()
    gc.disable()
    if argv is None:
        atexit.register(gc.freeze)
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "squatgen":
            cmd_squatgen_dump(args.brand_domain)
            return 0

        cfg = load_config(args.config, args)
        out_dir = Path(args.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out-dir names an existing file
            raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

        run = Run(cfg, out_dir)
        if args.command == "ingest":
            cmd_ingest(run)
        elif args.command == "classify":
            cmd_classify(run)
        elif args.command == "monitor":
            cmd_monitor(run, live=args.live)
        elif args.command == "lifecycle":
            cmd_lifecycle(run)
        elif args.command == "report":
            cmd_report(run)
        return 0
    except StoreFailure as exc:
        print(f"store failure: {exc}", file=sys.stderr)
        return EXIT_STORE
    except OutputFailure as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return EXIT_STORE
    except EmptyOutput as exc:
        print(f"empty output: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except PhishlifeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
