"""phishlife benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload report_mixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The generator writes the workload's
inputs from the seed into ``.bench_work/``; the program under test is
``src/phishlife`` of the same checkout, run as a child process.

``--trace 0`` measures the end-to-end metrics. It sets up the reference
state in several fresh processes (``setup_s``), then runs the workload's
``phishlife`` command again and again for ``--seconds``, each time in a
fresh process with tracing off, and reports the median of each
measurement. ``--trace 1`` alternates untraced commands with commands
under ``tracer.py`` and reports the per-layer metrics.

Every command's outputs are checked against the planted ground truth,
against the run's first command and, at the default seed, against the
digest in ``digests.json``. A command that exits non-zero or fails a check
counts all of its operations as failed. Before each command a fixed
pure-Python loop is timed (``probe_ms``) and printed beside it; metrics are
not normalised by it.

The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
from responder import Responder  # noqa: E402

DEFAULT_SEED = 1
SETUP_FIRST = 3         # set-up samples before the first command
SETUP_PER_COMMAND = 2   # and before each command, spread over the whole run
MIN_RUNS = 3            # untraced commands per --trace 0 run, even past --seconds
MIN_TRACED = 2          # traced commands per --trace 1 run, so counts can be compared
CHILD_TIMEOUT_S = 60    # a command takes about 2 s; a run must end within 180 s


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_child(argv: list[str], cwd: Path, log: Path) -> ChildRun:
    """Run one child to completion; resource use comes from its own wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,        # Linux reports KiB
        stdout=log.read_text(encoding="utf-8", errors="replace"),
    )


def drift_probe() -> float:
    """Milliseconds for a fixed pure-Python loop: a gauge of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


class Workload:
    """A generated workload directory and the commands run in it."""

    def __init__(self, name: str, seed: int, work: Path, truth: dict, responder):
        self.name, self.work, self.truth = name, work, truth
        self.responder = responder
        self.reference = None
        self.expected = None
        if seed == DEFAULT_SEED:
            self.expected = json.loads((BENCH / "digests.json").read_text()).get(name)
        self.ops = truth["ops"]

    def warm_up(self) -> None:
        """Compile the bytecode caches and load the files into the page cache."""
        run_child(["-c", "import phishlife.cli, phishlife.dnswire"], self.work, self.work / "warm.log")
        self.setup()

    def setup(self) -> float:
        run = run_child([str(BENCH / "setup_child.py")], self.work, self.work / "setup.log")
        if run.code != 0:
            raise RuntimeError(f"set-up probe failed:\n{run.stdout}")
        return float(run.stdout.strip().splitlines()[-1])

    def command(self, spans: Path | None = None) -> tuple[ChildRun, list[str], int, dict]:
        """Run the workload's command once; returns the run, its problems,
        the lookups that failed inside it, and the responder's counters."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if self.responder is not None:
            self.responder.take_counters()
        head = [str(BENCH / "tracer.py"), str(spans), "--"] if spans else ["-m", "phishlife.cli"]
        run = run_child(head + self.truth["command"], self.work, self.work / "command.log")
        counters = self.responder.take_counters() if self.responder is not None else {}
        if run.code != 0:
            return run, [f"exit code {run.code}: {run.stdout[-500:]}"], 0, counters
        try:
            problems, failed = checks.CHECKS[self.name](self.truth, out, run.stdout)
            got = checks.digest(self.name, out)
        except (OSError, ValueError, KeyError) as exc:
            return run, [f"outputs unreadable: {exc!r}"], 0, counters
        if self.reference is None:
            self.reference = got
            print(f"digest {got}")
        if got != self.reference:
            problems.append("outputs differ from the first run of this seed")
        if self.expected is not None and got != self.expected:
            problems.append(f"outputs differ from the recorded digest for seed {DEFAULT_SEED}")
        return run, problems, failed, counters


def measure(w: Workload, seconds: float) -> dict:
    w.warm_up()
    setup = [w.setup() for _ in range(SETUP_FIRST)]
    runs: list[ChildRun] = []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        setup.extend(w.setup() for _ in range(SETUP_PER_COMMAND))
        probe = drift_probe()
        run, problems, bad_ops, _ = w.command()
        attempted += w.ops
        failed += w.ops if problems else bad_ops
        correct = correct and not problems
        runs.append(run)
        print(f"run {len(runs)}: wall_s {run.wall_s:.4f} cpu_s {run.cpu_s:.4f} "
              f"peak_rss_mb {run.peak_rss_mb:.1f} probe_ms {probe:.2f} "
              f"{'ok' if not problems else 'FAILED ' + '; '.join(problems)}")
    print(f"setup_s {' '.join(f'{s:.4f}' for s in setup)}")
    wall = statistics.median(r.wall_s for r in runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "ops_per_s": w.ops / wall,
    }
    return _result(correct, attempted, failed, metrics, metric_units("end_to_end"))


def trace(w: Workload, seconds: float) -> dict:
    w.warm_up()
    plain: list[float] = []
    traced: list[float] = []
    probes: list[float] = []
    dumps: list[dict] = []
    counters: list[dict] = []
    failed_lookups: list[int] = []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        for spans in (None, w.work / f"spans-{len(traced)}.json"):
            probes.append(drift_probe())
            run, problems, bad_ops, seen = w.command(spans)
            attempted += w.ops
            failed += w.ops if problems else bad_ops
            correct = correct and not problems
            print(f"{'traced' if spans else 'plain'} run: wall_s {run.wall_s:.4f} "
                  f"probe_ms {probes[-1]:.2f} {'ok' if not problems else 'FAILED ' + '; '.join(problems)}")
            if spans is None:
                plain.append(run.wall_s)
                continue
            traced.append(run.wall_s)
            if run.code == 0:
                dumps.append(json.loads(spans.read_text(encoding="utf-8")))
                counters.append(seen)
                failed_lookups.append(bad_ops)
    units = metric_units("per_layer")
    if not dumps:
        return _result(False, attempted, failed, dict.fromkeys(units, 0.0), units)
    cfg = json.loads((w.work / "config.json").read_text(encoding="utf-8"))
    # collect_snapshot queries every rrtype from every vantage
    metrics, repeat = tracer.layer_metrics(
        dumps, max_edit_distance=cfg["max_edit_distance"],
        lookups_per_snapshot=len(gen.VANTAGES) * len(gen.RRTYPES))
    for key in ("datagrams", "tcp_connections", "replies_noerror", "replies_nxdomain",
                "replies_servfail", "replies_truncated"):
        metrics[f"responder.{key}"] = counters[0].get(key, 0)
        repeat = repeat and all(c.get(key, 0) == counters[0].get(key, 0) for c in counters)
    metrics["dnswire.client_ports"] = statistics.median(c.get("client_ports", 0) for c in counters)
    metrics["dnsmon.failed_lookups"] = failed_lookups[0]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["host.probe_ms"] = statistics.median(probes)
    if not repeat:
        print("FAILED: counts differ between traced runs")
        correct = False
    return _result(correct, attempted, failed, metrics, units)


def _result(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "phishlife" / "cli.py").is_file():
        print(f"no phishlife sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        truth = gen.generate(args.workload, args.seed, work)
        live = args.workload == "monitor_live"
        zone_server = Responder(truth["zone"], truth["roles"]) if live else None
        with zone_server or nullcontext():
            if zone_server is not None:
                gen.write_vantages(work, f"127.0.0.1:{zone_server.port}")
            w = Workload(args.workload, args.seed, work, truth, zone_server)
            result = trace(w, args.seconds) if args.trace else measure(w, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                                    # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
