"""One benchmark run: start servers, drive them, check answers, report metrics.

The untraced pass gives every end-to-end metric (and the per-layer
numbers read from outside the server: response fields, ``/stats`` and
``/proc``).  With tracing on, a second server, whose layer entry points
record spans (:mod:`perfbench.bootstrap`), runs beside the untraced one:
the two take the same window round by round, alternately, while the
benchmark process records its own TCP connects to the traced one.  The
per-layer metrics come from those spans, counted only inside the traced
pass's measured window.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import math
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy

from perfbench.spans import Span, SpanRecorder, children_of, load_spans, self_times
from perfbench.stats import InsufficientSamples, percentile
from perfbench.workloads import Operation, Plan, Reload, Workload, plan
from repro.exceptions import ReproError
from repro.server import ServingClient

ROOT = Path(__file__).resolve().parent.parent

#: Server starts in an untraced run; ``setup_s`` is their median.
SETUP_STARTS = 9
#: Bound on one server start (interpreter, imports, snapshot load, bind).
START_TIMEOUT = 120.0
#: Bound on one request, and on a server's drain after SIGINT.
REQUEST_TIMEOUT = 120.0

#: Consecutive rounds the window is cut into for the median-of-rounds metrics.
ROUNDS = 10

PAPER_SLUGS = ("sgb", "sgb-bb", "ct-tbd", "wt-tbd", "rd", "rdt")


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro-tpp serve --index-file`` process started via the bootstrap."""

    def __init__(self, snapshot: Path, work: Path, tag: str, trace: bool) -> None:
        self.trace = trace
        self.spans_path = work / f"spans-{tag}.json"
        self.log_path = work / f"server-{tag}.log"
        self._command = [
            sys.executable,
            "-u",
            str(ROOT / "perfbench" / "bootstrap.py"),
            *(["--trace"] if trace else []),
            "--spans",
            str(self.spans_path),
            "--",
            "serve",
            "--index-file",
            str(snapshot),
            "--port",
            "0",
        ]
        self._process: Optional[subprocess.Popen] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        self.client: Optional[ServingClient] = None

    def start(self) -> float:
        """Spawn the server; return seconds until its first ``/healthz`` 200."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        with open(self.log_path, "w", encoding="utf-8") as log:
            started = time.monotonic()
            self._process = subprocess.Popen(
                self._command,
                stdout=subprocess.PIPE,
                stderr=log,
                stdin=subprocess.DEVNULL,
                cwd=str(ROOT),
                env=env,
                text=True,
            )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = started + START_TIMEOUT
        url = None
        while url is None:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(f"server did not start:\n{self._log_tail()}")
            found = re.search(r"serving .* at (http://[^\s]+) ", line)
            url = found.group(1) if found else None
        self.client = ServingClient(url, timeout=REQUEST_TIMEOUT)
        while True:
            try:
                self.client.health()
                return time.monotonic() - started
            except ReproError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError(f"/healthz never answered:\n{self._log_tail()}")
                time.sleep(0.002)

    def _drain(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        for line in self._process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _log_tail(self) -> str:
        try:
            return self.log_path.read_text(encoding="utf-8")[-4000:]
        except OSError:
            return "(no server log)"

    def _proc(self, name: str) -> str:
        assert self._process is not None
        return Path(f"/proc/{self._process.pid}/{name}").read_text(encoding="utf-8")

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used so far."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc/<pid>/status")

    def stop(self) -> None:
        """SIGINT (the CLI drains and exits), kill if that times out, reap."""
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=REQUEST_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._reader is not None:
            self._reader.join(timeout=REQUEST_TIMEOUT)
        if process.stdout is not None:
            process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ----------------------------------------------------------------------
# driving
# ----------------------------------------------------------------------
@dataclass
class Record:
    """What one operation cost and whether its answer was right."""

    kind: str
    started: float
    finished: float
    failure: Optional[str] = None
    mismatch: Optional[str] = None
    queue_seconds: float = 0.0
    solve_seconds: float = 0.0
    #: server CPU seconds a reload used (read outside the timed call)
    server_cpu: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from call to return; a failed operation misses every limit."""
        return math.inf if self.failure else self.finished - self.started


def _mismatch(operation: Operation, payload: Dict[str, object], kernel: str) -> Optional[str]:
    if isinstance(operation, Reload):
        if payload.get("content_hash") != operation.content_hash:
            return f"reload of {operation.delta.name} landed on {payload.get('content_hash')}"
        return None
    extra = payload.get("extra")
    if not isinstance(extra, dict):
        return "response has no extra block"
    if operation.protectors is not None and payload.get("protectors") != operation.protectors:
        return f"protectors differ from the reference for {operation.request}"
    if extra.get("service", {}).get("kernel") != kernel:
        return f"served by kernel {extra.get('service', {}).get('kernel')!r}, not {kernel!r}"
    if extra.get("server", {}).get("content_hash") != operation.content_hash:
        return f"answered on state {extra.get('server', {}).get('content_hash')}"
    return None


def execute(server: Server, operation: Operation, kernel: str) -> Record:
    """Send one operation, time it from call to return, check the answer."""
    client = server.client
    assert client is not None
    if isinstance(operation, Reload):
        cpu_before = server.cpu_seconds()
        started = time.perf_counter()
        try:
            payload = client.reload(delta=operation.delta)
        except ReproError as error:
            return Record("reload", started, time.perf_counter(), failure=f"{type(error).__name__}: {error}")
        finished = time.perf_counter()
        return Record(
            "reload",
            started,
            finished,
            mismatch=_mismatch(operation, payload, kernel),
            server_cpu=server.cpu_seconds() - cpu_before,
        )
    started = time.perf_counter()
    try:
        payload = client.solve_payload(operation.request)
    except ReproError as error:
        return Record("solve", started, time.perf_counter(), failure=f"{type(error).__name__}: {error}")
    finished = time.perf_counter()
    timing = payload.get("extra", {}).get("server", {})
    return Record(
        "solve",
        started,
        finished,
        mismatch=_mismatch(operation, payload, kernel),
        queue_seconds=float(timing.get("queue_seconds", 0.0)),
        solve_seconds=float(timing.get("solve_seconds", 0.0)),
    )


def drive(server: Server, operations: Sequence[Operation], kernel: str) -> List[Record]:
    """Closed loop: send each operation once the previous one has returned."""
    return [execute(server, operation, kernel) for operation in operations]


# ----------------------------------------------------------------------
# passes over the sequence
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """What one server was sent, and what it and the client recorded."""

    setup_seconds: List[float]
    warmup: List[Record] = field(default_factory=list)
    #: the window, in the rounds it was sent in
    rounds: List[List[Record]] = field(default_factory=list)
    tail: List[Record] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    #: server CPU seconds over the window's rounds
    cpu_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    #: ``VmHWM`` after the warm-up, and at the end of the pass
    warm_rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    spans: List[Span] = field(default_factory=list)
    connects: List[Span] = field(default_factory=list)

    @property
    def window(self) -> List[Record]:
        return [record for part in self.rounds for record in part]

    @property
    def records(self) -> List[Record]:
        return self.warmup + self.window + self.tail


def cut(operations: Sequence[Operation], count: int = ROUNDS) -> List[Sequence[Operation]]:
    """``operations`` cut into ``count`` consecutive, near-equal rounds."""
    edges = [len(operations) * index // count for index in range(count + 1)]
    return [operations[low:high] for low, high in zip(edges, edges[1:])]


def run_passes(the_plan: Plan, work: Path, traces: Sequence[bool], starts: int) -> List[Pass]:
    """One server per entry of ``traces``, each sent the same sequence.

    ``starts`` - 1 throwaway untraced starts are timed first (for
    ``setup_s``).  Every server then gets the warm-up; the window goes out
    round by round, alternating servers and the order within a round, so
    host drift falls on all of them alike; the tail comes last.
    """
    setup_seconds = []
    for start in range(starts - 1):
        with Server(the_plan.snapshot, work, f"start{start}", trace=False) as server:
            setup_seconds.append(server.start())
    connects = SpanRecorder()
    original_connect = http.client.HTTPConnection.connect

    def send(server: Server, operations: Sequence[Operation]) -> List[Record]:
        """Drive ``server``; to a traced one, the client's TCP connects are spans."""
        if server.trace:
            http.client.HTTPConnection.connect = connects.wrap(  # type: ignore[method-assign]
                original_connect, "client.connect"
            )
        try:
            return drive(server, operations, the_plan.kernel)
        finally:
            http.client.HTTPConnection.connect = original_connect  # type: ignore[method-assign]

    with contextlib.ExitStack() as stack:
        servers = [
            stack.enter_context(
                Server(the_plan.snapshot, work, "traced" if trace else "untraced", trace)
            )
            for trace in traces
        ]
        passes = [Pass(setup_seconds + [server.start()]) for server in servers]
        pairs = list(zip(servers, passes))
        before = []
        for server, the_pass in pairs:
            the_pass.warmup = drive(server, the_plan.warmup, the_plan.kernel)
            the_pass.warm_rss_mb = server.peak_rss_mb()
            assert server.client is not None
            before.append(server.client.stats())
        for index, chunk in enumerate(cut(the_plan.window)):
            for server, the_pass in pairs if index % 2 == 0 else pairs[::-1]:
                the_pass.started = the_pass.started or time.monotonic()
                cpu_before = server.cpu_seconds()
                the_pass.rounds.append(send(server, chunk))
                the_pass.cpu_seconds += server.cpu_seconds() - cpu_before
        for (server, the_pass), stats_before in zip(pairs, before):
            the_pass.tail = send(server, the_plan.tail)
            the_pass.ended = time.monotonic()
            assert server.client is not None
            after = server.client.stats()
            the_pass.counters = {
                name: int(after[name]) - int(stats_before[name])
                for name in ("solves_executed", "coalesced_hits", "rejected")
            }
            the_pass.peak_rss_mb = server.peak_rss_mb()
    for server, the_pass in pairs:
        if server.trace:
            the_pass.spans = load_spans(server.spans_path)
            the_pass.connects = list(connects.spans)
    return passes


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def host_probe_ms() -> float:
    """A fixed pure-Python plus numpy loop (median of 5), in ms: host speed only."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(150_000):
            total += value * value % 7
        array = numpy.arange(300_000, dtype=numpy.float64)[::-1]
        total += int(numpy.sort(array)[:10].sum())
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000.0


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1000.0


def _solve_p50(records: Sequence[Record]) -> float:
    return percentile([r.latency for r in records if r.kind == "solve"], 50)


def round_rate(records: Sequence[Record]) -> float:
    """Solves completed per second of one round's wall time."""
    completed = sum(1 for r in records if r.kind == "solve" and r.failure is None)
    return completed / (max(r.finished for r in records) - min(r.started for r in records))


def reloads_of(the_pass: Pass) -> List[Record]:
    """Every ``POST /reload`` a pass timed: interleaved or in the tail."""
    return [r for r in the_pass.window + the_pass.tail if r.kind == "reload"]


def end_to_end(the_pass: Pass) -> Dict[str, Tuple[float, str]]:
    """The user-visible metrics of an untraced pass.

    ``solve_p50_ms`` and ``solve_rps`` are medians over the window's
    :data:`ROUNDS` consecutive rounds, so a host slowdown over part of the
    window moves them less; the p99 and the reload median pool the whole
    run, because no round holds enough samples for them.
    """
    solves = [record for record in the_pass.window if record.kind == "solve"]
    return {
        "solve_p50_ms": (
            statistics.median([_solve_p50(part) for part in the_pass.rounds]) * 1000.0,
            "ms",
        ),
        "solve_p99_ms": (_ms([record.latency for record in solves], 99), "ms"),
        "solve_rps": (statistics.median([round_rate(part) for part in the_pass.rounds]), "1/s"),
        "setup_s": (statistics.median(the_pass.setup_seconds), "s"),
        "warm_rss_mb": (the_pass.warm_rss_mb, "MB"),
        "reload_p50_ms": (_ms([record.latency for record in reloads_of(the_pass)], 50), "ms"),
    }


def _p50_ms(values: Sequence[float]) -> float:
    """Median in ms of a layer's durations; 0 when the layer never ran."""
    return _ms(values, 50) if values else 0.0


def per_layer(
    untraced: Pass, traced: Pass, probes: Tuple[float, float]
) -> Dict[str, Tuple[float, str]]:
    """Layer metrics: outside readings of ``untraced``, spans of ``traced``."""
    metrics: Dict[str, Tuple[float, str]] = {}
    solves = [r for r in untraced.window if r.kind == "solve" and r.failure is None]
    operations = len(traced.window) + len(traced.tail)
    connects = [end - start for _, _, _, start, end, _ in traced.connects]
    metrics["client.connect_ms_p50"] = (_p50_ms(connects), "ms")
    metrics["client.connections_per_request"] = (len(connects) / operations, "count")
    # the reload p90 swings with short host slowdowns more than any
    # end-to-end bound allows, so it is reported here, ungated
    metrics["client.reload_p90_ms"] = (
        _ms([r.latency for r in reloads_of(untraced)], 90),
        "ms",
    )
    overheads = [r.latency - r.queue_seconds - r.solve_seconds for r in solves]
    queues = [r.queue_seconds for r in solves]
    metrics["server.overhead_ms_p50"] = (_ms(overheads, 50), "ms")
    metrics["server.queue_ms_p50"] = (_ms(queues, 50), "ms")
    metrics["server.queue_ms_p99"] = (_ms(queues, 99), "ms")
    # reload CPU is read around each reload and taken out
    reload_cpu = sum(r.server_cpu for r in untraced.window if r.kind == "reload")
    metrics["server.cpu_ms_per_solve"] = (
        (untraced.cpu_seconds - reload_cpu) * 1000.0 / max(1, len(solves)),
        "ms",
    )
    for name in ("solves_executed", "coalesced_hits", "rejected"):
        metrics[f"server.{name}"] = (float(untraced.counters[name]), "count")
    # the peak depends on which solver threads' malloc arenas the traffic
    # grew, which varies from run to run, so it is reported here, ungated
    metrics["server.peak_rss_mb"] = (untraced.peak_rss_mb, "MB")

    spans = traced.spans
    inside = [s for s in spans if traced.started <= s[3] <= traced.ended]
    own = self_times(inside)
    by_name: Dict[str, List[Span]] = {}
    for span in inside:
        by_name.setdefault(span[2], []).append(span)

    def durations(name: str, keep=lambda span: True) -> List[float]:
        return [s[4] - s[3] for s in by_name.get(name, []) if keep(s)]

    metrics["server.read_request_ms_p50"] = (
        _p50_ms(durations("server.read_request", lambda s: not s[5])),
        "ms",
    )
    metrics["server.json_response_ms_p50"] = (
        _p50_ms(durations("server.json_response")),
        "ms",
    )
    hashes = durations("server.content_hash")
    metrics["server.content_hash_ms_total"] = (sum(hashes) * 1000.0, "ms")
    metrics["server.content_hash_calls"] = (float(len(hashes)), "count")

    solve_ids = {s[0] for s in by_name.get("service.solve", [])}
    top = [s for s in by_name.get("service.solve", []) if s[1] not in solve_ids]
    children = {
        parent: {child[2] for child in spans_under}
        for parent, spans_under in children_of(inside).items()
    }
    # a subset query solves on its sub-session (a nested solve); a miss
    # first builds that sub-session
    lookups = [s for s in top if "service.solve" in children.get(s[0], ())]
    misses = [
        s for s in lookups if "service.for_filtered_targets" in children.get(s[0], ())
    ]
    builds = durations("service.for_filtered_targets")
    metrics["service.solve_ms_p50"] = (_p50_ms([s[4] - s[3] for s in top]), "ms")
    metrics["service.solve_ms_p99"] = (_ms([s[4] - s[3] for s in top], 99), "ms")
    metrics["service.self_ms_p50"] = (_p50_ms([own[s[0]] for s in top]), "ms")
    metrics["service.subset_lookups"] = (float(len(lookups)), "count")
    metrics["service.subset_builds"] = (float(len(builds)), "count")
    metrics["service.subset_build_ms_total"] = (sum(builds) * 1000.0, "ms")
    metrics["service.subset_hit_ratio"] = (
        1.0 - len(misses) / len(lookups) if lookups else 1.0,
        "ratio",
    )
    metrics["service.apply_delta_ms_p50"] = (
        _p50_ms(durations("service.apply_delta")),
        "ms",
    )
    startup = [s for s in spans if s[2] == "service.from_snapshot"]
    metrics["service.from_snapshot_ms"] = (
        (startup[0][4] - startup[0][3]) * 1000.0 if startup else 0.0,
        "ms",
    )
    copies = durations("motifs.state_copy")
    metrics["motifs.state_copy_ms_p50"] = (_p50_ms(copies), "ms")
    metrics["motifs.state_copies"] = (float(len(copies)), "count")
    for slug in PAPER_SLUGS:
        metrics[f"core.{slug}.runner_ms_p50"] = (
            _p50_ms(durations(f"core.{slug}.runner")),
            "ms",
        )
    metrics["core.result_to_dict_ms_p50"] = (
        _p50_ms(durations("core.result_to_dict")),
        "ms",
    )
    metrics["persistence.load_delta_ms_p50"] = (
        _p50_ms(durations("persistence.load_delta")),
        "ms",
    )
    metrics["host.probe_ms_before"] = (probes[0], "ms")
    metrics["host.probe_ms_after"] = (probes[1], "ms")
    # the two servers took the window's rounds alternately, so each
    # round's ratio compares them under the same host conditions
    metrics["trace.overhead_pct"] = (
        statistics.median(
            [
                _solve_p50(traced_part) / _solve_p50(untraced_part) - 1.0
                for untraced_part, traced_part in zip(untraced.rounds, traced.rounds)
            ]
        )
        * 100.0,
        "%",
    )
    return metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    """Plan, measure, check and report one run; returns the exit code."""
    probe_before = host_probe_ms()
    the_plan = plan(workload, seed, seconds, work)
    # the plan's reference sessions are garbage now; what survives (the
    # operations and their answers) is frozen out of the collector, so
    # no full collection over it pauses the client inside the window
    gc.collect()
    gc.freeze()
    print(f"workload {workload.name} (seed {seed}): {json.dumps(the_plan.shape)}")
    passes = run_passes(
        the_plan, work, (False, True) if trace else (False,), 1 if trace else SETUP_STARTS
    )
    probe_after = host_probe_ms()

    try:
        if trace:
            metrics = per_layer(passes[0], passes[1], (probe_before, probe_after))
        else:
            metrics = end_to_end(passes[0])
    except InsufficientSamples as error:  # failed operations thinned a sample
        print(f"  ! {error}")
        metrics = {}
    records = [record for each in passes for record in each.records]
    failures = [record.failure for record in records if record.failure]
    mismatches = [record.mismatch for record in records if record.mismatch]
    for message in (failures + mismatches)[:10]:
        print(f"  ! {message}")
    print(f"host probe: {probe_before:.3f} ms before, {probe_after:.3f} ms after")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    result = {
        "correct": not mismatches,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not mismatches and not failures else 1
