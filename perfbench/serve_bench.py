"""The serve-ndn and serve-overload scenarios.

Each daemon is ``repro serve`` with its defaults (ports and seed
aside) in a process of its own; the benchmark process is the only
load generator.  Set-up time is daemon spawn until ``/healthz``
answers.  After every phase the daemon's ledger is read back and
reconciled with what the generator counted.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from loadgen import (
    Phase, drain, geometric_ladder, nearest_rank, open_socket, run_phase,
    search_max_rate,
)
from repro.serve.client import build_load
from spans import SpanTable

HOST = "127.0.0.1"
LIGHT_PPS = 2000.0
HEAVY_PPS = 6000.0
OVERLOAD_PPS = 40000.0
P99_LIMIT_MS = 20.0
LADDER_LOW, LADDER_HIGH, LADDER_RATIO = 2000.0, 32000.0, 1.08
LOAD_PACKETS = 20000
#: Latency percentiles are taken per slice of this many seconds (by due
#: time) and the median slice is reported.
WINDOW_S = 0.5
CLK_TCK = os.sysconf("SC_CLK_TCK")


class Checks:
    """Correctness checks and operation counts for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def ops(self, attempted: int, failed: int, what: Optional[str]) -> bool:
        """Count ``attempted`` operations of which ``failed`` went wrong.

        ``what`` names the check they form: any failure records it as a
        problem, which fails the run.  ``None`` is only for load that
        may go unanswered without the program being wrong (serve loss),
        which counts toward ``failed`` but is not a failed check.
        """
        self.attempted += attempted
        self.failed += failed
        if failed and what is not None:
            self.problems.append(f"{what} ({failed} of {attempted})")
        return not failed

    def check(self, ok: bool, what: str) -> bool:
        return self.ops(1, 0 if ok else 1, what)


def _free_port(kind: int) -> int:
    with socket.socket(socket.AF_INET, kind) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def cpu_split() -> Tuple[Optional[set], Optional[set]]:
    """(daemon CPUs, generator CPUs): the generator gets the last CPU
    this process may use and the daemon the rest, so the generator
    never takes the daemon's CPU time.  One CPU: no split."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return set(allowed[:-1]), {allowed[-1]}


@contextlib.contextmanager
def pinned(cpus: Optional[set]):
    """Run the generator (this process) on ``cpus``, then restore."""
    before = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Daemon:
    """One ``repro serve`` process, traced or not, on ``cpus``."""

    def __init__(
        self, root: str, seed: int, spans_path: Optional[str],
        cpus: Optional[set] = None,
    ) -> None:
        self.port = _free_port(socket.SOCK_DGRAM)
        self.metrics_port = _free_port(socket.SOCK_STREAM)
        self.spans_path = spans_path
        serve_args = [
            "--port", str(self.port),
            "--metrics-port", str(self.metrics_port),
            "--seed", str(seed), "--json",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [
                sys.executable,
                os.path.join(root, "perfbench", "serve_launcher.py"),
                "--spans", spans_path, *serve_args,
            ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")]
        )
        started = time.perf_counter()
        # Affinity is set before exec so every daemon thread inherits it.
        self.proc = subprocess.Popen(
            command, cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        deadline = started + 60.0
        while True:
            try:
                self.healthz()
                break
            except OSError:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    self.stop()
                    raise RuntimeError("serve daemon did not come up")
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def healthz(self) -> Dict[str, object]:
        conn = http.client.HTTPConnection(HOST, self.metrics_port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def settle(self, timeout: float = 5.0) -> Dict[str, object]:
        """Wait until the daemon has nothing pending; returns /healthz."""
        deadline = time.perf_counter() + timeout
        while True:
            health = self.healthz()
            if health["pending"] == 0 or time.perf_counter() > deadline:
                return health
            time.sleep(0.01)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def stop(self) -> Dict[str, object]:
        """SIGTERM, wait for the drain, return the final ledger."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        try:
            return json.loads(out)
        except ValueError:
            return {}


def read_spans(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Client:
    """A daemon, a socket and a position in the seeded load."""

    def __init__(self, daemon: Daemon, packets: List[bytes], checks: Checks) -> None:
        self.daemon = daemon
        self.packets = packets
        self.checks = checks
        self.sock = open_socket(HOST, daemon.port)
        self.offset = 0
        self.health = daemon.healthz()

    def close(self) -> None:
        self.sock.close()

    def phase(self, rate: float, seconds: float, idle: float = 0.25) -> Tuple[Phase, Dict]:
        """One open-loop phase, reconciled with the daemon's ledger.

        Returns the phase and the ledger deltas over it, plus the
        daemon's CPU seconds spent in it.
        """
        before = self.health
        cpu0 = self.daemon.cpu_seconds()
        phase = run_phase(self.sock, self.packets, self.offset, rate, seconds, idle)
        self.offset += phase.sent
        after = self.daemon.settle()
        # Replies to packets still queued when collection gave up were
        # sent before /healthz could report the queue empty.
        drain(self.sock, phase.matcher)
        cpu = self.daemon.cpu_seconds() - cpu0
        self.health = after
        delta = {
            key: after[key] - before[key]
            for key in ("offered", "processed", "shed", "flushes")
        }
        delta["daemon_cpu_s"] = cpu
        for kind in ("hits", "bypasses", "misses"):
            delta[f"cache_{kind}"] = (after["flow_cache"] or {}).get(kind, 0) - (
                before["flow_cache"] or {}
            ).get(kind, 0)
        answered = phase.answered + phase.refused + phase.undecodable
        check = self.checks.check
        check(phase.undecodable == 0 and phase.unexpected == 0,
              f"undecodable or stray replies at {rate:.0f} pkts/s")
        check(after["unaccounted"] == 0, "daemon ledger unaccounted != 0")
        check(after["pending"] == 0, "daemon did not drain")
        # Reconcile: every datagram the daemon saw was answered once;
        # the rest of what was sent never reached it.
        check(delta["offered"] == answered,
              f"daemon offered {delta['offered']} != replies {answered}")
        check(phase.sent - delta["offered"] == phase.lost,
              "sent - offered != lost")
        return phase, delta


def _phase_row(phase: Phase, delta: Dict) -> Dict[str, object]:
    p50, slices = phase.windowed_ms(0.50, WINDOW_S)
    p99, _ = phase.windowed_ms(0.99, WINDOW_S)
    return {
        "rate_pps": phase.rate,
        "sent": phase.sent,
        "answered": phase.answered,
        "lost": phase.lost,
        "refused": phase.refused,
        "undecodable": phase.undecodable,
        "p50_ms": p50,
        "p99_ms": p99,
        "samples": phase.answered,
        "slices": slices,
        "whole_p50_ms": phase.percentile_ms(0.50),
        "whole_p99_ms": phase.percentile_ms(0.99),
        "max_late_ms": phase.max_late * 1e3,
        "client_cpu_util": phase.client_cpu,
        "daemon_cpu_s": delta["daemon_cpu_s"],
        "daemon_offered": delta["offered"],
        "daemon_shed": delta["shed"],
        "daemon_flushes": delta["flushes"],
        "elapsed_s": phase.elapsed,
    }


@contextlib.contextmanager
def _client(root, seed, skew, checks, spans_path, result, name):
    """A fresh daemon on its CPUs, the generator on its own, and the
    daemon's final ledger checked once it has drained and stopped."""
    daemon_cpus, client_cpus = cpu_split()
    packets = build_load(LOAD_PACKETS, seed=seed, skew=skew)
    daemon = Daemon(root, seed, spans_path, cpus=daemon_cpus)
    result["setup_s"] = daemon.setup_s
    try:
        with pinned(client_cpus):
            client = Client(daemon, packets, checks)
            try:
                client.phase(LIGHT_PPS, 0.5)  # warm-up, not reported
                yield client
            finally:
                client.close()
    finally:
        result["final_ledger"] = daemon.stop()
    checks.check(result["final_ledger"].get("unaccounted") == 0,
                 f"final {name} ledger unaccounted != 0")


def serve_ndn(
    root: str,
    seed: int,
    skew: float,
    seconds: float,
    checks: Checks,
    spans_path: Optional[str] = None,
    ladder: bool = True,
) -> Dict[str, object]:
    """Light and heavy fixed rates, then the rate ladder, on one daemon."""
    result: Dict[str, object] = {}
    phases = result["phases"] = {}
    with _client(root, seed, skew, checks, spans_path, result, "serve-ndn") as client:
        for name, rate in (("light", LIGHT_PPS), ("heavy", HEAVY_PPS)):
            phase, delta = client.phase(rate, 0.1 * seconds)
            # A traced daemon is slower by the tracing overhead; packets
            # it loses are not counted against the program.
            # Undecodable replies already failed a check in Client.phase.
            checks.ops(phase.sent,
                       phase.failed if spans_path is None else phase.undecodable, None)
            phases[name] = (phase, delta)
            result[name] = _phase_row(phase, delta)
        if ladder:
            probes = result["ladder"] = []

            def probe(rate: float) -> bool:
                phase, delta = client.phase(rate, 0.025 * seconds, idle=0.15)
                row = _phase_row(phase, delta)
                row["passed"] = (
                    phase.failed == 0 and row["whole_p99_ms"] <= P99_LIMIT_MS
                )
                probes.append(row)
                return row["passed"]

            rates = geometric_ladder(LADDER_LOW, LADDER_HIGH, LADDER_RATIO)
            best, _ = search_max_rate(rates, probe)
            result["max_rate_pps"] = best or 0.0
    return result


def serve_overload(
    root: str,
    seed: int,
    skew: float,
    seconds: float,
    checks: Checks,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """A fresh daemon offered the same mix at OVERLOAD_PPS."""
    result: Dict[str, object] = {}
    with _client(root, seed, skew, checks, spans_path, result, "serve-overload") as client:
        phase, delta = client.phase(OVERLOAD_PPS, 0.1 * seconds, idle=0.5)
        # Loss here is the measurement, not a failure: only the reply
        # and ledger checks in Client.phase count against the run.
        checks.ops(phase.answered + phase.undecodable, phase.undecodable, None)
        row = _phase_row(phase, delta)
        # Refusals make matched latencies unreliable (see FifoMatcher).
        for key in ("p50_ms", "p99_ms", "whole_p50_ms", "whole_p99_ms",
                    "samples", "slices"):
            del row[key]
        row["goodput_pps"] = phase.answered / phase.elapsed
        row["recv_frac"] = delta["offered"] / phase.sent
        row["shed_frac"] = delta["shed"] / max(delta["offered"], 1)
        result["overload"] = row
        result["phases"] = {"overload": (phase, delta)}
    return result


def traced_layers(result: Dict[str, object], phase_name: str, spans: Dict) -> Dict[str, float]:
    """Per-layer numbers for one phase from the daemon's spans."""
    phase, delta = result["phases"][phase_name]
    table = SpanTable(spans, window=(phase.start, phase.end))
    core_s = table.total["serve.submit"] + table.total["serve.flush"]
    cpu = delta["daemon_cpu_s"]
    cache_seen = delta["cache_hits"] + delta["cache_bypasses"] + delta["cache_misses"]
    depth = [
        d for d, t in zip(spans["samples"].get("serve.queue.depth", []),
                          [r[1] for r in spans["spans"] if r[0] == "serve.flush"])
        if phase.start <= t <= phase.end
    ]
    return {
        "core.process_batch.us_per_pkt": table.us_per_unit("core.process_batch"),
        "core.process_batch.pkts_per_call": (
            table.work["core.process_batch"] / max(table.calls["core.process_batch"], 1)
        ),
        "core.flowcache.hit_ratio": delta["cache_hits"] / max(cache_seen, 1),
        "core.flowcache.bypass_ratio": delta["cache_bypasses"] / max(cache_seen, 1),
        "engine.run.us_per_pkt": table.us_per_unit("engine.run"),
        "engine.run.self_us_per_pkt": table.self_us_per_unit("engine.run"),
        "serve.submit.us_per_pkt": table.us_per_unit("serve.submit"),
        "serve.flush.calls": float(table.calls["serve.flush"]),
        "serve.flush.pkts_per_call": (
            table.work["serve.flush"] / max(table.calls["serve.flush"], 1)
        ),
        "serve.flush.self_us_per_pkt": table.self_us_per_unit("serve.flush"),
        "serve.encode_reply.us_per_pkt": table.us_per_unit("serve.encode_reply"),
        "serve.queue.depth_p99": float(nearest_rank(depth, 0.99)),
        "serve.shed_frac": delta["shed"] / max(delta["offered"], 1),
        "serve.daemon.recv_frac": delta["offered"] / max(phase.sent, 1),
        "serve.daemon.cpu_util": cpu / max(phase.end - phase.start, 1e-9),
        "serve.daemon.outside_core_frac": max(0.0, cpu - core_s) / cpu if cpu > 0 else 0.0,
        "client.cpu_util": phase.client_cpu,
        "client.max_late_ms": phase.max_late * 1e3,
    }
