"""The fabric-golden scenario, and the closed-loop round runner.

The 10-AS ``GoldenSpec`` runs as its monolithic ``golden_netsim``
twin, and through ``golden_fabric`` with 1 process and with one
process per CPU.  Each fabric run's delivery records must equal the
twin's.  Throughput is simulated packets delivered per wall second.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

from repro.fabric import GoldenSpec, golden_fabric, golden_netsim
from spans import SpanTable

PACKETS = 1000
MODES = ("netsim", "fabric_1proc", "fabric_nproc")
#: Executions per mode per round: the in-process modes are cheap, the
#: N-process one pays for spawning its workers every time.
REPEATS = {"netsim": 2, "fabric_1proc": 2, "fabric_nproc": 1}


def _execute(spec: GoldenSpec, mode: str, cpus: int):
    """One execution; returns (records, wall seconds, report)."""
    started = time.perf_counter()
    if mode == "netsim":
        report = golden_netsim(spec)
        wall = time.perf_counter() - started
        return report["records"], wall, report
    report = golden_fabric(spec, 1 if mode == "fabric_1proc" else cpus).run()
    wall = time.perf_counter() - started
    return report.records, wall, report


def _setup_seconds(spec: GoldenSpec) -> float:
    """Building every component the fabric run would build.

    ``FabricRun.run`` builds components (in-process or in spawned
    workers) and steps them in one call, so the part before traffic
    that the public API separates is the factories themselves.
    """
    run = golden_fabric(spec, 1)
    started = time.perf_counter()
    components = {name: factory() for name, factory in run.factories.items()}
    elapsed = time.perf_counter() - started
    for component in components.values():
        close = getattr(component, "close", None)
        if close is not None:
            close()
    return elapsed


class FabricGolden:
    """Mean rate and median wall per execution mode; every run checked
    against the twin."""

    def __init__(self, seed: int, checks, cpus: int, modes=MODES) -> None:
        self.spec = GoldenSpec(seed=seed, packets=PACKETS)
        self.checks = checks
        self.cpus = cpus
        self.modes = modes
        self.result: Dict[str, object] = {
            "setup_s": statistics.median(_setup_seconds(self.spec) for _ in range(3)),
            "packets": PACKETS,
        }
        # The first netsim run pays the imports and caches every later
        # run reuses; it is the reference but is not timed.
        self.reference, _, _ = _execute(self.spec, "netsim", cpus)
        self.walls: Dict[str, List[float]] = {mode: [] for mode in modes}
        self.reports = {}
        #: (start, end) of each mode's latest execution, for its spans.
        self.windows: Dict[str, Tuple[float, float]] = {}

    def round(self) -> None:
        reference = self.reference
        for mode in self.modes:
            for _ in range(REPEATS[mode]):
                started = time.perf_counter()
                records, wall, report = _execute(self.spec, mode, self.cpus)
                self.windows[mode] = (started, time.perf_counter())
                wrong = len(set(records) ^ set(reference)) + abs(len(records) - len(reference))
                if records != reference:
                    wrong = max(wrong, 1)  # same records, another order
                self.checks.ops(len(reference), min(wrong, len(reference)),
                                f"{mode} records differ from netsim")
                self.walls[mode].append(wall)
                self.reports[mode] = report

    def finish(self) -> Dict[str, object]:
        result = self.result
        delivered = len(self.reference)
        for mode in self.modes:
            result[f"{mode}_wall_s"] = statistics.median(self.walls[mode])
            result[f"{mode}_pps"] = statistics.mean(
                delivered / wall for wall in self.walls[mode]
            )
            result[f"{mode}_runs"] = len(self.walls[mode])
            result[f"{mode}_walls"] = self.walls[mode]
        if "netsim" in self.reports:
            result["netsim_events"] = self.reports["netsim"]["counters"]["sim_events"]
        if "fabric_1proc" in self.reports:
            result["fabric_1proc_window"] = self.windows["fabric_1proc"]
            report = self.reports["fabric_1proc"]
            result["fabric_rounds"] = report.rounds
            result["fabric_messages"] = sum(report.counters.values())
        return result


def run_rounds(benches, seconds: float, min_rounds: int = 2) -> None:
    """Round-robin the benches' rounds for ``seconds``.

    Interleaving spreads every metric's samples over the whole window,
    so a slow stretch on a shared host touches all of them a little
    instead of one of them entirely.  Rates are reported as the mean
    over runs, not the median: on a shared host single runs fall into
    two speeds about 1.5x apart, and when a window holds about as many
    of each the median jumps between them while the mean moves by the
    share of fast runs.
    """
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for bench in benches:
            bench.round()
        rounds += 1


def traced_layers(
    result: Dict[str, object], untraced: Dict[str, object], spans: Dict,
) -> Dict[str, float]:
    """Per-layer numbers: spans from the traced in-process runs, walls
    from the untraced ones."""
    table = SpanTable(spans)
    # Call counts come from one execution, so they do not grow with the
    # number of rounds that fit in the run.
    one = SpanTable(spans, window=result["fabric_1proc_window"])
    runs = result["fabric_1proc_runs"]
    layers = {
        "core.decode.us_per_pkt": table.us_per_unit("core.decode"),
        "core.decode.calls": float(one.calls["core.decode"]),
        "core.process.us_per_pkt": table.us_per_unit("core.process"),
        "core.process.calls": float(one.calls["core.process"]),
        "netsim.events": float(untraced["netsim_events"]),
        "netsim.us_per_event": (
            untraced["netsim_wall_s"] / untraced["netsim_events"] * 1e6
        ),
        "fabric.rounds": float(untraced["fabric_rounds"]),
        "fabric.messages": float(untraced["fabric_messages"]),
        "dataplane.pisa.us_per_pkt": table.us_per_unit("dataplane.pisa"),
        "fabric.overhead_vs_netsim": (
            untraced["fabric_1proc_wall_s"] / untraced["netsim_wall_s"]
        ),
        "fabric.speedup_nproc": (
            untraced["fabric_1proc_wall_s"] / untraced["fabric_nproc_wall_s"]
        ),
    }
    steps = 0.0
    for kind, short in (("NetsimComponent", "netsim"),
                        ("EngineRouterComponent", "engine"),
                        ("PisaRouterComponent", "pisa")):
        busy = table.by_label[("fabric.step", kind)] / runs
        layers[f"fabric.step.busy_s.{short}"] = busy
        steps += busy
    layers["fabric.sync_self_s"] = result["fabric_1proc_wall_s"] - steps
    return layers
