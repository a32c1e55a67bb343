"""The engine-dip32 scenario: a closed loop of ``ForwardingEngine.run``.

Two configs over the seeded Zipf DIP-32 stream at 64 B and 1500 B:
``EngineConfig()`` defaults (serial), and the scale-out config (the
process backend with one shard per CPU, shared-memory rings and the
columnar kernel).  Every run's outcomes are checked packet by packet
against ``RouterProcessor.process`` on the same node state.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Dict, List, Tuple

from repro.conformance.executors import outcome_from_result
from repro.core.processor import RouterProcessor
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.columnar import ColumnarSpecializer
from repro.workloads.throughput import dip32_state_factory, make_zipf_engine_packets
from spans import LABEL, NAME, PARENT, SpanTable

SIZES = (64, 1500)
PACKETS_PER_RUN = 4096
FLOWS = 256
REPEATS = 4


def configs(cpus: int) -> Dict[str, EngineConfig]:
    return {
        "serial": EngineConfig(),
        "parallel": EngineConfig(
            backend="process", num_shards=cpus, shm=True, columnar=True
        ),
    }


def _reference(state_factory, packets: List[bytes]) -> Dict[bytes, Tuple]:
    processor = RouterProcessor(state_factory())
    return {
        wire: tuple(outcome_from_result(processor.process(wire))[:3])
        for wire in set(packets)
    }


def _mismatches(report, packets: List[bytes], reference: Dict[bytes, Tuple]) -> int:
    bad = 0
    for wire, outcome in zip(packets, report.outcomes):
        if outcome is None or (
            outcome.decision.value, tuple(outcome.ports), outcome.packet
        ) != reference[wire]:
            bad += 1
    return bad + abs(len(packets) - len(report.outcomes))


def _build(state_factory, config: EngineConfig) -> Tuple[ForwardingEngine, float]:
    started = time.perf_counter()
    engine = ForwardingEngine(state_factory, config=config)
    engine.start()
    return engine, time.perf_counter() - started


class EngineDip32:
    """Mean pkts/s over the runs per (config, size), shard accounting,
    set-up time.

    Each :meth:`round` runs every (size, config) pair ``REPEATS`` times,
    so the configs alternate and host drift hits them alike.  The first
    round warms caches, kernels and workers and is not timed.
    """

    def __init__(self, seed: int, skew: float, checks, cpus: int):
        self.checks = checks
        self.state_factory = functools.partial(dip32_state_factory, seed=seed)
        shapes = configs(cpus)
        self.result: Dict[str, object] = {}
        # Set-up: construction plus start(), three times per config.
        setups: Dict[str, List[float]] = {name: [] for name in shapes}
        self.engines: Dict[str, ForwardingEngine] = {}
        for attempt in range(3):
            for name, config in shapes.items():
                engine, elapsed = _build(self.state_factory, config)
                setups[name].append(elapsed)
                if attempt < 2:
                    engine.close()
                else:
                    self.engines[name] = engine
        self.result["setup_s"] = sum(statistics.median(v) for v in setups.values())
        self.result["setup_by_config_s"] = {
            k: statistics.median(v) for k, v in setups.items()
        }
        self.streams = {}
        for size in SIZES:
            packets = make_zipf_engine_packets(
                packet_size=size, packet_count=PACKETS_PER_RUN,
                flow_count=FLOWS, skew=skew, seed=seed,
            )
            self.streams[size] = (packets, _reference(self.state_factory, packets))
        self.walls = {(name, size): [] for name in shapes for size in SIZES}
        self.last = {}
        self.rounds = 0

    def round(self) -> None:
        for size, (packets, reference) in self.streams.items():
            for _ in range(REPEATS):
                for name, engine in self.engines.items():
                    started = time.perf_counter()
                    report = engine.run(packets)
                    wall = time.perf_counter() - started
                    self.checks.ops(
                        len(packets), _mismatches(report, packets, reference),
                        f"{name} {size}B outcomes differ from RouterProcessor.process",
                    )
                    if self.rounds:
                        self.walls[(name, size)].append(wall)
                    self.last[(name, size)] = (report, wall)
        self.rounds += 1

    def finish(self) -> Dict[str, object]:
        result = self.result
        try:
            for (name, size), walls in self.walls.items():
                result[f"{name}_pps_{size}B"] = statistics.mean(
                    PACKETS_PER_RUN / wall for wall in walls
                )
                result[f"{name}_walls_{size}B"] = walls
            for size in SIZES:
                report, wall = self.last[("parallel", size)]
                shards = report.shards
                counts = [s.packets for s in shards]
                result[f"shards_{size}B"] = {
                    "busy_s": sum(s.busy_seconds for s in shards),
                    "utilization": statistics.mean(s.utilization for s in shards),
                    "imbalance": max(counts) / statistics.mean(counts),
                    "dispatch_s": wall - max(s.busy_seconds for s in shards),
                    "packets": counts,
                }
            result["columnar"] = _columnar_vs_batch(
                self.state_factory, self.streams[SIZES[0]][0]
            )
        finally:
            for engine in self.engines.values():
                engine.close()
        return result


def _columnar_vs_batch(state_factory, packets: List[bytes]) -> Dict[str, float]:
    """Standalone in-process kernel vs scalar batch on the same stream."""
    processor = RouterProcessor(state_factory())
    specializer = ColumnarSpecializer(processor)
    timings = {"batch": [], "columnar": []}
    for _ in range(5):
        for name, call in (("batch", processor.process_batch),
                           ("columnar", specializer.process_batch)):
            started = time.perf_counter()
            call(packets)
            timings[name].append(time.perf_counter() - started)
    batch = statistics.median(timings["batch"][1:])
    columnar = statistics.median(timings["columnar"][1:])
    return {
        "us_per_pkt": columnar / len(packets) * 1e6,
        "batch_us_per_pkt": batch / len(packets) * 1e6,
        "speedup_vs_batch": batch / columnar,
    }


def _serial_run_or_walk(row, rows) -> bool:
    """Serial ``engine.run`` spans and the batch walks under them (the
    reference walk and the standalone columnar comparison are not)."""
    if row[NAME] == "engine.run":
        return row[LABEL] == "serial"
    return row[PARENT] >= 0 and rows[row[PARENT]][NAME] == "engine.run"


def traced_layers(result: Dict[str, object], spans: Dict) -> Dict[str, float]:
    """Per-layer numbers from the serial config's spans and the
    parallel config's ShardReports."""
    table = SpanTable(spans, where=_serial_run_or_walk)
    layers = {
        "core.process_batch.us_per_pkt": table.us_per_unit("core.process_batch"),
        "core.process_batch.pkts_per_call": (
            table.work["core.process_batch"]
            / max(table.calls["core.process_batch"], 1)
        ),
        "engine.run.us_per_pkt": table.us_per_unit("engine.run"),
        "engine.run.self_us_per_pkt": table.self_us_per_unit("engine.run"),
        "engine.columnar.us_per_pkt": result["columnar"]["us_per_pkt"],
        "engine.columnar.speedup_vs_batch": result["columnar"]["speedup_vs_batch"],
    }
    for size in SIZES:
        shards = result[f"shards_{size}B"]
        for key in ("busy_s", "utilization", "imbalance"):
            layers[f"engine.shard.{key}.{size}B"] = shards[key]
        layers[f"engine.dispatch_s.{size}B"] = shards["dispatch_s"]
    return layers
