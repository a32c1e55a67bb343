"""Tests for the benchmark's own logic: reply matching, the rate
ladder, span self time, and the metric map.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import json
import math
import os

import pytest

from loadgen import FifoMatcher, geometric_ladder, nearest_rank, search_max_rate
from repro.serve.core import SHED_REPLY, encode_reply
from serve_bench import Checks
from spans import SpanRecorder, SpanTable, install, self_times, traced

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
OK = encode_reply("forward", (3,), b"pkt")
DELIVER = encode_reply("deliver")


# ----------------------------------------------------------------------
# FIFO matching
# ----------------------------------------------------------------------
def test_fifo_matching_with_interleaved_refusals():
    # Daemon with room for two queued packets: s2 and s4 arrive to a
    # full queue and are refused at once; queued ones are answered in
    # arrival order by later flushes.
    m = FifoMatcher()
    m.sent(0.000)  # s0 queued
    m.sent(0.001)  # s1 queued
    m.sent(0.002)  # s2 refused on arrival
    m.reply(SHED_REPLY, 0.0025)
    m.reply(OK, 0.010)  # flush: s0
    m.reply(DELIVER, 0.011)  # flush: s1
    m.sent(0.003)  # s3 queued
    m.sent(0.004)  # s4 refused
    m.reply(SHED_REPLY, 0.0045)
    m.reply(OK, 0.020)  # s3
    m.sent(0.005)  # s5 queued
    m.reply(OK, 0.030)  # s5
    assert m.refused == 2
    assert m.lost == 0
    assert m.latencies == pytest.approx([0.010, 0.010, 0.017, 0.025])
    assert m.dues == pytest.approx([0.000, 0.001, 0.003, 0.005])


def test_fifo_counts_lost_undecodable_and_stray_replies():
    m = FifoMatcher()
    m.reply(OK, 0.0)  # nothing outstanding: a stray reply
    for due in (0.0, 0.1, 0.2, 0.3):
        m.sent(due)
    m.reply(b"\x01", 0.5)  # too short to decode: takes the oldest send
    m.reply(OK, 0.6)
    assert m.undecodable == 1
    assert m.unexpected == 1
    assert m.latencies == pytest.approx([0.5])
    assert m.lost == 2


# ----------------------------------------------------------------------
# ladder
# ----------------------------------------------------------------------
def test_geometric_ladder_steps_stay_within_ratio():
    rates = geometric_ladder(2000.0, 32000.0, 1.08)
    assert rates[0] == 2000.0
    assert rates[-1] <= 32000.0 * (1 + 1e-9) < rates[-1] * 1.08
    for low, high in zip(rates, rates[1:]):
        assert high / low == pytest.approx(1.08)
    with pytest.raises(ValueError):
        geometric_ladder(10.0, 5.0, 1.1)


@pytest.mark.parametrize("capacity", [1000.0, 2000.0, 5000.0, 9999.0, 31000.0, 1e9])
def test_search_finds_highest_passing_rung(capacity):
    rates = geometric_ladder(2000.0, 32000.0, 1.08)
    probes = []

    def probe(rate):
        probes.append(rate)
        return rate <= capacity

    best, history = search_max_rate(rates, probe)
    passing = [r for r in rates if r <= capacity]
    assert best == (passing[-1] if passing else None)
    # Bisection: few distinct rungs; each failing rung probed twice.
    assert len(set(probes)) <= math.ceil(math.log2(len(rates) + 1))
    for rate in set(probes):
        assert probes.count(rate) == (1 if rate <= capacity else 2)
    assert [rate for rate, _ in history] == probes


def test_search_confirms_failures_before_moving_down():
    rates = geometric_ladder(1000.0, 16000.0, 1.1)
    hiccups = {rates[len(rates) // 2]}  # one spurious failure

    def probe(rate):
        if rate in hiccups:
            hiccups.discard(rate)
            return False
        return rate <= 9000.0

    best, history = search_max_rate(rates, probe)
    assert best == max(r for r in rates if r <= 9000.0)
    failed_rates = [rate for rate, ok in history if not ok]
    # Every real failure was probed twice.
    for rate in set(failed_rates):
        if rate > 9000.0:
            assert failed_rates.count(rate) == 2


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([], 0.5) == 0.0


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def row(name, start, end, parent, count=1, label=None):
    return [name, start, end, parent, 0, count, label]


def test_self_time_nested_spans():
    spans = [
        row("root", 0.0, 10.0, -1),
        row("child", 2.0, 8.0, 0),
        row("grandchild", 3.0, 4.0, 1),
        row("leaf", 8.5, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 6 - 0.5, 6 - 1, 1, 0.5])


def test_self_time_overlapping_and_clipped_children():
    # Two threads' children overlap under one parent and one runs past
    # the parent's end: the union inside the parent is subtracted once.
    spans = [
        row("parent", 0.0, 10.0, -1),
        row("a", 1.0, 3.0, 0),
        row("b", 2.0, 5.0, 0),
        row("c", 8.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10 - 4 - 2)


def test_span_table_window_and_per_unit():
    spans = {"spans": [
        row("flush", 0.0, 1.0, -1, count=10),
        row("walk", 0.2, 0.6, 0, count=10),
        row("flush", 5.0, 5.5, -1, count=5),
    ]}
    table = SpanTable(spans)
    assert table.calls["flush"] == 2
    assert table.us_per_unit("flush") == pytest.approx(1.5 / 15 * 1e6)
    assert table.self_us_per_unit("flush") == pytest.approx(1.1 / 15 * 1e6)
    windowed = SpanTable(spans, window=(4.0, 6.0))
    assert windowed.calls["flush"] == 1
    assert windowed.work["walk"] == 0


def test_traced_wrappers_link_parents_and_share_ids():
    recorder = SpanRecorder()

    def inner(x):
        return x + 1

    traced_inner = traced(recorder, "inner", inner)

    def outer(x):
        return traced_inner(x) * 2

    traced_outer = traced(recorder, "outer", outer, count=lambda args, r: args[0])
    assert traced_outer(3) == 8
    assert traced_outer(4) == 10
    rows = recorder.export()["spans"]
    assert [r[0] for r in rows] == ["outer", "inner", "outer", "inner"]
    assert [r[3] for r in rows] == [-1, 0, -1, 2]
    assert rows[0][4] == rows[1][4] != rows[2][4] == rows[3][4]
    assert [r[5] for r in rows] == [3, 1, 4, 1]
    for own, r in zip(self_times(rows), rows):
        assert 0.0 <= own <= r[2] - r[1]


def test_install_restores_every_entry_point():
    from repro.core.packet import DipPacket
    from repro.core.processor import RouterProcessor
    from repro.serve import core as serve_core

    before = (DipPacket.__dict__["decode"], RouterProcessor.process,
              serve_core.encode_reply)
    recorder = SpanRecorder()
    uninstall = install(recorder)
    try:
        assert RouterProcessor.process is not before[1]
        assert serve_core.encode_reply("drop") == bytes((3, 0))
    finally:
        uninstall()
    after = (DipPacket.__dict__["decode"], RouterProcessor.process,
             serve_core.encode_reply)
    assert after == before
    assert [r[0] for r in recorder.export()["spans"]] == ["serve.encode_reply"]


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
def test_counted_failures_of_a_check_fail_the_run():
    checks = Checks()
    assert checks.ops(100, 0, "walk")
    assert checks.check(True, "ledger")
    assert not checks.problems
    assert not checks.ops(100, 3, "walk differs")
    assert checks.problems == ["walk differs (3 of 100)"]
    # Load that may go unanswered counts but is not a failed check.
    assert not checks.ops(50, 2, None)
    assert (checks.attempted, checks.failed, len(checks.problems)) == (251, 5, 1)


def test_engine_mismatch_makes_main_exit_1(monkeypatch, capsys):
    import engine_bench
    import run

    monkeypatch.setattr(engine_bench, "PACKETS_PER_RUN", 64)
    monkeypatch.setattr(engine_bench, "REPEATS", 1)
    monkeypatch.setenv("TMPDIR", os.environ.get("TMPDIR", "/tmp"))
    reference = engine_bench._reference

    def corrupted(state_factory, packets):
        return {wire: ("corrupt",) + outcome[1:]
                for wire, outcome in reference(state_factory, packets).items()}

    monkeypatch.setattr(engine_bench, "_reference", corrupted)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [m["name"] for m in json.load(handle)["end_to_end"]]

    def engine_only(args, skew, cpus, checks):
        bench = engine_bench.EngineDip32(args.seed, skew, checks, 1)
        bench.round()  # warm-up round
        bench.round()
        bench.finish()
        return {name: 1.0 for name in names}, {}

    monkeypatch.setattr(run, "end_to_end", engine_only)
    assert run.main(["--workload", "zipf", "--seed", "1", "--seconds", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0


# ----------------------------------------------------------------------
# process clean-up
# ----------------------------------------------------------------------
def test_stop_children_ends_workers_daemons_and_the_resource_tracker():
    import subprocess
    import sys
    import time
    from multiprocessing import resource_tracker, shared_memory

    import run

    # A segment starts the tracker; a worker forked after it holds the
    # tracker's pipe, so the tracker can only end after the worker.
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    tracker = resource_tracker._resource_tracker._pid
    worker = os.fork()
    if worker == 0:  # pragma: no cover - the child
        time.sleep(60)
        os._exit(0)
    daemon = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    started = time.monotonic()
    run.stop_children()
    assert time.monotonic() - started < 5
    for pid in (tracker, worker, daemon.pid):
        assert run._state(pid) is None
    assert run._descendants(os.getpid()) == []


# ----------------------------------------------------------------------
# the metric map
# ----------------------------------------------------------------------
def test_layer_map_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "layers.json"), encoding="utf-8") as handle:
        layers = json.load(handle)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    reported = set()
    for group in layers["reported"]:
        assert group["because"]
        reported |= set(group["metrics"])
    assert not end_to_end & reported
    assert [m["name"] for m in bench["per_layer"]] == list(layers["per_layer"])
    for name, entry in layers["per_layer"].items():
        assert name.startswith(entry["scenario"] + ".")
        assert entry["scenario"] in layers["scenarios"]
        assert set(entry["moves"]) <= end_to_end | reported
    covered = set()
    for scenario in layers["scenarios"].values():
        assert scenario["loads"] and scenario["bypasses"]
        assert scenario["setup"] and scenario["failed"] and scenario["checks"]
        assert set(scenario.get("reported", ())) <= reported
        covered |= set(scenario["end_to_end"])
    assert covered == end_to_end
