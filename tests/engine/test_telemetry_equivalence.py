"""Telemetry must be observation-only: on or off, same results.

Two families:

- **processor equivalence** -- a :class:`RouterProcessor` with a live
  registry returns field-for-field identical ``ProcessResult``s
  (decision, ports, rewritten packet, notes, model cycles) across all
  five paper protocol compositions, while actually populating the
  registry;
- **engine equivalence** -- a telemetry-enabled
  :class:`ForwardingEngine` produces the same per-packet outcomes as a
  disabled one, records stage spans, and the disabled engine carries
  the falsy null objects (no spans, empty snapshot).
"""

import pytest

from repro.core.processor import RouterProcessor
from repro.dataplane.costs import CycleCostModel
from repro.engine import EngineConfig, ForwardingEngine
from repro.telemetry.metrics import MetricsRegistry
from repro.workloads.generators import (
    make_dip_ipv4_workload,
    make_dip_ipv4_zipf_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_ndn_opt_workload,
    make_opt_workload,
)
from repro.workloads.throughput import dip32_state_factory

ALL_MAKERS = [
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_opt_workload,
    make_ndn_opt_workload,
]

ROUNDS = 2
COUNT = 60


def run_both(maker):
    """(plain results, instrumented results, registry) over ROUNDS."""
    cost_model = CycleCostModel()
    plain = maker(packet_count=COUNT, seed=11, cost_model=cost_model)
    instrumented = maker(packet_count=COUNT, seed=11, cost_model=cost_model)
    registry = MetricsRegistry()
    watched = RouterProcessor(
        instrumented.processor.state,
        cost_model=cost_model,
        telemetry=registry,
    )
    plain_results, watched_results = [], []
    for round_number in range(ROUNDS):
        now = float(round_number)
        plain_results += plain.processor.process_batch(
            list(plain.packets), collect_notes=True, now=now
        )
        watched_results += watched.process_batch(
            list(instrumented.packets), collect_notes=True, now=now
        )
    return plain_results, watched_results, registry


class TestProcessorEquivalence:
    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_results_identical_with_telemetry_on(self, maker):
        plain, watched, _ = run_both(maker)
        assert watched == plain

    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_registry_actually_populated(self, maker):
        _, _, registry = run_both(maker)
        snap = registry.snapshot()
        ops = {
            name: value
            for name, value in snap.counters.items()
            if name.startswith("processor_fn_ops_total")
        }
        assert sum(ops.values()) > 0
        decisions = sum(
            value
            for name, value in snap.counters.items()
            if name.startswith("processor_decisions_total")
        )
        assert decisions == ROUNDS * COUNT
        cycles = snap.histograms["processor_fn_cycles"]
        assert cycles.count == ROUNDS * COUNT

    def test_cycle_histogram_mean_matches_results(self):
        plain, _, registry = run_both(make_dip_ipv4_workload)
        cycles = registry.snapshot().histograms["processor_fn_cycles"]
        assert cycles.sum == pytest.approx(
            sum(result.cycles for result in plain)
        )

    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_process_records_like_a_batch_of_one(self, maker):
        """``process(p)`` moves the walk counters exactly as
        ``process_batch([p])`` does: it is a batch of one."""

        def recorded(run_one):
            cost_model = CycleCostModel()
            workload = maker(packet_count=COUNT, seed=11, cost_model=cost_model)
            registry = MetricsRegistry()
            processor = RouterProcessor(
                workload.processor.state,
                cost_model=cost_model,
                telemetry=registry,
            )
            for packet in workload.packets:
                run_one(processor, packet)
            snap = registry.snapshot()
            cycles = snap.histograms["processor_fn_cycles"]
            counters = {
                name: value
                for name, value in snap.counters.items()
                if name.startswith(
                    ("processor_decisions_total", "processor_fn_ops_total")
                )
            }
            return counters, (cycles.count, cycles.sum)

        single = recorded(lambda processor, packet: processor.process(packet))
        batch = recorded(
            lambda processor, packet: processor.process_batch([packet])
        )
        assert single == batch
        counters, (count, _) = single
        assert count == COUNT
        assert sum(
            value
            for name, value in counters.items()
            if name.startswith("processor_decisions_total")
        ) == COUNT
        assert any(
            name.startswith("processor_fn_ops_total") for name in counters
        )


class TestEngineEquivalence:
    def packets(self):
        return [
            packet.encode()
            for packet in make_dip_ipv4_zipf_workload(
                packet_count=250, seed=3
            ).packets
        ]

    def run_engine(self, telemetry, flow_cache=False):
        engine = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(
                num_shards=3, telemetry=telemetry, flow_cache=flow_cache
            ),
        )
        return engine, engine.run(self.packets())

    def test_outcomes_identical(self):
        _, plain = self.run_engine(telemetry=False)
        _, watched = self.run_engine(telemetry=True)
        assert watched.outcomes == plain.outcomes
        assert watched.decisions == plain.decisions

    def test_outcomes_identical_with_flow_cache(self):
        _, plain = self.run_engine(telemetry=False, flow_cache=True)
        _, watched = self.run_engine(telemetry=True, flow_cache=True)
        assert watched.outcomes == plain.outcomes
        assert watched.flow_cache.as_dict() == plain.flow_cache.as_dict()

    def test_enabled_engine_records_everything(self):
        engine, report = self.run_engine(telemetry=True, flow_cache=True)
        snap = engine.metrics.snapshot()
        assert snap.counters["engine_packets_processed_total"] == 250
        latency = snap.histograms["engine_batch_latency_seconds"]
        assert latency.count == sum(shard.batches for shard in report.shards)
        # Quantiles from the histogram agree with the report's
        # nearest-rank values to within one log2 bucket.
        assert latency.quantile(0.99) >= report.batch_latency_p50
        assert snap.counters["flowcache_misses_total"] > 0
        span_names = {span.name for span in engine.tracer.spans}
        assert {"engine.run", "shard.walk", "shard.emit"} <= span_names

    def test_disabled_engine_is_null(self):
        engine, _ = self.run_engine(telemetry=False)
        assert not engine.metrics
        assert not engine.tracer
        assert len(engine.tracer) == 0
        assert engine.metrics.snapshot().counters == {}

    def test_second_run_accumulates(self):
        engine, _ = self.run_engine(telemetry=True)
        engine.run(self.packets())
        snap = engine.metrics.snapshot()
        assert snap.counters["engine_packets_processed_total"] == 500
