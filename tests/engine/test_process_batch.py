"""process_batch must be *fully* result-identical to the reference.

The batch fast path caches per-program work (FN decode, dispatch,
parallelism analysis, cycle sums); these tests prove the caching is
invisible: every field of every ProcessResult -- decision, ports,
rewritten packet, notes, cycles, scratch -- matches the independent
Algorithm 1 walker, :class:`ReferenceInterpreter`, across cost models,
resource limits, registries, raw and decoded inputs, and randomly
generated FN programs.
"""

import random

import pytest

from repro.conformance.reference import ReferenceInterpreter
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.limits import ProcessingLimits
from repro.core.operations.match import Match32Operation
from repro.core.packet import DipPacket
from repro.core.processor import Decision, RouterProcessor
from repro.core.registry import default_registry
from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.errors import ReproError
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_interest_packet, name_digest
from repro.workloads.generators import make_dip_ipv4_workload


def make_state(limits=None):
    state = NodeState(node_id="pb")
    state.fib_v4.insert(0x0A000000, 8, 2)
    state.name_fib_digest.insert(name_digest("/pb"), 32, 4)
    if limits is not None:
        state.limits = limits
    return state


def outcome(call):
    """A call's result, or its library exception (type + message)."""
    try:
        return call()
    except ReproError as exc:
        return ("raised", type(exc), str(exc))


def assert_identical(packets, limits=None, cost_model=None, registry=None):
    """The reference, process() and process_batch() agree, fully."""
    ref = ReferenceInterpreter(
        make_state(limits), registry=registry, cost_model=cost_model
    )
    one = RouterProcessor(
        make_state(limits), registry=registry, cost_model=cost_model
    )
    bat = RouterProcessor(
        make_state(limits), registry=registry, cost_model=cost_model
    )
    for packet in packets:
        expected = outcome(lambda: ref.process(packet))
        assert outcome(lambda: one.process(packet)) == expected, (
            f"process() mismatch for {packet!r}"
        )
        got = outcome(
            lambda: bat.process_batch([packet], collect_notes=True)[0]
        )
        assert got == expected, f"mismatch for {packet!r}"


class TestDip32Workload:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_dip_ipv4_workload(packet_count=150, seed=11)

    @pytest.mark.parametrize("cost_model", [None, CycleCostModel()])
    @pytest.mark.parametrize("raw", [False, True])
    def test_full_equality(self, workload, cost_model, raw):
        from repro.workloads.throughput import dip32_state_factory

        packets = [p.encode() if raw else p for p in workload.packets]
        # the workload's own FIB (same seed), so LPM hits and misses mix
        ref = ReferenceInterpreter(
            dip32_state_factory(seed=11), cost_model=cost_model
        )
        bat = RouterProcessor(
            dip32_state_factory(seed=11), cost_model=cost_model
        )
        expected = [ref.process(p) for p in packets]
        got = bat.process_batch(packets, collect_notes=True)
        assert got == expected

    def test_batch_without_notes_matches_everything_else(self, workload):
        from repro.workloads.throughput import dip32_state_factory

        ref = ReferenceInterpreter(dip32_state_factory(seed=11))
        bat = RouterProcessor(dip32_state_factory(seed=11))
        for p, expected in zip(
            workload.packets, [ref.process(p) for p in workload.packets]
        ):
            got = bat.process_batch([p])[0]
            assert got.decision == expected.decision
            assert got.ports == expected.ports
            assert got.packet == expected.packet
            assert got.cycles == expected.cycles


class TestEdgeFates:
    def test_no_route_drop(self):
        assert_identical([build_ipv4_packet(0x7F000001, 1)])

    def test_hop_limit_zero(self):
        assert_identical([build_ipv4_packet(0x0A000001, 1, hop_limit=0)])

    def test_hop_limit_one_forwards_to_zero(self):
        assert_identical([build_ipv4_packet(0x0A000001, 1, hop_limit=1)])

    def test_default_port_fallback(self):
        state_ref, state_bat = make_state(), make_state()
        state_ref.default_port = state_bat.default_port = 9
        header = DipHeader(
            fns=(FieldOperation(0, 32, OperationKey.SOURCE),),
            locations=bytes(4),
        )
        packet = DipPacket(header=header)
        expected = ReferenceInterpreter(state_ref).process(packet)
        got = RouterProcessor(state_bat).process_batch(
            [packet], collect_notes=True
        )[0]
        assert got == expected
        assert got.ports == (9,)

    def test_no_decision_drop(self):
        header = DipHeader(
            fns=(FieldOperation(0, 32, OperationKey.SOURCE),),
            locations=bytes(4),
        )
        assert_identical([DipPacket(header=header)])

    def test_host_tagged_skipped(self):
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.MATCH_32),
                FieldOperation(32, 32, OperationKey.VERIFY, tag=True),
            ),
            locations=(0x0A000001).to_bytes(4, "big") + bytes(4),
        )
        assert_identical([DipPacket(header=header)])

    def test_field_out_of_range(self):
        header = DipHeader(
            fns=(FieldOperation(0, 32, OperationKey.MATCH_32),),
            locations=bytes(2),  # 16 bits < the FN's 32
        )
        assert_identical([DipPacket(header=header)])


class TestLimits:
    def test_fn_count_limit(self):
        assert_identical(
            [build_ipv4_packet(0x0A000001, 1)],
            limits=ProcessingLimits(max_fn_count=1),
        )

    def test_cycle_budget_parse_only(self):
        assert_identical(
            [build_ipv4_packet(0x0A000001, 1)],
            limits=ProcessingLimits(max_cycles=1),
            cost_model=CycleCostModel(),
        )

    def test_cycle_budget_mid_walk(self):
        # enough for the parse, not for every FN
        packet = build_ipv4_packet(0x0A000001, 1)
        model = CycleCostModel()
        parse = model.parse_cycles(packet.header.header_length, packet.size)
        assert_identical(
            [packet],
            limits=ProcessingLimits(max_cycles=parse + 1),
            cost_model=model,
        )

    def test_state_budget(self):
        assert_identical(
            [build_interest_packet("/pb"), build_interest_packet("/other")],
            limits=ProcessingLimits(max_state_bytes=1),
        )


class TestHeterogeneousRegistry:
    def test_path_critical_unsupported(self):
        registry = default_registry().restricted(
            [OperationKey.MATCH_32, OperationKey.SOURCE]
        )
        packet = build_ipv4_packet(0x0A000001, 1)
        header = DipHeader(
            fns=packet.header.fns
            + (FieldOperation(0, 0, OperationKey.MAC),),
            locations=packet.header.locations,
        )
        assert_identical([DipPacket(header=header)], registry=registry)

    def test_unknown_key_ignored(self):
        packet = build_ipv4_packet(0x0A000001, 1)
        header = DipHeader(
            fns=packet.header.fns + (FieldOperation(0, 0, 4099),),
            locations=packet.header.locations,
        )
        assert_identical([DipPacket(header=header)])

    def test_registry_mutation_invalidates_cache(self):
        processor = RouterProcessor(make_state())
        packet = build_ipv4_packet(0x0A000001, 1)
        assert (
            processor.process_batch([packet])[0].decision is Decision.FORWARD
        )
        processor.registry.unregister(OperationKey.MATCH_32)
        after = processor.process_batch([packet], collect_notes=True)[0]
        # MATCH_32 is not path-critical: now silently ignored, and with
        # no other forwarding FN the packet drops.
        assert after == ReferenceInterpreter(
            make_state(), registry=processor.registry
        ).process(packet)
        processor.registry.register(Match32Operation())
        again = processor.process_batch([packet])[0]
        assert again.decision is Decision.FORWARD


class TestRandomPrograms:
    def test_random_fn_programs_fully_identical(self):
        rng = random.Random(2024)
        keys = [int(k) for k in OperationKey] + [21, 22, 500]
        packets = []
        for _ in range(120):
            fn_count = rng.randint(0, 5)
            loc_len = rng.choice([0, 4, 8, 16, 32])
            fns = tuple(
                FieldOperation(
                    field_loc=rng.randrange(0, max(loc_len * 8, 1) + 8),
                    field_len=rng.choice([0, 8, 16, 32, 128]),
                    key=rng.choice(keys),
                    tag=rng.random() < 0.2,
                )
                for _ in range(fn_count)
            )
            header = DipHeader(
                fns=fns,
                locations=bytes(
                    rng.getrandbits(8) for _ in range(loc_len)
                ),
                hop_limit=rng.choice([0, 1, 64]),
                parallel=rng.random() < 0.5,
            )
            packet = DipPacket(
                header=header, payload=bytes(rng.getrandbits(8) for _ in range(4))
            )
            packets.append(packet if rng.random() < 0.5 else packet.encode())
        for cost_model in (None, CycleCostModel()):
            assert_identical(packets, cost_model=cost_model)
