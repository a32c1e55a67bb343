"""The fuzzer is deterministic, the shrinker minimizes, the loop bounds.

Replayability is the whole point of a seeded fuzzer: the same
``(scenario, seed, case_index)`` triple must produce byte-identical
wires forever, or a CI find could never be reproduced locally.  The
shrinker tests use a sabotaged executor with a known trigger byte so
the minimal repro is predictable exactly.
"""

import random

from repro.conformance import Scenario, fuzz_wires, run_fuzz, shrink_case
from repro.conformance.executors import WireOutcome
from repro.conformance.fuzzer import MUTATIONS, _limit_violating_wire
from repro.conformance.scenarios import scenario_wires

from tests.conformance.support import mutant_spec


class TestFuzzWires:
    def test_deterministic_per_triple(self):
        assert fuzz_wires("ip", 3, 2, 20) == fuzz_wires("ip", 3, 2, 20)

    def test_distinct_cases_draw_distinct_wires(self):
        assert fuzz_wires("ip", 3, 2, 20) != fuzz_wires("ip", 3, 3, 20)
        assert fuzz_wires("ip", 3, 2, 20) != fuzz_wires("ip", 4, 2, 20)

    def test_mutates_some_but_not_all(self):
        base = scenario_wires("ip", 0, 40, stream="fuzz-0")
        fuzzed = fuzz_wires("ip", 0, 0, 40)
        changed = sum(1 for a, b in zip(base, fuzzed) if a != b)
        assert 0 < changed < 40

    def test_zero_malformed_ratio_keeps_traffic_valid(self):
        base = scenario_wires("ndn", 1, 16, stream="fuzz-5")
        assert fuzz_wires("ndn", 1, 5, 16, malformed_ratio=0.0) == base

    def test_every_mutation_returns_bytes(self):
        wire = scenario_wires("ip", 0, 1)[0]
        for mutation in MUTATIONS:
            rng = random.Random(f"mut:{mutation.__name__}")
            out = mutation(rng, wire)
            assert isinstance(out, bytes)

    def test_limit_violating_wire_overflows_fn_count(self):
        wire = _limit_violating_wire(random.Random(7))
        assert wire[2] > 32  # fn_num byte beyond max_fn_count


def trigger_spec():
    """Diverges on every wire whose hop-limit byte is exactly 64."""

    def corrupt(result, wires):
        for index, wire in enumerate(wires):
            if len(wire) > 3 and wire[3] == 64:
                result.outcomes[index] = WireOutcome(
                    "deliver", (), None, "tampered"
                )

    return mutant_spec(corrupt)


class TestShrink:
    def test_shrinks_to_the_exact_trigger(self):
        scenario = Scenario("ip")
        wires = scenario.wires(12, stream="shrink")
        spec = trigger_spec()
        assert not run_case_ok(scenario, wires, spec)
        shrunk = shrink_case(scenario, wires, [spec])
        # One wire survives ddmin; prefix search cuts it to four bytes
        # (the trigger index); the zero sweep clears everything else.
        assert shrunk == [b"\x00\x00\x00\x40"]

    def test_zero_budget_changes_nothing(self):
        scenario = Scenario("ip")
        wires = scenario.wires(6, stream="shrink-b")
        shrunk = shrink_case(
            scenario, wires, [trigger_spec()], max_evaluations=0
        )
        assert shrunk == [bytes(w) for w in wires]


def run_case_ok(scenario, wires, spec):
    from repro.conformance import diff_case

    return diff_case(scenario, wires, [spec]).ok


class TestRunFuzz:
    def test_clean_and_deterministic(self):
        kwargs = dict(
            seed=5, scenarios=("ip",), executors=("process-batch",), case_size=12
        )
        first = run_fuzz(24, **kwargs)
        second = run_fuzz(24, **kwargs)
        assert first.ok
        assert first.packets == 24 and first.cases == 2
        assert first.to_dict() == second.to_dict()

    def test_rotates_scenarios(self):
        report = run_fuzz(
            16,
            seed=1,
            scenarios=("ip", "xia"),
            executors=("process-batch",),
            case_size=8,
        )
        assert set(report.scenarios) == {"ip", "xia"}

    def test_deadline_bounds_the_loop(self):
        report = run_fuzz(
            10**6,
            seed=0,
            scenarios=("ip",),
            executors=("process-batch",),
            max_seconds=0.0,
        )
        assert report.packets == 0 and report.cases == 0

    def test_progress_callback_sees_every_case(self):
        seen = []
        run_fuzz(
            18,
            seed=2,
            scenarios=("ip",),
            executors=("process-batch",),
            case_size=6,
            progress=lambda r: seen.append(r.packets),
        )
        assert seen == [6, 12, 18]
