"""Router packet processing (Algorithm 1 of the paper).

Upon receiving a packet the router (1) parses the basic DIP header
(FN_Num, FN_LocLen), (2) parses the FN definitions, (3) extracts the FN
locations, then (4) walks the FNs in order, skipping host-tagged ones
and dispatching the rest to the operation modules by key.

Beyond the paper's pseudocode the processor also implements:

- the Section 2.4 *heterogeneous configuration* rule: an unsupported FN
  is ignored unless it is path-critical, in which case processing stops
  and the source must be signalled (``Decision.UNSUPPORTED``);
- the Section 2.4 *resource limits*: FN count, processing-time and
  per-packet-state budgets;
- the Section 2.2 *modular parallelism* flag: when set, operations
  whose target fields and scratch dependencies do not conflict are
  modelled as executing concurrently, and the reported cycle count is
  the critical path instead of the sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.flowcache import FlowDecisionCache, template_from_result
from repro.core.fn import FN_ENCODED_SIZE, FieldOperation, OperationKey
from repro.core.header import BASIC_HEADER_SIZE, MAX_LOC_LEN, DipHeader
from repro.core.operations.base import (
    Decision,
    OperationContext,
    OperationResult,
)
from repro.core.packet import DipPacket
from repro.core.registry import OperationRegistry, default_registry
from repro.core.state import NodeState
from repro.errors import (
    FieldRangeError,
    OperationError,
    OperationStateError,
    ProcessingLimitError,
    UnknownOperationError,
)
from repro.core.limits import LimitTracker
from repro.util.bitview import BitView

# Scratch-space families: an FN writing a family conflicts with a later
# FN reading it, even when their target fields do not overlap.  This is
# what keeps F_parm -> F_mark ordered under modular parallelism.
_SCRATCH_WRITES = {
    OperationKey.SOURCE: {"source"},
    OperationKey.PARM: {"opt"},
    OperationKey.DAG: {"xia"},
    OperationKey.PASS: {"passport"},
}
_SCRATCH_READS = {
    OperationKey.MAC: {"opt"},
    OperationKey.MARK: {"opt"},
    OperationKey.INTENT: {"xia"},
    OperationKey.FIB: {"passport"},
    OperationKey.PIT: {"passport"},
}


def _families(table: Dict[OperationKey, set], key: int) -> set:
    try:
        return table.get(OperationKey(key), set())
    except ValueError:
        return set()


def fns_conflict(a: FieldOperation, b: FieldOperation) -> bool:
    """True when two FNs must not execute in parallel."""
    if a.overlaps(b):
        return True
    a_writes = _families(_SCRATCH_WRITES, a.key)
    b_writes = _families(_SCRATCH_WRITES, b.key)
    a_touches = a_writes | _families(_SCRATCH_READS, a.key)
    b_touches = b_writes | _families(_SCRATCH_READS, b.key)
    return bool(a_writes & b_touches or b_writes & a_touches)


def parallel_levels(fns: List[FieldOperation]) -> List[int]:
    """Order-preserving level assignment for the parallelism model.

    FN *i* runs at ``1 + max(level of every earlier conflicting FN)``;
    non-conflicting FNs share a level and execute concurrently.
    """
    levels: List[int] = []
    for i, fn in enumerate(fns):
        level = 0
        for j in range(i):
            if fns_conflict(fns[j], fn):
                level = max(level, levels[j] + 1)
        levels.append(level)
    return levels


# Compiled-program step actions (see _CompiledProgram).
_STEP_EXECUTE = 0
_STEP_HOST_SKIP = 1
_STEP_IGNORE = 2
_STEP_UNSUPPORTED = 3


class _CompiledProgram:
    """Per-program analysis shared by every packet carrying the program.

    A DIP "program" is the FN-definition region of the header.  Packets
    of one flow (and of most workloads) repeat the same program, so the
    walk performs the per-program work once and caches it here:

    - FN-triple decode (when fed raw bytes),
    - operation-module dispatch (registry lookups),
    - the path-critical judgement for unsupported keys,
    - per-FN model cycles (the cost model is a pure function of the FN),
    - the modular-parallelism level analysis, reduced to cumulative
      sequential/critical-path cycle sums per executed-FN prefix
      (``parallel_levels`` is prefix-stable: an FN's level depends only
      on earlier FNs, so an early-exit walk is a prefix of the full
      walk).
    """

    __slots__ = (
        "fns",
        "steps",
        "fn_num",
        "max_field_end",
        "cum_sequential",
        "cum_parallel",
        "cacheable",
        "reads",
        "read_slices",
        "read_cover",
        "op_counts",
    )

    def __init__(
        self,
        fns: Tuple[FieldOperation, ...],
        registry: OperationRegistry,
        cost_model: Optional[object],
        is_path_critical,
    ) -> None:
        self.fns = fns
        self.fn_num = len(fns)
        self.max_field_end = max((fn.field_end for fn in fns), default=0)
        steps = []
        executed_fns: List[FieldOperation] = []
        executed_cycles: List[int] = []
        for fn in fns:
            if fn.tag:
                steps.append((_STEP_HOST_SKIP, fn, None, 0))
                continue
            operation = registry.find(fn.key)
            if operation is None:
                action = (
                    _STEP_UNSUPPORTED
                    if is_path_critical(fn.key)
                    else _STEP_IGNORE
                )
                steps.append((action, fn, None, 0))
                if action == _STEP_UNSUPPORTED:
                    # Processing stops here for every packet; later FNs
                    # are unreachable.
                    break
                continue
            cycles = cost_model.fn_cycles(fn) if cost_model is not None else 0
            steps.append((_STEP_EXECUTE, fn, operation, cycles))
            executed_fns.append(fn)
            executed_cycles.append(cycles)
        self.steps = tuple(steps)
        # Flow-cache eligibility (repro.core.flowcache): cacheable iff
        # every executed operation is a pure lookup, in which case the
        # packet's fate is an exact function of the read-field values
        # (plus the per-packet inputs folded into the cache key).
        self.cacheable = all(
            step[2].pure for step in steps if step[0] == _STEP_EXECUTE
        )
        # Per-FN-key execute counts for the telemetry op counters: each
        # walked packet is attributed one program's worth of ops
        # (exact for completed walks; an early-exit drop still
        # counts the full program -- documented in DESIGN.md 3.8).
        op_counts: Dict[int, int] = {}
        for fn in executed_fns:
            op_counts[fn.key] = op_counts.get(fn.key, 0) + 1
        self.op_counts = op_counts
        reads = tuple(
            dict.fromkeys(
                (step[1].field_loc, step[1].field_len)
                for step in steps
                if step[0] == _STEP_EXECUTE
            )
        )
        self.reads = reads
        # Byte-aligned reads extract with plain slices on the hit path.
        if all(not (loc | length) & 7 for loc, length in reads):
            self.read_slices = tuple(
                (loc >> 3, (loc + length) >> 3) for loc, length in reads
            )
            # When the slices exactly partition [0, read_cover) bytes,
            # a locations region of that length IS the key value --
            # no per-read slicing at all (DIP-32/128 forwarding: the
            # locations are exactly dst||src).
            cover = 0
            for start, end in sorted(self.read_slices):
                if start != cover:
                    cover = None
                    break
                cover = end
            self.read_cover = cover
        else:
            self.read_slices = None
            self.read_cover = None
        # Cumulative cycle totals per executed-FN prefix length.
        levels = parallel_levels(executed_fns)
        self.cum_sequential = [0]
        self.cum_parallel = [0]
        for length in range(1, len(executed_fns) + 1):
            self.cum_sequential.append(sum(executed_cycles[:length]))
            per_level: Dict[int, int] = {}
            for level, cycles in zip(levels[:length], executed_cycles[:length]):
                per_level[level] = max(per_level.get(level, 0), cycles)
            self.cum_parallel.append(sum(per_level.values()))


@dataclass(frozen=True)
class ProcessResult:
    """Everything a packet walk produced.

    Parameters
    ----------
    decision:
        The packet's fate at this node.
    ports:
        Egress ports when forwarding.
    packet:
        The rewritten packet (hop limit decremented, locations updated);
        None when the packet was dropped.
    notes:
        Per-FN trace notes, in execution order.
    cycles:
        Effective model cycles (critical path when the packet's
        parallel flag is set, otherwise the sequential sum); 0 when no
        cost model was supplied.
    cycles_sequential, cycles_parallel:
        Both totals, for the ABL-PAR ablation.
    unsupported_key:
        The offending key when ``decision`` is UNSUPPORTED.
    scratch:
        The walk's final scratch space (cache hits, reports...).
    failure:
        Machine-readable failure class when the walk ended abnormally:
        ``"limit"`` (processing limits, 2.4), ``"state"`` (operation
        state missing/invalid), ``"unsupported"`` (path-critical FN
        without a module), an exception class name for quarantined
        poison packets, or ``None`` for a clean walk.  This is what
        the engine's degradation policies key off.
    """

    decision: Decision
    ports: Tuple[int, ...] = ()
    packet: Optional[DipPacket] = None
    notes: Tuple[str, ...] = ()
    cycles: int = 0
    cycles_sequential: int = 0
    cycles_parallel: int = 0
    unsupported_key: Optional[int] = None
    scratch: Dict[str, Any] = field(default_factory=dict)
    failure: Optional[str] = None


class RouterProcessor:
    """One DIP router's packet processing engine.

    Every entry point runs the same compiled walk
    (:meth:`_process_compiled` over a :class:`_CompiledProgram`):
    :meth:`process` is a batch of one, an attached flow cache answers
    repeat flows in front of the walk, and telemetry accumulates in one
    place per batch.

    Parameters
    ----------
    state:
        The node's protocol state (FIBs, PIT, keys...).
    registry:
        The installed operation modules; defaults to the full set.
    cost_model:
        Optional object with ``parse_cycles(header_len, packet_size)``
        and ``fn_cycles(fn)`` methods (see
        :class:`repro.dataplane.costs.CycleCostModel`).
    quarantine:
        When True the *batch* paths isolate poison packets: any
        exception a packet's decode or walk raises becomes an
        ``error``-decision :class:`ProcessResult` (``failure`` = the
        exception class name) instead of propagating.  Off by default
        so direct callers keep exact exception identity; the engine's
        shard workers turn it on (a worker must survive any packet).
        :meth:`process` always propagates.
    """

    def __init__(
        self,
        state: NodeState,
        registry: Optional[OperationRegistry] = None,
        cost_model: Optional[object] = None,
        flow_cache: Optional[FlowDecisionCache] = None,
        telemetry: Optional[object] = None,
        quarantine: bool = False,
    ) -> None:
        self.state = state
        self.quarantine = quarantine
        self.registry = registry if registry is not None else default_registry()
        self.cost_model = cost_model
        # Optional flow-level decision cache in front of the compiled
        # walk (repro.core.flowcache); None walks every packet.
        self.flow_cache = flow_cache
        # Compiled-program cache, keyed by the raw FN-definition bytes
        # (raw-packet input) and by the decoded fns tuple (DipPacket
        # input); both keys map to one entry.
        self._programs: Dict[object, _CompiledProgram] = {}
        self._programs_version = self.registry.version
        # Optional telemetry (repro.telemetry.MetricsRegistry); None
        # (or a falsy NullRegistry) records nothing.
        self.telemetry = telemetry if telemetry else None
        if self.telemetry:
            self._tel_cycles = self.telemetry.histogram(
                "processor_fn_cycles",
                "model cycles per packet walk (cost-model units)",
            )
            self._tel_op_counters: Dict[int, object] = {}
            self._tel_decision_counters: Dict[object, object] = {}

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def process(
        self,
        packet: Union[DipPacket, bytes],
        ingress_port: int = 0,
        now: float = 0.0,
    ) -> ProcessResult:
        """Run Algorithm 1 on one packet.

        A batch of one with trace notes collected.  Quarantine never
        applies here: a packet whose decode or walk raises propagates
        the exception unchanged.
        """
        return self._run(
            (packet,), ingress_port, now, collect_notes=True, quarantine=False
        )[0]

    def process_batch(
        self,
        packets,
        ingress_port: int = 0,
        now: float = 0.0,
        collect_notes: bool = False,
    ) -> List[ProcessResult]:
        """Run Algorithm 1 over a batch of packets, amortizing program work.

        The same walk as :meth:`process` (same decisions, ports,
        rewritten bytes, cycles and scratch); header parse, FN-triple
        decode, module dispatch and the parallelism/conflict analysis
        happen once per *distinct FN program* instead of once per
        packet.

        Parameters
        ----------
        packets:
            ``DipPacket`` instances or raw packet ``bytes``.
        collect_notes:
            When True the per-FN trace notes are produced exactly like
            :meth:`process`; the default skips their formatting cost
            (fate-relevant notes -- drops, limit violations -- are kept
            either way).
        """
        return self._run(
            packets, ingress_port, now, collect_notes, self.quarantine
        )

    def _run(
        self,
        packets,
        ingress_port: int,
        now: float,
        collect_notes: bool,
        quarantine: bool,
    ) -> List[ProcessResult]:
        """The one batch loop behind :meth:`process` and :meth:`process_batch`."""
        if self._programs_version != self.registry.version:
            self._programs.clear()
            self._programs_version = self.registry.version
        cache = self.flow_cache
        if cache is not None:
            # A materialized sequence runs no caller code between
            # packets, so one generation check covers the whole batch;
            # a lazy iterable can mutate decision-relevant state between
            # yields and is re-checked per packet.
            lazy = not isinstance(packets, (list, tuple))
            if not lazy:
                cache.sync(self._state_token())
        walk = self._process_compiled
        telemetry = self.telemetry
        if telemetry:
            cycles: List[int] = []
            programs: List[_CompiledProgram] = []
            decisions: List[Decision] = []
        out: List[ProcessResult] = []
        append = out.append
        try:
            for packet in packets:
                try:
                    if cache is not None:
                        if lazy:
                            cache.sync(self._state_token())
                        result, program = self._through_cache(
                            packet, ingress_port, now, collect_notes
                        )
                    else:
                        if isinstance(packet, (bytes, bytearray)):
                            packet, program = self._decode_raw(bytes(packet))
                        else:
                            program = self._compiled(packet.header.fns)
                        result = walk(
                            packet, program, ingress_port, now, collect_notes
                        )
                except Exception as exc:
                    if not quarantine:
                        raise
                    append(poison_result(exc))
                    continue
                append(result)
                # A cache hit (program None) is a walk that did not
                # happen: it counts no ops, cycles or decision.
                if telemetry and program is not None:
                    cycles.append(result.cycles)
                    programs.append(program)
                    decisions.append(result.decision)
        finally:
            if telemetry:
                self._tel_record(cycles, programs, decisions)
        return out

    def _compiled(
        self, fns: Tuple[FieldOperation, ...], raw_key: Optional[bytes] = None
    ) -> _CompiledProgram:
        program = self._programs.get(fns)
        if program is None:
            program = _CompiledProgram(
                fns, self.registry, self.cost_model, self._is_path_critical
            )
            self._programs[fns] = program
        if raw_key is not None:
            self._programs[raw_key] = program
        return program

    def _wire_parts(self, data: bytes):
        """Header fields of a raw packet whose FN program is compiled.

        Returns ``(program, locations, next_header, hop_limit, parallel,
        reserved, payload)`` straight off the wire, or None on a
        program-cache miss or truncated data (the reference decoder then
        raises the exact codec error, or compiles the program).
        """
        if len(data) < BASIC_HEADER_SIZE:
            return None
        defs_end = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * data[2]
        program = self._programs.get(data[BASIC_HEADER_SIZE:defs_end])
        if program is None:
            return None
        parameter = int.from_bytes(data[4:6], "big")
        total = defs_end + ((parameter >> 1) & MAX_LOC_LEN)
        if len(data) < total:
            return None
        return (
            program,
            data[defs_end:total],
            int.from_bytes(data[0:2], "big"),
            data[3],
            bool(parameter & 1),
            (parameter >> 11) & 0x1F,
            data[total:],
        )

    def _decode_raw(self, data: bytes):
        """Decode one raw packet, reusing cached FN-definition decodes."""
        parts = self._wire_parts(data)
        if parts is not None:
            (program, locations, next_header, hop_limit, parallel, reserved,
             payload) = parts
            packet = _make_packet(
                program.fns, locations, next_header, hop_limit, parallel,
                reserved, payload,
            )
            return packet, program
        packet = DipPacket.decode(data)
        defs_end = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * len(packet.header.fns)
        program = self._compiled(
            packet.header.fns, raw_key=data[BASIC_HEADER_SIZE:defs_end]
        )
        return packet, program

    def _process_compiled(
        self,
        packet: DipPacket,
        program: _CompiledProgram,
        ingress_port: int,
        now: float,
        collect_notes: bool,
    ) -> ProcessResult:
        """One packet walk over a compiled program (Algorithm 1, lines 4-18).

        The per-packet budget accounting is inlined (plain integer
        locals instead of a :class:`LimitTracker`); the rare violation
        paths rebuild a tracker so the error text stays byte-identical
        to the reference interpreter's.
        """
        header = packet.header
        if program.max_field_end > len(header.locations) * 8:
            header.validate_field_ranges()  # raises the reference error

        state = self.state
        limits = state.limits

        if header.hop_limit == 0:
            return ProcessResult(
                decision=Decision.DROP, notes=("hop limit expired",)
            )

        # Plain-attribute construction (OperationContext is an unfrozen
        # dataclass); the generated __init__ costs real time per packet.
        ctx = object.__new__(OperationContext)
        ctx.state = state
        ctx.locations = BitView(header.locations)
        ctx.payload = packet.payload
        ctx.ingress_port = ingress_port
        ctx.now = now
        ctx.at_host = False
        ctx.fns = header.fns
        ctx.scratch = {}

        cost_model = self.cost_model
        parse_cycles = 0
        cycles_used = 0
        state_used = 0
        max_cycles = limits.max_cycles
        max_state = limits.max_state_bytes
        if limits.max_fn_count and program.fn_num > limits.max_fn_count:
            try:
                LimitTracker(limits).check_fn_count(program.fn_num)
            except ProcessingLimitError as exc:
                return ProcessResult(
                    decision=Decision.DROP,
                    notes=(str(exc),),
                    scratch=ctx.scratch,
                    failure="limit",
                )
        if cost_model is not None:
            parse_cycles = cost_model.parse_cycles(
                header.header_length, packet.size
            )
            cycles_used = parse_cycles
            if max_cycles and cycles_used > max_cycles:
                return ProcessResult(
                    decision=Decision.DROP,
                    notes=(
                        f"processing budget exhausted "
                        f"({cycles_used} > {max_cycles} cycles)",
                    ),
                    cycles=parse_cycles,
                    cycles_sequential=parse_cycles,
                    cycles_parallel=parse_cycles,
                    scratch=ctx.scratch,
                    failure="limit",
                )

        notes: List[str] = []
        fate: Optional[OperationResult] = None
        executed = 0
        final: Optional[Decision] = None
        failure: Optional[str] = None
        ports: Tuple[int, ...] = ()
        out_packet: Optional[DipPacket] = None

        for action, fn, operation, fn_cycles in program.steps:
            if action == _STEP_EXECUTE:
                if cost_model is not None:
                    cycles_used += fn_cycles
                    if max_cycles and cycles_used > max_cycles:
                        notes.append(
                            f"{fn}: processing budget exhausted "
                            f"({cycles_used} > {max_cycles} cycles)"
                        )
                        final = Decision.DROP
                        failure = "limit"
                        break
                try:
                    result = operation.execute(ctx, fn)
                except (OperationError, FieldRangeError) as exc:
                    notes.append(f"{fn}: operation failed: {exc}")
                    final = Decision.DROP
                    failure = _op_failure(exc)
                    break
                if result.state_bytes:
                    state_used += result.state_bytes
                    if max_state and state_used > max_state:
                        notes.append(
                            f"{fn}: per-packet state budget exhausted "
                            f"({state_used} > {max_state} bytes)"
                        )
                        final = Decision.DROP
                        failure = "limit"
                        break
                executed += 1
                if collect_notes:
                    notes.append(f"{fn}: {result.note or result.decision.value}")
                decision = result.decision
                if decision is Decision.DROP:
                    final = Decision.DROP
                    break
                if decision is Decision.FORWARD or decision is Decision.DELIVER:
                    fate = result
            elif action == _STEP_HOST_SKIP:
                if collect_notes:
                    notes.append(f"{fn}: skipped (host operation)")
            elif action == _STEP_IGNORE:
                if collect_notes:
                    notes.append(f"{fn}: unsupported FN ignored")
            else:  # _STEP_UNSUPPORTED
                notes.append(f"{fn}: unsupported path-critical FN")
                return ProcessResult(
                    decision=Decision.UNSUPPORTED,
                    notes=tuple(notes),
                    unsupported_key=fn.key,
                    cycles=parse_cycles,
                    cycles_sequential=parse_cycles,
                    cycles_parallel=parse_cycles,
                    scratch=ctx.scratch,
                    failure="unsupported",
                )

        if final is None:
            if fate is None and state.default_port is not None:
                fate = OperationResult.forward(
                    state.default_port, note="static egress (default port)"
                )
                notes.append("static egress (default port)")
            if fate is None:
                notes.append("no forwarding decision")
                final = Decision.DROP
            else:
                final = fate.decision
                ports = fate.ports
                if final is Decision.FORWARD:
                    out_packet = _make_packet(
                        header.fns,
                        ctx.locations.to_bytes(),
                        header.next_header,
                        header.hop_limit - 1,
                        header.parallel,
                        header.reserved,
                        packet.payload,
                    )

        if cost_model is None:
            sequential = parallel = effective = 0
        else:
            sequential = parse_cycles + program.cum_sequential[executed]
            parallel = parse_cycles + program.cum_parallel[executed]
            effective = parallel if header.parallel else sequential
        return _result(
            final, ports, out_packet, tuple(notes), effective, sequential,
            parallel, None, ctx.scratch, failure,
        )

    # ------------------------------------------------------------------
    # telemetry (repro.telemetry)
    # ------------------------------------------------------------------
    def _tel_record(
        self,
        cycles: List[int],
        programs: List[_CompiledProgram],
        decisions: List[Decision],
    ) -> None:
        """Fold one batch's walks into the registry (telemetry on only).

        The one accumulation point: the batch loop and the columnar
        specializer's bulk feed both call it once per batch with one
        entry per *walked* packet in each list.  Flow-cache hits are
        not walks and are left out on purpose (the cache's own hit
        counter tells that story).  Cycle observations collapse by
        distinct value before touching the histogram; op executions
        expand each program's per-key counts by how many packets walked
        it (an early-exit drop still counts the full program, DESIGN.md
        3.8).
        """
        if cycles:
            observe_count = self._tel_cycles.observe_count
            for value, count in Counter(cycles).items():
                observe_count(value, count)
        ops: Dict[int, int] = {}
        for program, packets in Counter(programs).items():
            for key, count in program.op_counts.items():
                ops[key] = ops.get(key, 0) + count * packets
        op_counters = self._tel_op_counters
        for key, count in ops.items():
            counter = op_counters.get(key)
            if counter is None:
                counter = self.telemetry.counter(
                    "processor_fn_ops_total",
                    "operation-module executions by FN key",
                    labels=(("key", _key_label(key)),),
                )
                op_counters[key] = counter
            counter.inc(count)
        decision_counters = self._tel_decision_counters
        for decision, count in Counter(decisions).items():
            counter = decision_counters.get(decision)
            if counter is None:
                counter = self.telemetry.counter(
                    "processor_decisions_total",
                    "packet fates decided by the FN walk",
                    labels=(("decision", decision.value),),
                )
                decision_counters[decision] = counter
            counter.inc(count)

    # ------------------------------------------------------------------
    # flow-level decision cache (repro.core.flowcache)
    # ------------------------------------------------------------------
    def _state_token(self) -> tuple:
        """Generation token covering everything a pure walk may read.

        Any decision-relevant mutation moves at least one component:
        module installs/removals bump ``registry.version``, FIB edits
        bump the per-table ``generation`` counters, locality/limits/
        default-port changes show up directly or via
        ``NodeState.generation``.
        """
        state = self.state
        return (
            self.registry.version,
            state.generation,
            state.fib_v4.generation,
            state.fib_v6.generation,
            state.name_fib_digest.generation,
            state.name_fib.generation,
            state.default_port,
            state.limits,
            len(state.local_v4),
            len(state.local_v6),
        )

    def _through_cache(
        self, packet, ingress_port: int, now: float, collect_notes: bool
    ):
        """One packet through the flow cache in front of the compiled walk.

        Returns ``(result, program)``; ``program`` is None on a hit (no
        walk ran).  Cacheability is a property of the compiled program:
        impure programs, expired hop limits and out-of-range target
        fields count one bypass and walk, with no key built.  A raw
        packet whose program is already compiled is keyed straight off
        the wire bytes, so a hit builds only the output packet.  The
        caller has already synced the cache against the state token.
        """
        cache = self.flow_cache
        parts = None
        if isinstance(packet, (bytes, bytearray)):
            data = bytes(packet)
            parts = self._wire_parts(data)
            if parts is None:
                packet, program = self._decode_raw(data)
            else:
                (program, locations, next_header, hop_limit, parallel,
                 reserved, payload) = parts
                header_length = len(data) - len(payload)
                packet = None
        else:
            program = self._compiled(packet.header.fns)
        if parts is None:
            header = packet.header
            locations = header.locations
            next_header = header.next_header
            hop_limit = header.hop_limit
            parallel = header.parallel
            reserved = header.reserved
            payload = packet.payload
            header_length = header.header_length
        if (
            not program.cacheable
            or hop_limit == 0
            or program.max_field_end > len(locations) * 8
        ):
            cache.bypasses += 1
            key = None
        else:
            cost_model = self.cost_model
            # parse_cycles varies with packet size and feeds both the
            # cycle totals and the budget checks, so it is in the key.
            key = _flow_key(
                program,
                locations,
                cost_model.parse_cycles(
                    header_length, header_length + len(payload)
                )
                if cost_model is not None
                else 0,
                parallel,
                ingress_port,
                collect_notes,
            )
            entry = cache.get(key)
            if entry is not None:
                cache.hits += 1
                return _hit_result(
                    entry, program.fns, locations, next_header, hop_limit,
                    parallel, reserved, payload,
                ), None
            cache.misses += 1
        if packet is None:
            packet = _make_packet(
                program.fns, locations, next_header, hop_limit, parallel,
                reserved, payload,
            )
        result = self._process_compiled(
            packet, program, ingress_port, now, collect_notes
        )
        if key is not None:
            template = template_from_result(result, locations)
            if template is not None:
                cache.put(key, template)
        return result, program

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _is_path_critical(self, key: int) -> bool:
        """Would *any* standard module for this key be path-critical?

        The node does not have the module, so it judges from the key's
        standardized semantics (Table 1); unknown keys are assumed safe
        to ignore, matching Section 2.4.
        """
        return key in (
            OperationKey.PARM,
            OperationKey.MAC,
            OperationKey.MARK,
            OperationKey.VERIFY,
        )

    def invalidate_program_cache(self) -> None:
        """Drop every compiled program (e.g. after swapping cost models)."""
        self._programs.clear()
        self._programs_version = self.registry.version
        # Compiled-program objects are flow-cache key components, so a
        # rebuild must flush the decision cache too.
        if self.flow_cache is not None:
            self.flow_cache.clear()


def _op_failure(exc: BaseException) -> Optional[str]:
    """Degradation class of a failed operation (None = plain drop)."""
    if isinstance(exc, OperationStateError):
        return "state"
    if isinstance(exc, UnknownOperationError):
        return "unsupported"
    return None


def poison_result(exc: BaseException) -> ProcessResult:
    """The quarantine verdict for a packet whose processing raised.

    ``failure`` carries the exception class (the engine surfaces it as
    ``PacketOutcome.reason``); the message rides in the notes.
    """
    return ProcessResult(
        decision=Decision.ERROR,
        notes=(f"quarantined: {type(exc).__name__}: {exc}",),
        failure=type(exc).__name__,
    )


def _key_label(key: int) -> str:
    """Stable telemetry label for an FN key (name when standardized)."""
    try:
        return OperationKey(key).name
    except ValueError:
        return f"key-{key}"


# ----------------------------------------------------------------------
# hot-path constructors
# ----------------------------------------------------------------------
_new = object.__new__
_set_attr = object.__setattr__


def _make_packet(
    fns: Tuple[FieldOperation, ...],
    locations: bytes,
    next_header: int,
    hop_limit: int,
    parallel: bool,
    reserved: int,
    payload: bytes,
) -> DipPacket:
    """Build a DipPacket from pre-validated parts, skipping __post_init__.

    Every value either comes off the wire through field masks that
    enforce the header's ranges, or from an already-validated header, so
    re-running the dataclass validation per packet is pure overhead.
    Frozen dataclasses are filled by installing their ``__dict__`` in
    one call instead of one ``object.__setattr__`` per field.
    """
    header = _new(DipHeader)
    _set_attr(
        header,
        "__dict__",
        {
            "fns": fns,
            "locations": locations,
            "next_header": next_header,
            "hop_limit": hop_limit,
            "parallel": parallel,
            "reserved": reserved,
        },
    )
    packet = _new(DipPacket)
    _set_attr(packet, "__dict__", {"header": header, "payload": payload})
    return packet


def _result(
    decision, ports, packet, notes, cycles, cycles_sequential,
    cycles_parallel, unsupported_key, scratch, failure,
) -> ProcessResult:
    """Build a ProcessResult without the frozen dataclass __init__."""
    result = _new(ProcessResult)
    _set_attr(
        result,
        "__dict__",
        {
            "decision": decision,
            "ports": ports,
            "packet": packet,
            "notes": notes,
            "cycles": cycles,
            "cycles_sequential": cycles_sequential,
            "cycles_parallel": cycles_parallel,
            "unsupported_key": unsupported_key,
            "scratch": scratch,
            "failure": failure,
        },
    )
    return result


def _flow_key(
    program: _CompiledProgram,
    locations: bytes,
    parse_cycles: int,
    parallel: bool,
    ingress_port: int,
    collect_notes: bool,
) -> tuple:
    """The decision-cache key for one packet of a cacheable program.

    Program identity, the values of the fields its router FNs read,
    and the per-packet inputs that can change the outcome.
    """
    if program.read_cover == len(locations):
        values = locations
    elif program.read_slices is not None:
        values = tuple(locations[a:b] for a, b in program.read_slices)
    else:
        view = BitView(locations)
        values = tuple(
            view.get_uint(loc, length) for loc, length in program.reads
        )
    return (program, values, parse_cycles, parallel, ingress_port, collect_notes)


def _hit_result(
    entry,
    fns: Tuple[FieldOperation, ...],
    locations: bytes,
    next_header: int,
    hop_limit: int,
    parallel: bool,
    reserved: int,
    payload: bytes,
) -> ProcessResult:
    """A cached decision replayed onto one packet's header fields."""
    out_packet = None
    if entry.has_packet:
        loc_splices = entry.loc_splices
        if loc_splices is not None:
            buffer = bytearray(locations)
            for offset, replacement in loc_splices:
                buffer[offset : offset + len(replacement)] = replacement
            locations = bytes(buffer)
        out_packet = _make_packet(
            fns, locations, next_header, hop_limit - 1, parallel, reserved,
            payload,
        )
    return _result(
        entry.decision, entry.ports, out_packet, entry.notes, entry.cycles,
        entry.cycles_sequential, entry.cycles_parallel,
        entry.unsupported_key, dict(entry.scratch), entry.failure,
    )
