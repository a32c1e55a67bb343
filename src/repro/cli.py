"""Command-line interface: packet dissection and paper-table printing.

Usage::

    python -m repro decode 00010240...        # dissect a DIP packet
    python -m repro table2                    # Table 2 reproduction
    python -m repro fig2                      # cycle-model Figure 2
    python -m repro keys                      # known operation keys
    python -m repro engine --metrics-out m.prom --trace-out t.jsonl
    python -m repro stats [--json]            # telemetry snapshot
    python -m repro fabric --processes 2 --compare   # co-simulation spine

``decode`` accepts hex (with or without spaces); it prints the basic
header, every FN triple, a locations hexdump, and -- when the FN keys
identify an embedded protocol header (OPT, EPIC, XIA) -- a decoded view
of that too.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.fn import OperationKey
from repro.core.packet import DipPacket
from repro.errors import ReproError
from repro.util.bytesutil import hexdump


def _key_name(key: int) -> str:
    try:
        return OperationKey(key).name
    except ValueError:
        return f"key-{key}"


def _decode_embedded(packet: DipPacket, out) -> None:
    keys = {fn.key for fn in packet.header.fns}
    locations = packet.header.locations
    try:
        if OperationKey.MAC in keys:
            from repro.protocols.opt.header import OptHeader

            base = min(
                fn.field_loc
                for fn in packet.header.fns
                if fn.key == OperationKey.MAC
            )
            header = OptHeader.decode(locations[base // 8 :])
            out.write(
                f"  embedded OPT header: session "
                f"{header.session_id.hex()[:16]}.., ts {header.timestamp}, "
                f"{header.hop_count} hop(s)\n"
            )
        if OperationKey.EPIC in keys:
            from repro.protocols.epic.header import EpicHeader

            base = min(
                fn.field_loc
                for fn in packet.header.fns
                if fn.key == OperationKey.EPIC
            )
            header = EpicHeader.decode(locations[base // 8 :])
            out.write(
                f"  embedded EPIC header: session "
                f"{header.session_id.hex()[:16]}.., ctr {header.counter}, "
                f"{header.hop_count} hop(s)\n"
            )
        if OperationKey.DAG in keys:
            from repro.protocols.xia.router import XiaHeader

            header = XiaHeader.decode(locations)
            out.write(
                f"  embedded XIA header: {len(header.dag.nodes)} DAG "
                f"node(s), intent {header.dag.intent}, "
                f"pointer {header.last_visited}\n"
            )
    except ReproError as exc:
        out.write(f"  (embedded header did not decode: {exc})\n")


def cmd_decode(args, out) -> int:
    text = "".join(args.hex).replace(" ", "").replace(":", "")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        out.write("error: input is not valid hex\n")
        return 2
    try:
        packet = DipPacket.decode(raw)
    except ReproError as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 1
    header = packet.header
    out.write(
        f"DIP packet: {packet.size} bytes total, "
        f"{header.header_length}-byte header, "
        f"{len(packet.payload)}-byte payload\n"
    )
    out.write(
        f"  basic header: next-header {header.next_header:#06x}, "
        f"FN num {header.fn_num}, hop limit {header.hop_limit}, "
        f"parallel {'yes' if header.parallel else 'no'}, "
        f"locations {header.loc_len} B\n"
    )
    for index, fn in enumerate(header.fns):
        role = "host" if fn.tag else "router"
        out.write(
            f"  FN[{index}]: {_key_name(fn.key)} ({role}) "
            f"loc {fn.field_loc} len {fn.field_len}\n"
        )
    if header.locations:
        out.write("  FN locations:\n")
        for line in hexdump(header.locations).splitlines():
            out.write(f"    {line}\n")
    _decode_embedded(packet, out)
    return 0


def cmd_lint(args, out) -> int:
    """Lint a packet's FN program; exit 1 on errors, 0 otherwise."""
    from repro.core.composer import Severity, lint_program

    text = "".join(args.hex).replace(" ", "").replace(":", "")
    try:
        packet = DipPacket.decode(bytes.fromhex(text))
    except (ValueError, ReproError) as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 2
    diagnostics = lint_program(packet.header)
    if not diagnostics:
        out.write("clean: no findings\n")
        return 0
    for diagnostic in diagnostics:
        out.write(f"{diagnostic}\n")
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def _print_table2(out) -> int:
    from repro.crypto.keys import RouterKey
    from repro.protocols.ip.ipv4 import IPV4_HEADER_SIZE
    from repro.protocols.ip.ipv6 import IPV6_HEADER_SIZE
    from repro.protocols.opt import negotiate_session
    from repro.realize.derived import build_ndn_opt_interest
    from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
    from repro.realize.ndn import build_interest_packet
    from repro.realize.opt import build_opt_packet
    from repro.workloads.reporting import format_table

    session = negotiate_session(
        "s", "d", [RouterKey("r0")], RouterKey("d"), nonce=b"cli"
    )
    rows = [
        ["IPv6 forwarding", 40, IPV6_HEADER_SIZE],
        ["IPv4 forwarding", 20, IPV4_HEADER_SIZE],
        ["DIP-128 forwarding", 50,
         build_ipv6_packet(1, 2).header.header_length],
        ["DIP-32 forwarding", 26,
         build_ipv4_packet(1, 2).header.header_length],
        ["NDN forwarding", 16,
         build_interest_packet("/n").header.header_length],
        ["OPT forwarding", 98,
         build_opt_packet(session, b"p").header.header_length],
        ["NDN+OPT forwarding", 108,
         build_ndn_opt_interest("/n", session, b"p").header.header_length],
    ]
    out.write(
        format_table(["network function", "paper (B)", "measured (B)"], rows)
        + "\n"
    )
    return 0


def _print_fig2(out) -> int:
    from repro.dataplane.costs import CycleCostModel
    from repro.workloads.generators import (
        FIGURE2_SIZES,
        make_dip_ipv4_workload,
        make_dip_ipv6_workload,
        make_ndn_interest_workload,
        make_ndn_opt_workload,
        make_opt_workload,
    )
    from repro.workloads.reporting import format_table

    makers = {
        "DIP-IPv4": make_dip_ipv4_workload,
        "DIP-IPv6": make_dip_ipv6_workload,
        "NDN": make_ndn_interest_workload,
        "OPT": make_opt_workload,
        "NDN+OPT": make_ndn_opt_workload,
    }
    rows = []
    for name, maker in makers.items():
        row = [name]
        for size in FIGURE2_SIZES:
            workload = maker(
                packet_size=size, packet_count=50,
                cost_model=CycleCostModel(),
            )
            row.append(f"{workload.mean_cycles():.0f}")
        rows.append(row)
    out.write(
        format_table(
            ["protocol"] + [f"{s}B" for s in FIGURE2_SIZES], rows
        )
        + "\n"
    )
    return 0


def _build_engine(args, out, telemetry: bool):
    """Shared engine construction for ``engine`` and ``stats``.

    Returns ``(engine, packets)`` or ``None`` after printing an error.
    """
    from repro.engine import EngineConfig, ForwardingEngine
    from repro.resilience import FaultPlan
    from repro.workloads.throughput import (
        dip32_state_factory,
        make_engine_packets,
        make_zipf_engine_packets,
    )

    fault_plan = None
    if getattr(args, "fault_plan", None):
        try:
            with open(args.fault_plan, "r", encoding="utf-8") as handle:
                fault_plan = FaultPlan.from_json(handle.read())
        except OSError as exc:
            out.write(f"error: cannot read fault plan: {exc}\n")
            return None
        except ReproError as exc:
            out.write(f"error: bad fault plan: {exc}\n")
            return None
    try:
        config = EngineConfig(
            num_shards=args.shards,
            backend=args.backend,
            batch_size=args.batch_size,
            backpressure=args.backpressure,
            flow_cache=args.flow_cache,
            flow_cache_capacity=args.flow_cache_capacity,
            columnar=getattr(args, "columnar", False),
            shm=getattr(args, "shm", True),
            telemetry=telemetry,
            degrade=getattr(args, "degrade", None),
            fault_plan=fault_plan,
            max_retries=getattr(args, "max_retries", 2),
            worker_timeout=getattr(args, "worker_timeout", 30.0),
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return None
    if args.zipf:
        packets = make_zipf_engine_packets(
            packet_size=args.packet_size, packet_count=args.packets
        )
    else:
        packets = make_engine_packets(
            packet_size=args.packet_size, packet_count=args.packets
        )
    return ForwardingEngine(dip32_state_factory, config=config), packets


def cmd_engine(args, out) -> int:
    """Run the sharded forwarding engine over a DIP-32 batch."""
    from repro.workloads.reporting import Reporter, emit_payload, format_table

    # Either export flag implies telemetry; the run itself is otherwise
    # identical (tests/engine/test_telemetry_equivalence.py).
    telemetry = bool(args.metrics_out or args.trace_out)
    built = _build_engine(args, out, telemetry)
    if built is None:
        return 2
    engine, packets = built
    report = engine.run(packets)

    def render() -> None:
        out.write(
            f"engine: {report.packets_processed}/{report.packets_offered} "
            f"packets in {report.wall_seconds:.3f}s = "
            f"{report.pkts_per_second:,.0f} pkts/s "
            f"({args.backend}, {args.shards} shard(s))\n"
        )
        decisions = ", ".join(
            f"{name} {count}"
            for name, count in sorted(report.decisions.items())
        )
        out.write(f"  decisions: {decisions or 'none'}\n")
        out.write(
            f"  batch latency: p50 {report.batch_latency_p50 * 1e6:.0f}us, "
            f"p99 {report.batch_latency_p99 * 1e6:.0f}us\n"
        )
        if (
            report.worker_restarts
            or report.retries
            or report.degraded
            or report.faults_injected
            or report.dead_letter_total
        ):
            out.write(
                f"  resilience: {report.worker_restarts} restart(s), "
                f"{report.retries} retried batch(es), "
                f"{report.degraded} degraded, "
                f"{report.faults_injected} fault(s) injected, "
                f"{report.dead_letter_total} dead-lettered\n"
            )
        rows = [
            [
                shard.shard_id,
                shard.packets,
                shard.batches,
                f"{shard.utilization * 100:.1f}%",
                ring.high_watermark,
                ring.dropped,
            ]
            for shard, ring in zip(report.shards, report.rings)
        ]
        table = format_table(
            ["shard", "packets", "batches", "util", "ring hwm", "drops"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        if report.flow_cache is not None:
            stats = report.flow_cache
            cache_rows = [
                ["hits", stats.hits],
                ["misses", stats.misses],
                ["bypasses", stats.bypasses],
                ["evictions", stats.evictions],
                ["invalidations", stats.invalidations],
                ["size", stats.size],
                ["capacity", stats.capacity],
            ]
            out.write("  flow cache:\n")
            cache_table = format_table(["counter", "value"], cache_rows)
            for line in cache_table.splitlines():
                out.write(f"    {line}\n")
            # JSON twin (written when REPRO_REPORT_DIR is configured).
            Reporter(out=out).write_json(
                "engine flow cache", ["counter", "value"], cache_rows
            )

    emit_payload(args.json, report.to_dict, render, out=out)
    reporter = Reporter(out=out)
    if args.metrics_out:
        path = reporter.write_metrics(
            engine.metrics.snapshot(), args.metrics_out
        )
        out.write(f"  metrics written to {path}\n")
    if args.trace_out:
        path = reporter.write_trace(engine.tracer.spans, args.trace_out)
        out.write(f"  trace written to {path} ({len(engine.tracer)} spans)\n")
    return 0


def cmd_stats(args, out) -> int:
    """Run the engine with telemetry on and print the unified snapshot."""
    from repro.workloads.reporting import Reporter, emit_payload

    built = _build_engine(args, out, telemetry=True)
    if built is None:
        return 2
    engine, packets = built
    engine.run(packets)
    # The live registry already folds in the run report (engine
    # counters, batch-latency histogram, processor and flow-cache
    # metrics), so its snapshot is the complete view.
    snapshot = engine.metrics.snapshot()

    def payload():
        from repro.telemetry.export import snapshot_to_json

        return snapshot_to_json(snapshot)

    emit_payload(
        args.json,
        payload,
        lambda: Reporter(out=out).stats_table("engine telemetry", snapshot),
        out=out,
    )
    return 0


def cmd_conformance(args, out) -> int:
    """Differential conformance: corpus replay and/or seeded fuzzing.

    Exit code 0 means every executor agreed with the reference
    interpreter on every compared packet; 1 means divergences (the
    report, plus shrunk repros, goes to ``--json``).
    """
    from pathlib import Path

    from repro.conformance import (
        DivergenceReport,
        load_corpus,
        replay_corpus,
        run_fuzz,
        save_corpus,
    )
    from repro.conformance.corpus import (
        REGRESSION_GROUP,
        build_golden_corpus,
    )
    from repro.conformance.executors import executors_by_name
    from repro.dataplane.costs import CycleCostModel

    cost_model = None if args.no_cost_model else CycleCostModel()
    try:
        executors = (
            executors_by_name(args.executors.split(","))
            if args.executors
            else None
        )
    except ValueError as exc:
        out.write(f"conformance: {exc}\n")
        return 2
    scenarios = args.scenarios.split(",") if args.scenarios else None

    if args.record:
        # Regenerate the golden groups; regression vectors (appended
        # when fuzzer finds are fixed) are preserved, never rebuilt.
        vectors = build_golden_corpus(seed=args.seed)
        if Path(args.record).is_dir():
            vectors.extend(
                v
                for v in load_corpus(args.record)
                if v.group == REGRESSION_GROUP
            )
        paths = save_corpus(vectors, args.record)
        out.write(
            f"conformance: recorded {len(vectors)} vectors into "
            f"{len(paths)} files under {args.record}\n"
        )

    report = DivergenceReport()
    corpus_dir = args.corpus or args.record
    if corpus_dir is None and args.fuzz == 0:
        default_dir = Path("tests/conformance/corpus")
        if default_dir.is_dir():
            corpus_dir = str(default_dir)
        else:
            out.write(
                "conformance: nothing to do (no --corpus, no --fuzz, and "
                "no tests/conformance/corpus here)\n"
            )
            return 2
    if corpus_dir is not None:
        vectors = load_corpus(corpus_dir)
        if not vectors:
            out.write(f"conformance: no vectors under {corpus_dir}\n")
            return 2
        replay = replay_corpus(vectors, executors, cost_model)
        out.write(f"corpus replay ({len(vectors)} vectors): ")
        out.write(replay.summary() + "\n")
        report.merge(replay)
    if args.fuzz > 0:
        fuzz = run_fuzz(
            args.fuzz,
            seed=args.seed,
            scenarios=scenarios,
            executors=args.executors.split(",") if args.executors else None,
            cost_model=cost_model,
            shrink=not args.no_shrink,
            max_seconds=args.max_seconds,
        )
        out.write(f"fuzz (seed {args.seed}): " + fuzz.summary() + "\n")
        report.merge(fuzz)

    for divergence in report.divergences[:20]:
        out.write(
            f"  DIVERGENCE {divergence.scenario}/{divergence.executor} "
            f"packet {divergence.index} [{divergence.aspect}]"
            + (f" vector {divergence.vector}" if divergence.vector else "")
            + f"\n    expected: {divergence.expected}"
            f"\n    got:      {divergence.got}\n"
        )
    if len(report.divergences) > 20:
        out.write(
            f"  ... {len(report.divergences) - 20} more divergences\n"
        )
    for repro in report.repros:
        out.write(
            f"  shrunk repro [{repro['scenario']}] "
            f"{','.join(repro['executors'])}: "
            f"{' '.join(repro['wires'])}\n"
        )
    from repro.workloads.reporting import emit_payload

    written = emit_payload(args.json, report.to_dict, None, out=out)
    if written:
        out.write(f"  report written to {written}\n")
    return 0 if report.ok else 1


def cmd_attack(args, out) -> int:
    """``repro attack``: goodput-under-attack A/B sweep (DESIGN.md 3.14)."""
    from repro.workloads.adoption import write_bench
    from repro.workloads.attack import DEFAULT_FRACTIONS, run_attack_sweep
    from repro.workloads.reporting import emit_payload, format_table

    if args.fractions:
        try:
            fractions = [
                float(piece)
                for piece in args.fractions.split(",")
                if piece.strip()
            ]
        except ValueError:
            out.write(f"error: bad --fractions {args.fractions!r}\n")
            return 2
        if not fractions:
            out.write("error: --fractions is empty\n")
            return 2
        if any(not 0.0 <= f < 1.0 for f in fractions):
            out.write("error: fractions must be in [0, 1)\n")
            return 2
    else:
        fractions = list(DEFAULT_FRACTIONS)

    result = run_attack_sweep(
        fractions=fractions,
        packets_per_point=args.packets,
        seed=args.seed,
        serve_rounds=args.serve_rounds,
        legit_per_round=args.legit_per_round,
        include_serve=not args.no_serve,
        shards=args.shards,
        backend=args.backend,
    )
    if args.out:
        write_bench(args.out, result)

    def render() -> None:
        engine = result["engine"]
        rows = [
            [
                f"{unmit['fraction']:.2f}",
                f"{unmit['goodput']:.4f}",
                f"{mit['goodput']:.4f}",
                f"{mit['quarantine_rate']:.3f}",
                mit["rate_limited"] + mit["quarantined"],
                unmit["unaccounted"] + mit["unaccounted"],
            ]
            for unmit, mit in zip(engine["unmitigated"], engine["mitigated"])
        ]
        out.write("engine arm:\n")
        out.write(
            format_table(
                ["attack", "goodput", "mitigated", "q-rate", "refused",
                 "unacct"],
                rows,
            )
            + "\n"
        )
        if "serve" in result:
            serve = result["serve"]
            rows = [
                [
                    f"{unmit['fraction']:.2f}",
                    f"{unmit['goodput']:.4f}",
                    f"{mit['goodput']:.4f}",
                    unmit["packets_shed"],
                    mit["packets_shed"],
                    mit["rate_limited"] + mit["quarantined"],
                    unmit["unaccounted"] + mit["unaccounted"],
                ]
                for unmit, mit in zip(
                    serve["unmitigated"], serve["mitigated"]
                )
            ]
            out.write("serve arm:\n")
            out.write(
                format_table(
                    ["attack", "goodput", "mitigated", "shed", "mit shed",
                     "refused", "unacct"],
                    rows,
                )
                + "\n"
            )
        out.write(
            f"sweep: {result['total_packets']:,} packets offered over "
            f"{len(fractions)} fraction(s), seed {result['seed']}\n"
        )
        if args.out:
            out.write(f"  sweep written to {args.out}\n")

    emit_payload(args.json, lambda: result, render, out=out)
    return 0


def cmd_serve(args, out) -> int:
    """``repro serve``: the long-lived serving daemon (DESIGN.md 3.11)."""
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import run_daemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        shards=args.shards,
        backend=args.backend,
        batch_max=args.batch_max,
        batch_timeout_ms=args.batch_timeout_ms,
        max_inflight=args.max_inflight,
        cs_capacity=args.cs_capacity,
        cs_ttl=args.cs_ttl if args.cs_ttl > 0 else None,
        pit_capacity=args.pit_capacity if args.pit_capacity > 0 else None,
        pit_eviction=args.pit_eviction,
        content_count=args.content_count,
        seed=args.seed,
        mitigation=args.mitigation,
        max_seconds=args.max_seconds,
        max_packets=args.max_packets,
    )
    summary = run_daemon(config, json_out=args.json, out=out)
    return 0 if summary["unaccounted"] == 0 else 1


def cmd_topology(args, out) -> int:
    """``repro topology``: internet-scale multi-AS graphs (DESIGN.md 3.13).

    Default mode generates and materializes the graph (nodes, links,
    tunnels, routes, host bootstrap) and prints a summary;
    ``--describe`` prints per-AS detail from the pure plan; ``--sweep``
    runs the staged adoption sweep with engine-backed routers and
    writes the ``BENCH_topology.json`` artifact.
    """
    from repro.netsim.internet import InternetGenerator, NetworkSpec
    from repro.workloads.reporting import emit_payload, format_table

    try:
        spec = NetworkSpec(
            seed=args.seed,
            transit=args.transit,
            regional=args.regional,
            stub=args.stub,
            ix_count=args.ix,
            adoption=args.adoption,
            hosts_per_stub=args.hosts_per_stub,
            multihome=args.multihome,
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
    generator = InternetGenerator(spec)

    if args.sweep:
        import time

        from repro.workloads.adoption import run_adoption_sweep, write_bench

        try:
            fractions = [
                float(piece)
                for piece in args.fractions.split(",")
                if piece.strip()
            ]
        except ValueError:
            out.write(f"error: bad --fractions {args.fractions!r}\n")
            return 2
        if not fractions:
            out.write("error: --fractions is empty\n")
            return 2
        start = time.perf_counter()
        result = run_adoption_sweep(
            spec,
            fractions=fractions,
            flows=args.flows,
            packets_per_flow=args.packets_per_flow,
            min_forwarded=args.min_forwarded,
        )
        elapsed = time.perf_counter() - start
        if args.out:
            write_bench(args.out, result)

        def render_sweep() -> None:
            rows = [
                [
                    f"{point['fraction']:.2f}",
                    point["dip_ases"],
                    point["tunnels"],
                    f"{point['flows_deliverable']}/{point['flows_total']}",
                    f"{point['delivery_rate']:.4f}",
                    f"{point['mean_header_bytes_per_hop']:.2f}",
                    f"{point['header_overhead_vs_ipv4']:.3f}",
                    point["packets_forwarded"],
                ]
                for point in result["points"]
            ]
            table = format_table(
                [
                    "adoption", "dip ASes", "tunnels", "flows",
                    "delivery", "hdr B/hop", "vs IPv4", "forwarded",
                ],
                rows,
            )
            out.write(table + "\n")
            totals = result["totals"]
            rate = totals["packets_forwarded"] / elapsed if elapsed else 0.0
            out.write(
                f"sweep: {totals['packets_forwarded']:,} packets forwarded "
                f"({totals['topup_rounds']} top-up round(s)) in "
                f"{elapsed:.1f}s = {rate:,.0f} pkts/s\n"
            )
            if args.out:
                out.write(f"  sweep written to {args.out}\n")

        emit_payload(args.json, lambda: result, render_sweep, out=out)
        return 0

    if args.describe:
        plan = generator.plan()

        def describe_payload():
            return {
                "summary": plan.summary(),
                "ases": plan.describe_rows(),
                "ixps": [
                    {"ix_id": ix.ix_id, "members": list(ix.members)}
                    for ix in plan.ixps
                ],
                "tunnels": [
                    {"spoke": t.spoke, "hub": t.hub, "via": list(t.via)}
                    for t in plan.tunnels
                ],
            }

        def render_describe() -> None:
            rows = [
                [
                    row["as_id"], row["role"], row["mode"], row["profile"],
                    row["degree"], row["hosts"], row["prefix"],
                ]
                for row in plan.describe_rows()
            ]
            table = format_table(
                ["AS", "role", "mode", "profile", "degree", "hosts",
                 "prefix"],
                rows,
            )
            out.write(table + "\n")
            for ix in plan.ixps:
                out.write(
                    f"{ix.name}: {len(ix.members)} members "
                    f"({', '.join(f'AS{m}' for m in ix.members[:8])}"
                    f"{', ...' if len(ix.members) > 8 else ''})\n"
                )
            for tunnel in plan.tunnels:
                out.write(
                    f"tunnel AS{tunnel.spoke} -> AS{tunnel.hub} via "
                    f"{len(tunnel.via)} legacy AS(es)\n"
                )
            out.write(f"fingerprint: {plan.fingerprint()}\n")

        emit_payload(args.json, describe_payload, render_describe, out=out)
        return 0

    internet = generator.build()
    bootstrapped = internet.bootstrap_hosts()
    summary = internet.summary()
    summary["hosts_bootstrapped"] = bootstrapped

    def render_generate() -> None:
        rows = [[key, summary[key]] for key in summary]
        out.write(format_table(["property", "value"], rows) + "\n")

    emit_payload(args.json, lambda: summary, render_generate, out=out)
    return 0


def cmd_fabric(args, out) -> int:
    """``repro fabric``: virtual-time co-simulation spine (DESIGN.md 3.15).

    Runs the golden multi-AS scenario -- netsim stub islands around an
    engine-backed and a PISA-backed transit -- as fabric components,
    optionally across processes, and (with ``--compare``) checks the
    per-packet delivery records against the monolithic netsim twin.
    Exit code 1 means the twins diverged; the ``--json PATH`` artifact
    then carries the mismatching records for diagnosis.
    """
    import time

    from repro.fabric import (
        GoldenSpec,
        golden_fabric,
        golden_netsim,
        golden_traffic,
        write_pcap,
    )
    from repro.telemetry.metrics import MetricsRegistry
    from repro.workloads.reporting import emit_payload, format_table

    try:
        spec = GoldenSpec(
            seed=args.seed,
            ases=args.ases,
            hosts_per_as=args.hosts_per_as,
            packets=args.packets,
            spacing=args.spacing,
            latency=args.latency,
            intra_latency=args.intra_latency,
            cycle_time=args.cycle_time,
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2

    if args.pcap_out:
        count = write_pcap(
            args.pcap_out,
            (
                (send.time, send.packet().encode())
                for send in golden_traffic(spec)
            ),
        )
        out.write(f"traffic written to {args.pcap_out} ({count} packets)\n")

    registry = MetricsRegistry()
    start = time.perf_counter()
    report = golden_fabric(
        spec,
        processes=args.processes,
        registry=registry,
        scheduler_seed=args.scheduler_seed,
    ).run()
    elapsed = time.perf_counter() - start

    payload = report.to_dict()
    payload["spec"] = {
        "seed": spec.seed,
        "ases": spec.ases,
        "hosts_per_as": spec.hosts_per_as,
        "packets": spec.packets,
        "spacing": spec.spacing,
        "latency": spec.latency,
        "intra_latency": spec.intra_latency,
        "cycle_time": spec.cycle_time,
    }
    payload["wall_seconds"] = elapsed

    identical = None
    if args.compare:
        twin = golden_netsim(spec)
        identical = report.records == twin["records"]
        compare = {
            "identical": identical,
            "fabric_fingerprint": report.fingerprint,
            "twin_fingerprint": twin["fingerprint"],
        }
        if not identical:
            mismatches = [
                {"index": i, "fabric": list(ours), "twin": list(theirs)}
                for i, (ours, theirs) in enumerate(
                    zip(report.records, twin["records"])
                )
                if ours != theirs
            ]
            extra = len(report.records) - len(twin["records"])
            compare["record_count_delta"] = extra
            compare["mismatches"] = mismatches[:50]
            compare["mismatch_total"] = len(mismatches)
        payload["compare"] = compare

    def render() -> None:
        out.write(
            f"fabric: {len(report.records)}/{spec.packets} packets "
            f"delivered across {spec.ases} ASes in {elapsed:.2f}s "
            f"({report.processes} process(es), {report.rounds} rounds)\n"
        )
        rows = [
            [
                name,
                f"{report.clocks[name]:.4f}",
                int(detail["counters"].get("delivered", 0)),
                int(detail["counters"].get("forwarded", 0)),
                int(detail["counters"].get("tx_errors", 0)),
            ]
            for name, detail in sorted(report.components.items())
        ]
        table = format_table(
            ["component", "clock", "delivered", "forwarded", "tx err"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        out.write(
            f"  fingerprint {report.fingerprint[:16]}.., "
            f"clock skew {report.clock_skew:.4f}s\n"
        )
        if identical is not None:
            verdict = "IDENTICAL" if identical else "DIVERGED"
            out.write(f"  vs in-process netsim twin: {verdict}\n")

    written = emit_payload(args.json, lambda: payload, render, out=out)
    if written:
        out.write(f"  report written to {written}\n")
    return 1 if identical is False else 0


def _print_keys(out) -> int:
    from repro.core.registry import default_registry

    registry = default_registry()
    for key in sorted(registry.supported_keys()):
        operation = registry.get(key)
        out.write(f"  {key:>3}  {operation.name}\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIP (HotNets '22) reproduction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    decode = sub.add_parser("decode", help="dissect a DIP packet from hex")
    decode.add_argument("hex", nargs="+", help="packet bytes in hex")
    lint = sub.add_parser("lint", help="lint a DIP packet's FN composition")
    lint.add_argument("hex", nargs="+", help="packet bytes in hex")
    sub.add_parser("table2", help="print the Table 2 reproduction")
    sub.add_parser("fig2", help="print the cycle-model Figure 2")
    sub.add_parser("keys", help="list the installed operation keys")
    def add_engine_args(p) -> None:
        p.add_argument("--packets", type=int, default=2000)
        p.add_argument("--packet-size", type=int, default=128)
        p.add_argument("--shards", type=int, default=4)
        p.add_argument(
            "--backend", choices=["serial", "process"], default="serial"
        )
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument(
            "--backpressure", choices=["block", "drop-tail"], default="block"
        )
        p.add_argument(
            "--flow-cache",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="put a flow-level decision cache in front of every shard",
        )
        p.add_argument("--flow-cache-capacity", type=int, default=65536)
        p.add_argument(
            "--columnar",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="run shard workers through the columnar batch "
            "specializer (numpy kernels; falls back to the scalar "
            "path when unavailable)",
        )
        p.add_argument(
            "--shm",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="use shared-memory rings for process-backend shard "
            "IPC (falls back to pipe payloads when unavailable)",
        )
        p.add_argument(
            "--zipf",
            action="store_true",
            help="Zipf-skewed flow popularity instead of uniform flows",
        )
        p.add_argument(
            "--fault-plan",
            metavar="PATH",
            help="JSON FaultPlan of scripted faults to inject",
        )
        p.add_argument(
            "--degrade",
            choices=["drop", "pass-to-host", "best-effort-ip"],
            default=None,
            help="graceful-degradation policy for limit/state/unsupported "
            "failures (default: surface them as error outcomes)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=2,
            help="batch retries after a worker death before dead-lettering",
        )
        p.add_argument(
            "--worker-timeout",
            type=float,
            default=30.0,
            help="seconds without a reply before a worker is declared dead",
        )

    engine = sub.add_parser(
        "engine", help="run the sharded forwarding engine on DIP-32"
    )
    add_engine_args(engine)
    engine.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a Prometheus text-format dump (enables telemetry)",
    )
    engine.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write stage spans as JSONL (enables telemetry)",
    )
    engine.add_argument(
        "--json",
        action="store_true",
        help="print the engine report as JSON instead of text",
    )
    stats = sub.add_parser(
        "stats",
        help="run the engine with telemetry on; print the metrics snapshot",
    )
    add_engine_args(stats)
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as JSON instead of a table",
    )

    from repro.serve.config import ServeConfig

    # Every default comes from ServeConfig, the one place they live.
    serve_defaults = ServeConfig()
    serve = sub.add_parser(
        "serve",
        help="run the long-lived asyncio serving daemon "
        "(UDP ingress + /metrics /healthz /reconfig control plane)",
    )
    serve.add_argument("--host", default=serve_defaults.host)
    serve.add_argument("--port", type=int, default=serve_defaults.port)
    serve.add_argument(
        "--metrics-port", type=int, default=serve_defaults.metrics_port
    )
    serve.add_argument("--shards", type=int, default=serve_defaults.shards)
    serve.add_argument(
        "--backend",
        choices=["serial", "process"],
        default=serve_defaults.backend,
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=serve_defaults.batch_max,
        help="size-based flush trigger (packets per engine batch)",
    )
    serve.add_argument(
        "--batch-timeout-ms",
        type=float,
        default=serve_defaults.batch_timeout_ms,
        help="time-based flush trigger after the oldest pending packet",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=serve_defaults.max_inflight,
        help="admission bound; arrivals past it are shed with accounting",
    )
    serve.add_argument(
        "--cs-capacity",
        type=int,
        default=serve_defaults.cs_capacity,
        help="content-store entries per shard (0 disables caching)",
    )
    serve.add_argument(
        "--cs-ttl",
        type=float,
        default=serve_defaults.cs_ttl or 0.0,
        help="content-store entry lifetime in seconds (0 = no TTL)",
    )
    serve.add_argument(
        "--pit-capacity",
        type=int,
        default=serve_defaults.pit_capacity or 0,
        help="PIT entries per shard (0 = unbounded)",
    )
    serve.add_argument(
        "--pit-eviction",
        choices=["lru", "fifo"],
        default=serve_defaults.pit_eviction,
    )
    serve.add_argument(
        "--content-count", type=int, default=serve_defaults.content_count
    )
    serve.add_argument("--seed", type=int, default=serve_defaults.seed)
    serve.add_argument(
        "--mitigation",
        action=argparse.BooleanOptionalAction,
        default=serve_defaults.mitigation,
        help="attack-mitigation gate in front of the ingress queue "
        "(token-bucket rate limiting, F_pass sampling, circuit breaker)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=serve_defaults.max_seconds,
        help="stop after this many seconds (default: run until signalled)",
    )
    serve.add_argument(
        "--max-packets",
        type=int,
        default=serve_defaults.max_packets,
        help="stop after receiving this many datagrams",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the final conservation ledger as JSON",
    )

    topology = sub.add_parser(
        "topology",
        help="generate internet-scale multi-AS graphs and run "
        "partial-adoption sweeps (generate / --describe / --sweep)",
    )
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument(
        "--transit", type=int, default=4, help="tier-1 transit ASes"
    )
    topology.add_argument(
        "--regional", type=int, default=24, help="mid-tier provider ASes"
    )
    topology.add_argument(
        "--stub", type=int, default=180, help="edge ASes with hosts"
    )
    topology.add_argument(
        "--ix", type=int, default=3, help="internet exchange points"
    )
    topology.add_argument(
        "--adoption",
        type=float,
        default=0.5,
        help="DIP adoption fraction for generate/describe "
        "(--sweep uses --fractions instead)",
    )
    topology.add_argument("--hosts-per-stub", type=int, default=2)
    topology.add_argument(
        "--multihome", type=int, default=2, help="providers per stub AS"
    )
    mode = topology.add_mutually_exclusive_group()
    mode.add_argument(
        "--describe",
        action="store_true",
        help="print per-AS detail, IXPs and planned tunnels",
    )
    mode.add_argument(
        "--sweep",
        action="store_true",
        help="run the staged adoption sweep with engine-backed routers",
    )
    topology.add_argument(
        "--fractions",
        default="0.05,0.1,0.2,0.3,0.4,0.5,0.65,0.8",
        help="comma-separated adoption fractions for --sweep",
    )
    topology.add_argument(
        "--flows", type=int, default=192, help="stub-to-stub flows per point"
    )
    topology.add_argument("--packets-per-flow", type=int, default=800)
    topology.add_argument(
        "--min-forwarded",
        type=int,
        default=1_000_000,
        help="top the sweep up until engines forwarded this many packets "
        "(0 disables)",
    )
    topology.add_argument(
        "--out",
        metavar="PATH",
        default="BENCH_topology.json",
        help="sweep artifact path ('' disables writing)",
    )
    topology.add_argument(
        "--json",
        action="store_true",
        help="print the summary/detail/sweep payload as JSON",
    )

    fabric = sub.add_parser(
        "fabric",
        help="run the golden multi-AS scenario over the virtual-time "
        "co-simulation fabric; --compare checks it against the "
        "monolithic netsim twin",
    )
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument("--ases", type=int, default=10)
    fabric.add_argument("--hosts-per-as", type=int, default=2)
    fabric.add_argument("--packets", type=int, default=1000)
    fabric.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for component placement (1 = in-process)",
    )
    fabric.add_argument(
        "--spacing", type=float, default=1e-4,
        help="virtual seconds between injected packets",
    )
    fabric.add_argument(
        "--latency", type=float, default=5e-3,
        help="inter-component channel latency (the lookahead)",
    )
    fabric.add_argument(
        "--intra-latency", type=float, default=1e-3,
        help="link delay inside each stub island",
    )
    fabric.add_argument(
        "--cycle-time", type=float, default=1e-9,
        help="seconds per PISA pipeline cycle (service latency)",
    )
    fabric.add_argument(
        "--scheduler-seed",
        type=int,
        default=None,
        help="shuffle component stepping order with this seed "
        "(results must not change)",
    )
    fabric.add_argument(
        "--compare",
        action="store_true",
        help="also run the monolithic netsim twin; exit 1 on divergence",
    )
    fabric.add_argument(
        "--pcap-out",
        metavar="PATH",
        help="write the generated traffic schedule as a pcap",
    )
    fabric.add_argument(
        "--json",
        nargs="?",
        const=True,
        metavar="PATH",
        help="print the run report as JSON (or write it to PATH)",
    )

    conformance = sub.add_parser(
        "conformance",
        help="differential conformance: reference interpreter vs every "
        "optimized executor (corpus replay + seeded fuzz)",
    )
    conformance.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="fuzz N packets across the scenario rotation (0 = off)",
    )
    conformance.add_argument(
        "--seed", type=int, default=0, help="fuzz/corpus seed"
    )
    conformance.add_argument(
        "--corpus",
        metavar="DIR",
        help="replay every vector in this corpus directory "
        "(default: tests/conformance/corpus when present and not fuzzing)",
    )
    conformance.add_argument(
        "--record",
        metavar="DIR",
        help="regenerate the golden corpus groups into DIR "
        "(regression vectors are preserved), then replay",
    )
    conformance.add_argument(
        "--json",
        metavar="PATH",
        help="write the structured DivergenceReport to PATH",
    )
    conformance.add_argument(
        "--scenarios",
        metavar="A,B",
        help="comma-separated scenario subset (default: all)",
    )
    conformance.add_argument(
        "--executors",
        metavar="A,B",
        help="comma-separated executor subset (default: full matrix)",
    )
    conformance.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fuzz time budget; stops starting new cases past it",
    )
    conformance.add_argument(
        "--no-cost-model",
        action="store_true",
        help="skip the cycle model (disables cycle-count comparisons)",
    )
    conformance.add_argument(
        "--no-shrink",
        action="store_true",
        help="report diverging cases without minimizing them",
    )

    attack = sub.add_parser(
        "attack",
        help="goodput-under-attack sweep: seeded attack blends vs the "
        "engine and serve admission paths, mitigated and not",
    )
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument(
        "--fractions",
        default="",
        help="comma-separated attack fractions in [0, 1) "
        "(default: 0.0,0.1,0.3,0.5,0.8)",
    )
    attack.add_argument(
        "--packets",
        type=int,
        default=20000,
        metavar="N",
        help="engine-arm packets per (fraction, mitigation) point",
    )
    attack.add_argument(
        "--serve-rounds",
        type=int,
        default=30,
        help="serve-arm load rounds per point",
    )
    attack.add_argument(
        "--legit-per-round",
        type=int,
        default=48,
        help="serve-arm legit packets per round",
    )
    attack.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the serve-capacity arm (engine arm only)",
    )
    attack.add_argument("--shards", type=int, default=4)
    attack.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
    )
    attack.add_argument(
        "--out",
        metavar="PATH",
        default="",
        help="write the sweep artifact to PATH ('' disables writing)",
    )
    attack.add_argument(
        "--json",
        action="store_true",
        help="print the sweep payload as JSON",
    )

    args = parser.parse_args(argv)
    if args.command == "decode":
        return cmd_decode(args, out)
    if args.command == "lint":
        return cmd_lint(args, out)
    if args.command == "table2":
        return _print_table2(out)
    if args.command == "fig2":
        return _print_fig2(out)
    if args.command == "keys":
        return _print_keys(out)
    if args.command == "engine":
        return cmd_engine(args, out)
    if args.command == "stats":
        return cmd_stats(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "topology":
        return cmd_topology(args, out)
    if args.command == "fabric":
        return cmd_fabric(args, out)
    if args.command == "conformance":
        return cmd_conformance(args, out)
    if args.command == "attack":
        return cmd_attack(args, out)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
