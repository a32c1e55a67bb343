#!/usr/bin/env python
"""The serving daemon under sustained load, reconfigured mid-stream.

The long-run scenario DESIGN.md §3.11 promises (self-checking, like
every example):

1. start `repro serve` in-process on ephemeral ports -- a bounded
   PIT/CS content-delivery node behind admission control;
2. drive a Zipf interest/data mix at it for ``--seconds`` (default 60)
   with the real load generator, accounting for every reply;
3. a third of the way in, hot-swap the operation set over the live
   HTTP control plane (`/reconfig?drop=4`: F_FIB gone, interests
   degrade to default-port forwarding per §2.4 "simply ignore this
   FN"), and restore it at two thirds -- traffic never stops;
4. assert the conservation ledger (`offered == processed + dropped +
   dead-lettered + shed`, client replies == client sends), that the
   hot-swap actually changed live decisions, and that the PIT/CS
   stayed within their configured bounds the whole time;
5. record sustained pkts/s, p99 batch latency and shed fraction in
   the committed `BENCH_serve.json` ledger.

Usage: ``PYTHONPATH=src python examples/serve_content_delivery.py
[--seconds 60] [--no-ledger]``
"""

import argparse
import asyncio
import json

from repro.serve import ServeConfig
from repro.serve.client import run_load
from repro.serve.daemon import ServingDaemon
from repro.workloads.reporting import update_bench_json

CONTENT_COUNT = 512
PIT_CAPACITY = 512
CS_CAPACITY = 128


async def http_get(port: int, path: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode("utf-8")


async def scenario(seconds: float):
    config = ServeConfig(
        port=0,
        metrics_port=0,
        shards=2,
        batch_max=64,
        batch_timeout_ms=5.0,
        max_inflight=1024,
        content_count=CONTENT_COUNT,
        pit_capacity=PIT_CAPACITY,
        cs_capacity=CS_CAPACITY,
        cs_ttl=10.0,
    )
    daemon = ServingDaemon(config)
    serve_task = asyncio.ensure_future(daemon.serve())
    while daemon.metrics_address is None:
        if serve_task.done():
            serve_task.result()
        await asyncio.sleep(0.01)
    udp_port = daemon.address[1]
    http_port = daemon.metrics_address[1]
    print(f"daemon up: udp={udp_port} http={http_port} "
          f"(pit<={PIT_CAPACITY}, cs<={CS_CAPACITY}, ttl=10s)")

    async def swaps():
        """Two live hot-swaps while the load runs, with evidence."""
        await asyncio.sleep(seconds / 3)
        status, body = await http_get(http_port, "/reconfig?drop=4")
        assert status == 200, body
        print(f"  t={seconds / 3:.0f}s  dropped F_FIB: {body}")
        # Snapshot *after* the ack: every flush from here until the
        # restore runs without F_FIB, so the deliver count must freeze.
        _, before = await http_get(http_port, "/healthz")
        await asyncio.sleep(seconds / 3)
        _, after = await http_get(http_port, "/healthz")
        status, body = await http_get(http_port, "/reconfig?restore=1")
        assert status == 200, body
        print(f"  t={2 * seconds / 3:.0f}s restored defaults: {body}")
        return json.loads(before), json.loads(after)

    load_task = asyncio.ensure_future(
        run_load(
            port=udp_port,
            content_count=CONTENT_COUNT,
            packets=5000,  # the cycle; duration decides how long
            duration=seconds,
            window=128,
        )
    )
    before, after = await swaps()
    client = await load_task

    # PIT/CS bounds, inspected live on each shard before shutdown.
    for worker in daemon.core.engine._workers:
        state = worker.processor.state
        assert len(state.pit) <= PIT_CAPACITY, len(state.pit)
        assert len(state.content_store) <= CS_CAPACITY
    daemon.request_stop("scenario-done")
    summary = await serve_task
    return client, summary, before, after


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="skip updating BENCH_serve.json",
    )
    args = parser.parse_args()
    client, summary, before, after = asyncio.run(scenario(args.seconds))

    print("\n== conservation ==")
    for key in ("offered", "processed", "dropped_backpressure",
                "dead_lettered", "shed", "unaccounted", "reconfigs"):
        print(f"  {key:<22} {summary[key]}")
    print(f"  client sent/replies    {client['sent']}/{client['replies']}")
    assert summary["unaccounted"] == 0, summary
    assert summary["reconfigs"] == 2
    assert client["missing"] == 0, client
    assert client["decode_errors"] == 0

    # The mid-stream swap visibly changed live decisions: DELIVERs for
    # producer-local names only accrue while F_FIB is installed.
    first_third = before["decisions"].get("deliver", 0)
    second_third = after["decisions"].get("deliver", 0) - first_third
    print("\n== hot-swap evidence ==")
    print(f"  delivers before swap   {first_third}")
    print(f"  delivers while dropped {second_third}")
    assert first_third > 0
    assert second_third == 0, "F_FIB kept delivering after the drop"

    pkts = summary["pkts_per_second"]
    p99_ms = summary["batch_latency_p99"] * 1e3
    shed_fraction = summary["shed_fraction"]
    print("\n== sustained ==")
    print(f"  {pkts:,.0f} pkts/s over {summary['uptime_seconds']:.1f}s, "
          f"p99 batch {p99_ms:.3f}ms, shed {shed_fraction:.2%}")
    if not args.no_ledger:
        update_bench_json(
            "BENCH_serve.json",
            "SERVE: daemon under Zipf content-delivery load",
            ["metric", "value"],
            [
                ["sustained pkts/s", f"{pkts:,.0f}"],
                ["p99 batch latency", f"{p99_ms:.3f}ms"],
                ["shed fraction", f"{shed_fraction:.4f}"],
                ["offered", f"{summary['offered']}"],
                ["run seconds", f"{summary['uptime_seconds']:.1f}"],
                ["live reconfigs", f"{summary['reconfigs']}"],
            ],
        )
        print("  ledger -> BENCH_serve.json")
    print("\nOK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
