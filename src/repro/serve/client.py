"""Asyncio load generator for the serving daemon.

Drives a Zipf-skewed NDN content-delivery mix at the daemon's UDP
ingress and accounts for every reply by status byte, so a scripted run
(``examples/serve_content_delivery.py``, the CI smoke job) can check
the daemon's ledger against an independent client-side count.

The packet mix rebuilds the daemon's catalog from the same
``(content_count, seed)`` pair (:mod:`repro.serve.state`), then per
packet draws a Zipf-ranked name and sends one of:

- an *interest* (``F_FIB``): FIB forward upstream, PIT aggregation for
  in-flight names, DELIVER for producer-local catalog entries, or a
  content-store hit once data has been cached;
- a *data* packet (``F_PIT``): satisfies pending interests and
  populates the content store (the churn that exercises the bounded
  PIT/CS).

Usage: ``python -m repro.serve.client --port 9310 --packets 5000``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import socket
import time
from typing import Dict, List, Optional

from repro.realize.ndn import build_data_packet, build_interest_packet
from repro.serve.config import DEFAULT_PORT, ServeConfig
from repro.serve.core import decode_reply
from repro.serve.state import serve_content_names


def build_load(
    packet_count: int,
    content_count: int = 512,
    seed: int = 7,
    skew: float = 1.1,
    data_fraction: float = 0.3,
) -> List[bytes]:
    """The deterministic wire-format packet sequence for one run.

    ``data_fraction`` of packets are Data for the *same* Zipf draw
    stream, so popular names cycle interest -> data -> cached, the
    content store churns at the hot head and the PIT turns over at the
    cold tail.
    """
    rng = random.Random(seed * 1000003 + packet_count)
    names = serve_content_names(content_count, seed)
    weights = [1.0 / (rank ** skew) for rank in range(1, len(names) + 1)]
    packets: List[bytes] = []
    for name in rng.choices(names, weights=weights, k=packet_count):
        if rng.random() < data_fraction:
            packets.append(
                build_data_packet(name, content=b"serve-data").encode()
            )
        else:
            packets.append(build_interest_packet(name).encode())
    return packets


class _ClientProtocol(asyncio.DatagramProtocol):
    """Counts replies by status; releases the in-flight window."""

    def __init__(self, window: asyncio.Semaphore) -> None:
        self.window = window
        self.statuses: Dict[str, int] = {}
        self.replies = 0
        self.decode_errors = 0
        self.done = asyncio.Event()
        self.expected: Optional[int] = None
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.replies += 1
        try:
            status, _, _ = decode_reply(data)
        except ValueError:
            self.decode_errors += 1
            status = "undecodable"
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.window.release()
        if self.expected is not None and self.replies >= self.expected:
            self.done.set()


async def run_load(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    packets: int = 5000,
    content_count: int = 512,
    seed: int = 7,
    skew: float = 1.1,
    data_fraction: float = 0.3,
    window: int = 256,
    rate: Optional[float] = None,
    duration: Optional[float] = None,
    reply_timeout: float = 5.0,
) -> Dict[str, object]:
    """Send the load; returns the client-side accounting summary.

    ``window`` caps unacknowledged packets (ack = any reply, shed
    included -- the daemon answers everything, which is what makes a
    fixed window deliver backpressure to the generator).  ``rate``
    (pkts/s) paces sends; ``duration`` loops the packet sequence until
    the deadline instead of stopping after ``packets``.
    """
    loop = asyncio.get_running_loop()
    semaphore = asyncio.Semaphore(window)
    transport, protocol = await loop.create_datagram_endpoint(
        lambda: _ClientProtocol(semaphore),
        remote_addr=(host, port),
    )
    # The daemon answers a batch at once, so a window of replies can
    # wait here: ~1 KiB of kernel memory each (the kernel caps this).
    transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_RCVBUF, window * 2048
    )
    load = build_load(
        packets,
        content_count=content_count,
        seed=seed,
        skew=skew,
        data_fraction=data_fraction,
    )
    started = time.monotonic()
    deadline = started + duration if duration is not None else None
    sent = 0
    interval = 1.0 / rate if rate else 0.0
    next_send = started
    try:
        index = 0
        while True:
            if deadline is None:
                if sent >= packets:
                    break
            elif time.monotonic() >= deadline:
                break
            await semaphore.acquire()
            if interval:
                delay = next_send - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                next_send += interval
            transport.sendto(load[index % len(load)])
            sent += 1
            index += 1
        # Wait for the tail of replies (shed replies come back too, so
        # expected == sent unless datagrams were lost on the wire --
        # loopback never loses them in practice).
        protocol.expected = sent
        if protocol.replies < sent:
            try:
                await asyncio.wait_for(
                    protocol.done.wait(), timeout=reply_timeout
                )
            except asyncio.TimeoutError:
                pass
    finally:
        transport.close()
    elapsed = time.monotonic() - started
    return {
        "sent": sent,
        "replies": protocol.replies,
        "missing": sent - protocol.replies,
        "statuses": dict(sorted(protocol.statuses.items())),
        "decode_errors": protocol.decode_errors,
        "elapsed_seconds": elapsed,
        "pkts_per_second": sent / elapsed if elapsed > 0 else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    defaults = ServeConfig()
    parser = argparse.ArgumentParser(
        description="Zipf NDN load generator for `repro serve`"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--packets", type=int, default=5000)
    parser.add_argument(
        "--content-count", type=int, default=defaults.content_count
    )
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--skew", type=float, default=1.1)
    parser.add_argument("--data-fraction", type=float, default=0.3)
    parser.add_argument("--window", type=int, default=256)
    parser.add_argument("--rate", type=float, default=None)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args(argv)
    summary = asyncio.run(
        run_load(
            host=args.host,
            port=args.port,
            packets=args.packets,
            content_count=args.content_count,
            seed=args.seed,
            skew=args.skew,
            data_fraction=args.data_fraction,
            window=args.window,
            rate=args.rate,
            duration=args.duration,
        )
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["missing"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
