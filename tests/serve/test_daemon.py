"""End-to-end daemon tests over loopback UDP + the HTTP control plane.

Each test runs a full asyncio scenario (``asyncio.run`` -- the suite
has no async plugin): start a daemon on ephemeral ports, drive it with
the real load generator, scrape/steer it over HTTP, and check the
final conservation ledger against the client-side accounting.

The batching-contract tests further down bind a daemon without
registering its reader, then call the reader and fire the deadline by
hand over real loopback sockets, so each wakeup is one step of the
test and no assertion depends on timing.
"""

import asyncio
import json
import select
import socket

import pytest

from repro.core.registry import RegistryMutation
from repro.serve import ServeConfig, decode_reply
from repro.serve.client import build_load, run_load
from repro.serve.daemon import ServingDaemon, _parse_reconfig


async def start_daemon(**overrides):
    """A running daemon on ephemeral ports + its serve() task."""
    defaults = dict(
        port=0,
        metrics_port=0,
        shards=2,
        batch_max=16,
        batch_timeout_ms=2.0,
        content_count=64,
        cs_ttl=30.0,
    )
    defaults.update(overrides)
    daemon = ServingDaemon(ServeConfig(**defaults))
    task = asyncio.ensure_future(daemon.serve())
    while daemon.metrics_address is None:
        if task.done():
            task.result()  # surface the startup error
        await asyncio.sleep(0.01)
    udp_port = daemon.address[1]
    http_port = daemon.metrics_address[1]
    return daemon, task, udp_port, http_port


async def http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode("utf-8")


def test_daemon_serves_load_and_control_plane():
    async def scenario():
        daemon, task, udp_port, http_port = await start_daemon()

        client = await run_load(
            port=udp_port, packets=400, content_count=64, window=64
        )
        assert client["sent"] == 400
        assert client["missing"] == 0
        assert client["decode_errors"] == 0

        status, body = await http_get(http_port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["unaccounted"] == 0
        assert health["offered"] == 400

        status, body = await http_get(http_port, "/metrics")
        assert status == 200
        assert "serve_offered_total 400" in body
        assert "engine_shed_total" in body
        assert "engine_packets_processed_total" in body

        # Live hot-swap: drop F_FIB mid-life, then keep serving.
        status, body = await http_get(http_port, "/reconfig?drop=4")
        assert status == 200
        assert json.loads(body) == {
            "registry_version": json.loads(body)["registry_version"],
            "generation": 1,
        }
        client2 = await run_load(
            port=udp_port, packets=200, content_count=64, window=64
        )
        assert client2["missing"] == 0
        # With F_FIB dropped nothing DELIVERs any more: local names
        # default-forward like everything else (ignored non-critical FN).
        assert "deliver" in client["statuses"]
        assert "deliver" not in client2["statuses"]

        daemon.request_stop("test")
        summary = await task
        assert summary["offered"] == 600
        assert summary["unaccounted"] == 0
        assert summary["reconfigs"] == 1
        assert summary["stop_reason"] == "test"

    asyncio.run(scenario())


def test_daemon_http_error_paths():
    async def scenario():
        daemon, task, _, http_port = await start_daemon()
        status, _ = await http_get(http_port, "/nope")
        assert status == 404
        status, body = await http_get(http_port, "/reconfig")
        assert status == 400
        assert "error" in json.loads(body)
        status, _ = await http_get(http_port, "/reconfig?drop=x")
        assert status == 400
        daemon.request_stop("test")
        summary = await task
        assert summary["reconfigs"] == 0

    asyncio.run(scenario())


def test_daemon_stops_at_max_packets_and_answers_everything():
    async def scenario():
        daemon, task, udp_port, _ = await start_daemon(max_packets=120)
        client = await run_load(
            port=udp_port, packets=120, content_count=64, window=32
        )
        summary = await task
        assert summary["stop_reason"] == "max_packets"
        assert summary["offered"] == 120
        assert summary["unaccounted"] == 0
        assert client["missing"] == 0
        assert client["replies"] == 120

    asyncio.run(scenario())


def test_shed_replies_reach_the_client():
    async def scenario():
        # max_inflight=1 with per-packet flushes: almost every packet
        # of a window finds the queue full and the client sees "shed".
        # The window stays small enough that the kernel's UDP receive
        # buffer never drops the burst -- shed must be the *accounted*
        # refusal, not wire loss.
        daemon, task, udp_port, _ = await start_daemon(
            max_inflight=1, batch_max=1, batch_timeout_ms=50.0
        )
        client = await run_load(
            port=udp_port, packets=300, content_count=64, window=32
        )
        daemon.request_stop("test")
        summary = await task
        assert summary["unaccounted"] == 0
        assert client["missing"] == 0
        assert summary["shed"] == client["statuses"].get("shed", 0)
        assert summary["shed"] > 0

    asyncio.run(scenario())


def test_parse_reconfig():
    mutation = _parse_reconfig("drop=4,5")
    assert mutation == RegistryMutation(drop_keys=(4, 5))
    mutation = _parse_reconfig("restore=1&drop=9")
    assert mutation.restore_defaults and mutation.drop_keys == (9,)
    with pytest.raises(ValueError):
        _parse_reconfig("")
    with pytest.raises(ValueError):
        _parse_reconfig("frob=1")
    with pytest.raises(ValueError):
        _parse_reconfig("drop=a,b")


# ----------------------------------------------------------------------
# the batching contract, one hand-driven wakeup at a time
# ----------------------------------------------------------------------
async def bound_daemon(**overrides):
    """A started daemon whose reader is not registered, and a client.

    The deadline is a minute out unless overridden, so it only fires
    when a test fires it.
    """
    defaults = dict(
        port=0,
        metrics_port=0,
        shards=1,
        batch_max=4,
        batch_timeout_ms=60_000.0,
        content_count=64,
    )
    defaults.update(overrides)
    daemon = ServingDaemon(ServeConfig(**defaults))
    await daemon.start()
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.bind(("127.0.0.1", 0))
    client.settimeout(5.0)
    return daemon, client


def send(daemon, client, count, offset=0):
    for wire in build_load(offset + count, content_count=64)[offset:]:
        client.sendto(wire, daemon.address)


def wake(daemon):
    """One reader wakeup, once the ingress socket has data."""
    select.select([daemon._sock], [], [], 5.0)
    daemon._on_readable()


def readable(daemon):
    return bool(select.select([daemon._sock], [], [], 0)[0])


def collect(client, count):
    return [decode_reply(client.recv(65535))[0] for _ in range(count)]


def test_partial_batch_waits_for_the_deadline_then_flushes_once():
    async def scenario():
        daemon, client = await bound_daemon(batch_max=8)
        loop = asyncio.get_running_loop()
        timeout = daemon.config.batch_timeout_ms / 1000.0
        before = loop.time()
        deadline = None
        for index in range(5):
            send(daemon, client, 1, offset=index)
            wake(daemon)
            ledger = daemon.core.summary()
            assert ledger["flushes"] == 0
            assert ledger["pending"] == index + 1
            if deadline is None:
                deadline = daemon._deadline.when()
                assert before + timeout <= deadline <= loop.time() + timeout
            # One deadline, kept from the oldest pending arrival.
            assert daemon._deadline.when() == deadline
        daemon._on_deadline()
        assert daemon._deadline is None
        ledger = daemon.core.summary()
        assert ledger["flushes"] == 1
        assert ledger["replied"] == 5
        assert ledger["pending"] == 0
        assert "shed" not in collect(client, 5)
        client.close()
        summary = await daemon.shutdown()
        assert summary["flushes"] == 1
        assert summary["unaccounted"] == 0

    asyncio.run(scenario())


def test_one_wakeup_flushes_every_full_batch_and_arms_one_deadline():
    async def scenario():
        daemon, client = await bound_daemon(batch_max=4)
        send(daemon, client, 3 * 4 + 1)
        wake(daemon)
        ledger = daemon.core.summary()
        assert daemon.received == 13
        assert ledger["flushes"] == 3
        assert ledger["pending"] == 1
        assert daemon._deadline is not None
        assert len(collect(client, 12)) == 12
        daemon._on_deadline()
        assert daemon.core.summary()["flushes"] == 4
        assert len(collect(client, 1)) == 1
        client.close()
        summary = await daemon.shutdown()
        assert summary["replied"] == 13
        assert summary["unaccounted"] == 0

    asyncio.run(scenario())


def test_burst_past_the_budget_is_answered_with_healthz_in_between():
    async def scenario():
        daemon, client = await bound_daemon(batch_max=4, max_inflight=8)
        assert daemon.budget == 12
        http_port = daemon.metrics_address[1]
        burst = 30
        send(daemon, client, burst)
        wake(daemon)
        assert daemon.received == daemon.budget
        assert readable(daemon)  # the rest waits for the next wakeup
        status, body = await http_get(http_port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["offered"] == daemon.budget
        assert health["unaccounted"] == 0
        while daemon.received < burst:
            received = daemon.received
            wake(daemon)
            assert 0 < daemon.received - received <= daemon.budget
        daemon._on_deadline()
        statuses = collect(client, burst)
        ledger = daemon.core.summary()
        assert ledger["offered"] == burst
        assert ledger["pending"] == 0
        assert ledger["unaccounted"] == 0
        # Every datagram got exactly one reply: a verdict or a shed.
        assert statuses.count("shed") == ledger["shed"] > 0
        assert ledger["replied"] + ledger["shed"] == burst
        client.close()
        await daemon.shutdown()

    asyncio.run(scenario())


class _BlocksOnce:
    """A socket whose first sendto raises BlockingIOError."""

    def __init__(self, sock):
        self.sock = sock
        self.blocked = False

    def sendto(self, payload, addr):
        if not self.blocked:
            self.blocked = True
            raise BlockingIOError
        return self.sock.sendto(payload, addr)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_a_reply_that_would_block_is_parked_then_sent():
    async def scenario():
        daemon, client = await bound_daemon(batch_max=1)
        daemon._sock = _BlocksOnce(daemon._sock)
        client.setblocking(False)
        send(daemon, client, 2)
        wake(daemon)
        assert daemon.core.summary()["replied"] == 2
        # The first reply blocked; the second queues behind it.
        assert len(daemon._backlog) == 2
        loop = asyncio.get_running_loop()
        replies = [
            await asyncio.wait_for(loop.sock_recv(client, 65535), 5.0)
            for _ in range(2)
        ]
        assert all(decode_reply(reply)[0] != "shed" for reply in replies)
        assert not daemon._backlog
        client.close()
        summary = await daemon.shutdown()
        assert summary["unaccounted"] == 0

    asyncio.run(scenario())
