"""The serving daemon: UDP ingress, batching and HTTP on one thread.

The asyncio loop's thread is the only caller of
:class:`~repro.serve.core.ServeCore`:

- the UDP socket is non-blocking and registered with ``add_reader``.
  Each wakeup reads datagrams until ``EAGAIN`` or a budget of
  ``max_inflight + batch_max`` (enough to fill the admission queue and
  shed the rest of a deeper backlog) and submits each one; refusals
  are answered at once.  While ``batch_max`` or more are pending it
  runs ``ServeCore.flush`` and reads again: the size trigger;
- one ``call_at`` deadline, at most ``batch_timeout_ms`` after the
  oldest pending arrival, flushes the rest: the time trigger;
- replies go out with ``sendto``; one that would block waits, in
  order, in a backlog an ``add_writer`` callback drains;
- a minimal HTTP server serves ``/metrics`` (Prometheus text),
  ``/healthz`` (JSON ledger, 500 when conservation is broken) and
  ``/reconfig`` (``?drop=4,5`` / ``?restore=1`` hot-swap) inline.

A flush holds the loop, so flushes, reconfigs and scrapes serialize
with no locking; the budget bounds a wakeup to about ``max_inflight /
batch_max + 2`` flushes before HTTP and timers run again.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.registry import RegistryMutation
from repro.serve.config import ServeConfig
from repro.serve.core import REFUSAL_REPLIES, ServeCore
from repro.telemetry.export import to_prometheus

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 500: "Internal Server Error"}
# Largest UDP payload; recvfrom truncates anything longer.
_MAX_DATAGRAM = 65535


class ServingDaemon:
    """Lifecycle owner: sockets, batching triggers, shutdown."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        core: Optional[ServeCore] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.core = core if core is not None else ServeCore(self.config)
        self.stopping = asyncio.Event()
        self.stop_reason: Optional[str] = None
        self.received = 0
        self.budget = self.config.max_inflight + self.config.batch_max
        self._timeout = self.config.batch_timeout_ms / 1000.0
        self._sock: Optional[socket.socket] = None
        self._backlog: Deque[Tuple[bytes, object]] = deque()
        self._deadline: Optional[asyncio.TimerHandle] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        # Bound at start() time (the loop the daemon runs on).
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def address(self) -> Optional[tuple]:
        """The bound UDP ingress address (None before start())."""
        return None if self._sock is None else self._sock.getsockname()

    @property
    def metrics_address(self) -> Optional[tuple]:
        """The bound HTTP control-plane address (None before start())."""
        server = self._http_server
        return None if server is None else server.sockets[0].getsockname()

    def request_stop(self, reason: str) -> None:
        """Begin shutdown (idempotent; signal handlers land here)."""
        if not self.stopping.is_set():
            self.stop_reason = reason
            self.stopping.set()

    # ------------------------------------------------------------------
    # UDP ingress and the two batching triggers
    # ------------------------------------------------------------------
    def _on_readable(self) -> None:
        """One wakeup: read up to the budget, admit, flush full batches
        (reading again after each, so arrivals join the next batch)."""
        core = self.core
        sock = self._sock
        arrived = self._loop.time()
        budget = self.budget
        flushed = False
        while True:
            while budget:
                try:
                    data, addr = sock.recvfrom(_MAX_DATAGRAM)
                except OSError:  # EAGAIN, or an ICMP error on the socket
                    break
                budget -= 1
                self.received += 1
                status = core.submit_ex(data, addr)
                if status != "queued":
                    # The sender learns in-band why it was refused.
                    self._send(REFUSAL_REPLIES[status], addr)
            if core.pending() < self.config.batch_max:
                break
            self._flush()
            flushed = True
        if not core.pending():
            self._disarm()
        elif flushed or self._deadline is None:
            # Fewer than batch_max were pending before this wakeup, so
            # a flush took all of them: what is left arrived just now.
            self._disarm()
            self._deadline = self._loop.call_at(
                arrived + self._timeout, self._on_deadline
            )
        limit = self.config.max_packets
        if limit is not None and self.received >= limit:
            self.request_stop("max_packets")

    def _on_deadline(self) -> None:
        """The time trigger: flush the partial batch."""
        self._disarm()
        while self.core.pending():
            self._flush()

    def _disarm(self) -> None:
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    def _flush(self) -> None:
        for addr, payload in self.core.flush():
            self._send(payload, addr)

    def _send(self, payload: bytes, addr) -> None:
        if not self._backlog:
            try:
                self._sock.sendto(payload, addr)
                return
            except BlockingIOError:
                self._loop.add_writer(self._sock, self._on_writable)
            except OSError:  # the sender's address is unreachable
                return
        self._backlog.append((payload, addr))

    def _on_writable(self) -> None:
        """Send parked replies in order until the socket would block."""
        backlog = self._backlog
        while backlog:
            payload, addr = backlog[0]
            try:
                self._sock.sendto(payload, addr)
            except BlockingIOError:
                return
            except OSError:
                pass
            backlog.popleft()
        self._loop.remove_writer(self._sock)

    # ------------------------------------------------------------------
    # HTTP control plane
    # ------------------------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            while True:  # drain headers; we never need them
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                await self._respond(writer, 400, "text/plain", "bad request")
                return
            path, _, query = parts[1].partition("?")
            status, ctype, body = self._route(path, query)
            await self._respond(writer, status, ctype, body)
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _route(self, path: str, query: str) -> Tuple[int, str, str]:
        if path == "/metrics":
            snapshot = self.core.snapshot_metrics()
            return 200, "text/plain; version=0.0.4", to_prometheus(snapshot)
        if path == "/healthz":
            summary = self.core.summary()
            # In-flight packets are not "unaccounted" -- only a ledger
            # that stays off the law once everything has drained is.
            healthy = summary["unaccounted"] == 0
            return (
                200 if healthy else 500,
                "application/json",
                json.dumps(summary, sort_keys=True),
            )
        if path == "/reconfig":
            try:
                mutation = _parse_reconfig(query)
            except ValueError as exc:
                return 400, "application/json", json.dumps(
                    {"error": str(exc)}
                )
            result = self.core.reconfigure(mutation)
            return 200, "application/json", json.dumps(result)
        return 404, "text/plain", "not found"

    @staticmethod
    async def _respond(writer, status: int, ctype: str, body: str) -> None:
        payload = body.encode("utf-8")
        writer.write(
            (
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            + payload
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the UDP socket and the HTTP server; serve() starts
        reading."""
        self._loop = asyncio.get_running_loop()
        config = self.config
        family, kind, proto, _, addr = socket.getaddrinfo(
            config.host, config.port, type=socket.SOCK_DGRAM
        )[0]
        sock = socket.socket(family, kind, proto)
        sock.setblocking(False)
        sock.bind(addr)
        self._sock = sock
        self._http_server = await asyncio.start_server(
            self._handle_http, config.host, config.metrics_port
        )

    async def serve(self) -> Dict[str, object]:
        """Run until signalled (or the configured bound); returns the
        final conservation ledger."""
        await self.start()
        self._loop.add_reader(self._sock, self._on_readable)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loops; ^C still raises KeyboardInterrupt
        try:
            await asyncio.wait_for(
                self.stopping.wait(), self.config.max_seconds
            )
        except asyncio.TimeoutError:
            self.request_stop("max_seconds")
        return await self.shutdown()

    async def shutdown(self) -> Dict[str, object]:
        """Drain pending packets (replies still go out), then close."""
        self.request_stop(self.stop_reason or "shutdown")
        sock = self._sock
        if sock is not None:
            self._loop.remove_reader(sock)
            self._disarm()
            # Every pending packet is flushed and *answered* before the
            # socket closes -- a drain that ate the tail of replies
            # would leave the sender unable to account for packets the
            # ledger says were processed.  Blocking mode lets the last
            # replies wait for buffer space instead of being parked.
            sock.setblocking(True)
            self._on_deadline()
            self._on_writable()
            sock.close()
            self._sock = None
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        summary = self.core.summary()
        summary["stop_reason"] = self.stop_reason
        summary["received"] = self.received
        self.core.close()
        return summary


def run_daemon(
    config: Optional[ServeConfig] = None,
    json_out: bool = False,
    out=None,
) -> Dict[str, object]:
    """Blocking entry point behind ``repro serve``."""
    import sys

    from repro.workloads.reporting import emit_payload

    out = out if out is not None else sys.stdout
    daemon = ServingDaemon(config)
    summary = asyncio.run(daemon.serve())

    def render() -> None:
        print(
            f"serve: offered={summary['offered']} "
            f"processed={summary['processed']} "
            f"dropped={summary['dropped_backpressure']} "
            f"dead={summary['dead_lettered']} shed={summary['shed']} "
            f"unaccounted={summary['unaccounted']} "
            f"reconfigs={summary['reconfigs']} "
            f"p99={summary['batch_latency_p99'] * 1e3:.3f}ms "
            f"({summary['stop_reason']})",
            file=out,
        )

    emit_payload(json_out, lambda: summary, render, out=out, sort_keys=True)
    return summary


def _parse_reconfig(query: str) -> RegistryMutation:
    """``drop=4,5&restore=1`` -> a RegistryMutation (ValueError on junk)."""
    drop: Tuple[int, ...] = ()
    restore = False
    for piece in filter(None, query.split("&")):
        key, _, value = piece.partition("=")
        if key == "drop":
            try:
                drop = tuple(
                    int(item) for item in value.split(",") if item
                )
            except ValueError:
                raise ValueError(f"bad drop list {value!r}")
        elif key == "restore":
            restore = value not in ("", "0", "false")
        else:
            raise ValueError(f"unknown reconfig parameter {key!r}")
    if not drop and not restore:
        raise ValueError("reconfig needs ?drop=<keys> and/or ?restore=1")
    return RegistryMutation(drop_keys=drop, restore_defaults=restore)
