"""Open-loop UDP load for the serving daemon, and the rate ladder.

One non-blocking socket sends the packet list on a fixed schedule,
whatever the daemon does, and drains replies between sends.  Replies
carry no id, so :class:`FifoMatcher` pairs them with sends by order:
the daemon answers queued datagrams in arrival order, and answers a
refused datagram (shed, rate-limited, quarantined) at once with a
status byte of its own.  Latency is timed from each packet's *due*
send time, so a stall in the generator or the daemon is charged to
every packet it delayed.
"""

from __future__ import annotations

import math
import select
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.serve.core import decode_reply

REFUSALS = frozenset(("shed", "rate-limited", "quarantined"))


def nearest_rank(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class FifoMatcher:
    """Pairs replies with outstanding sends.

    A decision reply (or an undecodable one) belongs to the oldest
    outstanding send: queued datagrams are answered in arrival order.
    A refusal belongs to the newest outstanding send: the daemon
    refuses a datagram on arrival, when every packet still queued
    arrived before it.  Sends left outstanding at the end are lost.

    Limitation: a refusal is matched when its reply is read, not when
    the datagram reached the daemon.  Under overload the generator has
    usually sent more by then, so a later send's due time is dropped
    and the refused packet's earlier one is paired with a decision,
    which makes overload latencies look longer.  Counts stay exact.
    The overload phase therefore reports no latency, and a ladder rung
    with any refusal fails whatever its latency.
    """

    def __init__(self) -> None:
        self.outstanding: deque = deque()
        self.dues: List[float] = []
        self.latencies: List[float] = []
        self.refused = 0
        self.undecodable = 0
        self.unexpected = 0

    def sent(self, due: float) -> None:
        self.outstanding.append(due)

    def reply(self, data: bytes, at: float) -> None:
        if not self.outstanding:
            self.unexpected += 1
            return
        try:
            status = decode_reply(data)[0]
        except ValueError:
            self.outstanding.popleft()
            self.undecodable += 1
            return
        if status in REFUSALS:
            self.outstanding.pop()
            self.refused += 1
        else:
            due = self.outstanding.popleft()
            self.dues.append(due)
            self.latencies.append(at - due)

    @property
    def lost(self) -> int:
        return len(self.outstanding)


@dataclass
class Phase:
    """What one open-loop phase sent, got back and measured."""

    rate: float
    sent: int
    elapsed: float
    max_late: float
    client_cpu: float
    matcher: FifoMatcher = field(repr=False)
    start: float
    end: float

    @property
    def latencies(self) -> List[float]:
        return self.matcher.latencies

    @property
    def answered(self) -> int:
        return len(self.matcher.latencies)

    @property
    def refused(self) -> int:
        return self.matcher.refused

    @property
    def undecodable(self) -> int:
        return self.matcher.undecodable

    @property
    def unexpected(self) -> int:
        return self.matcher.unexpected

    @property
    def lost(self) -> int:
        return self.matcher.lost

    @property
    def failed(self) -> int:
        return self.lost + self.refused + self.undecodable + self.unexpected

    def percentile_ms(self, fraction: float) -> float:
        return nearest_rank(self.latencies, fraction) * 1e3

    def windowed_ms(self, fraction: float, window: float) -> Tuple[float, int]:
        """Median over ``window``-second slices (by due time) of each
        slice's percentile; returns it with the number of slices."""
        value, slices = windowed_percentile(
            self.matcher.dues, self.latencies, self.start, window, fraction
        )
        return value * 1e3, slices


def windowed_percentile(
    dues: Sequence[float],
    latencies: Sequence[float],
    start: float,
    window: float,
    fraction: float,
) -> Tuple[float, int]:
    """Per-slice nearest-rank percentiles, and their median.

    Only slices holding at least ``10 / (1 - fraction)`` samples count,
    so every slice's percentile has ten samples beyond it.  A stall on
    a shared host then moves one slice's value, not the result.
    """
    slices: dict = {}
    for due, latency in zip(dues, latencies):
        slices.setdefault(int((due - start) // window), []).append(latency)
    need = 10.0 / (1.0 - fraction) if fraction < 1.0 else 1.0
    values = [
        nearest_rank(samples, fraction)
        for samples in slices.values()
        if len(samples) >= need
    ]
    if not values:
        return nearest_rank(latencies, fraction), 0
    return statistics.median(values), len(values)


def open_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
    sock.connect((host, port))
    sock.setblocking(False)
    return sock


def drain(sock: socket.socket, matcher: FifoMatcher) -> int:
    """Match every reply already waiting on ``sock``; returns how many."""
    got = 0
    recv = sock.recv
    clock = time.perf_counter
    while True:
        try:
            data = recv(65535)
        except BlockingIOError:
            return got
        matcher.reply(data, clock())
        got += 1


def run_phase(
    sock: socket.socket,
    packets: Sequence[bytes],
    offset: int,
    rate: float,
    seconds: float,
    idle_timeout: float = 0.25,
) -> Phase:
    """Send ``rate * seconds`` packets on schedule, then collect replies.

    Packets are taken from ``packets`` cyclically starting at
    ``offset``.  Collection ends when every send is matched or no
    reply has come for ``idle_timeout`` seconds.
    """
    matcher = FifoMatcher()
    count = max(1, int(rate * seconds))
    interval = 1.0 / rate
    total = len(packets)
    clock = time.perf_counter
    cpu0 = time.process_time()
    start = clock() + 0.002
    sent = 0
    max_late = 0.0
    while sent < count:
        now = clock()
        due = start + sent * interval
        if due <= now:
            max_late = max(max_late, now - due)
            while sent < count and due <= now:
                try:
                    sock.send(packets[(offset + sent) % total])
                except BlockingIOError:
                    select.select([], [sock], [], 0.001)
                    break
                matcher.sent(due)
                sent += 1
                due = start + sent * interval
            drain(sock, matcher)
        else:
            ready, _, _ = select.select([sock], [], [], due - now)
            if ready:
                drain(sock, matcher)
    end_send = clock()
    last_progress = end_send
    while matcher.outstanding:
        wait = idle_timeout - (clock() - last_progress)
        if wait <= 0:
            break
        ready, _, _ = select.select([sock], [], [], wait)
        if ready and drain(sock, matcher):
            last_progress = clock()
    end = clock()
    return Phase(
        rate=rate,
        sent=sent,
        elapsed=end_send - start,
        max_late=max_late,
        client_cpu=(time.process_time() - cpu0) / max(end - start, 1e-9),
        matcher=matcher,
        start=start,
        end=end,
    )


# ----------------------------------------------------------------------
# rate ladder
# ----------------------------------------------------------------------
def geometric_ladder(low: float, high: float, ratio: float) -> List[float]:
    """Rates ``low * ratio**k`` from ``low`` up to at most ``high``."""
    if low <= 0 or high < low or ratio <= 1.0:
        raise ValueError("ladder needs 0 < low <= high and ratio > 1")
    rates = [low]
    while rates[-1] * ratio < high * (1 + 1e-9):
        rates.append(rates[-1] * ratio)
    return rates


def search_max_rate(
    rates: Sequence[float],
    probe: Callable[[float], bool],
) -> Tuple[Optional[float], List[Tuple[float, bool]]]:
    """Highest rung whose probe passes, by bisection over the ladder.

    Assumes passing is monotone in rate.  A failed probe is repeated
    once, and the rung fails only if
    both probes fail, so one scheduling hiccup on a shared host does
    not halve the result.  Returns the rate (None when even the lowest
    rung fails) and every probe made, in order.
    """
    history: List[Tuple[float, bool]] = []

    def passes(rate: float) -> bool:
        ok = probe(rate)
        history.append((rate, ok))
        if not ok:
            ok = probe(rate)
            history.append((rate, ok))
        return ok

    low, high = -1, len(rates)  # rates[low] passes, rates[high] fails
    while high - low > 1:
        middle = (low + high) // 2
        if passes(rates[middle]):
            low = middle
        else:
            high = middle
    return (rates[low] if low >= 0 else None), history
