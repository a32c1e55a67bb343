"""In-memory spans around each layer's public entry point.

The benchmark never edits the program to trace it: :func:`install`
replaces a handful of public methods with wrappers that record a span
(name, start, end, parent, shared id, count, label) and then call the
original.  Spans stay in memory and are written out when the run ends;
self time is computed afterwards from the parent links.

Only the process that installed the wrappers records.  Forked engine
shard workers inherit the patched classes but skip recording (their
work shows up in ``ShardReport``), and spawned fabric workers import
the program fresh, so they are never patched at all.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Span record layout (a list, so the end time can be filled in place):
NAME, START, END, PARENT, IDENT, COUNT, LABEL = range(7)


class SpanRecorder:
    """Collects spans from every thread of the installing process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._idents = iter(range(1, 1 << 62))
        self._ident_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_ident(self) -> int:
        with self._ident_lock:
            return next(self._idents)

    def export(self) -> Dict[str, object]:
        """Spans with parent links as list indices, plus counters."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = []
        for record in self.spans:
            parent = record[PARENT]
            rows.append([
                record[NAME], record[START], record[END],
                -1 if parent is None else index[id(parent)],
                record[IDENT], record[COUNT], record[LABEL],
            ])
        return {
            "spans": rows,
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)


def traced(
    recorder: SpanRecorder,
    name: str,
    fn: Callable,
    count: Optional[Callable] = None,
    label: Optional[Callable] = None,
    new_id: bool = False,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
    skip_nested: bool = False,
) -> Callable:
    """Wrap ``fn`` so every call records one span.

    ``count(args, result)`` sets the span's work count (default 1);
    ``label(args)`` tags it; ``new_id`` starts a fresh shared id
    instead of inheriting the parent's; ``before(args)`` and
    ``after(args, result)`` record counters at the same boundary;
    ``skip_nested`` records nothing when a span of the same name is
    already open on this thread (a subclass calling ``super()``).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != recorder.pid:
            return fn(*args, **kwargs)
        stack = recorder._stack()
        if skip_nested and any(r[NAME] == name for r in stack):
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        ident = (
            parent[IDENT]
            if parent is not None and not new_id
            else recorder.new_ident()
        )
        record = [name, 0.0, 0.0, parent, ident, 1,
                  label(args) if label is not None else None]
        if before is not None:
            before(args)
        recorder.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()
        if count is not None:
            record[COUNT] = count(args, result)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _patch(owner, attr: str, make: Callable[[Callable], Callable], undo: list):
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    undo.append((owner, attr, raw))


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced layer entry point; returns the uninstaller."""
    from repro.core.packet import DipPacket
    from repro.core.processor import RouterProcessor
    from repro.dataplane.dip_pipeline import DipPipeline
    from repro.engine import ForwardingEngine
    from repro.fabric import components as fabric_components
    from repro.fabric.sync import Component
    from repro.serve import core as serve_core

    undo: list = []
    counters = recorder.counters
    samples = recorder.samples

    def wrap(owner, attr, name, **options):
        _patch(
            owner, attr,
            lambda fn: traced(recorder, name, fn, **options),
            undo,
        )

    def batch_len(args, result):
        return len(args[1])

    def engine_rings(args, report):
        rings = report.rings
        if rings:
            counters["engine.ring.high_watermark"] = max(
                counters["engine.ring.high_watermark"],
                max(ring.high_watermark for ring in rings),
            )
            counters["engine.ring.dropped"] += sum(
                ring.dropped for ring in rings
            )

    def queue_depth(args):
        samples["serve.queue.depth"].append(args[0].pending())

    wrap(DipPacket, "decode", "core.decode")
    wrap(RouterProcessor, "process", "core.process")
    wrap(RouterProcessor, "process_batch", "core.process_batch",
         count=batch_len)
    wrap(ForwardingEngine, "run", "engine.run", count=batch_len,
         label=lambda args: args[0].config.backend, after=engine_rings)
    wrap(serve_core.ServeCore, "submit_ex", "serve.submit", new_id=True)
    wrap(serve_core.ServeCore, "flush", "serve.flush", new_id=True,
         count=lambda args, result: len(result), before=queue_depth)
    # flush() looks encode_reply up as a module global at call time.
    _patch(
        serve_core, "encode_reply",
        lambda fn: traced(recorder, "serve.encode_reply", fn),
        undo,
    )
    kind = {"label": lambda args: type(args[0]).__name__,
            "skip_nested": True}
    wrap(Component, "step", "fabric.step", **kind)
    for cls in (fabric_components.EngineRouterComponent,
                fabric_components.NetsimComponent):
        if "step" in cls.__dict__:
            wrap(cls, "step", "fabric.step", **kind)
    wrap(DipPipeline, "process", "dataplane.pisa")

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
        undo.clear()

    return uninstall


# ----------------------------------------------------------------------
# analysis over exported spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    ``spans`` rows carry ``start`` at index 1, ``end`` at 2 and the
    parent's row index (or -1) at 3, as :meth:`SpanRecorder.export`
    writes them.  Children are clipped to the parent's interval, and
    overlapping children (two threads under one parent) count once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in spans:
        if row[PARENT] >= 0:
            children[row[PARENT]].append((row[START], row[END]))
    out = []
    for index, row in enumerate(spans):
        start, end = row[START], row[END]
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, start)
            child_end = min(child_end, end)
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


class SpanTable:
    """Per-name totals over exported spans, optionally in a time window."""

    def __init__(
        self,
        exported: Dict[str, object],
        window: Optional[Tuple[float, float]] = None,
        where: Optional[Callable[[list, list], bool]] = None,
    ) -> None:
        spans = exported["spans"]
        selfs = self_times(spans)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_total: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.work: Dict[str, int] = defaultdict(int)
        self.by_label: Dict[Tuple[str, str], float] = defaultdict(float)
        for row, own in zip(spans, selfs):
            if window is not None and not (
                window[0] <= row[START] and row[END] <= window[1]
            ):
                continue
            if where is not None and not where(row, spans):
                continue
            name = row[NAME]
            duration = row[END] - row[START]
            self.total[name] += duration
            self.self_total[name] += own
            self.calls[name] += 1
            self.work[name] += row[COUNT]
            if row[LABEL] is not None:
                self.by_label[(name, row[LABEL])] += duration

    def us_per_unit(self, name: str) -> float:
        work = self.work.get(name, 0)
        return self.total[name] / work * 1e6 if work else 0.0

    def self_us_per_unit(self, name: str) -> float:
        work = self.work.get(name, 0)
        return self.self_total[name] / work * 1e6 if work else 0.0
