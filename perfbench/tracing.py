"""Span tracing from outside the program: wrap public layer entry points.

The benchmark records one span per call into a layer's public function
(``Bundler.plan``, ``codec.encode_command``, ``MemcachedServer.handle``,
...).  It never edits the program: :func:`instrument` swaps each target
attribute for a timing wrapper and puts the original back on exit.

Each span carries a request id (shared by every span under one top-level
call), its own id and its parent's id.  The current span travels in a
``contextvars.ContextVar``, so the parent is right both on the sync call
stack and across asyncio tasks (a task copies the context it was created
in).  When a top-level span ends, its request's spans are folded into
per-layer totals and dropped, so memory stays flat however long the run.

A layer's *self time* is its span's duration minus the part of that
interval covered by its children (the union, since asyncio children can
overlap).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: summed ``len()`` of results, for wrappers made with ``sized=True``
    bytes: int = 0


@dataclass
class RootStats:
    """Per-layer totals over all requests whose top-level span has one name."""

    requests: int = 0
    total_s: float = 0.0
    layers: dict = field(default_factory=lambda: defaultdict(LayerTotals))
    #: count of (child name, parent name) pairs, e.g. write-back sets
    edges: dict = field(default_factory=lambda: defaultdict(int))


def _covered(parent_start: float, parent_end: float, children: list) -> float:
    """Length of the union of child intervals, clipped to the parent."""
    covered = 0.0
    cursor = parent_start
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, parent_end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class Tracer:
    """In-memory span recorder with per-request folding."""

    def __init__(self) -> None:
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = count(1)
        #: request id -> [(span id, parent id, name, start, end, bytes), ...]
        self._open: dict[int, list] = defaultdict(list)
        #: top-level span name -> RootStats
        self.roots: dict[str, RootStats] = defaultdict(RootStats)

    def _enter(self):
        parent = self._current.get()
        sid = next(self._ids)
        if parent is None:
            rid, pid = sid, 0
        else:
            rid, pid = parent[0], parent[1]
        return rid, sid, pid, self._current.set((rid, sid))

    def _exit(self, rid, sid, pid, token, name, start, end, nbytes=0) -> None:
        self._current.reset(token)
        spans = self._open[rid]
        spans.append((sid, pid, name, start, end, nbytes))
        if pid == 0:
            self._fold(self._open.pop(rid))

    def _fold(self, spans: list) -> None:
        children = defaultdict(list)
        names = {}
        for sid, pid, name, start, end, _ in spans:
            names[sid] = name
            if pid:
                children[pid].append((start, end))
        root = next(s for s in spans if s[1] == 0)
        stats = self.roots[root[2]]
        stats.requests += 1
        stats.total_s += root[4] - root[3]
        for sid, pid, name, start, end, nbytes in spans:
            layer = stats.layers[name]
            layer.calls += 1
            layer.bytes += nbytes
            layer.total_s += end - start
            layer.self_s += (end - start) - _covered(start, end, children.get(sid, ()))
            if pid:
                stats.edges[(name, names.get(pid))] += 1

    def wrap(self, name: str, fn, *, sized: bool = False):
        """A timing wrapper around ``fn`` (sync or coroutine function).

        ``sized=True`` also records ``len()`` of each result.
        """
        enter, exit_ = self._enter, self._exit
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                rid, sid, pid, token = enter()
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    exit_(rid, sid, pid, token, name, start, perf_counter())

            return traced_async

        if sized:

            @functools.wraps(fn)
            def traced_sized(*args, **kwargs):
                rid, sid, pid, token = enter()
                start = perf_counter()
                result = b""
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    exit_(rid, sid, pid, token, name, start, perf_counter(), len(result))

            return traced_sized

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid, sid, pid, token = enter()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(rid, sid, pid, token, name, start, perf_counter())

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rid, sid, pid, token = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(rid, sid, pid, token, name, start, perf_counter())


@contextmanager
def instrument(tracer: Tracer | None, targets):
    """Wrap ``(owner, attribute, span name[, sized])`` targets for the block.

    ``tracer=None`` leaves everything untouched, so traced and untraced
    runs share one code path.
    """
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, name, *sized in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, sized=bool(sized)))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
