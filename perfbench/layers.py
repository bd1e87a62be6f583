"""Per-layer tracing from outside the program: wrappers, spans, self-times.

``install`` replaces the public entry points of each layer (the table in
``perfbench/README.md``) with thin wrappers that append one span
``(name, start, end, thread, value)`` per call while ``Recorder.on`` is
set.  Nothing under ``src/`` is edited and the program's own
``repro.obs`` tracer stays off.  The wrappers are installed only for a
``--trace 1`` run; untraced runs never see them.

Shard workers are forked with the wrappers already in place, so they
record too; each worker writes its spans to ``<work>/spans/<pid>.pkl``
when its shard service closes, and the parent reads them back
(:meth:`Recorder.collect`).  ``perf_counter`` is CLOCK_MONOTONIC on
Linux, so worker and router times share one axis.

:func:`self_times` turns the router-process spans into self-times: a
span's duration minus the part its own children cover.  A span on a
helper thread (engine fan-out, shard scatter) is charged to the
generator-thread span that was blocked waiting for it, so the
generator thread's time splits into layer self-times, idle time and an
unattributed rest.
"""

from __future__ import annotations

import bisect
import functools
import os
import pickle
import threading
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter
_ident = threading.get_ident


class Recorder:
    def __init__(self, work: Path):
        self.on = False
        self.pid = os.getpid()
        self.main_tid = _ident()
        self.spans: list = []
        self.worker_spans: list = []
        #: (label, start, end) of the run's phases, for filtering spans
        self.phases: list = []
        self.dump_dir = work / "spans"
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        #: True inside a forked shard worker
        self.child = False

    def add(self, name, t0, t1, value=None):
        self.spans.append((name, t0, t1, _ident(), value))

    def span(self, name):
        """Context manager for a benchmark-side call into the program."""
        return _Span(self, name)

    def fork_check(self):
        """In a freshly forked shard worker, start an empty span log."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.on = True
            self.child = True

    def dump_if_child(self):
        if self.child:
            path = self.dump_dir / f"{os.getpid()}.pkl"
            with open(path, "wb") as fh:
                pickle.dump(self.spans, fh)

    def collect(self):
        """Read back (and delete) every span file shard workers wrote."""
        for path in sorted(self.dump_dir.glob("*.pkl")):
            with open(path, "rb") as fh:
                self.worker_spans.extend(pickle.load(fh))
            path.unlink()


class _Span:
    __slots__ = ("rec", "name", "t0")

    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.t0 = clock()

    def __exit__(self, *exc):
        if self.rec.on:
            self.rec.add(self.name, self.t0, clock())


def _wrap(rec: Recorder, owner, attr, name, value=None, before=None,
          after=None):
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``name`` is a string or a callable of the call's arguments;
    ``value(args, result)`` stores a number with the span.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    is_cm = isinstance(raw, classmethod)
    fn = raw.__func__ if is_cm else raw

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before()
        if not rec.on:
            out = fn(*args, **kwargs)
        else:
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.spans.append((
                    name(args) if callable(name) else name, t0, clock(),
                    _ident(), value(args, out) if value is not None else None,
                ))
        if after is not None:
            after()
        return out

    setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)


def _wrap_generator(rec: Recorder, owner, attr, name):
    """Time only the work done inside a generator's ``next()`` calls."""
    fn = owner.__dict__[attr]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.on:
            return gen
        return _timed(gen)

    def _timed(gen):
        while True:
            t0 = clock()
            try:
                item = next(gen)
            except StopIteration:
                rec.add(name, t0, clock())
                return
            rec.add(name, t0, clock())
            yield item

    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (see README.md's table)."""
    from repro.model.graph import SocialGraph
    from repro.queries.engine import QueryEngine
    from repro.replication.replica import Replica
    from repro.replication.service import ReplicatedGraphService
    from repro.replication.shipper import DirectoryWalShipper
    from repro.serving.cache import ResultCache
    from repro.serving.ingest import SubmitGate
    from repro.serving.persistence import ChangeLog, SnapshotStore
    from repro.serving.service import GraphService
    from repro.sharding.handle import ProcessShardHandle
    from repro.sharding.router import ShardedGraphService

    w = functools.partial(_wrap, rec)
    w(os, "fsync", "os.fsync")
    w(SubmitGate, "admit", "ingest.admit")
    for cls, prefix in ((GraphService, "service"),
                        (ReplicatedGraphService, "replicated"),
                        (ShardedGraphService, "router")):
        for attr in ("submit", "flush", "query"):
            w(cls, attr, f"{prefix}.{attr}")
        if cls is not GraphService:
            w(cls, "__init__", f"{prefix}.init")
            w(cls, "recover", f"{prefix}.recover")
            w(cls, "close", f"{prefix}.close")
    # a forked shard worker's first wrapped call is one of these two
    w(GraphService, "__init__", "service.init", before=rec.fork_check)
    w(GraphService, "recover", "service.recover", before=rec.fork_check)
    w(GraphService, "close", "service.close", after=rec.dump_if_child)
    w(GraphService, "apply_batch", "service.apply_batch")
    w(ChangeLog, "append", "wal.append",
      value=lambda a, out: (out or 0, len(a[2])))
    _wrap_generator(rec, ChangeLog, "replay_frames", "wal.replay")
    w(SnapshotStore, "save", "snapshot.save")
    w(SnapshotStore, "load", "snapshot.load")
    w(SocialGraph, "apply", "graph.apply", value=lambda a, out: len(a[1]))
    w(QueryEngine, "refresh", lambda a: f"engine.refresh.{a[0].query}")
    w(QueryEngine, "initial", lambda a: f"engine.initial.{a[0].query}")
    w(ResultCache, "get", "cache.get")
    w(ResultCache, "put", "cache.put")
    w(DirectoryWalShipper, "poll", "shipper.poll",
      value=lambda a, out: len(out or ()))
    w(DirectoryWalShipper, "bootstrap", "shipper.bootstrap")
    w(Replica, "catch_up", "replica.catch_up")
    w(ProcessShardHandle, "apply_batch", "shard.apply_rpc",
      value=lambda a, out: len(a[1]))
    w(ProcessShardHandle, "result_and_partial", "shard.read_rpc")
    w(ProcessShardHandle, "merge_partials", "shard.merge")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans, main_tid):
    """Per-span self-times for the router process.

    Returns ``(rows, parent)``: ``rows[i] = [name, t0, t1, tid, value,
    self_s]`` and ``parent[i]`` the index of the enclosing span on the
    generator thread (``None`` for a top-level span).  Helper-thread
    spans are charged against the generator-thread span that encloses
    them; concurrent helpers split the time they overlap equally.
    """
    rows = [list(s) + [s[2] - s[1]] for s in spans]
    parent: list = [None] * len(rows)
    by_tid = defaultdict(list)
    for i, r in enumerate(rows):
        by_tid[r[3]].append(i)
    for idxs in by_tid.values():
        idxs.sort(key=lambda i: (rows[i][1], -rows[i][2]))
        stack: list = []
        for i in idxs:
            while stack and rows[stack[-1]][2] <= rows[i][1]:
                stack.pop()
            if stack:
                rows[stack[-1]][5] -= rows[i][2] - rows[i][1]
                parent[i] = stack[-1]
            stack.append(i)
    main = by_tid.get(main_tid, [])
    starts = [rows[i][1] for i in main]
    helpers_of = defaultdict(list)
    for tid, idxs in by_tid.items():
        if tid == main_tid:
            continue
        for i in idxs:
            if parent[i] is not None:
                continue
            k = bisect.bisect_right(starts, rows[i][1]) - 1
            m = main[k] if k >= 0 else None
            while m is not None and rows[m][2] < rows[i][2]:
                m = parent[m]
            if m is not None:
                helpers_of[m].append(i)
                parent[i] = m
    for m, hs in helpers_of.items():
        _charge_helpers(rows, m, hs)
    return rows, parent


def _charge_helpers(rows, m, hs):
    """Move the time helpers ``hs`` ran out of main span ``m``'s self-time,
    splitting overlapped stretches equally between the helpers."""
    bounds = sorted({rows[i][1] for i in hs} | {rows[i][2] for i in hs})
    share = {i: 0.0 for i in hs}
    covered = 0.0
    for a, b in zip(bounds, bounds[1:]):
        live = [i for i in hs if rows[i][1] <= a and rows[i][2] >= b]
        if live:
            covered += b - a
            for i in live:
                share[i] += (b - a) / len(live)
    rows[m][5] -= covered
    for i in hs:
        rows[i][5] = share[i] - (rows[i][2] - rows[i][1] - rows[i][5])
