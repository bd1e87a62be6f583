"""Unit coverage for the ShardHandle seam itself.

The conformance suite (test_shard_invariance) proves both backends serve
identical bytes; these tests pin the seam's mechanics -- RPC surface,
boot failure propagation, wire-format pickling of the fault vocabulary,
trace grafting, lifecycle/idempotence -- independent of the router.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.faults import FaultPlan, InjectedCrash, at_path
from repro.model.changes import AddFriendship, AddUser
from repro.obs.trace import Tracer, set_tracer
from repro.serving import GraphService
from repro.sharding import ShardedGraphService
from repro.sharding.handle import (
    InProcessShardHandle,
    ProcessShardHandle,
    default_shard_backend,
)
from repro.util.validation import ReproError

SVC_KW = dict(
    tools=("graphblas-incremental",), max_batch=10**9, max_delay_ms=1e9
)


class _Builder:
    """Build a small GraphService inside the worker (or inline)."""

    def __call__(self):
        return GraphService(**SVC_KW)


class _Boom:
    def __call__(self):
        raise ReproError("shard construction exploded")


@pytest.fixture
def handle():
    h = ProcessShardHandle(0, _Builder())
    yield h
    h.close()


def test_rpc_surface_round_trips(handle):
    assert handle.version == 0
    assert handle.apply_batch([AddUser(1), AddUser(2)]) == 1
    assert handle.apply_batch([AddFriendship(1, 2)]) == 2
    assert handle.version == 2
    result, partial = handle.result_and_partial("Q1")
    assert result.version == 2
    top, rendered = handle.merge_partials("Q1", None, [partial], 3)
    assert tuple(top) == result.top and rendered == result.result_string
    stats = handle.stats()
    assert stats["version"] == 2
    owned = handle.owned_ids()
    assert owned["users"] == [1, 2] and owned["posts"] == []
    assert "repro_" in handle.metrics_text(labels={"shard": "0"})


def test_worker_errors_cross_the_pipe_typed(handle):
    # no data_dir -> snapshot refuses inside the worker; the ReproError
    # arrives here as a ReproError, not a stringly-typed shadow
    with pytest.raises(ReproError, match="snapshot"):
        handle.snapshot()
    # the worker survives a request that errored
    assert handle.version == 0


def test_boot_error_propagates_and_reaps():
    with pytest.raises(ReproError, match="exploded"):
        ProcessShardHandle(0, _Boom())
    # the autouse leak fixture asserts the worker is gone


def test_closed_handle_refuses():
    h = ProcessShardHandle(0, _Builder())
    h.close()
    h.close()  # idempotent
    with pytest.raises(ReproError):
        h.apply_batch([])


def test_inproc_handle_passes_unknown_attributes_through():
    svc = GraphService(**SVC_KW)
    h = InProcessShardHandle(svc)
    try:
        assert h.graph is svc.graph  # diagnostic pokes keep working
        assert h.version == svc.version
    finally:
        h.close()


def test_default_backend_reads_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_PROCS", raising=False)
    assert default_shard_backend() == "inproc"
    monkeypatch.setenv("REPRO_SHARD_PROCS", "1")
    assert default_shard_backend() == "process"
    monkeypatch.setenv("REPRO_SHARD_PROCS", "0")
    assert default_shard_backend() == "inproc"
    monkeypatch.setenv("REPRO_SHARD_PROCS", "banana")
    with pytest.raises(ReproError):
        default_shard_backend()


def test_router_honours_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_PROCS", "1")
    svc = ShardedGraphService(shards=2, **SVC_KW)
    try:
        assert svc.backend == "process"
        assert all(isinstance(h, ProcessShardHandle) for h in svc._shards)
    finally:
        svc.close()


# -- wire format: the fault vocabulary must survive pickling ------------


def test_injected_crash_pickles_with_context():
    exc = InjectedCrash("wal-append", 2, {"path": "shard-01/wal.csv"})
    back = pickle.loads(pickle.dumps(exc))
    assert (back.point, back.hit, back.ctx) == (exc.point, exc.hit, exc.ctx)
    assert "wal-append" in str(back)


def test_at_path_matcher_pickles():
    m = pickle.loads(pickle.dumps(at_path("shard-01")))
    assert m({"path": "/x/shard-01/wal.csv"})
    assert not m({"path": "/x/shard-00/wal.csv"})


def test_fault_plan_round_trips_counters():
    plan = FaultPlan().crash("wal-append", hit=3, match=at_path("shard-00"))
    plan._fire("wal-append", {"path": "shard-00/wal"})
    copy = pickle.loads(pickle.dumps(plan))
    # counters continue where the original left off
    assert copy._triggers[0].seen == 1
    assert copy.hits == plan.hits
    copy._fire("wal-append", {"path": "shard-00/wal"})
    with pytest.raises(InjectedCrash):
        copy._fire("wal-append", {"path": "shard-00/wal"})
    assert copy.fired() == ["wal-append"]
    # the original absorbs the copy's events, as the router does per RPC
    new_hits, trigger_state = copy.events_since(len(plan.hits))
    plan.absorb(new_hits, trigger_state)
    assert plan.fired() == ["wal-append"]
    assert [p for p, _ in plan.hits].count("wal-append") == 3


# -- trace grafting -----------------------------------------------------


def test_worker_spans_graft_into_one_connected_tree():
    tr = Tracer()
    set_tracer(tr)
    try:
        svc = ShardedGraphService(shards=2, backend="process", **SVC_KW)
        svc.submit([AddUser(1), AddUser(2), AddUser(3)])
        svc.flush()
        svc.query("Q1")
        svc.close()
        spans = tr.finished()
        by_id = {s["span_id"] for s in spans}
        # no dangling parents: every grafted child found a local anchor
        assert all(
            s["parent_id"] is None or s["parent_id"] in by_id for s in spans
        )
        shard_ids = {
            s["span_id"] for s in spans if s["name"] == "shard"
        }
        assert len(shard_ids) == 2
        # each worker's "batch" span hangs under its router-side "shard"
        grafted = [s for s in spans if s["parent_id"] in shard_ids]
        assert {s["name"] for s in grafted} == {"batch"}
        # span ids stay unique after the id-remapping graft
        assert len(by_id) == len(spans)
    finally:
        set_tracer(None)


def _span_names_after_fork(backend: str) -> Counter:
    """Span-name multiset of 20 single-change batches, the tracer being
    installed only after the shard workers were forked."""
    svc = ShardedGraphService(shards=2, backend=backend, **SVC_KW)
    tr = Tracer()
    set_tracer(tr)
    try:
        for uid in range(1, 21):
            svc.submit([AddUser(uid)])
            svc.flush()
        svc.close()
        return Counter(s["name"] for s in tr.finished())
    finally:
        set_tracer(None)


def test_backends_emit_the_same_span_multiset():
    inproc = _span_names_after_fork("inproc")
    assert inproc["batch"] == 20 + 2 * 20  # router + one per shard
    assert _span_names_after_fork("process") == inproc
