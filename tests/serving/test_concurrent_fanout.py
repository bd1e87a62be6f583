"""Concurrent engine fan-out.

The serving layer refreshes independent engines concurrently per applied
batch; these tests pin result equivalence with the serial fan-out over
the same change stream, per-engine metrics preservation, the adaptive
gate, a deterministic failure order, and the teardown guarantee: neither
``close()``, a failed constructor nor a crashed apply may leave refresh
threads running.
"""

import threading

import pytest

from repro.datagen import generate_benchmark_input
from repro.model.changes import AddUser
from repro.serving import GraphService

ALL_TOOLS = (
    "graphblas-batch",
    "graphblas-incremental",
    "nmf-batch",
    "nmf-incremental",
)


def _drive(service, changes):
    for ch in changes:
        service.submit(ch)
    service.flush()


@pytest.fixture
def stream():
    graph_a, change_sets = generate_benchmark_input(1, seed=42)
    graph_b, _ = generate_benchmark_input(1, seed=42)
    changes = [ch for cs in change_sets for ch in cs]
    return graph_a, graph_b, changes


class TestFanoutEquivalence:
    def test_concurrent_equals_serial(self, stream):
        graph_a, graph_b, changes = stream
        with GraphService(
            graph_a, tools=ALL_TOOLS, max_batch=16, max_delay_ms=1e9
        ) as conc, GraphService(
            graph_b,
            tools=ALL_TOOLS,
            max_batch=16,
            max_delay_ms=1e9,
            concurrent_refresh=False,
        ) as serial:
            assert conc._fanout is not None
            assert serial._fanout is None
            _drive(conc, changes)
            _drive(serial, changes)
            assert conc.version == serial.version
            for q in ("Q1", "Q2"):
                for t in ALL_TOOLS:
                    a, b = conc.query(q, t), serial.query(q, t)
                    assert a.result_string == b.result_string, (q, t)
                    assert a.top == b.top
                    assert a.version == b.version == conc.version

    def test_per_engine_refresh_metrics_preserved(self, stream):
        graph_a, _, changes = stream
        with GraphService(
            graph_a, tools=ALL_TOOLS, max_batch=16, max_delay_ms=1e9
        ) as svc:
            _drive(svc, changes)
            ops = svc.stats()["ops"]
            for t in ALL_TOOLS:
                assert ops[f"refresh[{t}]"]["count"] >= 1

    def test_adaptive_gate_on_refresh_cost(self, monkeypatch, stream):
        """Sub-threshold refreshes stay serial; heavy ones use the pool."""
        graph_a, _, changes = stream
        with GraphService(
            graph_a, tools=ALL_TOOLS, max_batch=16, max_delay_ms=1e9
        ) as svc:
            submits = []
            real_submit = svc._fanout.submit
            monkeypatch.setattr(
                svc._fanout, "submit",
                lambda *a, **kw: submits.append(1) or real_submit(*a, **kw),
            )
            monkeypatch.setattr(GraphService, "MIN_FANOUT_REFRESH_S", float("inf"))
            _drive(svc, changes[:20])
            assert not submits  # estimated work never clears the gate
            monkeypatch.setattr(GraphService, "MIN_FANOUT_REFRESH_S", 0.0)
            _drive(svc, changes[20:40])
            assert submits  # every batch fans out now

    def test_single_engine_skips_fanout_pool(self, stream):
        graph_a, _, _ = stream
        with GraphService(
            graph_a, queries=("Q1",), tools=("graphblas-incremental",)
        ) as svc:
            assert svc._fanout is None


def _refresh_threads():
    return [t for t in threading.enumerate() if t.name.startswith("engine-refresh")]


class TestFanoutTeardown:
    def test_close_stops_refresh_threads(self, monkeypatch, stream):
        graph_a, _, changes = stream
        monkeypatch.setattr(GraphService, "MIN_FANOUT_REFRESH_S", 0.0)
        svc = GraphService(graph_a, tools=ALL_TOOLS, max_batch=16, max_delay_ms=1e9)
        _drive(svc, changes[:40])
        assert _refresh_threads()  # the pool really ran
        svc.close()
        assert svc._fanout is None
        assert not _refresh_threads()

    def test_failed_init_stops_refresh_threads(self, monkeypatch, stream):
        """A constructor failure after the pool started must stop it."""
        graph_a, _, _ = stream

        def load_then_fail(self):
            self._fanout.submit(lambda: None).result()
            raise RuntimeError("load boom")

        monkeypatch.setattr(GraphService, "_load_engines", load_then_fail)
        with pytest.raises(RuntimeError, match="load boom"):
            GraphService(graph_a, tools=ALL_TOOLS)
        assert not _refresh_threads()

    def test_crashed_apply_stops_refresh_threads(self, monkeypatch, stream):
        graph_a, _, _ = stream
        monkeypatch.setattr(GraphService, "MIN_FANOUT_REFRESH_S", 0.0)
        svc = GraphService(graph_a, tools=ALL_TOOLS, max_batch=1)
        engine = svc._engines[("Q1", "graphblas-incremental")]
        monkeypatch.setattr(
            engine, "refresh", lambda delta: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        with pytest.raises(RuntimeError, match="boom"):
            svc.submit(AddUser(user_id=987654, name="crash"))
        # fail-stopped AND cleaned up: no pool, no live refresh threads
        assert svc._failed
        assert svc._fanout is None
        assert not _refresh_threads()


class TestFailureOrder:
    def test_failure_order_is_deterministic(self, monkeypatch, stream):
        """Two poisoned engines: the one earliest in registration order
        must be the error surfaced, regardless of completion order."""
        graph_a, _, _ = stream
        svc = GraphService(graph_a, tools=ALL_TOOLS, max_batch=1)
        for tool, msg in (("nmf-incremental", "later"), ("graphblas-batch", "first")):
            engine = svc._engines[("Q1", tool)]
            err = RuntimeError(msg)
            for name in ("refresh", "update"):
                if hasattr(engine, name):
                    monkeypatch.setattr(
                        engine, name, lambda *_a, _e=err: (_ for _ in ()).throw(_e)
                    )
        with pytest.raises(RuntimeError, match="first"):
            svc.submit(AddUser(user_id=987655, name="crash"))
