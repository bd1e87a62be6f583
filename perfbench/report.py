"""Turn one run's samples (and, traced, its spans) into named metrics.

Each metric is ``(value, unit, samples)``.  Latency percentiles use
``numpy.percentile``'s linear interpolation; the sample count is printed
with every value so a reader can see how many samples lie beyond a p99.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

import numpy as np

from layers import self_times

#: the traced run's layer self-times plus generator idle must account for
#: its wall time within this share (README.md, "Accounting")
ACCOUNTING_TOLERANCE = 0.05


def pct(xs, q, scale=1.0):
    return (float(np.percentile(xs, q)) * scale if len(xs) else 0.0, len(xs))


def med(xs, scale=1.0):
    return (float(median(xs)) * scale if xs else 0.0, len(xs))


def best(xs):
    return (float(min(xs)) if xs else 0.0, len(xs))


def end_to_end(out: dict) -> dict:
    return {
        "setup_s": (*med(out["setup"]), "s"),
        "update_s": (*med(out["update"]), "s"),
        "commit_call_p50_ms": (*pct(out["commit_svc"], 50, 1e3), "ms"),
        "read_call_p50_ms": (*pct(out["read_svc"], 50, 1e3), "ms"),
        "peak_rss_mb": (out["rss"], 1, "MB"),
    }


def per_layer(rec, out: dict, spec) -> tuple[dict, list]:
    """Per-layer metrics plus the accounting table rows of a traced run."""
    rows, parent = self_times(rec.spans, rec.main_tid)
    windows = defaultdict(list)
    for label, a, b in rec.phases:
        windows["run" if label in ("run", "cycle") else label].append((a, b))

    def phase_of(t0):
        for label, ws in windows.items():
            if any(a <= t0 <= b for a, b in ws):
                return label
        return None

    spans = defaultdict(list)  # (phase, name) -> [(t0, t1, value)], all processes
    for name, t0, t1, _tid, value in list(rec.spans) + rec.worker_spans:
        spans[(phase_of(t0), name)].append((t0, t1, value))

    def durs(name, phase="run"):
        return [t1 - t0 for t0, t1, _ in spans[(phase, name)]]

    run_rows = [i for i, r in enumerate(rows) if phase_of(r[1]) == "run"]
    selfs = defaultdict(list)
    for i in run_rows:
        selfs[rows[i][0]].append(rows[i][5])

    # commits: service spans with a graph.apply below them
    committing = set()
    for i, r in enumerate(rows):
        if r[0] == "graph.apply":
            p = parent[i]
            while p is not None and not rows[p][0].startswith("service."):
                p = parent[p]
            if p is not None:
                committing.add(p)
    commit_self = [rows[i][5] for i in run_rows if i in committing
                   and rows[i][0] in ("service.submit", "service.flush",
                                      "service.apply_batch")]

    # per-scatter groups of shard RPCs (siblings under one router span)
    groups = defaultdict(list)
    for i in run_rows:
        if rows[i][0] == "shard.apply_rpc" and parent[i] is not None:
            groups[parent[i]].append(i)
    rpc_max = [max(rows[i][2] - rows[i][1] for i in g) for g in groups.values()]
    skew = []
    for g in groups.values():
        sizes = [rows[i][4] for i in g]
        if sum(sizes):
            skew.append(max(sizes) * len(sizes) / sum(sizes))

    # wall of the accounted windows
    if spec.front == "memory":
        cycles = windows["run"]
        wall = sum(b - a for a, b in cycles)
        idle = 0.0
        on = [u for traced, u in out["cycles"] if traced]
        off = [u for traced, u in out["cycles"] if not traced]
        overhead = median(on) / median(off) - 1 if on and off else 0.0
        versions = (spec.sets - spec.block // spec.changes_per_set) * len(cycles)
        late, achieved, backlog = (0.0, 0), (1.0, 0), (0.0, 0)
        per_version = spec.changes_per_set
    else:
        wall, idle = out["wall_on"], out["idle_on"]
        (b_on, n_on), (b_off, n_off) = out["busy"][True], out["busy"][False]
        overhead = (b_on / n_on) / (b_off / n_off) - 1 if n_on and n_off else 0.0
        versions = out["versions_on"]
        late = pct(out["late"], 99, 1e3)
        achieved = (out["achieved"], len(out["late"]))
        backlog = (out["backlog"], len(out["late"]))
        per_version = out["commits"] / max(out["versions_open"], 1)

    table = defaultdict(float)
    for i in run_rows:
        r = rows[i]
        if r[3] == rec.main_tid or parent[i] is not None:
            table[r[0]] += r[5]
    attributed = sum(table.values()) + idle
    unattributed = wall - attributed
    table_rows = sorted(table.items(), key=lambda kv: -kv[1])
    table_rows += [("(generator idle)", idle), ("(unattributed)", unattributed)]

    appends = spans[("run", "wal.append")]
    wal_bytes = sum(v[0] for _, _, v in appends)
    wal_changes = sum(v[1] for _, _, v in appends)
    polls = spans[("run", "shipper.poll")]
    recovers = [(r[1], r[2]) for i, r in enumerate(rows)
                if r[0].endswith(".recover") and parent[i] is None
                and phase_of(r[1]) == "recover"]
    replay = [sum(t1 - t0 for t0, t1, _ in spans[("recover", "wal.replay")]
                  if a <= t0 <= b) for a, b in recovers]
    setup_phase = "run" if spec.front == "memory" else "setup"

    m = {
        "ingest.admit_us_p50": (*pct(durs("ingest.admit"), 50, 1e6), "us"),
        "ingest.changes_per_version": (per_version, versions, "count"),
        "ingest.wait_ms_p50": (*pct(out["wait"], 50, 1e3), "ms"),
        "wal.append_ms_p50": (*pct(durs("wal.append"), 50, 1e3), "ms"),
        "wal.append_ms_p99": (*pct(durs("wal.append"), 99, 1e3), "ms"),
        "wal.busy_frac": (sum(durs("wal.append")) / wall if wall else 0.0,
                          len(appends), "frac"),
        "wal.fsyncs_per_version": (len(durs("os.fsync")) / max(versions, 1),
                                   versions, "count"),
        "wal.bytes_per_change": (wal_bytes / wal_changes if wal_changes else 0.0,
                                 wal_changes, "B"),
        "wal.replay_s": (*med(replay), "s"),
        "snapshot.saves": (len(durs("snapshot.save")), versions, "count"),
        "snapshot.save_ms_max": (max(durs("snapshot.save"), default=0.0) * 1e3,
                                 len(durs("snapshot.save")), "ms"),
        "snapshot.load_s": (*med(durs("snapshot.load", "recover")), "s"),
        "snapshot.bytes": (out.get("snapshot_bytes", 0), 1, "B"),
        "graph.apply_ms_p50": (*pct(durs("graph.apply"), 50, 1e3), "ms"),
        "graph.apply_ms_p99": (*pct(durs("graph.apply"), 99, 1e3), "ms"),
        "graph.apply_busy_s": (sum(durs("graph.apply")),
                               len(durs("graph.apply")), "s"),
        "cache.get_us_p50": (*pct(durs("cache.get"), 50, 1e6), "us"),
        "service.read_self_us_p50": (*pct(selfs["service.query"], 50, 1e6), "us"),
        "service.commit_self_ms_p50": (*pct(commit_self, 50, 1e3), "ms"),
        "shipper.poll_ms_p50": (*pct(durs("shipper.poll"), 50, 1e3), "ms"),
        "shipper.poll_ms_p99": (*pct(durs("shipper.poll"), 99, 1e3), "ms"),
        "shipper.useful_poll_frac": (
            sum(1 for *_, v in polls if v) / len(polls) if polls else 0.0,
            len(polls), "frac"),
        "replica.catch_up_ms_p50": (*pct(durs("replica.catch_up"), 50, 1e3), "ms"),
        "replica.bootstrap_s": (*med(durs("shipper.bootstrap", "setup")), "s"),
        "shard.apply_rpc_ms_p50": (*pct(rpc_max, 50, 1e3), "ms"),
        "shard.apply_rpc_ms_p99": (*pct(rpc_max, 99, 1e3), "ms"),
        "shard.scatter_skew": (*med(skew), "ratio"),
        "shard.read_rpc_ms_p50": (*pct(durs("shard.read_rpc"), 50, 1e3), "ms"),
        "shard.merge_us_p50": (*pct(durs("shard.merge"), 50, 1e6), "us"),
        "storage.bytes": (out["storage"], 1, "B"),
        # end-to-end figures too unsteady to bound (README.md, "Steadiness");
        # every recovery redoes the same work, so what varies between its
        # samples is the host, and the fastest is the program's time
        "recover_s": (*best(out["recover"]), "s"),
        "saturated_changes_per_s": (
            *med([c / u for c, u in zip(out["changes"], out["block"])]), "1/s"),
        "commit_p50_ms": (*pct(out["commit"], 50, 1e3), "ms"),
        "commit_p99_ms": (*pct(out["commit"], 99, 1e3), "ms"),
        "read_p50_ms": (*pct(out["read"], 50, 1e3), "ms"),
        "read_p99_ms": (*pct(out["read"], 99, 1e3), "ms"),
        "loadgen.late_ms_p99": (*late, "ms"),
        "loadgen.achieved_frac": (*achieved, "frac"),
        "loadgen.backlog_end": (*backlog, "count"),
        "trace.overhead_frac": (overhead, 2, "frac"),
        "trace.unattributed_frac": (unattributed / wall if wall else 0.0,
                                    len(run_rows), "frac"),
    }
    for q in ("Q1", "Q2"):
        d = durs(f"engine.refresh.{q}")
        m[f"engine.refresh.{q}_ms_p50"] = (*pct(d, 50, 1e3), "ms")
        m[f"engine.refresh.{q}_ms_p99"] = (*pct(d, 99, 1e3), "ms")
        m[f"engine.initial.{q}_s"] = (
            *med(durs(f"engine.initial.{q}", setup_phase)), "s")
    m["engine.refresh.Q2_busy_s"] = (sum(durs("engine.refresh.Q2")),
                                     len(durs("engine.refresh.Q2")), "s")
    return m, table_rows
