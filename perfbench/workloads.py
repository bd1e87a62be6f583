"""The workloads: what each runs and what it measures.

Every workload goes through the same life cycle, so every end-to-end metric
is measured on every workload (``README.md`` says what each one means
where):

1. **setup** -- from handing the input files to ``load_graph`` /
   ``load_change_sets`` until the front is ready to serve, repeated and
   reported as a median (``setup_s``);
2. **serve** -- ``ttc-update``: the paper's update phase, one client
   applying change sets back to back; ``serve-*``: a seeded open-loop
   (Poisson) stream of single changes and Q1/Q2 reads from one
   generator thread, each request timed from its *scheduled* arrival and
   inside its call (``update_s``, ``commit_call_p50_ms``,
   ``read_call_p50_ms``);
3. **saturate** -- one client offers changes back to back, then flushes
   and reads Q1 and Q2 (``saturated_changes_per_s``);
4. **recover** -- ``close()`` without a final snapshot, then
   ``recover(data_dir)`` of a fixed crash image after every stretch, so
   the samples span the whole run; the live front is then recovered too
   and serves on.  ``ttc-update``, whose front is in memory, has no
   recovery path, so the benchmark times a cold restart of its own after
   every cycle (``recover_s``);
5. **check** -- the correctness gate: served Q1/Q2 against a cold
   ``Q1Batch`` / ``Q2Batch(algorithm="unionfind")`` on a single-process
   replay of every committed change, the recovered front against the
   pre-crash version and results, and replica reads against the
   ``max_staleness=0`` floor.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import clock

TOOLS = ("graphblas-incremental",)


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    scale: int
    front: str  # "memory" | "replicated" | "sharded"
    changes_per_set: int = 0
    sets: int = 0
    write_rate: float = 0.0  # offered changes/s (open loop)
    read_rate: float = 0.0  # offered reads/s (open loop)
    block: int = 0  # saturation block (changes; whole sets on ttc-update)
    removals: float = 0.0  # share of like/friendship changes that remove
    setups: int = 3
    options: dict = field(default_factory=dict)

    def stream_length(self, seconds: int) -> int:
        if self.front == "memory":
            return self.changes_per_set * self.sets
        return round(self.write_rate * seconds) + SEGMENTS * self.block

    def input_params(self, seconds: int) -> dict:
        """The input this workload reads.  The ``serve-*`` workloads share
        one (their longest stream), so a seed is generated once for all."""
        if self.front == "memory":
            changes = self.stream_length(seconds)
        else:
            changes = max(s.stream_length(seconds) for s in SPECS.values()
                          if s.front != "memory")
        return dict(scale=self.scale, changes=changes, sets=self.sets or 1,
                    removals=self.removals)


#: the open loop is cut into this many stretches, each followed by one
#: saturation block
SEGMENTS = 5

DURABLE = dict(max_batch=16, max_delay_ms=2.0, wal_sync=True)

#: the crash image every ``serve-*`` recovery sample starts from: the
#: first setup's front commits this many versions of this many changes
#: each (one ``submit`` + ``flush`` per version, so the WAL is the same on
#: every run), then closes
CRASH_VERSIONS = 150
CRASH_BATCH = 8

SPECS = {
    s.name: s
    for s in (
        Spec("ttc-update",
             "the paper's own workload: large deltas, so queries and model "
             "do the work while WAL, snapshots, replication and sharding do "
             "none",
             scale=32, front="memory", changes_per_set=500, sets=24,
             block=2000),
        Spec("serve-replicated",
             "replica reads catch up through the WAL shipper, and the "
             "leader snapshots every 250 versions: the only periodic "
             "snapshot stalls",
             scale=16, front="replicated", write_rate=60, read_rate=60,
             block=300, removals=0.1,
             options=dict(DURABLE, snapshot_every=250)),
        Spec("serve-sharded",
             "routing, scatter, pickle-frame RPC to two shard processes and "
             "top-k merge do work only here",
             scale=16, front="sharded", write_rate=60, read_rate=60,
             block=300, removals=0.1, options=dict(DURABLE)),
    )
}


class Gate:
    """Collects correctness failures; any entry fails the run."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------------------
# fronts
# ---------------------------------------------------------------------------


def make_front(spec: Spec, graph, data_dir: Path):
    if spec.front == "memory":
        from repro.serving import GraphService

        return GraphService(graph, tools=TOOLS)
    if spec.front == "replicated":
        from repro.replication import ReplicatedGraphService

        return ReplicatedGraphService(graph, replicas=1, max_staleness=0,
                                      data_dir=data_dir, tools=TOOLS,
                                      **spec.options)
    from repro.sharding import ShardedGraphService

    return ShardedGraphService(graph, shards=2, backend="process",
                               data_dir=data_dir, tools=TOOLS, **spec.options)


def recover_front(spec: Spec, data_dir: Path):
    if spec.front == "replicated":
        from repro.replication import ReplicatedGraphService

        return ReplicatedGraphService.recover(
            data_dir, max_staleness=0, tools=TOOLS, **spec.options)
    from repro.sharding import ShardedGraphService

    return ShardedGraphService.recover(data_dir, backend="process",
                                       tools=TOOLS, **spec.options)


def storage_bytes(spec: Spec, svc) -> int:
    if spec.front == "sharded":
        return sum(s["storage"]["bytes"] for s in svc.stats()["per_shard"])
    return svc.graph.storage_bytes()


def snapshot_bytes(data_dir: Path) -> int:
    """Bytes of the newest snapshot of every node/shard under ``data_dir``."""
    newest: dict = {}
    for snap in data_dir.rglob("snapshot-*"):
        if snap.is_dir() and not snap.name.endswith(".tmp"):
            v = int(snap.name.split("-")[-1])
            if v >= newest.get(snap.parent, (-1, None))[0]:
                newest[snap.parent] = (v, snap)
    return sum(
        f.stat().st_size
        for _, snap in newest.values() for f in snap.rglob("*") if f.is_file()
    )


def peak_rss_mb() -> float:
    """Peak resident set (VmHWM) of this process plus its live children."""
    import os

    pids = {os.getpid()}
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:
            pass
    total = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024


def served(svc) -> dict:
    return {q: svc.query(q) for q in ("Q1", "Q2")}


def check_oracle(gate: Gate, graph, tops: dict, label: str) -> None:
    """Served Q1/Q2 top-k must equal a cold batch evaluation on ``graph``."""
    from repro.queries import Q1Batch, Q2Batch

    want = {"Q1": Q1Batch(graph, 3).evaluate(),
            "Q2": Q2Batch(graph, 3, algorithm="unionfind").evaluate()}
    for q, w in want.items():
        got = list(tops[q])
        gate.expect(got == [tuple(x) for x in w],
                    f"{label}: served {q} {got} != cold batch {w}")


def replay_graph(inp: Path, changes: list):
    """A single-process replay of ``changes`` onto the input graph."""
    from repro.model.changes import ChangeSet
    from repro.model.loader import load_graph

    graph = load_graph(inp)
    graph.apply(ChangeSet(changes))
    return graph


# ---------------------------------------------------------------------------
# the paper's update phase
# ---------------------------------------------------------------------------


#: after each change set the client reads Q1 and Q2 this many times (a
#: dashboard polling the results), so the read percentiles rest on ~1000
#: samples per run rather than 40 per cycle
READS_PER_SET = 5


def run_ttc(spec: Spec, inp: Path, seconds: int, rec) -> dict:
    """Load + initial, then every change set but the last ``block`` changes
    with Q1 and Q2 reads after it (Fig. 5), then those changes offered one
    by one as a saturation block, then a cold restart; the cycle is
    repeated for ``seconds``.  Every cycle must serve the same results,
    and the first cycle's go through the correctness gate."""
    from repro.model.loader import load_change_sets, load_graph

    gate = Gate()
    n_sat = spec.block // spec.changes_per_set
    out = _samples()
    attempted = failed = 0
    results = None
    stream = [ch for cs in load_change_sets(inp) for ch in cs]
    cycle = 0
    deadline = clock() + seconds
    while cycle < 3 or clock() < deadline:
        # a traced run alternates traced and untraced cycles, so the
        # tracing overhead is measured inside the run
        traced = rec is not None and cycle % 2 == 1
        if rec is not None:
            rec.on = traced
        svc = None  # one live front at a time, for peak_rss_mb
        gc.collect()
        t0 = clock()
        with _span(rec, "bench.load_graph"):
            graph = load_graph(inp)
        with _span(rec, "bench.load_change_sets"):
            sets = load_change_sets(inp)
        svc = make_front(spec, graph, None)
        t1 = clock()
        for cs in sets[:-n_sat]:
            attempted += 1 + 2 * READS_PER_SET
            a = clock()
            try:
                v = svc.apply_batch(cs)
                b = clock()
                if not traced:
                    out["commit"].append(b - a)
                for q in ("Q1", "Q2") * READS_PER_SET:
                    r = svc.query(q)
                    c = clock()
                    gate.expect(r.version == v,
                                "read after apply_batch missed its version")
                    if not traced:
                        out["read"].append(c - b)
                    b = c
            except Exception as exc:  # keep the run going; counted
                failed += 1
                gate.expect(False, f"update failed: {exc!r}")
        t2 = clock()
        if rec is not None:
            rec.on = False
            rec.phases.append(("cycle" if traced else "cycle-off", t0, t2))
        block = [ch for cs in sets[-n_sat:] for ch in cs]
        attempted += len(block) + 2
        pre, lost = saturate(svc, block, gate, out)
        failed += lost
        mine = {q: (r.version, r.top) for q, r in pre.items()}
        gate.expect(results is None or mine == results,
                    "update phase is not deterministic across cycles")
        results = mine
        out["setup"].append(t1 - t0)
        out["update"].append(t2 - t1)
        out["cycles"].append((traced, t2 - t1))
        if cycle == 0:  # the serving peak, before any cold restart
            out["rss"] = peak_rss_mb()
        if rec is not None:
            out["storage"] = svc.graph.storage_bytes()
        svc.close()
        svc = None
        gc.collect()

        # An in-memory front has no WAL and the program no recovery path
        # for it; ``recover_s`` here is a benchmark-defined cold restart --
        # reload the inputs, apply every change set as one batch, evaluate
        # initially.
        if rec is not None:
            rec.on = True
        t0 = clock()
        rebuilt = make_front(spec, replay_graph(inp, stream), None)
        t1 = clock()
        if rec is not None:
            rec.on = False
            rec.phases.append(("recover", t0, t1))
        out["recover"].append(t1 - t0)
        tops = {q: top for q, (_, top) in results.items()}
        gate.expect({q: r.top for q, r in served(rebuilt).items()} == tops,
                    "cold restart results differ from the served results")
        if cycle == 0:
            check_oracle(gate, rebuilt.graph, tops, spec.name)
        rebuilt.close()
        del rebuilt
        cycle += 1
    # a closed loop waits for nothing but the call itself
    out["commit_svc"], out["read_svc"] = out["commit"], out["read"]
    out.update(attempted=attempted, failed=failed, gate=gate)
    return out


def saturate(svc, block: list, gate: Gate, out: dict):
    """One client offers ``block`` back to back, flushes and reads Q1 and
    Q2; returns the reads and the number of refused submits."""
    failed = 0
    t0 = clock()
    for ch in block:
        try:
            svc.submit(ch)
        except Exception as exc:
            failed += 1
            gate.expect(False, f"saturation submit failed: {exc!r}")
    version = svc.flush()
    pre = served(svc)
    out["block"].append(clock() - t0)
    out["changes"].append(len(block))
    for q, r in pre.items():
        gate.expect(r.version == version, f"{q} read after flush "
                    f"at v{r.version}, flushed v{version}")
    return pre, failed


def _span(rec, name):
    return rec.span(name) if rec is not None else contextlib.nullcontext()


def _samples() -> dict:
    return {k: [] for k in ("setup", "update", "block", "changes", "commit",
                            "read", "commit_svc", "read_svc", "recover",
                            "late", "wait", "cycles")}


# ---------------------------------------------------------------------------
# open-loop serving
# ---------------------------------------------------------------------------

#: a traced run traces every other window of this many scheduled seconds
WINDOW_S = 1.0


def schedule(spec: Spec, seconds: int, seed: int):
    """Seeded Poisson arrivals: ``(t, kind, arg)`` sorted by ``t``; reads
    alternate Q1 and Q2 (``arg``), writes take the stream's next change."""
    rng = np.random.default_rng([seed, 0x5E5E])
    nw = round(spec.write_rate * seconds)
    nr = round(spec.read_rate * seconds)
    tw = np.cumsum(rng.exponential(1.0 / spec.write_rate, nw))
    tr = np.cumsum(rng.exponential(1.0 / spec.read_rate, nr))
    events = [(float(t), "w", i) for i, t in enumerate(tw)]
    events += [(float(t), "r", "Q1" if i % 2 == 0 else "Q2")
               for i, t in enumerate(tr)]
    events.sort()
    return events


def run_serve(spec: Spec, inp: Path, seconds: int, seed: int, rec,
              work: Path) -> dict:
    from repro.model.loader import load_change_sets, load_graph

    gate = Gate()
    out = _samples()
    on = rec is not None

    # -- setup --------------------------------------------------------
    if on:
        rec.on = True
    for rep in range(spec.setups):
        data_dir = work / f"svc-{rep}"
        t0 = clock()
        with _span(rec, "bench.load_graph"):
            graph = load_graph(inp)
        with _span(rec, "bench.load_change_sets"):
            stream = [ch for cs in load_change_sets(inp) for ch in cs]
        svc = make_front(spec, graph, data_dir)
        out["setup"].append(clock() - t0)
        if rep < spec.setups - 1:
            if rep == 0:  # this front's data directory is the crash image
                if on:
                    rec.on = False
                image = crash_image(svc, stream, data_dir, gate)
                if on:
                    rec.on = True
            svc.close()
            if rep:
                shutil.rmtree(data_dir)
            del graph, svc  # one live front at a time, for peak_rss_mb
            gc.collect()
    if on:
        rec.on = False
        rec.phases.append(("setup", 0.0, clock()))

    # -- open loop, interleaved with saturation blocks and recoveries -------
    # The phase is cut into SEGMENTS stretches; each is followed by one
    # saturation block and one crash: the front is closed (no final
    # snapshot), the crash image is recovered and timed, and the front is
    # recovered from its own directory and serves on.  So the blocks and
    # the recovery samples span the whole run.
    events = schedule(spec, seconds, seed)
    span = events[-1][0]
    loops = []
    failed = 0
    cursor = 0  # the stream is consumed in order: segment writes, block, ...
    try:
        for k in range(SEGMENTS):
            lo, hi = span * k / SEGMENTS, span * (k + 1) / SEGMENTS
            part = []
            for t, kind, arg in events:
                if lo <= t < hi or (k == SEGMENTS - 1 and t == span):
                    if kind == "w":
                        arg, cursor = cursor, cursor + 1
                    part.append((t - lo, kind, arg))
            loops.append(_open_loop(svc, part, stream, spec, rec, gate, out))
            pre, lost = saturate(svc, stream[cursor:cursor + spec.block],
                                 gate, out)
            cursor += spec.block
            failed += lost
            if k == SEGMENTS - 1:
                out["rss"] = peak_rss_mb()
                if on:
                    out["storage"] = storage_bytes(spec, svc)
            svc.close()
            svc = None  # one live front at a time, for peak_rss_mb
            out["recover"].append(time_recover(spec, image, work, gate, rec))
            svc = recover_front(spec, data_dir)
            check_recovered(gate, svc, pre, f"front after stretch {k}")
    finally:  # no front outlives the run, even when a step raises
        if svc is not None:
            svc.close()
    committed = cursor
    loop = {key: sum(lp[key] for lp in loops) for key in (
        "failed", "versions_open", "leader_reads", "idle_on", "wall_on",
        "versions_on", "open_s")}
    loop["commits"], loop["reads"] = len(out["commit"]), len(out["read"])
    loop["backlog"] = max(lp["backlog"] for lp in loops)
    loop["achieved"] = span / loop["open_s"]
    loop["busy"] = {
        traced: [sum(lp["busy"][traced][0] for lp in loops),
                 sum(lp["busy"][traced][1] for lp in loops)]
        for traced in (True, False)}
    # the open loop's update work: time spent inside the front's calls over
    # the whole phase.  Not a median per stretch: on serve-replicated that
    # time grows stretch by stretch (every replica poll re-parses the
    # growing WAL), so the middle stretch sits on the steepest part.
    out["update"].append(sum(lp["busy"][True][0] + lp["busy"][False][0]
                             for lp in loops))

    if on:
        out["snapshot_bytes"] = snapshot_bytes(data_dir)

    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.rmtree(image[0], ignore_errors=True)

    # -- check ----------------------------------------------------------------
    check_oracle(gate, replay_graph(inp, stream[:committed]),
                 {q: r.top for q, r in pre.items()}, spec.name)
    out.update(loop)
    out["attempted"] = len(events) + SEGMENTS * (spec.block + 2)
    out["failed"] = loop["failed"] + failed
    out["gate"] = gate
    return out


#: the generator sleeps until this close to a deadline, then spins, so
#: wake-up jitter does not show up as request latency
SPIN_S = 3e-4


def crash_image(svc, stream: list, data_dir: Path, gate: Gate):
    """Commit the stream's first ``CRASH_VERSIONS * CRASH_BATCH`` changes
    on ``svc`` in fixed batches; ``data_dir`` is left as the crash image.
    Returns ``(data_dir, reads)``, the reads being what every recovery of
    the image must serve."""
    for i in range(CRASH_VERSIONS):
        svc.submit(stream[i * CRASH_BATCH:(i + 1) * CRASH_BATCH])
        svc.flush()
    reads = served(svc)
    gate.expect(svc.version == CRASH_VERSIONS,
                f"crash image at v{svc.version}, not v{CRASH_VERSIONS}")
    return data_dir, reads


def time_recover(spec: Spec, image, work: Path, gate: Gate, rec) -> float:
    """``recover`` a fresh copy of the crash image: seconds until it
    returns a serving front."""
    src, reads = image
    dst = work / "recovering"
    shutil.copytree(src, dst)
    gc.collect()
    if rec is not None:
        rec.on = True
    t0 = clock()
    back = recover_front(spec, dst)
    took = clock() - t0
    if rec is not None:
        rec.on = False
        rec.phases.append(("recover", t0, t0 + took))
    with back:
        check_recovered(gate, back, reads, "recovered crash image")
    shutil.rmtree(dst)
    return took


def check_recovered(gate: Gate, svc, reads: dict, label: str) -> None:
    """A recovered front must serve the pre-crash version and results."""
    got = served(svc)
    version = reads["Q1"].version
    gate.expect(svc.version == version,
                f"{label}: recovered at v{svc.version}, crashed at v{version}")
    for q, r in reads.items():
        gate.expect(got[q].top == r.top,
                    f"{label}: recovered {q} {got[q].top} != {r.top}")


def _sleep_until(at: float) -> None:
    rest = at - clock() - SPIN_S
    if rest > 0:
        time.sleep(rest)
    while clock() < at:
        pass


def _open_loop(svc, events, stream, spec: Spec, rec, gate: Gate, out: dict):
    """One generator thread replays ``events`` on schedule.

    A change's commit latency runs from its scheduled arrival to the
    first return of a ``submit``/``flush``/``query`` whose version
    includes it (every drain takes the whole pending batch, so a version
    bump commits everything submitted before the call).  When no
    request is due the generator flushes once the oldest unacknowledged
    change has waited ``max_delay_ms`` -- the client-side flush timer.
    """
    max_delay = spec.options["max_delay_ms"] / 1e3
    traced = rec is not None
    last_v = svc.version
    v0 = last_v
    unacked: list = []  # (due, submitted_at)
    # this segment's samples; appended to ``out`` at the end
    commit, read, late, wait = [], [], [], []
    commit_svc, read_svc = [], []  # time inside the call that served it
    busy = {True: [0.0, 0], False: [0.0, 0]}  # per tracing state: [s, ops]
    idle_on = wall_on = 0.0
    versions_on = 0
    failed = 0
    leader_reads = 0
    start = clock() + 0.05
    t_prev = start
    end_due = start + events[-1][0]

    def ack(v, call_start, seen, on):
        nonlocal last_v, versions_on
        if on:
            versions_on += v - last_v
        for due, sub in unacked:
            commit.append(seen - due)
            commit_svc.append(seen - call_start)
            wait.append(max(0.0, call_start - sub))
        unacked.clear()
        last_v = v

    window = None  # start of the current traced window
    for t, kind, arg in events:
        due = start + t
        on = traced and int(t / WINDOW_S) % 2 == 1
        if traced:
            rec.on = on
            if on and window is None:
                window = t_prev
            elif not on and window is not None:
                rec.phases.append(("run", window, t_prev))
                window = None
        idle = 0.0
        while True:
            now = clock()
            if unacked and unacked[0][1] + max_delay < due:
                at = unacked[0][1] + max_delay
                if now < at:
                    _sleep_until(at)
                    idle += clock() - now
                a = clock()
                try:
                    v = svc.flush()
                except Exception as exc:
                    failed += 1
                    gate.expect(False, f"flush failed: {exc!r}")
                    unacked.clear()
                    continue
                b = clock()
                busy[on][0] += b - a
                busy[on][1] += 1
                if v > last_v:
                    ack(v, a, b, on)
                continue
            if now < due:
                _sleep_until(due)
                idle += clock() - now
            break
        a = clock()
        late.append(a - due)
        try:
            if kind == "w":
                v = svc.submit(stream[arg])
                b = clock()
                unacked.append((due, b))
            else:
                r = svc.query(arg)
                b = clock()
                v = r.version
                read.append(b - due)
                read_svc.append(b - a)
                gate.expect(v >= last_v,
                            f"read at v{v} below the floor v{last_v}")
                if getattr(r, "source", None) == "leader":
                    leader_reads += 1
        except Exception as exc:
            failed += 1
            gate.expect(False, f"{kind} request failed: {exc!r}")
            continue
        busy[on][0] += b - a
        busy[on][1] += 1
        if v > last_v:
            ack(v, a, b, on)
        if on:
            idle_on += idle
            wall_on += b - t_prev
        t_prev = b
    finish = clock()
    if unacked:
        a = clock()
        v = svc.flush()
        ack(v, a, clock(), False)
    if traced:
        rec.on = False
        if window is not None:
            rec.phases.append(("run", window, t_prev))
    # the backlog: requests not yet started when the last one was due
    started_late = sum(
        1 for (t, _, _), lt in zip(events, late) if start + t + lt > end_due
    )
    for key, xs in (("commit", commit), ("read", read), ("late", late),
                    ("wait", wait), ("commit_svc", commit_svc),
                    ("read_svc", read_svc)):
        out[key].extend(xs)
    return {
        "failed": failed,
        "backlog": started_late,
        "achieved": events[-1][0] / max(finish - start, 1e-9),
        "versions_open": last_v - v0,
        "leader_reads": leader_reads,
        "busy": busy,
        "idle_on": idle_on,
        "wall_on": wall_on,
        "versions_on": versions_on,
        "open_s": finish - start,
    }
