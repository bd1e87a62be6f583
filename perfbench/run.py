"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload serve-sharded --seed 1 \
        --seconds 18 --trace 0

runs one workload end to end through the public APIs of
``repro.serving``, ``repro.replication`` and ``repro.sharding`` and
prints each metric with its unit and sample count, the run's record
(input checksum, pinned configuration, versions) and, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
per-layer wrappers (``layers.py``) and reports the per-layer metrics plus
the self-time accounting table.  Any wrong output exits non-zero.

Inputs are generated once per seed into ``perfbench/_work/inputs`` (see
``inputs.py``); scratch service directories live under
``perfbench/_work/run-<pid>`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: an open-loop segment that ends with more than this many seconds' worth of
#: offered requests not yet started did not drain: over capacity
OVER_S = 2.0

#: every environment knob that changes what the program does; the measured
#: process runs with all of them unset, i.e. the library defaults
KNOBS = ("REPRO_WORKERS", "REPRO_PARALLEL_CUTOFF", "REPRO_TRACE",
         "REPRO_PROFILE_KERNELS", "REPRO_SHARDS", "REPRO_SHARD_PROCS",
         "REPRO_STORAGE", "REPRO_REPLICAS")


def pin_environment() -> dict:
    """Clear every ``REPRO_*`` variable; returns what was cleared."""
    cleared = {k: os.environ.pop(k) for k in list(os.environ)
               if k.startswith("REPRO_")}
    return {"cleared": sorted(cleared), "effective": {k: None for k in KNOBS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy

    import inputs
    import report
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.SPECS)}", file=sys.stderr)
        return 2
    work = HERE / "_work"
    inp = inputs.ensure(work, seed=args.seed,
                        **spec.input_params(args.seconds))
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    rec = None
    try:
        if args.trace:
            from layers import Recorder, install

            rec = Recorder(run_dir)
            install(rec)
        if spec.front == "memory":
            out = workloads.run_ttc(spec, inp, args.seconds, rec)
        else:
            out = workloads.run_serve(spec, inp, args.seconds, args.seed,
                                      rec, run_dir)
        if rec is not None:
            rec.collect()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input": inp.name,
        "input_sha256": inputs.checksum(inp),
        "env": env, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "front": spec.front, "options": spec.options,
        "offered": {"changes_per_s": spec.write_rate,
                    "reads_per_s": spec.read_rate},
    }
    if spec.front != "memory":
        record.update(commits=out["commits"], reads=out["reads"],
                      backlog_end=out["backlog"],
                      achieved_frac=round(out["achieved"], 4),
                      leader_reads=out["leader_reads"])
    print("record " + json.dumps(record, sort_keys=True))
    if spec.front != "memory" and out["backlog"] > OVER_S * (
            spec.write_rate + spec.read_rate):
        print(f"over capacity: {out['backlog']} requests had not started "
              "when the last one was due; no latency is reported",
              file=sys.stderr)
        return 3
    failures = list(out["gate"].failures)

    if args.trace:
        metrics, table = report.per_layer(rec, out, spec)
        print(f"# {spec.name}: self-time accounting over the traced windows")
        wall = sum(v for _, v in table)
        for name, secs in table:
            share = secs / wall if wall else 0.0
            print(f"  {name:<28} {secs:10.4f} s  {share:7.2%}")
        frac = metrics["trace.unattributed_frac"][0]
        if abs(frac) > report.ACCOUNTING_TOLERANCE:
            failures.append(
                f"self-times + idle leave {frac:.1%} of the traced wall "
                f"time unaccounted (tolerance {report.ACCOUNTING_TOLERANCE:.0%})")
    else:
        metrics = report.end_to_end(out)

    print(f"# {spec.name} seed={args.seed} trace={args.trace}")
    for name, (value, n, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit:<6} n={n}")
    for f in failures:
        print(f"WRONG: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, n, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
