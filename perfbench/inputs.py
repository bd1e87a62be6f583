"""Benchmark inputs: one seeded graph plus change stream per workload, as files.

Inputs are written once per (workload, size, seed) with the repository's own
CSV writers (``repro.model.loader.save_graph`` / ``save_change_sets``) and
then only ever *read* by the measured process, so both sides of a comparison
load the same bytes and generation is never inside a timed region.  The
``sha256`` of the files is printed with every result.

Run as a script to generate one input directory (the benchmark does this in
a child process, so generation never shows in the measured process's peak
memory)::

    python3 perfbench/inputs.py --out DIR --scale 32 --changes 3000 \
        --sets 1 --removals 0.1 --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def checksum(directory: Path) -> str:
    """sha256 over every input file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure(work: Path, *, scale: int, changes: int, sets: int,
           removals: float, seed: int) -> Path:
    """The input directory for these parameters, generating it if absent."""
    name = f"sf{scale}-n{changes}-c{sets}-r{removals:g}-s{seed}"
    out = work / "inputs" / name
    if out.is_dir():
        return out
    tmp = out.with_name(f"{name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(
        [sys.executable, __file__, "--out", str(tmp), "--scale", str(scale),
         "--changes", str(changes), "--sets", str(sets),
         "--removals", str(removals), "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL,
    )
    os.replace(tmp, out)
    return out


def generate(out: Path, *, scale: int, changes: int, sets: int,
             removals: float, seed: int) -> None:
    sys.path.insert(0, str(SRC))
    from repro.datagen import generate_change_sets, generate_graph
    from repro.model.loader import save_change_sets, save_graph

    graph = generate_graph(scale, seed=seed)
    stream = generate_change_sets(
        graph, changes, num_change_sets=sets, seed=seed + 7919,
        removal_fraction=removals,
    )
    save_graph(out, graph)
    save_change_sets(out, stream)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--scale", type=int, required=True)
    ap.add_argument("--changes", type=int, required=True)
    ap.add_argument("--sets", type=int, required=True)
    ap.add_argument("--removals", type=float, default=0.0)
    ap.add_argument("--seed", type=int, required=True)
    a = ap.parse_args(argv)
    generate(a.out, scale=a.scale, changes=a.changes, sets=a.sets,
             removals=a.removals, seed=a.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
