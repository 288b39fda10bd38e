"""Single-threaded reference for scan-large, next to the pooled runs.

    python3 perfbench/threads_note.py [--rounds 3] [--passes 1]

Runs scan-large passes (seed 0) in fresh processes under four thread
settings, rotating the order each round so that drift on a shared machine
spreads over all of them:

    serial        QWALK_THREADS=1, BLAS pinned to 1 thread
    pool          QWALK_THREADS unset (package default), BLAS pinned to 1
    serial+blas   QWALK_THREADS=1, BLAS threads left to the library default
    pool+blas     both left to their defaults

It prints the wall and CPU time of each pass and each setting's median.
This is a recorded note, not a gated workload: the numbers it printed go
into perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETTINGS = {
    "serial": {"QWALK_THREADS": "1", **{v: "1" for v in BLAS_VARS}},
    "pool": {v: "1" for v in BLAS_VARS},
    "serial+blas": {"QWALK_THREADS": "1"},
    "pool+blas": {},
}


def _child(passes: int) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    workload = workloads.scan_large(0)
    workload.warmup()
    out = []
    for _ in range(passes):
        t0, c0 = time.perf_counter(), time.process_time()
        results = [call.run() for call in workload.calls]
        out.append((time.perf_counter() - t0, time.process_time() - c0))
        for call, result in zip(workload.calls, results):
            call.check(result)
    print(json.dumps(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.passes)
        return

    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS and k != "QWALK_THREADS"}
    names = list(SETTINGS)
    walls: dict[str, list] = {name: [] for name in names}
    for r in range(args.rounds):
        for name in names[r % len(names):] + names[: r % len(names)]:
            cmd = [sys.executable, __file__, "--child", "--passes", str(args.passes)]
            done = subprocess.run(
                cmd, env={**base, **SETTINGS[name]}, capture_output=True, text=True,
                check=True, timeout=600,
            )
            for wall, cpu in json.loads(done.stdout.splitlines()[-1]):
                walls[name].append(wall)
                print(f"round {r} {name:<12} pass wall {wall:7.3f} s  cpu {cpu:7.3f} s", flush=True)
    print(f"nproc {os.cpu_count()}; scan-large pass = 2 scans x 325 gate points at N = 25")
    for name in names:
        print(f"{name:<12} median pass wall {statistics.median(walls[name]):.3f} s over {len(walls[name])} passes")


if __name__ == "__main__":
    main()
