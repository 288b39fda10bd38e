"""qwalk benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 25 --trace 0

With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics of a separate traced run (BENCHMARK.json lists both).
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Every output is
checked; an entry call that raises or fails its check counts as failed.

BLAS is pinned to one thread before numpy is imported, and QWALK_THREADS
is left as the caller set it (unset: the package default), so the pool
times BLAS stays within the cores.  Files go to `.perfbench_out/` and a
scratch directory under `.perfbench_tmp/` at the root of the checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SCRATCH_DIR = ROOT / ".perfbench_tmp"
WORKLOADS = ("scan-large", "sweep-small", "oracle-grid")
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import, generate inputs, make one warm-up call and exit (times set-up)",
    )
    return parser.parse_args(argv)


def _set_up(name: str, seed: int):
    """Import the package, generate the inputs and make one warm-up call."""
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.build(name, seed, SCRATCH_DIR)
    try:
        workload.warmup()
    except BaseException:
        workload.close()
        raise
    return workload


def _probe_set_up(args) -> float:
    """Wall time of a fresh process that only sets up, start to exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--setup-only",
    ]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment() -> dict:
    import numpy as np
    from qwalk import experiments

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    thread_count = getattr(experiments, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "QWALK_THREADS")
        },
        "pool_size": thread_count() if thread_count else None,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    }


def _measure(workload, seconds: float) -> dict:
    """Closed loop: whole passes until `seconds` have elapsed (at least one)."""
    latencies, points, failed, passes, errors = [], 0, 0, 0, []
    deadline = time.perf_counter() + seconds
    while True:
        for call in workload.calls:
            t0 = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # a raising entry call is a failed call
                latencies.append(time.perf_counter() - t0)
                failed += 1
                errors.append(f"raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            try:
                points += call.check(out)
            except Exception as exc:  # a wrong or unreadable output is a failed call
                failed += 1
                errors.append(f"check failed: {type(exc).__name__}: {exc}")
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "points": points, "failed": failed, "passes": passes, "errors": errors}


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(run: dict, setup_samples) -> dict:
    lat = run["latencies"]
    busy = sum(lat)
    p90 = _p90(lat)
    beyond = sum(1 for x in lat if x > p90)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s", f"median of {len(setup_samples)} set-ups in fresh processes"),
        "points_per_s": (run["points"] / busy, "1/s", f"{run['points']} points in {busy:.3f} s of entry calls"),
        "call_p50_s": (statistics.median(lat), "s", f"n={len(lat)}"),
        "call_p90_s": (p90, "s", f"n={len(lat)}, {beyond} beyond"
                       + ("" if beyond >= 10 else "; fewer than 10 beyond, read as an upper sample")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<14} {value:<12.6g} {unit:<4} {note}")
    print(f"  {'failed_frac':<14} {run['failed'] / len(lat):<12.6g} {'':<4} {run['failed']} of {len(lat)} calls")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def _per_layer(recorder, run: dict, call_cost_s: float) -> dict:
    import spans

    busy = sum(run["latencies"])
    summary = spans.summarize(recorder, busy)
    layers, counts, passes = summary["layers"], recorder.counts, run["passes"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0) / passes

    print(f"  {'layer':<26} {'calls/pass':>11} {'busy_s/pass':>12} {'self_s/pass':>12} threads")
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<26} {entry['calls'] / passes:>11.1f} {entry['busy_s'] / passes:>12.6f}"
              f" {entry['self_s'] / passes:>12.6f} {len(entry['threads'])}")
    if layers:
        largest = max(layers, key=lambda n: layers[n]["self_s"])
        parents = summary["parents"][largest]
        share = {p: round(v / sum(parents.values()), 4) for p, v in parents.most_common(3)}
        print(f"  largest layer by self time: {largest}; busy time by parent: {share}")
    print("  coverage by thread: " + ", ".join(
        f"{t}={c:.4f}" for t, c in sorted(summary["coverage"].items(), key=lambda kv: str(kv[0]))))
    if recorder.missing:
        print(f"  not found in this version of qwalk: {', '.join(recorder.missing)}")

    lookups = recorder.calls["ClickCalculator.no_click"]
    values = {
        "gaussian.apply_passive.calls": layer("gaussian.apply_passive", "calls"),
        "gaussian.apply_passive.busy_s": layer("gaussian.apply_passive", "busy_s"),
        "gaussian.apply_passive.bytes_computed": counts["gaussian.apply_passive.bytes_computed"] / passes,
        "gaussian.append_modes.calls": layer("gaussian.append_modes", "calls"),
        "gaussian.append_modes.busy_s": layer("gaussian.append_modes", "busy_s"),
        "gaussian.prepare.busy_s": layer("gaussian.prepare", "busy_s"),
        "gaussian.apply_loss.busy_s": layer("gaussian.apply_loss", "busy_s"),
        "walk.unitary.calls": layer("walk.unitary", "calls"),
        "walk.unitary.busy_s": layer("walk.unitary", "busy_s"),
        "detection.build_layout.calls": layer("detection.build_layout", "calls"),
        "detection.build_layout.self_s": layer("detection.build_layout", "self_s"),
        "detection.p0.calls": recorder.calls["ClickCalculator._p0_with_factor"] / passes,
        "detection.p0.busy_s": layer("detection.p0", "busy_s"),
        "detection.p0.hit_ratio": (lookups - counts["detection.p0.misses"]) / lookups if lookups else 0.0,
        "detection.clicks.calls": layer("detection.clicks", "calls"),
        "detection.clicks.self_s": layer("detection.clicks", "self_s"),
        "fock.oracle_build.busy_s": layer("fock.oracle_build", "busy_s"),
        "fock.oracle_query.calls": layer("fock.oracle_query", "calls"),
        "fock.oracle_query.busy_s": layer("fock.oracle_query", "busy_s"),
        "experiments.self_s": layer("experiments", "self_s"),
        "experiments.pool_threads": recorder.pool_threads,
        "config.load.busy_s": layer("config.load", "busy_s"),
        "io.render.busy_s": layer("io.render", "busy_s"),
        "io.render.bytes": counts["io.render.bytes"] / passes,
        "cli.self_s": layer("cli", "self_s"),
        "trace.coverage": min(summary["coverage"].values()),
        "trace.overhead_frac": call_cost_s * sum(recorder.calls.values()) / busy,
    }
    units = {"calls": "count", "bytes_computed": "B", "bytes": "B", "hit_ratio": "ratio",
             "pool_threads": "count", "coverage": "ratio", "overhead_frac": "ratio"}
    return {
        name: {"value": value, "unit": units.get(name.rsplit(".", 1)[1], "s")}
        for name, value in values.items()
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no qwalk package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        _set_up(args.workload, args.seed).close()
        return 0

    setup_samples = [] if args.trace else [_probe_set_up(args) for _ in range(SETUP_PROBES)]
    workload = _set_up(args.workload, args.seed)
    try:
        print("env: " + json.dumps(_environment(), sort_keys=True))
        print(f"{workload.name}: {workload.size}; {len(workload.calls)} entry calls per pass, "
              f"closed loop, one client, seed {args.seed}")
        recorder = None
        if args.trace:
            import spans

            call_cost_s = spans.per_call_cost()
            recorder = spans.Recorder()
            spans.install(recorder)
        run = _measure(workload, args.seconds)
    finally:
        workload.close()

    attempted = len(run["latencies"])
    print(f"  {run['passes']} passes, {attempted} calls, {run['points']} points"
          + (" (traced)" if args.trace else ""))
    for error in run["errors"][:MAX_REPORTED_FAILURES]:
        print(f"  FAILED: {error}", file=sys.stderr)
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        # one file per workload, overwritten, so repeated runs do not pile up traces
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        recorder.write(trace_path)
        print(f"  {len(recorder.spans)} spans in {trace_path.relative_to(ROOT)}")
        metrics = _per_layer(recorder, run, call_cost_s)
    else:
        metrics = _end_to_end(run, setup_samples)
    result = {
        "correct": run["failed"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
