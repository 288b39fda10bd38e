"""Regenerate `refs.json.gz`: the input pools of scan-large and sweep-small,
each input stored with the probabilities the package computes for it.

    python3 perfbench/make_refs.py

The pools come from a fixed generation seed; a benchmark run's own seed
only picks from them.  Regenerate only when a change of the package is
meant to change its results, and say so where that change is recorded.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import yaml  # noqa: E402
from qwalk import cli, experiments  # noqa: E402

import workloads  # noqa: E402

GENERATION_SEED = 2409_11483
SCAN_VARIANTS = 6
SWEEP_VARIANTS = 3
SCAN_KINDS = ("one-fold", "two-fold", "three-fold")
HERALD_MODES = ("heralded-tmsv", "heralded-squashed", "unheralded", "ideal")


def _u(rng, lo, hi) -> float:
    return round(rng.uniform(lo, hi), 6)


def scan_pool(rng) -> dict:
    pool = {}
    for kind, heralded in workloads.SCAN_SLOTS:
        variants = []
        for _ in range(SCAN_VARIANTS):
            layers = [[_u(rng, 0.3, 1.3), _u(rng, 0.0, 2 * math.pi)] for _ in range(workloads.SCAN_N)]
            dist = experiments.run_experiment(workloads.scan_spec(kind, heralded, layers))
            variants.append(
                {"kind": kind, "heralded": heralded, "layers": layers,
                 "raw": list(dist.raw), "probs": list(dist.probs)}
            )
        pool[f"{kind}/{heralded}"] = variants
    return pool


def sweep_slots() -> list:
    """The fixed composition of one sweep-small pass: 200 (kind, N, mode) slots."""
    slots = []
    for _ in range(2):
        for kind in SCAN_KINDS:
            for n in range(1, 7):
                slots += [(kind, n, mode, None) for mode in HERALD_MODES]
    for n in range(1, 7):
        for inner in SCAN_KINDS:
            slots += [("step-evolution", n, mode, inner) for mode in ("heralded-tmsv", "unheralded")]
    slots += [("hom", 1, ("heralded-tmsv", "heralded-squashed")[i % 2], None) for i in range(20)]
    return slots


def sweep_config(rng, kind, n, mode, inner) -> dict:
    exp = {
        "kind": kind,
        "walk": {"n_steps": n, "omega": _u(rng, 0.3, 1.3), "gamma": _u(rng, 0.0, 2 * math.pi)},
        "mu_alpha": _u(rng, 0.05, 0.5),
        "mu_xi": _u(rng, 0.01, 0.05),
        "overlap": _u(rng, 0.0, 1.0),
        "eta_kerr": _u(rng, 0.9, 1.0),
        "eta_idler": _u(rng, 0.8, 1.0),
        "eta_sys": _u(rng, 0.8, 1.0),
        "heralded": mode != "unheralded",
        "pair_source": "squashed" if mode == "heralded-squashed" else "tmsv",
        "ideal_herald": mode == "ideal",
    }
    if mode == "unheralded":
        exp["pair_source"] = rng.choice(("tmsv", "squashed"))
    if kind == "step-evolution":
        exp["step"] = {"inner_kind": inner, "n_max": n}
    if kind == "hom":
        exp["hom"] = {"overlap_values": sorted([0.0] + [_u(rng, 0.0, 1.0) for _ in range(4)])}
    return {
        "experiment": exp,
        "output": {"format": rng.choice(("csv", "json"))},
        "oracle_check": {"enabled": False},
    }


def sweep_pool(rng, workdir: Path) -> list:
    pool = []
    for i, slot in enumerate(sweep_slots()):
        variants = []
        for j in range(SWEEP_VARIANTS):
            config = sweep_config(rng, *slot)
            cfg = workdir / "config.yaml"
            out = workdir / f"artifact.{config['output']['format']}"
            cfg.write_text(yaml.safe_dump(config, sort_keys=True), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"slot {i} variant {j} {slot}: exit code {code}")
            variants.append({"config": config, "rows": workloads.artifact_rows(out, slot[0])})
        pool.append(variants)
    return pool


def main() -> None:
    rng = random.Random(GENERATION_SEED)
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        refs = {"scan-large": scan_pool(rng), "sweep-small": sweep_pool(rng, Path(tmp))}
    data = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode("utf-8")
    workloads.REFS.write_bytes(gzip.compress(data, mtime=0))
    print(f"wrote {workloads.REFS} ({len(data)} bytes uncompressed)")


if __name__ == "__main__":
    main()
