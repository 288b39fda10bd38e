"""The benchmark's three workloads: inputs from a seed, entry calls, checks.

Every workload is a closed loop with one client: the next entry call is
issued only after the previous one returned.  A pass is one fixed list of
entry calls; the benchmark repeats passes for the time it is given.  The
library receives only the generated ExperimentSpecs or YAML files.

`scan-large` and `sweep-small` draw their inputs from a stored pool
(`refs.json.gz`, written by `make_refs.py`) that holds each input next to
the probabilities the package computed for it, so outputs are checked
against stored values for any seed.  `oracle-grid` needs no stored values:
each call checks the Gaussian route against the truncated-Fock oracle.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import itertools
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

from qwalk import cli, experiments
from qwalk.experiments import ExperimentSpec
from qwalk.io import read_distribution
from qwalk.walk import LayerParams, WalkConfig

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs.json.gz"

# acceptance tolerances of the package (ROADMAP): 1e-9 against stored
# values, so an engine that reorders floating-point work still passes
ACCEPT_ATOL = 1e-9
ORACLE_DIFF_MAX = 1e-6
ORACLE_LEAK_MAX = 1e-9

# scan-large: the paper's operating point at N = 25
SCAN_N = 25
PAPER_POINT = {"mu_alpha": 0.24, "mu_xi": 0.026, "overlap": 0.897461, "eta_kerr": 0.97}
SCAN_SLOTS = (("two-fold", True), ("three-fold", False))

# oracle-grid: the acceptance test's Gaussian/Fock grid.  The seed picks the
# routing efficiency of each of the other 108 grid combinations, so every
# pass holds the same mix of oracle costs (N, kind, mu_alpha, overlap and the
# herald set the Fock cutoff and the number of queries; eta_K barely does).
ORACLE_GRID = {
    "n_steps": (1, 2, 3),
    "mu_alpha": (0.1, 0.3),
    "overlap": (0.0, 0.7, 1.0),
    "kind": ("one-fold", "two-fold", "three-fold"),
    "heralded": (True, False),
    "eta_kerr": (0.97, 1.0),
}


class CheckFailed(Exception):
    """An entry call returned, but its output is wrong."""


@dataclass
class Call:
    run: Callable[[], object]
    check: Callable[[object], int]  # raises CheckFailed; returns points delivered


@dataclass
class Workload:
    name: str
    calls: list  # one pass
    size: str  # human-readable input size
    warmup: Callable[[], object]
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def load_refs() -> dict:
    with gzip.open(REFS, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def _close(got, want, what: str) -> None:
    if len(got) != len(want):
        raise CheckFailed(f"{what}: {len(got)} values, expected {len(want)}")
    worst = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
    if not worst <= ACCEPT_ATOL:
        raise CheckFailed(f"{what}: off by {worst:.3e} (tolerance {ACCEPT_ATOL:.0e})")


# -- scan-large ---------------------------------------------------------------


def scan_spec(kind: str, heralded: bool, layers, n_steps: int = SCAN_N) -> ExperimentSpec:
    walk = WalkConfig(n_steps, tuple(LayerParams(omega=o, gamma=g) for o, g in layers))
    return ExperimentSpec(
        walk=walk, kind=kind, heralded=heralded, pair_source="tmsv", **PAPER_POINT
    )


def _scan_call(variant: dict) -> Call:
    spec = scan_spec(variant["kind"], variant["heralded"], variant["layers"])
    pairs = [tuple(p) for p in itertools.combinations(range(1, SCAN_N + 2), 2)]

    def check(dist) -> int:
        if list(dist.labels) != pairs:
            raise CheckFailed(f"{variant['kind']}: unexpected gate-point labels")
        if dist.undefined:
            raise CheckFailed(f"{variant['kind']}: normalization undefined")
        _close(dist.raw, variant["raw"], f"{variant['kind']} raw")
        _close(dist.probs, variant["probs"], f"{variant['kind']} normalized")
        return len(dist.raw)

    return Call(lambda: experiments.run_experiment(spec), check)


def scan_large(seed: int) -> Workload:
    rng = random.Random(seed)
    pool = load_refs()["scan-large"]
    calls = [_scan_call(rng.choice(pool[f"{k}/{h}"])) for k, h in SCAN_SLOTS]
    warm = scan_spec("two-fold", True, [(1.0, 0.0)] * 2, n_steps=2)
    modes = 4 * (SCAN_N + 1) + 1
    return Workload(
        "scan-large",
        calls,
        f"N={SCAN_N}: {modes} modes + 4 routing; heralded two-fold and unheralded "
        f"three-fold scans of {SCAN_N * (SCAN_N + 1) // 2} gate points each",
        lambda: experiments.run_experiment(warm),
    )


# -- sweep-small --------------------------------------------------------------


def artifact_rows(path: Path, kind: str) -> list:
    """Rows of an artifact as flat float lists (labels, probability, raw)."""
    if kind != "step-evolution":
        dist, _ = read_distribution(str(path))
        return [
            [float(f) for f in (label if isinstance(label, tuple) else (label,))] + [p, r]
            for label, p, r in zip(dist.labels, dist.probs, dist.raw)
        ]
    # read_distribution refuses step-evolution sequences; read the table
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        return [[float(f) for f in row] for row in json.loads(text)["rows"]]
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [[float(f) for f in row] for row in list(csv.reader(body))[1:]]


def _sweep_call(variant: dict, workdir: Path, index: int) -> Call:
    cfg_path = workdir / f"config{index:03d}.yaml"
    out_path = workdir / f"artifact{index:03d}.{variant['config']['output']['format']}"
    cfg_path.write_text(yaml.safe_dump(variant["config"], sort_keys=True), encoding="utf-8")
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out_path)]
    kind = variant["config"]["experiment"]["kind"]
    want = variant["rows"]

    def run():
        # cli.main reports "wrote <path>" on stdout; keep it out of the metric printout
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        return code, captured.getvalue()

    def check(result) -> int:
        code, printed = result
        if code != 0:
            raise CheckFailed(f"config {index}: exit code {code}")
        if printed != f"wrote {out_path}\n":
            raise CheckFailed(f"config {index}: unexpected stdout {printed!r}")
        rows = artifact_rows(out_path, kind)
        if len(rows) != len(want) or any(len(r) != len(w) for r, w in zip(rows, want)):
            raise CheckFailed(f"config {index}: artifact shape differs from the reference")
        n_label = len(want[0]) - 2 if want else 0
        if any(r[:n_label] != w[:n_label] for r, w in zip(rows, want)):
            raise CheckFailed(f"config {index}: artifact labels differ from the reference")
        _close([r[-2] for r in rows], [w[-2] for w in want], f"config {index} normalized")
        _close([r[-1] for r in rows], [w[-1] for w in want], f"config {index} raw")
        return len(rows)

    return Call(run, check)


SWEEP_WARMUP = {
    "experiment": {"kind": "one-fold", "walk": {"n_steps": 1}},
    "output": {"format": "csv"},
}


def sweep_small(seed: int, scratch_root: Path) -> Workload:
    rng = random.Random(seed)
    slots = load_refs()["sweep-small"]
    picks = [rng.choice(variants) for variants in slots]
    rng.shuffle(picks)
    scratch_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=scratch_root))
    calls = [_sweep_call(v, workdir, i) for i, v in enumerate(picks)]
    warm_cfg = workdir / "warmup.yaml"
    warm_cfg.write_text(yaml.safe_dump(SWEEP_WARMUP), encoding="utf-8")
    warm_argv = ["simulate", "--config", str(warm_cfg), "--out", str(workdir / "warmup.csv")]

    def warmup():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(warm_argv)

    rows = sum(len(v["rows"]) for v in picks)
    return Workload(
        "sweep-small",
        calls,
        f"{len(calls)} YAML configs through cli.main simulate, N in 1..6, {rows} artifact rows",
        warmup,
        workdir,
    )


# -- oracle-grid --------------------------------------------------------------


def oracle_spec(point: dict) -> ExperimentSpec:
    return ExperimentSpec(
        walk=WalkConfig.uniform(point["n_steps"]),
        kind=point["kind"],
        mu_alpha=point["mu_alpha"],
        mu_xi=0.026,
        overlap=point["overlap"],
        eta_kerr=point["eta_kerr"],
        heralded=point["heralded"],
    )


def _oracle_call(point: dict) -> Call:
    spec = oracle_spec(point)
    n = point["n_steps"]
    expected = n + 1 if point["kind"] == "one-fold" else (n + 1) * n // 2

    def check(report) -> int:
        if report.comparisons != expected:
            raise CheckFailed(f"{point}: {report.comparisons} comparisons, expected {expected}")
        if not report.max_abs_diff < ORACLE_DIFF_MAX:
            raise CheckFailed(f"{point}: |Gaussian - Fock| = {report.max_abs_diff:.3e}")
        if not report.truncation_leak < ORACLE_LEAK_MAX:
            raise CheckFailed(f"{point}: truncation leak {report.truncation_leak:.3e}")
        return report.comparisons

    return Call(lambda: experiments.verify_against_oracle(spec), check)


def oracle_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    keys = list(ORACLE_GRID)
    strata = itertools.product(*list(ORACLE_GRID.values())[:-1])
    picks = [dict(zip(keys, values + (rng.choice(ORACLE_GRID["eta_kerr"]),))) for values in strata]
    rng.shuffle(picks)
    calls = [_oracle_call(p) for p in picks]
    warm = oracle_spec(dict(zip(keys, (1, 0.1, 1.0, "one-fold", True, 1.0))))
    return Workload(
        "oracle-grid",
        calls,
        f"{len(calls)} draws from the {2 * len(calls)}-point Gaussian/Fock grid, N in 1..3",
        lambda: experiments.verify_against_oracle(warm),
    )


def build(name: str, seed: int, scratch_root: Path) -> Workload:
    if name == "scan-large":
        return scan_large(seed)
    if name == "sweep-small":
        return sweep_small(seed, scratch_root)
    if name == "oracle-grid":
        return oracle_grid(seed)
    raise ValueError(f"unknown workload {name!r}")

