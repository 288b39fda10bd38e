"""Command-line front end.

Exit codes: 0 on success, 2 for configuration or file errors, 3 when an
enabled oracle check disagrees beyond its tolerance, 1 for any other
computation error.  Errors are reported as a single JSON object on
stderr so scripted callers can parse them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .config import RunConfig
from .errors import ConfigInvalid, IoError, OracleMismatch, QwalkError
from .experiments import _oracle_report, fit_overlap, hom_scan, run_experiment, step_evolution
from .io import read_distribution, render_distribution, write_text
from .metrics import bhattacharyya

__all__ = ["main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: every parse returns a
    fresh namespace, so calls share nothing through it."""
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Time-bin quantum walk simulator with threshold detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate", help="run the preset described by a YAML config"
    )
    sim.add_argument("--config", required=True, metavar="PATH")
    sim.add_argument(
        "--out",
        metavar="PATH",
        help="artifact path (overrides output.path; stdout when neither is set)",
    )
    sim.add_argument("--format", dest="fmt", choices=("csv", "json"))
    herald = sim.add_mutually_exclusive_group()
    herald.add_argument(
        "--heralded",
        dest="heralded",
        action="store_const",
        const=True,
        default=None,
        help="condition on an idler click",
    )
    herald.add_argument(
        "--unheralded",
        dest="heralded",
        action="store_const",
        const=False,
        help="ignore the idler",
    )
    oracle = sim.add_mutually_exclusive_group()
    oracle.add_argument(
        "--oracle",
        action="store_const",
        const=True,
        default=None,
        help="cross-check every pattern probability in Fock space",
    )
    oracle.add_argument(
        "--no-oracle",
        dest="oracle",
        action="store_const",
        const=False,
        help="skip a config-enabled oracle check",
    )
    sim.add_argument(
        "--classical-source",
        dest="classical",
        action="store_true",
        help="swap the pair source for its squashed classical twin",
    )

    cmp_ = sub.add_parser(
        "compare", help="print the Bhattacharyya similarity of two artifacts"
    )
    cmp_.add_argument("first", metavar="FILE1")
    cmp_.add_argument("second", metavar="FILE2")
    cmp_.add_argument(
        "--squared", action="store_true", help="report the squared coefficient"
    )

    fit = sub.add_parser(
        "fit-overlap",
        help="fit the coherent-light overlap to the target HOM visibility",
    )
    fit.add_argument("--config", required=True, metavar="PATH")
    fit.add_argument("--out", metavar="PATH")
    return parser


def _cmd_simulate(args) -> int:
    classical = "squashed" if args.classical else None
    flags = {
        "experiment": {"heralded": args.heralded, "pair_source": classical},
        "output": {"path": args.out, "format": args.fmt},
        "oracle_check": {"enabled": args.oracle},
    }
    cfg = RunConfig.from_file(args.config, flags)
    spec = cfg.spec
    if cfg.kind == "step-evolution":
        result = step_evolution(
            spec, n_max=cfg.step_n_max, inner_kind=cfg.step_inner_kind
        )
        # the oracle checks every prefix the artifact holds, and nothing else
        checked = [(replace(spec, kind=d.kind, walk=spec.walk.truncated(d.step)), d) for d in result]
    else:
        result = hom_scan(spec, cfg.hom_overlaps) if cfg.kind == "hom" else run_experiment(spec)
        checked = [(spec, result)]
    text = render_distribution(result, cfg.resolved, cfg.out_format)

    if cfg.oracle_enabled:
        # the very distributions rendered, so every written row is checked once
        reports = [_oracle_report(s, d, cfg.oracle_settings) for s, d in checked]
        worst = max(r.max_abs_diff for r in reports)
        print(
            f"oracle check: max |Gaussian - Fock| = {worst:.3e} "
            f"over {sum(r.comparisons for r in reports)} patterns "
            f"(truncation leak {max(r.truncation_leak for r in reports):.3e})",
            file=sys.stderr,
        )
        if worst > cfg.oracle_tolerance:
            raise OracleMismatch(
                f"max |Gaussian - Fock| = {worst:.3e} exceeds "
                f"tolerance {cfg.oracle_tolerance:.3e}"
            )

    if cfg.out_path:
        write_text(cfg.out_path, text)
        print(f"wrote {cfg.out_path}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args) -> int:
    p, _ = read_distribution(args.first)
    q, _ = read_distribution(args.second)
    report = bhattacharyya(p, q, squared=args.squared)
    print(f"{report.value:.6f}")
    return 0


def _cmd_fit(args) -> int:
    cfg = RunConfig.from_file(args.config, {"output": {"path": args.out}})
    overlap, visibility = fit_overlap(cfg.spec, target=cfg.fit_target)
    payload = {
        "schema": "qwalk-overlap-fit-v1",
        "target": cfg.fit_target,
        "overlap": overlap,
        "visibility": visibility,
        "config": cfg.resolved,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if cfg.out_path:
        write_text(cfg.out_path, text)
        print(f"wrote {cfg.out_path}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_fit(args)
    except QwalkError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        if isinstance(exc, (ConfigInvalid, IoError)):
            return 2
        if isinstance(exc, OracleMismatch):
            return 3
        return 1


if __name__ == "__main__":
    sys.exit(main())
