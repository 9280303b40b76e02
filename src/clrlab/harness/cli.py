"""Command line entry point.

``clrlab <experiment> [--config FILE] [--seed N] [--trials N] [--out DIR]``
runs one experiment and exits 0 when every hard gate passed, 1 when a hard
gate failed, and 2 on configuration or usage errors, among them a
``--config`` file that cannot be read or parsed and an ``--out`` that
cannot be written, and on a computation that fails (ArithmeticError,
LinAlgError).  ``clrlab constants --dmax D`` additionally prints the
constant table as CSV on stdout, and ``clrlab potential gen`` writes a
potential JSON file without running any experiment; a flag out of its
range (``--points 0``, ``--h -1``, ``--N 0``, a negative or infinite
``--amplitude``) is a usage error and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..errors import ClrlabError, ConfigError
from ..lattice import GridSpec, save_potential
from .experiments import EXPERIMENT_NAMES, EXPERIMENTS, run_experiment
from .generators import POTENTIAL_STYLES, generate_potential
from .reports import ExperimentConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clrlab",
        description="Numerical laboratory for the CLR bound with matrix potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENT_NAMES:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file; CLI flags override its fields")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", type=Path, default=None,
                       help="directory for report.json and summary.csv")
        if name == "constants":
            dmax = EXPERIMENTS[name].options["dmax"].default
            p.add_argument("--dmax", type=int, default=None,
                           help=f"largest dimension in the table (default {dmax})")

    pot = sub.add_parser("potential", help="potential file utilities")
    pot_sub = pot.add_subparsers(dest="action", required=True)
    gen = pot_sub.add_parser("gen", help="generate a potential JSON file")
    gen.add_argument("--style", required=True, choices=POTENTIAL_STYLES)
    gen.add_argument("--seed", type=int, default=2026)
    gen.add_argument("--N", type=int, default=1, help="fiber dimension")
    gen.add_argument("--points", type=int, nargs="+", default=[8],
                     help="grid points per axis (1 to 3 values)")
    gen.add_argument("--h", type=float, default=0.5, help="lattice spacing")
    gen.add_argument("--amplitude", type=float, default=5.0)
    gen.add_argument("--out", type=Path, required=True)
    return parser


def _load_config(args: argparse.Namespace, experiment: str) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read the --config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
    data.setdefault("experiment", experiment)
    if data["experiment"] != experiment:
        raise ConfigError(
            f"config file is for {data['experiment']!r}, "
            f"but the command line asked for {experiment!r}")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.trials is not None:
        data["trials"] = args.trials
    if args.out is not None:
        data["out"] = str(args.out)
    options = data.get("options", {})
    if getattr(args, "dmax", None) is not None and isinstance(options, dict):
        data["options"] = {**options, "dmax": args.dmax}  # else validate rejects it
    return ExperimentConfig.from_dict(data)


def _print_constants_csv(report) -> None:
    print("gamma,d,L_cl,R_bound")
    for rec in report.records:
        if rec.get("kind") == "constant":
            print(f"{rec['gamma']},{rec['d']},{rec['L_cl']:.12e},"
                  f"{rec['R_bound']:.7f}")
    print("a_star,R_star")
    print(f"{report.summary['a_star']:.9f},{report.summary['R_star']:.7f}")


def _run(args: argparse.Namespace) -> int:
    cfg = _load_config(args, args.command)
    report = run_experiment(cfg)
    if args.command == "constants":
        _print_constants_csv(report)
    s = report.summary
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.experiment}: {s['records']} records, "
          f"{s['hard_records']} hard gates, {s['hard_failures']} failures",
          file=sys.stderr)
    if cfg.out:
        print(f"report written to {cfg.out}", file=sys.stderr)
    return 0 if report.passed else 1


def _gen_potential(args: argparse.Namespace) -> int:
    if not (1 <= len(args.points) <= 3):
        raise ConfigError("--points takes 1 to 3 values")
    try:
        grid = GridSpec(d=len(args.points), points_per_axis=tuple(args.points),
                        h=args.h)
        v = generate_potential(args.seed, grid, args.N, args.style,
                               amplitude=args.amplitude)
    except ValueError as exc:  # a flag out of its range is a usage error
        raise ConfigError(str(exc)) from exc
    try:
        save_potential(v, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "potential":
            return _gen_potential(args)
        return _run(args)
    except ConfigError as exc:
        print(f"clrlab: config error: {exc}", file=sys.stderr)
        return 2
    except (ClrlabError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"clrlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
