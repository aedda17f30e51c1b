"""Command-line entry point.

    wavefield-anc <experiment> --config <path> --out <dir> [--seed N] [--epochs N]

Exit codes: 0 success, 1 check failure or failed stage (named in summary.json), 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import RUNNERS, ExperimentSpec
from .pinn import TrainConfig
from .scenario import ScenarioConfig, default_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavefield-anc",
        description="Tonal soundfield interpolation and ANC experiments.",
    )
    parser.add_argument("experiment", choices=sorted(RUNNERS))
    parser.add_argument("--config", type=Path, help="scenario JSON (default: built-in)")
    parser.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="scenario and training seed")
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs")
    return parser


def resolve_spec(args: argparse.Namespace) -> ExperimentSpec:
    train = TrainConfig(epochs=args.epochs, seed=args.seed)  # first: it names a bad --seed
    if args.config is not None:
        scenario = ScenarioConfig.load(args.config)
    else:
        scenario = default_scenario(args.seed)
    return ExperimentSpec(
        experiment=args.experiment, scenario=scenario, train=train, out_dir=args.out
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = resolve_spec(args)
    except (OSError, TypeError, ValueError) as exc:  # what loading can raise
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    bundle = RUNNERS[spec.experiment](spec)
    print(json.dumps(bundle.summary["metrics"], indent=2))
    print(f"outputs in {spec.out_dir}")
    return 0 if bundle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
