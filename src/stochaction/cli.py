"""Command-line entry point.

Exit codes: 0 all checks passed, 1 runtime/tolerance failure,
2 configuration error.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigurationError, StochactionError
from .harness import COMMAND_DEFAULT, SCENARIOS, parse_config, run_command


def _add_common(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", help="path to a section.key = value file")
    sub.add_argument("--scenario", help=(
        f"scenario id: one of {', '.join(SCENARIOS[command])} "
        f"(default {COMMAND_DEFAULT[command]})"))
    sub.add_argument("--seed", type=int, help="override run.seed")
    sub.add_argument("--out", help="output directory (else run.out, "
                                   "else $STOCHACTION_OUT, else ./runs/...)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochaction",
        description="Deterministic scenario runner for the stochastic-action "
                    "model: wave propagation, polar-pair integration, "
                    "action-deviation sampling, and ensemble equivariance.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_DEFAULT:
        _add_common(subs.add_parser(command), command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config) if args.config else {}
        if args.scenario is not None:
            config["run.scenario"] = args.scenario
        if args.seed is not None:
            config["run.seed"] = args.seed
        if args.out is not None:
            config["run.out"] = args.out
        result = run_command(args.command, config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StochactionError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: value={c.value:.6g} "
              f"{c.relation} tolerance={c.tolerance:.6g}")
    print(f"wrote {len(result.files)} data file(s) to {result.out_dir}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
