"""Command-line entry point: run scenarios, list built-ins, show version.

Commands:
    wignerlab run <config.yaml | built-in name> [--output DIR]
    wignerlab list
    wignerlab version

Environment:
    WIGNERLAB_OUTPUT_ROOT   default parent directory for scenario output
    WIGNERLAB_WORKERS       accepted for interface compatibility; all
                            computation is single-process, so it never
                            changes results or bytes

Exit codes: 0 success, 2 configuration error, 3 physics precondition
violated, 4 numerical monitor hard failure.
"""

import argparse
import os
import sys
from pathlib import Path

from .errors import (ConfigError, ConvergenceError, MonitorError,
                     WignerlabError)
from .scenarios import (BUILTIN_SCENARIOS, builtin_config, list_scenarios,
                        load_config, run_scenario)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_MONITOR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerlab",
        description="Phase-space quantum mechanics scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("scenario",
                     help="path to a YAML config, or a built-in name")
    run.add_argument("--output", default=None,
                     help="output directory (default: <output root>/<name>)")

    sub.add_parser("list", help="list built-in scenarios")
    sub.add_parser("version", help="print the package version")
    return parser


def _resolve_config(token: str):
    if token in BUILTIN_SCENARIOS:
        return builtin_config(token)
    if os.path.exists(token):
        return load_config(token)
    raise ConfigError(
        f"{token!r} is neither a built-in scenario nor an existing file; "
        f"built-ins: {sorted(BUILTIN_SCENARIOS)}")


def _command_run(args) -> int:
    config = _resolve_config(args.scenario)
    if args.output is not None:
        out = Path(args.output)
    else:
        root = os.environ.get("WIGNERLAB_OUTPUT_ROOT", "wignerlab-out")
        out = Path(root) / config.name
    manifest = run_scenario(config, out)
    print(f"{config.name}: wrote {len(manifest['artifacts']) + 2} "
          f"files to {out}")
    return EXIT_OK


def _command_list() -> int:
    rows = list_scenarios()
    width = max(len(name) for name, _ in rows)
    for name, description in rows:
        print(f"{name:<{width}}  {description}")
    return EXIT_OK


def main(argv=None) -> int:
    # WIGNERLAB_WORKERS is read (and validated) purely for interface
    # compatibility; execution is single-process either way.
    workers = os.environ.get("WIGNERLAB_WORKERS")
    if workers is not None and not (workers.isdecimal() and int(workers) > 0):
        print(f"error: WIGNERLAB_WORKERS must be a positive integer, "
              f"got {workers!r}", file=sys.stderr)
        return EXIT_CONFIG

    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _command_run(args)
        if args.command == "list":
            return _command_list()
        if args.command == "version":
            from . import __version__
            print(__version__)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MonitorError, ConvergenceError) as exc:
        print(f"numerical monitor failure: {exc}", file=sys.stderr)
        return EXIT_MONITOR
    except WignerlabError as exc:
        print(f"physics precondition violated: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
