"""The ``gaplab`` command line: ``gaplab COMMAND [--config] [--out] [--seed]``.

``COMMAND`` is a pipeline of ``PIPELINES`` or ``all``.  Exit codes: 0 all
checks passed, 1 one failed (a step that cannot be certified is a failed
``not certified`` check, with the artifacts written), 2 a config error,
one ``config error:`` line per refusal.  The benchmark harness reads
``load_config``, ``run``, ``PIPELINES`` and its traced functions here.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import summary_lines, write_artifacts
from .config import ConfigError, load_config
from .pipelines import PIPELINES, cmd_bounds, cmd_flow, cmd_gapsweep, \
    cmd_highergaps, cmd_ltqo, cmd_sp0scan, cmd_validate, constants_bundle, \
    flow_bundle, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="finite-chain gap stability laboratory")
    parser.add_argument("command", nargs="?", choices=[*PIPELINES, "all"],
                        help="pipeline to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config merged over the defaults")
    parser.add_argument("--out", type=Path, default=None,
                        help="artifact directory (default from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("gaplab: a command is required", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, args.seed)
        out_dir = args.out or Path(cfg["outputs"]["directory"])
        reports = run(cfg, [args.command], out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in summary_lines(reports):
        print(line)
    print(f"artifacts written to {out_dir}")
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
