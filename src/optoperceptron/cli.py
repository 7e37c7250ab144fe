"""Command-line entry point.

Subcommands: simulate | emulate | dataset | energy | sweep. Each flag but
--config and --out is shorthand for a config key: its argparse dest is the
key it overrides. Exit codes: 0 success (including unconverged training
runs), 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigurationError
from .runner import MODE_RUNNERS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optoperceptron",
        description="Digital twin of an opto-magnetic perceptron.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, help_text in [
        ("simulate", "train the abstract perceptron and export plot CSVs"),
        ("emulate", "train against the emulated write/read hardware"),
        ("dataset", "export the 27-pattern dataset"),
        ("energy", "per-pulse write energies and the energy ledger of the emulate run"),
        ("sweep", "run many seeds and summarize convergence"),
    ]:
        p = sub.add_parser(mode, help=help_text)
        p.add_argument("--config", type=Path, default=None, help="config file path")
        p.add_argument("--seed", dest="run.seed", type=int, metavar="SEED", help="override run.seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if mode == "emulate":
            # Only emulate writes these artifacts; other modes reject the flags.
            p.add_argument("--frames", dest="run.dump_frames", action="store_const", const="true",
                           help="dump PGM frames")
            p.add_argument("--verbose", dest="run.trace_verbosity", action="store_const", const="2",
                           help="full trace plus weight snapshots")
        if mode == "sweep":
            p.add_argument("--seeds", dest="sweep.seeds", type=int, metavar="SEEDS", help="override sweep.seeds")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: str(value) for key, value in vars(args).items() if "." in key and value is not None}
    try:
        cfg = load_config(args.config, overrides)
        summary = MODE_RUNNERS[args.mode](cfg, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
