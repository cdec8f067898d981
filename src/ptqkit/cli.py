"""Command-line entry point.

Subcommands: train, profile, prompts, calibset, quantize, sweep,
compare, scale, report.  Common flags: --config, --seed, --out, --jobs;
every flag overrides the matching config key.

Exit codes:
    0  success
    2  configuration error (bad config file, key, policy, or missing path)
    3  data error (insufficient statistics, calibration coverage)
    4  numeric error (training or reverse-chain divergence, degenerate profile)
    1  anything else
"""

import argparse
import json
import sys

from . import experiments as exp
from .calibration import STRATEGIES
from .config import load_config
from .errors import (CalibrationCoverageError, ChainDivergenceError, ConfigError,
                     DegenerateProfileError, InsufficientDataError, TrainingDivergenceError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_COMMANDS = {
    "train": exp.cmd_train,
    "profile": exp.cmd_profile,
    "prompts": exp.cmd_prompts,
    "calibset": exp.cmd_calibset,
    "quantize": exp.cmd_quantize,
    "sweep": exp.cmd_sweep,
    "compare": exp.cmd_compare,
    "scale": exp.cmd_scale,
}


def _comma_ints(text: str) -> list:
    return [int(tok) for tok in text.split(",")]  # argparse exits 2 on the ValueError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptqkit",
                                     description="Calibration-aware PTQ toolkit for a toy diffusion model")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--jobs", type=int, help="parallel seeds for experiment commands")

    for name in _COMMANDS:
        p = sub.add_parser(name)
        _common(p)
        if name == "quantize":
            p.add_argument("--policy", help="policy string such as 8W16A")
        if name == "calibset":
            p.add_argument("--strategy", choices=STRATEGIES)
        if name == "scale":
            p.add_argument("--counts", type=_comma_ints, help="comma-separated prompt counts")

    p = sub.add_parser("report")
    p.add_argument("results_dir", help="directory holding results.jsonl")
    p.add_argument("--out", help="directory for report files (default: results dir)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            info = exp.cmd_report(args.results_dir, out_dir=args.out)
            print(json.dumps(info, sort_keys=True))
            return EXIT_OK
        overrides = {"seed": args.seed, "out_dir": args.out, "jobs": args.jobs,
                     "policy": getattr(args, "policy", None),
                     "strategy": getattr(args, "strategy", None),
                     "scale_counts": getattr(args, "counts", None)}
        record = _COMMANDS[args.command](load_config(args.config, overrides))
        print(json.dumps({k: record[k] for k in ("run_id", "config_hash")}, sort_keys=True))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: missing path: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InsufficientDataError, CalibrationCoverageError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDivergenceError, ChainDivergenceError, DegenerateProfileError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # pragma: no cover - last resort
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
