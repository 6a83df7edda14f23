"""Command line interface.

Subcommands:

* ``explain``  order-n indices for selected points
* ``gam``      the full decomposition per point
* ``degree``   interaction-degree report over points
* ``check``    efficiency / dual-path / recovery suites on a config
* ``plot``     figures: ``plot bars`` or ``plot dependence FEATURE``

Every subcommand accepts either ``--config run.json`` or inline flags;
flags override config-file entries.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, RunConfig, RunError, read_config_document
from .config import run_check, run_degree, run_explain, run_gam, run_plot
from .datasets import DatasetError
from .models import ProcessFailed, ProtocolTimeout
from .valuefn import NoMatchingRows


# Each flag sets the config key of its name, dashes as underscores.
_FLAGS = (
    ("--data", "CSV dataset (header line required)", {}),
    ("--model", "model spec: JSON object or bare type name", {}),
    ("--value-fn", "value function spec: JSON object or bare type name", {}),
    ("--background", "'all' or a row range 'start:stop'", {}),
    ("--order", "explanation order: integer or 'all'", {}),
    ("--points", "'all', 'sample:N', or comma-joined row indices", {}),
    ("--out", "output path", {}),
    ("--format", "output format", {"choices": ["json", "csv"]}),
    ("--seed", "seed for point sampling", {"type": int}),
)
_SPEC_KEYS = ("model", "value_fn")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration file")
    for flag, text, extra in _FLAGS:
        parser.add_argument(flag, help=text, **extra)


def _json_or_name(raw: str):
    raw = raw.strip()
    if raw.startswith("{"):
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {raw!r} ({exc})") from exc
    return {"type": raw}


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    base = read_config_document(args.config) if args.config else {}
    for flag, _, _ in _FLAGS:
        key = flag[2:].replace("-", "_")
        raw = getattr(args, key)
        if raw is not None:
            base[key] = _json_or_name(raw) if key in _SPEC_KEYS else raw
    return RunConfig.from_mapping(base)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nshapley",
        description="Exact interaction attributions and functional decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("explain", "compute order-n indices for the selected points"),
        ("gam", "compute the full functional decomposition per point"),
        ("degree", "interaction-degree report over the selected points"),
        ("check", "run the efficiency/dual-path/recovery suites"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common_flags(p)
    plot = sub.add_parser("plot", help="render figures (bars | dependence)")
    plot.add_argument("mode", choices=["bars", "dependence"])
    plot.add_argument(
        "feature",
        nargs="?",
        type=int,
        help="0-based feature index (dependence mode only)",
    )
    _add_common_flags(plot)
    return parser


# An overflow or NaN a run produces is reported once, by the table check
# naming its point and subset, not as numpy warnings before that line.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _assemble_config(args)
        if args.command in ("explain", "gam", "degree"):
            run = {"explain": run_explain, "gam": run_gam, "degree": run_degree}[args.command]
            text = run(config)
            if not config.out:
                sys.stdout.write(text)
        elif args.command == "check":
            text, ok = run_check(config)
            sys.stdout.write(text)
            return 0 if ok else 1
        elif args.command == "plot":
            written = run_plot(config, args.mode, args.feature)
            for path in written:
                sys.stdout.write(path + "\n")
    except (
        ConfigError,
        RunError,
        DatasetError,
        NoMatchingRows,
        ProcessFailed,
        ProtocolTimeout,
        OSError,  # a data or results file that cannot be read or written
    ) as exc:
        sys.stderr.write(f"nshapley: error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
