"""Command-line front end.

One subcommand, ``run``: one experiment over the given seeds and modes, or,
with ``--vary FIELD=v1,v2`` repeated, one per point of the product of the axes.
"""

from __future__ import annotations

import argparse
import sys

from .allocation import MODES
from .config import ConfigError, build_config, read_field
from .dataset import DatasetParseError, DatasetSchemaError, load_bundled_dataset, load_dataset
from .runner import emit_report, run_experiment


def _seeds(text: str) -> list[int]:
    """An argparse type for comma-separated seeds.

    A bad or empty item is a usage error that names the item, so argparse
    exits with code 2 and names the option; the runner rejects a repeat.
    """
    seeds = []
    for item in text.split(","):
        item = item.strip()
        try:
            seed = int(item)
            if seed < 0:  # numpy seeds no generator from a negative integer
                raise ValueError(item)
        except ValueError:
            problem = "empty item" if not item else f"{item!r} is not a non-negative integer"
            raise argparse.ArgumentTypeError(f"{problem} in {text!r}") from None
        seeds.append(seed)
    return seeds


def _axis(text: str) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """An argparse type for one ``--vary`` axis, ``F=v1,v2`` or ``F1:F2=a1:b1,a2:b2``.

    Each value goes through ``read_field``, as a config file's does, so an
    unknown field or a bad value is a usage error that names the item.
    """
    names, sep, items = text.partition("=")
    names = tuple(name.strip() for name in names.split(":"))
    if not sep:
        raise argparse.ArgumentTypeError(f"expected FIELD=v1,v2 or F1:F2=a1:b1,a2:b2, got {text!r}")
    points = []
    for item in items.split(","):
        parts = item.split(":")
        if not all(part.strip() for part in parts):
            raise argparse.ArgumentTypeError(f"empty item in {text!r}")
        if len(parts) != len(names):
            raise argparse.ArgumentTypeError(f"{item!r} does not give one value per field in {text!r}")
        try:
            points.append(tuple(read_field(name, part) for name, part in zip(names, parts)))
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(f"bad item {item!r}: {exc} in {text!r}") from None
    return names, tuple(points)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlcfed",
        description="Federated learning over a hybrid visible-light/RF network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="one experiment, or one per point of the --vary grid")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument(
        "--seeds",
        type=_seeds,
        default="0,1,2,3,4",
        help="comma-separated seeds",
    )
    p_run.add_argument(
        "--vary",
        type=_axis,
        action="append",
        default=[],
        metavar="FIELD=v1,v2",
        help="an axis of config values, F1:F2=a1:b1,a2:b2 to move fields together; "
        "repeat for the product of the axes, the last fastest",
    )
    p_run.add_argument("--out", default="out", help="output directory for CSVs")
    p_run.add_argument("--mode", choices=(*MODES, "both"), default="both")
    p_run.add_argument("--dataset", help="CSV path; defaults to the bundled corpus")
    p_run.add_argument(
        "--no-train",
        action="store_true",
        help="skip federated training (selection metrics only)",
    )

    args = parser.parse_args(argv)
    modes = MODES if args.mode == "both" else (args.mode,)

    try:
        config = build_config(args.config)
        data = load_dataset(args.dataset) if args.dataset else load_bundled_dataset()
        report = run_experiment(config, args.seeds, data, modes, not args.no_train, args.vary)
        paths = emit_report(report, args.out)
    except (OSError, ConfigError, DatasetSchemaError, DatasetParseError) as exc:
        # A bad file, value or grid is a usage error: one line naming it, exit code 2.
        parser.error(str(exc))
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
