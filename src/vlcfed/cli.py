"""Command-line front end.

Subcommands:
  run              one experiment over the given seeds and modes
  sweep-users      repeat across total-user counts
  sweep-bandwidth  repeat across (RF, VLC) total-bandwidth pairs
"""

from __future__ import annotations

import argparse
import sys

from .allocation import MODES
from .config import ConfigError, build_config
from .dataset import DatasetParseError, DatasetSchemaError, load_bundled_dataset, load_dataset
from .runner import emit_report, run_experiment, sweep_bandwidth, sweep_users


def _comma_list(parse, what: str):
    """An argparse type for a comma-separated list, each item read by ``parse``.

    A bad or empty item is a usage error that names the item, so argparse
    exits with code 2 and names the option.
    """

    def convert(text: str) -> list:
        values = []
        for item in text.split(","):
            item = item.strip()
            try:
                values.append(parse(item))
            except ValueError:
                problem = "empty item" if not item else f"{item!r} is not {what}"
                raise argparse.ArgumentTypeError(f"{problem} in {text!r}") from None
        return values

    return convert


def _seed(item: str) -> int:
    seed = int(item)
    if seed < 0:  # numpy seeds no generator from a negative integer
        raise ValueError(item)
    return seed


def _band_pair(item: str) -> tuple[float, float]:
    rf, sep, vlc = item.partition(":")
    if not sep:
        raise ValueError(item)
    return float(rf), float(vlc)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--seeds",
        type=_comma_list(_seed, "a non-negative integer"),
        default="0,1,2,3,4",
        help="comma-separated seeds",
    )
    parser.add_argument("--out", default="out", help="output directory for CSVs")
    parser.add_argument("--mode", choices=(*MODES, "both"), default="both")
    parser.add_argument("--dataset", help="CSV path; defaults to the bundled corpus")
    parser.add_argument(
        "--no-train",
        action="store_true",
        help="skip federated training (selection metrics only)",
    )


def _load_data(args):
    if args.dataset:
        return load_dataset(args.dataset)
    return load_bundled_dataset()


def _modes(args) -> tuple[str, ...]:
    return MODES if args.mode == "both" else (args.mode,)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlcfed",
        description="Federated learning over a hybrid visible-light/RF network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single experiment")
    _add_common(p_run)

    p_users = sub.add_parser("sweep-users", help="vary total user count")
    _add_common(p_users)
    p_users.add_argument(
        "--n-values",
        type=_comma_list(int, "an integer"),
        default="20,30,40,50,60,70,80,90,100",
        help="comma-separated user counts",
    )

    p_band = sub.add_parser("sweep-bandwidth", help="vary total bandwidths")
    _add_common(p_band)
    p_band.add_argument(
        "--pairs",
        type=_comma_list(_band_pair, "an rf:vlc pair of numbers"),
        default="10e6:20e6,20e6:40e6,40e6:80e6",
        help="comma-separated rf:vlc total-bandwidth pairs in Hz",
    )

    args = parser.parse_args(argv)
    train = not args.no_train

    try:
        config = build_config(args.config)
        data = _load_data(args)
        if args.command == "run":
            report = run_experiment(config, args.seeds, data, _modes(args), train)
        elif args.command == "sweep-users":
            report = sweep_users(config, args.seeds, data, args.n_values, _modes(args), train)
        else:
            report = sweep_bandwidth(config, args.seeds, data, args.pairs, _modes(args), train)
        paths = emit_report(report, args.out)
    except (OSError, ConfigError, DatasetSchemaError, DatasetParseError) as exc:
        # A bad file or value is a usage error: one line naming it, exit code 2.
        parser.error(str(exc))
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
