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
from .config import build_config
from .dataset import load_bundled_dataset, load_dataset
from .runner import emit_report, run_experiment, sweep_bandwidth, sweep_users


def _parse_ints(text: str) -> list[int]:
    return [int(s) for s in text.replace(",", " ").split()]


def _parse_band_pairs(text: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        rf, _, vlc = chunk.partition(":")
        pairs.append((float(rf), float(vlc)))
    return pairs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
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
        "--n-values", default="20,30,40,50,60,70,80,90,100", help="user counts"
    )

    p_band = sub.add_parser("sweep-bandwidth", help="vary total bandwidths")
    _add_common(p_band)
    p_band.add_argument(
        "--pairs",
        default="10e6:20e6,20e6:40e6,40e6:80e6",
        help="comma-separated rf:vlc total-bandwidth pairs in Hz",
    )

    args = parser.parse_args(argv)

    config = build_config(args.config)
    data = _load_data(args)
    seeds = _parse_ints(args.seeds)
    train = not args.no_train

    if args.command == "run":
        report = run_experiment(config, seeds, data, _modes(args), train)
    elif args.command == "sweep-users":
        report = sweep_users(config, seeds, data, _parse_ints(args.n_values), _modes(args), train)
    else:
        report = sweep_bandwidth(config, seeds, data, _parse_band_pairs(args.pairs), _modes(args), train)

    paths = emit_report(report, args.out)
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
