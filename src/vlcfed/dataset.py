"""Regression data ingestion and per-user partitioning.

The expected file format is a CSV with 14 numeric columns (13 features, then
the target) and an optional single header line. A deterministic synthetic
generator with the same shape is provided for hermetic tests and as the
bundled default corpus.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

N_FEATURES = 13

BUNDLED_DATASET = "housing_synthetic.csv"


class DatasetSchemaError(ValueError):
    """File-level shape problem: wrong column count, empty file."""


class DatasetParseError(ValueError):
    """Cell-level problem: a non-numeric or non-finite value, with its line."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, 13)
    targets: np.ndarray   # (n,)
    name: str

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    def subset(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.targets[idx], name or self.name)


@dataclass(frozen=True)
class DataShard:
    owner: int
    x: np.ndarray  # (k, 13)
    y: np.ndarray  # (k,)

    @property
    def size(self) -> int:
        return int(self.x.shape[0])


def _is_header(cells: list[str]) -> bool:
    for cell in cells:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def load_dataset(path: str, name: str | None = None) -> Dataset:
    """Read a 14-column numeric CSV into a Dataset, validating every cell."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [(i + 1, r) for i, r in enumerate(rows) if r]  # keep original line numbers
    if rows and _is_header(rows[0][1]):
        if len(rows[0][1]) != N_FEATURES + 1:
            raise DatasetSchemaError(
                f"{path}: line 1: expected {N_FEATURES + 1} columns, got {len(rows[0][1])}"
            )
        rows = rows[1:]
    if not rows:
        raise DatasetSchemaError(f"{path}: no data rows")
    features = np.empty((len(rows), N_FEATURES), dtype=float)
    targets = np.empty(len(rows), dtype=float)
    for out_i, (lineno, cells) in enumerate(rows):
        if len(cells) != N_FEATURES + 1:
            raise DatasetSchemaError(
                f"{path}: line {lineno}: expected {N_FEATURES + 1} columns, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError as exc:
                raise DatasetParseError(
                    f"{path}: line {lineno}: column {j + 1}: not a number: {cell!r}"
                ) from exc
            if not np.isfinite(value):
                raise DatasetParseError(
                    f"{path}: line {lineno}: column {j + 1}: non-finite value {cell!r}"
                )
            if j < N_FEATURES:
                features[out_i, j] = value
            else:
                targets[out_i] = value
    return Dataset(features, targets, name or path)


def save_dataset(data: Dataset, path: str) -> None:
    """Write a Dataset back out in the loadable CSV format (with header)."""
    header = [f"x{i + 1}" for i in range(N_FEATURES)] + ["y"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n_rows):
            writer.writerow(
                ["%.17g" % v for v in data.features[i]] + ["%.17g" % data.targets[i]]
            )


def load_bundled_dataset() -> Dataset:
    """Load the synthetic housing-format corpus shipped with the package."""
    ref = resources.files("vlcfed").joinpath("data").joinpath(BUNDLED_DATASET)
    with resources.as_file(ref) as path:
        return load_dataset(str(path), name=BUNDLED_DATASET)


def make_synthetic(
    n_rows: int = 506,
    seed: int = 0,
    noise_std: float = 0.35,
    nonlinear_scale: float = 1.0,
) -> Dataset:
    """Deterministic regression corpus with the housing-file shape.

    Features mix scales like real tabular data. The target combines a linear
    part with interactions and smooth nonlinearities, so a few hundred
    samples sit mid-learning-curve for a small network, plus Gaussian noise;
    it is rescaled to a housing-price-like range.
    """
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=N_FEATURES)
    shifts = rng.uniform(-5.0, 5.0, size=N_FEATURES)
    x = rng.normal(0.0, 1.0, size=(n_rows, N_FEATURES)) * scales + shifts
    x_std = (x - x.mean(axis=0)) / x.std(axis=0)
    weights = rng.normal(0.0, 1.0, size=N_FEATURES)
    weights /= np.linalg.norm(weights)
    nonlinear = (
        x_std[:, 0] * x_std[:, 1]
        + x_std[:, 2] * x_std[:, 3]
        + (x_std[:, 4] ** 2 - 1.0)
        + np.sin(2.0 * x_std[:, 5])
    )
    signal = x_std @ weights + nonlinear_scale * nonlinear
    signal /= signal.std()
    y = 22.5 + 9.0 * (signal + rng.normal(0.0, noise_std, size=n_rows))
    return Dataset(x, y, f"synthetic(seed={seed})")


def shard_size(n_rows: int, n_users: int, test_size: int) -> int:
    """Rows per user when ``split_and_partition`` deals ``n_rows`` rows:
    floor((n_rows - test_size) / n_users).

    Raises ValueError unless there is at least one row per user after the
    test set.
    """
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users!r}")
    if test_size < 0:
        raise ValueError(f"test_size must be >= 0, got {test_size!r}")
    if test_size + n_users > n_rows:
        raise ValueError(
            f"need at least test_size + n_users = {test_size + n_users} rows, "
            f"dataset has {n_rows}"
        )
    return (n_rows - test_size) // n_users


def split_and_partition(
    data: Dataset, n_users: int, test_size: int, seed: int
) -> tuple[list[DataShard], Dataset]:
    """Hold out a random test set, then deal equal-size shards to users.

    Every user receives exactly ``shard_size`` rows; leftover rows are
    discarded so shard sizes stay equal. Deterministic for
    a fixed seed; shards and test set are pairwise disjoint.
    """
    size = shard_size(data.n_rows, n_users, test_size)
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n_rows)
    test_idx = order[:test_size]
    shards = []
    for user in range(n_users):
        start = test_size + user * size
        idx = order[start : start + size]
        shards.append(DataShard(owner=user, x=data.features[idx], y=data.targets[idx]))
    test = data.subset(test_idx, name=f"{data.name}[test]")
    return shards, test
