"""Regression data ingestion and per-user partitioning.

The expected file format is a CSV with 14 numeric columns (13 features, then
the target) and an optional single header line, one in which no cell reads
as a number. The package bundles one such file, a synthetic corpus, so
default runs need no download.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .config import read_text

N_FEATURES = 13

BUNDLED_DATASET = "housing_synthetic.csv"


class DatasetSchemaError(ValueError):
    """File-level shape problem: wrong column count, empty file."""


class DatasetParseError(ValueError):
    """Cell-level problem: a non-numeric or non-finite value, with its line,
    or bytes that are not UTF-8, with their line and offset."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, 13)
    targets: np.ndarray   # (n,)
    name: str
    source: bytes | None = field(default=None, repr=False, compare=False)  # the CSV bytes it was loaded from

    @cached_property
    def sha256(self) -> str | None:
        """sha256 of ``source``, computed once; None for a dataset built in memory."""
        if self.source is None:
            return None
        import hashlib  # it loads OpenSSL, about 5 ms: on first use, not at start-up

        return hashlib.sha256(self.source).hexdigest()

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


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_dataset(path: str, name: str | None = None) -> Dataset:
    """Read a 14-column numeric CSV into a Dataset, validating every cell."""
    raw, text = read_text(path, DatasetParseError)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    rows = [(i + 1, r) for i, r in enumerate(rows) if r]  # keep original line numbers
    # A header has no number in it, so a typo in a first data row fails as a bad cell.
    if rows and not any(map(_is_number, rows[0][1])):
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
            if not math.isfinite(value):
                raise DatasetParseError(
                    f"{path}: line {lineno}: column {j + 1}: non-finite value {cell!r}"
                )
            if j < N_FEATURES:
                features[out_i, j] = value
            else:
                targets[out_i] = value
    return Dataset(features, targets, name or path, raw)


def load_bundled_dataset() -> Dataset:
    """Load the synthetic housing-format corpus shipped with the package."""
    ref = resources.files("vlcfed").joinpath("data").joinpath(BUNDLED_DATASET)
    with resources.as_file(ref) as path:
        return load_dataset(str(path), name=BUNDLED_DATASET)


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
            f"need at least test_size + n_users = {test_size} + {n_users} = {test_size + n_users} rows, "
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
