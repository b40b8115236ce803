import re

import numpy as np
import pytest

from vlcfed import (
    DatasetParseError,
    DatasetSchemaError,
    load_bundled_dataset,
    load_dataset,
    make_synthetic,
    save_dataset,
    split_and_partition,
)
from vlcfed.dataset import shard_size


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD_ROW = ",".join(["1.0"] * 13) + ",7.5"


class TestLoadDataset:
    def test_bundled_corpus_has_canonical_shape(self):
        data = load_bundled_dataset()
        assert data.n_rows == 506
        assert data.features.shape == (506, 13)
        assert np.isfinite(data.features).all() and np.isfinite(data.targets).all()

    def test_header_is_optional(self, tmp_path):
        header = ",".join(f"x{i}" for i in range(13)) + ",y\n"
        with_header = load_dataset(write(tmp_path, header + GOOD_ROW + "\n", "a.csv"))
        without = load_dataset(write(tmp_path, GOOD_ROW + "\n", "b.csv"))
        assert with_header.n_rows == without.n_rows == 1
        assert with_header.targets[0] == 7.5

    def test_empty_file_is_schema_error(self, tmp_path):
        with pytest.raises(DatasetSchemaError):
            load_dataset(write(tmp_path, ""))

    def test_header_only_is_schema_error(self, tmp_path):
        header = ",".join(f"x{i}" for i in range(13)) + ",y\n"
        with pytest.raises(DatasetSchemaError):
            load_dataset(write(tmp_path, header))

    def test_wrong_column_count_names_line(self, tmp_path):
        bad = GOOD_ROW + "\n1.0,2.0\n"
        with pytest.raises(DatasetSchemaError, match="line 2"):
            load_dataset(write(tmp_path, bad))

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        bad = GOOD_ROW + "\n" + GOOD_ROW.replace("7.5", "oops") + "\n"
        with pytest.raises(DatasetParseError, match="line 2.*column 14"):
            load_dataset(write(tmp_path, bad))

    def test_non_finite_cell_rejected(self, tmp_path):
        bad = GOOD_ROW.replace("7.5", "nan") + "\n"
        with pytest.raises(DatasetParseError, match="line 1"):
            load_dataset(write(tmp_path, bad))

    def test_roundtrip_is_exact(self, tmp_path):
        data = make_synthetic(50, seed=9)
        path = str(tmp_path / "round.csv")
        save_dataset(data, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.targets, data.targets)


class TestMakeSynthetic:
    def test_deterministic(self):
        a = make_synthetic(100, seed=4)
        b = make_synthetic(100, seed=4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        c = make_synthetic(100, seed=5)
        assert not np.array_equal(a.targets, c.targets)

    def test_shape(self):
        d = make_synthetic(73, seed=0)
        assert d.features.shape == (73, 13)
        assert d.targets.shape == (73,)


class TestSplitAndPartition:
    def test_canonical_partition(self):
        data = make_synthetic(506, seed=1)
        shards, test = split_and_partition(data, n_users=50, test_size=17, seed=0)
        assert len(shards) == 50
        assert all(s.size == 9 for s in shards)
        assert test.n_rows == 17
        assert sum(s.size for s in shards) + test.n_rows == 467  # 39 rows unused

    def test_single_user_takes_everything(self):
        data = make_synthetic(30, seed=1)
        shards, test = split_and_partition(data, n_users=1, test_size=0, seed=0)
        assert len(shards) == 1 and shards[0].size == 30
        assert test.n_rows == 0

    def test_deterministic(self):
        data = make_synthetic(120, seed=2)
        a = split_and_partition(data, 10, 11, seed=42)
        b = split_and_partition(data, 10, 11, seed=42)
        for sa, sb in zip(a[0], b[0]):
            assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)
        assert np.array_equal(a[1].features, b[1].features)

    def test_disjoint_and_reconstructible(self):
        data = make_synthetic(101, seed=3)
        shards, test = split_and_partition(data, 7, 10, seed=1)
        # map every selected row back to its source index via exact match
        keys = {tuple(row): i for i, row in enumerate(data.features)}
        seen = set()
        for shard in shards:
            for row in shard.x:
                idx = keys[tuple(row)]
                assert idx not in seen
                seen.add(idx)
        for row in test.features:
            idx = keys[tuple(row)]
            assert idx not in seen
            seen.add(idx)
        assert len(seen) == 7 * ((101 - 10) // 7) + 10

    def test_owners_are_sequential(self):
        data = make_synthetic(60, seed=4)
        shards, _ = split_and_partition(data, 5, 5, seed=0)
        assert [s.owner for s in shards] == list(range(5))

    def test_infeasible_sizes_rejected(self):
        data = make_synthetic(20, seed=5)
        with pytest.raises(ValueError):
            split_and_partition(data, n_users=15, test_size=10, seed=0)
        with pytest.raises(ValueError):
            split_and_partition(data, n_users=0, test_size=1, seed=0)
        with pytest.raises(ValueError):
            split_and_partition(data, n_users=3, test_size=-1, seed=0)

    @pytest.mark.parametrize("n_rows, n_users, test_size", [(506, 50, 17), (506, 97, 17), (30, 1, 0), (101, 7, 10)])
    def test_shard_size_is_the_dealt_size(self, n_rows, n_users, test_size):
        shards, _ = split_and_partition(make_synthetic(n_rows, seed=1), n_users, test_size, seed=0)
        assert {s.size for s in shards} == {shard_size(n_rows, n_users, test_size)}

    @pytest.mark.parametrize(
        "n_users, test_size, message",
        [
            (15, 10, "need at least test_size + n_users = 25 rows, dataset has 20"),
            (0, 1, "n_users must be >= 1, got 0"),
            (3, -1, "test_size must be >= 0, got -1"),
        ],
    )
    def test_shard_size_rejects_what_the_partition_rejects(self, n_users, test_size, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            shard_size(20, n_users, test_size)
        with pytest.raises(ValueError, match=re.escape(message)):
            split_and_partition(make_synthetic(20, seed=5), n_users, test_size, seed=0)
